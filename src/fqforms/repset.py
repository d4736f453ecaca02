"""Representation sets V_k(Q) and representation numbers.

Values are enumerated on a reduced representative: the degree formula
deg Q(x) = max_i (2 deg x_i + mu_i) for reduced definite binary forms
bounds coordinate degrees by deg x_i <= (k - mu_i)/2, so V_k(Q) comes
from a finite grid.  The same bounds are used for rank 3 and 4, where the
formula is not a theorem; tests validate them against inflated bounds
(`slack`), and any consumer can re-run with a positive slack.

Polynomials in a representation set are stored as base-q integer keys in
a sorted numpy array.  Key order is degree-compatible (every key of a
degree-d polynomial is smaller than every key of degree d+1), so the
ascending key order is the canonical degree-lexicographic order and
restricting to a smaller degree bound is a prefix slice.

The grid holds the values of the binary part a x^2 + 2 b x y + c y^2 of
the first two coordinates as coefficient planes: plane i is the (Nx, Ny)
array of coefficients of t^i, reduced mod q, in the narrowest unsigned
type that holds 3 (q - 1).  Each plane is built in that type:
(a x^2)_i + (c y^2)_i by one broadcast add, plus, when b is nonzero, the
cross term sum_s x_s (2 b y)_(i-s), its products read from a q x q table;
each sum is brought back below q by a wrap-min step (`_wrap`).  So no
(Nx, Ny, length) int64 block and no int64 matrix product (numpy has no
BLAS for int64) is formed.  Keys are folded from the planes one plane at
a time (Horner's rule into int64), never by a tensor contraction, which
would upcast the whole block.

The plane kernel (`_binary_planes`, `_fold`) has a leading batch axis:
it takes the (a, b, c) coefficient rows of R binary blocks over one
coordinate grid, zero-padded to one length.  `_Grid` runs it with R = 1.
`repset_keys_batch` runs it on the coefficient rows of many reduced forms
that share their minima, and so their bounds, at once, as (c, b, a) over (y, x), the same
values with the longer x grid along numpy's inner loops: chunks of about
2^14 int64 keys, each deduplicated by one `_distinct` with the keys of
form r offset by r q^L, where L bounds the value length by the degree
formula, and handed on per chunk with the start of each form's keys.

Deduplication follows the key range (`_distinct`): when q^(k+1) is at
most 4 times the number of keys, each tail's keys are marked in a boolean
array of length q^(k+1) and read back in ascending order; otherwise they
are sorted together and adjacent duplicates dropped.  Representation
numbers go through `np.unique` with counts.

An orthogonal tail is summed, not looped over.  When the reduced Gram
matrix has g_1j = g_2j = 0 for every tail coordinate j >= 3 (the ternary
family X^2 + t Y^2 - delta (t + a^2) Z^2 is diagonal), a grid value is a
binary-block value plus a tail-block value, so the grid's keys are the
digit-wise sums mod q of the block's distinct keys and the tail's
distinct values.  The sums of the full keys are taken first and cut to
degree <= k after, so the result equals the tail loop's at every slack.
The budget then counts the block's grid vectors, the tail's vectors and
the (block key, tail value) pairs summed.  The block's distinct keys are
kept, read-only, in a small cache by the block's coefficients and bounds
(`_binary_block_keys`), so forms that share a block, such as the ternary
family's X^2 + t Y^2, enumerate it once; the budget is checked before the
cache is read.  Representation numbers, witness search and non-orthogonal
tails keep the tail loop.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DEFAULT_BUDGET, BudgetError
from .qform import Form, _poly_rows, key_powers, reduce


def coordinate_degree_bounds(minima, k, slack=0):
    """Per-coordinate degree bounds for values of degree <= k; -1 means x_i = 0."""
    return tuple(max((k - mu) // 2 + slack, -1) for mu in minima)


def _coeff_rows(q, count):
    """All q^count coefficient rows, row index == packed key of the polynomial."""
    if count <= 0:
        return np.zeros((1, 0), dtype=np.int64)
    idx = np.arange(q**count, dtype=np.int64)
    return (idx[:, None] // (q ** np.arange(count, dtype=np.int64))) % q


def _batch_square(rows, q):
    """The (n, 2c - 1) coefficient rows of the squares of the (n, c) rows,
    reduced mod q (a transposed view)."""
    n, c = rows.shape
    if c == 0:
        return np.zeros((n, 1), dtype=np.int64)
    cols = rows.T
    out = np.zeros((2 * c - 1, n), dtype=np.int64)
    for r in range(c):
        out[r : r + c] += cols[r] * cols
    return (out % q).T


def _conv(rows, coeffs, q):
    """Convolve each row with a coefficient tuple, or with each of the
    (R, L) coefficient rows `coeffs`, giving an (R, n, c + L - 1) array."""
    coeffs = np.asarray(coeffs, dtype=np.int64)
    n, c = rows.shape
    length = coeffs.shape[-1]
    if length == 0 or c == 0:
        return np.zeros(coeffs.shape[:-1] + (n, 1), dtype=np.int64)
    out = np.zeros(coeffs.shape[:-1] + (n, c + length - 1), dtype=np.int64)
    for i in range(length):
        out[..., i : i + c] += coeffs[..., i, None, None] * rows
    return out % q


def _fit(arr, length):
    """Zero-pad or cut the last axis to `length`; only zero entries are cut."""
    if arr.shape[-1] >= length:
        return arr[..., :length]
    out = np.zeros(arr.shape[:-1] + (length,), dtype=arr.dtype)
    out[..., : arr.shape[-1]] = arr
    return out


def _value_length(gram, bounds):
    """Coefficients needed for every value: the largest
    deg g_ij + b_i + b_j + 1 over the enumerated coordinates (b >= 0)."""
    live = [i for i, b in enumerate(bounds) if b >= 0]
    return max(
        [
            gram[i][j].degree + bounds[i] + bounds[j] + 1
            for i in live
            for j in live
            if not gram[i][j].is_zero()
        ],
        default=1,
    )


def _wrap(plane, q, scratch, steps=1):
    """Reduce the unsigned `plane`, each entry below (steps + 1) q, mod q in
    place.  In unsigned arithmetic plane - q wraps above plane where
    plane < q, so min(plane, plane - q) takes q off each entry >= q; one
    step per multiple of q.  `scratch` has the shape and type of `plane`."""
    narrow_q = plane.dtype.type(q)
    for _ in range(steps):
        np.subtract(plane, narrow_q, out=scratch)
        np.minimum(plane, scratch, out=plane)


def _block_rows(forms):
    """The (R, 3, width) coefficient rows of the binary blocks
    (g_11, g_12, g_22) of R forms, zero-padded to the longest entry."""
    polys = [p for f in forms for p in (f.gram[0][0], f.gram[0][1], f.gram[1][1])]
    width = max(len(p.coeffs) for p in polys)
    return _poly_rows(polys, width).reshape(len(forms), 3, width)


def _row_degrees(rows):
    """The degree of the nonzero polynomial of each coefficient row
    (..., width)."""
    return rows.shape[-1] - 1 - (rows[..., ::-1] != 0).argmax(axis=-1)


def _binary_planes(coeffs, x, y, length, q):
    """The (R, length, Nx, Ny) planes of a x^2 + 2 b x y + c y^2 for R
    binary blocks at once, their (a, b, c) coefficient rows `coeffs` (an
    (R, 3, width) array), over the coefficient rows x (Nx, cx) and
    y (Ny, cy), reduced mod q in the narrowest unsigned type that holds
    3 (q - 1).

    Plane i starts as (a x^2)_i + (c y^2)_i, one broadcast add in that
    type.  When some b is nonzero and y is enumerated, the cross term
    sum_s x_s (2 b y)_(i-s) is added one s at a time, each product read
    from a q x q table.  Every sum stays below 2 q and is brought back
    below q by `_wrap`, so no int64 block and no integer matrix product is
    formed.  Numpy's inner loops run along Ny, so a caller free to order
    the coordinates passes the longer grid as y.
    """
    dtype = np.min_scalar_type(3 * (q - 1))
    count, _, width = coeffs.shape

    def part(rows, poly):
        # (R, length, N): coefficient i of poly * row for each of the rows,
        # given as a (c, N) array of coefficients, reduced mod q
        span = max(length, width + len(rows) - 1)
        out = np.zeros((count, span, rows.shape[1]), dtype=np.int64)
        for j in range(width):
            out[:, j : j + len(rows)] += poly[:, j, None, None] * rows
        return np.remainder(out[:, :length], q).astype(dtype)

    a, two_b, c = coeffs[:, 0], coeffs[:, 1] * 2 % q, coeffs[:, 2]
    xx, yy = _batch_square(x, q).T, _batch_square(y, q).T
    planes = np.add(part(xx, a)[..., None], part(yy, c)[:, :, None, :])
    scratch = np.empty_like(planes)
    _wrap(planes, q, scratch)
    if y.shape[1] and two_b.any():
        by = part(y.T, two_b)  # by[r, m, j] = (2 b y_j)_m of block r
        top = int(np.flatnonzero(by.any(axis=(0, 2)))[-1]) + 1
        table = (np.arange(q)[:, None] * np.arange(q) % q).astype(dtype)
        # products[r, m, v, j] = v (2 b y_j)_m mod q, for every digit v
        products = np.ascontiguousarray(table[:, by[:, :top]].transpose(1, 2, 0, 3))
        for s in range(x.shape[1]):
            end = min(length, s + top)
            # the terms x_s (2 b y)_(i-s) of planes s..end-1 at once
            view = planes[:, s:end]
            view += np.take(products[:, : end - s], x[:, s], axis=2)
            _wrap(view, q, scratch[:, s:end])
    return planes


def _fold(planes, q, parts=None):
    """(R, Nx, Ny) int64 keys of the (R, length, Nx, Ny) planes, folded one
    plane at a time from the top down by Horner's rule (keys * q + plane).

    `parts` are a tail's (length, Nx) x-part and (length, Ny) y-part: each
    is added to every plane, which is then reduced mod q by `_wrap` in the
    narrow plane type.
    """
    shape = planes.shape[:1] + planes.shape[2:]
    keys = np.zeros(shape, dtype=np.int64)
    if parts is not None:
        xpart, ypart = parts
        plane = np.empty(shape, dtype=planes.dtype)
        scratch = np.empty(shape, dtype=planes.dtype)
    for i in reversed(range(planes.shape[1])):
        if parts is not None:
            np.add(planes[:, i], xpart[i][:, None], out=plane)
            plane += ypart[i]
            _wrap(plane, q, scratch, steps=2)
        else:
            plane = planes[:, i]
        keys *= q
        keys += plane
    return keys


class _Grid:
    """Value keys of a reduced form over the coordinate grid, rank 2..4.

    Coordinates 3 and 4 are looped over ("tails"), coordinates 1 and 2 are
    vectorized, so chunks stay small even for large grids.

    The values of the binary part a x^2 + 2 b x y + c y^2 are held in
    `base` as coefficient planes (`_binary_planes` with one block): plane
    i, of shape (Nx, Ny), holds the coefficient of t^i, reduced mod q, in
    the narrowest unsigned type that holds 3 (q - 1) (uint8 for q <= 86).
    A plane plus a tail's x-part and y-part, each reduced mod q, stays
    within that type.
    """

    def __init__(self, red, bounds, budget=DEFAULT_BUDGET):
        q = red.field.q
        counts = [b + 1 for b in bounds]
        total = _grid_vectors(q, bounds)
        _check_budget(total, budget, "vectors")
        length = _value_length(red.gram, bounds)
        key_powers(q, length)  # refuses key lengths that would wrap int64
        self.red = red
        self.q = q
        self.bounds = bounds
        self.vectors = total
        self.length = length
        self.x_rows = _coeff_rows(q, counts[0])
        self.y_rows = _coeff_rows(q, counts[1])
        self.tail_sizes = [q**c for c in counts[2:]]
        self.base = _binary_planes(
            _block_rows([red]), self.x_rows, self.y_rows, length, q
        )[0]

    def tails(self):
        """All tail coordinate keys, () for binary forms."""
        if self.red.n == 2:
            return [()]
        if self.red.n == 3:
            return [(k,) for k in range(self.tail_sizes[0])]
        return [
            (k3, k4)
            for k3 in range(self.tail_sizes[0])
            for k4 in range(self.tail_sizes[1])
        ]

    def _tail_parts(self, tail):
        """(length, Nx) and (length, Ny) planes, reduced mod q, of the terms
        a tail adds: 2 x sum_j g_1j z_j + sum_ij g_ij z_i z_j and
        2 y sum_j g_2j z_j, over the tail coordinates z_3 (, z_4)."""
        F = self.red.field
        q = self.q
        g = self.red.gram
        zs = [F.poly_from_key(k) for k in tail]
        lin_x = lin_y = const = F.zero
        for idx, z in enumerate(zs, start=2):
            lin_x = lin_x + 2 * g[0][idx] * z
            lin_y = lin_y + 2 * g[1][idx] * z
            const = const + g[idx][idx] * z * z
        if len(zs) == 2:
            const = const + 2 * g[2][3] * zs[0] * zs[1]
        cvec = _fit(np.array([const.coeffs or (0,)], dtype=np.int64), self.length)
        xpart = (_fit(_conv(self.x_rows, lin_x.coeffs, q), self.length) + cvec) % q
        ypart = _fit(_conv(self.y_rows, lin_y.coeffs, q), self.length)
        return (
            np.ascontiguousarray(xpart.T, dtype=self.base.dtype),
            np.ascontiguousarray(ypart.T, dtype=self.base.dtype),
        )

    def keys_for_tail(self, tail):
        """(Nx, Ny) matrix of value keys with coordinates 3.. fixed to `tail`,
        folded from the planes by `_fold`."""
        parts = self._tail_parts(tail) if tail else None
        return _fold(self.base[None], self.q, parts)[0]


def _orthogonal_tail(gram):
    """Whether a rank >= 3 Gram matrix has g_1j = g_2j = 0 for j >= 3."""
    return len(gram) > 2 and all(
        gram[i][j].is_zero() for i in (0, 1) for j in range(2, len(gram))
    )


def _grid_vectors(q, bounds):
    """The number of coordinate vectors with deg x_i <= bounds[i]."""
    total = 1
    for b in bounds:
        total *= q ** (b + 1)
    return total


def _check_budget(needed, budget, what):
    if needed > budget:
        raise BudgetError(
            f"representation-set enumeration needs {needed} {what} "
            f"(budget {budget})"
        )


def _block_keys(gram, bounds, budget):
    """Sorted distinct value keys of a rank-1 or rank-2 Gram block over
    the coordinate grid `bounds`, uncut.  The budget is checked first, so
    a rank-2 block already in the `_binary_block_keys` cache raises as a
    new one does."""
    q = gram[0][0].field.q
    _check_budget(_grid_vectors(q, bounds), budget, "vectors")
    if len(gram) == 2:
        return _binary_block_keys(gram[0][0], gram[0][1], gram[1][1], bounds)
    length = _value_length(gram, bounds)
    squares = _batch_square(_coeff_rows(q, bounds[0] + 1), q)
    values = _fit(_conv(squares, gram[0][0].coeffs, q), length)
    keys = (values * key_powers(q, length)).sum(axis=1)
    return _distinct([keys], q**length, len(values))


# the X^2 + t Y^2 block of the ternary family recurs in each of its forms
@functools.lru_cache(maxsize=4)
def _binary_block_keys(a, b, c, bounds):
    """Sorted distinct value keys of a x^2 + 2 b x y + c y^2 over the
    coordinate grid `bounds`, uncut, as a read-only array shared by every
    caller; the caller has checked the budget."""
    vectors = _grid_vectors(a.field.q, bounds)
    grid = _Grid(Form.binary(a, b, c), bounds, budget=vectors)
    keys = grid.keys_for_tail(()).ravel()
    keys = _distinct([keys], grid.q**grid.length, vectors)
    keys.flags.writeable = False
    return keys


def _distinct(chunks, span, size):
    """Sorted distinct keys of the arrays `chunks`, `size` keys in all, each
    below `span`: marked chunk by chunk in a bitset and read back when span
    is at most 4 times size, else sorted together with adjacent duplicates
    dropped (plain `np.unique` would import `numpy.ma`)."""
    if span <= 4 * size:
        seen = np.zeros(span, dtype=bool)
        for keys in chunks:
            seen[keys] = True
        return np.flatnonzero(seen)
    keys = np.concatenate(list(chunks))
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _digit_neg(keys, q):
    """Keys of the negated polynomials: each base-q digit d -> -d mod q."""
    keys = keys.copy()
    out = np.zeros_like(keys)
    weight = 1
    while keys.any():
        out += (-keys % q) * weight
        keys //= q
        weight *= q
    return out


def _sumset(q, block, tail, k, budget):
    """Sorted keys below q^(k+1) of the digit-wise sums mod q of a block
    key and a tail key, both sorted and distinct.

    A sum lies below q^(k+1) iff the digits of the block key above k
    negate those of the tail key, so each tail key meets only the slice
    of block keys with that high part (with slack 0 every key is already
    below q^(k+1)).  The low k+1 digits are added in chunks of c digits:
    for each tail key, one table over the q^c chunk values per chunk, read
    back at the block keys' chunks.  The sums are deduplicated by
    `_distinct`, one chunk per tail key.
    """
    width = k + 1
    cut = q**width
    high, low = np.divmod(tail, cut)
    need = _digit_neg(high, q) * cut
    starts = np.searchsorted(block, need).tolist()
    ends = np.searchsorted(block, need + cut).tolist()
    pairs = sum(ends) - sum(starts)
    _check_budget(pairs, budget, "key pairs")
    chunks = 1
    while q ** -(-width // chunks) > 2**12:
        chunks += 1
    c = -(-width // chunks)
    shifts = [q ** (c * j) for j in range(chunks)]
    weights = key_powers(q, c)
    block_chunks = [block % cut // s % q**c for s in shifts]
    tail_chunks = [low // s % q**c for s in shifts]
    values = np.arange(q, dtype=np.int64)

    def table(t, shift):
        # entry x: the digit-wise sum mod q of x and t, times shift, built
        # a digit at a time: x = x_j q^j + (the lower digits of x)
        out = np.zeros(1, dtype=np.int64)
        for digit, weight in zip((t // weights % q).tolist(), weights.tolist()):
            out = ((values + digit) % q * (weight * shift))[:, None] + out
            out = out.ravel()
        return out

    def sums():
        for i, (start, end) in enumerate(zip(starts, ends)):
            if start == end:
                continue
            keys = np.zeros(end - start, dtype=np.int64)
            for shift, b_chunk, t_chunk in zip(shifts, block_chunks, tail_chunks):
                keys += table(int(t_chunk[i]), shift)[b_chunk[start:end]]
            yield keys

    return _distinct(sums(), cut, pairs)


class RepSet:
    """The set of polynomials of degree <= k represented by a form.

    `keys` is a sorted numpy int64 array of packed polynomials; ascending
    key order is the canonical order and a degree restriction is a prefix.
    """

    __slots__ = ("field", "k", "keys")

    def __init__(self, field, k, keys):
        self.field = field
        self.k = k
        self.keys = keys

    def __len__(self):
        return len(self.keys)

    def __contains__(self, f):
        key = f.key() if hasattr(f, "key") else int(f)
        i = np.searchsorted(self.keys, key)
        return i < len(self.keys) and self.keys[i] == key

    def __eq__(self, other):
        return (
            isinstance(other, RepSet)
            and self.field == other.field
            and self.k == other.k
            and np.array_equal(self.keys, other.keys)
        )

    def restrict(self, k):
        """V_j for j <= k, as a prefix slice."""
        if k >= self.k:
            if k > self.k:
                raise ValueError("cannot extend a representation set")
            return self
        cut = np.searchsorted(self.keys, self.field.q ** (k + 1))
        return RepSet(self.field, k, self.keys[:cut])

    def polys(self):
        return [self.field.poly_from_key(int(key)) for key in self.keys]

    def __repr__(self):
        return f"RepSet(k={self.k}, size={len(self.keys)})"


def _grid_bounds(red, k, slack):
    """The coordinate degree bounds of V_k on a reduced form."""
    minima = tuple(red.gram[i][i].degree for i in range(red.n))
    return coordinate_degree_bounds(minima, k, slack)


def _tail_values(grid, k):
    """The grid's value keys below q^(k+1), one array per tail."""
    limit = grid.q ** (k + 1)
    for tail in grid.tails():
        keys = grid.keys_for_tail(tail).ravel()
        yield keys[keys < limit]


def repset_upto(form, k, *, slack=0, budget=DEFAULT_BUDGET):
    """Exact V_k(Q), enumerated on the reduced representative of Q.

    An orthogonal tail is summed onto the binary block's distinct keys (see
    the module docstring), and otherwise the tails' keys are deduplicated
    by `_distinct`; either result equals `np.unique`'s over the whole grid.
    """
    red, _ = reduce(form)
    F = form.field
    if k < 0:
        return RepSet(F, k, np.zeros(1, dtype=np.int64))
    bounds = _grid_bounds(red, k, slack)
    g = red.gram
    if _orthogonal_tail(g):
        block = _block_keys([row[:2] for row in g[:2]], bounds[:2], budget)
        tail = _block_keys([row[2:] for row in g[2:]], bounds[2:], budget)
        return RepSet(F, k, _sumset(F.q, block, tail, k, budget))
    grid = _Grid(red, bounds, budget)
    keys = _distinct(_tail_values(grid, k), F.q ** (k + 1), grid.vectors)
    return RepSet(F, k, keys)


# int64 keys per `repset_keys_batch` chunk, which bounds its blocks
_BATCH_VALUES = 2**14


def repset_keys_batch(q, rows, minima, k, *, budget=DEFAULT_BUDGET):
    """The V_k keys of each of many binary forms over F_q, which must be
    reduced and share their `minima` (deg a, deg c), given as the
    (R, 3, width) coefficient rows of their (a, b, c), chunk by chunk: an
    iterator of (keys, starts) pairs, one per run of consecutive forms.
    `keys` holds the keys of the run's forms one form after another, form
    r of the run owning keys[starts[r]:starts[r + 1]] (to the end for the
    last form), and each form's keys are sorted and equal
    `repset_upto(form, k).keys`.  Every form owns at least key 0.

    The forms are not reduced again.  Their grids share the coordinate
    bounds, so they are enumerated together, in chunks of about
    `_BATCH_VALUES` int64 keys: one `_binary_planes` and `_fold` pass per
    chunk, and one `_distinct` over the chunk's keys, the keys of form r
    offset by r q^L.  Every value has fewer than L = max_i (mu_i + 2 b_i)
    + 1 coefficients over the enumerated coordinates i, by the degree
    formula (b_i the coordinate bounds).  The budget is checked on the
    shared grid before any form is enumerated, with the error
    `repset_upto` raises.
    """
    if (_row_degrees(rows[:, ::2]) != minima).any():
        raise ValueError("a batch of forms must share its minima")
    bounds = coordinate_degree_bounds(minima, k)
    vectors = _grid_vectors(q, bounds)
    _check_budget(vectors, budget, "vectors")
    x, y = _coeff_rows(q, bounds[0] + 1), _coeff_rows(q, bounds[1] + 1)
    length = max((mu + 2 * b for mu, b in zip(minima, bounds) if b >= 0), default=0)
    length += 1
    key_powers(q, length)  # refuses key lengths that would wrap int64
    stride = q**length  # every key lies below it
    step = max(1, min(_BATCH_VALUES // vectors, (2**63 - 1) // stride))
    # (c, b, a) over (y, x): the same values, the longer x grid innermost
    coeffs = rows[:, ::-1, : minima[1] + 1]

    def chunks():
        for start in range(0, len(rows), step):
            chunk = coeffs[start : start + step].astype(np.int64)
            planes = _binary_planes(chunk, y, x, length, q)
            keys = _fold(planes, q).reshape(len(chunk), -1)
            keys += np.arange(len(chunk), dtype=np.int64)[:, None] * stride
            uniq = _distinct([keys.ravel()], stride * len(chunk), keys.size)
            starts = np.searchsorted(uniq, np.arange(len(chunk)) * stride)
            yield uniq % stride, starts

    return chunks()


def rep_numbers(form, k, *, slack=0, budget=DEFAULT_BUDGET):
    """Map f -> number of representing vectors, for every f in V_k(Q), in
    key order: counted by `np.unique` over the whole grid of the reduced
    representative, one tail at a time."""
    red, _ = reduce(form)
    F = form.field
    if k < 0:
        return {F.zero: 1}
    grid = _Grid(red, _grid_bounds(red, k, slack), budget)
    keys = np.concatenate(list(_tail_values(grid, k)))
    uniq, counts = np.unique(keys, return_counts=True)
    return {F.poly_from_key(key): n for key, n in zip(uniq.tolist(), counts.tolist())}


def represents(form, f, *, slack=0, budget=DEFAULT_BUDGET):
    """A witness vector x with Q(x) = f, or None.

    The witness is the first hit in the canonical grid order, mapped back
    through the reduction transformation.
    """
    F = form.field
    red, tr = reduce(form)
    if f.is_zero():
        return tuple(F.zero for _ in range(form.n))
    target = f.key()
    grid = _Grid(red, _grid_bounds(red, f.degree, slack), budget)
    for tail in grid.tails():
        keys = grid.keys_for_tail(tail)
        hits = np.argwhere(keys == target)
        if len(hits):
            ix, iy = int(hits[0][0]), int(hits[0][1])
            coords = [F.poly_from_key(ix), F.poly_from_key(iy)] + [
                F.poly_from_key(z) for z in tail
            ]
            witness = tuple(
                sum(
                    (tr.matrix[i][j] * coords[j] for j in range(form.n)),
                    start=F.zero,
                )
                for i in range(form.n)
            )
            assert form.value(witness) == f
            return witness
    return None


def distinguishing_bound(m):
    """Degree window 3m - 2 within which representation sets decide equivalence."""
    return 3 * m - 2


def distinguishing_degree(q1, q2, *, budget=DEFAULT_BUDGET):
    """Least k <= 3m - 2 with V_k(Q1) != V_k(Q2); None if they all agree.

    m is the larger of the two discriminant degrees.
    """
    m = max(q1.discriminant().degree, q2.discriminant().degree)
    window = distinguishing_bound(m)
    if window < 0:
        return None
    a = repset_upto(q1, window, budget=budget)
    b = repset_upto(q2, window, budget=budget)
    differing = np.setxor1d(a.keys, b.keys, assume_unique=True)
    if len(differing) == 0:
        return None
    return key_degree(q1.field.q, int(differing.min()))


def key_degree(q, key):
    """Degree of the polynomial packed into `key` (key > 0)."""
    d = 0
    while key >= q ** (d + 1):
        d += 1
    return d
