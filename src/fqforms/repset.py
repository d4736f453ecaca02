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
"""

from __future__ import annotations

import numpy as np

from .errors import DEFAULT_BUDGET, BudgetError
from .qform import key_powers, reduce


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
    n, c = rows.shape
    if c == 0:
        return np.zeros((n, 1), dtype=np.int64)
    out = np.zeros((n, 2 * c - 1), dtype=np.int64)
    for r in range(c):
        out[:, r : r + c] += rows[:, r : r + 1] * rows
    return out % q


def _conv(rows, coeffs, q):
    """Convolve each row with a fixed coefficient tuple."""
    n, c = rows.shape
    if not coeffs or c == 0:
        return np.zeros((n, 1), dtype=np.int64)
    out = np.zeros((n, c + len(coeffs) - 1), dtype=np.int64)
    for i, a in enumerate(coeffs):
        if a:
            out[:, i : i + c] += a * rows
    return out % q


def _fit(arr, length):
    """Zero-pad or cut the last axis to `length`; only zero entries are cut."""
    if arr.shape[-1] >= length:
        return arr[..., :length]
    widths = [(0, 0)] * (arr.ndim - 1) + [(0, length - arr.shape[-1])]
    return np.pad(arr, widths)


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


def _cross_grid(x_rows, y_rows, coeffs, q):
    """conv(2b, x*y) for every pair of rows: shape (Nx, Ny, L)."""
    nx, cx = x_rows.shape
    ny, cy = y_rows.shape
    if not coeffs or cx == 0 or cy == 0:
        return np.zeros((nx, ny, 1), dtype=np.int64)
    prod = np.zeros((nx, ny, cx + cy - 1), dtype=np.int64)
    for r in range(cx):
        prod[:, :, r : r + cy] += x_rows[:, r, None, None] * y_rows[None, :, :]
    prod %= q
    out = np.zeros((nx, ny, cx + cy - 1 + len(coeffs) - 1), dtype=np.int64)
    for i, a in enumerate(coeffs):
        if a:
            out[:, :, i : i + cx + cy - 1] += a * prod
    return out % q


class _Grid:
    """Value keys of a reduced form over the coordinate grid, rank 2..4.

    Coordinates 3 and 4 are looped over ("tails"), coordinates 1 and 2 are
    vectorized, so chunks stay small even for large grids.
    """

    def __init__(self, red, bounds, budget=DEFAULT_BUDGET):
        q = red.field.q
        counts = [b + 1 for b in bounds]
        total = 1
        for c in counts:
            total *= q**c
        if total > budget:
            raise BudgetError(
                f"representation-set enumeration needs {total} vectors "
                f"(budget {budget})"
            )
        length = _value_length(red.gram, bounds)
        self.powers = key_powers(q, length)
        self.red = red
        self.q = q
        self.bounds = bounds
        self.x_rows = _coeff_rows(q, counts[0])
        self.y_rows = _coeff_rows(q, counts[1])
        self.tail_sizes = [q**c for c in counts[2:]]
        g = red.gram
        two = 2 % q
        base = _cross_grid(
            self.x_rows, self.y_rows, tuple(c * two % q for c in g[0][1].coeffs), q
        )
        ax = _conv(_batch_square(self.x_rows, q), g[0][0].coeffs, q)
        cy = _conv(_batch_square(self.y_rows, q), g[1][1].coeffs, q)
        self.length = length
        self.base = (
            _fit(base, length)
            + _fit(ax, length)[:, None, :]
            + _fit(cy, length)[None, :, :]
        ) % q

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

    def keys_for_tail(self, tail):
        """(Nx, Ny) matrix of value keys with coordinates 3.. fixed to `tail`."""
        F = self.red.field
        q = self.q
        if not tail:
            vals = self.base
        else:
            g = self.red.gram
            tail_polys = [F.poly_from_key(k) for k in tail]
            lin_x = F.zero
            lin_y = F.zero
            const = F.zero
            for idx, z in enumerate(tail_polys, start=2):
                lin_x = lin_x + 2 * g[0][idx] * z
                lin_y = lin_y + 2 * g[1][idx] * z
                const = const + g[idx][idx] * z * z
            if len(tail_polys) == 2:
                const = const + 2 * g[2][3] * tail_polys[0] * tail_polys[1]
            vals = (
                self.base
                + _fit(_conv(self.x_rows, lin_x.coeffs, q), self.length)[:, None, :]
                + _fit(_conv(self.y_rows, lin_y.coeffs, q), self.length)[None, :, :]
            )
            cvec = np.zeros(self.length, dtype=np.int64)
            for i, c in enumerate(const.coeffs):
                cvec[i] = c
            vals = (vals + cvec) % q
        return vals @ self.powers


class RepSet:
    """The set of polynomials of degree <= k represented by a form.

    `keys` is a sorted numpy int64 array of packed polynomials; ascending
    key order is the canonical order and a degree restriction is a prefix.
    `counts` optionally maps each key to its number of representing vectors
    within the enumeration grid.
    """

    __slots__ = ("field", "k", "keys", "counts")

    def __init__(self, field, k, keys, counts=None):
        self.field = field
        self.k = k
        self.keys = keys
        self.counts = counts

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


def _definite_reduction(form):
    if not form.is_definite():
        raise ValueError("representation sets require a definite form")
    return reduce(form)


def repset_upto(form, k, *, slack=0, budget=DEFAULT_BUDGET, with_counts=False):
    """Exact V_k(Q), enumerated on the reduced representative of Q."""
    red, _ = _definite_reduction(form)
    F = form.field
    if k < 0:
        keys = np.zeros(1, dtype=np.int64)
        return RepSet(F, k, keys, {0: 1} if with_counts else None)
    minima = tuple(red.gram[i][i].degree for i in range(red.n))
    grid = _Grid(red, coordinate_degree_bounds(minima, k, slack), budget)
    limit = F.q ** (k + 1)
    chunks = []
    for tail in grid.tails():
        keys = grid.keys_for_tail(tail).ravel()
        chunks.append(keys[keys < limit])
    merged = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    if with_counts:
        uniq, counts = np.unique(merged, return_counts=True)
        return RepSet(F, k, uniq, dict(zip(uniq.tolist(), counts.tolist())))
    return RepSet(F, k, np.unique(merged))


def rep_numbers(form, k, *, slack=0, budget=DEFAULT_BUDGET):
    """Map f -> number of representing vectors, for every f in V_k(Q)."""
    rs = repset_upto(form, k, slack=slack, budget=budget, with_counts=True)
    F = form.field
    return {F.poly_from_key(key): n for key, n in rs.counts.items()}


def represents(form, f, *, slack=0, budget=DEFAULT_BUDGET):
    """A witness vector x with Q(x) = f, or None.

    The witness is the first hit in the canonical grid order, mapped back
    through the reduction transformation.
    """
    F = form.field
    red, tr = _definite_reduction(form)
    if f.is_zero():
        return tuple(F.zero for _ in range(form.n))
    k = f.degree
    target = f.key()
    minima = tuple(red.gram[i][i].degree for i in range(red.n))
    grid = _Grid(red, coordinate_degree_bounds(minima, k, slack), budget)
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


def sets_equal_upto(q1, q2, k, *, budget=DEFAULT_BUDGET):
    """Whether V_k(Q1) = V_k(Q2)."""
    a = repset_upto(q1, k, budget=budget)
    b = repset_upto(q2, k, budget=budget)
    return np.array_equal(a.keys, b.keys)


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


ZERO_DEGREE_SENTINEL = -(2**40)


def key_degrees(q, keys):
    """Vectorized key_degree; deg(0) maps to a very negative sentinel."""
    keys = np.asarray(keys, dtype=np.int64)
    top = 2
    while q**top <= keys.max(initial=0):
        top += 1
    powers = q ** np.arange(top + 1, dtype=np.int64)
    out = np.searchsorted(powers, keys, side="right").astype(np.int64) - 1
    out[keys == 0] = ZERO_DEGREE_SENTINEL
    return out
