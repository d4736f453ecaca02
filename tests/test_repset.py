import itertools
import random

import numpy as np
import pytest

from fqforms.errors import BudgetError, CapabilityError
from fqforms.ffpoly import SquareClass, prime_field
from fqforms.qform import Form, reduce, successive_minima
from fqforms.repset import (
    _Grid,
    _orthogonal_tail,
    _sumset,
    coordinate_degree_bounds,
    distinguishing_degree,
    key_degree,
    rep_numbers,
    represents,
    repset_keys_batch,
    repset_upto,
)
from tests.test_qform import is_square_in_A, rand_definite_reduced, rand_gl2

F5 = prime_field(5)
F13 = prime_field(13)


def sets_equal_upto(q1, q2, k):
    """Whether V_k(Q1) = V_k(Q2)."""
    return np.array_equal(repset_upto(q1, k).keys, repset_upto(q2, k).keys)


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


def ternary_family_form(field, a):
    """X^2 + t Y^2 - delta (t + a^2) Z^2 for a unit a."""
    t, d = field.t, field.constant(field.delta)
    aa = field.mul(a, a)
    return Form.diagonal([field.one, t, -d * (t + aa)])


def naive_repset(form, k, coord_bounds):
    """Direct nested enumeration, no numpy, no degree reasoning."""
    F = form.field
    out = set()
    ranges = [range(F.q ** (b + 1)) for b in coord_bounds]
    for keys in itertools.product(*ranges):
        vec = [F.poly_from_key(key) for key in keys]
        val = form.value(vec)
        if val.degree <= k:
            out.add(val.key())
    return out


def test_repset_constant_form_covers_field():
    d = F5.constant(F5.delta)
    q = Form.binary(F5.one, F5.zero, -d)
    rs = repset_upto(q, 0)
    # oracle: direct enumeration over constant coordinates
    expected = {F5.sub(F5.mul(x, x), F5.mul(F5.delta, F5.mul(y, y))) for x in range(5) for y in range(5)}
    assert expected == {0, 1, 2, 3, 4}
    assert sorted(rs.keys.tolist()) == [0, 1, 2, 3, 4]


def test_repset_squares_below_second_minimum():
    # Q = (1, 0, c) with deg c = 2: V_1(Q) = {x^2 : x in F_q}
    t = F5.t
    q = Form.binary(F5.one, F5.zero, 3 * t**2 + 1)
    assert q.is_definite()
    rs = repset_upto(q, 1)
    squares = sorted({(x * x) % 5 for x in range(5)})
    assert rs.keys.tolist() == squares


def test_repset_matches_naive_oracle():
    rng = random.Random(17)
    for _ in range(25):
        q = rand_definite_reduced(F5, rng, max_mu2=3)
        k = rng.randrange(0, 5)
        rs = repset_upto(q, k)
        mins = successive_minima(q)
        bounds = coordinate_degree_bounds(mins, k)
        assert set(rs.keys.tolist()) == naive_repset(q, k, bounds)


def test_repset_gl_invariance():
    rng = random.Random(19)
    for _ in range(15):
        q = rand_definite_reduced(F5, rng, max_mu2=2)
        u = rand_gl2(F5, rng)
        k = rng.randrange(0, 5)
        assert sets_equal_upto(q, u.apply(q), k)


def test_binary_oracle_completeness_inflated_bounds():
    # spec invariant: slack-2 enumeration finds nothing new (100 random forms)
    rng = random.Random(21)
    for _ in range(100):
        q = rand_definite_reduced(F5, rng, max_mu2=3)
        k = rng.randrange(0, 5)
        a = repset_upto(q, k)
        b = repset_upto(q, k, slack=2)
        assert np.array_equal(a.keys, b.keys)


def test_ternary_oracle_completeness_small_k():
    # inflated-bound comparison, exhaustive where the grid is affordable
    for a in (1, 2):
        q = ternary_family_form(F5, a)
        for k in (0, 1, 2):
            base = repset_upto(q, k)
            inflated = repset_upto(q, k, slack=2, budget=10**9)
            assert np.array_equal(base.keys, inflated.keys)


def test_ternary_degree_formula_exhaustive_small_grid():
    # deg Q(x) = max_i(2 deg x_i + mu_i), checked on every vector with
    # deg x_i <= 2; this implies the coordinate bounds lose nothing for any
    # k whose bounds stay within the grid, without inflated enumeration
    for a in (1, 2):
        q = ternary_family_form(F5, a)
        red, _ = reduce(q)
        mins = tuple(red.gram[i][i].degree for i in range(3))
        grid = _Grid(red, (2, 2, 2))
        dx = key_degrees(5, np.arange(125))
        for tail in grid.tails():
            keys = grid.keys_for_tail(tail)
            got = key_degrees(5, keys.ravel())
            expected = np.maximum(
                np.maximum(
                    (2 * dx + mins[0])[:, None], (2 * dx + mins[1])[None, :]
                ),
                2 * key_degrees(5, np.array([tail[0]]))[0] + mins[2],
            ).ravel()
            nonzero = keys.ravel() != 0
            assert np.array_equal(got[nonzero], expected[nonzero])
            assert (expected[~nonzero] < 0).all()


def test_ternary_degree_formula_sampled():
    # sampled high-degree coordinates extend the exhaustive small-grid check
    rng = random.Random(23)
    for a in (1, 2, 3, 4):
        q = ternary_family_form(F5, a)
        mins = successive_minima(q)
        for _ in range(400):
            vec = [
                F5.poly([rng.randrange(5) for _ in range(rng.randrange(0, 6))])
                for _ in range(3)
            ]
            val = q.value(vec)
            expected = max(
                (2 * v.degree + mu for v, mu in zip(vec, mins)),
                default=float("-inf"),
            )
            assert val.degree == expected


def test_rep_numbers_zero_represented_once():
    rng = random.Random(25)
    for _ in range(10):
        q = rand_definite_reduced(F5, rng, max_mu2=2)
        counts = rep_numbers(q, 2)
        assert counts[F5.zero] == 1


def test_rep_numbers_gl_invariant():
    rng = random.Random(27)
    for _ in range(8):
        q = rand_definite_reduced(F5, rng, max_mu2=2)
        u = rand_gl2(F5, rng)
        assert rep_numbers(q, 3) == rep_numbers(u.apply(q), 3)


def test_ternary_family_equal_sets_different_counts():
    # the family shares V_k across parameters; counts may differ (computed
    # outcome, frozen): at q=5, k=4, members a=1 and a=2 disagree on counts
    q1 = ternary_family_form(F5, 1)
    q2 = ternary_family_form(F5, 2)
    assert sets_equal_upto(q1, q2, 4)
    n1 = rep_numbers(q1, 4)
    n2 = rep_numbers(q2, 4)
    assert n1.keys() == n2.keys()
    assert n1 != n2


def test_represents_diagonal_entry_and_low_degree():
    rng = random.Random(29)
    for _ in range(10):
        q = rand_definite_reduced(F5, rng, max_mu2=3)
        a, b, c = q.binary_coeffs()
        w = represents(q, a)
        assert w is not None and q.value(w) == a
        mu = successive_minima(q)
        if mu[0] >= 1:
            assert represents(q, F5.one + F5.zero) is None or mu[0] == 0
            # nonzero constants below mu_1 are never represented
            assert represents(q, F5.constant(3)) is None


def test_represents_intermediate_degrees_are_scaled_squares():
    # any represented f with mu1 <= deg f < mu2 equals r^2 * a
    rng = random.Random(31)
    checked = 0
    while checked < 8:
        q = rand_definite_reduced(F5, rng, max_mu2=3)
        mu = successive_minima(q)
        if mu[0] == mu[1]:
            continue
        a = q.binary_coeffs()[0]
        rs = repset_upto(q, mu[1] - 1)
        for key in rs.keys.tolist():
            f = F5.poly_from_key(key)
            if f.is_zero() or f.degree < mu[0]:
                continue
            r, rem = divmod(f, a)
            assert rem.is_zero()
            # the quotient must be a square polynomial
            assert is_square_in_A(r), str(r)
        checked += 1


def test_represents_witness_round_trip_through_transform():
    rng = random.Random(33)
    q = rand_definite_reduced(F5, rng, max_mu2=2)
    u = rand_gl2(F5, rng)
    scrambled = u.apply(q)
    rs = repset_upto(q, 3)
    f = F5.poly_from_key(int(rs.keys[len(rs.keys) // 2]))
    w = represents(scrambled, f)
    assert w is not None and scrambled.value(w) == f


def test_distinguishing_degree_equivalent_pair_none():
    rng = random.Random(35)
    q = rand_definite_reduced(F5, rng, max_mu2=2)
    u = rand_gl2(F5, rng)
    assert distinguishing_degree(q, u.apply(q)) is None


def test_distinguishing_degree_distinct_disc_class():
    t = F5.t
    q1 = Form.binary(F5.one, F5.zero, -t)
    q2 = Form.binary(F5.one, F5.zero, -F5.constant(F5.delta) * t)
    assert SquareClass(q1.discriminant()) != SquareClass(q2.discriminant())
    d = distinguishing_degree(q1, q2)
    assert d is not None and d <= 3 * 1 - 2


def test_restrict_is_prefix():
    rng = random.Random(37)
    q = rand_definite_reduced(F5, rng, max_mu2=2)
    rs = repset_upto(q, 4)
    sliced = rs.restrict(2)
    direct = repset_upto(q, 2)
    assert np.array_equal(sliced.keys, direct.keys)


def test_budget_error():
    q = ternary_family_form(F5, 1)
    with pytest.raises(BudgetError):
        repset_upto(q, 6, budget=1000)


def test_rank3_grid_length_counts_enumerated_coordinates():
    # <1, t, delta t^18> at q = 13, k = 2: coordinate 3 is not enumerated
    # (bound -1), so its t^18 must not stretch the key length past 3
    F = F13
    t, d = F.t, F.constant(F.delta)
    ternary = Form.diagonal([F.one, t, d * t**18])
    binary = Form.diagonal([F.one, t])
    assert _Grid(ternary, coordinate_degree_bounds((0, 1, 18), 2)).length == 3
    rs = repset_upto(ternary, 2)
    assert len(rs) == 469
    assert np.array_equal(rs.keys, repset_upto(binary, 2).keys)
    # enumerating coordinate 3 needs keys of 19 base-13 digits: refused
    with pytest.raises(CapabilityError):
        _Grid(ternary, (0, 0, 0))


def test_key_degree():
    assert key_degree(5, 1) == 0
    assert key_degree(5, 5) == 1
    assert key_degree(5, 24) == 1
    assert key_degree(5, 25) == 2


def test_determinism_across_runs():
    q = ternary_family_form(F5, 2)
    a = repset_upto(q, 4)
    b = repset_upto(q, 4)
    assert np.array_equal(a.keys, b.keys)


def test_modp_window_congruence():
    # every value is congruent mod p to a value of degree
    # <= 2 deg p + deg d - 2, for p dividing the discriminant
    from fqforms.ffpoly import factor

    rng = random.Random(39)
    checked = 0
    while checked < 10:
        q = rand_definite_reduced(F5, rng, max_mu2=3)
        if not q.is_primitive():
            continue
        d = q.discriminant()
        if d.degree > 3:
            continue
        parts = factor(d)[1]
        if not parts:
            continue
        p = parts[rng.randrange(len(parts))][0]
        window = 2 * p.degree + d.degree - 2
        small = repset_upto(q, window)
        small_residues = residue_keys(small.keys, p, window)
        # the linear map agrees with polynomial division
        for k, r in list(zip(small.keys.tolist(), small_residues.tolist()))[::97]:
            assert (F5.poly_from_key(k) % p).key() == r
        wide = repset_upto(q, window + 2)
        assert np.isin(residue_keys(wide.keys, p, window + 2), small_residues).all()
        checked += 1


def residue_keys(keys, p, degree):
    """Keys of f mod p for the keys of polynomials f of degree <= `degree`.

    f mod p = sum_j f_j (t^j mod p) is linear in the base-q digits f_j.
    """
    F = p.field
    q = F.q
    digits = keys[:, None] // q ** np.arange(degree + 1, dtype=np.int64) % q
    powers = np.array(
        [[(F.t**j % p)[i] for i in range(p.degree)] for j in range(degree + 1)],
        dtype=np.int64,
    )
    return digits @ powers % q @ q ** np.arange(p.degree, dtype=np.int64)


def test_low_degree_member_coprime_to_each_divisor():
    # a primitive form represents something of degree < deg d prime to p
    from fqforms.ffpoly import factor, gcd

    rng = random.Random(43)
    checked = 0
    while checked < 15:
        q = rand_definite_reduced(F5, rng, max_mu2=3)
        if not q.is_primitive():
            continue
        d = q.discriminant()
        if d.degree < 1:
            continue
        rs = repset_upto(q, d.degree - 1)
        for p, _ in factor(d)[1]:
            assert any(
                not (F5.poly_from_key(k) % p).is_zero()
                for k in rs.keys.tolist()
                if k
            )
        checked += 1


# -- the int64 block formula the coefficient planes replace -----------------


def block_coeff_rows(q, count):
    if count <= 0:
        return np.zeros((1, 0), dtype=np.int64)
    idx = np.arange(q**count, dtype=np.int64)
    return (idx[:, None] // (q ** np.arange(count, dtype=np.int64))) % q


def block_conv(rows, coeffs, q):
    n, c = rows.shape
    if not coeffs or c == 0:
        return np.zeros((n, 1), dtype=np.int64)
    out = np.zeros((n, c + len(coeffs) - 1), dtype=np.int64)
    for i, a in enumerate(coeffs):
        if a:
            out[:, i : i + c] += a * rows
    return out % q


def block_square(rows, q):
    n, c = rows.shape
    if c == 0:
        return np.zeros((n, 1), dtype=np.int64)
    out = np.zeros((n, 2 * c - 1), dtype=np.int64)
    for r in range(c):
        out[:, r : r + c] += rows[:, r : r + 1] * rows
    return out % q


def block_fit(arr, length):
    if arr.shape[-1] >= length:
        return arr[..., :length]
    widths = [(0, 0)] * (arr.ndim - 1) + [(0, length - arr.shape[-1])]
    return np.pad(arr, widths)


def block_cross(x_rows, y_rows, coeffs, q):
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


def block_keys(form, bounds, length, tail):
    """Value keys by the int64 formula (base + X + Y + c) % q @ powers, with
    base the whole (Nx, Ny, length) block of a x^2 + 2 b x y + c y^2."""
    F = form.field
    q = F.q
    g = form.gram
    x_rows = block_coeff_rows(q, bounds[0] + 1)
    y_rows = block_coeff_rows(q, bounds[1] + 1)
    two = 2 % q
    base = (
        block_fit(
            block_cross(x_rows, y_rows, tuple(c * two % q for c in g[0][1].coeffs), q),
            length,
        )
        + block_fit(block_conv(block_square(x_rows, q), g[0][0].coeffs, q), length)[
            :, None, :
        ]
        + block_fit(block_conv(block_square(y_rows, q), g[1][1].coeffs, q), length)[
            None, :, :
        ]
    ) % q
    powers = q ** np.arange(length, dtype=np.int64)
    if not tail:
        return base @ powers
    zs = [F.poly_from_key(k) for k in tail]
    lin_x = lin_y = const = F.zero
    for idx, z in enumerate(zs, start=2):
        lin_x = lin_x + 2 * g[0][idx] * z
        lin_y = lin_y + 2 * g[1][idx] * z
        const = const + g[idx][idx] * z * z
    if len(zs) == 2:
        const = const + 2 * g[2][3] * zs[0] * zs[1]
    vals = (
        base
        + block_fit(block_conv(x_rows, lin_x.coeffs, q), length)[:, None, :]
        + block_fit(block_conv(y_rows, lin_y.coeffs, q), length)[None, :, :]
    )
    cvec = np.zeros(length, dtype=np.int64)
    for i, c in enumerate(const.coeffs):
        cvec[i] = c
    return (vals + cvec) % q @ powers


def rand_symmetric_form(field, n, rng, max_deg=1):
    """A random nondegenerate symmetric Gram matrix with every entry of
    degree <= max_deg nonzero, so every cross term is present."""
    while True:
        gram = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                coeffs = [rng.randrange(field.q) for _ in range(max_deg)]
                entry = field.poly(coeffs + [rng.randrange(1, field.q)])
                gram[i][j] = gram[j][i] = entry
        try:
            return Form(gram)
        except ValueError:
            continue


def grid_keys_match_block(form, bounds):
    grid = _Grid(form, bounds, budget=float("inf"))
    for tail in grid.tails():
        got = grid.keys_for_tail(tail)
        assert got.dtype == np.int64
        assert np.array_equal(got, block_keys(form, bounds, grid.length, tail)), (
            form,
            bounds,
            tail,
        )
    return grid


@pytest.mark.parametrize("q", [3, 5, 7])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_planes_match_int64_block(q, n):
    # non-diagonal forms: lin_x, lin_y and the two-tail term 2 g23 z3 z4 are
    # all nonzero; bounds of -1 leave a coordinate out of the grid
    F = prime_field(q)
    rng = random.Random(100 * q + n)
    choices = {2: [(1, 1), (2, 0), (1, -1), (-1, 1)],
               3: [(1, 0, 1), (0, 1, 0), (-1, 0, 1), (1, -1, 0)],
               4: [(0, 0, 1, 0), (1, 0, 0, 0), (0, -1, 0, 1), (0, 0, -1, 0)]}
    max_vectors = 20_000
    for bounds in choices[n]:
        if q ** sum(b + 1 for b in bounds) > max_vectors:
            continue
        for _ in range(2):
            form = rand_symmetric_form(F, n, rng, max_deg=rng.randrange(0, 3))
            grid = grid_keys_match_block(form, bounds)
            assert grid.base.dtype == np.uint8
            assert grid.base.shape == (grid.length, len(grid.x_rows), len(grid.y_rows))


def test_planes_match_int64_block_q101():
    # 3 (q - 1) = 300 needs uint16 planes
    F = prime_field(101)
    rng = random.Random(101)
    form = rand_symmetric_form(F, 3, rng, max_deg=2)
    grid = grid_keys_match_block(form, (0, 0, 0))
    assert grid.base.dtype == np.uint16
    assert grid.length == 3


def test_planes_match_int64_block_reduced_family():
    # the reduced ternary family the ternary sweep enumerates, at its bounds
    for a in (1, 2):
        red, _ = reduce(ternary_family_form(F5, a))
        mins = tuple(red.gram[i][i].degree for i in range(3))
        grid_keys_match_block(red, coordinate_degree_bounds(mins, 4))


def unique_keys(form, k, slack=0):
    """V_k keys by np.unique over every grid key below q^(k+1)."""
    red, _ = reduce(form)
    mins = tuple(red.gram[i][i].degree for i in range(red.n))
    grid = _Grid(red, coordinate_degree_bounds(mins, k, slack))
    keys = np.concatenate([grid.keys_for_tail(t).ravel() for t in grid.tails()])
    limit = form.field.q ** (k + 1)
    return np.unique(keys[keys < limit]), limit, grid.vectors


def test_bitset_dedupe_matches_unique_both_sides_of_threshold():
    # the bitset serves key ranges of at most 4 x the grid's vectors; the
    # same keys and dtype must come back on both sides of that threshold
    rng = random.Random(47)
    sides = set()
    cases = [(rand_definite_reduced(F5, rng, max_mu2=4), rng.randrange(0, 7), 0)
             for _ in range(40)]
    cases += [(ternary_family_form(F5, a), k, s) for a in (1, 2) for k, s in
              ((2, 0), (3, 1), (4, 0))]
    for form, k, slack in cases:
        want, limit, vectors = unique_keys(form, k, slack)
        sides.add(limit <= 4 * vectors)
        got = repset_upto(form, k, slack=slack, budget=10**9)
        assert got.keys.dtype == want.dtype
        assert np.array_equal(got.keys, want)
        counted = rep_numbers(form, k, slack=slack, budget=10**9)
        assert [f.key() for f in counted] == want.tolist()
    assert sides == {True, False}


def naive_rep_numbers(form, coord_bounds):
    F = form.field
    counts = {}
    for keys in itertools.product(*[range(F.q ** (b + 1)) for b in coord_bounds]):
        val = form.value([F.poly_from_key(key) for key in keys])
        counts[val] = counts.get(val, 0) + 1
    return counts


def test_rep_numbers_match_naive_counts():
    rng = random.Random(49)
    for _ in range(8):
        form = rand_definite_reduced(F5, rng, max_mu2=3)
        k = rng.randrange(0, 5)
        bounds = coordinate_degree_bounds(successive_minima(form), k)
        naive = naive_rep_numbers(form, bounds)
        want = {f: n for f, n in naive.items() if f.is_zero() or f.degree <= k}
        assert rep_numbers(form, k) == want


# -- the sumset over an orthogonal tail ------------------------------------


def tail_loop_keys(form, k, slack=0):
    """V_k keys by the tail loop: each tail's grid keys below q^(k+1)
    marked in a bitset, as `repset_upto` did before orthogonal tails
    were summed."""
    red, _ = reduce(form)
    mins = tuple(red.gram[i][i].degree for i in range(red.n))
    grid = _Grid(red, coordinate_degree_bounds(mins, k, slack), budget=10**12)
    limit = form.field.q ** (k + 1)
    seen = np.zeros(limit, dtype=bool)
    for tail in grid.tails():
        keys = grid.keys_for_tail(tail).ravel()
        seen[keys[keys < limit]] = True
    return np.flatnonzero(seen)


def assert_sumset_matches_tail_loop(form, k, slack):
    red, _ = reduce(form)
    assert _orthogonal_tail(red.gram)
    got = repset_upto(form, k, slack=slack, budget=10**9).keys
    want = tail_loop_keys(form, k, slack)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want), (form, k, slack)


# (5, 6) and (7, 4) at slack 2 would sum block grids of 48.8M and 40.4M
# vectors, and the tail loop would enumerate 1.5e11 and 4.7e12: slack 2 is
# checked there at the largest k whose tail loop stays small
@pytest.mark.parametrize(
    "q, k, slack",
    [(3, 6, 0), (3, 6, 2), (5, 6, 0), (5, 1, 2), (7, 4, 0), (7, 2, 1), (7, 0, 2)],
)
def test_sumset_matches_tail_loop_ternary_family(q, k, slack):
    F = prime_field(q)
    for a in range(1, q):
        assert_sumset_matches_tail_loop(ternary_family_form(F, a), k, slack)


def rank4_orthogonal_tail_form():
    """<1, -delta> + [[t + 2, 1], [1, 2 t]] at q = 5: reduced as given,
    with an orthogonal tail block that is not diagonal."""
    t, z, d = F5.t, F5.zero, F5.constant(F5.delta)
    one = F5.one
    return Form(
        (
            (one, z, z, z),
            (z, -d, z, z),
            (z, z, t + 2, one),
            (z, z, one, 2 * t),
        )
    )


@pytest.mark.parametrize("k, slack", [(4, 0), (2, 1)])
def test_sumset_matches_tail_loop_rank4_nondiagonal_tail(k, slack):
    form = rank4_orthogonal_tail_form()
    assert form.is_definite()
    red, _ = reduce(form)
    assert not red.gram[2][3].is_zero()
    assert_sumset_matches_tail_loop(form, k, slack)


def test_tail_loop_kept_off_the_orthogonal_path(monkeypatch):
    # a tail coupled to the first two coordinates, representation numbers
    # and binary forms never reach the sumset
    import fqforms.repset as repset_module

    def refuse(*args):
        raise AssertionError("sumset taken")

    monkeypatch.setattr(repset_module, "_sumset", refuse)
    rng = random.Random(61)
    coupled = []
    while len(coupled) < 3:
        form = rand_symmetric_form(F5, 3, rng, max_deg=rng.randrange(1, 3))
        if form.is_definite() and not reduce(form)[0].gram[0][2].is_zero():
            coupled.append(form)
    for form in coupled:
        assert not _orthogonal_tail(reduce(form)[0].gram)
        for k in (2, 4):
            assert np.array_equal(repset_upto(form, k).keys, tail_loop_keys(form, k))
    family = ternary_family_form(F5, 1)
    counted = rep_numbers(family, 4)
    assert [f.key() for f in counted] == tail_loop_keys(family, 4).tolist()
    binary = Form.diagonal([F5.one, F5.t])
    assert np.array_equal(repset_upto(binary, 4).keys, tail_loop_keys(binary, 4))
    assert represents(family, F5.t**4) is not None


def sumset_pairs(form, k):
    """(binary block vectors, distinct block keys x distinct tail values)
    of a diagonal rank-3 form, the tail values by polynomial arithmetic."""
    F = form.field
    red, _ = reduce(form)
    g = red.gram
    bounds = coordinate_degree_bounds(tuple(g[i][i].degree for i in range(3)), k)
    block = Form.diagonal([g[0][0], g[1][1]])
    grid = _Grid(block, bounds[:2])
    block_keys = np.unique(grid.keys_for_tail(()))
    tail = {
        (g[2][2] * z * z).key()
        for z in (F.poly_from_key(key) for key in range(F.q ** (bounds[2] + 1)))
    }
    return grid.vectors, len(block_keys) * len(tail)


def test_sumset_budget_counts_key_pairs():
    form = ternary_family_form(F5, 1)
    vectors, pairs = sumset_pairs(form, 6)
    assert (vectors, pairs) == (78125, 10893 * 63)
    want = tail_loop_keys(form, 6)
    assert np.array_equal(repset_upto(form, 6, budget=pairs).keys, want)
    with pytest.raises(BudgetError, match="key pairs"):
        repset_upto(form, 6, budget=pairs - 1)
    # below the block's grid the grid itself refuses
    with pytest.raises(BudgetError, match="vectors"):
        repset_upto(form, 6, budget=vectors - 1)


def test_shared_block_sets_match_full_grid_oracle():
    # the tail loop over the whole rank-3 grid is the oracle; the sets
    # agree with it cold and with the block cached
    import fqforms.repset as repset_module

    for k in range(5):
        for a in range(1, 5):
            form = ternary_family_form(F5, a)
            want = tail_loop_keys(form, k)
            repset_module._binary_block_keys.cache_clear()
            assert np.array_equal(repset_upto(form, k).keys, want), (a, k)
            assert np.array_equal(repset_upto(form, k).keys, want), (a, k)


@pytest.mark.parametrize("what", ["vectors", "key pairs"])
def test_cached_block_raises_as_a_cold_one(what):
    import fqforms.repset as repset_module

    form = ternary_family_form(F5, 1)
    vectors, pairs = sumset_pairs(form, 6)
    budget = {"vectors": vectors, "key pairs": pairs}[what] - 1
    repset_module._binary_block_keys.cache_clear()
    with pytest.raises(BudgetError, match=what) as cold:
        repset_upto(form, 6, budget=budget)
    repset_upto(form, 6)
    assert repset_module._binary_block_keys.cache_info().currsize == 1
    with pytest.raises(BudgetError) as warm:
        repset_upto(form, 6, budget=budget)
    assert str(warm.value) == str(cold.value)


def test_cached_block_keys_are_read_only():
    import fqforms.repset as repset_module

    F = F5
    repset_module._binary_block_keys.cache_clear()
    repset_upto(ternary_family_form(F, 2), 4)
    keys = repset_module._binary_block_keys(F.one, F.zero, F.t, (2, 1))
    assert repset_module._binary_block_keys.cache_info()[:2] == (1, 1)
    assert not keys.flags.writeable
    with pytest.raises(ValueError):
        keys[0] = 1


def poly_sumset(F, block, tail, k):
    """Keys below q^(k+1) of every block + tail sum, by Poly addition."""
    limit = F.q ** (k + 1)
    out = set()
    for a in block.tolist():
        for b in tail.tolist():
            key = (F.poly_from_key(a) + F.poly_from_key(b)).key()
            if key < limit:
                out.add(key)
    return np.array(sorted(out), dtype=np.int64)


@pytest.mark.parametrize(
    "q, k, sizes",
    [(3, 3, (60, 30)), (3, 8, (90, 40)), (5, 5, (80, 30)), (7, 2, (120, 50))],
)
def test_sumset_digit_sums_match_poly_addition(q, k, sizes):
    # keys with digits above k, half the tail keys chosen to cancel the
    # high digits of some block key; one and two chunks of low digits,
    # bitset and np.unique dedupe
    from fqforms.repset import _digit_neg

    F = prime_field(q)
    rng = random.Random(q * 100 + k)
    cut = q ** (k + 1)
    top = q ** (k + 3)
    block = np.unique(np.array([0] + [rng.randrange(top) for _ in range(sizes[0])]))
    highs = block // cut
    tail = [rng.randrange(top) for _ in range(sizes[1] // 2)]
    tail += [
        int(_digit_neg(np.array([rng.choice(highs.tolist())]), q)[0]) * cut
        + rng.randrange(cut)
        for _ in range(sizes[1] // 2)
    ]
    tail = np.unique(np.array([0] + tail))
    got = _sumset(q, block, tail, k, budget=10**9)
    assert np.array_equal(got, poly_sumset(F, block, tail, k))


# -- batched V_k keys of many reduced binary forms --------------------------


def class_representatives_by_minima(q, max_deg):
    """The primitive class representatives of every canonical disc of
    degree <= max_deg, bucketed by minima in table order."""
    from fqforms.classify import class_table
    from tests.canonical import canonical_discs

    F = prime_field(q)
    buckets = {}
    for disc in canonical_discs(F, max_deg):
        for rep in class_table(F, disc, primitive_only=True).class_representatives:
            buckets.setdefault(successive_minima(rep), []).append(rep)
    return buckets


def forms_batch(forms, k, **kwargs):
    """`repset_keys_batch` over the coefficient rows of `forms`, which
    share the minima of the first."""
    import fqforms.repset as repset_module

    rows, minima = repset_module._block_rows(forms), successive_minima(forms[0])
    return repset_keys_batch(forms[0].field.q, rows, minima, k, **kwargs)


def batch_keys(forms, k, **kwargs):
    """The per-form key arrays of `repset_keys_batch`, split off its chunks."""
    return [
        keys
        for chunk, starts in forms_batch(forms, k, **kwargs)
        for keys in np.split(chunk, starts[1:])
    ]


@pytest.mark.parametrize("q, max_deg", [(3, 4), (5, 3), (11, 2)])
def test_batch_keys_match_repset_upto(q, max_deg):
    buckets = class_representatives_by_minima(q, max_deg)
    for k in range(max_deg + 2):
        for forms in buckets.values():
            got = batch_keys(forms, k)
            assert len(got) == len(forms)
            for form, keys in zip(forms, got):
                want = repset_upto(form, k).keys
                assert keys.dtype == want.dtype
                assert np.array_equal(keys, want), (form, k)


def test_batch_keys_from_narrow_padded_rows():
    # the sweep hands uint8 rows padded to its widest discriminant: the
    # same keys as the int64 rows of `_block_rows`
    import fqforms.repset as repset_module

    forms = class_representatives_by_minima(5, 3)[(1, 2)]
    rows = repset_module._block_rows(forms)
    padded = np.zeros(rows.shape[:2] + (rows.shape[2] + 4,), dtype=np.uint8)
    padded[..., : rows.shape[2]] = rows
    for k in range(5):
        narrow = repset_keys_batch(5, padded, (1, 2), k)
        wide = forms_batch(forms, k)
        for (got, got_starts), (want, want_starts) in zip(narrow, wide, strict=True):
            assert np.array_equal(got, want) and np.array_equal(got_starts, want_starts)


def test_batch_keys_split_across_chunks(monkeypatch):
    # a chunk of 100 int64 keys holds 100 forms at k = 0 (1 key per form),
    # 33 at k = 1 and 2 (3 keys) and 3 at k = 3 (27 keys)
    import fqforms.repset as repset_module

    monkeypatch.setattr(repset_module, "_BATCH_VALUES", 100)
    chunks = []
    planes = repset_module._binary_planes

    def counting(coeffs, *args):
        chunks.append(len(coeffs))
        return planes(coeffs, *args)

    monkeypatch.setattr(repset_module, "_binary_planes", counting)
    forms = class_representatives_by_minima(3, 4)[(1, 3)]
    for k, per_chunk in enumerate((100, 33, 33, 3)):
        chunks.clear()
        got = batch_keys(forms, k)
        assert max(chunks) == per_chunk and sum(chunks) == len(forms)
        for form, keys in zip(forms, got):
            assert np.array_equal(keys, repset_upto(form, k).keys), (form, k)


def assert_batch_matches_oracles(forms, k):
    """One `_binary_planes` pass over all of `forms` folds to the int64
    `block_keys` grid of each, and `repset_keys_batch`, its forms in one
    chunk, gives each form's `repset_upto` keys."""
    import fqforms.repset as repset_module

    q = forms[0].field.q
    minima = successive_minima(forms[0])
    bounds = coordinate_degree_bounds(minima, k)
    x = repset_module._coeff_rows(q, bounds[0] + 1)
    y = repset_module._coeff_rows(q, bounds[1] + 1)
    length = max(repset_module._value_length(f.gram, bounds) for f in forms)
    planes = repset_module._binary_planes(
        repset_module._block_rows(forms), x, y, length, q
    )
    assert planes.dtype == np.min_scalar_type(3 * (q - 1))
    assert planes.max() < q
    for form, keys in zip(forms, repset_module._fold(planes, q)):
        assert np.array_equal(keys, block_keys(form, bounds, length, ())), form
    batch = list(forms_batch(forms, k, budget=10**9))
    assert len(batch) == 1
    got = np.split(batch[0][0], batch[0][1][1:])
    for form, keys in zip(forms, got):
        assert np.array_equal(keys, repset_upto(form, k).keys), (form, k)
    return planes


@pytest.mark.parametrize("k", [2, 3, 4])
def test_batch_kernel_mixes_zero_and_nonzero_cross_terms(k):
    # minima (1, 2) at q = 5: b = 0 in 400 of the 1400 forms; one chunk
    # holds forms of both kinds
    forms = class_representatives_by_minima(5, 3)[(1, 2)]
    zero = [f for f in forms if f.gram[0][1].is_zero()][:6]
    other = [f for f in forms if not f.gram[0][1].is_zero()][:6]
    mixed = [f for pair in zip(zero, other) for f in pair]
    assert len(mixed) == 12
    assert_batch_matches_oracles(mixed, k)


def test_batch_kernel_q101_uint16_planes(monkeypatch):
    # 3 (q - 1) = 300 needs uint16 planes; cross terms with b = 0 and b != 0;
    # at k = 2 a form has 101^2 keys, so a chunk is widened to hold all six
    import fqforms.repset as repset_module

    monkeypatch.setattr(repset_module, "_BATCH_VALUES", 2**16)
    F = prime_field(101)
    rng = random.Random(1010)
    forms = []
    while len(forms) < 6:
        form = rand_definite_reduced(F, rng, max_mu2=2)
        if successive_minima(form) != (1, 2):
            continue
        a, _, c = form.binary_coeffs()
        if len(forms) % 2 == 0:
            form = Form.binary(a, F.zero, c)
            if not (form.is_definite() and form.is_reduced()):
                continue
        forms.append(form)
    for k in (1, 2):
        planes = assert_batch_matches_oracles(forms, k)
        assert planes.dtype == np.uint16


def test_batch_keys_budget_matches_repset_upto():
    forms = class_representatives_by_minima(5, 3)[(1, 2)][:30]
    k = 5
    vectors = _Grid(forms[0], coordinate_degree_bounds((1, 2), k)).vectors
    for budget in (vectors - 1, vectors):
        try:
            want = [repset_upto(f, k, budget=budget).keys for f in forms]
        except BudgetError as exc:
            with pytest.raises(BudgetError) as raised:
                forms_batch(forms, k, budget=budget)
            assert str(raised.value) == str(exc)
            assert budget == vectors - 1
            continue
        got = batch_keys(forms, k, budget=budget)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert budget == vectors


def test_batch_keys_refuse_mixed_minima():
    buckets = class_representatives_by_minima(5, 2)
    with pytest.raises(ValueError, match="minima"):
        forms_batch(buckets[(0, 2)][:1] + buckets[(1, 1)][:1], 2)
