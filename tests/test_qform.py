import functools
import random

import numpy as np
import pytest

from fqforms.classify import enumerate_forms
from fqforms.errors import CapabilityError
from fqforms.ffpoly import SquareClass, factor, poly_from_string, prime_field
from fqforms.qform import (
    Form,
    Transformation,
    _bilinear_weights,
    _constant_witnesses,
    _poly_rows,
    diagonal_square_classes,
    equivalent,
    form_from_string,
    form_to_string,
    key_powers,
    norm_form,
    properly_equivalent,
    reduce,
    successive_minima,
)
from tests.canonical import canonical_discs

F5 = prime_field(5)
F7 = prime_field(7)
F13 = prime_field(13)


def binary(field, sa, sb, sc):
    return Form.binary(
        poly_from_string(field, sa),
        poly_from_string(field, sb),
        poly_from_string(field, sc),
    )


def remark_form():
    # (t-5, 4, -(t^2+5t+11)) with coefficients reduced mod 13
    return binary(F13, "t+8", "4", "12*t^2+8*t+2")


def rand_gl2(field, rng, max_deg=3, proper=False):
    """Random GL_2(A) element built from shears and a unit diagonal."""
    F = field
    t = Transformation.identity(F, 2)
    for _ in range(rng.randrange(1, 4)):
        f = F.poly([rng.randrange(F.q) for _ in range(max_deg + 1)])
        if rng.randrange(2):
            m = ((F.one, f), (F.zero, F.one))
        else:
            m = ((F.one, F.zero), (f, F.one))
        t = t @ Transformation(F, m)
    if not proper:
        u = rng.randrange(1, F.q)
        t = t @ Transformation.from_scalars(F, [[u, 0], [0, 1]])
    return t


def rand_definite_reduced(field, rng, max_mu2=3):
    """Random reduced definite binary form via (a, b, c) with the degree rules."""
    F = field
    while True:
        mu1 = rng.randrange(0, max_mu2 + 1)
        mu2 = rng.randrange(mu1, max_mu2 + 1)
        a = F.poly([rng.randrange(F.q) for _ in range(mu1)] + [rng.randrange(1, F.q)])
        c = F.poly([rng.randrange(F.q) for _ in range(mu2)] + [rng.randrange(1, F.q)])
        b = F.poly([rng.randrange(F.q) for _ in range(mu1)])
        try:
            q = Form.binary(a, b, c)
        except ValueError:
            continue
        if q.is_definite() and q.is_reduced():
            return q


def test_discriminant_remark_form():
    q = remark_form()
    d = q.discriminant()
    t = F13.t
    assert d == t**3 - t
    assert str(d) == "t^3+12*t"


def test_discriminant_norm_form_and_scaling():
    d = F5.constant(F5.delta)
    q = Form.binary(F5.one, F5.zero, -d)
    assert q.discriminant() == d
    rng = random.Random(0)
    for _ in range(20):
        qq = rand_definite_reduced(F5, rng)
        u = rand_gl2(F5, rng)
        assert SquareClass(u.apply(qq).discriminant()) == SquareClass(qq.discriminant())


def test_degenerate_rejected():
    with pytest.raises(ValueError):
        Form.binary(F5.one, F5.one, F5.one)
    with pytest.raises(ValueError):
        Form(((F5.one, F5.t), (F5.one, F5.t)))  # asymmetric


def test_is_definite_binary():
    delta = F5.constant(F5.delta)
    assert Form.binary(F5.one, F5.zero, -delta).is_definite()
    t = F5.t
    assert Form.binary(F5.one, F5.zero, t).is_definite()  # disc odd degree
    assert not Form.binary(F5.one, F5.zero, -t * t).is_definite()  # disc = t^2


def test_is_definite_ternary_family():
    # X^2 + t Y^2 - delta (t + a^2) Z^2 is definite
    for q in (5, 13):
        F = prime_field(q)
        t, d = F.t, F.constant(F.delta)
        for a in (1, 2):
            aa = F.mul(a, a)
            form = Form.diagonal([F.one, t, -d * (t + aa)])
            assert form.is_definite()
    # but X^2 + t Y^2 - (t + 1) Z^2 is isotropic at infinity
    t = F5.t
    assert not Form.diagonal([F5.one, t, -(t + 1)]).is_definite()


def is_square_in_A(f):
    """Whether a nonzero f is a square in A: a square unit and every
    multiplicity even."""
    unit, parts = factor(f)
    return f.field.is_square(unit) and all(e % 2 == 0 for _, e in parts)


def test_diagonal_square_classes_matches_disc():
    rng = random.Random(4)
    for _ in range(30):
        q = rand_definite_reduced(F5, rng)
        u = rand_gl2(F5, rng)
        qq = u.apply(q)
        ds = diagonal_square_classes(qq)
        prod = ds[0] * ds[1]
        # product of diagonal classes = det(M) in K^x/K^x2; binary disc = -det
        assert is_square_in_A(prod * -qq.discriminant())


def test_primitivity():
    t = F5.t
    q = Form.binary(t, F5.zero, t**3 - t)
    assert not q.is_primitive()
    prim, content = q.primitive_part()
    assert content == t
    assert prim.is_primitive()
    assert Form.binary(F5.one, t, t**2 + 1).content().degree == 0
    scaled = Form(tuple(tuple(e * t for e in row) for row in q.gram))
    assert scaled.content() == q.content() * t


def test_reduce_trivial_and_shear():
    q = rand_definite_reduced(F5, random.Random(1))
    red, t = reduce(q)
    assert red == q
    assert t == Transformation.identity(F5, 2)
    t7 = F7.t
    q = Form.binary(t7, t7, t7**3)
    red, tr = reduce(q)
    assert red.binary_coeffs() == (t7, F7.zero, t7**3 - t7)
    assert tr.apply(q) == red


def test_reduce_transport_and_idempotence_random():
    rng = random.Random(42)
    for field in (F5, F13):
        for _ in range(40):
            q = rand_definite_reduced(field, rng)
            u = rand_gl2(field, rng)
            scrambled = u.apply(q)
            red, tr = reduce(scrambled)
            assert red.is_reduced()
            assert tr.apply(scrambled) == red  # exact transport identity
            w = equivalent(q, red)
            assert w is not None and w.apply(q) == red
            again, t2 = reduce(red)
            assert again == red and t2 == Transformation.identity(field, 2)


def test_reduce_rejects_indefinite():
    t = F5.t
    with pytest.raises(ValueError):
        reduce(Form.binary(F5.one, F5.zero, -t * t))


def test_reduce_ternary():
    rng = random.Random(6)
    F = F5
    t, d = F.t, F.constant(F.delta)
    base = Form.diagonal([F.one, t, -d * (t + 1)])
    red, tr = reduce(base)
    assert red == base  # already reduced, diagonal sorted
    # scramble by a random GL_3(A) transformation and reduce back
    for _ in range(10):
        g = Transformation.identity(F, 3)
        for _ in range(3):
            i, j = rng.sample(range(3), 2)
            el = [[F.one if r == c else F.zero for c in range(3)] for r in range(3)]
            el[i][j] = F.poly([rng.randrange(5) for _ in range(3)])
            g = g @ Transformation(F, el)
        scrambled = g.apply(base)
        red, tr = reduce(scrambled)
        assert red.is_reduced()
        assert tr.apply(scrambled) == red
        mins = [red.gram[i][i].degree for i in range(3)]
        assert mins == [0, 1, 1]


def reduce_binary_by_steps(form):
    """The former binary reduction, kept as an oracle for `reduce`: swap a
    and c, or shear b by a, one validated Transformation per step."""
    F = form.field
    a, b, c = form.binary_coeffs()
    t = Transformation.identity(F, 2)
    swap = Transformation.from_scalars(F, [[0, 1], [1, 0]])
    for _ in range(10_000):
        if b.degree < a.degree <= c.degree:
            return Form.binary(a, b, c), t
        if a.degree > c.degree:
            a, c = c, a
            t = t @ swap
        elif b.degree >= a.degree:
            k, r = divmod(b, a)
            c = c - k * (b + r)  # c - k(2b - ka)
            b = r
            t = t @ Transformation(F, ((F.one, -k), (F.zero, F.one)))
    raise AssertionError("binary reduction did not terminate")


def reduce_higher_by_steps(form):
    """The former reduction of rank 2..4, kept as an oracle for `reduce`:
    each sort or shear is a validated Transformation applied to a rebuilt
    Form."""
    F = form.field
    n = form.n
    m = [list(row) for row in form.gram]
    t = Transformation.identity(F, n)
    for _ in range(10_000):
        order = sorted(range(n), key=lambda i: (m[i][i].degree, i))
        if order != list(range(n)):
            perm = [[F.one if order[j] == i else F.zero for j in range(n)] for i in range(n)]
            pt = Transformation(F, perm)
            t = t @ pt
            m = [list(row) for row in pt.apply(Form(tuple(map(tuple, m)))).gram]
            continue
        sheared = False
        for i in range(n):
            for j in range(i + 1, n):
                if m[i][j].degree >= m[i][i].degree:
                    k = m[i][j] // m[i][i]
                    el = [[F.one if r == c else F.zero for c in range(n)] for r in range(n)]
                    el[i][j] = -k
                    et = Transformation(F, el)
                    t = t @ et
                    m = [list(row) for row in et.apply(Form(tuple(map(tuple, m)))).gram]
                    sheared = True
                    break
            if sheared:
                break
        if not sheared:
            return Form(tuple(map(tuple, m))), t
    raise AssertionError("reduction did not terminate")


def rand_definite_form(field, n, rng, max_deg=3):
    """A random definite form of rank n, seldom reduced.

    Diagonal degrees fall into two parity classes of at most two entries,
    and a pair in one class has leading coefficients u, v with -uv a
    non-square, so the diagonal is anisotropic at infinity.  Off-diagonal
    entries have degree below (deg m_ii + deg m_jj) / 2, which keeps the
    form definite; it is then moved by up to three random shears.
    """
    F = field

    def rand_poly(deg, lead=None):
        low = [rng.randrange(F.q) for _ in range(deg)]
        return F.poly(low + [lead if lead is not None else rng.randrange(F.q)])

    parities = rng.sample([0, 0, 1, 1], n)
    degs = [rng.randrange(p, max_deg + 1, 2) for p in parities]
    leads = [rng.randrange(1, F.q) for _ in range(n)]
    for p in (0, 1):
        pair = [i for i in range(n) if parities[i] == p]
        if len(pair) == 2:
            u, s = leads[pair[0]], rng.randrange(1, F.q)
            leads[pair[1]] = F.mul(F.neg(F.delta), F.mul(F.mul(s, s), F.inv(u)))
    gram = [[None] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = rand_poly(degs[i], leads[i])
        for j in range(i + 1, n):
            top = -(-(degs[i] + degs[j]) // 2) - 1
            gram[i][j] = gram[j][i] = rand_poly(top) if top >= 0 else F.zero
    form = Form(gram)
    assert form.is_definite()
    g = Transformation.identity(F, n)
    for _ in range(rng.randrange(4)):
        i, j = rng.sample(range(n), 2)
        el = [[F.one if r == c else F.zero for c in range(n)] for r in range(n)]
        el[i][j] = rand_poly(rng.randrange(3))
        g = g @ Transformation(F, el)
    return g.apply(form)


@pytest.mark.parametrize("q", [3, 5, 7, 13])
def test_reduce_matches_stepwise_oracles(q):
    # 45 seeded definite forms per rank; rank 4 is reduced nowhere else
    F = prime_field(q)
    rng = random.Random(900 + q)
    for n in (2, 3, 4):
        for _ in range(45):
            form = rand_definite_form(F, n, rng)
            red, tr = reduce(form)
            want = reduce_higher_by_steps(form)
            if n == 2:
                assert reduce_binary_by_steps(form) == want, str(form)
            assert (red, tr) == want, str(form)
            assert red.is_reduced() and tr.apply(form) == red
            # an already reduced input comes back itself, with the identity
            again, t2 = reduce(red)
            assert again is red and t2 == Transformation.identity(F, n)


def test_successive_minima():
    d = F5.constant(F5.delta)
    assert successive_minima(Form.binary(F5.one, F5.zero, -d)) == (0, 0)
    assert successive_minima(remark_form()) == (1, 2)
    t = F13.t
    nf = norm_form(t**3 - t)
    assert nf.is_reduced()
    assert successive_minima(nf) == (0, 3)


def test_minima_sum_equals_disc_degree():
    rng = random.Random(8)
    for _ in range(50):
        q = rand_definite_reduced(F5, rng)
        mu = successive_minima(q)
        assert mu[0] + mu[1] == q.discriminant().degree


def test_equivalent_by_construction():
    rng = random.Random(10)
    for field in (F5, F13):
        for _ in range(25):
            q = rand_definite_reduced(field, rng)
            u = rand_gl2(field, rng)
            w = equivalent(q, u.apply(q))
            assert w is not None
            assert w.apply(q) == u.apply(q)


def test_equivalent_delta_pair():
    d = F5.constant(F5.delta)
    q1 = Form.binary(F5.one, F5.zero, -d)
    q2 = Form.binary(d, F5.zero, -F5.one)
    w = equivalent(q1, q2)
    assert w is not None and w.apply(q1) == q2


def test_inequivalent_distinct_disc_class():
    t = F5.t
    q1 = Form.binary(F5.one, F5.zero, -t)
    q2 = Form.binary(F5.one, F5.zero, -F5.constant(F5.delta) * t)
    assert SquareClass(q1.discriminant()) != SquareClass(q2.discriminant())
    assert equivalent(q1, q2) is None


def test_properly_equivalent():
    rng = random.Random(12)
    for _ in range(25):
        q = rand_definite_reduced(F5, rng)
        v = rand_gl2(F5, rng, proper=True)
        assert v.det == 1
        w = properly_equivalent(q, v.apply(q))
        assert w is not None and w.det == 1
        assert w.apply(q) == v.apply(q)
    q = rand_definite_reduced(F13, rng)
    w = properly_equivalent(q, q)
    assert w is not None and w.det == 1


def brute_force_equivalent(q1, q2, max_entry_deg=2):
    """Search all GL_2(A) witnesses with entry degree <= max_entry_deg.

    Columns are pruned by the forced Gram identities Q1(col1) = a2 and
    Q1(col2) = c2 before pairing, which is still a direct matrix search.
    """
    F = q1.field
    a2, b2, c2 = q2.binary_coeffs()
    cols = [
        (F.poly_from_key(i), F.poly_from_key(j))
        for i in range(F.q ** (max_entry_deg + 1))
        for j in range(F.q ** (max_entry_deg + 1))
    ]
    firsts = [u for u in cols if q1.value(u) == a2]
    seconds = [v for v in cols if q1.value(v) == c2]
    for u in firsts:
        for v in seconds:
            if q1.bilinear(u, v) != b2:
                continue
            if (u[0] * v[1] - u[1] * v[0]).degree == 0:
                return Transformation(F, ((u[0], v[0]), (u[1], v[1])))
    return None


def test_equivalence_brute_force_cross_check():
    # oracle: GL_2(A) matrices with entry degree <= 2 over F_5, deg disc <= 2
    rng = random.Random(14)
    checked = 0
    while checked < 6:
        q1 = rand_definite_reduced(F5, rng, max_mu2=2)
        if q1.discriminant().degree > 2:
            continue
        q2 = rand_definite_reduced(F5, rng, max_mu2=2)
        if SquareClass(q1.discriminant()) != SquareClass(q2.discriminant()):
            continue
        brute = brute_force_equivalent(q1, q2)
        assert (brute is not None) == (equivalent(q1, q2) is not None)
        if brute is not None:
            assert brute.apply(q1) == q2
        checked += 1


def reducing_units(form, dets):
    """Rows (alpha, beta, gamma, delta), in lexicographic order, of the
    constant U with det U = d in `dets` that keep the reduced form (a, b, c)
    reduced: U = [[alpha, -l C gamma], [gamma, l A alpha]] with A = lc a,
    C = lc c and l = d / (A alpha^2 + C gamma^2), whose columns are
    orthogonal for the anisotropic A X^2 + C Y^2, and gamma = 0 when
    deg a < deg c (else deg a' = deg c and b' or c' breaks reduction)."""
    q = form.field.q
    a, _, c = form.binary_coeffs()
    A, C = a.lc(), c.lc()
    al, ga = np.indices((q, q), dtype=np.int64).reshape(2, -1)[:, 1:]
    if a.degree < c.degree:
        al, ga = al[ga == 0], ga[ga == 0]
    inverse = np.array([0] + [pow(x, -1, q) for x in range(1, q)], dtype=np.int64)
    inv_norm = inverse[(A * al % q * al + C * ga % q * ga) % q]
    units = []
    for d in sorted({d % q for d in dets}):
        lam = d * inv_norm % q
        units.append(np.stack([al, -C * lam % q * ga, ga, A * lam % q * al], axis=1) % q)
    units = np.concatenate(units)
    return units[np.lexsort(units.T[::-1])]


def reduced_images(form, dets):
    """The images of a binary form, which must be reduced, under the
    constant U with det U in `dets` that keep it reduced, from the unit
    formula of `reducing_units`: the oracle between the norm-one torus of
    the class tables and the full scan (`scanned_reduced_images`).

    Returns (units, images): the rows (alpha, beta, gamma, delta) of those
    U and the coefficient rows of a', b', c', each padded to the form's
    longest coefficient tuple.  The minima are class invariants, so every
    such image has deg a' = deg a and deg c' = deg c.
    """
    q = form.field.q
    coeffs = form.binary_coeffs()
    length = max(len(p.coeffs) for p in coeffs)
    rows = _poly_rows(coeffs, length)
    units = reducing_units(form, dets)
    u, v = units.reshape(-1, 2, 2).transpose(2, 0, 1)  # the columns of U
    images = [
        _bilinear_weights(x, y, q) @ rows % q for x, y in ((u, u), (u, v), (v, v))
    ]
    return units, images


@functools.cache
def unit_scan(q, dets):
    """Every U over F_q with det U in `dets`, as rows (alpha, beta, gamma,
    delta) in lexicographic order, and the weights w_a, w_b, w_c that carry
    stacked (a, b, c) coefficient rows to a', b', c': the full q^4 scan that
    the closed-form units of `reduced_images` replace."""
    grid = np.indices((q, q, q, q)).reshape(4, -1).T.astype(np.int64)
    al, be, ga, de = grid.T
    keep = np.isin((al * de - be * ga) % q, [d % q for d in dets])
    al, be, ga, de = grid[keep].T
    u, v = np.stack([al, ga], axis=1), np.stack([be, de], axis=1)
    return (
        grid[keep],
        _bilinear_weights(u, u, q),
        _bilinear_weights(u, v, q),
        _bilinear_weights(v, v, q),
    )


def scanned_reduced_images(form, dets):
    """`reduced_images` by the full scan: every image, kept when reduced."""
    q = form.field.q
    coeffs = form.binary_coeffs()
    length = max(len(p.coeffs) for p in coeffs)
    rows = _poly_rows(coeffs, length)
    units, *weights = unit_scan(q, dets)
    images = [w @ rows % q for w in weights]
    idx = np.arange(length)
    deg_a, deg_b, deg_c = (np.where(m != 0, idx, -1).max(axis=1) for m in images)
    ok = (deg_b < deg_a) & (deg_a <= deg_c)
    return units[ok], [m[ok] for m in images], [deg_a[ok], deg_b[ok], deg_c[ok]]


def assert_images_match_scan(form, q):
    a, _, c = form.binary_coeffs()
    for dets in ((1, -1), tuple(range(1, q))):
        units, images = reduced_images(form, dets)
        want_units, want_images, (deg_a, _, deg_c) = scanned_reduced_images(form, dets)
        assert np.array_equal(units, want_units), (str(form), dets)
        for got, want in zip(images, want_images):
            assert np.array_equal(got, want), (str(form), dets)
        # the minima are class invariants: every reduced image keeps them
        assert (deg_a == a.degree).all() and (deg_c == c.degree).all(), str(form)


@pytest.mark.parametrize("q,deg", [(3, 4), (5, 3), (7, 2)])
def test_reducing_units_match_full_scan_exhaustive(q, deg):
    # every form of every canonical discriminant, primitive or not
    F = prime_field(q)
    for d in canonical_discs(F, deg):
        for form in enumerate_forms(F, d):
            assert_images_match_scan(form, q)


@pytest.mark.parametrize("q", [11, 13])
def test_reducing_units_match_full_scan_sampled(q):
    F = prime_field(q)
    rng = random.Random(600 + q)
    forms = [rand_definite_reduced(F, rng) for _ in range(200)]
    # both shapes: diagonal units (deg a < deg c) and orthogonal columns
    assert any(f.gram[0][0].degree == f.gram[1][1].degree for f in forms)
    assert any(f.gram[0][0].degree < f.gram[1][1].degree for f in forms)
    for form in forms:
        assert_images_match_scan(form, q)


@pytest.mark.parametrize("q", [5, 7, 13])
def test_constant_images_match_transformation(q):
    # the shared GL_2(F_q) kernel against the Gram-matrix product U^t M U
    F = prime_field(q)
    rng = random.Random(q)
    units, *weights = unit_scan(q, tuple(range(1, q)))
    index = {tuple(row): i for i, row in enumerate(units.tolist())}
    for _ in range(8):
        form = rand_definite_reduced(F, rng)
        rows = _poly_rows(form.binary_coeffs(), form.gram[1][1].degree + 1)
        red_units, images = reduced_images(form, tuple(range(1, q)))
        reduced_at = {tuple(row): i for i, row in enumerate(red_units.tolist())}
        for _ in range(25):
            u = [rng.randrange(q) for _ in range(4)]
            if (u[0] * u[3] - u[1] * u[2]) % q == 0:
                continue
            image = Transformation.from_scalars(F, [u[:2], u[2:]]).apply(form)
            expected = image.binary_coeffs()
            i = index[tuple(u)]
            got = [F.poly((w[i] @ rows % q).tolist()) for w in weights]
            assert tuple(got) == expected
            # reduced_images keeps exactly the reduced images
            assert (tuple(u) in reduced_at) == image.is_reduced()
            if image.is_reduced():
                j = reduced_at[tuple(u)]
                assert tuple(F.poly(m[j].tolist()) for m in images) == expected
                assert (expected[0].degree, expected[2].degree) == (
                    form.gram[0][0].degree,
                    form.gram[1][1].degree,
                )


@pytest.mark.parametrize("q", [5, 7, 13])
def test_constant_witnesses_match_unit_scan(q):
    # the column search over q^2 vectors against every U in GL_2(F_q), whose
    # weights the test above checks against Transformation.apply
    F = prime_field(q)
    rng = random.Random(100 + q)
    units, *weights = unit_scan(q, tuple(range(1, q)))
    for _ in range(4):
        r1 = rand_definite_reduced(F, rng, max_mu2=2)
        u = units[rng.randrange(len(units))].tolist()
        r2 = Transformation.from_scalars(F, [u[:2], u[2:]]).apply(r1)
        length = max(len(p.coeffs) for p in r1.binary_coeffs() + r2.binary_coeffs())
        rows = _poly_rows(r1.binary_coeffs(), length)
        target = _poly_rows(r2.binary_coeffs(), length)
        hit = np.ones(len(units), dtype=bool)
        for w, row in zip(weights, target):
            hit &= (w @ rows % q == row).all(axis=1)
        scan = {tuple(row) for row in units[hit].tolist()}
        assert tuple(u) in scan
        got = _constant_witnesses(r1, r2)
        assert len(got) == len(scan) and set(got) == scan
        # in lexicographic order of the columns (alpha, gamma), (beta, delta)
        assert got == sorted(got, key=lambda w: (w[0], w[2], w[1], w[3]))


def test_constant_witnesses_rank3_match_gl3_scan():
    # rank 3 at q = 3 against all 11,232 U in GL_3(F_3), each image
    # U^t M1 U formed directly from the Gram matrix
    q = 3
    F = prime_field(q)
    units = np.indices((q,) * 9).reshape(9, -1).T.reshape(-1, 3, 3)
    (a, b, c), (d, e, f), (g, h, i) = units.transpose(1, 2, 0)
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    units = units[det % q != 0]
    assert len(units) == 11232
    t, delta = F.t, F.constant(F.delta)
    rng = random.Random(3)
    # one reduced form with m_23 != 0, one diagonal, of equal minima (0, 1, 1)
    seeds = [
        form_from_string(F, "(1,2*t+1,2*t+2;0,0,2)"),
        Form.diagonal([F.one, t, -delta * (t + 1)]),
    ]
    forms = seeds + [
        reduce(Transformation.from_scalars(F, units[i].tolist()).apply(seed))[0]
        for seed in seeds
        for i in rng.sample(range(len(units)), 2)
    ]
    found = 0
    for r1 in forms:
        for r2 in forms:
            entries = [[x for row in r.gram for x in row] for r in (r1, r2)]
            length = max(len(x.coeffs) for x in entries[0] + entries[1])
            m1, m2 = (_poly_rows(x, length).reshape(3, 3, -1) for x in entries)
            images = np.einsum("kia,ijl,kjb->kabl", units, m1, units) % q
            hit = (images == m2).all(axis=(1, 2, 3))
            scan = {tuple(u) for u in units[hit].reshape(-1, 9).tolist()}
            got = _constant_witnesses(r1, r2)
            assert len(got) == len(scan) and set(got) == scan
            # in lexicographic order of the columns u_1, u_2, u_3
            assert got == sorted(got, key=lambda w: (w[0::3], w[1::3], w[2::3]))
            found += bool(got)
    assert 0 < found < len(forms) ** 2


def test_key_powers_never_wrap():
    assert key_powers(3, 39)[-1] == 3**38  # 3^39 - 1 < 2^63
    with pytest.raises(CapabilityError):
        key_powers(3, 40)  # 3^40 - 1 >= 2^63
    with pytest.raises(CapabilityError):
        key_powers(13, 19)


def test_ternary_equivalence_and_capability():
    F = F5
    t, d = F.t, F.constant(F.delta)
    base = Form.diagonal([F.one, t, -d * (t + 1)])
    g = Transformation(
        F,
        (
            (F.one, F.t, F.zero),
            (F.zero, F.one, F.constant(2)),
            (F.zero, F.zero, F.one),
        ),
    )
    w = equivalent(base, g.apply(base))
    assert w is not None and w.apply(base) == g.apply(base)
    F17 = prime_field(17)
    t17, d17 = F17.t, F17.constant(F17.delta)
    big = Form.diagonal([F17.one, t17, -d17 * (t17 + 1)])
    with pytest.raises(CapabilityError):
        equivalent(big, big)


def test_form_literals_round_trip():
    q = remark_form()
    s = form_to_string(q)
    assert s == "(t+8, 4, 12*t^2+8*t+2)"
    assert form_from_string(F13, s) == q
    t, d = F5.t, F5.constant(F5.delta)
    tern = Form.diagonal([F5.one, t, -d * (t + 1)])
    assert form_from_string(F5, form_to_string(tern)) == tern
    with pytest.raises(ValueError):
        form_from_string(F5, "(1, 2)")
