import functools
import random

import pytest

from fqforms.errors import BudgetError
from fqforms.ffpoly import (
    NEG_INF,
    Field,
    SquareClass,
    _crt_roots,
    _places,
    _roots_mod_powers,
    _sqrt_at_place,
    factor,
    gcd,
    invmod,
    is_irreducible,
    is_squarefree,
    poly_from_string,
    poly_to_string,
    powmod,
    prime_field,
    residue_char,
    strip_valuation,
    xgcd,
)
from tests.canonical import canonical_discs

F5 = prime_field(5)
F13 = prime_field(13)


def rand_poly(field, max_deg, rng, nonzero=False):
    while True:
        f = field.poly([rng.randrange(field.q) for _ in range(max_deg + 1)])
        if not (nonzero and f.is_zero()):
            return f


def test_field_basics():
    assert F5.delta == 2
    assert F5.char(4) == 1 and F5.char(2) == -1 and F5.char(0) == 0
    assert prime_field(13).is_square(4)
    with pytest.raises(ValueError):
        F5.is_square(0)
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field(2)
    with pytest.raises(ValueError):
        Field(9)  # prime fields only
    assert Field(5, delta=3).delta == 3


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 17, 31])
def test_field_chars_match_euler_criterion(q):
    F = Field(q)
    euler = [0] + [1 if pow(a, (q - 1) // 2, q) == 1 else -1 for a in range(1, q)]
    assert list(F.chars) == euler
    assert [F.char(a) for a in range(-q, 2 * q)] == euler * 3
    assert [F.is_square(a) for a in range(1, q)] == [c == 1 for c in euler[1:]]
    with pytest.raises(ValueError):
        F.is_square(0)
    for bad in (0, 4, 7, -2):  # zero, a square, and out of range
        with pytest.raises(ValueError):
            Field(5, delta=bad)


def test_choose_delta_matches_enumeration():
    # oracle: ascending scan against the set of squares
    for p in (5, 7, 13, 17):
        F = prime_field(p)
        squares = {F.mul(a, a) for a in range(1, p)}
        first = min(a for a in range(1, p) if a not in squares)
        assert F.delta == first


def test_degree_sentinel():
    assert F5.zero.degree == NEG_INF
    assert NEG_INF < -10
    with pytest.raises(ValueError):
        F5.zero.lc()


def test_divmod_examples():
    t = F5.t
    q, r = divmod(t * t - 1, t - 1)
    assert q == t + 1 and r.is_zero()
    f = F5.poly([3, 1, 4, 1])
    q, r = divmod(f, F5.one)
    assert q == f and r.is_zero()
    # derived: verify by re-multiplying
    q, r = divmod(t**3 + 2 * t, t**2 + 1)
    assert q * (t**2 + 1) + r == t**3 + 2 * t
    assert r.degree < 2
    assert q == t and r == t


def test_divmod_reconstruction_random():
    rng = random.Random(7)
    for qq in (5, 13):
        F = prime_field(qq)
        for _ in range(300):
            f = rand_poly(F, 8, rng)
            g = rand_poly(F, 4, rng, nonzero=True)
            quo, rem = divmod(f, g)
            assert quo * g + rem == f
            assert rem.degree < g.degree


def test_divide_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(F5.t, F5.zero)


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(300):
        f = rand_poly(F13, 5, rng)
        g = rand_poly(F13, 5, rng)
        h = rand_poly(F13, 5, rng)
        assert (f + g) * h == f * h + g * h
        if not (f.is_zero() or g.is_zero()):
            assert (f * g).degree == f.degree + g.degree


def convolved(f, g):
    """The schoolbook product, the oracle for `Poly.__mul__`'s fast paths."""
    F = f.field
    out = [0] * (len(f.coeffs) + len(g.coeffs))
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] += a * b
    return F.poly([c % F.p for c in out])


def test_poly_fast_paths():
    rng = random.Random(5)
    for _ in range(200):
        f = rand_poly(F13, 5, rng)
        c = F13.constant(rng.randrange(13))
        # a constant factor on either side scales instead of convolving
        assert f * c == c * f == convolved(f, c)
        n = rng.randrange(-30, 30)
        assert f * n == n * f == convolved(f, F13.constant(n))
    # a tuple is kept as given unless it has trailing zeros to strip
    coeffs = (1, 2, 3)
    assert F13.poly(coeffs).coeffs is coeffs
    assert F13.poly((1, 2, 0, 0)).coeffs == (1, 2)
    assert F13.poly((0, 0)).is_zero() and F13.poly([]).is_zero()
    # a Poly over an equal field that is another object still mixes
    other = Field(13)
    assert other is not F13 and (F13.t * other.t).coeffs == (0, 0, 1)
    with pytest.raises(ValueError):
        F13.t * F5.t


def test_gcd_examples():
    t = F5.t
    assert gcd(t**2 - 1, t - 1) == t - 1
    f = F5.poly([2, 0, 3])
    assert gcd(f, F5.zero) == f.monic()
    t = F13.t
    g = gcd(t**3 - t, t**2 - 1)
    assert g == t**2 - 1
    assert g.divides(t**3 - t) and g.divides(t**2 - 1)
    with pytest.raises(ValueError):
        gcd(F5.zero, F5.zero)


def test_xgcd_identity():
    rng = random.Random(3)
    for _ in range(100):
        f = rand_poly(F5, 6, rng, nonzero=True)
        g = rand_poly(F5, 4, rng, nonzero=True)
        d, s, u = xgcd(f, g)
        assert s * f + u * g == d
        assert d == gcd(f, g)


def test_invmod():
    t = F5.t
    m = t**2 + 2
    for key in range(1, 25):
        f = F5.poly_from_key(key)
        if gcd(f, m).degree == 0:
            assert (invmod(f, m) * f) % m == F5.one


def test_is_irreducible_examples():
    t = F5.t
    # root search oracle over F_5
    f = t**2 + 1
    roots = [a for a in range(5) if f(a) == 0]
    assert roots and not is_irreducible(f)
    assert (t + 2) * (t + 3) == f
    assert is_irreducible(F5.t)
    assert is_irreducible(t**2 - F5.delta)
    assert not is_irreducible(F5.one)


def test_irreducible_counts_degree_2():
    # oracle: number of monic irreducible quadratics over F_q is q(q-1)/2
    for p in (5, 7):
        F = prime_field(p)
        count = 0
        for c0 in range(p):
            for c1 in range(p):
                if is_irreducible(F.poly([c0, c1, 1])):
                    count += 1
        assert count == p * (p - 1) // 2


def test_factor_paper_example():
    t = F13.t
    unit, parts = factor(t**3 - t)
    assert unit == 1
    assert {(str(g), m) for g, m in parts} == {("t", 1), ("t+1", 1), ("t+12", 1)}


def test_factor_trivial_examples():
    unit, parts = factor(F5.constant(3))
    assert unit == 3 and parts == []
    t = F5.t
    unit, parts = factor((t + 1) ** 2)
    assert unit == 1 and parts == [(t + 1, 2)]


def test_factor_product_identity_random():
    rng = random.Random(23)
    for q in (5, 7, 13, 17):
        F = prime_field(q)
        for _ in range(250):
            f = rand_poly(F, 8, rng, nonzero=True)
            unit, parts = factor(f)
            prod = F.constant(unit)
            for g, m in parts:
                assert is_irreducible(g)
                assert g.lc() == 1
                prod = prod * g**m
            assert prod == f


def test_factor_square_parts():
    t = F5.t
    assert factor(t * t * (t + 1)) == (1, [(t, 2), (t + 1, 1)])
    f = t**2 + 2
    assert factor(3 * f) == (3, [(f, 1)])
    d = F5.delta
    assert factor(F5.constant(d) * t**4) == (d, [(t, 4)])


def test_is_squarefree_matches_factor_random():
    rng = random.Random(5)
    for _ in range(200):
        f = rand_poly(F5, 7, rng, nonzero=True)
        _, parts = factor(f)
        assert is_squarefree(f) == all(e == 1 for _, e in parts), str(f)


def test_factor_qth_power():
    # t^5 + 1 = (t+1)^5 over F_5: derivative vanishes
    t = F5.t
    assert factor(t**5 + 1) == (1, [(t + 1, 5)])
    assert factor(2 * (t**10 + 2)) == (2, [(t**2 + 2, 5)])


def test_multiplicity_divisible_by_p():
    # (t+1)^3 (t+2) over F_3: f' != 0, but (t+1) has multiplicity p
    F3 = prime_field(3)
    t = F3.t
    assert factor((t + 1) ** 3 * (t + 2))[1] == [(t + 1, 3), (t + 2, 1)]
    # t^4 + 2t = t (t+2)^3
    assert factor(t**4 + 2 * t) == (1, [(t, 1), (t + 2, 3)])


def test_factor_matches_galoistools():
    # every monic polynomial of degree <= 6 over F_3, against sympy
    from sympy import ZZ
    from sympy.polys.galoistools import gf_factor

    F3 = prime_field(3)

    def dense(f):
        return tuple(reversed(f.coeffs))

    for deg in range(7):
        for low in range(3**deg):
            f = F3.poly_from_key(low + 3**deg)
            _, expected = gf_factor(list(dense(f)), 3, ZZ)
            unit, got = factor(f)
            assert unit == 1
            assert sorted((dense(g), k) for g, k in got) == sorted(
                (tuple(g), k) for g, k in expected
            ), str(f)


def products_of_powers(F, rng, count, top=40):
    """`count` seeded products lead * prod g_i^(e_i) of degree <= `top`,
    every lead in turn: random factors g_i of degree 1..4, some of them
    q-th powers h(t^q), with multiplicities 1, 2, q - 1, q, q + 1 and 2q."""
    q = F.q
    out = []
    for i in range(count):
        f = F.constant(1 + i % (q - 1))
        while True:
            g = F.poly([rng.randrange(q) for _ in range(rng.randrange(1, 5))] + [1])
            if rng.random() < 0.25:
                # h(t^q) = h(t)^q over a prime field
                g = F.poly([0 if j % q else g[j // q] for j in range(g.degree * q + 1)])
            e = rng.choice((1, 2, q - 1, q, q + 1, 2 * q))
            if f.degree + e * g.degree > top:
                break
            f = f * g**e
        out.append(f)
    return out


@pytest.mark.parametrize("q", [3, 5, 7])
def test_factor_matches_galoistools_on_products_of_powers(q):
    from sympy import ZZ
    from sympy.polys.galoistools import gf_factor

    F = prime_field(q)
    polys = products_of_powers(F, random.Random(q), 60)
    assert max(f.degree for f in polys) >= 30
    assert any(e >= q for f in polys for _, e in factor(f)[1])
    for f in polys:
        lead, expected = gf_factor(_dense(f), q, ZZ)
        unit, got = factor(f)
        assert unit == lead
        assert sorted((_dense(g), k) for g, k in got) == sorted(
            (list(g), k) for g, k in expected
        ), str(f)


@pytest.mark.parametrize("q,top", [(3, 7), (5, 4)])
def test_is_irreducible_matches_galoistools_every_lead(q, top):
    from sympy import ZZ
    from sympy.polys.galoistools import gf_irreducible_p

    F = prime_field(q)
    for key in range(q, q ** (top + 1)):
        f = F.poly_from_key(key)
        assert is_irreducible(f) == gf_irreducible_p(_dense(f), q, ZZ), str(f)


def test_strip_valuation():
    t = F5.t
    p = t**2 + 2
    u = 3 * t**3 + t + 4
    assert u % p
    for v in range(4):
        assert strip_valuation(p**v * u, p) == (v, u)
    assert strip_valuation(F5.constant(2), t) == (0, F5.constant(2))


def _dense(f):
    return [int(c) for c in reversed(f.coeffs)]


def _arithmetic_pairs(q):
    """(f, g): every pair of polynomials of degree <= 4 at q = 3, g nonzero;
    300 seeded pairs of degree <= 8 otherwise."""
    F = prime_field(q)
    if q == 3:
        polys = [F.poly_from_key(k) for k in range(3**5)]
        return [(f, g) for f in polys for g in polys[1:]]
    rng = random.Random(q)
    return [
        (rand_poly(F, rng.randrange(9), rng), rand_poly(F, rng.randrange(9), rng, True))
        for _ in range(300)
    ]


@pytest.mark.parametrize("q", [3, 7, 13])
def test_divmod_xgcd_match_galoistools(q):
    # at q = 3 divmod sees every ordered pair and xgcd every unordered pair;
    # xgcd(f, g) with deg f < deg g is xgcd(g, f) after one swap step
    from sympy import ZZ
    from sympy.polys import galoistools as gt

    for f, g in _arithmetic_pairs(q):
        quo, rem = divmod(f, g)
        assert [_dense(quo), _dense(rem)] == list(gt.gf_div(_dense(f), _dense(g), q, ZZ))
        if f.is_zero() or (q == 3 and f.key() > g.key()):
            continue
        d, s, u = xgcd(f, g)
        es, eu, ed = gt.gf_gcdex(_dense(f), _dense(g), q, ZZ)
        assert (_dense(d), _dense(s), _dense(u)) == (ed, es, eu), (f, g)


@pytest.mark.parametrize("q", [3, 7, 13])
def test_powmod_is_irreducible_match_galoistools(q):
    # at q = 3: every monic modulus m of degree 1..4 with every residue f of
    # degree < deg m, and every polynomial of degree <= 4 for irreducibility
    from sympy import ZZ
    from sympy.polys import galoistools as gt

    F = prime_field(q)
    if q == 3:
        moduli = [F.poly_from_key(k) for d in range(1, 5) for k in range(3**d, 2 * 3**d)]
        cases = [
            (F.poly_from_key(r), m, (r + m.key()) % 30)
            for m in moduli
            for r in range(3**m.degree)
        ]
        polys = [F.poly_from_key(k) for k in range(1, 3**5)]
    else:
        rng = random.Random(q)
        cases = [
            (f, g.monic(), rng.randrange(200))
            for f, g in _arithmetic_pairs(q)
            if g.degree > 0
        ]
        polys = [g for _, g in _arithmetic_pairs(q)]
    for f, m, n in cases:
        assert _dense(powmod(f, n, m)) == gt.gf_pow_mod(_dense(f), n, _dense(m), q, ZZ)
    for g in polys:
        expected = g.degree > 0 and gt.gf_irreducible_p(_dense(g), q, ZZ)
        assert is_irreducible(g) == expected, str(g)


def test_residue_char_examples():
    squares_mod5 = {(a * a) % 5 for a in range(1, 5)}
    assert 2 not in squares_mod5
    assert residue_char(F5.constant(2), F5.t) == -1
    t = F5.t
    p = t**2 + 2
    g = t + 3
    assert residue_char((g * g) % p, p) == 1
    assert residue_char(p, p) == 0
    with pytest.raises(ValueError):
        residue_char(F5.one, t**2 - 1)


def test_residue_char_multiplicative():
    rng = random.Random(9)
    t = F13.t
    p = t**2 + t + 2
    assert is_irreducible(p)
    for _ in range(200):
        f = rand_poly(F13, 4, rng, nonzero=True)
        g = rand_poly(F13, 4, rng, nonzero=True)
        cf, cg, cfg = residue_char(f, p), residue_char(g, p), residue_char(f * g, p)
        if cf and cg:
            assert cfg == cf * cg


def test_powmod_matches_naive():
    t = F5.t
    m = t**3 + t + 1
    f = t + 2
    naive = F5.one
    for _ in range(29):
        naive = (naive * f) % m
    assert powmod(f, 29, m) == naive


def euler_residue_char(f, p):
    """Euler's criterion, the oracle for `residue_char`: 0 if p | f, else
    (f mod p)^((q^deg p - 1)/2) mapped to +1 or -1."""
    F = f.field
    r = f % p
    if r.is_zero():
        return 0
    val = powmod(r, (F.q**p.degree - 1) // 2, p)
    return 1 if val == F.one % p else -1


def monic_places(F, degree):
    return [
        g
        for g in (F.poly_from_key(k) for k in range(F.q**degree, 2 * F.q**degree))
        if is_irreducible(g)
    ]


@pytest.mark.parametrize("q", [3, 5, 7])
def test_residue_char_matches_euler_criterion(q):
    # every f of degree <= 4 against every place of degree 2 and 3; at q = 7
    # (2.2M pairs, about a minute) every f against the first place of each
    # degree, and every residue, 0 included, against every place
    F = prime_field(q)
    polys = [F.poly_from_key(k) for k in range(q**5)]
    firsts = []
    zeros = 0
    for degree in (2, 3):
        places = monic_places(F, degree)
        firsts.append(places[0])
        for p in places:
            fs = polys if q < 7 or p in firsts else polys[: q**degree]
            euler = {}
            for f in fs:
                r = f % p
                if r.key() not in euler:
                    euler[r.key()] = euler_residue_char(r, p)
                assert residue_char(f, p) == euler[r.key()], (str(f), str(p))
                zeros += r.is_zero()
    assert zeros > len(firsts)


@pytest.mark.parametrize("q", [11, 13])
def test_residue_char_linear_matches_euler_criterion(q):
    # every linear f = l (t - r), every lead l and root r, against the first
    # place of degree 2, 3 and 4 and a non-monic multiple of it; (q - 1)/2
    # is odd at q = 11 and even at q = 13
    F = prime_field(q)
    for degree in (2, 3, 4):
        monic = (F.poly_from_key(k) for k in range(q**degree, 2 * q**degree))
        p = next(g for g in monic if is_irreducible(g))
        for lead in range(1, q):
            for r in range(q):
                f = F.poly((F.neg(F.mul(lead, r)), lead))
                expected = euler_residue_char(f, p)
                assert residue_char(f, p) == expected, (str(f), str(p))
                assert residue_char(f, p * F.delta) == expected, (str(f), str(p))


@pytest.mark.parametrize("q", [3, 5, 7])
def test_residue_char_non_monic_place(q):
    F = prime_field(q)
    rng = random.Random(q)
    t = F.t
    for p in monic_places(F, 1) + monic_places(F, 2) + monic_places(F, 3):
        fs = [rand_poly(F, 5, rng) for _ in range(4)] + [p * (t + 1)]
        for c in range(2, q):
            scaled = p * c
            for f in fs:
                expected = euler_residue_char(f, scaled)
                assert residue_char(f, scaled) == residue_char(f, p) == expected
    for bad in (t**2 - 1, (t**2 - 1) * 2, t**2, t**3 * 2, F.constant(2)):
        with pytest.raises(ValueError):
            residue_char(t + 1, bad)


@functools.cache
def _squares_mod_each_u(field, degree):
    size = field.q**degree
    vs = [field.poly_from_key(k) for k in range(size)]
    return [
        (u, [(v, (v * v % u).key()) for v in vs])
        for u in (field.poly_from_key(low + size) for low in range(size))
    ]


def square_roots_mod(d, degree):
    """Yield (u, [v : deg v < deg u, u | v^2 - d]) for each monic u of
    degree `degree`, both in key order: the per-polynomial sieve that
    `classify._monic_roots` replaced, kept as its oracle.  The roots of
    x^2 = d at each place p and each power p^k are read off `_place_roots`,
    built once per d for every degree up to deg d / 2, and combined by CRT
    over the factorization of u."""
    return _crt_roots(d.field, _place_roots(d, max(degree, d.degree // 2)), degree)


@functools.lru_cache(maxsize=16)
def _place_roots(d, top):
    """{p: [roots of x^2 = d mod p^k for k = 1 .. top // deg p]} over the
    places p of degree <= top, each root of degree < k deg p: an F_q
    square-root table at degree 1, Tonelli-Shanks in A/(p) above, lifted to
    p^k one p-adic digit at a time."""
    return {
        p: _roots_mod_powers(d, p, top // p.degree, _sqrt_at_place(d % p, p))
        for p in _places(d.field, top)
    }


def scanned_square_roots_mod(d, degree):
    """The scan the sieve replaced: every v of degree < `degree` tried
    against every monic u of degree `degree`, both in key order, with
    v^2 mod u tabulated once per (field, degree) instead of once per d."""
    for u, squares in _squares_mod_each_u(d.field, degree):
        r = (d % u).key()
        yield u, [v for v, s in squares if s == r]


def assert_roots_match_scan(d, degree):
    got = list(square_roots_mod(d, degree))
    assert got == list(scanned_square_roots_mod(d, degree)), (str(d), degree)
    for u, roots in got:
        assert all(u.divides(v * v - d) for v in roots), (str(d), str(u))


@pytest.mark.parametrize("q,degree", [(3, 3), (5, 2), (7, 2)])
def test_square_roots_mod_matches_scan(q, degree):
    # every canonical d of degree <= 2 degree (<= 3 at q = 7) against every
    # u of degree <= `degree`, so p^k | d for k <= 3, u sharing factors
    # with d and a leading coefficient delta all occur
    F = prime_field(q)
    top = 3 if q == 7 else 2 * degree
    for d in canonical_discs(F, top):
        for k in range(degree + 1):
            assert_roots_match_scan(d, k)


def high_multiplicity_discs(F):
    """p^k | d up to k = 6 at places of degree 1 and 2, at every leading
    coefficient (Picard curves need not be canonical)."""
    t = F.t
    p2 = monic_places(F, 2)[0]
    shapes = [t**6, (t + 1) ** 4 * (t + 2), t**3 * p2, p2**2, p2**3 * t, t**2 * (t + 1) ** 2]
    return [shape * lead for shape in shapes for lead in range(1, F.q)]


@pytest.mark.parametrize("q,degree", [(3, 3), (5, 3), (7, 2)])
def test_square_roots_mod_high_multiplicity_any_lead(q, degree):
    # u = p^e up to e = 3
    for d in high_multiplicity_discs(prime_field(q)):
        for k in range(degree + 1):
            assert_roots_match_scan(d, k)


def test_places_match_irreducibility_scan():
    for q, top in ((3, 4), (5, 3), (7, 2)):
        F = prime_field(q)
        scanned = [p for m in range(1, top + 1) for p in monic_places(F, m)]
        assert list(_places(F, top)) == scanned


def test_square_class():
    t = F13.t
    d = F13.delta
    # f and u^2 f share a class; f and delta*f do not
    f = 3 * t**2 + 1
    assert SquareClass(f) == SquareClass(f * 4)
    assert SquareClass(f) != SquareClass(f * d)
    rep = SquareClass(f).rep
    assert rep.lc() in (1, d)
    with pytest.raises(ValueError):
        SquareClass(F13.zero)


def test_poly_string_round_trip():
    cases = ["t^3+12*t", "0", "5", "t", "12*t^2+8*t+2", "t^4+1"]
    for s in cases:
        assert poly_to_string(poly_from_string(F13, s)) == s
    # parser accepts minus signs, canonical output does not
    assert poly_to_string(poly_from_string(F13, "t^2-1")) == "t^2+12"
    assert poly_to_string(poly_from_string(F13, "-t")) == "12*t"
    with pytest.raises(ValueError):
        poly_from_string(F13, "t^^2")
    with pytest.raises(ValueError):
        poly_from_string(F13, "2t")


def test_poly_key_round_trip():
    rng = random.Random(2)
    for _ in range(100):
        f = rand_poly(F13, 6, rng)
        assert F13.poly_from_key(f.key()) == f


def test_poly_from_string_degree_budget():
    # t^100000000 would allocate 1e8 + 1 coefficients
    with pytest.raises(BudgetError):
        poly_from_string(F13, "t^100000000")
    with pytest.raises(BudgetError):
        poly_from_string(F13, "1+3*t^100000000")
    assert poly_from_string(F13, "t^1000").degree == 1000
