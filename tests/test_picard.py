import math
import random

import numpy as np
import pytest

import fqforms.picard
from fqforms.errors import DEFAULT_BUDGET, BudgetError, CapabilityError
from fqforms.ffpoly import factor, is_irreducible, is_squarefree, prime_field
from fqforms.ffpoly import residue_char
from fqforms.picard import (
    AbelianStructure,
    MumfordDivisor,
    _order_dividing,
    _prime_divisors,
    cantor_add,
    comp_sequence_check,
    divisor_identity,
    enumerate_reduced_divisors,
    pic_group,
    pic_order,
    pic_order_with_conductor,
    weil_interval,
)
from fqforms.qform import is_definite_disc
from fqforms.verify import SweepConfig, run_check
from tests.canonical import canonical_discs

F5 = prime_field(5)
F13 = prime_field(13)


def divisor_negate(p):
    return MumfordDivisor(p.u, (-p.v) % p.u, p.curve)


def divisor_order(p):
    """Order of p, a divisor of |Pic| = pic_order(p.curve)."""
    n = pic_order(p.curve)
    return _order_dividing(p, n, _prime_divisors(n))


def affine_point_count(d0):
    """|{(x, y) in F_q^2 : y^2 = D0(x)}|, the genus-1 order oracle."""
    F = d0.field
    total = 0
    for x in F.elements():
        c = F.char(d0(x))
        total += 1 + c if c >= 0 else 0
    return total


def remark_curve():
    t = F13.t
    return t**3 - t


def test_divisor_validation():
    d0 = remark_curve()
    with pytest.raises(ValueError):
        MumfordDivisor(F13.t - 5, F13.constant(3), d0)  # 3^2 != D0(5)
    with pytest.raises(ValueError):
        MumfordDivisor(2 * F13.t, F13.zero, d0)  # not monic
    p = MumfordDivisor(F13.t - 5, F13.constant(4), d0)
    assert not p.is_identity()


def test_identity_and_inverse():
    d0 = remark_curve()
    e = divisor_identity(d0)
    p = MumfordDivisor(F13.t - 5, F13.constant(4), d0)
    assert cantor_add(e, p) == p
    assert cantor_add(p, e) == p
    assert cantor_add(p, divisor_negate(p)) == e


def test_remark_point_has_order_four():
    d0 = remark_curve()
    # (5, 4) is on the curve: 5^3 - 5 = 120 = 3 mod 13 = 4^2
    p = MumfordDivisor(F13.t - 5, F13.constant(4), d0)
    assert divisor_order(p) == 4
    twice = cantor_add(p, p)
    assert not twice.is_identity()
    assert cantor_add(twice, twice).is_identity()


def test_pic_group_remark_curve():
    g = pic_group(remark_curve())
    assert g.order == 8
    assert g.structure == AbelianStructure((2, 4))
    for p in g.elements:
        assert g.order % divisor_order(p) == 0 or p.is_identity()


def test_pic_group_degree_one_trivial():
    g = pic_group(F5.t)
    assert g.order == 1
    assert g.structure == AbelianStructure(())


def test_pic_group_matches_affine_count_genus_one():
    rng = random.Random(91)
    found = 0
    while found < 6:
        coeffs = [rng.randrange(5) for _ in range(3)] + [rng.randrange(1, 5)]
        d0 = F5.poly(coeffs)
        if not is_squarefree(d0):
            continue
        group = pic_group(d0)
        assert group.order == affine_point_count(d0) + 1, str(d0)
        found += 1


def test_cantor_group_axioms_exhaustive_identity_inverse():
    d0 = remark_curve()
    group = pic_group(d0)
    e = divisor_identity(d0)
    for p in group.elements:
        assert cantor_add(p, e) == p
        assert cantor_add(p, divisor_negate(p)) == e


def test_cantor_associativity_sampled():
    d0 = remark_curve()
    group = pic_group(d0)
    rng = random.Random(93)
    for _ in range(10_000):
        p1, p2, p3 = (group.elements[rng.randrange(len(group.elements))] for _ in range(3))
        left = cantor_add(cantor_add(p1, p2), p3)
        right = cantor_add(p1, cantor_add(p2, p3))
        assert left == right


def test_cantor_commutative_and_closed_genus_two():
    t = F5.t
    d0 = t**5 + t + 1  # square-free over F_5
    assert is_squarefree(d0)
    group = pic_group(d0)
    keys = {(p.u.key(), p.v.key()) for p in group.elements}
    rng = random.Random(95)
    for _ in range(800):
        p1 = group.elements[rng.randrange(group.order)]
        p2 = group.elements[rng.randrange(group.order)]
        s = cantor_add(p1, p2)
        assert (s.u.key(), s.v.key()) in keys
        assert s == cantor_add(p2, p1)
    # invariant factors multiply to the order
    prod = 1
    for d in group.structure.factors:
        prod *= d
    assert prod == group.order


def test_non_monic_curve_supported():
    t = F5.t
    d0 = 2 * (t**3 + t + 1)
    group = pic_group(d0)
    assert group.order == affine_point_count(d0) + 1
    for p in group.elements[:5]:
        assert cantor_add(p, divisor_negate(p)).is_identity()


def test_curve_validation():
    t = F5.t
    for count in (pic_group, pic_order):
        with pytest.raises(ValueError):
            count(t * t)  # even degree
        with pytest.raises(ValueError):
            count(t * t * (t + 1))  # not square-free
        with pytest.raises(ValueError):
            count(t * t + 1)  # even degree, square leading coefficient
    with pytest.raises(CapabilityError):
        pic_group(F5.poly_from_key(5**7) + 1)  # degree 7, genus 3


def test_conductor_order_examples():
    t5 = F5.t
    # D0 = delta, f = t: (q^2 - 1)/((q - 1)(q + 1)) = 1
    for q in (5, 13):
        F = prime_field(q)
        assert pic_order_with_conductor(F.constant(F.delta), F.t) == 1
    # D0 = t + 1, f = t over F_5: t splits (D0(0) = 1 is a square): q - 1
    assert pic_order_with_conductor(t5 + 1, t5) == 4
    # f = 1 recovers |Pic O|
    assert pic_order_with_conductor(remark_curve(), F13.one) == 8
    # inert linear conductor: D0 = t + 2, D0(0) = 2 non-square: q + 1
    assert pic_order_with_conductor(t5 + 2, t5) == 6
    # ramified: D0 = t: q
    assert pic_order_with_conductor(t5, t5) == 5


def test_comp_sequence_remark():
    report = comp_sequence_check(remark_curve())
    assert report.proper_classes == 16
    assert report.pic_order == 8
    assert report.expected == 16
    assert report.passed


def test_comp_sequence_constant_disc():
    report = comp_sequence_check(F5.constant(F5.delta))
    assert report.pic_order == 1
    assert report.proper_classes == 1
    assert report.passed


def test_comp_sequence_conductor_disc():
    t = F5.t
    report = comp_sequence_check(t * t * (t + 1))
    assert report.pic_order == 4
    assert report.proper_classes == 8
    assert report.passed


def test_comp_sequence_conductor_with_multiplicity_p():
    # D = delta t (t+1)^3 over F_3: conductor t+1 has multiplicity 1 in g,
    # not 4 as a double p-th root step would give
    F3 = prime_field(3)
    t = F3.t
    report = comp_sequence_check(F3.constant(F3.delta) * t * (t + 1) ** 3)
    assert report.proper_classes == 12
    assert report.pic_order == 6
    assert report.passed


def squarefree_curves(F, deg):
    """Every square-free polynomial of degree `deg` over F, any leading
    coefficient, in key order."""
    for key in range(F.q**deg, F.q ** (deg + 1)):
        d0 = F.poly_from_key(key)
        if is_squarefree(d0):
            yield d0


def sampled_curves(F, deg, count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d0 = F.poly_from_key(rng.randrange(F.q**deg, F.q ** (deg + 1)))
        if is_squarefree(d0):
            out.append(d0)
    return out


def repeated_addition_order(p):
    """Order of p by adding p to itself until the identity: the oracle
    for the prime descent over |Pic|."""
    acc = p
    n = 1
    while not acc.is_identity():
        acc = cantor_add(acc, p)
        n += 1
    return n


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def invariant_factor_chains(order, exponent):
    """All chains d_1 | d_2 | ... | d_k = exponent with product = order."""
    chains = []

    def extend(remaining, cap, acc):
        if remaining == 1:
            chains.append(tuple(reversed(acc)))
            return
        for d in divisors(cap):
            if d > 1 and remaining % d == 0:
                extend(remaining // d, d, acc + [d])

    if order % exponent == 0:
        extend(order // exponent, exponent, [exponent])
    return chains


def chain_search_structure(orders):
    """The invariant factors of the abelian group with these element orders,
    by searching every chain for the one whose torsion counts match: the
    oracle for the counts read off in closed form."""
    order = len(orders)
    if order == 1:
        return AbelianStructure(())
    exponent = math.lcm(*orders)
    counts = {m: sum(1 for n in orders if m % n == 0) for m in divisors(exponent)}
    for chain in invariant_factor_chains(order, exponent):
        if all(
            counts[m] == math.prod(math.gcd(d, m) for d in chain) for m in counts
        ):
            return AbelianStructure(chain)
    raise AssertionError("no abelian group matches the order statistics")


def assert_group_matches_oracles(d0):
    group = pic_group(d0)
    assert pic_order(d0) == group.order, str(d0)
    orders = [repeated_addition_order(p) for p in group.elements]
    assert group.orders == orders, str(d0)
    assert group.structure == chain_search_structure(orders), str(d0)


@pytest.mark.parametrize("q,deg,total", [(3, 3, 36), (5, 3, 400), (3, 5, 324)])
def test_pic_order_matches_pic_group_exhaustive(q, deg, total):
    # |Pic| from the Euler product, and the element orders and invariant
    # factors of pic_group against repeated addition and a chain search
    F = prime_field(q)
    curves = list(squarefree_curves(F, deg))
    assert len(curves) == total
    for d0 in curves:
        assert_group_matches_oracles(d0)


def test_pic_order_matches_point_count_q7_cubics():
    # genus 1: |Pic| = |E(F_7)|, the affine points plus the one at infinity
    curves = list(squarefree_curves(prime_field(7), 3))
    assert len(curves) == 1764
    for d0 in curves:
        assert pic_order(d0) == affine_point_count(d0) + 1, str(d0)


def test_pic_order_matches_pic_group_sampled_quintics():
    for d0 in sampled_curves(F5, 5, 8, seed=501):
        assert_group_matches_oracles(d0)


# (q, degree of D0, curves sampled or None for every square-free canonical
# one); the 2 7^5 canonical quintics at q = 7 would take about 40 s
TRUSTED_CASES = [(3, 3, None), (3, 5, None), (5, 3, None), (5, 5, None), (7, 3, None),
                 (7, 5, 400)]


@pytest.mark.parametrize("q,deg,sampled", TRUSTED_CASES)
def test_trusted_divisors_pass_the_full_check(q, deg, sampled):
    # the divisors read off the batch roots skip the checks of
    # `MumfordDivisor.__post_init__`; rebuilt through them, every one passes
    # and equals the divisor it was read as
    F = prime_field(q)
    curves = [d for d in canonical_discs(F, deg) if d.degree == deg and is_squarefree(d)]
    if sampled:
        curves = random.Random(q * 100 + deg).sample(curves, sampled)
    divisors = 0
    for d0 in curves:
        for p in enumerate_reduced_divisors(d0):
            assert MumfordDivisor(p.u, p.v, p.curve) == p, (str(d0), p)
            divisors += 1
    assert divisors > 3 * len(curves) > 0


def test_pic_order_genus_three_matches_divisor_count():
    F3 = prime_field(3)
    for d0 in sampled_curves(F3, 7, 12, seed=703):
        assert pic_order(d0) == len(enumerate_reduced_divisors(d0)), str(d0)


def odd_degree_pic_order(d0):
    """|Pic| at odd degree 2g+1 as the number of reduced divisors, sum N(u)
    over monic u of degree <= g: the product over places p of degree <= g
    of (1+x)/(1-x), 1 or 1+x (x = T^deg p) as D0 is a square, a non-square
    or zero mod p, truncated at T^g."""
    genus = (d0.degree - 1) // 2
    F = d0.field
    series = [1] + [0] * genus
    for d in range(1, genus + 1):
        size = F.q**d
        for low in range(size):
            p = F.poly_from_key(low + size)
            if not is_irreducible(p):
                continue
            sym = residue_char(d0, p)
            if sym == -1:
                continue
            if sym == 1:  # 1/(1-x), ascending
                for n in range(d, genus + 1):
                    series[n] += series[n - d]
            for n in range(genus, d - 1, -1):  # (1+x), descending
                series[n] += series[n - d]
    return sum(series)


def scanned_pic_order(d0):
    """`pic_order` as it was before the product sieve: the Euler product over
    the places of degree <= g, found by testing every monic polynomial of
    degree <= g for irreducibility."""
    genus = (d0.degree - 1) // 2
    F, q = d0.field, d0.field.q
    series = [1] + [0] * genus
    for d in range(1, genus + 1):
        size = q**d
        for low in range(size):
            p = F.poly_from_key(low + size)
            if not is_irreducible(p):
                continue
            steps = {1: (d, d), -1: (2 * d,), 0: (d,)}[residue_char(d0, p)]
            for step in steps:
                for n in range(step, genus + 1):
                    series[n] += series[n - step]
    for root in (1, q):
        for n in range(genus, 0, -1):
            series[n] -= root * series[n - 1]
    e = 2 - d0.degree % 2
    for n in range(e, genus + 1):
        series[n] += series[n - e]
    h = sum(series) + sum(q ** (genus - i) * c for i, c in enumerate(series[:genus]))
    return e * h


@pytest.mark.parametrize("q,top", [(3, 6), (5, 4)])
def test_pic_order_matches_scanned_euler_product(q, top):
    # every square-free definite D0 of degree 1 .. top, any leading coefficient
    F = prime_field(q)
    for deg in range(1, top + 1):
        for d0 in squarefree_curves(F, deg):
            if is_definite_disc(d0):
                assert pic_order(d0) == scanned_pic_order(d0), str(d0)


def definite_curves(F, deg):
    """The square-free curves of `deg` with a non-square leading coefficient."""
    return [d0 for d0 in squarefree_curves(F, deg) if not F.is_square(d0.lc())]


@pytest.mark.parametrize("q,deg,count", [(3, 7, 300), (5, 5, 40), (7, 5, 40), (3, 9, 30)])
def test_pic_order_matches_odd_degree_divisor_count(q, deg, count):
    for d0 in sampled_curves(prime_field(q), deg, count, seed=800 + q):
        assert pic_order(d0) == odd_degree_pic_order(d0), str(d0)


@pytest.mark.parametrize("q,total", [(5, 1000), (7, 6174)])
def test_pic_order_even_genus_one_matches_point_count(q, total):
    # inert infinity: |Pic O| = 2 h, and at genus 1 h is the number of
    # rational points of the curve, all affine, as infinity is not rational
    curves = definite_curves(prime_field(q), 4)
    assert len(curves) == total
    for d0 in curves:
        assert pic_order(d0) == 2 * affine_point_count(d0), str(d0)


def test_pic_order_degree_two():
    # genus 0 with inert infinity: |Pic O| = 2
    for d0 in definite_curves(F5, 2):
        assert pic_order(d0) == 2


def test_comp_sweep_even_genus():
    # deg D = 4 is genus 1 with inert infinity: the proper class counts
    # check 2 |Pic O| = 4 h, and h against the Weil interval
    report = run_check("comp", SweepConfig(q=3, max_disc_degree=4))
    assert report.passed, report.violations[:3]
    # the constant discriminant and the square-free ones of degree 1..4
    assert report.instances_checked == 103


def test_comp_sequence_even_degree_conductor():
    # |Pic B| from the conductor sequence over a genus-1 and a genus-2 D0
    # with inert infinity, against the proper classes of f^2 D0
    F3 = prime_field(3)
    t = F3.t
    for d0 in definite_curves(F3, 4)[:6] + definite_curves(F3, 6)[:2]:
        for f in (t, t + 1, t * t + 1):
            if (d0 * f * f).degree > 8:
                continue
            report = comp_sequence_check(d0 * f * f)
            assert report.passed, (str(d0), str(f))


@pytest.mark.parametrize("q,deg", [(3, 5), (5, 3)])
def test_comp_sequence_conductor_from_sieve(monkeypatch, q, deg):
    # comp_sequence_check reads the conductor's places off the sieve of D,
    # not by factoring it; the order equals the factored conductor formula
    F = prime_field(q)
    expected = {}
    for d in canonical_discs(F, deg):
        f0, g = F.one, F.one
        for p, e in factor(d)[1]:
            f0 = f0 * p if e % 2 else f0
            g = g * p ** (e // 2)
        expected[d] = pic_order_with_conductor(F.constant(d.lc()) * f0, g)

    def refuse(*args):
        raise AssertionError("comp_sequence_check factored a polynomial")

    monkeypatch.setattr(fqforms.picard, "factor", refuse)
    for d, order in expected.items():
        assert comp_sequence_check(d).pic_order == order, str(d)
    assert any(e > 1 for d in expected for _, e in factor(d)[1])


def test_pic_order_budget():
    t = F13.t
    # genus 10: the scan would visit the 13^10 monic polynomials of degree 10
    with pytest.raises(BudgetError):
        pic_order(t**21 + t + 3)


def test_euler_series_checks_the_budget_first(monkeypatch):
    # with q^g over the budget, the series refuses before it reads a count:
    # on the reciprocity path no place is sieved and no `_jacobi` taken, and
    # on the batch path `_comp_report` refuses a table it could have read
    def refuse(*args):
        raise AssertionError("counted places over the budget")

    F3 = prime_field(3)
    d0 = F3.t**5 + F3.t**2 + 1  # genus 2, square-free: (t + 2) times a quartic
    monkeypatch.setattr(fqforms.picard, "DEFAULT_BUDGET", 8)  # 3^2 = 9 > 8
    table = fqforms.classify.class_table(F3, d0, primitive_only=True)
    monkeypatch.setattr(fqforms.picard, "_places", refuse)
    monkeypatch.setattr(fqforms.picard, "_jacobi", refuse)
    with pytest.raises(BudgetError):
        pic_order(d0)
    with pytest.raises(BudgetError):
        fqforms.picard._comp_report(table)
    monkeypatch.setattr(fqforms.picard, "DEFAULT_BUDGET", 9)
    assert fqforms.picard._comp_report(table).passed


def series_order(q, degree, counts):
    """|Pic O| of one square-free definite d0 of `degree` >= 1 and genus g
    from `counts`, per k = 1 .. g the numbers (inert, ramified, split) of
    places of degree k where d0 is a non-square, zero or a nonzero square:
    the scalar Euler series, one d0 at a time, with `math.comb`, as
    `pic_order` ran it before the series ran over a batch."""
    genus = (degree - 1) // 2
    series = [1] + [0] * genus  # coefficients of T^0 .. T^g: Z_O, then L
    for k, (inert, ramified, split) in enumerate(counts, 1):
        for step, power in ((k, 2 * split + ramified), (2 * k, inert)):
            for n in range(genus, step - 1, -1):  # times 1/(1 - T^step)^power
                for j in range(1, n // step + 1):
                    series[n] += math.comb(power + j - 1, j) * series[n - j * step]
    for root in (1, q):  # times (1 - root T), descending
        for n in range(genus, 0, -1):
            series[n] -= root * series[n - 1]
    e = 2 - degree % 2
    for n in range(e, genus + 1):  # over (1 - T^e), ascending
        series[n] += series[n - e]
    h = sum(series) + sum(q ** (genus - i) * c for i, c in enumerate(series[:genus]))
    return e * h


def batch_series_orders(q, m, counts):
    """`_series_orders` over the (discs, g, 3) `counts` of a batch, as
    `picard._bridge_orders` runs it."""
    return fqforms.picard._series_orders(q, m, counts.astype(object).transpose(1, 2, 0))


@pytest.mark.parametrize("q,top", [(3, 6), (5, 5), (7, 4)])
def test_batch_pic_orders_match_reciprocity(q, top):
    # every square-free canonical D of degree 1 .. top, from the sieve of
    # the comp sweep, in the batches that the sweep cuts: |Pic O| from one
    # series over the place counts of each batch (norms at places of
    # degree 2, genus 2) against the scalar series per D and `pic_order`,
    # which counts places by reciprocity
    F = prime_field(q)
    sieved = list(fqforms.verify._square_free_discs(F, top, DEFAULT_BUDGET))
    assert [m for m, _ in sieved] == list(range(top + 1))
    discs = [F.poly(row) for _, coeffs in sieved for row in coeffs.tolist()]
    assert discs == [d for d in canonical_discs(F, top) if is_squarefree(d)]
    batches = 0
    for m, coeffs in sieved[1:]:
        size = max(1, fqforms.classify.BATCH_VALUES // fqforms.classify._disc_values(q, m))
        got = []
        for start in range(0, len(coeffs), size):
            rows = coeffs[start : start + size]
            residues, _, _ = fqforms.classify._sieve(F, rows)
            counts = fqforms.classify._place_counts(F, rows, residues)
            # below genus 1 the series reads no count: |Pic O| = e for all
            orders = np.broadcast_to(batch_series_orders(q, m, counts), len(rows)).tolist()
            assert orders == [series_order(q, m, c) for c in counts.tolist()], m
            got += orders
            batches += 1
        assert got == [pic_order(d) for d in discs if d.degree == m], m
    assert batches > top


def place_numbers(q, genus):
    """The number of monic irreducibles of each degree k = 1 .. genus over
    F_q, by Moebius inversion of q^k = sum over d | k of d N_d."""
    numbers = []
    for k in range(1, genus + 1):
        proper = sum(d * numbers[d - 1] for d in range(1, k) if k % d == 0)
        numbers.append((q**k - proper) // k)
    return numbers


@pytest.mark.parametrize("q,genus", [(3, 16), (7, 9), (101, 3)])
def test_batch_series_exact_at_budget_edge(q, genus):
    # q^g within the default budget and q^(g + 1) over it: random splits of
    # the places of each degree into (inert, ramified, split), and the row
    # where every place splits, which has the largest Z_O, a batch of them
    # at both degrees of that genus against the scalar series; the batch
    # runs on Python ints, so nothing can wrap
    assert q**genus <= DEFAULT_BUDGET < q ** (genus + 1)
    rng = random.Random(q * 100 + genus)
    counts = [[[0, 0, n] for n in place_numbers(q, genus)]]
    for _ in range(24):
        row = []
        for places in place_numbers(q, genus):
            cuts = sorted(rng.randint(0, places) for _ in range(2))
            row.append([cuts[0], cuts[1] - cuts[0], places - cuts[1]])
        counts.append(row)
    for degree in (2 * genus + 1, 2 * genus + 2):
        got = batch_series_orders(q, degree, np.array(counts, dtype=np.int64))
        assert got.dtype == object and all(type(h) is int for h in got)
        assert got.tolist() == [series_order(q, degree, row) for row in counts]


def test_weil_interval_exact():
    # genus 1: Hasse, q + 1 +- floor(2 sqrt(q))
    assert weil_interval(13, 1) == (7, 21)
    assert weil_interval(9, 1) == (4, 16)  # (sqrt 9 -+ 1)^2, endpoints included
    assert weil_interval(9, 2) == (16, 256)
    assert weil_interval(5, 0) == (1, 1)
    for q in (3, 5, 7, 11, 13):
        for g in range(1, 5):
            lo, hi = weil_interval(q, g)
            # the float bounds are irrational, so the integers sit strictly inside
            assert lo - 1 < (q**0.5 - 1) ** (2 * g) < lo
            assert hi < (q**0.5 + 1) ** (2 * g) < hi + 1


def test_comp_sweep_reads_genera_off_batch_characters(monkeypatch):
    # genera come from the batch characters (norms at the small places,
    # reciprocity at the large one), not class by class, and |Pic O| from
    # the place counts of the batch; `comp` builds no table with a square
    # factor, so no class is left to `_jacobi`, no solution to the content
    # filter and no place to strip
    def refuse(*args):
        raise AssertionError("the comp sweep called a per-disc path")

    for module, name in [
        (fqforms.classify, "_jacobi"),
        (fqforms.classify, "_primitive_solutions"),
        (fqforms.classify, "strip_valuation"),
        (fqforms.picard, "_jacobi"),
        (fqforms.picard, "_reciprocity_counts"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    report = run_check("comp", SweepConfig(q=7, max_disc_degree=3))
    assert report.passed
    assert report.instances_checked == 645


def test_comp_sweep_never_builds_group_structure(monkeypatch):
    # the sweep reads only |Pic|, which the Euler product gives
    def refuse(*args):
        raise AssertionError("comp must not build the Picard group")

    monkeypatch.setattr(fqforms.picard, "pic_group", refuse)
    monkeypatch.setattr(fqforms.picard, "cantor_add", refuse)
    report = run_check("comp", SweepConfig(q=3, max_disc_degree=3))
    assert report.passed
    assert report.instances_checked > 0


def test_comp_sweep_flags_order_outside_weil_interval(monkeypatch):
    # the sweep takes its orders from the Euler series of `pic_order`, one
    # pass per batch
    true_orders = fqforms.picard._series_orders
    monkeypatch.setattr(
        fqforms.picard,
        "_series_orders",
        lambda q, degree, counts: 10 * true_orders(q, degree, counts),
    )
    report = run_check("comp", SweepConfig(q=3, max_disc_degree=3))
    weil = [v for v in report.violations if "weil_interval" in str(v.expected)]
    # 10 h is above (sqrt(3) + 1)^(2g) for g = 0 and 1, at odd and even degree
    squarefree = [
        d
        for d in canonical_discs(prime_field(3), 3)
        if d.degree >= 1 and is_squarefree(d)
    ]
    assert [v.witness["disc"] for v in weil] == [str(d) for d in squarefree]
    for v in weil:
        assert v.observed["h"] > v.expected["weil_interval"][1]
