import random

import pytest

from fqforms.errors import CapabilityError
from fqforms.ffpoly import prime_field
from fqforms.picard import (
    AbelianStructure,
    MumfordDivisor,
    affine_point_count,
    cantor_add,
    comp_sequence_check,
    divisor_identity,
    divisor_negate,
    divisor_order,
    enumerate_reduced_divisors,
    pic_group,
    pic_order_with_conductor,
)

F5 = prime_field(5)
F13 = prime_field(13)


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
        from fqforms.ffpoly import squarefree_decompose

        f0, g, _ = squarefree_decompose(d0)
        if g.degree > 0:
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
    from fqforms.ffpoly import squarefree_decompose

    f0, g, _ = squarefree_decompose(d0)
    assert g.degree == 0
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
    with pytest.raises(ValueError):
        pic_group(t * t)  # even degree
    with pytest.raises(ValueError):
        pic_group(t * t * (t + 1))  # not square-free
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
