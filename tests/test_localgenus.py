import itertools
import random

import numpy as np
import pytest

from fqforms.errors import BudgetError
from fqforms.ffpoly import factor, is_irreducible, prime_field, residue_char
from fqforms.ffpoly import strip_valuation
from fqforms.localgenus import (
    INFINITY,
    _check_finite_place,
    _hasse_at_infinity,
    hasse_invariant,
    hilbert_symbol,
    jordan_invariants,
    local_represents,
    represented_at_infinity,
    same_genus,
)
from fqforms.qform import Form
from fqforms.repset import _Grid
from tests.test_qform import rand_definite_reduced, rand_gl2
from tests.test_repset import rand_symmetric_form, ternary_family_form

F5 = prime_field(5)
F13 = prime_field(13)


def square_class_at_infinity(f):
    """The square class of f in K_inf = F_q((1/t)): None for f = 0, else
    (deg f mod 2, chi(lc f)), since f / (lc f t^deg f) is a 1-unit and
    1-units are squares (q odd)."""
    if f.is_zero():
        return None
    return (f.degree % 2, f.field.char(f.lc()))


def rand_poly(field, max_deg, rng):
    while True:
        f = field.poly([rng.randrange(field.q) for _ in range(max_deg + 1)])
        if not f.is_zero():
            return f


def test_hilbert_symbol_tame_examples():
    t = F5.t
    # (t, t) at place t: chi(-1) = +1 since -1 = 4 is a square mod 5
    assert hilbert_symbol(t, t, t) == 1
    # both units at the place
    assert hilbert_symbol(t + 1, F5.constant(3), t) == 1
    # (t, delta) at t: chi(delta) = -1
    assert hilbert_symbol(t, F5.constant(F5.delta), t) == -1
    with pytest.raises(ValueError):
        hilbert_symbol(F5.zero, t, t)
    with pytest.raises(ValueError):
        hilbert_symbol(t, t, t * t)


def test_hilbert_symbol_symmetry_and_bilinearity():
    rng = random.Random(41)
    t = F5.t
    places = [t, t + 1, F5.t**2 + 2, INFINITY]
    for _ in range(150):
        f = rand_poly(F5, 3, rng)
        g = rand_poly(F5, 3, rng)
        h = rand_poly(F5, 3, rng)
        for v in places:
            assert hilbert_symbol(f, g, v) == hilbert_symbol(g, f, v)
            assert hilbert_symbol(f, g * h, v) == hilbert_symbol(
                f, g, v
            ) * hilbert_symbol(f, h, v)


def all_places_of(f, g):
    seen = {}
    for poly in (f, g):
        for p, _ in factor(poly)[1]:
            seen[p.key()] = p
    return list(seen.values()) + [INFINITY]


def test_hilbert_reciprocity():
    # product over all places = +1, 1000 random pairs per q in {5, 13}
    for q in (5, 13):
        F = prime_field(q)
        rng = random.Random(43 + q)
        for _ in range(1000):
            f = rand_poly(F, 3, rng)
            g = rand_poly(F, 3, rng)
            prod = 1
            for v in all_places_of(f, g):
                prod *= hilbert_symbol(f, g, v)
            assert prod == 1


def test_hasse_invariant_trivial_and_stable():
    d5 = F5.constant(F5.delta)
    q = Form.binary(F5.one, F5.zero, -d5)
    assert hasse_invariant(q, INFINITY) == 1
    # invariance under equivalence (diagonalizations differ)
    rng = random.Random(47)
    t = F5.t
    places = [t, t + 2, INFINITY]
    for _ in range(40):
        form = rand_definite_reduced(F5, rng, max_mu2=2)
        u = rand_gl2(F5, rng)
        for v in places:
            assert hasse_invariant(form, v) == hasse_invariant(u.apply(form), v)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_hasse_at_infinity_matches_diagonalization(q):
    # binary forms of any shape: definite or not, reduced or not, a = 0
    # (the diagonalization path) included; and non-diagonal ternary forms
    F = prime_field(q)
    rng = random.Random(q)
    seen_zero_a = 0
    for _ in range(300):
        a, b, c = (
            F.poly([rng.randrange(q) for _ in range(rng.randrange(5))]) for _ in range(3)
        )
        if (b * b - a * c).is_zero():
            continue
        form = Form.binary(a, b, c)
        seen_zero_a += a.is_zero()
        d = form.discriminant()
        assert _hasse_at_infinity(form, d) == hasse_invariant(form, INFINITY)
    assert seen_zero_a
    for _ in range(20):
        form = rand_symmetric_form(F, 3, rng)
        d = form.discriminant()
        assert _hasse_at_infinity(form, d) == hasse_invariant(form, INFINITY)


@pytest.mark.parametrize("q,top", [(3, 5), (7, 3)])
def test_hasse_at_infinity_closed_form_on_class_representatives(q, top):
    # the closed form against the symbol of the diagonal <a, -a D> itself
    from fqforms.classify import canonical_discs, class_table

    F = prime_field(q)
    for disc in canonical_discs(F, top):
        for rep in class_table(F, disc).class_representatives:
            a = rep.gram[0][0]
            expected = hilbert_symbol(a, -(a * disc), INFINITY)
            assert _hasse_at_infinity(rep, disc) == expected, (str(disc), str(a))


def test_jordan_invariants_examples():
    d5 = F5.constant(F5.delta)
    t = F5.t
    q = Form.binary(F5.one, F5.zero, -d5)
    ji = jordan_invariants(q, t)
    assert ji.blocks == ((0, 2, residue_char(-d5, t)),)
    # (t, 0, -delta(t+1)) at t: scale-0 unit -delta(t+1) -> char chi(-delta);
    # scale-1 unit 1 -> +1
    q2 = Form.binary(t, F5.zero, -d5 * (t + 1))
    ji2 = jordan_invariants(q2, t)
    chi = residue_char(-d5, t)
    assert ji2.blocks == ((0, 1, chi), (1, 1, 1))
    assert chi == -1  # chi(-1)chi(delta) = 1 * -1
    # scaling by p shifts every scale
    q3 = Form.binary(t * t, F5.zero, -d5 * (t + 1) * t)
    ji3 = jordan_invariants(q3, t)
    assert ji3.blocks == ((1, 1, chi), (2, 1, 1))


def test_jordan_invariants_off_diagonal_minimum():
    # zero diagonal at p forces the row/column addition path
    t = F5.t
    q = Form.binary(t, F5.one, t)
    ji = jordan_invariants(q, t)
    assert sum(b[1] for b in ji.blocks) == 2


def test_jordan_scales_sum_to_disc_valuation_non_primitive():
    # the scales of the blocks add up to v_p(D), also for forms with content
    from fqforms.classify import canonical_discs, enumerate_forms

    F3 = prime_field(3)
    t = F3.t
    # (t+1) ((t+1), 2, t): v_p(b) = v_p(c) = 1 at p = t+1, a + 2b + c = 0
    # mod p^2; the unit determinant -4 of the primitive part is a non-square
    q = Form.binary(t**2 + 2 * t + 1, 2 * t + 2, t**2 + t)
    assert jordan_invariants(q, t + 1).blocks == ((1, 2, -1),)
    checked = 0
    for d in canonical_discs(F3, 4):
        for p, v in factor(d)[1]:
            for form in enumerate_forms(F3, d, False):
                blocks = jordan_invariants(form, p).blocks
                assert sum(s * r for s, r, _ in blocks) == v
                assert sum(r for _, r, _ in blocks) == 2
                checked += 1
    assert checked > 1000


def test_jordan_equivalence_invariant():
    rng = random.Random(53)
    t5 = F5.t
    for _ in range(60):
        q = rand_definite_reduced(F5, rng, max_mu2=3)
        u = rand_gl2(F5, rng)
        d = q.discriminant()
        for p, _ in factor(d)[1]:
            assert jordan_invariants(q, p) == jordan_invariants(u.apply(q), p)


def test_same_genus_reflexive_and_class_invariant():
    rng = random.Random(59)
    for _ in range(25):
        q = rand_definite_reduced(F5, rng, max_mu2=2)
        assert same_genus(q, q)
        v = rand_gl2(F5, rng, proper=True)
        assert same_genus(q, v.apply(q))


def test_same_genus_distinct_disc():
    t = F5.t
    assert not same_genus(
        Form.binary(F5.one, F5.zero, -t), Form.binary(F5.one, F5.zero, -2 * t)
    )


def test_local_represents_unimodular_rank3_units():
    # unimodular rank >= 3 at p represents every unit
    q = ternary_family_form(F5, 1)
    p = F5.t + 3  # does not divide disc = delta t (t+1)
    for c in range(1, 5):
        assert local_represents(q, F5.constant(c), p)


def test_local_represents_global_witness():
    rng = random.Random(61)
    t = F5.t
    for _ in range(20):
        q = rand_definite_reduced(F5, rng, max_mu2=2)
        vec = (rand_poly(F5, 1, rng), rand_poly(F5, 1, rng))
        val = q.value(vec)
        if val.is_zero():
            continue
        for p, _ in factor(q.discriminant())[1]:
            assert local_represents(q, val, p)
        assert local_represents(q, val, t + 3)


def test_local_represents_family_regression():
    # computed once and frozen: Q_1 = X^2 + tY^2 - delta(t+1)Z^2 over F_5
    q = ternary_family_form(F5, 1)
    t = F5.t
    d = F5.constant(F5.delta)
    assert local_represents(q, d, t) is True
    # t*delta is not represented at t: residue form <1, -delta> is
    # anisotropic and the descent lands on <t> with chi(delta) = -1
    assert local_represents(q, d * t, t) is False


def local_represents_search(form, f, p, budget=300_000):
    """Direct decision by search modulo p^(2N+1), N = v_p(disc) + v_p(f) + 1.

    Accepts iff some x has Q(x) = f mod p^(2N+1) with gradient valuation
    <= N (a Hensel-liftable approximate solution).  Exponential in deg p
    and N; the cross-check oracle of `local_represents` on small instances.
    At the place t the vector grid is evaluated with the repset machinery.
    """
    _check_finite_place(p)
    F = form.field
    if f.is_zero():
        return True
    disc_val, _ = strip_valuation(form.discriminant(), p)
    fval, _ = strip_valuation(f, p)
    cap = disc_val + fval + 1
    residue_count = F.q ** (p.degree * (2 * cap + 1))
    if residue_count**form.n > budget:
        raise BudgetError(
            f"local search needs {residue_count**form.n} vectors (budget {budget})"
        )
    if p.degree == 1:
        if p != F.t:
            form, f = _shift_to_origin(form, f, p)
        return _search_at_t(form, f, cap)
    return _search_generic(form, f, p, cap)


def _shift_to_origin(form, f, p):
    """Apply the automorphism t -> t + r that maps the place p = t - r to t."""
    F = f.field
    arg = F.t + F.poly((F.neg(p.coeffs[0]),))

    def sub(g):
        acc = F.zero
        for c in reversed(g.coeffs):
            acc = acc * arg + c
        return acc

    return Form(tuple(tuple(sub(e) for e in row) for row in form.gram)), sub(f)


def _grad_valuation(form, vec, p, top):
    vals = []
    for i in range(form.n):
        acc = form.field.zero
        for j in range(form.n):
            acc = acc + 2 * form.gram[i][j] * vec[j]
        acc = acc % p**top
        vals.append(top if acc.is_zero() else strip_valuation(acc, p)[0])
    return min(vals)


def _search_generic(form, f, p, cap):
    F = form.field
    modulus = p ** (2 * cap + 1)
    residues = [F.poly_from_key(k) for k in range(F.q ** (p.degree * (2 * cap + 1)))]
    for vec in itertools.product(residues, repeat=form.n):
        if (form.value(vec) - f) % modulus:
            continue
        if _grad_valuation(form, vec, p, 2 * cap + 1) <= cap:
            return True
    return False


def _search_at_t(form, f, cap):
    F = form.field
    q = F.q
    length = 2 * cap + 1
    modkey = q**length
    target = f.key() % modkey
    grid = _Grid(form, (length - 1,) * form.n, budget=float("inf"))
    t = F.t
    for tail in grid.tails():
        keys = grid.keys_for_tail(tail) % modkey
        for ix, iy in np.argwhere(keys == target):
            vec = [F.poly_from_key(int(ix)), F.poly_from_key(int(iy))] + [
                F.poly_from_key(z) for z in tail
            ]
            if _grad_valuation(form, vec, t, length) <= cap:
                return True
    return False


def test_local_represents_matches_search_binary():
    rng = random.Random(67)
    t = F5.t
    places = [t, t + 1]
    checked = 0
    while checked < 40:
        q = rand_definite_reduced(F5, rng, max_mu2=2)
        f = rand_poly(F5, 2, rng)
        p = places[rng.randrange(2)]
        disc_val = 0
        dd = q.discriminant()
        while (dd % p).is_zero():
            dd = dd // p
            disc_val += 1
        fval = 0
        ff = f
        while (ff % p).is_zero():
            ff = ff // p
            fval += 1
        if disc_val + fval + 1 > 1:
            continue  # keep the search within budget
        assert local_represents(q, f, p) == local_represents_search(q, f, p)
        checked += 1


def test_local_represents_matches_search_higher_valuation():
    # binary cases with v_t(disc) = 1 and unit targets: N = 2, grid 5^10
    t = F5.t
    d = F5.constant(F5.delta)
    cases = [
        Form.binary(F5.one, F5.zero, -d * t),
        Form.binary(t, F5.one, -d * (t + 1) + 2),
    ]
    targets = [F5.one, d, F5.poly([1, 1]), F5.poly([2, 2, 2])]
    for q in cases:
        for f in targets:
            got = local_represents(q, f, t)
            want = local_represents_search(q, f, t, budget=2 * 10**7)
            assert got == want, (q, str(f), got, want)


def test_local_represents_matches_search_ternary_good_place():
    # rank 3 at a place away from the discriminant: N = 1, grid 5^9
    q = ternary_family_form(F5, 1)
    p = F5.t + 3
    targets = [F5.one, F5.constant(F5.delta), F5.t, F5.t + 1]
    for f in targets:
        got = local_represents(q, f, p)
        want = local_represents_search(q, f, p, budget=2 * 10**7)
        assert got == want, (str(f), got, want)


def test_local_search_budget():
    q = ternary_family_form(F5, 1)
    with pytest.raises(Exception):
        local_represents_search(q, F5.t**4, F5.t, budget=100)


def test_is_irreducible_guard():
    t = F5.t
    q = Form.binary(F5.one, F5.zero, -t)
    with pytest.raises(ValueError):
        jordan_invariants(q, t * t)
    assert is_irreducible(t)


def infinity_answers_by_class(form, max_deg):
    """Square class at infinity -> the set of answers of
    represented_at_infinity over every f of degree <= max_deg."""
    F = form.field
    answers = {}
    for key in range(F.q ** (max_deg + 1)):
        f = F.poly_from_key(key)
        cls = square_class_at_infinity(f)
        answers.setdefault(cls, set()).add(represented_at_infinity(form, f))
    return answers


@pytest.mark.parametrize("q", [3, 5, 7])
def test_represented_at_infinity_constant_on_square_classes_family(q):
    # exhaustive for deg f <= 4; family members with equal a^2 are one form
    F = prime_field(q)
    forms = {F.mul(a, a): ternary_family_form(F, a) for a in range(1, q)}
    for form in forms.values():
        answers = infinity_answers_by_class(form, 4)
        assert len(answers) == 5  # f = 0 and (deg f mod 2, chi(lc f))
        assert all(len(seen) == 1 for seen in answers.values()), answers
        assert answers[None] == {True}
        # the infinite place excludes a square class
        assert {False} in answers.values()


def test_represented_at_infinity_constant_on_square_classes_seeded():
    # every f of degree <= 3 at q = 5 and <= 2 at q = 7
    rng = random.Random(53)
    for F, max_deg in ((F5, 3), (prime_field(7), 2)):
        forms = [rand_definite_reduced(F, rng, max_mu2=3) for _ in range(3)]
        while len(forms) < 6:
            form = rand_symmetric_form(F, 3, rng, max_deg=rng.randrange(0, 3))
            if form.is_definite():
                forms.append(form)
        for form in forms:
            answers = infinity_answers_by_class(form, max_deg)
            assert len(answers) == 5
            assert all(len(seen) == 1 for seen in answers.values()), (form, answers)
