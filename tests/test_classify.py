import random

import pytest

from fqforms.classify import (
    canonical_disc_at,
    canonical_disc_count,
    canonical_discs,
    class_number,
    class_table,
    cn1_prediction,
    enumerate_forms,
    irreducible_factor_count,
    is_definite_disc,
)
from fqforms.ffpoly import SquareClass, poly_from_string, prime_field
from fqforms.qform import (
    Form,
    Transformation,
    equivalent,
    properly_equivalent,
    successive_minima,
)
from tests.test_classify_oracles import field_sqrt, form_key
from tests.test_qform import rand_definite_reduced, rand_gl2, remark_form

F5 = prime_field(5)
F13 = prime_field(13)
F17 = prime_field(17)


def proper_class_count(field, disc, primitive_only=True):
    """|G_D|: the number of proper classes of discriminant exactly `disc`."""
    return sum(class_table(field, disc, primitive_only).proper_counts)


def canonical_disc(d):
    """The square-class representative with leading coefficient 1 or delta."""
    return SquareClass(d).rep


def rescale_to_canonical_disc(form):
    """An equivalent-by-variable-scaling form whose disc is canonical.

    Returns (form', scale u) with form' = form o diag(1, u); its disc is
    u^2 disc(form), the canonical square-class representative.
    """
    F = form.field
    d = form.discriminant()
    lead = d.lc()
    target = canonical_disc(d)
    ratio = F.mul(target.lc(), F.inv(lead))  # u^2
    u = field_sqrt(F, ratio)
    scale = Transformation.from_scalars(F, [[1, 0], [0, u]])
    return scale.apply(form), u


def cn1_classification(form):
    """(prediction, observed class number); prediction is None for q <= 13.

    The criterion: deg D <= 1, or deg D = 2 with mu_1 = 1, or deg D = 2
    with mu_1 = 0 and D reducible.
    """
    observed = class_number(form)
    if form.field.q <= 13:
        return None, observed
    return cn1_prediction(form), observed


def test_is_definite_disc():
    t = F5.t
    assert is_definite_disc(t)
    assert is_definite_disc(F5.constant(F5.delta))
    assert not is_definite_disc(F5.one)
    assert not is_definite_disc(t * t)
    assert is_definite_disc(F5.constant(F5.delta) * t * t)


def test_enumerate_forms_constant_disc():
    d = F5.constant(F5.delta)
    forms = enumerate_forms(F5, d)
    coeffs = {(f.gram[0][0].key(), f.gram[1][1].key()) for f in forms}
    # forms (u, 0, -delta/u) for u in F_5^x
    expected = set()
    for u in range(1, 5):
        expected.add((u, F5.mul(F5.neg(F5.delta), F5.inv(u))))
    assert coeffs == expected
    table = class_table(F5, d)
    assert len(table.classes) == 1
    # all four forms are properly equivalent: explicit determinant-1
    # witnesses exist, e.g. (x, y) -> (2x+y, x+y) carries (1,0,3) to (2,0,4);
    # the unit norm F_25 -> F_5 is onto, so no square-class obstruction
    assert len(table.proper_classes) == 1
    u = Form.binary(F5.constant(2), F5.zero, F5.constant(4))
    w = properly_equivalent(table.forms[0], u)
    assert w is not None and w.det == 1


def test_enumerate_forms_every_entry_valid():
    rng = random.Random(71)
    for _ in range(10):
        d = canonical_discs(F5, 3)[rng.randrange(len(canonical_discs(F5, 3)))]
        for f in enumerate_forms(F5, d):
            assert f.discriminant() == d
            assert f.is_reduced()
            assert f.is_definite()


def test_enumerate_forms_deterministic():
    t = F13.t
    d = t**3 - t
    once = [form_key(f) for f in enumerate_forms(F13, d)]
    again = [form_key(f) for f in enumerate_forms(F13, d)]
    assert once == again


def test_remark_table_f13():
    t = F13.t
    d = t**3 - t
    table = class_table(F13, d, primitive_only=True)
    q0 = remark_form()
    assert q0 in table.forms
    assert len(table.proper_classes) == 16
    assert len(table.classes) == 12
    assert len(table.genera) == 8
    # every genus has the same number of proper classes
    assert set(table.proper_counts_per_genus()) == {2}
    # the genus of the explicit order-4 form has a single class
    assert class_number(q0) == 1
    # classes refine genera, proper classes refine classes
    all_in_genera = sorted(ci for g in table.genera for ci in g)
    assert all_in_genera == list(range(len(table.classes)))
    for pcls in table.proper_classes:
        assert any(set(pcls) <= set(cls) for cls in table.classes)
    assert len(table.proper_classes) <= 2 * len(table.classes)


def test_class_partition_matches_pairwise_equivalence():
    rng = random.Random(73)
    ds = [d for d in canonical_discs(F5, 2) if d.degree == 2]
    for d in rng.sample(ds, 4):
        table = class_table(F5, d)
        reps = table.class_representatives
        for i in range(len(reps)):
            for j in range(len(reps)):
                w = equivalent(reps[i], reps[j])
                assert (w is not None) == (i == j)
        # forms within a class really are equivalent
        for cls in table.classes:
            for idx in cls[1:]:
                assert equivalent(table.forms[cls[0]], table.forms[idx]) is not None
        for pcls in table.proper_classes:
            for idx in pcls[1:]:
                assert (
                    properly_equivalent(table.forms[pcls[0]], table.forms[idx])
                    is not None
                )


def test_proper_refines_improper_split():
    # proper classes pair up inside classes; witnesses of both dets exist
    t = F13.t
    table = class_table(F13, t**3 - t, primitive_only=True)
    for cls in table.classes:
        containing = [p for p in table.proper_classes if set(p) <= set(cls)]
        assert len(containing) in (1, 2)
        assert sorted(x for p in containing for x in p) == cls


def test_genus_count_power_of_two_squarefree():
    from fqforms.ffpoly import is_squarefree

    rng = random.Random(79)
    candidates = [d for d in canonical_discs(F5, 3) if d.degree >= 1]
    tested = 0
    for d in rng.sample(candidates, 30):
        if not is_squarefree(d):
            continue
        table = class_table(F5, d, primitive_only=True)
        r = irreducible_factor_count(d)
        assert len(table.genera) == 2**r, str(d)
        tested += 1
    assert tested >= 15


def test_low_degree_every_genus_single_class():
    # deg D <= 1: one class per genus
    for d in canonical_discs(F5, 1):
        table = class_table(F5, d, primitive_only=True)
        for genus in table.genera:
            assert len(genus) == 1


def test_scaling_representative_completeness():
    rng = random.Random(83)
    for _ in range(15):
        q = rand_definite_reduced(F5, rng, max_mu2=2)
        u = rand_gl2(F5, rng)
        moved = u.apply(q)
        scaled, _ = rescale_to_canonical_disc(moved)
        d = scaled.discriminant()
        assert d == canonical_disc(moved.discriminant())
        table = class_table(F5, d)
        table.class_index_of(scaled)  # raises if missing


@pytest.mark.parametrize("q", [3, 5, 7, 13])
def test_field_sqrt_matches_scan(q):
    # the table lookup against the scan it replaced: the smallest root
    F = prime_field(q)
    for a in range(q):
        roots = [r for r in range(1, q) if F.mul(r, r) == a]
        if roots:
            assert field_sqrt(F, a) == roots[0]
        else:
            with pytest.raises(ValueError):
                field_sqrt(F, a)


def test_class_number_constant_disc():
    d5 = F5.constant(F5.delta)
    q = Form.binary(F5.one, F5.zero, -d5)
    assert class_number(q) == 1
    assert proper_class_count(F5, d5) == 1


def test_cn1_classification_q17():
    t = F17.t
    # deg D = 1: predicted and observed class number one
    q = Form.binary(F17.one, F17.zero, -t)
    pred, observed = cn1_classification(q)
    assert pred is True and observed == 1
    # deg D = 2, mu1 = 0, D irreducible: predicted false, h >= 2
    from fqforms.ffpoly import is_irreducible

    base = t * t - F17.constant(F17.delta)
    d = F17.constant(F17.delta) * base
    assert is_irreducible(base)
    q2 = Form.binary(F17.one, F17.zero, -d)
    assert successive_minima(q2)[0] == 0
    pred2, observed2 = cn1_classification(q2)
    assert pred2 is False and observed2 >= 2
    # deg D = 2, mu1 = 1: predicted true
    q3 = Form.binary(t, F17.one, -(t + F17.constant(3)))
    if q3.is_definite():
        pred3, observed3 = cn1_classification(q3)
        assert pred3 is True and observed3 == 1


def test_cn1_not_applicable_below_threshold():
    pred, observed = cn1_classification(remark_form())
    assert pred is None and observed == 1


def test_canonical_discs_shape():
    ds = canonical_discs(F5, 2)
    assert all(is_definite_disc(d) for d in ds)
    assert all(d.lc() in (1, F5.delta) for d in ds)
    degree2 = [d for d in ds if d.degree == 2]
    assert len(degree2) == 25  # delta lead only
    degree1 = [d for d in ds if d.degree == 1]
    assert len(degree1) == 10


@pytest.mark.parametrize("q", [3, 5])
def test_canonical_disc_at_matches_key_scan(q):
    # every polynomial of degree m led by 1 or delta (delta alone at even
    # m), in key order, is the list that the indices run through
    F = prime_field(q)
    for m in range(4):
        leads = (1, F.delta) if m % 2 else (F.delta,)
        scan = (F.poly_from_key(key) for key in range(q**m, q ** (m + 1)))
        want = [f for f in scan if f.lc() in leads]
        count = canonical_disc_count(F, m)
        assert [canonical_disc_at(F, m, i) for i in range(count)] == want
        assert canonical_discs(F, m)[-count:] == want


def test_remark_form_string_parse():
    q = remark_form()
    assert q == Form.binary(
        poly_from_string(F13, "t+8"),
        poly_from_string(F13, "4"),
        poly_from_string(F13, "12*t^2+8*t+2"),
    )
