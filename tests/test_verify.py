import hashlib
import json
import random
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from fqforms import verify
from fqforms.classify import class_table, class_tables
from fqforms.errors import BudgetError
from fqforms.ffpoly import Poly, SquareClass, is_squarefree, prime_field, residue_char
from fqforms.ffpoly import strip_valuation
from fqforms.localgenus import LocalRepDecider, represented_at_infinity
from fqforms.qform import Form, successive_minima
from fqforms.repset import RepSet, _coeff_rows, repset_upto
from fqforms.verify import (
    Inventory,
    _finish,
    _infinity_classes,
    _leading_coeffs_matchable,
    _linear_place_classes,
    _splitmix64,
    SweepConfig,
    SweepData,
    Violation,
    count_quadric_intersection,
    run_check,
    smooth_discriminant_identity,
    sweep_data,
    ternary_family_check,
    ternary_family_form,
    verify_disc_recovery,
    verify_equiv_theorems,
    verify_minima_recovery,
)
from tests.canonical import canonical_discs
from tests.test_classify_oracles import discs_of_degree
from tests.test_localgenus import square_class_at_infinity
from tests.test_qform import reduced_images


DATA = Path(__file__).parent / "data"


def small_cfg(q=5, max_deg=2, **kw):
    return SweepConfig(q=q, max_disc_degree=max_deg, **kw)


def test_minima_recovery_small():
    r = verify_minima_recovery(small_cfg())
    assert r.passed
    assert r.instances_checked > 0
    assert r.stats["classes"] > 10


def test_leading_coeffs_matchable():
    # over F_5 the reduced images of (1, 0, t) are (u^2, 0, v^2 t): both
    # diagonal leading coefficients are squares, and 2 is not a square
    F = prime_field(5)
    t = F.t
    base = Form.binary(F.one, F.zero, t)
    assert _leading_coeffs_matchable(Form.binary(F.constant(4), F.zero, t), base)
    assert not _leading_coeffs_matchable(Form.binary(F.one, F.zero, 2 * t), base)
    assert not _leading_coeffs_matchable(Form.binary(F.constant(2), F.zero, t), base)


def reachable_leads(rep):
    """The (lc a', lc c') of every reduced image of `rep` under GL_2(F_q),
    from the unit formula of `reduced_images`."""
    q = rep.field.q
    a, _, c = rep.binary_coeffs()
    _, (im_a, _, im_c) = reduced_images(rep, tuple(range(1, q)))
    return set(zip(im_a[:, a.degree].tolist(), im_c[:, c.degree].tolist()))


@pytest.mark.parametrize("q,deg", [(3, 4), (5, 3), (7, 2), (11, 2)])
def test_leading_coeffs_matchable_matches_reduced_images(q, deg):
    # the character test against the reduced images, on every ordered pair
    # of class representatives with equal minima
    F = prime_field(q)
    by_minima = {}
    for d in canonical_discs(F, deg):
        for rep in class_table(F, d, primitive_only=True).class_representatives:
            by_minima.setdefault(successive_minima(rep), []).append(rep)
    pairs = matches = 0
    for reps in by_minima.values():
        leads = [reachable_leads(rep) for rep in reps]
        for rep1 in reps:
            a1, _, c1 = rep1.binary_coeffs()
            for rep2, reached in zip(reps, leads):
                expected = (a1.lc(), c1.lc()) in reached
                assert _leading_coeffs_matchable(rep1, rep2) == expected
                pairs += 1
                matches += expected
    assert 0 < matches < pairs


def test_disc_recovery_small():
    r = verify_disc_recovery(small_cfg())
    assert r.passed


def test_equiv_theorems_small():
    r = verify_equiv_theorems(small_cfg())
    assert r.passed
    hist = r.stats["distinguishing_degree_histogram"]
    assert sum(hist.values()) > 0
    assert r.stats["undistinguished_pairs"] == 0


def test_equiv_theorems_q7():
    r = verify_equiv_theorems(small_cfg(q=7, max_deg=2))
    assert r.passed
    assert r.stats["undistinguished_pairs"] == 0


def test_expect_exceptions_mode_q3():
    # below the q > 3 hypothesis failures are recorded, not raised
    r = verify_equiv_theorems(small_cfg(q=3, max_deg=2))
    assert r.passed  # violations (if any) live in expected_exceptions
    assert isinstance(r.expected_exceptions, list)


def test_smooth_identity_three_fields():
    for q in (5, 13, 17):
        r = smooth_discriminant_identity(SweepConfig(q=q, samples=300, seed=7))
        assert r.passed, q
        # the resultant-based discriminant is a fixed multiple of the
        # closed-form invariant; the ratio is reported, never assumed
        assert len(r.stats["proportionality_ratios"]) == 1


def test_quadric_counts_hasse():
    r = run_check("quadric", SweepConfig(q=7, samples=60, seed=3))
    assert r.passed
    assert r.stats["max_count"] <= 7 + 1 + 5  # q + 1 + floor(2 sqrt q)
    demo = r.stats["singular_demo"]
    assert demo["count"] >= demo["at_least"]


def test_quadric_counts_q5_window_still_disjoint():
    # 2(q+1) = 12 exceeds q + 1 + 2 sqrt(q) ~ 10.47 even at q = 5
    r = run_check("quadric", SweepConfig(q=5, samples=60, seed=3))
    assert r.passed


def test_ternary_family_small_window():
    r = ternary_family_check(small_cfg(), window=4)
    assert r.passed
    assert r.stats["mismatches_not_explained_by_infinity"] == 0
    # the t-only reading does have mismatches: the infinite place really
    # excludes the delta square class
    assert r.stats["local_at_t_only_mismatches"] > 0


@pytest.mark.parametrize("q", [3, 5, 7])
def test_ternary_family_form_reads_only_a_squared(q):
    F = prime_field(q)
    for a in range(1, q):
        assert ternary_family_form(F, a).gram == ternary_family_form(F, q - a).gram
    grams = {ternary_family_form(F, a).gram for a in range(1, q)}
    assert len(grams) == (q - 1) // 2


@pytest.mark.parametrize("q", [5, 7])
def test_ternary_family_computes_each_distinct_form_once(monkeypatch, q):
    # one V_6 and two local deciders per distinct form, (q - 1)/2 forms,
    # every V_6 summed over the one X^2 + t Y^2 block grid
    import fqforms.repset as repset_module
    import fqforms.verify as verify_module

    counts = {"repset_upto": 0, "deciders": 0}
    grids = []
    enumerate_keys, grid_init = verify_module.repset_upto, repset_module._Grid.__init__

    def counted_repset(*args, **kwargs):
        counts["repset_upto"] += 1
        return enumerate_keys(*args, **kwargs)

    def counted_grid(self, red, *args, **kwargs):
        grids.append(red.gram)
        grid_init(self, red, *args, **kwargs)

    class Counted(LocalRepDecider):
        def __init__(self, *args):
            counts["deciders"] += 1
            super().__init__(*args)

    monkeypatch.setattr(verify_module, "repset_upto", counted_repset)
    monkeypatch.setattr(repset_module._Grid, "__init__", counted_grid)
    monkeypatch.setattr(verify_module, "LocalRepDecider", Counted)
    repset_module._binary_block_keys.cache_clear()
    r = ternary_family_check(SweepConfig(q=q))
    assert r.passed
    assert r.instances_checked == (q - 1) * (q - 2) // 2 + (q - 1) * q**5
    F = prime_field(q)
    assert counts == {"repset_upto": (q - 1) // 2, "deciders": q - 1}
    assert grids == [((F.one, F.zero), (F.zero, F.t))]


def test_ternary_family_decides_infinity_once_per_square_class(monkeypatch):
    # each distinct form (a and q - a give one) meets f = 0 and the four
    # classes (deg f mod 2, chi(lc f)): at most five calls per form, the
    # report unchanged
    import fqforms.verify as verify_module

    calls = {}
    decide = verify_module.represented_at_infinity

    def counted(form, f):
        calls[id(form)] = calls.get(id(form), 0) + 1
        return decide(form, f)

    monkeypatch.setattr(verify_module, "represented_at_infinity", counted)
    r = ternary_family_check(small_cfg(q=5))
    assert r.passed
    assert r.stats["mismatches_not_explained_by_infinity"] == 0
    assert len(calls) == 2
    assert all(n <= 5 for n in calls.values()), calls
    assert sum(calls.values()) == 10


def test_ternary_family_decides_locally_once_per_class(monkeypatch):
    # f != 0 of degree <= 4 falls in ten (valuation, char) classes at each
    # of the places t and t + a^2: 40 decisions for the two distinct forms
    # at q = 5
    calls = []
    decide = LocalRepDecider.__call__

    def counted(self, f):
        calls.append(f)
        return decide(self, f)

    monkeypatch.setattr(LocalRepDecider, "__call__", counted)
    r = ternary_family_check(small_cfg(q=5))
    assert r.passed
    assert len(calls) == 40
    assert all(not f.is_zero() for f in calls)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_key_classes_match_strip_valuation_and_square_class(q):
    # every f of degree <= 5, at every linear place t - r and at infinity
    F = prime_field(q)
    digits = _coeff_rows(q, 6)
    polys = [F.poly_from_key(key) for key in range(1, len(digits))]
    for root in range(q):
        place = F.t - F.constant(root)
        v, chi = _linear_place_classes(F, digits[1:], root)
        want = [
            (m, residue_char(w, place))
            for m, w in (strip_valuation(f, place) for f in polys)
        ]
        assert list(zip(v.tolist(), chi.tolist())) == want, root
    parity, chi = _infinity_classes(F, digits)
    assert chi[0] == 0  # f = 0 has no square class
    assert list(zip(parity[1:].tolist(), chi[1:].tolist())) == [
        square_class_at_infinity(f) for f in polys
    ]


def ternary_family_oracle(cfg, window=6):
    """`ternary_family_check` one value at a time: the per-value loop it
    replaced, with a polynomial and a local decider call per value."""
    F = prime_field(cfg.q)
    violations = []
    instances = 0
    forms = {a: ternary_family_form(F, a) for a in range(1, cfg.q)}
    sets = {
        a: repset_upto(form, window, budget=cfg.budget) for a, form in forms.items()
    }
    units = sorted(forms)
    for i, a in enumerate(units):
        for b in units[i + 1 :]:
            instances += 1
            same = np.array_equal(sets[a].keys, sets[b].keys)
            if not same:
                violations.append(
                    Violation(
                        "ternary",
                        {"a": a, "b": b},
                        observed="representation sets differ up to degree %d" % window,
                        expected="equal sets",
                    )
                )
            if F.mul(a, a) != F.mul(b, b):
                d1 = SquareClass(forms[a].discriminant())
                d2 = SquareClass(forms[b].discriminant())
                if d1 == d2:
                    violations.append(
                        Violation(
                            "ternary",
                            {"a": a, "b": b},
                            observed="equal disc classes",
                            expected="distinct disc classes when a^2 != b^2",
                        )
                    )
    lower = window - 2
    t = F.t
    t_only_mismatches = 0
    uncharacterized = 0
    for a in units:
        decider_t = LocalRepDecider(forms[a], t)
        other = t + F.poly((F.mul(a, a),))
        decider_other = LocalRepDecider(forms[a], other)
        member_keys = set(sets[a].restrict(lower).keys.tolist())
        # at most five square classes at infinity: decide each once
        at_infinity_by_class = {}
        for key in range(F.q ** (lower + 1)):
            f = F.poly_from_key(key)
            instances += 1
            in_global = key in member_keys
            in_local_t = decider_t(f)
            cls = square_class_at_infinity(f)
            if cls not in at_infinity_by_class:
                at_infinity_by_class[cls] = represented_at_infinity(forms[a], f)
            at_infinity = at_infinity_by_class[cls]
            if in_global != (in_local_t and at_infinity):
                violations.append(
                    Violation(
                        "ternary",
                        {"a": a, "f": str(f)},
                        observed={
                            "global": in_global,
                            "local_at_t": in_local_t,
                            "at_infinity": at_infinity,
                        },
                        expected="global iff local at t and at infinity",
                    )
                )
            if in_global != in_local_t:
                t_only_mismatches += 1
                if in_global or not in_local_t or at_infinity:
                    uncharacterized += 1
            if not decider_other(f):
                violations.append(
                    Violation(
                        "ternary",
                        {"a": a, "f": str(f)},
                        observed="not represented at the place t + a^2",
                        expected="every value is represented there",
                    )
                )
    stats = {
        "family_size": len(units),
        "window": window,
        "local_at_t_only_mismatches": t_only_mismatches,
        "mismatches_not_explained_by_infinity": uncharacterized,
    }
    return _finish("ternary", cfg, instances, violations, stats, False)


@pytest.mark.parametrize("q", [3, 5])
def test_ternary_family_check_matches_per_value_oracle(q):
    cfg = SweepConfig(q=q)
    assert ternary_family_check(cfg).as_dict() == ternary_family_oracle(cfg).as_dict()


def test_ternary_family_violations_match_per_value_oracle(monkeypatch):
    # thinned sets (a different key dropped per form) and a decider that
    # refuses at t + a^2 give violations of every kind; both paths must
    # list the same ones in the same order
    import fqforms.verify as verify_module

    this = sys.modules[__name__]
    enumerate_keys = repset_upto

    def thinned(form, k, budget):
        rs = enumerate_keys(form, k, budget=budget)
        drop = form.gram[2][2].key() % 5
        return RepSet(rs.field, k, rs.keys[rs.keys % 5 != drop])

    class Refusing(LocalRepDecider):
        # f = 0 stays represented, as the zero vector represents it anywhere
        def __call__(self, f):
            answer = super().__call__(f)
            if f.is_zero() or self.place == self.place.field.t:
                return answer
            return not answer

    for module in (verify_module, this):
        monkeypatch.setattr(module, "repset_upto", thinned)
        monkeypatch.setattr(module, "LocalRepDecider", Refusing)
    cfg = small_cfg(q=5)
    got = ternary_family_check(cfg, window=4)
    want = ternary_family_oracle(cfg, window=4)
    kinds = {json.dumps(v.observed, sort_keys=True)[:20] for v in want.violations}
    assert len(kinds) >= 3
    assert got.as_dict() == want.as_dict()


def test_cn1_survey_q13_mode():
    r = run_check("cn1", SweepConfig(q=13, samples=3, seed=1))
    assert r.passed
    # failures below the q > 13 threshold are expected exceptions
    assert all(v.check == "cn1" for v in r.expected_exceptions)


def test_cn1_survey_builds_only_the_sampled_cubic_discs(monkeypatch):
    # the degree-3 sample is drawn as indices into the 2 q^3 cubic canonical
    # discriminants, and only the chosen reach the class batches, as
    # coefficient rows: the same discriminants, in the same order, as
    # sampling from the full list; with no violation, a discriminant is
    # built as a polynomial only where the content filter tests a solution
    # (`_is_primitive`, at a square factor)
    from fqforms import classify, verify

    fed, built = [], []
    batches, disc = verify.class_batches, classify._Batch.disc

    def batching(field, coeffs, primitive_only=False, discs=None):
        fed.append(coeffs)
        return batches(field, coeffs, primitive_only, discs)

    def building(self, i):
        built.append(disc(self, i))
        return built[-1]

    monkeypatch.setattr(verify, "class_batches", batching)
    monkeypatch.setattr(classify._Batch, "disc", building)
    r = run_check("cn1", SweepConfig(q=17, samples=12, seed=5))
    assert r.passed and r.stats["deg3_sampled"] == 12
    assert not any(map(is_squarefree, built))
    assert len(set(built)) < sum(map(len, fed)) // 10
    F = prime_field(17)
    fed = [[Poly(F, row) for row in rows.tolist()] for rows in fed]
    assert fed[:3] == [discs_of_degree(F, m) for m in range(3)]
    deg3 = discs_of_degree(F, 3)
    chosen = sorted(random.Random(5).sample(range(len(deg3)), 12))
    assert fed[3:] == [[deg3[i] for i in chosen]]


def test_comp_bridge_q5():
    r = run_check("comp", SweepConfig(q=5, max_disc_degree=3))
    assert r.passed
    assert r.instances_checked == 231


def test_comp_and_cn1_build_representatives_only_where_read(monkeypatch):
    # `comp` reads the totals of its class batches, so no class builds its
    # form and no table is viewed; the cn1 survey reads the representatives
    # of degree <= 2 tables only
    from fqforms import classify, verify

    batches = []
    batched_by = verify.class_batches

    def batching(field, coeffs, primitive_only=False, discs=None):
        for batch in batched_by(field, coeffs, primitive_only, discs):
            batches.append(batch)
            yield batch

    built = []
    binary = Form._trusted_binary

    def counted(cls, a, b, c):
        built.append((a, b, c))
        return binary(a, b, c)

    viewed = []
    view = classify.ClassTable.__init__

    def viewing(self, batch, index):
        viewed.append(self)
        view(self, batch, index)

    monkeypatch.setattr(verify, "class_batches", batching)
    monkeypatch.setattr(Form, "_trusted_binary", classmethod(counted))
    monkeypatch.setattr(classify.ClassTable, "__init__", viewing)
    classify._class_table_cached.cache_clear()
    r = run_check("comp", SweepConfig(q=5, max_disc_degree=3))
    # a batch holds each of the 231 square-free discs, all checked
    square_free = sum(sum(batch.square_free) for batch in batches)
    assert r.passed and r.instances_checked == square_free == 231
    assert sum(batch.n for batch in batches) == 231
    assert built == [] and viewed == []
    classify._class_table_cached.cache_clear()
    r = run_check("cn1", SweepConfig(q=17, samples=40))
    assert r.passed and r.stats["deg3_sampled"] == 40
    assert {t._batch.m for t in viewed} == {0, 1, 2, 3}
    for t in viewed:
        assert ("class_representatives" in vars(t)) == (t._batch.m <= 2), str(t.disc)
    classify._class_table_cached.cache_clear()


def test_comp_bridge_sieves_each_disc_once(monkeypatch):
    # only the square-free discs reach a class batch, each sieved once in
    # the batch that holds it, and the bridge reads the batch's places and
    # place counts; no disc goes through the per-place root `_sqrt_at_place`,
    # `factor` or the distinct-degree pass `_places_dividing`, and no
    # d0 = lc(D) f0 through a square-free test, as the sieve makes it
    # square-free
    from fqforms import classify, ffpoly, picard, verify
    from fqforms.classify import _class_table_cached

    def refuse(f):
        raise AssertionError("the comp sweep tested a d0 for a square factor")

    picard._genus.cache_clear()
    monkeypatch.setattr(picard, "is_squarefree", refuse)

    F = prime_field(3)
    discs = canonical_discs(F, 3)
    batched, sieved = [], []
    batched_by, sieve = verify.class_batches, classify._sieve

    def batching(field, coeffs, primitive_only=False, discs=None):
        batched.extend(field.poly(row) for row in coeffs.tolist())
        return batched_by(field, coeffs, primitive_only, discs)

    def sieving(field, coeffs):
        sieved.extend(field.poly(row) for row in coeffs.tolist())
        return sieve(field, coeffs)

    monkeypatch.setattr(verify, "class_batches", batching)
    monkeypatch.setattr(classify, "_sieve", sieving)
    _class_table_cached.cache_clear()
    passed = []
    for name in ("factor", "_places_dividing", "_sqrt_at_place"):
        original = getattr(ffpoly, name)

        def recorded(f, *args, original=original):
            passed.append(f)
            return original(f, *args)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("fqforms") and hasattr(module, name):
                monkeypatch.setattr(module, name, recorded)
    r = run_check("comp", SweepConfig(q=3, max_disc_degree=3))
    square_free = [d for d in discs if ffpoly.is_squarefree(d)]
    assert r.passed and r.instances_checked == len(square_free)
    assert batched == sieved == square_free
    assert not set(passed) & set(discs)
    _class_table_cached.cache_clear()


def test_comp_sweep_builds_no_class_table(monkeypatch):
    # the bridge reads per-disc totals off the batch arrays, so a passing
    # sweep views no table
    from fqforms import classify

    def refuse(*args):
        raise AssertionError("the comp sweep built a class table")

    monkeypatch.setattr(classify.ClassTable, "__init__", refuse)
    r = run_check("comp", SweepConfig(q=7, max_disc_degree=3))
    assert r.passed and r.instances_checked == 645


def test_comp_sweep_runs_one_series_and_one_char_row_per_pair(monkeypatch):
    # the (7, 3) sweep: one batch per degree, one Euler series per batch of
    # degree >= 1 and none per disc, and in the genus pass one `_chars_at`
    # row per distinct (owner, place) pair; the (a_m, place) pairs of a
    # batch number at most (1 + q) q at top degree 1
    from fqforms import classify, picard

    F = prime_field(7)
    monic_rows = [classify._monic_factors(F, top)[0] for top in (0, 1)]  # cached
    batches, series, rows, pairs, monic_pairs = [], [], [], [], []
    built, distinct = classify._Batch.__init__, classify._distinct_chars
    orders, chars_at = picard._series_orders, classify._chars_at

    def building(self, *args):
        built(self, *args)
        batches.append((self.m, self.n))

    def distinct_pairs(field, m, table, owners, at):
        pairs.append(len(set(zip(owners.tolist(), at.tolist()))))
        if any(table is monic for monic in monic_rows):
            monic_pairs.append(pairs[-1])
        return distinct(field, m, table, owners, at)

    def counted(field, m, table, at):
        rows.append(len(table))
        return chars_at(field, m, table, at)

    monkeypatch.setattr(classify._Batch, "__init__", building)
    monkeypatch.setattr(classify, "_distinct_chars", distinct_pairs)
    monkeypatch.setattr(classify, "_chars_at", counted)
    monkeypatch.setattr(
        picard, "_series_orders", lambda *args: series.append(args[1]) or orders(*args)
    )
    r = run_check("comp", SweepConfig(q=7, max_disc_degree=3))
    assert r.passed and r.instances_checked == 645
    assert batches == [(0, 1), (1, 14), (2, 42), (3, 588)]
    assert series == [1, 2, 3]
    assert rows == pairs
    assert len(monic_pairs) == len(batches) and 0 < monic_pairs[-1] <= (1 + 7) * 7


@pytest.mark.parametrize("q,deg", [(5, 4), (7, 3)])
@pytest.mark.parametrize("values", [1, 2**62])
def test_comp_report_matches_golden_at_any_batch_size(monkeypatch, q, deg, values):
    # one disc per batch, then one batch per degree, against the reports
    # recorded at the batch sizes of their time
    from fqforms import classify

    monkeypatch.setattr(classify, "BATCH_VALUES", values)
    report = run_check("comp", SweepConfig(q=q, max_disc_degree=deg))
    out = json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
    assert out == (DATA / f"comp-q{q}-d{deg}.json").read_text()


def test_reports_deterministic():
    a = run_check("smooth", SweepConfig(q=5, samples=100, seed=11))
    b = run_check("smooth", SweepConfig(q=5, samples=100, seed=11))
    assert json.dumps(a.as_dict(), sort_keys=True) == json.dumps(
        b.as_dict(), sort_keys=True
    )
    c = run_check("smooth", SweepConfig(q=5, samples=100, seed=11, jobs=4))
    d1 = a.as_dict()
    d2 = c.as_dict()
    d1["config"].pop("jobs")
    d2["config"].pop("jobs")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(q=4)
    with pytest.raises(ValueError):
        SweepConfig(q=5, jobs=0)
    with pytest.raises(ValueError):
        run_check("nonsense", SweepConfig(q=5))


def test_quadric_point_count_matches_naive():
    # independent slow oracle on the projective count
    q = 5
    F = prime_field(q)
    coeffs = (1, 2, 3, 4)
    fast = count_quadric_intersection(q, F.delta, coeffs)
    a, b, bp, c = coeffs
    d = F.delta
    count = 0
    seen = set()
    for x0 in range(q):
        for x1 in range(q):
            for x2 in range(q):
                for x3 in range(q):
                    v = (x0, x1, x2, x3)
                    if v == (0, 0, 0, 0):
                        continue
                    # normalize to the first nonzero coordinate = 1
                    lead = next(i for i in range(4) if v[i])
                    inv = F.inv(v[lead])
                    norm = tuple(F.mul(inv, x) for x in v)
                    if norm in seen:
                        continue
                    seen.add(norm)
                    u, vv, x, y = norm
                    q1 = (u * u - d * vv * vv - x * x + d * y * y) % q
                    q2 = (
                        a * u * u + 2 * b * u * vv + c * vv * vv
                        - a * x * x - 2 * bp * x * y - c * y * y
                    ) % q
                    if q1 == 0 and q2 == 0:
                        count += 1
    assert fast == count


def test_comp_bridge_q13_sampled():
    # deg <= 2 exhaustive plus seeded deg-3 sample of the q = 13 bridge
    import random as _random

    from fqforms.classify import class_table, irreducible_factor_count
    from fqforms.ffpoly import is_squarefree
    from fqforms.picard import comp_sequence_check

    F13 = prime_field(13)
    rng = _random.Random(17)
    discs = [d for d in canonical_discs(F13, 2) if is_squarefree(d)]
    deg3 = [d for d in discs_of_degree(F13, 3) if is_squarefree(d)]
    discs += [deg3[i] for i in sorted(rng.sample(range(len(deg3)), 25))]
    for d in discs:
        report = comp_sequence_check(d)
        assert report.passed, str(d)
        table = class_table(F13, d, primitive_only=True)
        assert len(table.genera) == 2 ** irreducible_factor_count(d), str(d)
        # the sweep reads r off the table's own factorization
        assert len(table.places) == irreducible_factor_count(d), str(d)


def test_violation_replay():
    # recorded witnesses replay to the recorded observation
    from fqforms.classify import class_number
    from fqforms.qform import form_from_string

    F13 = prime_field(13)
    r = run_check("cn1", SweepConfig(q=13, samples=30, seed=0))
    assert r.expected_exceptions
    for v in r.expected_exceptions[:3]:
        form = form_from_string(F13, v.witness["form"])
        assert class_number(form) == v.observed


# -- Form-path oracles for the column inventory and its refinement ----------


def form_path_inventory(cfg):
    """(disc index, class index, representative) of every primitive class
    of the canonical discriminants up to the configured degree, as the
    sweep listed them before its class columns: a `Form` per class from
    `class_tables`, disc by disc in `canonical_discs` order."""
    F = prime_field(cfg.q)
    discs = canonical_discs(F, cfg.max_disc_degree)
    out = []
    for m in range(cfg.max_disc_degree + 1):
        at = [i for i, disc in enumerate(discs) if disc.degree == m]
        tables = class_tables(F, [discs[i] for i in at], primitive_only=True)
        for i, table in zip(at, tables):
            out.extend((i, ci, rep) for ci, rep in enumerate(table.class_representatives))
    return out


def sweep_inventory(cfg):
    return verify._inventory(prime_field(cfg.q), cfg.max_disc_degree)


def select(inventory, positions):
    """The entries of `inventory` at `positions`, which may repeat."""
    return Inventory(*(column[positions] for column in inventory))


def forms_of(data):
    return [data.rep(i) for i in range(len(data))]


class EagerOracle:
    """V_kmax per record, hashed into per-degree prefix digests."""

    def __init__(self, forms, kmax, q):
        self.q = q
        self.keys = []
        self.digests = []
        for form in forms:
            keys = repset_upto(form, kmax).keys
            h = hashlib.blake2b(digest_size=16)
            out = []
            pos = 0
            for d in range(kmax + 1):
                cut = int(np.searchsorted(keys, q ** (d + 1)))
                h.update(keys[pos:cut].tobytes())
                pos = cut
                out.append(h.copy().digest())
            self.keys.append(keys)
            self.digests.append(out)

    def equal_set_pairs(self, records, k):
        buckets = {}
        for i in records:
            buckets.setdefault(self.digests[i][k], []).append(i)
        limit = self.q ** (k + 1)
        out = []
        for members in buckets.values():
            for i, j in combinations(members, 2):
                v1, v2 = self.keys[i], self.keys[j]
                if np.array_equal(v1[v1 < limit], v2[v2 < limit]):
                    out.append((i, j))
        return out

    def distinguishing_histogram(self, k):
        hist = {}
        undistinguished = 0
        for d1, d2 in combinations(self.digests, 2):
            first = next((d for d in range(k + 1) if d1[d] != d2[d]), None)
            if first is None:
                undistinguished += 1
            else:
                hist[first] = hist.get(first, 0) + 1
        return hist, undistinguished


@pytest.mark.parametrize("q,max_deg", [(3, 2), (3, 3), (5, 2), (7, 2)])
def test_lazy_refinement_matches_eager_oracle(q, max_deg, monkeypatch):
    # the three checks share one `SweepData`, whose records the oracle holds
    cfg = small_cfg(q=q, max_deg=max_deg)
    data = sweep_data(cfg)
    monkeypatch.setattr(verify, "sweep_data", lambda _: data)
    oracle = EagerOracle(forms_of(data), data.kmax, q)
    calls = []
    lazy_pairs = SweepData.equal_set_pairs

    def recording(self, records, k):
        out = lazy_pairs(self, records, k)
        calls.append((records.tolist(), k, out))
        return out

    monkeypatch.setattr(SweepData, "equal_set_pairs", recording)
    for check in (verify_minima_recovery, verify_disc_recovery, verify_equiv_theorems):
        check(cfg)
    assert calls
    for records, k, pairs in calls:
        assert pairs == oracle.equal_set_pairs(records, k)
    assert oracle.distinguishing_histogram(data.kmax) == (
        data.distinguishing_histogram,
        data.undistinguished_pairs,
    )


def test_equal_set_pairs_enumerates_each_tied_record_once(monkeypatch):
    # the 327 records still tied at V_0 share one digest bucket: each has
    # its V_0 enumerated once, not once per pair it is compared in
    data = sweep_data(small_cfg(q=3, max_deg=3))
    everyone = np.arange(len(data))
    oracle = EagerOracle(forms_of(data), data.kmax, 3)
    calls = []
    enumerate_set = verify.repset_upto

    def counting(form, k, **kw):
        calls.append(k)
        return enumerate_set(form, k, **kw)

    monkeypatch.setattr(verify, "repset_upto", counting)
    pairs = data.equal_set_pairs(everyone, 0)
    assert calls == [0] * 327
    assert len(pairs) == 22458
    assert pairs == oracle.equal_set_pairs(everyone.tolist(), 0)


def test_lazy_refinement_repeated_representative():
    # copies of a class tie with it up to V_kmax: they count as
    # undistinguished, and every equal_set_pairs call re-verifies them exactly
    cfg = small_cfg(q=3, max_deg=2)
    data = SweepData(cfg, select(sweep_inventory(cfg), [0, 1, 2, 3, 4, 5, 2, 4, 2]))
    oracle = EagerOracle(forms_of(data), data.kmax, cfg.q)
    assert data.undistinguished_pairs == 4
    assert oracle.distinguishing_histogram(data.kmax) == (
        data.distinguishing_histogram,
        data.undistinguished_pairs,
    )
    assert (data.resolved_at[[2, 4, 6, 7, 8]] == data.kmax + 1).all()
    for k in range(data.kmax + 1):
        pairs = data.equal_set_pairs(np.arange(len(data)), k)
        assert pairs == oracle.equal_set_pairs(range(len(data)), k)
        assert len(pairs) >= 4


def per_record_refinement(forms, kmax, q, budget):
    """SweepData's refinement one record at a time on `Form`s, by one
    `repset_upto` per tied record and degree in group order, groups split
    by blake2b digests: (blake2b digests, set digest rows, resolved_at,
    histogram, undistinguished pairs), the set digest rows summed from
    splitmix64 of the keys as `_degree_digests` defines them."""
    hashes = [hashlib.blake2b(digest_size=16) for _ in forms]
    digests = [() for _ in forms]
    lanes = [np.zeros(2, dtype=np.uint64) for _ in forms]
    rows = [[] for _ in forms]
    resolved = [kmax + 1] * len(forms)
    hist = {}
    groups = [list(range(len(forms)))] if len(forms) > 1 else []
    for d in range(kmax + 1):
        salts = _splitmix64(np.arange(2 * d, 2 * d + 2, dtype=np.uint64))
        tied = []
        for group in groups:
            parts = {}
            for i in group:
                keys = repset_upto(forms[i], d, budget=budget).keys
                lo = int(np.searchsorted(keys, q**d)) if d else 0
                hashes[i].update(keys[lo:].tobytes())
                digests[i] += (hashes[i].digest(),)
                values = keys[lo:].view(np.uint64)
                lanes[i] = lanes[i] + [_splitmix64(values + s).sum() for s in salts]
                rows[i].append(lanes[i])
                parts.setdefault(digests[i][-1], []).append(i)
            split = len(group) * (len(group) - 1) // 2
            split -= sum(len(p) * (len(p) - 1) // 2 for p in parts.values())
            if split:
                hist[d] = hist.get(d, 0) + split
            for part in parts.values():
                if len(part) == 1:
                    resolved[part[0]] = d
                else:
                    tied.append(part)
        groups = tied
    undistinguished = sum(len(g) * (len(g) - 1) // 2 for g in groups)
    return digests, rows, resolved, hist, undistinguished


def assert_same_refinement(data, want):
    """`data` holds the set digest rows, resolved_at, histogram and
    undistinguished pairs of `want` (`per_record_refinement`), and at
    every degree two records share a set digest iff they share the
    blake2b one."""
    digests, rows, resolved, hist, undistinguished = want
    offsets = data.offsets.tolist()
    ours = [data.digests[lo:hi] for lo, hi in zip(offsets, offsets[1:])]
    assert [len(part) for part in ours] == [len(w) for w in digests]
    for got, expected in zip(ours, rows):
        assert np.array_equal(got, np.array(expected, dtype=np.uint64).reshape(-1, 2))
    for d in range(max(map(len, digests), default=0)):
        by_lanes, by_blake = {}, {}
        for i, part in enumerate(ours):
            if d < len(part):
                by_lanes.setdefault(part[d].tobytes(), []).append(i)
                by_blake.setdefault(digests[i][d], []).append(i)
        assert sorted(by_lanes.values()) == sorted(by_blake.values()), d
    assert data.resolved_at.tolist() == resolved
    assert data.distinguishing_histogram == hist
    assert data.undistinguished_pairs == undistinguished


@pytest.mark.parametrize("q,max_deg", [(3, 4), (5, 3), (7, 2), (11, 2)])
def test_inventory_matches_form_path(q, max_deg):
    # the class columns against a `Form` per class of `class_tables`, row
    # for row, square-factor discs and scaled classes included; the
    # refinement of the columns against the Form-path refinement
    cfg = small_cfg(q=q, max_deg=max_deg)
    data = sweep_data(cfg)
    want = form_path_inventory(cfg)
    assert data.disc_index.tolist() == [i for i, _, _ in want]
    assert data.class_index.tolist() == [ci for _, ci, _ in want]
    forms = [rep for _, _, rep in want]
    assert [f.gram for f in forms_of(data)] == [f.gram for f in forms]
    assert data.minima.tolist() == [list(successive_minima(f)) for f in forms]
    assert any(f.gram[0][0].lc() != 1 for f in forms)
    assert any(not is_squarefree(f.discriminant()) for f in forms)
    assert_same_refinement(data, per_record_refinement(forms, data.kmax, q, cfg.budget))


@pytest.mark.parametrize("q,max_deg", [(3, 3), (5, 2), (7, 2), (11, 2)])
def test_batched_refinement_makes_no_per_record_call(q, max_deg, monkeypatch):
    # the sweep's classes, and a few of them with repeated representatives
    cfg = small_cfg(q=q, max_deg=max_deg)
    inventory = sweep_inventory(cfg)
    repeated = select(inventory, [0, 1, 2, 3, 4, 5, 2, 4, 2])

    def refuse(*args, **kwargs):
        raise AssertionError("per-record repset_upto in the refinement")

    for columns in (inventory, repeated):
        with monkeypatch.context() as patch:
            patch.setattr(verify, "repset_upto", refuse)
            data = SweepData(cfg, columns)
        want = per_record_refinement(forms_of(data), data.kmax, q, cfg.budget)
        assert_same_refinement(data, want)
    # the three copies of class 2 and the two of class 4 tie up to V_kmax
    assert data.undistinguished_pairs == 3 + 1


def test_batched_refinement_budget_matches_per_record():
    # the first tied record whose grid is over budget raises, with the
    # message of its own repset_upto
    cfg = small_cfg(q=3, max_deg=3)
    inventory = sweep_inventory(cfg)
    forms = forms_of(SweepData(cfg, inventory))
    outcomes = set()
    for budget in (3, 9, 30, 100, 300, 1000):
        small = small_cfg(q=3, max_deg=3, budget=budget)
        try:
            want = per_record_refinement(forms, 7, 3, budget)
        except BudgetError as exc:
            with pytest.raises(BudgetError) as raised:
                SweepData(small, inventory)
            assert str(raised.value) == str(exc)
            outcomes.add("raised")
            continue
        assert_same_refinement(SweepData(small, inventory), want)
        outcomes.add("passed")
    assert outcomes == {"raised", "passed"}


def test_refinement_below_mu2_enumerates_each_a_once(monkeypatch):
    # below mu_2, V_d = {a x^2 : deg <= d} depends on a alone: each tied
    # minima bucket hands `_binary_planes` one form per distinct a
    import fqforms.repset as repset_module

    cfg = small_cfg(q=5, max_deg=3)
    inventory = sweep_inventory(cfg)
    planes, batch = repset_module._binary_planes, verify.repset_keys_batch
    handed = {}  # (d, minima) -> forms handed to `_binary_planes`
    current = []

    def recording_batch(q, rows, minima, k, **kwargs):
        current[:] = [(k, tuple(minima))]
        handed.setdefault(current[0], 0)
        return batch(q, rows, minima, k, **kwargs)

    def counting_planes(coeffs, *args):
        handed[current[0]] += len(coeffs)
        return planes(coeffs, *args)

    monkeypatch.setattr(verify, "repset_keys_batch", recording_batch)
    monkeypatch.setattr(repset_module, "_binary_planes", counting_planes)
    data = SweepData(cfg, inventory)
    forms = forms_of(data)
    # a record is enumerated at d while tied, i.e. for d <= resolved_at
    tied = {}
    for d in range(data.kmax + 1):
        for i, form in enumerate(forms):
            if data.resolved_at[i] >= d:
                tied.setdefault((d, successive_minima(form)), []).append(form)
    below = {key: forms for key, forms in tied.items() if key[0] < key[1][1]}
    distinct = {
        key: len({form.gram[0][0].coeffs for form in forms})
        for key, forms in below.items()
    }
    assert {key: handed[key] for key in below} == distinct
    assert sum(distinct.values()) < sum(map(len, below.values()))
    assert all(handed[key] == len(f) for key, f in tied.items() if key not in below)


def test_sweep_builds_forms_only_for_compared_records(monkeypatch):
    # the inventory and its refinement build no form, and a report builds
    # one per record of each digest bucket of two or more that it compares
    # exactly: none in a passing sweep, where every class of disc degree m
    # is resolved at or below m, and so below each window; copies of a
    # class are compared and built at every degree
    built = []
    binary, init = Form._trusted_binary.__func__, Form.__init__

    def counted(cls, a, b, c):
        built.append((a, b, c))
        return binary(cls, a, b, c)

    def checked(self, gram):
        built.append(gram)
        init(self, gram)

    compared = []
    lazy_pairs = SweepData.equal_set_pairs

    def recording(self, records, k):
        tied = [i for i in records.tolist() if self.resolved_at[i] > k]
        rows = [self.digests[self.offsets[i] + k].tobytes() for i in tied]
        compared.extend(i for i, row in zip(tied, rows) if rows.count(row) > 1)
        return lazy_pairs(self, records, k)

    monkeypatch.setattr(Form, "_trusted_binary", classmethod(counted))
    monkeypatch.setattr(Form, "__init__", checked)
    monkeypatch.setattr(SweepData, "equal_set_pairs", recording)
    cfg = small_cfg(q=5, max_deg=3)
    data = sweep_data(cfg)
    assert len(data) > 100 and built == []
    monkeypatch.setattr(verify, "sweep_data", lambda _: data)
    for check in (verify_minima_recovery, verify_disc_recovery, verify_equiv_theorems):
        assert check(cfg).passed
    assert built == compared == []
    cfg = small_cfg(q=3, max_deg=2)
    data = SweepData(cfg, select(sweep_inventory(cfg), [0, 1, 2, 3, 4, 5, 2, 4, 2]))
    assert built == []
    for k in range(data.kmax + 1):
        data.equal_set_pairs(np.arange(len(data)), k)
        assert len(built) == len(compared) >= 5 * (k + 1)
