"""Acceptance criteria, one test per criterion.

Each test prints `ACCEPTANCE <id>: PASS|FAIL (<seconds>)` (visible with
`pytest -s` or in captured output on failure) and then asserts.  Criterion
6 appears twice: the literal local-at-t biconditional is a strict expected
failure (values in the square class excluded at the infinite place are
locally represented at t but not globally; see the corrected variant,
which requires local everywhere and has zero mismatches).
"""

import random
import time

import numpy as np
import pytest

from fqforms.classify import class_table
from fqforms.ffpoly import poly_from_string, prime_field
from fqforms.localgenus import hilbert_symbol, represented_at_infinity
from fqforms.picard import (
    AbelianStructure,
    MumfordDivisor,
    comp_sequence_check,
    pic_group,
)
from fqforms.qform import Form, Transformation, reduce, successive_minima
from fqforms.repset import repset_upto
from fqforms.verify import (
    LocalRepDecider,
    SweepConfig,
    run_check,
    ternary_family_form,
)
from tests.test_localgenus import all_places_of, rand_poly
from tests.test_qform import rand_definite_reduced, rand_gl2, remark_form

F5 = prime_field(5)
F7 = prime_field(7)
F13 = prime_field(13)


def _finish(name, failures, t0):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({time.time() - t0:.1f}s)")
    assert not failures, failures


def test_criterion_1_remark_reproduction():
    t0 = time.time()
    failures = []
    q0 = remark_form()
    t = F13.t
    d = t**3 - t
    if not (q0.is_reduced() and q0.is_definite() and q0.is_primitive()):
        failures.append("form not reduced/definite/primitive")
    if q0.discriminant() != d:
        failures.append("disc != t^3 - t")
    table = class_table(F13, d, primitive_only=True)
    if len(table.proper_classes) != 16:
        failures.append(f"proper classes {len(table.proper_classes)} != 16")
    if table.class_count_in_genus_of(q0) != 1:
        failures.append("h(Q) != 1")
    group = pic_group(d)
    if group.order != 8 or group.structure != AbelianStructure((2, 4)):
        failures.append(f"Pic = {group.order}, {group.structure}")
    point = MumfordDivisor(t - 5, F13.constant(4), d)
    if group.orders[group.elements.index(point)] != 4:
        failures.append("point (5, 4) does not have order 4")
    report = comp_sequence_check(d)
    if not (report.passed and report.expected == 16):
        failures.append("composition bridge 16 = 2*8 failed")
    _finish("1 remark-reproduction-F13", failures, t0)


def test_criterion_2_equal_sets_imply_equivalence():
    t0 = time.time()
    failures = []
    r5 = run_check("equiv", SweepConfig(q=5, max_disc_degree=3))
    if r5.violations:
        failures.append(f"q=5: {len(r5.violations)} violations")
    r7 = run_check("equiv", SweepConfig(q=7, max_disc_degree=2))
    if r7.violations:
        failures.append(f"q=7: {len(r7.violations)} violations")
    _finish("2 equal-sets-window-3m-2", failures, t0)


def test_criterion_3_same_disc_minima_window_mu2():
    t0 = time.time()
    failures = []
    for q, deg in ((5, 3), (7, 2)):
        r = run_check("equiv", SweepConfig(q=q, max_disc_degree=deg))
        bad = [
            v
            for v in r.violations
            if "same disc and minima" in str(v.observed)
        ]
        if bad or r.violations:
            failures.append(f"q={q}: violations present")
        if r.stats["undistinguished_pairs"] != 0:
            failures.append(f"q={q}: some inequivalent pair never distinguished")
    _finish("3 same-disc-same-minima-window-mu2", failures, t0)


def test_criterion_4_disc_recovery():
    t0 = time.time()
    r = run_check("disc", SweepConfig(q=5, max_disc_degree=3))
    _finish("4 disc-square-class-recovery", list(r.violations), t0)


def test_criterion_5_minima_recovery():
    t0 = time.time()
    r = run_check("minima", SweepConfig(q=5, max_disc_degree=3))
    _finish("5 minima-and-leading-coefficients", list(r.violations), t0)


def test_criterion_6_ternary_family():
    t0 = time.time()
    failures = []
    r = run_check("ternary", SweepConfig(q=5))
    if r.violations:
        failures.append(f"{len(r.violations)} violations")
    if r.stats["mismatches_not_explained_by_infinity"] != 0:
        failures.append("a local/global mismatch is not the infinite-place class")
    _finish("6 ternary-family-local-everywhere", failures, t0)


@pytest.mark.xfail(
    strict=True,
    reason="stated literally (local at t alone), the biconditional fails for "
    "values in the square class excluded at the infinite place, e.g. f = delta "
    "for Q_1 over F_5: locally represented at t via Hensel from (x, z) = (0, 2) "
    "but not represented over K_inf, hence not globally",
)
def test_criterion_6_literal_local_at_t_only():
    t0 = time.time()
    F = F5
    mismatches = 0
    for a in range(1, 5):
        form = ternary_family_form(F, a)
        decider = LocalRepDecider(form, F.t)
        members = set(repset_upto(form, 4).keys.tolist())
        for key in range(5**5):
            f = F.poly_from_key(key)
            if (key in members) != decider(f):
                mismatches += 1
    print(f"ACCEPTANCE 6-literal local-at-t-only: FAIL (expected; "
          f"{mismatches} mismatches, {time.time() - t0:.1f}s)")
    assert mismatches == 0


def test_criterion_7_class_number_one_survey():
    t0 = time.time()
    r = run_check("cn1", SweepConfig(q=17, samples=200, seed=0))
    _finish("7 class-number-one-q17", list(r.violations), t0)


def test_criterion_8_smoothness_identity():
    t0 = time.time()
    failures = []
    for q in (5, 13, 17):
        r = run_check("smooth", SweepConfig(q=q, samples=1000, seed=0))
        if r.violations:
            failures.append(f"q={q}: {len(r.violations)} mismatches")
    _finish("8 pencil-smoothness-identity", failures, t0)


def test_criterion_9_quadric_hasse_audit():
    t0 = time.time()
    failures = []
    for q in (7, 13):
        r = run_check("quadric", SweepConfig(q=q, samples=200, seed=0))
        if r.violations:
            failures.append(f"q={q}: {len(r.violations)} violations")
    _finish("9 quadric-point-count-hasse", failures, t0)


def test_criterion_10_property_suites():
    t0 = time.time()
    failures = []

    # Hilbert reciprocity: product over all places is 1
    for q in (5, 13):
        F = prime_field(q)
        rng = random.Random(q)
        for _ in range(1000):
            f = rand_poly(F, 3, rng)
            g = rand_poly(F, 3, rng)
            prod = 1
            for place in all_places_of(f, g):
                prod *= hilbert_symbol(f, g, place)
            if prod != 1:
                failures.append(f"reciprocity q={q}: ({f}, {g})")
                break

    # degree formula on 10^4 random evaluations
    rng = random.Random(101)
    evaluations = 0
    while evaluations < 10_000:
        form = rand_definite_reduced(F5, rng, max_mu2=3)
        mu = successive_minima(form)
        for _ in range(50):
            x = F5.poly([rng.randrange(5) for _ in range(rng.randrange(0, 5))])
            y = F5.poly([rng.randrange(5) for _ in range(rng.randrange(0, 5))])
            val = form.value((x, y))
            want = max(2 * x.degree + mu[0], 2 * y.degree + mu[1])
            evaluations += 1
            if val.degree != want:
                failures.append(f"degree formula at {form}, ({x}, {y})")
                break

    # representation-set completeness against inflated bounds
    rng = random.Random(103)
    for _ in range(100):
        form = rand_definite_reduced(F5, rng, max_mu2=3)
        k = rng.randrange(0, 5)
        if not np.array_equal(
            repset_upto(form, k).keys, repset_upto(form, k, slack=2).keys
        ):
            failures.append(f"binary completeness at {form}, k={k}")
            break
    for a in (1, 2):
        form = ternary_family_form(F5, a)
        for k in (0, 1, 2):
            if not np.array_equal(
                repset_upto(form, k).keys,
                repset_upto(form, k, slack=2, budget=10**9).keys,
            ):
                failures.append(f"ternary completeness a={a}, k={k}")

    # reduction transport identity and idempotence
    rng = random.Random(107)
    for _ in range(100):
        form = rand_definite_reduced(F5, rng, max_mu2=3)
        moved = rand_gl2(F5, rng).apply(form)
        red, tr = reduce(moved)
        if tr.apply(moved) != red or not red.is_reduced():
            failures.append(f"transport identity at {form}")
            break
        again, tr2 = reduce(red)
        if again != red or tr2 != Transformation.identity(F5, 2):
            failures.append(f"idempotence at {form}")
            break

    # table invariants: h+ <= 2h and equal proper counts per genus
    from fqforms.classify import canonical_discs

    for field, max_deg in ((F5, 3), (F7, 2)):
        for disc in canonical_discs(field, max_deg):
            table = class_table(field, disc, primitive_only=True)
            if len(table.proper_classes) > 2 * len(table.classes):
                failures.append(f"h+ > 2h at disc {disc}")
            counts = set(table.proper_counts_per_genus())
            if len(counts) > 1:
                failures.append(f"unequal genus sizes at disc {disc}")

    _finish("10 property-suites", failures, t0)
