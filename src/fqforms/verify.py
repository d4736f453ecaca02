"""Empirical verification sweeps at desk scale.

Each check enumerates the relevant objects exhaustively (or by seeded
sampling), tests the claimed implication on every instance, and returns a
Report with any violations.  Reports are deterministic: fixed seeds,
canonical orderings, no time-dependent state.

Representation sets drive most checks.  V_j is the part of V_k of degree
<= j, and ascending key order is degree-compatible, so the keys of V_j are
a prefix of those of V_k.  The class records are therefore refined one
degree at a time: V_(d+1) is enumerated only for records whose V_d digest
some other record shares, and a record whose V_d is unique is resolved at
d, since its V_k is then unique for every k >= d.  The digests are 128-bit
set digests held as numpy columns, two uint64 lanes per record and
degree, summed from hashed keys chunk by chunk with no Python loop over
records; below mu_2, V_d depends on a alone and is enumerated once per
distinct a.  Records with equal digests have their V_k enumerated once
each for exact set comparison, so the comparisons stay exact while most
classes never need their large representation sets.

Checks whose hypotheses carry a lower bound on q ("q > 3", "q > 13") can
also run just below the threshold; they then record failures as expected
exceptions instead of violations, since counterexamples are known there.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field as dataclass_field
from itertools import chain, combinations, groupby
from math import comb

import numpy as np

from .classify import canonical_disc_at, canonical_disc_count, canonical_discs
from .classify import ClassTable, _runs, class_batches, class_tables, cn1_prediction
from .errors import DEFAULT_BUDGET, BudgetError
from .ffpoly import SquareClass, _places, is_squarefree, prime_field
from .localgenus import LocalRepDecider, represented_at_infinity
from .picard import _bridge_orders, weil_interval
from .qform import Form, _mat_det, form_to_string
from .repset import _coeff_rows, repset_keys_batch, repset_upto

CHECKS = ("minima", "disc", "equiv", "smooth", "quadric", "ternary", "cn1", "comp")


@dataclass
class SweepConfig:
    q: int
    max_disc_degree: int = 3
    samples: int = 200
    seed: int = 0
    budget: int = DEFAULT_BUDGET
    jobs: int = 1

    def __post_init__(self):
        prime_field(self.q)  # raises ValueError unless q is an odd prime
        if self.jobs < 1:
            raise ValueError("jobs must be positive")

    def as_dict(self):
        return asdict(self)


@dataclass
class Violation:
    check: str
    witness: dict
    observed: object
    expected: object

    def as_dict(self):
        return asdict(self)


@dataclass
class Report:
    check: str
    config: dict
    instances_checked: int
    violations: list
    stats: dict = dataclass_field(default_factory=dict)
    expected_exceptions: list = dataclass_field(default_factory=list)

    @property
    def passed(self):
        return not self.violations

    def as_dict(self):
        return {
            "theorem": self.check,
            "config": self.config,
            "instances_checked": self.instances_checked,
            "violations": [v.as_dict() for v in self.violations],
            "expected_exceptions": [v.as_dict() for v in self.expected_exceptions],
            "stats": self.stats,
            "passed": self.passed,
        }


# -- shared class inventory, refined by representation sets ------------------


@dataclass
class ClassRecord:
    disc: object
    class_index: int
    rep: object
    minima: tuple
    # Least d at which V_d of this record differs from V_d of every other
    # record of its SweepData, or kmax + 1 if another record ties with it
    # up to V_kmax.  The record is a singleton for every k >= resolved_at.
    resolved_at: int = 0
    # A (j + 1, 2) uint64 array: row d is the 128-bit set digest of V_d
    # (`_degree_digests`, summed over degrees 0..d), for each degree
    # d <= j = min(resolved_at, kmax) at which the refinement enumerated
    # the record, i.e. while it was in a group of two or more; no rows if
    # it never was.
    digests: object = None


def _splitmix64(z):
    """splitmix64's output function on a uint64 array, in wrapping
    arithmetic: a bijection that mixes every input bit into every output
    bit."""
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _degree_digests(forms, d, budget):
    """A (len(forms), 2) uint64 array: per form, the two lanes of the set
    digest of its V_d keys of degree exactly d (every key of V_d at d = 0).
    Lane l is the sum mod 2^64 of splitmix64(key + salt_(l, d)) over those
    keys, taken chunk by chunk over the keys of `repset_keys_batch`."""
    low = forms[0].field.q ** d if d else 0
    salts = _splitmix64(np.arange(2 * d, 2 * d + 2, dtype=np.uint64))
    out = np.empty((len(forms), 2), dtype=np.uint64)
    row = 0
    for keys, starts in repset_keys_batch(forms, d, budget=budget):
        top = keys >= low
        values = keys.view(np.uint64)
        # every form owns key 0, so no run of `starts` is empty
        for lane, salt in enumerate(salts):
            hashed = _splitmix64(values + salt)
            hashed *= top
            out[row : row + len(starts), lane] = np.add.reduceat(hashed, starts)
        row += len(starts)
    return out


def _first_seen(codes):
    """Group the positions of `codes` by code: a list of position arrays,
    each ascending, in order of first position (a stable sort, not
    `np.unique`, which would import `numpy.ma`)."""
    order = np.argsort(codes, kind="stable")
    starts, lengths = _runs(codes[order])
    groups = [order[s : s + n] for s, n in zip(starts.tolist(), lengths.tolist())]
    groups.sort(key=lambda positions: positions[0])
    return groups


def _pairs(sizes):
    """The number of pairs within groups of the given sizes."""
    return int((sizes * (sizes - 1) // 2).sum())


class SweepData:
    """Class records refined by their representation sets V_0, V_1, ...

    `classes` lists (canonical disc, class index, representative) triples;
    a triple may repeat.  All records start in one group.  At each degree
    d = 0..kmax, V_d is enumerated only for records in a group of two or
    more, by `repset_keys_batch` over the tied records of each minima
    (class representatives are already reduced), buckets in order of first
    member.  Below mu_2, V_d = {a x^2 : deg <= d} depends on a alone, so
    one form per distinct a of a bucket is enumerated and each record gets
    its a's digest.  A record's digest is a 128-bit set digest: two uint64
    lanes, each a sum mod 2^64 of hashed keys, to which d adds its keys of
    degree exactly d (`_degree_digests`).  Groups are split by digest with
    one `lexsort` over (group, lane 0, lane 1); a record left alone is
    resolved at d.  Since V_d = {f in V_k : deg f <= d} for every k >= d,
    a V_d that no other record shares stays unshared at every larger k, so
    a resolved record needs no larger V_k.  Refinement stops once no group
    of two or more is left.  Equal digests do not prove equal sets;
    `equal_set_pairs` compares the exact sets of every tied record.
    """

    def __init__(self, cfg, classes):
        self.field = prime_field(cfg.q)
        self.cfg = cfg
        self.kmax = max(3 * cfg.max_disc_degree - 2, 0)
        self.records = [
            ClassRecord(
                disc=disc,
                class_index=ci,
                rep=rep,
                minima=tuple(rep.gram[i][i].degree for i in range(rep.n)),
            )
            for disc, ci, rep in classes
        ]
        # least degree at which two records differ -> number of such pairs
        self.distinguishing_histogram = {}
        # pairs still tied at V_kmax
        self.undistinguished_pairs = 0
        self._refine()

    def _refine(self):
        budget = self.cfg.budget
        records = self.records
        reps = [rec.rep for rec in records]

        def codes(values):  # equal values -> equal small integers
            seen = {}
            return np.array([seen.setdefault(v, len(seen)) for v in values], dtype=int)

        minima = codes(rec.minima for rec in records)
        lead = codes(rep.gram[0][0].coeffs for rep in reps)
        resolved = np.zeros(len(records), dtype=np.int64)
        total = np.zeros((len(records), 2), dtype=np.uint64)
        # tied records: ascending within a group, groups in order of first member
        live = np.arange(len(records) if len(records) > 1 else 0)
        group = np.zeros(len(live), dtype=np.int64)
        enumerated = []  # (live, digests) per degree
        for d in range(self.kmax + 1):
            if not len(live):
                break
            lanes = np.empty((len(live), 2), dtype=np.uint64)  # degree d alone
            for at in _first_seen(minima[live]):
                members = live[at]
                if d < records[members[0]].minima[1]:
                    firsts = _first_seen(lead[members])
                    forms = [reps[members[pos[0]]] for pos in firsts]
                    own = _degree_digests(forms, d, budget)
                    for row, pos in zip(own, firsts):
                        lanes[at[pos]] = row
                else:
                    forms = [reps[i] for i in members.tolist()]
                    lanes[at] = _degree_digests(forms, d, budget)
            total[live] += lanes
            digests = total[live]
            enumerated.append((live, digests))
            order = np.lexsort((digests[:, 1], digests[:, 0], group))
            starts, sizes = _runs(group[order], digests[order, 0], digests[order, 1])
            split = _pairs(np.bincount(group)) - _pairs(sizes)
            if split:
                self.distinguishing_histogram[d] = split
            resolved[live[order[starts[sizes == 1]]]] = d
            # the tied runs in order of first member, each ascending
            keep = np.repeat(sizes > 1, sizes)
            run = np.repeat(np.arange(len(sizes)), sizes)[keep]
            first = order[starts][run]
            at = np.lexsort((order[keep], first))
            live = live[order[keep][at]]
            heads, sizes = _runs(first[at])
            group = np.repeat(np.arange(len(heads)), sizes)
        self.undistinguished_pairs = _pairs(np.bincount(group))
        resolved[live] = self.kmax + 1
        ids = np.concatenate([at for at, _ in enumerated] or [live])
        rows = np.concatenate([lanes for _, lanes in enumerated] or [total[:0]])
        enumerated.clear()
        rows = rows[np.argsort(ids, kind="stable")]  # by record, then degree
        ends = np.cumsum(np.bincount(ids, minlength=len(records))).tolist()
        for rec, at, start, end in zip(records, resolved.tolist(), [0] + ends, ends):
            rec.resolved_at = at
            rec.digests = rows[start:end]

    def equal_set_pairs(self, records, k):
        """Pairs (r1, r2) of distinct records with V_k(r1) = V_k(r2): by
        bucket in order of first member, then (i < j) within a bucket.

        A record resolved at or below k shares its V_k with no record, so
        only records still tied at k are bucketed by their V_k digest.
        Each record of a bucket of two or more has its V_k enumerated once,
        and the members whose keys are equal are paired.
        """
        buckets = {}
        for rec in records:
            if rec.resolved_at > k:
                buckets.setdefault(rec.digests[k].tobytes(), []).append(rec)
        out = []
        for members in buckets.values():
            if len(members) < 2:
                continue
            same = {}  # exact V_k keys -> bucket positions of their records
            for i, rec in enumerate(members):
                keys = repset_upto(rec.rep, k, budget=self.cfg.budget).keys
                same.setdefault(keys.tobytes(), []).append(i)
            pairs = sorted(p for pos in same.values() for p in combinations(pos, 2))
            out.extend((members[i], members[j]) for i, j in pairs)
        return out


def _primitive_tables(field, discs):
    """(disc, primitive class table) for each of `discs`, ascending by
    degree, the tables of each degree built together by `class_tables`."""
    for _, group in groupby(discs, key=lambda disc: disc.degree):
        group = list(group)
        yield from zip(group, class_tables(field, group, primitive_only=True))


_SWEEP_CACHE = {}


def sweep_data(cfg):
    key = (cfg.q, cfg.max_disc_degree, cfg.budget)
    if key not in _SWEEP_CACHE:
        field = prime_field(cfg.q)
        discs = canonical_discs(field, cfg.max_disc_degree)
        classes = [
            (disc, ci, rep)
            for disc, table in _primitive_tables(field, discs)
            for ci, rep in enumerate(table.class_representatives)
        ]
        _SWEEP_CACHE[key] = SweepData(cfg, classes)
    return _SWEEP_CACHE[key]


def _witness_pair(r1, r2):
    return {
        "form": form_to_string(r1.rep),
        "other_form": form_to_string(r2.rep),
        "disc": str(r1.disc),
        "other_disc": str(r2.disc),
    }


def _finish(check, cfg, instances, violations, stats, expect_exceptions):
    expected = violations if expect_exceptions else []
    return Report(
        check=check,
        config=cfg.as_dict(),
        instances_checked=instances,
        violations=[] if expect_exceptions else violations,
        expected_exceptions=expected,
        stats=stats,
    )


# -- representation-set theorems --------------------------------------------


def _levelled_pairs(data, disc_window):
    """(instances, pairs) over levels m = 0..max disc degree: level m holds
    the records of disc degree <= m, and a pair (r1, r2, k) with equal V_k,
    k = m or max(3m - 2, 0) with `disc_window`, is reported at its larger
    disc degree."""
    instances, pairs = 0, []
    for m in range(data.cfg.max_disc_degree + 1):
        level = [r for r in data.records if r.disc.degree <= m]
        instances += comb(len(level), 2)
        k = max(3 * m - 2, 0) if disc_window else m
        pairs.extend(
            (r1, r2, k)
            for r1, r2 in data.equal_set_pairs(level, k)
            if max(r1.disc.degree, r2.disc.degree) == m
        )
    return instances, pairs


def verify_minima_recovery(cfg):
    """Equal V_m (m = max disc degree of the pair) forces equal minima,
    equal disc degree, and reduced bases with matching diagonal leading
    coefficients."""
    data = sweep_data(cfg)
    violations = []
    instances, pairs = _levelled_pairs(data, disc_window=False)
    for r1, r2, _ in pairs:
        if r1.minima != r2.minima or r1.disc.degree != r2.disc.degree:
            violations.append(
                Violation(
                    "minima",
                    _witness_pair(r1, r2),
                    observed={
                        "minima": [list(r1.minima), list(r2.minima)],
                        "disc_degrees": [r1.disc.degree, r2.disc.degree],
                    },
                    expected="equal minima and disc degrees",
                )
            )
        elif not _leading_coeffs_matchable(r1.rep, r2.rep):
            violations.append(
                Violation(
                    "minima",
                    _witness_pair(r1, r2),
                    observed="no reduced basis matches diagonal leading coefficients",
                    expected="matchable leading coefficients",
                )
            )
    stats = {"classes": len(data.records)}
    return _finish("minima", cfg, instances, violations, stats, cfg.q <= 3)


def _leading_coeffs_matchable(rep1, rep2):
    """Whether some reduced image of rep2 under GL_2(F_q) has the diagonal
    leading coefficients of rep1.

    With A = lc a, C = lc c, the constant U of determinant d that keep
    rep2 reduced carry (A, C) to (alpha^2 A, (d / alpha)^2 C) where
    deg a < deg c, and to (N, d^2 A C / N), for every N != 0, where
    deg a = deg c (A X^2 + C Y^2 is anisotropic, so it represents every
    N).  So the pair matches when A1 A2 and C1 C2 are squares, or where
    deg a = deg c when A1 C1 A2 C2 is."""
    F = rep1.field
    a1, _, c1 = rep1.binary_coeffs()
    a2, _, c2 = rep2.binary_coeffs()
    a_leads, c_leads = F.mul(a1.lc(), a2.lc()), F.mul(c1.lc(), c2.lc())
    if a2.degree < c2.degree:
        return F.is_square(a_leads) and F.is_square(c_leads)
    return F.is_square(F.mul(a_leads, c_leads))


def verify_disc_recovery(cfg):
    """V_(3m-2)-equal pairs share their discriminant square class."""
    data = sweep_data(cfg)
    violations = []
    instances, pairs = _levelled_pairs(data, disc_window=True)
    for r1, r2, window in pairs:
        if r1.disc != r2.disc:  # canonical discs: equality iff same class
            violations.append(
                Violation(
                    "disc",
                    _witness_pair(r1, r2),
                    observed="equal V_%d but distinct disc classes" % window,
                    expected="equal disc square classes",
                )
            )
    stats = {"classes": len(data.records)}
    return _finish("disc", cfg, instances, violations, stats, cfg.q <= 3)


def verify_equiv_theorems(cfg):
    """(i) same disc, same minima, equal V_(mu_2) force equivalence;
    (ii) equal V_(3m-2) forces equivalence; plus distinguishing-degree
    statistics over all inequivalent pairs."""
    data = sweep_data(cfg)
    violations = []
    instances = 0
    # (i): within one canonical disc and minima bucket, compare at mu_2;
    # records come disc by disc, so the buckets do too
    buckets = {}
    for rec in data.records:
        buckets.setdefault((rec.disc.key(), rec.minima), []).append(rec)
    for (_, minima), bucket in buckets.items():
        instances += comb(len(bucket), 2)
        for r1, r2 in data.equal_set_pairs(bucket, minima[1]):
            violations.append(
                Violation(
                    "equiv",
                    _witness_pair(r1, r2),
                    observed="same disc and minima, equal V_%d, inequivalent"
                    % minima[1],
                    expected="equivalent forms",
                )
            )
    # (ii): all pairs at the 3m-2 window, levelled by max disc degree
    level_instances, pairs = _levelled_pairs(data, disc_window=True)
    instances += level_instances
    for r1, r2, window in pairs:
        violations.append(
            Violation(
                "equiv",
                _witness_pair(r1, r2),
                observed="equal V_%d, inequivalent" % window,
                expected="equivalent forms",
            )
        )
    hist = sorted(data.distinguishing_histogram.items())
    stats = {
        "classes": len(data.records),
        "distinguishing_degree_histogram": {str(k): v for k, v in hist},
        "undistinguished_pairs": data.undistinguished_pairs,
    }
    return _finish("equiv", cfg, instances, violations, stats, cfg.q <= 3)


# -- smoothness identity and quadric counts ---------------------------------


def _pencil_quartic(field, a, b, bp, c):
    """det(X M1 + M2) for M1 = diag(1,-delta,-1,delta) and the two-block M2."""
    F = field
    d = F.delta
    x = F.t  # the pencil variable
    zero = F.zero
    m = [
        [x + F.constant(a), F.constant(b), zero, zero],
        [F.constant(b), -F.constant(d) * x + F.constant(c), zero, zero],
        [zero, zero, -x - F.constant(a), -F.constant(bp)],
        [zero, zero, -F.constant(bp), F.constant(d) * x - F.constant(c)],
    ]
    return _mat_det(tuple(tuple(row) for row in m))


def _smooth_rhs(field, a, b, bp, c):
    F = field
    d = F.delta
    mul, add, sub = F.mul, F.add, F.sub
    diff = sub(b, bp)
    tot = add(b, bp)
    ad_c = add(mul(a, d), c)
    term1 = sub(mul(ad_c, ad_c), mul(4 % F.p, mul(d, mul(bp, bp))))
    term2 = sub(mul(ad_c, ad_c), mul(4 % F.p, mul(d, mul(b, b))))
    out = mul(F.pow(d, 4), mul(F.pow(diff, 4), mul(F.pow(tot, 4), mul(term1, term2))))
    return out


def _resultant(f, g):
    """Res(f, g) via the Sylvester matrix over the coefficient field."""
    F = f.field
    n, m = f.degree, g.degree
    size = n + m
    rows = []
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for i in range(m):
        rows.append([0] * i + fc + [0] * (size - n - 1 - i))
    for i in range(n):
        rows.append([0] * i + gc + [0] * (size - m - 1 - i))
    # Gaussian elimination determinant over F_q
    det = 1
    mat = [row[:] for row in rows]
    for col in range(size):
        pivot = next((r for r in range(col, size) if mat[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = F.neg(det)
        det = F.mul(det, mat[col][col])
        inv = F.inv(mat[col][col])
        for r in range(col + 1, size):
            if mat[r][col]:
                factor = F.mul(mat[r][col], inv)
                for cc in range(col, size):
                    mat[r][cc] = F.sub(mat[r][cc], F.mul(factor, mat[col][cc]))
    return det


def smooth_discriminant_identity(cfg):
    """Repeated factor of det(X M1 + Y M2) iff the closed-form invariant
    vanishes, over seeded random coefficient tuples."""
    F = prime_field(cfg.q)
    rng = random.Random(cfg.seed)
    violations = []
    ratios = set()
    instances = 0
    while instances < cfg.samples:
        a, b, bp, c = (rng.randrange(cfg.q) for _ in range(4))
        if (a, b, bp, c) == (0, 0, 0, 0):
            continue
        instances += 1
        quartic = _pencil_quartic(F, a, b, bp, c)
        deriv = quartic.derivative()
        repeated = not is_squarefree(quartic)
        disc_res = _resultant(quartic, deriv)
        lead_inv = F.inv(quartic.lc())
        disc_norm = F.mul(disc_res, lead_inv)
        rhs = _smooth_rhs(F, a, b, bp, c)
        if repeated != (disc_norm == 0):
            violations.append(
                Violation(
                    "smooth",
                    {"tuple": [a, b, bp, c]},
                    observed={"gcd_repeated": repeated, "resultant_disc": disc_norm},
                    expected="gcd and resultant criteria agree",
                )
            )
        if repeated != (rhs == 0):
            violations.append(
                Violation(
                    "smooth",
                    {"tuple": [a, b, bp, c]},
                    observed={"repeated_factor": repeated, "invariant": rhs},
                    expected="repeated factor iff invariant vanishes",
                )
            )
        if not repeated and rhs:
            ratios.add(F.mul(disc_norm, F.inv(rhs)))
    stats = {"proportionality_ratios": sorted(ratios)}
    return _finish("smooth", cfg, instances, violations, stats, False)


def _projective_points(q):
    """Representatives of P^3(F_q): first nonzero coordinate scaled to 1."""
    chunks = []
    for lead in range(4):
        free = 3 - lead
        count = q**free
        pts = np.zeros((count, 4), dtype=np.int64)
        pts[:, lead] = 1
        idx = np.arange(count)
        for j in range(free):
            pts[:, lead + 1 + j] = (idx // q**j) % q
        chunks.append(pts)
    return np.concatenate(chunks)


def _quadric_matrices(q, delta, a, b, bp, c):
    m1 = np.zeros((4, 4), dtype=np.int64)
    m1[0, 0], m1[1, 1], m1[2, 2], m1[3, 3] = 1, (-delta) % q, q - 1, delta
    m2 = np.zeros((4, 4), dtype=np.int64)
    m2[0, 0], m2[0, 1], m2[1, 0], m2[1, 1] = a, b, b, c
    m2[2, 2], m2[2, 3], m2[3, 2], m2[3, 3] = (-a) % q, (-bp) % q, (-bp) % q, (-c) % q
    return m1, m2


def count_quadric_intersection(q, delta, coeffs):
    """Exhaustive point count of the intersection of the two quadrics in P^3."""
    a, b, bp, c = coeffs
    pts = _projective_points(q)
    m1, m2 = _quadric_matrices(q, delta, a, b, bp, c)
    v1 = np.einsum("ni,ij,nj->n", pts, m1, pts) % q
    v2 = np.einsum("ni,ij,nj->n", pts, m2, pts) % q
    return int(((v1 == 0) & (v2 == 0)).sum())


def quadric_curve_count(cfg):
    """Hasse window audit on smooth intersections: |count - (q+1)| <= 2 sqrt q
    and never as many as 2(q+1) points."""
    F = prime_field(cfg.q)
    q = cfg.q
    rng = random.Random(cfg.seed)
    violations = []
    counts = []
    instances = 0
    while instances < cfg.samples:
        a, b, bp, c = (rng.randrange(q) for _ in range(4))
        if _smooth_rhs(F, a, b, bp, c) == 0:
            continue
        instances += 1
        n = count_quadric_intersection(q, F.delta, (a, b, bp, c))
        counts.append(n)
        if (n - q - 1) ** 2 > 4 * q:
            violations.append(
                Violation(
                    "quadric",
                    {"tuple": [a, b, bp, c]},
                    observed=n,
                    expected=f"count within Hasse window around {q + 1}",
                )
            )
        if n >= 2 * (q + 1):
            violations.append(
                Violation(
                    "quadric",
                    {"tuple": [a, b, bp, c]},
                    observed=n,
                    expected=f"smooth instance below 2(q+1) = {2 * (q + 1)}",
                )
            )
    # a singular instance built from one form against itself shows the
    # 2(q+1) lower bound that rules out smoothness
    demo = None
    for _ in range(100):
        a, b, c = (rng.randrange(q) for _ in range(3))
        if (a, b, c) == (0, 0, 0):
            continue
        n = count_quadric_intersection(q, F.delta, (a, b, b, c))
        demo = {"tuple": [a, b, b, c], "count": n, "at_least": 2 * (q + 1)}
        if n >= 2 * (q + 1):
            break
    stats = {
        "min_count": min(counts) if counts else None,
        "max_count": max(counts) if counts else None,
        "singular_demo": demo,
    }
    return _finish("quadric", cfg, instances, violations, stats, False)


# -- ternary family ----------------------------------------------------------


def ternary_family_form(field, a):
    """X^2 + t Y^2 - delta (t + a^2) Z^2 for a unit a."""
    t, d = field.t, field.constant(field.delta)
    aa = field.mul(a, a)
    return Form.diagonal([field.one, t, -d * (t + aa)])


def _linear_place_classes(field, digits, root):
    """(valuation, residue char) of each polynomial at the place t - root.

    Row f of `digits` holds the coefficients of f.  Its Taylor
    coefficients at root, c_j = sum_i C(i, j) root^(i - j) f_i, are one
    triangular matrix product mod q.  v is the least j with c_j != 0 and
    the residue char is chi(c_v), since f = (t - root)^v u with
    u(root) = c_v.  A zero row gets v = its length and char 0.
    """
    q = field.q
    n = digits.shape[1]
    taylor = np.array(
        [
            [comb(i, j) * pow(root, i - j, q) % q if i >= j else 0 for j in range(n)]
            for i in range(n)
        ]
    )
    coeffs = digits @ taylor % q
    found = coeffs != 0
    v = np.where(found.any(axis=1), found.argmax(axis=1), n)
    lowest = np.take_along_axis(coeffs, np.minimum(v, n - 1)[:, None], axis=1)
    return v, _char_table(field)[lowest[:, 0]]


def _infinity_classes(field, digits):
    """(deg f mod 2, chi(lc f)) of each polynomial, its square class in
    F_q((1/t)), since f / (lc f t^deg f) is a 1-unit and so a square (q
    odd); a zero row gets char 0."""
    n = digits.shape[1]
    deg = n - 1 - (digits[:, ::-1] != 0).argmax(axis=1)
    lc = np.take_along_axis(digits, deg[:, None], axis=1)[:, 0]
    return deg % 2, _char_table(field)[lc]


def _char_table(field):
    return np.array(field.chars)


def _class_ids(parts, chars):
    """One integer per (part, char) class; -1 for char 0 (f = 0)."""
    return np.where(chars == 0, -1, 2 * parts + (chars > 0))


def _per_class(field, classes, decide, start=0):
    """decide(f) for the keys f = start, start + 1, ..., where classes[i]
    is the class of key start + i: called once per class, on its least
    key, and read back for the others."""
    _, first, inverse = np.unique(classes, return_index=True, return_inverse=True)
    answers = [decide(field.poly_from_key(start + i)) for i in first.tolist()]
    return np.array(answers, dtype=bool)[inverse]


def _locally(field, classes, decider):
    """A local decider's answer for every key f: f = 0 is represented at
    every place, and the keys f >= 1, of classes classes[f - 1], are
    decided once per class."""
    return np.r_[True, _per_class(field, classes, decider, start=1)]


def ternary_family_check(cfg, window=6):
    """The rank-3 family shares representation sets while discriminants
    differ, and membership matches local representability everywhere.

    Local-everywhere means: at the place t (the one non-trivial finite
    condition), at the other bad place t + a^2 (checked to be vacuous),
    and at infinity.  The t-only biconditional fails for values in the
    square class excluded at infinity; those mismatches are recorded in
    stats rather than as violations, and each one is required to be of
    exactly that shape (local at t but excluded at infinity).

    The form reads only a^2, so a and q - a give one Gram matrix: V_k and
    the local answers are computed once per distinct form, (q - 1)/2 of
    them, and read back for each unit a, which is still compared and
    reported on its own.  The forms are diagonal, so `repset_upto` sums
    their V_k over the orthogonal Z-coordinate instead of looping over it,
    and every form shares the binary block X^2 + t Y^2, whose distinct
    keys `repset` enumerates once and keeps.  The values f of
    degree <= window - 2 are checked as key arrays.  At the linear places
    t and t + a^2 the decider's answer depends on f only through its
    (valuation, residue char) class, and at infinity only through its
    square class; so each class is decided once, on its least key, and
    read back for every key in it.  A polynomial is built only for a value
    that makes a violation.
    """
    F = prime_field(cfg.q)
    violations = []
    instances = 0
    forms = {a: ternary_family_form(F, a) for a in range(1, cfg.q)}
    distinct = {}  # Gram matrix -> the least a that gives it, and the form
    for a, form in forms.items():
        distinct.setdefault(form.gram, (a, form))
    sets = {
        gram: repset_upto(form, window, budget=cfg.budget)
        for gram, (_, form) in distinct.items()
    }
    units = sorted(forms)
    for i, a in enumerate(units):
        for b in units[i + 1 :]:
            instances += 1
            same = np.array_equal(
                sets[forms[a].gram].keys, sets[forms[b].gram].keys
            )
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
    digits = _coeff_rows(F.q, lower + 1)  # row f: the coefficients of f
    nonzero = digits[1:]
    at_t = _class_ids(*_linear_place_classes(F, nonzero, 0))
    at_inf = _class_ids(*_infinity_classes(F, digits))
    answers = {}  # by Gram matrix: (global, local at t, at t + a^2, at infinity)
    for gram, (a, form) in distinct.items():
        aa = F.mul(a, a)
        at_other = _class_ids(*_linear_place_classes(F, nonzero, F.neg(aa)))
        in_global = np.zeros(len(digits), dtype=bool)
        in_global[sets[gram].restrict(lower).keys] = True
        answers[gram] = (
            in_global,
            _locally(F, at_t, LocalRepDecider(form, F.t)),
            _locally(F, at_other, LocalRepDecider(form, F.t + F.poly((aa,)))),
            _per_class(F, at_inf, lambda f: represented_at_infinity(form, f)),
        )
    t_only_mismatches = 0
    uncharacterized = 0
    for a in units:
        in_global, in_local_t, in_other, at_infinity = answers[forms[a].gram]
        instances += len(digits)
        biconditional = in_global != (in_local_t & at_infinity)
        t_only = in_global != in_local_t
        t_only_mismatches += int(t_only.sum())
        uncharacterized += int(
            (t_only & (in_global | ~in_local_t | at_infinity)).sum()
        )
        for key in np.flatnonzero(biconditional | ~in_other).tolist():
            f = F.poly_from_key(key)
            if biconditional[key]:
                violations.append(
                    Violation(
                        "ternary",
                        {"a": a, "f": str(f)},
                        observed={
                            "global": bool(in_global[key]),
                            "local_at_t": bool(in_local_t[key]),
                            "at_infinity": bool(at_infinity[key]),
                        },
                        expected="global iff local at t and at infinity",
                    )
                )
            if not in_other[key]:
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


# -- class-number-one survey --------------------------------------------------


def cn1_survey(cfg):
    """Exhaustive deg <= 2 prediction audit plus sampled deg-3 discriminants
    (expect class number >= 2 when q > 13; below that failures are recorded
    as expected exceptions)."""
    F = prime_field(cfg.q)
    rng = random.Random(cfg.seed)
    # indices into the cubic canonical discriminants: only the chosen are built
    count = canonical_disc_count(F, 3)
    chosen = sorted(rng.sample(range(count), min(cfg.samples, count)))
    cubics = (canonical_disc_at(F, 3, idx) for idx in chosen)
    violations = []
    instances = 0
    h_one_at_deg3 = []
    for disc, table in _primitive_tables(F, chain(canonical_discs(F, 2), cubics)):
        for ci in range(len(table.proper_counts)):
            instances += 1
            observed = len(table.genera[table.genus_index_of_class(ci)])
            # the criterion predicts class number >= 2 at every deg D >= 3
            predicted = disc.degree <= 2 and cn1_prediction(
                table.class_representatives[ci]
            )
            if predicted == (observed == 1):
                continue
            rep = table.class_representatives[ci]
            expected = "class number 1" if predicted else "class number >= 2"
            if disc.degree > 2:
                expected += " at disc degree %d" % disc.degree
                h_one_at_deg3.append(form_to_string(rep))
            violations.append(
                Violation(
                    "cn1",
                    {"form": form_to_string(rep), "disc": str(disc)},
                    observed=observed,
                    expected=expected,
                )
            )
    stats = {"deg3_sampled": len(chosen), "h_one_deg3_forms": h_one_at_deg3[:20]}
    return _finish("cn1", cfg, instances, violations, stats, cfg.q <= 13)


def _square_free_discs(field, max_degree, budget):
    """(m, coefficient rows) of the canonical discriminants of each degree
    m <= max_degree with no square factor, in order: a sieve over the
    indices of degree m that strikes out lc p^2 r, on rows, for every place
    p of degree k <= m / 2 and monic r of degree m - 2k.  BudgetError before
    any sieve once the indices of max_degree, the most, exceed the budget."""
    q, count = field.q, canonical_disc_count(field, max_degree)
    if count > budget:
        raise BudgetError(f"degree {max_degree} has {count} discriminants (budget {budget})")
    for m in range(max_degree + 1):
        leads = (1, field.delta) if m % 2 else (field.delta,)
        struck = np.zeros(canonical_disc_count(field, m), dtype=bool)
        digits = q ** np.arange(m + 1)
        for p in _places(field, m // 2):
            size = q ** (m - 2 * p.degree)
            r = np.arange(size, 2 * size)[:, None] // digits % q  # monic, by key
            square = np.convolve(p.coeffs, p.coeffs) % q
            rows = sum(c * np.roll(r, j, axis=1) for j, c in enumerate(square.tolist()))
            for i, lead in enumerate(leads):
                struck[i * q**m + (lead * rows[:, :m] % q) @ digits[:m]] = True
        lead, low = np.divmod(np.flatnonzero(~struck), q**m)
        rows = np.empty((len(low), m + 1), dtype=np.int64)
        rows[:, :m] = low[:, None] // digits[:m] % q
        rows[:, m] = np.array(leads)[lead]
        yield m, rows


def comp_bridge_sweep(cfg):
    """Composition bridge |G_D| = 2 |Pic(B)| (deg D >= 1) for all square-free
    definite discriminants up to the configured degree, plus genus counts
    2^r for the square-free tables and, at degree 2g+1 or 2g+2, the Weil
    bound (sqrt(q)-1)^(2g) <= h <= (sqrt(q)+1)^(2g), where |Pic O| = h or 2h.

    The checks read the totals of each class batch on arrays; a
    discriminant becomes a polynomial only where it fails one."""
    F = prime_field(cfg.q)
    violations = []
    instances = 0
    for m, coeffs in _square_free_discs(F, cfg.max_disc_degree, cfg.budget):
        weil = weil_interval(cfg.q, (m - 1) // 2) if m else None
        for batch in class_batches(F, coeffs, primitive_only=True):
            instances += batch.n
            violations += _bridge_violations(batch, weil)
    return _finish("comp", cfg, instances, violations, {}, False)


def _bridge_violations(batch, weil):
    """The violations of the bridge checks in a primitive class batch, disc
    by disc; `weil` is the interval of h at its degree, None at degree 0."""
    pic, expected = _bridge_orders(batch)
    h = pic // (2 - batch.m % 2)
    genera, equal = batch.genus_totals
    outside = (h < weil[0]) | (h > weil[1]) if weil else np.zeros(batch.n, dtype=bool)
    unequal_bridge = batch.proper != expected
    genera_expected = 2**batch.place_total
    failing = outside | unequal_bridge | (genera != genera_expected) | ~equal
    out = []
    for i in np.flatnonzero(failing).tolist():
        disc = str(batch.disc(i))
        if outside[i]:
            out.append(
                Violation(
                    "comp",
                    {"disc": disc},
                    observed={"pic_order": int(pic[i]), "h": int(h[i])},
                    expected={"weil_interval": list(weil)},
                )
            )
        if unequal_bridge[i]:
            out.append(
                Violation(
                    "comp",
                    {"disc": disc},
                    observed=int(batch.proper[i]),
                    expected=int(expected[i]),
                )
            )
        if genera[i] != genera_expected[i]:
            out.append(
                Violation(
                    "comp",
                    {"disc": disc},
                    observed={"genera": int(genera[i])},
                    expected={"genera": int(genera_expected[i])},
                )
            )
        if not equal[i]:
            counts = set(ClassTable(batch, i).proper_counts_per_genus())
            out.append(
                Violation(
                    "comp",
                    {"disc": disc},
                    observed={"per_genus_proper_counts": sorted(counts)},
                    expected="equal proper-class counts across genera",
                )
            )
    return out


def run_check(name, cfg):
    table = {
        "minima": verify_minima_recovery,
        "disc": verify_disc_recovery,
        "equiv": verify_equiv_theorems,
        "smooth": smooth_discriminant_identity,
        "quadric": quadric_curve_count,
        "ternary": ternary_family_check,
        "cn1": cn1_survey,
        "comp": comp_bridge_sweep,
    }
    if name not in table:
        raise ValueError(f"unknown check {name!r}; choose from {CHECKS}")
    return table[name](cfg)
