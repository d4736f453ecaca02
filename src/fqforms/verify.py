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
classes never need their large representation sets.  The records are
columns read off the class batches (disc index, class index, coefficient
rows of the representative), and a record becomes a `Form` only where a
check compares its exact set or prints it.

Checks whose hypotheses carry a lower bound on q ("q > 3", "q > 13") can
also run just below the threshold; they then record failures as expected
exceptions instead of violations, since counterexamples are known there.
"""

from __future__ import annotations

import collections
import random
from dataclasses import asdict, dataclass, field as dataclass_field
from itertools import combinations
from math import comb

import numpy as np

from .classify import ClassTable, _runs, canonical_disc_count, class_batches
from .classify import cn1_prediction
from .errors import DEFAULT_BUDGET, BudgetError
from .ffpoly import SquareClass, _places, is_squarefree, prime_field
from .localgenus import LocalRepDecider, represented_at_infinity
from .picard import _bridge_orders, weil_interval
from .qform import Form, _mat_det, form_to_string
from .repset import _coeff_rows, _row_degrees, repset_keys_batch, repset_upto

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


# the classes of a sweep as columns, one entry per class: the index of its
# canonical discriminant, by degree and then in `_canonical_rows` order, its
# index in the class table, and the (3, width) coefficient rows of its
# representative (a, b, c)
Inventory = collections.namedtuple("Inventory", "disc_index class_index rows")


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


def _degree_digests(q, rows, minima, d, budget):
    """A (len(rows), 2) uint64 array: per form, given by the coefficient
    rows of its (a, b, c), all with the given minima, the two lanes of the
    set digest of its V_d keys of degree exactly d (every key of V_d at
    d = 0).  Lane l is the sum mod 2^64 of splitmix64(key + salt_(l, d))
    over those keys, taken chunk by chunk over the keys of
    `repset_keys_batch`."""
    low = q**d if d else 0
    salts = _splitmix64(np.arange(2 * d, 2 * d + 2, dtype=np.uint64))
    out = np.empty((len(rows), 2), dtype=np.uint64)
    row = 0
    for keys, starts in repset_keys_batch(q, rows, minima, d, budget=budget):
        top = keys >= low
        values = keys.view(np.uint64)
        # every form owns key 0, so no run of `starts` is empty
        for lane, salt in enumerate(salts):
            hashed = _splitmix64(values + salt)
            hashed *= top
            out[row : row + len(starts), lane] = np.add.reduceat(hashed, starts)
        row += len(starts)
    return out


def _first_seen(*columns):
    """Group the positions of the rows of `columns` by value: a list of
    position arrays, each ascending, in order of first position (a stable
    sort, not `np.unique`, which would import `numpy.ma`)."""
    order = np.lexsort(columns[::-1])
    starts, lengths = _runs(*(column[order] for column in columns))
    groups = [order[s : s + n] for s, n in zip(starts.tolist(), lengths.tolist())]
    groups.sort(key=lambda positions: positions[0])
    return groups


def _pairs(sizes):
    """The number of pairs within groups of the given sizes."""
    return int((sizes * (sizes - 1) // 2).sum())


class SweepData:
    """Class records refined by their representation sets V_0, V_1, ...

    Record i is entry i of an `Inventory`; an entry may repeat.  The
    records are held as columns: `minima` (deg a, deg c) and `degree`, the
    disc degree, are read off the coefficient rows, and a record's form
    and discriminant are built only where a check reads them (`rep`).
    All records start in one group.  At each degree d = 0..kmax, V_d is
    enumerated only for records in a group of two or more, by
    `repset_keys_batch` over the rows of the tied records of each minima
    (class representatives are already reduced), buckets in order of first
    member.  Below mu_2, V_d = {a x^2 : deg <= d} depends on a alone, so
    one row per distinct a of a bucket is enumerated and each record gets
    its a's digest.  A record's digest is a 128-bit set digest: two uint64
    lanes, each a sum mod 2^64 of hashed keys, to which d adds its keys of
    degree exactly d (`_degree_digests`).  Groups are split by digest with
    one `lexsort` over (group, lane 0, lane 1); a record left alone is
    resolved at d.  Since V_d = {f in V_k : deg f <= d} for every k >= d,
    a V_d that no other record shares stays unshared at every larger k, so
    a resolved record needs no larger V_k.  Refinement stops once no group
    of two or more is left.  Equal digests do not prove equal sets;
    `equal_set_pairs` compares the exact sets of every tied record.

    `resolved_at[i]` is the least d at which V_d of record i differs from
    V_d of every other record, or kmax + 1 if another record ties with it
    up to V_kmax; the record is a singleton for every k >= resolved_at.
    `digests` holds the (rows, 2) digests by record, then degree: row
    offsets[i] + d is the digest of V_d of record i (summed over degrees
    0..d) for each d < offsets[i + 1] - offsets[i], the degrees at which
    the refinement enumerated it, i.e. while it was in a group of two or
    more.
    """

    def __init__(self, cfg, inventory):
        self.field = prime_field(cfg.q)
        self.cfg = cfg
        self.kmax = max(3 * cfg.max_disc_degree - 2, 0)
        self.disc_index, self.class_index, self.rows = inventory
        self.minima = _row_degrees(self.rows[:, ::2])
        self.degree = self.minima.sum(axis=1)
        # least degree at which two records differ -> number of such pairs
        self.distinguishing_histogram = {}
        # pairs still tied at V_kmax
        self.undistinguished_pairs = 0
        self._refine()

    def __len__(self):
        return len(self.rows)

    def rep(self, i):
        """The representative of record i, as a form."""
        return Form._trusted_binary(*map(self.field.poly, self.rows[i].tolist()))

    def _refine(self):
        budget, q, n = self.cfg.budget, self.field.q, len(self)
        resolved = np.zeros(n, dtype=np.int64)
        total = np.zeros((n, 2), dtype=np.uint64)
        # tied records: ascending within a group, groups in order of first member
        live = np.arange(n if n > 1 else 0)
        group = np.zeros(len(live), dtype=np.int64)
        enumerated = []  # (live, digests) per degree
        for d in range(self.kmax + 1):
            if not len(live):
                break
            lanes = np.empty((len(live), 2), dtype=np.uint64)  # degree d alone
            for at in _first_seen(*self.minima[live].T):
                members = live[at]
                minima = tuple(self.minima[members[0]].tolist())
                if d < minima[1]:
                    firsts = _first_seen(*self.rows[members, 0].T)
                    heads = members[[pos[0] for pos in firsts]]
                    own = _degree_digests(q, self.rows[heads], minima, d, budget)
                    for row, pos in zip(own, firsts):
                        lanes[at[pos]] = row
                else:
                    lanes[at] = _degree_digests(q, self.rows[members], minima, d, budget)
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
        self.resolved_at = resolved
        ids = np.concatenate([at for at, _ in enumerated] or [live])
        rows = np.concatenate([lanes for _, lanes in enumerated] or [total[:0]])
        enumerated.clear()
        self.digests = rows[np.argsort(ids, kind="stable")]  # by record, then degree
        self.offsets = np.concatenate([[0], np.cumsum(np.bincount(ids, minlength=n))])

    def equal_set_pairs(self, records, k):
        """Pairs (i, j) of distinct records, given by their positions
        `records`, with V_k(i) = V_k(j): by bucket in order of first member,
        then (i < j) within a bucket.

        A record resolved at or below k shares its V_k with no record, so
        only records still tied at k are bucketed by their V_k digest.
        Each record of a bucket of two or more has its form built and its
        V_k enumerated once, and the members whose keys are equal are
        paired.
        """
        records = np.asarray(records, dtype=np.int64)
        tied = records[self.resolved_at[records] > k]
        lanes = self.digests[self.offsets[tied] + k]
        out = []
        for at in _first_seen(*lanes.T):
            if len(at) < 2:
                continue
            members = tied[at].tolist()
            same = {}  # exact V_k keys -> bucket positions of their records
            for pos, i in enumerate(members):
                keys = repset_upto(self.rep(i), k, budget=self.cfg.budget).keys
                same.setdefault(keys.tobytes(), []).append(pos)
            pairs = sorted(p for pos in same.values() for p in combinations(pos, 2))
            out.extend((members[i], members[j]) for i, j in pairs)
        return out


def _canonical_rows(field, m, indices):
    """The (len(indices), m + 1) coefficient rows of the canonical
    discriminants of degree m at `indices` in canonical order: by leading
    coefficient, 1 before delta (delta alone at even m), then by the key of
    the lower part."""
    q = field.q
    leads = np.array((1, field.delta) if m % 2 else (field.delta,))
    lead, low = np.divmod(np.asarray(indices, dtype=np.int64), q**m)
    rows = np.empty((len(low), m + 1), dtype=np.int64)
    rows[:, :m] = low[:, None] // q ** np.arange(m) % q
    rows[:, m] = leads[lead]
    return rows


def _primitive_batches(field, picks):
    """The primitive class batches of the canonical discriminants of
    degree m at `indices`, for each (m, indices) of `picks` in order, fed
    to `class_batches` as coefficient rows."""
    for m, indices in picks:
        yield from class_batches(field, _canonical_rows(field, m, indices), True)


def _inventory(field, max_degree):
    """The `Inventory` of every primitive class of the canonical
    discriminants of degree <= max_degree, off their class batches, with
    rows in the narrowest unsigned type that holds q - 1."""
    picks = [(m, range(canonical_disc_count(field, m))) for m in range(max_degree + 1)]
    dtype, columns, start = np.min_scalar_type(field.q - 1), [], 0
    for batch in _primitive_batches(field, picks):
        at, firsts = batch.classes.at, np.array(batch.bounds)
        rows = np.zeros((len(at), 3, max_degree + 1), dtype=dtype)
        rows[..., : batch.m + 1] = batch.class_rows(0, len(at))
        columns.append((start + at, np.arange(len(at)) - firsts[at], rows))
        start += batch.n
    return Inventory(*map(np.concatenate, zip(*columns)))


def sweep_data(cfg):
    """The `SweepData` of every primitive class of the canonical
    discriminants up to the configured degree; BudgetError before any
    discriminant is sieved once those of the top degree exceed the budget."""
    field = prime_field(cfg.q)
    _check_disc_count(field, cfg.max_disc_degree, cfg.budget)
    return SweepData(cfg, _inventory(field, cfg.max_disc_degree))


def _witness_pair(data, i, j):
    r1, r2 = data.rep(i), data.rep(j)
    return {
        "form": form_to_string(r1),
        "other_form": form_to_string(r2),
        "disc": str(r1.discriminant()),
        "other_disc": str(r2.discriminant()),
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
    the records of disc degree <= m, and a pair (i, j, k) with equal V_k,
    k = m or max(3m - 2, 0) with `disc_window`, is reported at its larger
    disc degree."""
    instances, pairs = 0, []
    for m in range(data.cfg.max_disc_degree + 1):
        level = np.flatnonzero(data.degree <= m)
        instances += comb(len(level), 2)
        k = max(3 * m - 2, 0) if disc_window else m
        pairs.extend(
            (i, j, k)
            for i, j in data.equal_set_pairs(level, k)
            if max(data.degree[i], data.degree[j]) == m
        )
    return instances, pairs


def verify_minima_recovery(cfg):
    """Equal V_m (m = max disc degree of the pair) forces equal minima,
    equal disc degree, and reduced bases with matching diagonal leading
    coefficients."""
    data = sweep_data(cfg)
    violations = []
    instances, pairs = _levelled_pairs(data, disc_window=False)
    minima, degree = data.minima.tolist(), data.degree.tolist()
    for i, j, _ in pairs:
        if minima[i] != minima[j] or degree[i] != degree[j]:
            violations.append(
                Violation(
                    "minima",
                    _witness_pair(data, i, j),
                    observed={
                        "minima": [minima[i], minima[j]],
                        "disc_degrees": [degree[i], degree[j]],
                    },
                    expected="equal minima and disc degrees",
                )
            )
        elif not _leading_coeffs_matchable(data.rep(i), data.rep(j)):
            violations.append(
                Violation(
                    "minima",
                    _witness_pair(data, i, j),
                    observed="no reduced basis matches diagonal leading coefficients",
                    expected="matchable leading coefficients",
                )
            )
    stats = {"classes": len(data)}
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
    for i, j, window in pairs:
        if data.disc_index[i] != data.disc_index[j]:  # canonical: same class
            violations.append(
                Violation(
                    "disc",
                    _witness_pair(data, i, j),
                    observed="equal V_%d but distinct disc classes" % window,
                    expected="equal disc square classes",
                )
            )
    stats = {"classes": len(data)}
    return _finish("disc", cfg, instances, violations, stats, cfg.q <= 3)


def verify_equiv_theorems(cfg):
    """(i) same disc, same minima, equal V_(mu_2) force equivalence;
    (ii) equal V_(3m-2) forces equivalence; plus distinguishing-degree
    statistics over all inequivalent pairs."""
    data = sweep_data(cfg)
    violations = []
    instances = 0
    # (i): within one canonical disc and minima bucket, compare at mu_2,
    # where two or more records are still tied there
    tied = data.resolved_at > data.minima[:, 1]
    for bucket in _first_seen(data.disc_index, data.minima[:, 0]):
        instances += comb(len(bucket), 2)
        if np.count_nonzero(tied[bucket]) < 2:
            continue
        mu2 = int(data.minima[bucket[0], 1])
        for i, j in data.equal_set_pairs(bucket, mu2):
            violations.append(
                Violation(
                    "equiv",
                    _witness_pair(data, i, j),
                    observed="same disc and minima, equal V_%d, inequivalent" % mu2,
                    expected="equivalent forms",
                )
            )
    # (ii): all pairs at the 3m-2 window, levelled by max disc degree
    level_instances, pairs = _levelled_pairs(data, disc_window=True)
    instances += level_instances
    for i, j, window in pairs:
        violations.append(
            Violation(
                "equiv",
                _witness_pair(data, i, j),
                observed="equal V_%d, inequivalent" % window,
                expected="equivalent forms",
            )
        )
    hist = sorted(data.distinguishing_histogram.items())
    stats = {
        "classes": len(data),
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
    # indices into the cubic canonical discriminants: only the chosen are sieved
    count = canonical_disc_count(F, 3)
    chosen = sorted(rng.sample(range(count), min(cfg.samples, count)))
    picks = [(m, range(canonical_disc_count(F, m))) for m in range(3)] + [(3, chosen)]
    violations = []
    instances = 0
    h_one_at_deg3 = []
    for batch in _primitive_batches(F, picks):
        for table in (ClassTable(batch, i) for i in range(batch.n)):
            for ci in range(len(table.proper_counts)):
                instances += 1
                observed = len(table.genera[table.genus_index_of_class(ci)])
                # the criterion predicts class number >= 2 at every deg D >= 3
                predicted = batch.m <= 2 and cn1_prediction(
                    table.class_representatives[ci]
                )
                if predicted == (observed == 1):
                    continue
                rep = table.class_representatives[ci]
                expected = "class number 1" if predicted else "class number >= 2"
                if batch.m > 2:
                    expected += " at disc degree %d" % batch.m
                    h_one_at_deg3.append(form_to_string(rep))
                violations.append(
                    Violation(
                        "cn1",
                        {"form": form_to_string(rep), "disc": str(table.disc)},
                        observed=observed,
                        expected=expected,
                    )
                )
    stats = {"deg3_sampled": len(chosen), "h_one_deg3_forms": h_one_at_deg3[:20]}
    return _finish("cn1", cfg, instances, violations, stats, cfg.q <= 13)


def _check_disc_count(field, max_degree, budget):
    """BudgetError once the canonical discriminants of `max_degree`, the
    most of any degree up to it, exceed `budget`."""
    count = canonical_disc_count(field, max_degree)
    if count > budget:
        raise BudgetError(f"degree {max_degree} has {count} discriminants (budget {budget})")


def _square_free_discs(field, max_degree, budget):
    """(m, coefficient rows) of the canonical discriminants of each degree
    m <= max_degree with no square factor, in order: a sieve over the
    indices of degree m that strikes out lc p^2 r, on rows, for every place
    p of degree k <= m / 2 and monic r of degree m - 2k.  BudgetError before
    any sieve once the indices of max_degree, the most, exceed the budget."""
    q = field.q
    _check_disc_count(field, max_degree, budget)
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
        yield m, _canonical_rows(field, m, np.flatnonzero(~struck))


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
