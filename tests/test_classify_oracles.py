"""The fast class-table paths against the slow, independent ones.

- `enumerate_forms` (the roots of each monic a read off one batch pass,
  `classify._monic_roots`) against the scan over every pair (a, b) with a
  of any leading coefficient, and against the per-disc `Poly` sieve that
  it replaced (`sieved_forms`), as `picard.enumerate_reduced_divisors` is
  against the same sieve;
- the assigned-character Jordan data at every divisor p of D, of forms of
  any content, against the p-adic Jordan diagonalization;
- `class_tables` (every discriminant of one degree built together on int
  arrays, in batches) against the per-discriminant `Poly` construction that
  it replaced, which reads the roots off the `square_roots_mod` oracle of
  tests/test_ffpoly.py, the places off `factor` and the content off
  `Form.is_primitive`, and against the orbit oracle below;
- `class_table` (one torus pass per discriminant, places read off the
  sieve) against two orbit passes over every U in GL_2(F_q), for det +-1
  and det 1, with genera from Jordan data only;
- `class_table` (classes read off the monic square roots, orbits only
  where deg a = deg c, genera from assigned characters) against one orbit
  pass over every enumerated form and one `genus_symbol` per class;
- `_class_keys` (the least monic image of every form under the 2(q + 1)
  units of the norm-one torus, in one pass per discriminant) against one
  `reduced_orbit` per class over the 2(q^2 - 1) units;
- genera from assigned characters against the Jordan path, at every
  discriminant and content, with no `genus_symbol` or Jordan
  diagonalization for a primitive table, and built on first read, after a
  sweep that builds none;
- genera from one numpy pass over a batch (characters as norms, the large
  place by reciprocity) against the per-class loop over `ffpoly._jacobi`
  that it replaced, and the characters of `_chars_at` against
  `residue_char` and the squares of each residue field.
"""

import random
import sys

import numpy as np
import pytest

from fqforms import classify, verify
from fqforms.classify import (
    ClassTable,
    _class_keys,
    canonical_disc_count,
    class_table,
    class_tables,
    enumerate_forms,
)
from fqforms.errors import CapabilityError
from fqforms.ffpoly import (
    _jacobi,
    _places,
    _sqrt_table,
    factor,
    is_squarefree,
    powmod,
    prime_field,
    residue_char,
)
from fqforms.localgenus import (
    INFINITY,
    GenusSymbol,
    _binary_hasse_at_infinity,
    _jordan_at_place,
    genus_symbol,
    hasse_invariant,
    jordan_invariants,
)
from fqforms.picard import enumerate_reduced_divisors
from fqforms.qform import Form, _poly_rows, is_definite_disc, key_powers
from fqforms.verify import SweepConfig
from tests.canonical import canonical_disc_at, canonical_discs
from tests.test_ffpoly import high_multiplicity_discs, square_roots_mod
from tests.test_qform import reduced_images, scanned_reduced_images

SCAN_CASES = [(3, 4), (5, 3), (7, 3)]


def discs_of_degree(field, m):
    """The canonical definite discriminants of degree m, in key order."""
    count = canonical_disc_count(field, m)
    return [canonical_disc_at(field, m, index) for index in range(count)]


def field_sqrt(field, a):
    """The smaller square root r in 1..q-1 of a nonzero square a."""
    r = _sqrt_table(field.q).get(a)
    if not r:
        raise ValueError("element is not a square")
    return min(r, field.q - r)
TABLE_CASES = [(3, 4), (5, 3), (7, 2)]
ORBIT_CASES = [(3, 4), (5, 4), (7, 3)]


def brute_force_forms(field, disc):
    """Every (a, b) with deg b < deg a <= deg disc / 2 and b^2 = disc mod a."""
    out = []
    for deg_a in range(disc.degree // 2 + 1):
        for lead in range(1, field.q):
            for low in range(field.q**deg_a):
                a = field.poly_from_key(low + lead * field.q**deg_a)
                for bkey in range(field.q**deg_a):
                    b = field.poly_from_key(bkey)
                    c, rem = divmod(b * b - disc, a)
                    if rem.is_zero():
                        out.append(Form.binary(a, b, c))
    return out


def sieved_forms(field, disc, primitive_only=False):
    """The forms of `enumerate_forms`, one disc at a time on `Poly` values,
    as it built them before the batch root path: the roots of each monic
    a_m from `square_roots_mod`, the content from `Form.is_primitive` where
    disc has a square factor, and (u a_m, b, c / u) for every unit u,
    ordered by (deg a, lead a, key of the low part of a, key of b)."""
    q = field.q
    binary = Form._trusted_binary
    square_free = is_squarefree(disc)  # a content g has g^2 | disc
    out = []
    for deg_a in range(disc.degree // 2 + 1):
        size = q**deg_a
        monic = []  # (b, c) per monic a_m, by key
        for a_m, roots in square_roots_mod(disc, deg_a):
            pairs = [(b, (b * b - disc) // a_m) for b in roots]
            if primitive_only and not square_free:
                pairs = [(b, c) for b, c in pairs if binary(a_m, b, c).is_primitive()]
            monic.append(pairs)
        for lead in range(1, q):
            inv = field.constant(field.inv(lead))
            for low in range(size):
                a = field.poly_from_key(low + lead * size)
                for b, c in monic[a.monic().key() - size]:
                    out.append(binary(a, b, c * inv))
    return out


def jordan_genus_symbol(form):
    """The genus symbol with Jordan diagonalization at every divisor of D."""
    d = form.discriminant()
    finite = tuple(
        sorted((p.key(), jordan_invariants(form, p)) for p, _ in factor(d)[1])
    )
    inf = (d.degree % 2, form.field.char(d.lc()), hasse_invariant(form, INFINITY))
    return GenusSymbol(d.key(), finite, inf)


def orbit_keys(form, q, dets):
    """Keys of the reduced images of `form` under det in `dets`, by the
    full scan over GL_2(F_q)."""
    _, images, _ = scanned_reduced_images(form, dets)
    powers = q ** np.arange(images[0].shape[1], dtype=np.int64)
    keys = np.stack([m @ powers for m in images], axis=1)
    return {tuple(row) for row in keys.tolist()}


def form_key(form):
    a, b, c = form.binary_coeffs()
    return (a.key(), b.key(), c.key())


def reduced_orbit(form, q):
    """Keys (a', b', c') of the reduced images of `form` under constant
    transformations with determinant +-1, and the subset reached by
    determinant 1, from the unit formula of `reduced_images`."""
    units, images = reduced_images(form, (1, -1))
    al, be, ga, de = units.T
    det_one = (al * de - be * ga) % q == 1
    powers = key_powers(q, images[0].shape[1])
    keys = np.stack([m @ powers for m in images], axis=1)
    orbit = {tuple(row) for row in keys.tolist()}
    proper = {tuple(row) for row in keys[det_one].tolist()}
    return orbit, proper


def orbit_walk(forms, orbits):
    """[(class, [proper classes])] of `forms`, as sorted index lists in
    order of first member.  Each class is seeded at its first unassigned
    form, and `orbits(seed)` gives the keys of the seed's reduced images
    under det U = +-1 and under det U = 1."""
    index = {form_key(f): i for i, f in enumerate(forms)}
    unassigned = set(range(len(forms)))
    out = []
    while unassigned:
        seed = min(unassigned)
        orbit, sl_orbit = orbits(forms[seed])
        members = sorted(index[k] for k in orbit if k in index)
        proper = sorted(index[k] for k in sl_orbit if k in index)
        rest = sorted(set(members) - set(proper))
        out.append((members, [proper, rest] if rest else [proper]))
        unassigned -= set(members)
    return out


def two_orbit_table(field, disc):
    """(classes, proper classes, genera) of primitive forms, the slow way."""
    forms = [f for f in brute_force_forms(field, disc) if f.is_primitive()]
    walk = orbit_walk(
        forms,
        lambda f: (orbit_keys(f, field.q, (1, -1)), orbit_keys(f, field.q, (1,))),
    )
    classes = [members for members, _ in walk]
    proper_classes = sorted(p for _, propers in walk for p in propers)
    by_symbol = {}
    for ci, cls in enumerate(classes):
        by_symbol.setdefault(jordan_genus_symbol(forms[cls[0]]), []).append(ci)
    return classes, proper_classes, sorted(by_symbol.values())


@pytest.mark.parametrize("q,deg", SCAN_CASES)
def test_enumerate_forms_matches_brute_force(q, deg):
    F = prime_field(q)
    for d in canonical_discs(F, deg):
        oracle = brute_force_forms(F, d)
        primitive = [f.binary_coeffs() for f in oracle if f.is_primitive()]
        assert [f.binary_coeffs() for f in enumerate_forms(F, d)] == [
            f.binary_coeffs() for f in oracle
        ]
        assert [f.binary_coeffs() for f in enumerate_forms(F, d, True)] == primitive


def sieved_divisors(d0):
    """The (u, v) of the reduced Mumford divisors of y^2 = d0 in
    `enumerate_reduced_divisors` order, off `square_roots_mod`."""
    out = [(d0.field.one, d0.field.zero)]
    for du in range(1, (d0.degree - 1) // 2 + 1):
        out.extend((u, v) for u, roots in square_roots_mod(d0, du) for v in roots)
    return out


# q -> (the top degree of the discs whose forms are compared, the degrees
# of the canonical discs among them, the degrees of the square-free
# canonical d0 whose divisors are); the forms of the canonical discs of
# ORBIT_CASES are compared in `assert_matches_orbit_oracle`, as
# `ClassTable.forms` is `enumerate_forms`
ROOT_CASES = {3: (6, (5, 6), (3, 5)), 5: (4, (), (3, 5)), 31: (0, (), ())}


@pytest.mark.parametrize("q", list(ROOT_CASES))
def test_monic_roots_match_sieve_oracle(q):
    # the batch root path against the per-disc `Poly` sieve it replaced, for
    # the forms of both contents, of canonical and of high-multiplicity
    # discs, and for the Mumford divisors (of t^5 + t + 3 at q = 31)
    F = prime_field(q)
    top, form_degrees, curve_degrees = ROOT_CASES[q]
    discs = [d for d in canonical_discs(F, top) if d.degree in form_degrees] + [
        d for d in high_multiplicity_discs(F) if d.degree <= top and is_definite_disc(d)
    ]
    curves = [
        d
        for d in canonical_discs(F, max(curve_degrees, default=0))
        if d.degree in curve_degrees and is_squarefree(d)
    ]
    if q == 31:
        curves = [F.t**5 + F.t + 3]
    for d in discs:
        for primitive_only in (False, True):
            got = enumerate_forms(F, d, primitive_only)
            expected = sieved_forms(F, d, primitive_only)
            assert [f.gram for f in got] == [f.gram for f in expected], str(d)
    for d0 in curves:
        got = [(D.u, D.v) for D in enumerate_reduced_divisors(d0)]
        assert got == sieved_divisors(d0), str(d0)


@pytest.mark.parametrize("q,deg", SCAN_CASES)
def test_enumerated_forms_pass_checked_constructor(q, deg):
    # enumerate_forms builds its forms without the checks of Form.__init__
    F = prime_field(q)
    for d in canonical_discs(F, deg):
        for primitive_only in (False, True):
            for f in enumerate_forms(F, d, primitive_only):
                assert Form(f.gram) == f
                assert f.discriminant() == d


@pytest.mark.parametrize("q,deg", SCAN_CASES)
def test_assigned_characters_match_jordan(q, deg):
    # every place of D, at every multiplicity, and forms of every content
    F = prime_field(q)
    checked = 0
    for d in canonical_discs(F, deg):
        places = factor(d)[1]
        for form in enumerate_forms(F, d):
            for p, v in places:
                assert _jordan_at_place(form, d, p, v) == jordan_invariants(form, p)
                checked += 1
    assert checked > 1000


@pytest.mark.parametrize("q,deg", [(3, 3), (5, 2)])
def test_genus_symbol_matches_jordan_path(q, deg):
    F = prime_field(q)
    for d in canonical_discs(F, deg):
        places = factor(d)[1]
        for form in enumerate_forms(F, d, True):
            expected = jordan_genus_symbol(form)
            assert genus_symbol(form) == expected
            assert genus_symbol(form, places) == expected


@pytest.mark.parametrize("q,deg", TABLE_CASES)
def test_class_table_matches_two_orbit_jordan_path(q, deg):
    F = prime_field(q)
    for d in canonical_discs(F, deg):
        table = class_table(F, d, primitive_only=True)
        got = (table.classes, table.proper_classes, table.genera)
        assert got == two_orbit_table(F, d), str(d)


def orbit_table(field, disc, primitive_only):
    """(forms, classes, proper classes, genera) with every form enumerated,
    one orbit pass per class over all of them and one `genus_symbol` per
    class: the class tables before they were read off the monic roots,
    with the forms of `sieved_forms`, so that no root is shared with the
    tables."""
    forms = sieved_forms(field, disc, primitive_only)
    walk = reduced_orbit_partition(forms, field.q)
    classes = [members for members, _ in walk]
    proper_classes = sorted(p for _, propers in walk for p in propers)
    places = factor(disc)[1]
    by_symbol = {}
    for ci, cls in enumerate(classes):
        by_symbol.setdefault(genus_symbol(forms[cls[0]], places), []).append(ci)
    genera = sorted(by_symbol.values(), key=lambda g: g[0])
    return forms, classes, proper_classes, genera


def assert_table_matches_orbit_oracle(field, disc):
    """Both tables of `disc` equal the orbit oracle, and `class_index_of`
    finds the class of the first and the last form of each class."""
    for primitive_only in (False, True):
        assert_matches_orbit_oracle(class_table(field, disc, primitive_only))


def assert_matches_orbit_oracle(table):
    """`table` equals the orbit oracle of its disc and content."""
    field, disc, primitive_only = table.field, table.disc, table.primitive_only
    forms, classes, proper_classes, genera = orbit_table(field, disc, primitive_only)
    where = (str(disc), primitive_only)
    assert [f.gram for f in table.forms] == [f.gram for f in forms], where
    assert table.classes == classes, where
    assert table.proper_classes == proper_classes, where
    assert table.genera == genera, where
    assert [f.gram for f in table.class_representatives] == [
        forms[cls[0]].gram for cls in classes
    ], where
    # the nested scans over the index lists that the per-class data replaced
    for ci in range(len(classes)):
        assert ci in genera[table.genus_index_of_class(ci)], where
    assert table.proper_counts_per_genus() == [
        sum(1 for p in proper_classes for ci in genus if p[0] in classes[ci])
        for genus in genera
    ], where
    for ci, cls in enumerate(classes):
        for i in (cls[0], cls[-1]):
            assert table.class_index_of(forms[i]) == ci, where




def poly_class_table(field, disc, primitive_only):
    """The class table of `disc` built one discriminant at a time on `Poly`
    values, as `class_table` did before the batches: the roots of each monic
    a_m from `square_roots_mod`, the content from `Form.is_primitive` and
    the places from `factor`; classes in closed form where deg a < deg c,
    by `_class_keys` where deg a = deg c."""
    nonsquare = field.constant(field._first_nonsquare())
    places = factor(disc)[1]
    filter_content = primitive_only and any(e > 1 for _, e in places)
    monic = []  # (a_m, b, c or None) for the classes' monic solutions
    classes = []  # ((a, b) keys, (index into monic, a), proper class count)
    for deg_a in range(disc.degree // 2 + 1):
        solutions = []
        for a_m, roots in square_roots_mod(disc, deg_a):
            if filter_content:
                binary = Form._trusted_binary
                forms = [binary(a_m, b, (b * b - disc) // a_m) for b in roots]
                roots = [b for b, form in zip(roots, forms) if form.is_primitive()]
            solutions.append((a_m, roots))
        if 2 * deg_a == disc.degree:
            triples = [
                (a_m, b, (b * b - disc) // a_m)
                for a_m, roots in solutions
                for b in roots
            ]
            reps, propers = {}, {}
            for abc, (key, proper_key) in zip(triples, _class_keys(triples)):
                if key not in reps:
                    reps[key] = (len(monic), abc[0])
                    monic.append(abc)
                propers.setdefault(key, set()).add(proper_key)
            classes.extend((key, rep, len(propers[key])) for key, rep in reps.items())
            continue
        found = []
        for a_m, roots in solutions:
            # each class holds (a, b) and (a, -b): keep the first of the two
            kept = [(b, b.key()) for b in roots if b.key() <= (-b).key()]
            first = len(monic)
            monic.extend((a_m, b, None) for b, _ in kept)
            for a in (a_m, a_m * nonsquare):
                for i, (b, b_key) in enumerate(kept, first):
                    found.append(((a.key(), b_key), (i, a), 1 if b.is_zero() else 2))
        classes.extend(sorted(found, key=lambda entry: entry[0]))
    # the representative (a, b, c) of each class on `Poly` values, as class
    # tables built it before their coefficient rows: c = (b^2 - disc) / a_m
    # once per monic solution, divided by the lead of a
    cs = [(b * b - disc) // a_m if c is None else c for a_m, b, c in monic]
    reps = [
        Form._trusted_binary(a, monic[i][1], cs[i] * field.constant(field.inv(a.lc())))
        for _, (i, a), _ in classes
    ]
    # a table with its fields given, as a batch view holds them once read
    table = ClassTable.__new__(ClassTable)
    vars(table).update(
        field=field,
        disc=disc,
        primitive_only=primitive_only,
        places=places,
        class_representatives=reps,
        proper_counts=[count for _, _, count in classes],
        _class_of_key={key: ci for ci, (key, _, _) in enumerate(classes)},
    )
    return table


def batches_of(monkeypatch, size, q, m):
    """Patch the batch bound so that `class_batches` takes `size`
    discriminants of degree m at a time over F_q."""
    monkeypatch.setattr(classify, "BATCH_VALUES", size * classify._disc_values(q, m))


# (q, top degree, discs sampled at the top degree or None for all of them);
# every (7, 4) table would take about 12 s in the oracle and the batch
BATCH_CASES = [(3, 6, None), (5, 4, None), (7, 4, 80)]


@pytest.mark.parametrize("q,top,sampled", BATCH_CASES)
def test_class_tables_match_per_disc_oracle(monkeypatch, q, top, sampled):
    # every degree built in batches of 7, so batch bounds fall inside it
    F = prime_field(q)
    square_factor = 0
    for m in range(top + 1):
        batches_of(monkeypatch, 7, q, m)
        discs = discs_of_degree(F, m)
        if m == top and sampled:
            discs = sorted(random.Random(q * 100 + m).sample(discs, sampled), key=str)
        both = [list(class_tables(F, discs, flag)) for flag in (False, True)]
        for disc, tables in zip(discs, zip(*both)):
            for primitive_only, table in enumerate(tables):
                # places, representatives (off the batch's coefficient rows
                # against `Poly` division), proper counts and class keys;
                # genera off the batch characters as well
                oracle = poly_class_table(F, disc, bool(primitive_only))
                where = (str(disc), primitive_only)
                assert table == oracle, where
                assert [f.gram for f in table.class_representatives] == [
                    f.gram for f in oracle.class_representatives
                ], where
                assert table.genera == genera_of(per_class_genus_keys(oracle)), where
            square_factor += any(e > 1 for _, e in table.places)
    assert square_factor > 100


def per_class_genus_keys(table):
    """One key per class of `table`, equal for two classes exactly when
    they share a genus: the assigned characters and the Hasse symbol at
    infinity of a primitive class, the genus symbol of any other, class by
    class by reciprocity, as class tables read their genera before the
    batch pass.

    With a = lead a_m, chi_p(a) = chi(lead)^(deg p) chi_p(a_m), chi_p(a_m)
    computed once per a_m (1 at a_m = 1); where p | a_m, chi_p(c) is
    chi(lead)^(deg p) chi_p((b^2 - disc) / a_m), divided on `Poly` values.
    The symbol at infinity is computed once per deg a and lead.  a and b
    are read off the representative of each class."""
    disc, places = table.disc, table.places
    F = disc.field
    ones = (1,) * len(places)
    monic_chars = {}  # chi_p(a_m) at every place, by a_m
    twists = {}  # chi(lead)^(deg p) at every place, by lead
    hasse = {}  # by deg a and lead
    out = []
    for ci, rep in enumerate(table.class_representatives):
        a, b, _ = rep.binary_coeffs()
        a_m, c = a.monic(), None
        chars = monic_chars.get(a_m)
        if chars is None:
            if a_m.degree == 0:
                chars = ones
            else:
                chars = tuple(_jacobi(a_m, p) for p, _ in places)
            monic_chars[a_m] = chars
        lead = a.coeffs[-1]
        twist = twists.get(lead)
        if twist is None:
            chi = F.char(lead)
            twist = twists[lead] = tuple(chi**p.degree for p, _ in places)
        if 0 in chars:
            if c is None:
                c = (b * b - disc) // a_m
            chars = tuple(x or _jacobi(c, p) for x, (p, _) in zip(chars, places))
        chars = tuple(x * s for x, s in zip(chars, twist))
        if 0 in chars:
            # p divides a and c, so b^2 = disc + ac too: not primitive
            out.append(genus_symbol(table.class_representatives[ci], places))
            continue
        at_infinity = hasse.get((a_m.degree, lead))
        if at_infinity is None:
            at_infinity = _binary_hasse_at_infinity(a_m.degree, lead, disc)
            hasse[a_m.degree, lead] = at_infinity
        out.append((chars, at_infinity))
    return out


def genera_of(keys):
    """Class-index lists of equal genus keys, ordered by first member."""
    by_genus = {}
    for ci, key in enumerate(keys):
        by_genus.setdefault(key, []).append(ci)
    return list(by_genus.values())


@pytest.mark.parametrize("q,top", [(7, 3), (11, 3)])
def test_batch_genera_match_per_class_path(monkeypatch, q, top):
    # every canonical disc, square-free or not, both contents, in batches
    # of 7 so that batch bounds fall inside a degree (the per-disc oracle
    # test above does the same at (3, 6) and (5, 4)); the key of a
    # non-primitive class is its genus symbol on both paths
    F = prime_field(q)
    pending = large = 0
    for m in range(top + 1):
        batches_of(monkeypatch, 7, q, m)
        for primitive_only in (False, True):
            for table in class_tables(F, discs_of_degree(F, m), primitive_only):
                where = (str(table.disc), primitive_only)
                expected_keys = per_class_genus_keys(table)
                assert table.genera == genera_of(expected_keys), where
                for key, expected in zip(table.genus_keys, expected_keys):
                    if isinstance(expected, GenusSymbol):
                        assert key == expected, where
                    else:
                        assert isinstance(key, int), where
                lo, hi = table._batch.bounds[table._index : table._index + 2]
                pending += int(table._batch.genera[1][lo:hi].any(axis=1).sum())
                large += any(2 * p.degree > m for p, _ in table.places)
    assert pending > 50 and large > 500


def place_chars(field, m, rows):
    """(rows, places) chi_p of the polynomials of degree <= m with
    coefficient rows `rows` at every place p of `_places(field, m // 2)`,
    one `_chars_at` call over every (row, place) pair."""
    count = len(_places(field, m // 2))
    at = np.tile(np.arange(count), len(rows))
    chars = classify._chars_at(field, m, np.repeat(rows, count, axis=0), at)
    return chars.reshape(len(rows), count)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_place_chars_match_residue_fields(q):
    # every residue x (deg x < deg p) at every place p of degree <= 3, in
    # one `_chars_at` call, against the squares of A/(p), and below degree
    # 3 against `residue_char` and Euler's criterion
    F = prime_field(q)
    places = _places(F, 3)
    residues = [F.poly_from_key(key) for key in range(q**3)]
    rows = np.array([x.coeffs + (0,) * (3 - len(x.coeffs)) for x in residues])
    chars = place_chars(F, 6, rows)
    for j, p in enumerate(places):
        size = q**p.degree
        squares = {(x * x % p).key() for x in residues[1:size]}
        for key in range(size):
            expected = 0 if key == 0 else 1 if key in squares else -1
            assert chars[key, j] == expected, (str(residues[key]), str(p))
            if p.degree <= 2:
                x = residues[key]
                euler = powmod(x, (size - 1) // 2, p)
                assert residue_char(x, p) == expected
                assert euler == F.constant(expected % q) or key == 0


def test_place_chars_at_high_place_degree_match_reciprocity():
    # the norm is a determinant by elimination, k^3 steps at place degree
    # k: at q = 3, every place of degree <= 9, for t^19 + t + 1 and for
    # t^19 - t, which every place of degree 1 divides
    F = prime_field(3)
    polys = [F.poly([1, 1] + [0] * 17 + [1]), F.t**19 - F.t]
    places = _places(F, 9)
    chars = place_chars(F, 19, _poly_rows(polys, 20))
    for f, row in zip(polys, chars.tolist()):
        assert row == [_jacobi(f, p) for p in places], str(f)


def per_pair_chars(field, m, rows, owners, at):
    """`classify._distinct_chars` as the genus pass ran it before: one
    `_chars_at` row per (owner, place) pair, each gathering the residue map
    of its place, however often the pair recurs."""
    return classify._chars_at(field, m, rows[owners], at)


# (q, top degree, discs sampled at the top degree or None for all of them);
# a (17, 4) batch lifts its roots per disc, about 0.07 s each
PAIR_CASES = [(3, 6, None), (5, 4, None), (7, 3, None), (17, 4, 14)]


@pytest.mark.parametrize("q,top,sampled", PAIR_CASES)
def test_distinct_pair_chars_match_per_pair_gather(monkeypatch, q, top, sampled):
    # every batch of every degree, both contents, at the batch sizes of the
    # sweeps: the genus keys and pending bits from characters computed once
    # per distinct pair against the per-pair gather
    F = prime_field(q)
    for m in range(top + 1):
        discs = discs_of_degree(F, m)
        if m == top and sampled:
            discs = sorted(random.Random(q * 100 + m).sample(discs, sampled), key=str)
        rows = _poly_rows(discs, m + 1)
        for primitive_only in (False, True):
            for batch in classify.class_batches(F, rows, primitive_only):
                keys, pending = classify._batch_genera(batch)
                with monkeypatch.context() as patch:
                    patch.setattr(classify, "_distinct_chars", per_pair_chars)
                    expected_keys, expected_pending = classify._batch_genera(batch)
                where = (m, primitive_only, str(batch.disc(0)))
                assert keys.tolist() == expected_keys.tolist(), where
                assert pending.tolist() == expected_pending.tolist(), where
    # the pairs themselves: repeated, in any order, and none
    rng = np.random.default_rng(q)
    count = len(_places(F, top // 2))
    table = rng.integers(0, q, size=(9, top + 1))
    owners, at = rng.integers(0, 9, size=200), rng.integers(0, count, size=200)
    for part in (slice(None), slice(0, 1), slice(0, 0)):
        got = classify._distinct_chars(F, top, table, owners[part], at[part])
        assert got.tolist() == per_pair_chars(F, top, table, owners[part], at[part]).tolist()


def test_class_tables_match_orbit_oracle(monkeypatch):
    F = prime_field(3)
    for m in range(5):
        batches_of(monkeypatch, 5, 3, m)
        for primitive_only in (False, True):
            for table in class_tables(F, discs_of_degree(F, m), primitive_only):
                assert_matches_orbit_oracle(table)


@pytest.mark.parametrize("q,top", [(3, 6), (5, 4), (7, 3)])
def test_batch_places_match_factor(q, top):
    # every canonical d, square-free or not, then the high-multiplicity
    # shapes, each times every unit, in one sieve per degree; the place R of
    # degree > deg d / 2, where d has one, comes by the division of rows.
    # Cantor-Zassenhaus `factor` is the oracle, and u d has the places of d
    F = prime_field(q)
    discs = [*canonical_discs(F, top), *high_multiplicity_discs(F)]
    large_seen = set()
    for m in sorted({d.degree for d in discs}):
        batch = [d for d in discs if d.degree == m]
        expected = [factor(d)[1] for d in batch]
        scaled = [F.constant(u) * d for u in range(1, q) for d in batch]
        coeffs = _poly_rows(scaled, m + 1)
        _, divides, square = classify._sieve(F, coeffs)
        places = classify._places(F, m // 2)
        exponents, large, degrees = classify._disc_places(
            F, coeffs, places, divides, square
        )
        for d, pairs, row, r_row, r_degree in zip(
            scaled, expected * (q - 1), exponents.tolist(), large.tolist(), degrees
        ):
            small = dict.fromkeys(places, 0)
            small.update((p, e) for p, e in pairs if p.degree <= m // 2)
            assert row == list(small.values()), str(d)
            r = pairs[-1][0] if pairs and pairs[-1][0].degree > m // 2 else F.one
            assert r_row == list(r.coeffs) + [0] * (m + 1 - len(r.coeffs)), str(d)
            assert r_degree == r.degree, str(d)
            if all(e == 1 for _, e in pairs):
                large_seen.add((d.lc(), r.degree > 0))
    assert large_seen == {(u, has) for u in range(1, q) for has in (False, True)}


@pytest.mark.parametrize("q,top", [(3, 6), (5, 4), (7, 3), (11, 2)])
def test_batch_totals_match_class_tables(monkeypatch, q, top):
    # the per-disc totals that `verify comp` reads off a primitive batch,
    # for every canonical D, square-free or not, in batches of 7 so that
    # batch bounds fall inside a degree, against the table of the same D
    # built alone (`class_table`, a batch of one)
    F = prime_field(q)
    square_factor = pending = 0
    for m in range(top + 1):
        batches_of(monkeypatch, 7, q, m)
        discs = iter(discs_of_degree(F, m))
        rows = _poly_rows(discs_of_degree(F, m), m + 1)
        batches = list(classify.class_batches(F, rows, primitive_only=True))
        assert len(batches) == -(-len(rows) // 7), m
        for batch in batches:
            genera, equal = batch.genus_totals
            for i, disc in zip(range(batch.n), discs):
                table = class_table(F, disc, primitive_only=True)
                where = str(disc)
                assert batch.disc(i) == disc, where
                assert batch.proper[i] == sum(table.proper_counts), where
                assert genera[i] == len(table.genera), where
                assert equal[i] == (len(set(table.proper_counts_per_genus())) == 1), where
                assert batch.place_total[i] == len(table.places), where
                counts = table._batch.place_counts[table._index]
                assert batch.place_counts[i].tolist() == counts.tolist(), where
                square_factor += not batch.square_free[i]
            pending += int(batch.genera[1].any(axis=1).sum())
    # a primitive class waits for its genus symbol only where p^2 | a_m
    assert square_factor > 10 and (pending > 0) == (top >= 4)


def test_class_tables_refuse_what_class_table_refuses():
    F = prime_field(5)
    t = F.t
    assert list(class_tables(F, [], True)) == []
    for discs in (
        [t + 1, t * t + 2],  # two degrees
        [t * t + 2, t * t + 1],  # t^2 + 1 is indefinite (square lead)
        [F.zero],
    ):
        with pytest.raises(ValueError):
            class_tables(F, discs, True)
    with pytest.raises(ValueError):
        class_table(F, t * t + 1)
    with pytest.raises(ValueError):
        class_table(F, F.zero)


def test_content_filter_builds_no_form(monkeypatch):
    # the content of a solution (a_m, b) is read off the places whose square
    # divides D, so a primitive table of a square-factor D, and its
    # enumerated forms, build no form to test it
    F = prime_field(3)
    discs = [d for d in discs_of_degree(F, 5) if any(e > 1 for _, e in factor(d)[1])]
    expected = [
        (table.proper_counts, len(table.forms))
        for table in (poly_class_table(F, d, True) for d in discs)
    ]
    built = []
    binary = Form._trusted_binary

    def counted(cls, a, b, c):
        built.append((a, b, c))
        return binary(a, b, c)

    monkeypatch.setattr(Form, "_trusted_binary", classmethod(counted))
    tables = list(class_tables(F, discs, primitive_only=True))
    assert [t.proper_counts for t in tables] == [e[0] for e in expected]
    assert built == []
    # `enumerate_forms` builds each form it returns and no other
    assert [len(t.forms) for t in tables] == [e[1] for e in expected]
    assert len(built) == sum(e[1] for e in expected)
    assert len(discs) > 100


@pytest.mark.parametrize("q,deg", ORBIT_CASES)
def test_class_table_matches_orbit_oracle(q, deg):
    F = prime_field(q)
    for d in canonical_discs(F, deg):
        assert_table_matches_orbit_oracle(F, d)


def test_class_table_matches_orbit_oracle_sampled_q7_deg4():
    # every (7, 4) table would take about 35 s in the oracle
    F = prime_field(7)
    discs = discs_of_degree(F, 4)
    for d in random.Random(7004).sample(discs, 100):
        assert_table_matches_orbit_oracle(F, d)


GENUS_TOP_DEGREE = {5: 3, 7: 3, 3: 5}  # q -> the largest disc degree


@pytest.mark.parametrize("q", list(GENUS_TOP_DEGREE))
def test_character_genera_match_genus_symbols(q):
    # genera come from characters, with chi_p(a) shared per monic a, at
    # every D, square-free or not, and for tables of any content; they are
    # read from fresh tables, before any representative, and a table of
    # primitive classes builds none for them
    F = prime_field(q)
    classify._class_table_cached.cache_clear()
    tables = square_factor = torus = 0
    for d in canonical_discs(F, GENUS_TOP_DEGREE[q]):
        tables += 1
        square_factor += any(v > 1 for _, v in factor(d)[1])
        symbols = {}  # a primitive class has one representative in both tables
        for primitive_only in (False, True):
            table = class_table(F, d, primitive_only)
            genera = table.genera
            if primitive_only:
                assert "class_representatives" not in vars(table), str(d)
            by_symbol = {}
            for ci, rep in enumerate(table.class_representatives):
                if rep.gram not in symbols:
                    symbols[rep.gram] = jordan_genus_symbol(rep)
                by_symbol.setdefault(symbols[rep.gram], []).append(ci)
                a, _, c = rep.binary_coeffs()
                torus += a.degree == c.degree
            assert genera == list(by_symbol.values()), (str(d), primitive_only)
    assert tables > 100 and square_factor > 50 and torus > 50
    classify._class_table_cached.cache_clear()


def test_primitive_genera_need_no_jordan_splitting(monkeypatch):
    # a primitive class is primitive at every place, so its genus is read
    # off assigned characters even where p^2 | D
    def refuse(*args):
        raise AssertionError("a primitive table diagonalized a form")

    classify._class_table_cached.cache_clear()
    for name in ("genus_symbol", "jordan_invariants", "_jordan_diagonal"):
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("fqforms") and hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    F = prime_field(5)
    square_factor = 0
    for d in canonical_discs(F, 4):
        table = class_table(F, d, primitive_only=True)
        assert sum(map(len, table.genera)) == len(table.class_representatives)
        square_factor += any(v > 1 for _, v in table.places)
    assert square_factor > 100
    classify._class_table_cached.cache_clear()


def reduced_orbit_partition(forms, q):
    """[(class, [proper classes])] of `forms` by one `reduced_orbit` per
    class, each over the 2(q^2 - 1) units of det +-1 that keep the seed
    reduced."""
    return orbit_walk(forms, lambda f: reduced_orbit(f, q))


def class_key_partition(forms):
    """The same partition grouped by `_class_keys`."""
    out = {}
    triples = [f.binary_coeffs() for f in forms]
    for i, (key, proper_key) in enumerate(_class_keys(triples)):
        out.setdefault(key, {}).setdefault(proper_key, []).append(i)
    return [
        (sorted(i for p in by_proper.values() for i in p), list(by_proper.values()))
        for by_proper in out.values()
    ]


def assert_partition_matches_orbit_oracle(field, disc):
    """On the forms of `disc` with deg a = deg c, every form and those with
    monic a, of any content and primitive."""
    for primitive_only in (False, True):
        forms = [
            f
            for f in sieved_forms(field, disc, primitive_only)
            if 2 * f.gram[0][0].degree == disc.degree
        ]
        monic = [f for f in forms if f.gram[0][0].lc() == 1]
        for chosen in (forms, monic):
            if chosen:
                assert class_key_partition(chosen) == reduced_orbit_partition(
                    chosen, field.q
                ), (str(disc), primitive_only, len(chosen))


@pytest.mark.parametrize("q,deg", [(3, 6), (5, 4), (11, 2)])
def test_orbit_partition_matches_reduced_orbits(q, deg):
    F = prime_field(q)
    discs = [d for d in canonical_discs(F, deg) if d.degree % 2 == 0]
    for d in discs:
        assert_partition_matches_orbit_oracle(F, d)


@pytest.mark.parametrize("q,samples", [(7, 60), (17, 12)])
def test_orbit_partition_matches_reduced_orbits_sampled_deg4(q, samples):
    F = prime_field(q)
    discs = discs_of_degree(F, 4)
    for d in random.Random(q * 1000 + 4).sample(discs, samples):
        assert_partition_matches_orbit_oracle(F, d)


def interpolate(field, points):
    """The b of degree < len(points) with b(s) = y at each (s, y)."""
    out = field.zero
    for s, y in points:
        term = field.constant(y)
        for r, _ in points:
            if r != s:
                scale = field.inv((s - r) % field.q)
                term = term * (field.t - field.constant(r)) * field.constant(scale)
        out = out + term
    return out


def same_disc_forms(field, m, count, rng):
    """Reduced forms (a, b, c) with deg a = deg c = m of one definite disc
    of degree 2m: a random one, then ones with a split monic a, whose b
    takes a square root of D at each root of a."""
    q = field.q
    while True:
        A, C = rng.randrange(1, q), rng.randrange(1, q)
        if not field.is_square(field.neg(field.mul(A, C))):
            break
    a = field.poly([rng.randrange(q) for _ in range(m)] + [A])
    b = field.poly([rng.randrange(q) for _ in range(m)])
    c = field.poly([rng.randrange(q) for _ in range(m)] + [C])
    disc = b * b - a * c
    forms = [Form.binary(a, b, c)]
    square_at = [s for s in range(q) if field.char(disc(s)) == 1]
    while len(forms) < count:
        roots = rng.sample(square_at, m)
        a2 = field.one
        for s in roots:
            a2 = a2 * (field.t - field.constant(s))
        points = [(s, field_sqrt(field, disc(s))) for s in roots]
        b2 = interpolate(field, points)
        c2, rem = divmod(b2 * b2 - disc, a2)
        assert rem.is_zero()
        forms.append(Form.binary(a2, b2, c2))
    return disc, forms


def orbit_forms(seeds):
    """Every reduced image of the seeds under det +-1, in `enumerate_forms`
    order: by the key of a, then the key of b."""
    F = seeds[0].field
    out = {}
    for seed in seeds:
        _, images = reduced_images(seed, (1, -1))
        for rows in zip(*(m.tolist() for m in images)):
            form = Form.binary(*(F.poly(row) for row in rows))
            out[form_key(form)] = form
    return [out[k] for k in sorted(out)]


def test_orbit_partition_keys_never_wrap():
    # at q = 17 and deg D = 10 the key of each of a', b', c' (6
    # coefficients) fits in int64, but the three packed into one would not
    q, m = 17, 5
    F = prime_field(q)
    key_powers(q, m + 1)
    with pytest.raises(CapabilityError):
        key_powers(q, 3 * (m + 1))
    rng = random.Random(1710)
    for _ in range(3):
        disc, seeds = same_disc_forms(F, m, 4, rng)
        forms = orbit_forms(seeds)
        assert all(f.discriminant() == disc for f in forms)
        monic = [f for f in forms if f.gram[0][0].lc() == 1]
        for chosen in (forms, monic):
            partition = class_key_partition(chosen)
            assert partition == reduced_orbit_partition(chosen, q)
            assert len(partition) > 1
        # the classes are named by the true keys of their least images
        triples = [f.binary_coeffs() for f in forms]
        for form, (key, proper_key) in zip(forms, _class_keys(triples)):
            orbit, sl_orbit = reduced_orbit(form, q)
            assert key == min(orbit)[:2]
            assert proper_key == min(sl_orbit)[:2]


def test_sweep_data_builds_no_genus(monkeypatch):
    # the minima, disc and equiv sweeps read only class representatives, so
    # no genus is computed and no batch runs its character pass; a table's
    # genera, read afterwards, are right
    def refuse(*args):
        raise AssertionError("sweep_data computed a genus")

    built = []
    batched_by = verify.class_batches

    def batching(field, coeffs, primitive_only=False, discs=None):
        for batch in batched_by(field, coeffs, primitive_only, discs):
            built.extend(ClassTable(batch, i) for i in range(batch.n))
            yield batch

    monkeypatch.setattr(verify, "class_batches", batching)
    for name in (
        "genus_symbol", "_jacobi", "_hasse_at_infinity", "_binary_hasse_at_infinity",
        "_batch_genera", "_chars_at",
    ):
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("fqforms") and hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    data = verify.sweep_data(SweepConfig(q=5, max_disc_degree=3))
    assert len(data) > 100
    monkeypatch.undo()
    F = prime_field(5)
    # the sweep batched every disc, and found no place data; read the
    # genera of the last 16
    assert [table.disc for table in built] == canonical_discs(F, 3)
    for table in built:
        assert not {"exponents", "proper", "place_total"} & set(vars(table._batch))
    for table in built[-16:]:
        assert "genera" not in vars(table)
        by_symbol = {}
        for ci, rep in enumerate(table.class_representatives):
            by_symbol.setdefault(jordan_genus_symbol(rep), []).append(ci)
        assert table.genera == list(by_symbol.values()), str(table.disc)
