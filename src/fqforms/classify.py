"""Class tables for definite binary forms of a fixed discriminant.

Every reduced definite binary form (a, b, c) with b^2 - ac = D has
deg a <= deg D / 2 and deg b < deg a, so the forms of discriminant
exactly D come from a finite enumeration with c = (b^2 - D)/a.  The
congruence b^2 = D (mod a) depends only on the ideal (a), so it is solved
once per monic a_m: `ffpoly.square_roots_mod` solves it by a sieve (square
roots of D at each place of degree <= deg D / 2, lifted to prime powers
once per D and combined by CRT over the factorization of a_m), and the
form (u a_m, b, c / u) is reduced for every unit u.  Such forms have
b^2 - ac = D != 0 by construction, so they skip the checks of
`Form.__init__`; and as a content g of a form has g^2 | D, only a D with
a square factor needs the primitivity filter.

Reduced forms in one GL_2(A)-class differ by a constant U, and equal
exact discriminants force det U = +-1, so classes are orbits under
det U = +-1 and proper classes under det U = 1.  `qform.reduced_images`
writes down the U that keep a form reduced.  If deg a < deg c they are
diag(alpha, +-1/alpha), so the proper class of (a, b, c) is
{(alpha^2 a, b, c / alpha^2)} and its class adds b -> -b.  A table is
therefore read off the monic solutions there, without listing its forms:
with a = u a_m, a proper class is (a_m, u mod squares, b), it holds
(q - 1)/2 forms, and a class is (a_m, u mod squares, +-b), two proper
classes when b != 0 and one when b = 0.  Orbits are computed only for
the forms with deg a = deg c, which exist only at even deg D: there U
runs over 2(q^2 - 1) constant matrices, and one orbit pass per class
gives both partitions, the images reached by a determinant-1 U forming
the proper class of the seed.  A class table partitions only the forms
with monic a there, never scaled by units: with A, C the leading
coefficients of a, c, the form A x^2 + C y^2 is anisotropic over F_q, so
it represents 1 and some constant U carries each form to one with monic
a.  Monic forms come first in `enumerate_forms` order, so every class's
first form is among them.  That first form is the representative of a
class, (l a_m, b) with l the least lead in the square class of u and b
the first of +-b where deg a < deg c, and classes are ordered by it.

Genera group classes by their local data (Jordan invariants at the
divisors of D, Hasse symbol at infinity); the divisors of D are read off
the square-root sieve (`ffpoly.sieve_factor`) that also gives the roots.
For square-free D the Jordan data at p is one assigned character,
chi_p(a), or chi_p(c) when p | a, and it is computed once per monic a_m:
chi_p(u a_m) = chi(u)^(deg p) chi_p(a_m), and where p | a_m every root b
gives the same chi_p(c), since c = -(D/p) / (a_m/p) mod p.  The Hasse
symbol at infinity of (a, b, c) comes from its diagonal <a, -a D> and so
depends only on deg a and the square class of lc a.  A D with a square
factor takes a full `genus_symbol` per class.  Residue characters come
from quadratic reciprocity (`ffpoly.residue_char`).

A class with discriminant u^2 D is carried to the table of D by rescaling
one variable, so tables over canonical discriminants (leading coefficient
1 or delta) cover every square class.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .ffpoly import SquareClass, _sqrt_table, factor, is_irreducible, is_squarefree
from .ffpoly import residue_char, sieve_factor, square_roots_mod
from .localgenus import _hasse_at_infinity, genus_symbol
from .qform import (
    Form,
    Transformation,
    is_definite_disc,
    key_powers,
    reduce,
    reduced_images,
    successive_minima,
)


def _monic_solutions(disc, deg_a, filter_content):
    """[(a_m, [b, ...])] for every monic a_m of degree `deg_a`, in key
    order: a_m | b^2 - disc with deg b < deg a_m, b in key order, and only
    primitive (a_m, b, (b^2 - disc) / a_m) when `filter_content`."""
    binary = Form._trusted_binary
    out = []
    for a, roots in square_roots_mod(disc, deg_a):
        if filter_content:
            roots = [
                b for b in roots if binary(a, b, (b * b - disc) // a).is_primitive()
            ]
        out.append((a, roots))
    return out


def _scaled_forms(field, disc, solutions, deg_a):
    """The forms (u a_m, b, c / u) for every unit u, ordered by (lead a,
    key of the low part of a, key of b); `solutions` from
    `_monic_solutions` at degree `deg_a`."""
    q = field.q
    size = q**deg_a
    binary = Form._trusted_binary
    monic = [[(b, (b * b - disc) // a_m) for b in roots] for a_m, roots in solutions]
    out = []
    for lead in range(1, q):
        inv = field.constant(field.inv(lead))
        for low in range(size):
            a = field.poly_from_key(low + lead * size)
            for b, c in monic[a.monic().key() - size]:
                out.append(binary(a, b, c * inv))
    return out


def enumerate_forms(field, disc, primitive_only=False):
    """All reduced definite binary forms with discriminant exactly `disc`.

    b^2 = disc (mod a) is solved once per monic a: the solutions (b, c)
    for a monic give (u a, b, c / u) for every unit u, and all of these
    share one content, which is checked only when disc has a square
    factor.  Forms come out ordered by (deg a, lead a, key of the low part
    of a, key of b).
    """
    if not is_definite_disc(disc):
        raise ValueError("discriminant is not definite-shaped")
    # a content g has g^2 | disc, so square-free discs have only primitive forms
    filter_content = primitive_only and not is_squarefree(disc)
    out = []
    for deg_a in range(disc.degree // 2 + 1):
        solutions = _monic_solutions(disc, deg_a, filter_content)
        out.extend(_scaled_forms(field, disc, solutions, deg_a))
    return out


def _reduced_orbit(form, q):
    """Keys (a', b', c') of the reduced images of `form` under constant
    transformations with determinant +-1, and the subset reached by
    determinant 1."""
    units, images = reduced_images(form, (1, -1))
    al, be, ga, de = units.T
    det_one = (al * de - be * ga) % q == 1
    powers = key_powers(q, images[0].shape[1])
    keys = np.stack([m @ powers for m in images], axis=1)
    orbit = {tuple(row) for row in keys.tolist()}
    proper = {tuple(row) for row in keys[det_one].tolist()}
    return orbit, proper


def _orbit_partition(forms, q):
    """[(class, [proper classes])] of reduced forms with deg a = deg c, as
    sorted index lists into `forms`; classes come in order of first member.

    `forms` is in `enumerate_forms` order and holds, of each orbit it
    meets, either every form or every form with monic a.  Both give the
    same first members and proper class counts: x -> -x on one coordinate,
    of determinant -1, keeps a, so each proper class of a split class
    holds a monic-a form when the other does."""
    index = {_form_key(f): i for i, f in enumerate(forms)}
    unassigned = set(range(len(forms)))
    out = []
    while unassigned:
        seed = min(unassigned)
        orbit, sl_orbit = _reduced_orbit(forms[seed], q)
        members = sorted(index[k] for k in orbit if k in index)
        proper = sorted(index[k] for k in sl_orbit if k in index)
        rest = sorted(set(members) - set(proper))
        out.append((members, [proper, rest] if rest else [proper]))
        unassigned -= set(members)
    return out


def _form_key(form):
    a, b, c = form.binary_coeffs()
    return (a.key(), b.key(), c.key())


def _class_key(form):
    """The (a, b) keys of a class's first form, which name the class."""
    a, b = form.gram[0]
    return (a.key(), b.key())


def _closed_form_keys(form, nonsquare):
    """(class key, proper class key) of a reduced form with deg a < deg c:
    the (a, b) keys of the first form of each, (l a_m, +-b) and (l a_m, b),
    where l is the least lead in the square class of lc a."""
    F = form.field
    a, b, _ = form.binary_coeffs()
    lead = a.lc()
    least = 1 if F.is_square(lead) else nonsquare
    a_key = (a * F.constant(F.mul(least, F.inv(lead)))).key()
    b_key = b.key()
    return (a_key, min(b_key, (-b).key())), (a_key, b_key)


@dataclass
class ClassTable:
    """The classes of one exact discriminant, with their genera.

    `class_representatives` holds the first form of each class in
    `enumerate_forms` order, and classes are ordered by it;
    `proper_counts[i]` is the number of proper classes (1 or 2) in class i;
    `genera` is a list of sorted class-index lists, ordered by first
    member.  `places` holds the (place, multiplicity) pairs of `disc`, as
    `factor(disc)[1]` gives them, read off the sieve (`sieve_factor`).
    `forms`, `classes` and `proper_classes` (sorted form-index lists,
    ordered by first member) list every form and are built on first use.
    """

    field: object
    disc: object
    primitive_only: bool
    places: list
    class_representatives: list
    proper_counts: list
    genera: list
    _class_of_key: dict  # (a, b) keys of a class's first form -> class index
    _genus_of_class: list

    def class_index_of(self, form):
        """Index of the class containing a definite form of this disc."""
        if form.discriminant() != self.disc:
            raise ValueError("form does not belong to this table")
        red, _ = reduce(form)
        key = min(_reduced_orbit(red, self.field.q)[0])[:2]
        if key not in self._class_of_key:
            raise ValueError("form does not belong to this table")
        return self._class_of_key[key]

    def genus_index_of_class(self, class_index):
        return self._genus_of_class[class_index]

    def class_count_in_genus_of(self, form):
        g = self.genus_index_of_class(self.class_index_of(form))
        return len(self.genera[g])

    def proper_counts_per_genus(self):
        return [sum(self.proper_counts[ci] for ci in genus) for genus in self.genera]

    @functools.cached_property
    def forms(self):
        return enumerate_forms(self.field, self.disc, self.primitive_only)

    @property
    def classes(self):
        return self._partitions[0]

    @property
    def proper_classes(self):
        return self._partitions[1]

    @functools.cached_property
    def _partitions(self):
        forms = self.forms
        nonsquare = self.field._first_nonsquare()
        # forms with deg a = deg c, so 2 deg a = deg D, come last, in whole orbits
        deg_d = self.disc.degree
        top = next(
            (i for i, f in enumerate(forms) if 2 * f.gram[0][0].degree == deg_d),
            len(forms),
        )
        classes = [[] for _ in self.class_representatives]
        proper = {}
        for i, form in enumerate(forms[:top]):
            key, proper_key = _closed_form_keys(form, nonsquare)
            classes[self._class_of_key[key]].append(i)
            proper.setdefault(proper_key, []).append(i)
        proper_classes = list(proper.values())
        for members, propers in _orbit_partition(forms[top:], self.field.q):
            key = _class_key(forms[top + members[0]])
            classes[self._class_of_key[key]] = [top + i for i in members]
            proper_classes.extend([top + i for i in p] for p in propers)
        return classes, sorted(proper_classes)


def class_table(field, disc, primitive_only=False):
    """Classes, proper classes and genera of discriminant exactly `disc`."""
    return _class_table_cached(field, disc, primitive_only)


# small, or a sweep keeps every table; `comp` reads each twice, back to back
@functools.lru_cache(maxsize=16)
def _class_table_cached(field, disc, primitive_only):
    if not is_definite_disc(disc):
        raise ValueError("discriminant is not definite-shaped")
    nonsquare = field._first_nonsquare()
    binary = Form._trusted_binary
    places = sieve_factor(disc)
    square_free = all(v == 1 for _, v in places)
    # a content g has g^2 | disc, so square-free discs have only primitive forms
    filter_content = primitive_only and not square_free
    classes = []  # ((a, b) keys, representative, proper class count, genus key)
    for deg_a in range(disc.degree // 2 + 1):
        solutions = _monic_solutions(disc, deg_a, filter_content)
        if 2 * deg_a == disc.degree:
            # every class holds a monic-a form, and its first form is one
            forms = [
                binary(a_m, b, (b * b - disc) // a_m)
                for a_m, roots in solutions
                for b in roots
            ]
            for members, propers in _orbit_partition(forms, field.q):
                rep = forms[members[0]]
                if square_free:
                    a, _, c = rep.binary_coeffs()
                    genus = (_characters(a, c, places), _hasse_at_infinity(rep, disc))
                else:
                    genus = genus_symbol(rep, places)
                classes.append((_class_key(rep), rep, len(propers), genus))
            continue
        found = []
        hasse = {}  # the symbol at infinity, by the square class of lc a
        for a_m, roots in solutions:
            # each class holds (a, b) and (a, -b): keep the first of the two
            kept = [b for b in roots if b.key() <= (-b).key()]
            if not kept:
                continue
            monic = [(b, (b * b - disc) // a_m) for b in kept]
            if square_free:
                # chi_p(c) at a place p | a_m is one value for every root b
                chars = _characters(a_m, monic[0][1], places)
            for lead, chi_lead in ((1, 1), (nonsquare, -1)):
                if lead == 1:
                    a = a_m
                    reps = [binary(a, b, c) for b, c in monic]
                else:
                    a = a_m * field.constant(lead)
                    inv = field.constant(field.inv(lead))
                    reps = [binary(a, b, c * inv) for b, c in monic]
                if square_free:
                    if lead not in hasse:
                        hasse[lead] = _hasse_at_infinity(reps[0], disc)
                    # chi_p(u a_m) = chi(u)^(deg p) chi_p(a_m)
                    twisted = tuple(
                        x * chi_lead**p.degree for x, (p, _) in zip(chars, places)
                    )
                    genus = (twisted, hasse[lead])
                a_key = a.key()
                for rep in reps:
                    b = rep.gram[0][1]
                    if not square_free:
                        genus = genus_symbol(rep, places)
                    proper_count = 1 if b.is_zero() else 2
                    found.append(((a_key, b.key()), rep, proper_count, genus))
        found.sort(key=lambda entry: entry[0])
        classes.extend(found)
    by_genus = {}
    genus_of_class = [by_genus.setdefault(g, len(by_genus)) for *_, g in classes]
    genera = [[] for _ in by_genus]
    for ci, g in enumerate(genus_of_class):
        genera[g].append(ci)
    return ClassTable(
        field=field,
        disc=disc,
        primitive_only=primitive_only,
        places=places,
        class_representatives=[rep for _, rep, _, _ in classes],
        proper_counts=[count for _, _, count, _ in classes],
        genera=genera,
        _class_of_key={key: ci for ci, (key, *_) in enumerate(classes)},
        _genus_of_class=genus_of_class,
    )


def _characters(a, c, places):
    """The assigned characters chi_p(a), or chi_p(c) where p | a, at the
    places p of a square-free disc; with the Hasse symbol at infinity they
    fix the genus symbol of (a, b, c)."""
    return tuple(residue_char(a, p) or residue_char(c, p) for p, _ in places)


def canonical_disc(d):
    """The square-class representative with leading coefficient 1 or delta."""
    return SquareClass(d).rep


def canonical_discs(field, max_degree, exact_degree=None):
    """Canonical definite discriminants, ascending by (degree, key)."""
    degrees = (
        [exact_degree] if exact_degree is not None else list(range(max_degree + 1))
    )
    out = []
    for m in degrees:
        if m == 0:
            out.append(field.poly((field.delta,)))
            continue
        leads = (1, field.delta) if m % 2 else (field.delta,)
        for lead in leads:
            for low in range(field.q**m):
                out.append(field.poly_from_key(low + lead * field.q**m))
    return out


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
    u = _field_sqrt(F, ratio)
    scale = Transformation.from_scalars(F, [[1, 0], [0, u]])
    return scale.apply(form), u


def _field_sqrt(field, a):
    """The smaller square root r in 1..q-1 of a nonzero square a."""
    r = _sqrt_table(field.q).get(a)
    if not r:
        raise ValueError("element is not a square")
    return min(r, field.q - r)


def class_number(form):
    """Number of classes in the genus of the form (within its exact disc)."""
    if form.n != 2 or not form.is_definite():
        raise ValueError("class numbers are computed for definite binary forms")
    table = class_table(form.field, form.discriminant(), form.is_primitive())
    return table.class_count_in_genus_of(form)


def proper_class_count(field, disc, primitive_only=True):
    """|G_D|: the number of proper classes of discriminant exactly `disc`."""
    return sum(class_table(field, disc, primitive_only).proper_counts)


def cn1_prediction(form):
    """The three-condition class-number-one criterion (valid for q > 13)."""
    d = form.discriminant()
    if d.degree <= 1:
        return True
    if d.degree == 2:
        mu1 = successive_minima(form)[0]
        if mu1 == 1:
            return True
        return mu1 == 0 and not is_irreducible(d)
    return False


def cn1_classification(form):
    """(prediction, observed class number); prediction is None for q <= 13.

    The criterion: deg D <= 1, or deg D = 2 with mu_1 = 1, or deg D = 2
    with mu_1 = 0 and D reducible.
    """
    observed = class_number(form)
    if form.field.q <= 13:
        return None, observed
    return cn1_prediction(form), observed


def irreducible_factor_count(d):
    """Number of distinct irreducible factors (r in the genus-count 2^r)."""
    if d.degree == 0:
        return 0
    return len(factor(d)[1])
