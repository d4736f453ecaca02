"""Class tables for definite binary forms of a fixed discriminant.

Every reduced definite binary form (a, b, c) with b^2 - ac = D has
deg a <= deg D / 2 and deg b < deg a, so the forms of discriminant
exactly D come from a finite enumeration with c = (b^2 - D)/a.  The
congruence b^2 = D (mod a) depends only on the ideal (a), so it is solved
once per monic a and each solution is scaled by the q - 1 units.
`ffpoly.square_roots_mod` solves it by a sieve: square roots of D at each
place of degree <= deg a, lifted to prime powers and combined by CRT over
the factorization of a.  Enumerated forms have b^2 - ac = D != 0 by
construction, so they skip the checks of `Form.__init__`; and as a
content g of a form has g^2 | D, only a D with a square factor needs the
primitivity filter.

Reduced forms in one GL_2(A)-class differ by a constant U, and equal
exact discriminants force det U = +-1, so classes are orbits under
det U = +-1 and proper classes under det U = 1.  `qform.reduced_images`
writes down the U that keep a form reduced: 2(q - 1) diagonal ones if
deg a < deg c, else 2(q^2 - 1).  One orbit pass per class gives both
partitions: the images reached by a determinant-1 U form the proper
class of the seed.  Genera
group classes by their local data (Jordan invariants at the divisors of
D, Hasse symbol at infinity); D is factored once per table.  Residue
characters come from quadratic reciprocity (`ffpoly.residue_char`), and
the Hasse symbol at infinity of (a, b, c) from its diagonal <a, -a D>.

A class with discriminant u^2 D is carried to the table of D by rescaling
one variable, so tables over canonical discriminants (leading coefficient
1 or delta) cover every square class.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .ffpoly import SquareClass, _sqrt_table, factor, gcd, is_irreducible
from .ffpoly import square_roots_mod
from .localgenus import genus_symbol
from .qform import (
    Form,
    Transformation,
    is_definite_disc,
    key_powers,
    reduce,
    reduced_images,
    successive_minima,
)


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
    q = field.q
    # a content g has g^2 | disc, so square-free discs have only primitive forms
    filter_content = primitive_only and gcd(disc, disc.derivative()).degree > 0
    binary = Form._trusted_binary
    out = []
    for deg_a in range(disc.degree // 2 + 1):
        size = q**deg_a
        # solutions[low]: (b, c) with b^2 - disc = a c for a = t^deg_a + low
        solutions = []
        for a, roots in square_roots_mod(disc, deg_a):
            if filter_content:
                roots = [(b, c) for b, c in roots if binary(a, b, c).is_primitive()]
            solutions.append(roots)
        for lead in range(1, q):
            inv = field.constant(field.inv(lead))
            for low in range(size):
                a = field.poly_from_key(low + lead * size)
                for b, c in solutions[a.monic().key() - size]:
                    out.append(binary(a, b, c * inv))
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


def _form_key(form):
    a, b, c = form.binary_coeffs()
    return (a.key(), b.key(), c.key())


@dataclass
class ClassTable:
    """Forms of one exact discriminant with their class partitions.

    `classes` and `proper_classes` are lists of sorted form-index lists;
    `genera` is a list of sorted class-index lists.  Orderings are
    canonical (by smallest member), so tables are deterministic.
    """

    field: object
    disc: object
    primitive_only: bool
    forms: list
    classes: list
    proper_classes: list
    genera: list

    @property
    def class_representatives(self):
        return [self.forms[cls[0]] for cls in self.classes]

    def class_index_of(self, form):
        """Index of the class containing a (definite, same-disc) form."""
        red, _ = reduce(form)
        key = _form_key(red)
        for i, cls in enumerate(self.classes):
            if any(_form_key(self.forms[j]) == key for j in cls):
                return i
        raise ValueError("form does not belong to this table")

    def genus_index_of_class(self, class_index):
        for g, members in enumerate(self.genera):
            if class_index in members:
                return g
        raise AssertionError("class missing from genus partition")

    def class_count_in_genus_of(self, form):
        g = self.genus_index_of_class(self.class_index_of(form))
        return len(self.genera[g])

    def proper_counts_per_genus(self):
        class_to_proper = {}
        for pi, pcls in enumerate(self.proper_classes):
            for ci, cls in enumerate(self.classes):
                if pcls[0] in cls:
                    class_to_proper.setdefault(ci, []).append(pi)
                    break
        return [
            sum(len(class_to_proper[ci]) for ci in genus) for genus in self.genera
        ]


def class_table(field, disc, primitive_only=False):
    """Classes, proper classes and genera of discriminant exactly `disc`."""
    return _class_table_cached(field, disc, primitive_only)


# small, or a sweep keeps every table; `comp` reads each twice, back to back
@functools.lru_cache(maxsize=16)
def _class_table_cached(field, disc, primitive_only):
    forms = enumerate_forms(field, disc, primitive_only)
    index = {_form_key(f): i for i, f in enumerate(forms)}
    q = field.q
    unassigned = set(range(len(forms)))
    classes = []
    proper_classes = []
    while unassigned:
        seed = min(unassigned)
        orbit, sl_orbit = _reduced_orbit(forms[seed], q)
        members = sorted(index[k] for k in orbit if k in index)
        proper = sorted(index[k] for k in sl_orbit if k in index)
        rest = sorted(set(members) - set(proper))
        classes.append(members)
        proper_classes.append(proper)
        if rest:
            proper_classes.append(rest)
        unassigned -= set(members)
    classes.sort(key=lambda cls: cls[0])
    proper_classes.sort(key=lambda cls: cls[0])
    places = factor(disc)[1]
    by_symbol = {}
    for ci, cls in enumerate(classes):
        sym = genus_symbol(forms[cls[0]], places)
        by_symbol.setdefault(sym, []).append(ci)
    genera = sorted(by_symbol.values(), key=lambda g: g[0])
    return ClassTable(
        field=field,
        disc=disc,
        primitive_only=primitive_only,
        forms=forms,
        classes=classes,
        proper_classes=proper_classes,
        genera=genera,
    )


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
    return len(class_table(field, disc, primitive_only).proper_classes)


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
