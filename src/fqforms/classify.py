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
det U = +-1 and proper classes under det U = 1.  If deg a < deg c the U
that keep a form reduced are diag(alpha, +-1/alpha), so the proper class
of (a, b, c) is {(alpha^2 a, b, c / alpha^2)} and its class adds
b -> -b.  A table is therefore read off the monic solutions there,
without listing its forms: with a = u a_m, a proper class is
(a_m, u mod squares, b), it holds (q - 1)/2 forms, and a class is
(a_m, u mod squares, +-b), two proper classes when b != 0 and one when
b = 0.  Orbits are computed only for the forms with deg a = deg c, which
exist only at even deg D.  There, with A, C the leading coefficients of
a, c, the form A x^2 + C y^2 is anisotropic over F_q, so it represents 1
and some constant U carries each form to one with monic a.  The U that
do so are the 2(q + 1) points of the norm-one torus
A alpha^2 + C gamma^2 = 1 with det U = +-1, and one numpy pass per
discriminant maps every form to its monic images under them.
`_class_keys` names the class and the proper class of every form by the
(a, b) keys of their first forms: in closed form where deg a < deg c, by
the least monic image under det U = +-1, and under det U = 1, where
deg a = deg c.  A class table partitions only the forms with monic a
there, never scaled by units; `forms` come in `enumerate_forms` order,
monic forms first, so every class's first form is among them.  That
first form is the representative of a class, (l a_m, b) with l the least
lead in the square class of u and b the first of +-b where
deg a < deg c, and classes are ordered by it.  A table keeps, for each
class, its monic solution (a_m, b), its lead l and, where the torus pass
computed it, c; the representative (l a_m, b, c) is built on first read,
with c = (b^2 - D) / a_m computed once per (a_m, b) and divided by l.

Genera group classes by their local data (Jordan invariants at the
divisors of D, Hasse symbol at infinity) and are built on first read,
from the monic solutions, so a sweep that reads only the representatives
never computes one, and a sweep that reads only genera builds no
representative of a primitive class.  The divisors of D are read off the
square-root sieve (`ffpoly.sieve_factor`) that also gives the roots.
At every divisor p of D, whatever v_p(D), the Jordan data of a class
primitive at p is one assigned character, chi_p(a), or chi_p(c) when
p | a (`localgenus._jordan_at_place`).  chi_p(a) is computed once per
monic a_m, as chi_p(l a_m) = chi(l)^(deg p) chi_p(a_m) (1 at a_m = 1),
and chi_p(c) = chi(l)^(deg p) chi_p((b^2 - D) / a_m) per class where
p | a_m.  The Hasse symbol at infinity of (a, b, c) comes from its
diagonal <a, -a D> and so depends only on deg a and the square class of
lc a (`localgenus._binary_hasse_at_infinity`).  A class whose characters
vanish at p has content divisible by p, and only such a class builds its
representative and takes a full `genus_symbol`.  Residue characters come
from quadratic reciprocity (`ffpoly._jacobi`, one step at a linear a_m),
at places the sieve has already shown irreducible.

A class with discriminant u^2 D is carried to the table of D by rescaling
one variable, so tables over canonical discriminants (leading coefficient
1 or delta) cover every square class.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .ffpoly import _jacobi, factor, is_irreducible
from .ffpoly import is_squarefree, sieve_factor, square_roots_mod
from .localgenus import GenusSymbol, _binary_hasse_at_infinity, genus_symbol
from .qform import (
    Form,
    _bilinear_weights,
    _poly_rows,
    is_definite_disc,
    key_powers,
    reduce,
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


@functools.lru_cache(maxsize=256)
def _torus_weights(q, A, C):
    """Weight rows (2(q + 1), 2, 3) that give the a' and b' of the images
    of a reduced (a, b, c) with deg a = deg c, lc a = A and lc c = C, under
    the constant U of det +-1 that keep it reduced and make a' monic.

    The columns of such U are orthogonal for A X^2 + C Y^2, or b' would
    reach the degree of a', so U = [[alpha, -d C gamma], [gamma, d A alpha]]
    with d = det U and A alpha^2 + C gamma^2 = lc a' = 1: the q + 1 points
    of the norm-one torus of the anisotropic A X^2 + C Y^2, once with d = 1
    (the first q + 1 rows) and once with d = -1."""
    al, ga = np.indices((q, q), dtype=np.int64).reshape(2, -1)
    on = (A * al * al + C * ga * ga) % q == 1
    al, ga = al[on], ga[on]
    u = np.stack([al, ga], axis=1)
    v = np.stack([-C * ga, A * al], axis=1)
    u, v = np.concatenate([u, u]), np.concatenate([v, -v]) % q
    out = np.stack([_bilinear_weights(u, u, q), _bilinear_weights(u, v, q)], axis=1)
    out.flags.writeable = False  # cached: every caller shares it
    return out


def _least_images(rows, q):
    """For the forms with coefficient rows `rows`: the (a', b') keys of the
    least image with monic a' in key order, under det U = +-1 (a list of
    pairs) and under det U = 1 (another).

    The images come from the units of `_torus_weights`, one weight block
    per form, read from the cache by (lc a, lc c).  Each polynomial has
    its own key, which `key_powers` keeps from wrapping, and pairs are
    compared key by key."""
    powers = key_powers(q, rows.shape[2])
    top = rows.shape[2] - 1
    leads = zip(rows[:, 0, top].tolist(), rows[:, 2, top].tolist())
    weights = np.stack([_torus_weights(q, A, C) for A, C in leads])
    keys = (weights @ rows[:, None] % q) @ powers  # forms, units, (a', b')
    half = keys.shape[1] // 2
    return _least_pairs(keys), _least_pairs(keys[:, :half])


def _least_pairs(keys):
    """The least (a', b') key pair of each row of `keys` (forms, units, 2)."""
    a = keys[..., 0].min(axis=1)
    b = np.where(keys[..., 0] == a[:, None], keys[..., 1], keys[..., 1].max())
    return list(zip(a.tolist(), b.min(axis=1).tolist()))


def _class_keys(triples):
    """(class key, proper class key) of each reduced form of one
    discriminant, given as its (a, b, c): the (a, b) keys of the first form
    of its class and of its proper class, as `enumerate_forms` orders them.

    Where deg a < deg c these are (l a_m, +-b) and (l a_m, b), with a_m
    monic, l the least lead in the square class of lc a and +-b the first
    of b and -b.  Where deg a = deg c they are the least monic-a images
    under det U = +-1 and det U = 1, from one `_least_images` pass: every
    class holds a monic-a form, and so does each proper class of a split
    class, since x -> -x on one coordinate, of determinant -1, keeps a; as
    monic forms come first and in key order, that image is the first
    form."""
    if not triples:
        return []
    F = triples[0][0].field
    nonsquare = F._first_nonsquare()
    out = [None] * len(triples)
    torus = []  # indices of the forms with deg a = deg c
    for i, (a, b, c) in enumerate(triples):
        if a.degree == c.degree:
            torus.append(i)
            continue
        lead = a.lc()
        least = 1 if F.is_square(lead) else nonsquare
        a_key = (a * F.constant(F.mul(least, F.inv(lead)))).key()
        b_key = b.key()
        out[i] = (a_key, min(b_key, (-b).key())), (a_key, b_key)
    if torus:
        length = triples[torus[0]][0].degree + 1
        rows = _poly_rows([p for i in torus for p in triples[i]], length)
        rows = rows.reshape(len(torus), 3, length)
        for i, keys in zip(torus, zip(*_least_images(rows, F.q))):
            out[i] = keys
    return out


@dataclass
class ClassTable:
    """The classes of one exact discriminant, with their genera.

    The table keeps what its build found: `_monic` holds the monic
    solutions (a_m, b, c) that name classes, c where the torus pass
    computed it and None elsewhere, and `_classes` holds (index into
    `_monic`, a) for each class, a = a_m or a_m times the first
    non-square.  `proper_counts[i]` is the number of proper classes (1 or
    2) in class i.  `places` holds the (place, multiplicity) pairs of
    `disc`, as `factor(disc)[1]` gives them, read off the sieve
    (`sieve_factor`).

    The rest is built on first read.  `class_representatives` holds the
    first form of each class in `enumerate_forms` order, and classes are
    ordered by it.  `genus_keys` (one per class) and `genera` (sorted
    class-index lists, ordered by first member) come from the monic
    solutions, with no representative built for a primitive class.
    `forms`, `classes` and `proper_classes` (sorted form-index lists,
    ordered by first member) list every form.
    """

    field: object
    disc: object
    primitive_only: bool
    places: list
    _monic: list  # (a_m, b, c or None)
    _classes: list  # (index into _monic, a) per class
    proper_counts: list
    _class_of_key: dict  # (a, b) keys of a class's first form -> class index

    def class_index_of(self, form):
        """Index of the class containing a definite form of this disc."""
        if form.discriminant() != self.disc:
            raise ValueError("form does not belong to this table")
        red, _ = reduce(form)
        key = _class_keys([red.binary_coeffs()])[0][0]
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
    def class_representatives(self):
        """The form (a, b, c) of each class: c = (b^2 - disc) / a_m is
        computed once per monic solution and divided by the lead of a."""
        F, disc = self.field, self.disc
        binary = Form._trusted_binary
        cs = []
        for a_m, b, c in self._monic:
            if c is None:
                c = b * b - disc
                if a_m.degree:  # a_m = 1 needs no division
                    c = c // a_m
            cs.append(c)
        inv = {}  # the constant 1 / lead, by lead
        out = []
        for i, a in self._classes:
            b, c = self._monic[i][1], cs[i]
            lead = a.coeffs[-1]
            if lead != 1:
                if lead not in inv:
                    inv[lead] = F.constant(F.inv(lead))
                c = c * inv[lead]
            out.append(binary(a, b, c))
        return out

    @functools.cached_property
    def genus_keys(self):
        """One key per class, equal exactly within a genus (`_genus_keys`)."""
        return _genus_keys(self)

    @functools.cached_property
    def genera(self):
        by_genus = {}
        for ci, key in enumerate(self.genus_keys):
            by_genus.setdefault(key, []).append(ci)
        return list(by_genus.values())

    def genus_symbols(self):
        """The genus symbol of every class: a non-primitive class's genus
        key is already its symbol, a primitive class's is computed here."""
        return [
            key if isinstance(key, GenusSymbol) else genus_symbol(rep, self.places)
            for rep, key in zip(self.class_representatives, self.genus_keys)
        ]

    @functools.cached_property
    def _genus_of_class(self):
        out = [None] * len(self.proper_counts)
        for g, genus in enumerate(self.genera):
            for ci in genus:
                out[ci] = g
        return out

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
        classes = [[] for _ in self.proper_counts]
        proper_classes = {}
        for i, (key, proper_key) in enumerate(
            _class_keys([f.binary_coeffs() for f in self.forms])
        ):
            classes[self._class_of_key[key]].append(i)
            proper_classes.setdefault(proper_key, []).append(i)
        return classes, sorted(proper_classes.values())


def class_table(field, disc, primitive_only=False):
    """Classes, proper classes and genera of discriminant exactly `disc`."""
    return _class_table_cached(field, disc, primitive_only)


# small, or a sweep keeps every table; `comp` reads each twice, back to back
@functools.lru_cache(maxsize=16)
def _class_table_cached(field, disc, primitive_only):
    if not is_definite_disc(disc):
        raise ValueError("discriminant is not definite-shaped")
    nonsquare = field.constant(field._first_nonsquare())
    places = sieve_factor(disc)
    # a content g has g^2 | disc, so square-free discs have only primitive forms
    filter_content = primitive_only and any(v > 1 for _, v in places)
    monic = []  # (a_m, b, c or None) for the classes' monic solutions
    classes = []  # ((a, b) keys, (index into monic, a), proper class count)
    for deg_a in range(disc.degree // 2 + 1):
        solutions = _monic_solutions(disc, deg_a, filter_content)
        if 2 * deg_a == disc.degree:
            # every class holds a monic-a form, and its first form is one
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
            kept = [(b, b.key()) for b in roots]
            kept = [(b, key) for b, key in kept if key <= (-b).key()]
            if not kept:
                continue
            first = len(monic)
            monic.extend((a_m, b, None) for b, _ in kept)
            for a in (a_m, a_m * nonsquare):
                a_key = a.key()
                for i, (b, b_key) in enumerate(kept, first):
                    proper_count = 1 if b.is_zero() else 2
                    found.append(((a_key, b_key), (i, a), proper_count))
        found.sort(key=lambda entry: entry[0])
        classes.extend(found)
    return ClassTable(
        field=field,
        disc=disc,
        primitive_only=primitive_only,
        places=places,
        _monic=monic,
        _classes=[entry for _, entry, _ in classes],
        proper_counts=[count for _, _, count in classes],
        _class_of_key={key: ci for ci, (key, _, _) in enumerate(classes)},
    )


def _genus_keys(table):
    """One key per class of `table`, equal for two classes exactly when
    they share a genus: the assigned characters and the Hasse symbol at
    infinity of a primitive class, the genus symbol of any other.

    With a = lead a_m, chi_p(a) = chi(lead)^(deg p) chi_p(a_m), chi_p(a_m)
    computed once per a_m (1 at a_m = 1); where p | a_m, chi_p(c) is
    chi(lead)^(deg p) chi_p((b^2 - disc) / a_m).  The symbol at infinity
    is computed once per deg a and lead.  Only a class that is not
    primitive reads its representative."""
    disc, places = table.disc, table.places
    F = disc.field
    ones = (1,) * len(places)
    monic_chars = {}  # chi_p(a_m) at every place, by a_m
    twists = {}  # chi(lead)^(deg p) at every place, by lead
    hasse = {}  # by deg a and lead
    out = []
    for ci, (i, a) in enumerate(table._classes):
        a_m, b, c = table._monic[i]
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


def canonical_disc_count(field, m):
    """The number of canonical definite discriminants of degree m."""
    return 1 if m == 0 else (2 if m % 2 else 1) * field.q**m


def canonical_disc_at(field, m, index):
    """The canonical definite discriminant of degree m at `index` in
    `canonical_discs` order: by leading coefficient, 1 before delta (delta
    alone at even m), then by the key of the lower part."""
    if m == 0:
        return field.poly((field.delta,))
    leads = (1, field.delta) if m % 2 else (field.delta,)
    lead, low = divmod(index, field.q**m)
    return field.poly_from_key(low + leads[lead] * field.q**m)


def canonical_discs(field, max_degree):
    """Canonical definite discriminants, ascending by (degree, key)."""
    return [
        canonical_disc_at(field, m, index)
        for m in range(max_degree + 1)
        for index in range(canonical_disc_count(field, m))
    ]


def class_number(form):
    """Number of classes in the genus of the form (within its exact disc)."""
    if form.n != 2 or not form.is_definite():
        raise ValueError("class numbers are computed for definite binary forms")
    table = class_table(form.field, form.discriminant(), form.is_primitive())
    return table.class_count_in_genus_of(form)


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


def irreducible_factor_count(d):
    """Number of distinct irreducible factors (r in the genus-count 2^r)."""
    if d.degree == 0:
        return 0
    return len(factor(d)[1])
