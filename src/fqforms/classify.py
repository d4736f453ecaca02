"""Class tables for definite binary forms of a fixed discriminant.

Every reduced definite binary form (a, b, c) with b^2 - ac = D has
deg a <= deg D / 2 and deg b < deg a, so the forms of discriminant
exactly D come from a finite enumeration with c = (b^2 - D)/a.  The
congruence b^2 = D (mod a) depends only on the ideal (a), so it is solved
once per monic a_m, for many D of one degree at once, by `_monic_roots`,
the one root path that the class tables, `enumerate_forms` and the
Mumford divisors of `picard.pic_group` read (square roots of D at each
place of degree <= deg D / 2, lifted to prime powers once per D and
combined by CRT over the factorization of a_m), and the form
(u a_m, b, c / u) is reduced for every unit u.  Such forms have
b^2 - ac = D != 0 by construction, so they skip the checks of
`Form.__init__`; and as a content g of a form has g^2 | D, only a D with
a square factor needs the primitivity filter, which tests p | c only at
the places p with p^2 | D that divide a_m and b (`_is_primitive`).

Class tables are built a degree at a time: `class_batches` takes the
coefficient rows of many discriminants of one degree m, as many at once as
keep the largest arrays of a batch (division rows per solution at even m,
genus rows per class at odd m) near `BATCH_VALUES` int64 values
(`_disc_values`).  D -> D mod p is linear, so the residues of every D and
D' at every place of degree <= m / 2 are one matmul per place degree, and
the places of D, their multiplicities and the square-free test are read
off "D = D' = 0 mod p", the place of degree > m / 2 by an exact division
of rows (`_disc_places`), and the counts of chi_p(D) for |Pic| by norms
(`_place_counts`).  The roots at a linear a_m come from the F_q
square-root table for the whole batch; above degree 1 they are lifted and
combined per D from the batch residues.
Where deg a = deg c, c = (b^2 - D) / a_m comes from one exact division on
arrays (`_cofactors`), and one torus pass (below) names the classes of
every D of the batch.  A batch keeps its classes as arrays and gives the
totals per D that `verify comp` reads (proper classes, genera, equal
proper counts per genus, places) in numpy; a `ClassTable` is a view of
one D of a batch, which builds its polynomials, lists and dicts off its
slice of the arrays on first read.  `class_tables` hands out those views and
`class_table` is a batch of one.

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
batch of discriminants maps every form to its monic images under them.
`_class_keys` names the class and the proper class of every form by the
(a, b) keys of their first forms: in closed form where deg a < deg c, by
the least monic image under det U = +-1, and under det U = 1, where
deg a = deg c.  A class table partitions only the forms with monic a
there, never scaled by units; `forms` come in `enumerate_forms` order,
monic forms first, so every class's first form is among them.  That
first form is the representative of a class, (l a_m, b) with l the least
lead in the square class of u and b the first of +-b where
deg a < deg c, and classes are ordered by it.  A batch keeps, for each
class, its monic solution (a_m, b) and its lead l; the coefficient rows
of the representative (l a_m, b, c), c = (b^2 - D) / a_m / l, are divided
on arrays when read (`_Batch.class_rows`), and a table builds its forms
from them.

Genera group classes by their local data (Jordan invariants at the
divisors of D, Hasse symbol at infinity), built on first read from the
monic solutions in one numpy pass over every class of the batch
(`_batch_genera`), residue characters as norms once per distinct (a_m,
place) pair; only a class whose content p divides takes a representative
and `genus_symbol`.

A class with discriminant u^2 D is carried to the table of D by rescaling
one variable, so tables over canonical discriminants (leading coefficient
1 or delta) cover every square class.
"""

from __future__ import annotations

import collections
import functools

import numpy as np

from .errors import DEFAULT_BUDGET, BudgetError
from .ffpoly import Poly, _crt_roots, _jacobi, _monic_factorizations, _places
from .ffpoly import _roots_mod_powers, _sqrt_at_place, factor, is_irreducible
from .ffpoly import strip_valuation
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


def _is_primitive(a_m, b, disc, square_places):
    """Whether (a_m, b, (b^2 - disc) / a_m) is primitive, given the places p
    with p^2 | disc, the only places a content can hold.  p divides the
    content iff p | a_m, p | b and p | c, and with p^e || a_m, p | c iff
    p^(e+1) | b^2 - disc."""
    for p in square_places:
        e, _ = strip_valuation(a_m, p)
        if e and (b % p).is_zero() and ((b * b - disc) % p ** (e + 1)).is_zero():
            return False
    return True


def enumerate_forms(field, disc, primitive_only=False):
    """All reduced definite binary forms with discriminant exactly `disc`.

    b^2 = disc (mod a) is solved once per monic a (`_monic_roots`, a batch
    of one): the solutions (b, c) for a monic give (u a, b, c / u) for
    every unit u, and all of these share one content.  Forms come out
    ordered by (deg a, lead a, key of the low part of a, key of b).
    """
    if not is_definite_disc(disc):
        raise ValueError("discriminant is not definite-shaped")
    coeffs = _poly_rows([disc], disc.degree + 1)
    _, solutions = _monic_roots(field, coeffs, primitive_only, lambda _: disc)
    q, binary, out = field.q, Form._trusted_binary, []
    for k, (_, index, rows) in enumerate(solutions):
        size, a_ms = q**k, _monic_polys(field, k)[0]
        monic = [[] for _ in range(size)]  # (b, c) per monic a_m, by key
        for x, row in zip(index.tolist(), rows.tolist()):
            b = Poly(field, row)
            monic[x].append((b, (b * b - disc) // a_ms[x]))
        for lead in range(1, q):
            inv = field.constant(field.inv(lead))
            for low in range(size):
                a = field.poly_from_key(low + lead * size)
                for b, c in monic[a.monic().key() - size]:
                    out.append(binary(a, b, c * inv))
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
    least image with monic a' in key order, under det U = +-1 and under
    det U = 1, as two (forms, 2) arrays.

    The images come from the units of `_torus_weights`, one matmul per
    distinct (lc a, lc c) over the forms that share it, so that no weight
    block is copied per form, and over at most `BATCH_VALUES` image
    coefficients at once.  Each polynomial has its own key, which
    `key_powers` keeps from wrapping, and pairs are compared key by key."""
    powers = key_powers(q, rows.shape[2])
    top = rows.shape[2] - 1
    leads = rows[:, 0, top] * q + rows[:, 2, top]
    least = np.empty((2, len(rows), 2), dtype=np.int64)
    step = max(1, BATCH_VALUES // (4 * (q + 1) * rows.shape[2]))
    for lead in set(leads.tolist()):
        weights = _torus_weights(q, *divmod(lead, q))
        chosen = np.flatnonzero(leads == lead)
        for start in range(0, len(chosen), step):
            part = chosen[start : start + step]
            images = weights @ rows[part][:, None]
            keys = np.remainder(images, q, out=images) @ powers
            least[0, part] = _least_pairs(keys)
            least[1, part] = _least_pairs(keys[:, : q + 1])
    return least[0], least[1]


def _least_pairs(keys):
    """The least (a', b') key pair of each row of `keys` (forms, units, 2)."""
    a = keys[..., 0].min(axis=1)
    # keys are >= 0: `initial` only serves a batch with no such form
    b = np.where(keys[..., 0] == a[:, None], keys[..., 1], keys[..., 1].max(initial=0))
    return np.stack([a, b.min(axis=1)], axis=1)


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
        keys, proper_keys = _least_images(rows, F.q)
        for i, key, proper_key in zip(torus, keys.tolist(), proper_keys.tolist()):
            out[i] = tuple(key), tuple(proper_key)
    return out


# the fields of a `ClassTable` that `_Batch.class_lists` builds together
_CLASS_LISTS = ("proper_counts", "_class_of_key")


class ClassTable:
    """The classes of one exact discriminant, with their genera: a view of
    the `index`-th discriminant of a `_Batch`.

    A view holds its batch and its index; every field below is read off
    the batch's arrays on first read and kept.  `proper_counts[i]` is the
    number of proper classes (1 or 2) in class i and `_class_of_key` maps
    the (a, b) keys of a class's first form to its index
    (`_Batch.class_lists`).  `disc` is the discriminant and `places` its
    (place, multiplicity) pairs, as `factor(disc)[1]` gives them.
    `class_representatives` holds the first form of each class in
    `enumerate_forms` order, read off the batch's coefficient rows
    (`_Batch.class_rows`), and classes are ordered by it.  Two tables are
    equal when `field`, `disc`, `primitive_only`, `places`, the
    representatives and the two lists are.

    `genus_keys`
    (one per class) and `genera` (sorted class-index lists, ordered by
    first member) come from one numpy pass over the batch
    (`_batch_genera`), run when the genera of any of its tables are first
    read, with no representative built for a primitive class.  `forms`,
    `classes` and `proper_classes` (sorted form-index lists, ordered by
    first member) list every form.
    """

    __hash__ = None
    _COMPARED = ("field", "disc", "primitive_only", "places", "class_representatives")
    _COMPARED += _CLASS_LISTS

    def __init__(self, batch, index):
        self._batch, self._index = batch, index
        self.field, self.primitive_only = batch.field, batch.primitive_only

    def __getattr__(self, name):
        # called only for a field not read yet: build it off the batch
        if name in _CLASS_LISTS:
            vars(self).update(zip(_CLASS_LISTS, self._batch.class_lists(self._index)))
        elif name == "disc":
            self.disc = self._batch.disc(self._index)
        elif name == "places":
            self.places = self._batch.places(self._index)
        else:
            raise AttributeError(name)
        return vars(self)[name]

    def __eq__(self, other):
        if not isinstance(other, ClassTable):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._COMPARED)

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
        """The form (a, b, c) of each class, off the batch's `class_rows`."""
        F, binary = self.field, Form._trusted_binary
        lo, hi = self._batch.bounds[self._index : self._index + 2]
        rows = self._batch.class_rows(lo, hi).tolist()
        return [binary(*(Poly(F, row) for row in abc)) for abc in rows]

    @functools.cached_property
    def genus_keys(self):
        """One key per class, equal exactly within a genus: an int of
        character bits (`_batch_genera`) for a primitive class, the genus
        symbol of any other."""
        keys, pending = self._batch.genera
        lo, hi = self._batch.bounds[self._index : self._index + 2]
        out = keys[lo:hi].tolist()
        for ci in np.flatnonzero(pending[lo:hi].any(axis=1)).tolist():
            ranks = np.flatnonzero(pending[lo + ci]).tolist()
            out[ci] = self._pending_key(ci, out[ci], ranks)
        return out

    def _pending_key(self, ci, key, ranks):
        """The key of class ci with the bits of the places of `places` at
        `ranks` added, places p with p | a_m and p^2 | disc: chi_p(c) of the
        representative (a, b, c) by reciprocity, and the genus symbol of the
        representative where it vanishes."""
        at = self._batch.bounds[self._index] + ci
        c = Poly(self.field, self._batch.class_rows(at, at + 1)[0, 2].tolist())
        for rank in ranks:
            x = _jacobi(c, self.places[rank][0])
            if x == 0:  # p divides a and c, so b^2 = disc + ac too: not primitive
                return genus_symbol(self.class_representatives[ci], self.places)
            if x < 0:
                key |= 1 << rank
        return key

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


# a sweep builds its tables by `class_tables` and keeps none of them here
@functools.lru_cache(maxsize=16)
def _class_table_cached(field, disc, primitive_only):
    (table,) = class_tables(field, [disc], primitive_only)
    return table


BATCH_VALUES = 1 << 15  # int64 values in the largest arrays of one batch


def _disc_values(q, m):
    """About how many int64 values one D of degree m adds to the largest
    arrays of its batch: about q^(m/2) monic solutions of top degree m / 2,
    each with about (m + 1)(m / 2 + 1) values of division and coefficient
    rows at even m (`_cofactors`), and up to twice as many classes, each a
    genus row over the up to m places of D at odd m (`_batch_genera`).  The
    torus images of a solution are bounded in `_least_images` instead."""
    return max(1, q ** (m // 2) * ((m + 1) * (m // 2 + 1) if m % 2 == 0 else 2 * m))


def class_tables(field, discs, primitive_only=False):
    """The class tables of `discs`, definite discriminants of one degree, in
    order: an iterator of views of `class_batches`, so that a sweep holds
    one batch at once.  The discriminants are checked before any table is
    built."""
    discs = list(discs)
    if not all(map(is_definite_disc, discs)):
        raise ValueError("discriminant is not definite-shaped")
    if len({d.degree for d in discs}) > 1:
        raise ValueError("class_tables takes discriminants of one degree")
    if not discs:
        return iter(())
    coeffs = _poly_rows(discs, discs[0].degree + 1)
    return (
        ClassTable(batch, i)
        for batch in class_batches(field, coeffs, primitive_only, discs)
        for i in range(batch.n)
    )


def class_batches(field, coeffs, primitive_only=False, discs=None):
    """The `_Batch`es of the definite discriminants of one degree m with
    coefficient rows `coeffs` (discs, m + 1), in order: an iterator, each
    batch as many discriminants as keep its largest arrays near
    `BATCH_VALUES` int64 values (`_disc_values`).  `discs`, if given, are
    the same discriminants as polynomials, which the batches then build no
    more."""
    size = max(1, BATCH_VALUES // _disc_values(field.q, coeffs.shape[1] - 1))
    for start in range(0, len(coeffs), size):
        part = slice(start, start + size)
        yield _Batch(
            field, coeffs[part], primitive_only, None if discs is None else discs[part]
        )


# the classes of a batch, one entry per class: the index of its disc, deg
# a_m, the index of a_m among the monic polynomials of that degree in key
# order, whether a = a_m times the first non-square, the coefficient rows
# of b, its number of proper classes and the (a, b) keys of its first form
_Classes = collections.namedtuple("_Classes", "at degree index scaled b counts keys")

# the place data of a `_Batch`, built on first read (`_disc_places`)
_PLACE_FIELDS = ("exponents", "large", "large_degree")


class _Batch:
    """The class tables of discriminants D of one degree m, on int arrays.

    The sieve and the monic solutions (a_m, b) come from `_monic_roots`,
    as arrays (disc, index of a_m in key order, b) sorted by (disc, a_m,
    key of b).  Where deg a < deg c their classes are read off in closed
    form; where deg a = deg c, c comes from one exact division on arrays
    and one `_least_images` pass names the classes of every D at once.

    A batch keeps, per D, its coefficient rows `coeffs` and the `divides`
    and `square` bools of the places of degree <= m / 2; per class, the
    `_Classes` arrays `classes`, sorted by disc and in table order, with
    `bounds` the range of each D's.  On first read, as only `verify comp`,
    tables and Picard orders need them, it finds the `exponents` of those
    places and the rows of the place R of larger degree (`_disc_places`),
    and the totals that `verify comp` reads: `proper` classes,
    `place_total` (the number of places of D) and `genus_totals`.
    Polynomials, lists and dicts are built only by `ClassTable` views, on
    their first read."""

    def __init__(self, field, coeffs, primitive_only, discs=None):
        n, m = len(coeffs), coeffs.shape[1] - 1
        self.field, self.coeffs, self.primitive_only = field, coeffs, primitive_only
        self.n, self.m, self._discs = n, m, discs
        sieve, solutions = _monic_roots(field, coeffs, primitive_only, self.disc)
        self._residues, self.divides, self.square = sieve
        self.square_free = (~self.square.any(axis=1)).tolist()
        parts = [
            (_torus_part if 2 * k == m else _closed_part)(field, coeffs, k, *sols)
            for k, sols in enumerate(solutions)
        ]
        # by disc, then by deg a_m (the order of `parts`): argsort is stable
        merged = _Classes(*map(np.concatenate, zip(*parts)))
        order = np.argsort(merged.at, kind="stable")
        self.classes = _Classes(*(column[order] for column in merged))
        self.bounds = _segments(self.classes.at, n)

    def __getattr__(self, name):
        # called only for place data not read yet
        if name not in _PLACE_FIELDS:
            raise AttributeError(name)
        places = _places(self.field, self.m // 2)
        found = _disc_places(self.field, self.coeffs, places, self.divides, self.square)
        vars(self).update(zip(_PLACE_FIELDS, found))
        return vars(self)[name]

    @functools.cached_property
    def proper(self):
        return np.bincount(self.classes.at, self.classes.counts, self.n).astype(np.int64)

    @functools.cached_property
    def place_total(self):
        return np.count_nonzero(self.exponents, axis=1) + (self.large_degree > 0)

    def disc(self, i):
        """The i-th discriminant, as a polynomial."""
        if self._discs is not None:
            return self._discs[i]
        return Poly(self.field, self.coeffs[i].tolist())

    def places(self, i):
        """`factor(disc)[1]` of the i-th discriminant."""
        places = _places(self.field, self.m // 2)
        exponents = self.exponents[i]
        pairs = [(places[x], int(exponents[x])) for x in np.flatnonzero(exponents).tolist()]
        if self.large_degree[i]:
            pairs.append((Poly(self.field, self.large[i].tolist()), 1))
        return pairs

    def class_lists(self, i):
        """(`proper_counts`, `_class_of_key`) of the table of the i-th
        discriminant, off its slice of `classes`."""
        lo, hi = self.bounds[i : i + 2]
        keys = map(tuple, self.classes.keys[lo:hi].tolist())
        return self.classes.counts[lo:hi].tolist(), dict(zip(keys, range(hi - lo)))

    def class_rows(self, lo, hi):
        """The (hi - lo, 3, m + 1) coefficient rows of the representatives
        (a, b, c) of the classes lo .. hi - 1 of the batch: a = l a_m and
        c = (b^2 - D) / a_m / l, l = 1 or the first non-square, divided on
        arrays once per degree of a_m (`_cofactors`)."""
        F, m, c = self.field, self.m, _Classes(*(column[lo:hi] for column in self.classes))
        q, unit = F.q, F._first_nonsquare()
        leads = np.where(c.scaled, unit, 1)[:, None]
        inverses = np.where(c.scaled, F.inv(unit), 1)[:, None]
        out = np.zeros((hi - lo, 3, m + 1), dtype=np.int64)
        for k in range(m // 2 + 1):
            at = np.flatnonzero(c.degree == k)
            a_m, b = _monic_polys(F, k)[2][c.index[at]], c.b[at, :k]
            out[at, 0, : k + 1] = a_m * leads[at] % q
            out[at, 1, :k] = b
            cofactors = _cofactors(q, self.coeffs[c.at[at]], a_m, b)
            out[at, 2, : m - k + 1] = cofactors * inverses[at] % q
        return out

    @functools.cached_property
    def place_counts(self):
        """`_place_counts` of every discriminant."""
        return _place_counts(self.field, self.coeffs, self._residues)

    @functools.cached_property
    def genera(self):
        return _batch_genera(self)

    @functools.cached_property
    def genus_totals(self):
        """(genera, equal) arrays: the number of genera of each D, and
        whether every genus of D holds the same number of proper classes.
        A D with a class whose genus key needs its genus symbol
        (`ClassTable._pending_key`) is read off its table."""
        keys, pending = self.genera
        c = self.classes
        order = np.lexsort((keys, c.at))
        starts, _ = _runs(c.at[order], keys[order])
        owner = c.at[order][starts]
        genera = np.bincount(owner, minlength=self.n)
        sums = np.add.reduceat(c.counts[order], starts)
        equal = np.ones(self.n, dtype=bool)
        equal[owner[1:][(owner[1:] == owner[:-1]) & (sums[1:] != sums[:-1])]] = False
        for i in sorted(set(c.at[pending.any(axis=1)].tolist())):
            table = ClassTable(self, i)
            genera[i] = len(table.genera)
            equal[i] = len(set(table.proper_counts_per_genus())) == 1
        return genera, equal


def _monic_roots(field, coeffs, primitive_only, disc):
    """(`_sieve`, solutions) of the discriminants D of one degree m with
    coefficient rows `coeffs`, `disc(i)` the i-th as a polynomial.  The
    solutions are, per k = deg a_m <= m / 2, the (disc, index of a_m in key
    order, b rows) arrays of every monic a_m | b^2 - D with deg b < k,
    sorted by (disc, a_m, key of b), and only those of primitive
    (a_m, b, (b^2 - D) / a_m) if `primitive_only`: at k = 1 from the
    square-root table of F_q, above it by CRT over roots lifted per D
    (`_crt_solutions`).

    BudgetError before anything is allocated once the (m + 1) q^(m / 2)
    values of the residue maps of the places of degree <= m / 2, which
    bound the largest table built per degree, exceed the default budget."""
    q, n, m = field.q, len(coeffs), coeffs.shape[1] - 1
    top, budget = m // 2, DEFAULT_BUDGET
    values = (m + 1) * q**top
    if values > budget:
        raise BudgetError(f"degree {m} needs {values} residue-map values (budget {budget})")
    places = _places(field, top)
    sieve = _sieve(field, coeffs)
    residues, _, square = sieve
    solutions = [(np.arange(n), np.zeros(n, np.int64), np.zeros((n, 0), np.int64))]
    if top >= 1:
        solutions.append(_linear_solutions(residues[0][:, :, 0], q))
    if top >= 2:
        solutions.extend(_crt_solutions(field, residues, places, disc))
    if primitive_only and square.any():
        solutions = [
            _primitive_solutions(field, m, square, disc, *sols, places) for sols in solutions
        ]
    return sieve, solutions


def _place_counts(field, coeffs, residues):
    """The (polynomials, g, 3) counts (inert, ramified, split) per place
    degree k = 1 .. g = (m - 1) / 2 of polynomials of degree m with
    coefficient rows `coeffs` and `_residues` `residues`: how many places
    of degree k make chi_p -1, 0 or 1."""
    n, m = coeffs.shape[0], coeffs.shape[1] - 1
    maps = _residue_maps(field, m)[: (m - 1) // 2]
    counts = np.zeros((n, len(maps), 3), dtype=np.int64)
    for k, ((_, rows, _), x) in enumerate(zip(maps, residues)):
        chars = _residue_chars(field, x.reshape(-1, k + 1), np.tile(rows, (n, 1)))
        counts[:, k] = (chars.reshape(n, -1, 1) == np.arange(-1, 2)).sum(axis=1)
    return counts


def _sieve(field, coeffs):
    """(`_residues`, divides, square) of nonzero polynomials of one degree m
    with coefficient rows `coeffs`: a place p of degree <= m / 2 divides D
    where D = 0 mod p, and p^2 divides D where D' = 0 mod p too, as places
    are separable; both are (polynomials, places of `_places(field,
    m // 2)`) bools."""
    n, m = coeffs.shape[0], coeffs.shape[1] - 1
    residues = _residues(field, m, coeffs)
    divides = _zero_at(residues, n)
    derivatives = coeffs[:, 1:] * np.arange(1, m + 1) % field.q
    square = divides & _zero_at(_residues(field, m, derivatives), n)
    return residues, divides, square


@functools.lru_cache(maxsize=32)
def _residue_maps(field, m):
    """[(places, rows, maps)] per place degree k <= m / 2: the places of
    degree k in key order, their (places, k + 1) coefficient rows, and the
    (m + 1, places, k) array whose [j, i] holds t^j mod the i-th place, so
    that the residues of a polynomial of degree <= m at all of them are one
    matmul with its coefficients."""
    out = []
    places = _places(field, m // 2)
    for k in range(1, m // 2 + 1):
        places_k = [p for p in places if p.degree == k]
        rows = _poly_rows(places_k, k + 1)
        power = np.zeros((len(places_k), k), dtype=np.int64)
        power[:, 0] = 1
        maps = [power]
        for _ in range(m):
            maps.append(_times_t(maps[-1], rows, field.q))
        out.append((places_k, rows, np.stack(maps)))
    return out


def _times_t(x, places, q):
    """x t mod p of residues x (..., k) at places p of degree k with
    coefficient rows `places` (..., k + 1), broadcast together."""
    top = x[..., -1:]
    shifted = np.concatenate([np.zeros_like(top), x[..., :-1]], axis=-1)
    return (shifted - top * places[..., :-1]) % q


def _residues(field, m, rows):
    """[(polynomials, places of degree k, k) residues, for k = 1 .. m / 2]
    of the polynomials of degree <= m with coefficient rows `rows` at the
    places of `_places(field, m // 2)`, one matmul per place degree."""
    padded = _padded(rows, m + 1)
    return [
        (padded @ maps.reshape(m + 1, -1) % field.q).reshape(len(rows), *maps.shape[1:])
        for _, _, maps in _residue_maps(field, m)
    ]


def _padded(rows, length):
    """`rows` widened to `length` columns with zeros."""
    out = np.zeros((len(rows), length), dtype=np.int64)
    out[:, : rows.shape[1]] = rows
    return out


def _chars_at(field, m, rows, at):
    """chi_p of each polynomial of degree <= m, given by its coefficient
    row, at its own place p, given by its index in `at` into
    `_places(field, m // 2)`."""
    padded = _padded(rows, m + 1)
    out = np.zeros(len(rows), dtype=np.int64)
    start = 0
    for places_k, place_rows, maps in _residue_maps(field, m):
        end = start + len(places_k)
        chosen = (start <= at) & (at < end)
        if chosen.any():
            local = at[chosen] - start
            residues = np.einsum("nj,jnk->nk", padded[chosen], maps[:, local]) % field.q
            out[chosen] = _residue_chars(field, residues, place_rows[local])
        start = end
    return out


def _distinct_chars(field, m, rows, owners, at):
    """`_chars_at` of `rows[owners]` at the places `at`, once per distinct
    (owner, place) pair: sorted, with runs read off by adjacent compares
    (`_runs`), as `np.unique` would import `numpy.ma`."""
    count = len(_places(field, m // 2))
    codes = owners * count + at
    order = np.argsort(codes)
    starts, lengths = _runs(codes[order])
    owner, place = np.divmod(codes[order[starts]], count)
    out = np.empty(len(codes), dtype=np.int64)
    out[order] = np.repeat(_chars_at(field, m, rows[owner], place), lengths)
    return out


def _runs(*columns):
    """The start of each run of equal rows of the sorted `columns`, and
    each run's length."""
    n = len(columns[0])
    change = np.zeros(n, dtype=bool)
    change[:1] = True
    for column in columns:
        change[1:] |= column[1:] != column[:-1]
    starts = np.flatnonzero(change)
    return starts, np.diff(np.append(starts, n))


def _residue_chars(field, x, places):
    """chi_p(x) of residues x (n, k) at places p of degree k with
    coefficient rows `places` (n, k + 1), row by row.

    A/(p) is the field of q^k elements, in which x^((q^k - 1) / 2) =
    N(x)^((q - 1) / 2) for the norm N down to F_q, so chi_p(x) = chi(N(x)).
    N(x) is the determinant of multiplication by x on A/(p), whose columns
    are x t^j mod p for j < k (at k = 1 the residue itself), by Gaussian
    elimination mod q, k steps over all rows at once."""
    q, k = field.q, x.shape[-1]
    chars = np.array(field.chars)
    if k == 1:
        return chars[x[:, 0]]
    columns = [x]
    for _ in range(1, k):
        columns.append(_times_t(columns[-1], places, q))
    matrix = np.stack(columns, axis=-1)  # [i, r, j]: coefficient r of x t^j
    n = len(matrix)
    inverses = np.array([0] + [pow(a, q - 2, q) for a in range(1, q)])
    norm = np.ones(n, dtype=np.int64)
    every = np.arange(n)
    for j in range(k):
        # the first row r >= j with a nonzero entry in column j; none: N = 0
        nonzero = matrix[:, j:, j] != 0
        pivot = j + nonzero.argmax(axis=1)
        swapped = matrix[every, pivot].copy()
        matrix[every, pivot] = matrix[:, j].copy()
        matrix[:, j] = swapped
        lead = matrix[:, j, j]
        norm = np.where(pivot == j, norm, -norm) * lead % q
        below = matrix[:, j + 1 :, j] * inverses[lead][:, None] % q
        matrix[:, j + 1 :] = (matrix[:, j + 1 :] - below[..., None] * matrix[:, j, None]) % q
    return chars[norm]


def _zero_at(residues, n):
    """(polynomials, places) bools: whether each place divides each of the
    n polynomials, from their `_residues`."""
    zero = [np.zeros((n, 0), dtype=bool)] + [~r.any(axis=2) for r in residues]
    return np.concatenate(zero, axis=1)


def _linear_solutions(values, q):
    """(disc, a_m index, b) arrays of the roots b of x^2 = D mod a_m for
    a_m = t + s of index s, from `values`, the (discs, q) residues D(-s)."""
    r = np.arange(q)
    table = np.full(q, -1, dtype=np.int64)  # a root of each square, -1 elsewhere
    table[r * r % q] = r
    root = table[values]
    roots = np.stack([np.minimum(root, -root % q), np.maximum(root, -root % q)], axis=2)
    found = np.stack([root >= 0, root > 0], axis=2)  # 0 has one root
    disc, s, _ = np.nonzero(found)
    return disc, s, roots[found][:, None]


def _crt_solutions(field, residues, places, disc):
    """(disc, a_m index, b) arrays for every degree 2 .. deg D / 2 of a_m,
    `disc(i)` the i-th D: the root of D at each of `places` from its
    residue in `residues` (`_residues`), lifted to the powers of the place
    per D, and combined by CRT (`ffpoly._crt_roots`)."""
    top = len(residues)
    out = [([], [], []) for _ in range(2, top + 1)]
    for i in range(len(residues[0])):
        d = disc(i)
        rows = [row for residue in residues for row in residue[i].tolist()]
        roots_at = {
            p: _roots_mod_powers(d, p, top // p.degree, _sqrt_at_place(field.poly(row), p))
            for p, row in zip(places, rows)
        }
        for k, (at, index, b_rows) in enumerate(out, 2):
            for j, (_, roots) in enumerate(_crt_roots(field, roots_at, k)):
                for b in roots:
                    at.append(i)
                    index.append(j)
                    b_rows.append(b.coeffs + (0,) * (k - len(b.coeffs)))
    return [
        (
            np.array(at, dtype=np.int64),
            np.array(index, dtype=np.int64),
            np.array(b_rows, dtype=np.int64).reshape(len(b_rows), k),
        )
        for k, (at, index, b_rows) in enumerate(out, 2)
    ]


def _primitive_solutions(field, m, square, disc, at, index, rows, places):
    """The solutions (disc, a_m index, b rows) of one degree whose form is
    primitive, given the `square` bools of the sieve and `disc(i)` the i-th
    D.  A place p divides the content only if p^2 | D, p | a_m and p | b,
    read off their residues at every place (one matmul per place degree);
    `_is_primitive` decides the few solutions where some place does."""
    k = rows.shape[1]
    if k == 0:  # a_m = 1
        return at, index, rows
    monic, _, monic_rows = _monic_polys(field, k)
    suspects = square[at] & _zero_at(_residues(field, m, monic_rows), len(monic))[index]
    chosen = np.flatnonzero(suspects.any(axis=1))  # b is sieved only here
    suspects = suspects[chosen] & _zero_at(_residues(field, m, rows[chosen]), len(chosen))
    keep = np.ones(len(at), dtype=bool)
    for s, suspected in zip(chosen.tolist(), suspects.tolist()):
        suspected = [p for p, x in zip(places, suspected) if x]
        if suspected:
            b = field.poly(rows[s].tolist())
            keep[s] = _is_primitive(monic[index[s]], b, disc(at[s]), suspected)
    return at[keep], index[keep], rows[keep]


@functools.lru_cache(maxsize=32)
def _monic_polys(field, k):
    """(the monic a_m of degree k in key order, the keys of each times the
    first non-square, and the coefficient rows of the a_m)."""
    q, size = field.q, field.q**k
    monic = [field.poly_from_key(size + j) for j in range(size)]
    rows = _poly_rows(monic, k + 1)
    return monic, (rows * field._first_nonsquare() % q) @ q ** np.arange(k + 1), rows


def _segments(at, n):
    """Bounds [lo, hi) of the entries of each of n discs in `at`, sorted."""
    return np.searchsorted(at, np.arange(n + 1)).tolist()


def _closed_part(field, coeffs, k, at, index, rows):
    """Where deg a < deg c: the classes (u a_m, +-b) of each D, with u = 1
    or the first non-square and b the first of +-b in key order, sorted by
    (key of a, key of b).  Returns the `_Classes` in table order, with the
    b rows as wide as `_Batch` keeps them."""
    q, m = field.q, coeffs.shape[1] - 1
    powers = q ** np.arange(k, dtype=np.int64)
    b_keys, neg_keys = rows @ powers, (-rows % q) @ powers
    kept = b_keys <= neg_keys
    at, index, rows, b_keys = at[kept], index[kept], rows[kept], b_keys[kept]
    _, scaled_keys, _ = _monic_polys(field, k)
    # by (disc, key of the scaled a_m, key of b): lexsort is stable
    by_scaled = np.lexsort((scaled_keys[index], at))
    solution = np.concatenate([np.arange(len(at)), by_scaled])
    is_scaled = np.arange(len(solution)) >= len(at)
    order = np.argsort(2 * at[solution] + is_scaled, kind="stable")
    solution, scaled = solution[order], is_scaled[order]
    index, b_keys = index[solution], b_keys[solution]
    a_keys = np.where(scaled, scaled_keys[index], q**k + index)
    return _Classes(
        at=at[solution],
        degree=np.full(len(solution), k),
        index=index,
        scaled=scaled,
        b=_padded(rows[solution], m // 2),
        counts=np.where(b_keys != 0, 2, 1),
        keys=np.stack([a_keys, b_keys], axis=1),
    )


def _cofactors(q, coeffs, a_rows, b_rows):
    """The (n, m - k + 1) coefficient rows of (b^2 - D) / a_m, an exact
    division, for D, monic a_m of degree k and b with rows `coeffs`
    (n, m + 1), `a_rows` (n, k + 1) and `b_rows` (n, k): each quotient
    column is the top column left, from the top down."""
    k, m = b_rows.shape[1], coeffs.shape[1] - 1
    rest = -coeffs
    for j in range(k):
        rest[:, j : j + k] += b_rows[:, j : j + 1] * b_rows
    out = np.empty((len(coeffs), m - k + 1), dtype=np.int64)
    for j in reversed(range(m - k + 1)):
        out[:, j] = rest[:, j + k] % q
        rest[:, j : j + k + 1] -= out[:, j, None] * a_rows
    return out


def _torus_part(field, coeffs, k, at, index, rows):
    """Where deg a = deg c = k: c = (b^2 - D) / a_m for every solution, the
    class keys of all of them from one `_least_images` pass, and the
    classes of each D in order of their first form, which is the
    representative (a_m, b, c) of its class.  Returns what `_closed_part`
    does."""
    q, n = field.q, len(at)
    a_rows = _monic_polys(field, k)[2][index]
    c_rows = _cofactors(q, coeffs[at], a_rows, rows)
    keys, proper_keys = _least_images(
        np.stack([a_rows, _padded(rows, k + 1), c_rows], axis=1), q
    )
    # group by (disc, class key), then count the proper keys in each group
    columns = np.stack([at, *keys.T, *proper_keys.T])
    order = np.lexsort(columns[::-1])
    starts, _ = _runs(*columns[:3, order])
    proper, _ = _runs(*columns[:, order])
    firsts = np.minimum.reduceat(order, starts)
    counts = np.diff(np.searchsorted(proper, np.append(starts, n)))
    by_first = np.argsort(firsts)
    firsts, counts = firsts[by_first], counts[by_first]
    return _Classes(
        at=at[firsts],
        degree=np.full(len(firsts), k),
        index=index[firsts],
        scaled=np.zeros(len(firsts), dtype=bool),
        b=rows[firsts],
        counts=counts.astype(np.int64),
        keys=keys[firsts],
    )


def _disc_places(field, coeffs, places, divides, square):
    """(exponents, large, large degrees) of polynomials D of degree m with
    coefficient rows `coeffs`, off their sieve at `places`: the
    (polynomials, places) multiplicity of each place (above 1 by
    stripping), and the rows and degrees of R = D / (lc D S),
    S = prod p^e over those places, 1 or the place of degree > m / 2:
    t^m D(1/t) over t^s S(1/t), s = deg S, a column per step."""
    q, n, m = field.q, len(coeffs), coeffs.shape[1] - 1
    exponents = divides.astype(np.int64)
    for i, x in zip(*np.nonzero(square)):
        exponents[i, x] = strip_valuation(field.poly(coeffs[i].tolist()), places[x])[0]
    below = np.eye(1, m + 1, dtype=np.int64).repeat(n, axis=0)  # t^s S(1/t)
    for x in np.flatnonzero(exponents.any(axis=0)).tolist():
        p = places[x].coeffs[::-1]
        for e in range(exponents[:, x].max()):  # times p reversed where p^(e + 1) | D
            grown, times = below.copy(), exponents[:, x, None] > e
            for j in range(1, len(p)):
                grown[:, j:] += p[j] * times * below[:, :-j]
            below = grown % q
    inverses = np.array([0] + [pow(c, q - 2, q) for c in range(1, q)])
    rest = coeffs[:, ::-1] * inverses[coeffs[:, m, None]] % q  # t^m D(1/t) / lc D
    for j in range(1, m + 1):
        rest[:, j] = (rest[:, j] - (below[:, j:0:-1] * rest[:, :j]).sum(axis=1)) % q
    degrees = m - exponents @ np.array([p.degree for p in places], dtype=np.int64)
    # coefficient j of R is column deg R - j of its reversed row
    source = degrees[:, None] - np.arange(m + 1)
    large = np.take_along_axis(rest, np.maximum(source, 0), axis=1) * (source >= 0)
    return exponents, large, degrees


def _batch_genera(batch):
    """(keys, pending) over the classes of `batch`, in its order: one int
    key per class, and (classes, ranks) bools, set at the ranks r of the
    places of D whose bits the key of a class still lacks
    (`ClassTable._pending_key`).

    Bit r of a key is set where the assigned character of the class at the
    r-th place of D is -1, and the bit above them where its Hasse symbol at
    infinity is.  With a = l a_m, l = 1 or the first non-square:
    - at a place p of D of degree <= m / 2 that does not divide a_m,
      chi_p(a) = chi(l)^(deg p) chi_p(a_m), computed once per distinct
      (a_m, p) pair of the batch (`_distinct_chars`);
    - where p | a_m and p || D, p || a_m and the character is chi_p(c) =
      chi(l)^(deg p) chi_p(c_m), c_m = (b^2 - D) / a_m.  p | b, so
      c_m = -(D / p) / (a_m / p) mod p, and D' = p' (D / p) mod p, so
      chi_p(c_m) = chi_p(-p' a_m / p) chi_p(D'), the first per (a_m, p)
      from `_monic_factors`, the second once per distinct (D, p);
    - where p | a_m and p^2 | D the class is pending;
    - at the place R of degree > m / 2, where D has one (at most one, of
      multiplicity 1), R does not divide a_m, and by reciprocity chi_R(a_m)
      = (-1)^(((q - 1) / 2) deg a_m deg R) prod chi_p(R)^e over p^e || a_m,
      chi_p(R) once per distinct (D, p);
    - the Hasse symbol at infinity reads only deg a, l and deg D, lc D
      (`_binary_hasse_at_infinity`)."""
    field, n, m = batch.field, batch.n, batch.m
    q, top = field.q, m // 2
    places = _places(field, top)
    monic_rows, factors, exponents, cofactor_chars = _monic_factors(field, top)
    # `index` runs over the monic a_m of every degree <= m / 2, as
    # `_monic_factors` does
    offsets = np.cumsum([0] + [q**k for k in range(top)])
    at, scaled, degree = batch.classes.at, batch.classes.scaled, batch.classes.degree
    index = offsets[degree] + batch.classes.index

    # the places of degree <= m / 2 of each D, as (discs, rank) indices
    small = batch.divides.sum(axis=1)
    width = int(small.max(initial=0))
    owner, where = np.nonzero(batch.divides)
    ranked = np.zeros((n, width), dtype=np.int64)
    ranked[owner, np.cumsum(batch.divides, axis=1)[owner, where] - 1] = where
    columns, pairs = ranked[at], np.arange(width) < small[at, None]
    chars = np.zeros(pairs.shape, dtype=np.int64)
    pc, pj = np.nonzero(pairs)
    chars[pc, pj] = _distinct_chars(field, m, monic_rows, index[pc], columns[pc, pj])
    divides_a = pairs & (chars == 0)
    pending = divides_a & batch.square[at[:, None], columns]
    rc, rj = np.nonzero(divides_a & ~pending)
    if len(rc):
        p = columns[rc, rj]
        own = (factors[index[rc]] == p[:, None]) & (exponents[index[rc]] > 0)
        derivatives = batch.coeffs[:, 1:] * np.arange(1, m + 1) % q
        own_chars = (cofactor_chars[index[rc]] * own).sum(axis=1)
        chars[rc, rj] = own_chars * _distinct_chars(field, m, derivatives, at[rc], p)
    odd = np.array([p.degree % 2 == 1 for p in places], dtype=bool)
    chars[scaled[:, None] & odd[columns]] *= -1
    keys = (chars < 0) @ (1 << np.arange(width, dtype=np.int64))

    large_degrees = batch.large_degree[at]
    odd_half = (q - 1) // 2 % 2 == 1
    flip = (large_degrees % 2 == 1) & (scaled ^ (odd_half & (degree % 2 == 1)))
    fc, fs = np.nonzero((exponents[index] % 2 == 1) & (large_degrees > 0)[:, None])
    if len(fc):
        chars_r = _distinct_chars(field, m, batch.large, at[fc], factors[index[fc], fs])
        flip ^= np.bincount(fc[chars_r < 0], minlength=len(at)) % 2 == 1
    has_large = large_degrees > 0
    keys |= (flip & has_large).astype(np.int64) << small[at]

    # the symbol at infinity by (deg a_m, lc D, l), from lc D t^m
    lcs = batch.coeffs[:, m]
    leads = np.flatnonzero(np.bincount(lcs, minlength=q)).tolist()
    shapes = [field.poly((0,) * m + (lc,)) for lc in leads]
    units = (1, field._first_nonsquare())
    minus_at_infinity = np.array(
        [
            [[_binary_hasse_at_infinity(k, u, disc) < 0 for u in units] for disc in shapes]
            for k in range(top + 1)
        ]
    )
    lead_index = np.searchsorted(leads, lcs)[at]
    infinity = minus_at_infinity[degree, lead_index, scaled.astype(np.int64)]
    keys |= infinity.astype(np.int64) << (small[at] + has_large)
    return keys, pending


@functools.lru_cache(maxsize=32)
def _monic_factors(field, top):
    """(rows, places, exponents, chars) over the monic a_m of every degree
    k <= top, by degree and then key: their (., top + 1) coefficient rows,
    and (., top) arrays of the index into `_places(field, top)` of each
    place p | a_m, its exponent e and chi_p(-p' a_m / p^e), with exponent 0
    in the slots left."""
    size = sum(field.q**k for k in range(top + 1))
    index = {p: i for i, p in enumerate(_places(field, top))}
    places = np.zeros((size, top), dtype=np.int64)
    exponents = np.zeros((size, top), dtype=np.int64)
    monic, cofactors = [], []
    for k in range(top + 1):
        for u, factors in _monic_factorizations(field, k):
            for s, (p, e, _) in enumerate(factors):
                places[len(monic), s], exponents[len(monic), s] = index[p], e
                cofactors.append(u // p**e)
            monic.append(u)
    chars = np.ones((size, top), dtype=np.int64)
    filled = exponents > 0
    rows = _poly_rows(cofactors, top + 1)
    derivatives = _poly_rows(_places(field, top), top + 1)[:, 1:] * np.arange(1, top + 1)
    minus = _chars_at(field, 2 * top, -derivatives % field.q, np.arange(len(derivatives)))
    chars[filled] = _chars_at(field, 2 * top, rows, places[filled]) * minus[places[filled]]
    return _poly_rows(monic, top + 1), places, exponents, chars


def canonical_disc_count(field, m):
    """The number of canonical definite discriminants of degree m."""
    return 1 if m == 0 else (2 if m % 2 else 1) * field.q**m


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
