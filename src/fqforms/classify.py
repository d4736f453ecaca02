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
a square factor needs the primitivity filter, which tests p | c only at
the places p with p^2 | D that divide a_m and b (`_is_primitive`).

Class tables are built a degree at a time: `class_tables` takes many
discriminants of one degree m, `TABLE_CHUNK` at a time, on int arrays.
D -> D mod p is linear, so the residues of every D and D' at every place
of degree <= m / 2 are one matmul per place degree, and the places of D,
their multiplicities and the square-free test are read off
"D = D' = 0 mod p", the place of degree > m / 2 by an exact division of
rows (`_disc_places`), and the counts of chi_p(D) for |Pic| by norms
(`_place_counts`).  The roots at a linear a_m come from the F_q
square-root table for the whole batch; above degree 1 they are lifted and
combined per D, as `square_roots_mod` does, from the batch residues.
Where deg a = deg c, c = (b^2 - D) / a_m comes from one gathered quotient
map per monic a_m, and one torus pass (below) names the classes of every
D of the batch; only the grouping of keys into tables is per D.
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
deg a < deg c, and classes are ordered by it.  A table keeps, for each
class, its monic solution (a_m, b), its lead l and, where the torus pass
computed it, c; the representative (l a_m, b, c) is built on first read,
with c = (b^2 - D) / a_m computed once per (a_m, b) and divided by l.

Genera group classes by their local data (Jordan invariants at the
divisors of D, Hasse symbol at infinity), built on first read from the
monic solutions in one numpy pass over every class of the batch
(`_batch_genera`), residue characters as norms (`_residue_chars`); only a
class whose content p divides takes a representative and `genus_symbol`.

A class with discriminant u^2 D is carried to the table of D by rescaling
one variable, so tables over canonical discriminants (leading coefficient
1 or delta) cover every square class.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .ffpoly import Poly, _crt_roots, _jacobi, _monic_factorizations, _places
from .ffpoly import _roots_mod_powers, _sqrt_at_place, factor, is_irreducible
from .ffpoly import square_roots_mod, strip_valuation
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


def _monic_solutions(disc, deg_a, square_places):
    """[(a_m, [b, ...])] for every monic a_m of degree `deg_a`, in key
    order: a_m | b^2 - disc with deg b < deg a_m, b in key order, and only
    primitive (a_m, b, (b^2 - disc) / a_m) when `square_places` (the places
    p with p^2 | disc) is not empty."""
    out = []
    for a, roots in square_roots_mod(disc, deg_a):
        if square_places:
            roots = [b for b in roots if _is_primitive(a, b, disc, square_places)]
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
    # a content g has g^2 | disc, so only a place p with p^2 | disc divides it
    square_places = []
    if primitive_only:
        square = _sieve(field, [disc])[3][0].tolist()
        places = _places(field, disc.degree // 2)
        square_places = [p for p, s in zip(places, square) if s]
    out = []
    for deg_a in range(disc.degree // 2 + 1):
        solutions = _monic_solutions(disc, deg_a, square_places)
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
    least image with monic a' in key order, under det U = +-1 and under
    det U = 1, as two (forms, 2) arrays.

    The images come from the units of `_torus_weights`, one matmul per
    distinct (lc a, lc c) over all forms that share it, so that no weight
    block is copied per form.  Each polynomial has its own key, which
    `key_powers` keeps from wrapping, and pairs are compared key by key."""
    powers = key_powers(q, rows.shape[2])
    top = rows.shape[2] - 1
    leads = rows[:, 0, top] * q + rows[:, 2, top]
    keys = np.empty((len(rows), 2 * (q + 1), 2), dtype=np.int64)
    for lead in set(leads.tolist()):
        chosen = leads == lead
        images = _torus_weights(q, *divmod(lead, q)) @ rows[chosen][:, None]
        keys[chosen] = np.remainder(images, q, out=images) @ powers
    half = keys.shape[1] // 2
    return _least_pairs(keys), _least_pairs(keys[:, :half])


def _least_pairs(keys):
    """The least (a', b') key pair of each row of `keys` (forms, units, 2)."""
    a = keys[..., 0].min(axis=1)
    b = np.where(keys[..., 0] == a[:, None], keys[..., 1], keys[..., 1].max())
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


@dataclasses.dataclass
class ClassTable:
    """The classes of one exact discriminant, with their genera.

    The table keeps what its build found: `_monic` holds the monic
    solutions (a_m, b, c) that name classes, c where the torus pass
    computed it and None elsewhere, and `_classes` holds (index into
    `_monic`, a) for each class, a = a_m or a_m times the first
    non-square.  `proper_counts[i]` is the number of proper classes (1 or
    2) in class i.  `places` holds the (place, multiplicity) pairs of
    `disc`, as `factor(disc)[1]` gives them, read off the residues of the
    batch that built the table, as is `place_counts` (`_place_counts`);
    `_batch` (`_Batch`) is what the tables of that batch share for their
    characters and `_index` the place of this table in it.  The last three
    take no part in comparisons.

    The rest is built on first read.  `class_representatives` holds the
    first form of each class in `enumerate_forms` order, and classes are
    ordered by it.  `genus_keys` (one per class) and `genera` (sorted
    class-index lists, ordered by first member) come from one numpy pass
    over the batch (`_batch_genera`), run when the genera of any of its
    tables are first read, with no representative built for a primitive
    class.  `forms`, `classes` and `proper_classes` (sorted
    form-index lists, ordered by first member) list every form.
    """

    field: object
    disc: object
    primitive_only: bool
    places: list
    _monic: list  # (a_m, b, c or None)
    _classes: list  # (index into _monic, a) per class
    proper_counts: list
    _class_of_key: dict  # (a, b) keys of a class's first form -> class index
    place_counts: list = dataclasses.field(default=None, compare=False, repr=False)
    _batch: object = dataclasses.field(default=None, compare=False, repr=False)
    _index: int = dataclasses.field(default=0, compare=False, repr=False)

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
        """One key per class, equal exactly within a genus: an int of
        character bits (`_batch_genera`) for a primitive class, the genus
        symbol of any other."""
        keys, pending = self._batch.genera[self._index]
        keys = list(keys)
        for ci, ranks in pending:
            keys[ci] = self._pending_key(ci, keys[ci], ranks)
        return keys

    def _pending_key(self, ci, key, ranks):
        """The key of class ci with the bits of the places of `places` at
        `ranks` added, places p with p | a_m and p^2 | disc: chi_p(c), for
        c = (b^2 - disc) / (lead a_m), by reciprocity, and the genus symbol
        of the representative where it vanishes."""
        i, a = self._classes[ci]
        a_m, b, c = self._monic[i]
        if c is None:
            c = (b * b - self.disc) // a_m
        chi = self.field.char(a.coeffs[-1])
        for rank in ranks:
            p = self.places[rank][0]
            x = _jacobi(c, p) * chi**p.degree
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


TABLE_CHUNK = 32  # discriminants per batch of `class_tables`


def class_tables(field, discs, primitive_only=False):
    """The class tables of `discs`, definite discriminants of one degree, in
    order: an iterator that builds them `TABLE_CHUNK` at a time, so that a
    sweep holds one batch of tables at once.  The discriminants are checked
    before any table is built."""
    discs = list(discs)
    if not all(map(is_definite_disc, discs)):
        raise ValueError("discriminant is not definite-shaped")
    if len({d.degree for d in discs}) > 1:
        raise ValueError("class_tables takes discriminants of one degree")
    return (
        table
        for start in range(0, len(discs), TABLE_CHUNK)
        for table in _batch_tables(
            field, discs[start : start + TABLE_CHUNK], primitive_only
        )
    )


def _batch_tables(field, discs, primitive_only):
    """The class tables of `discs`, all of degree m, on int arrays.

    The residues of every D and D' at every place of degree <= m / 2 are
    one matmul per place degree; a place divides D where D is 0 there, and
    its square does where D' is too.  The monic solutions (a_m, b) come as
    arrays (disc, index of a_m in key order, b) sorted by (disc, a_m, key
    of b): at deg a_m = 1 from the square-root table of F_q, above it by
    CRT over roots lifted per D (`_crt_solutions`).  Where deg a < deg c
    their classes are read off in closed form; where deg a = deg c, c comes
    from one quotient map per a_m and one `_least_images` pass names the
    classes of every D at once.  Only the grouping into tables is per D."""
    q, m, n = field.q, discs[0].degree, len(discs)
    top = m // 2
    places = _places(field, top)
    coeffs, residues, divides, square = _sieve(field, discs)

    solutions = [(np.arange(n), np.zeros(n, np.int64), np.zeros((n, 0), np.int64))]
    if top >= 1:
        solutions.append(_linear_solutions(residues[0][:, :, 0], q))
    if top >= 2:
        solutions.extend(_crt_solutions(field, discs, places, residues))
    if primitive_only and square.any():
        solutions = [
            _primitive_solutions(field, discs, k, *sols, places, square)
            for k, sols in enumerate(solutions)
        ]
    parts = [
        (_torus_part if 2 * k == m else _closed_part)(field, coeffs, k, *sols)
        for k, sols in enumerate(solutions)
    ]
    disc_places, large = _disc_places(field, discs, coeffs, places, divides, square)
    batch = _Batch(field, discs, coeffs, divides, square, large, [x for _, x in parts])
    place_counts = _place_counts(field, coeffs, residues)

    tables = []
    for i, disc in enumerate(discs):
        monic, classes, keys, counts = [], [], [], []
        for extend, _ in parts:
            extend(i, monic, classes, keys, counts)
        tables.append(
            ClassTable(
                field=field,
                disc=disc,
                primitive_only=primitive_only,
                places=disc_places[i],
                _monic=monic,
                _classes=classes,
                proper_counts=counts,
                _class_of_key=dict(zip(keys, range(len(keys)))),
                place_counts=place_counts[i],
                _batch=batch,
                _index=i,
            )
        )
    return tables


@dataclasses.dataclass(eq=False)
class _Batch:
    """What the tables of one `_batch_tables` call share for their genera,
    computed for all of them on the first read of any table's."""

    field: object
    discs: list
    coeffs: object  # (discs, m + 1) coefficient rows
    divides: object  # (discs, places) bools: p | D, from `_sieve`
    square: object  # (discs, places) bools: p^2 | D
    large: object  # (discs, m + 1) rows of the place of D of degree > m / 2, or 1
    members: list  # (disc, a_m index, scaled) arrays per deg a_m, in table order

    @functools.cached_property
    def genera(self):
        return _batch_genera(self)


def _place_counts(field, coeffs, residues):
    """[[(inert, ramified, split) for k = 1 .. g] per polynomial of degree
    m, with coefficient rows `coeffs` and `_residues` `residues`]: how many
    places of degree k <= g = (m - 1) / 2 make chi_p -1, 0 or 1."""
    n, m = coeffs.shape[0], coeffs.shape[1] - 1
    maps = _residue_maps(field, m)[: (m - 1) // 2]
    counts = np.zeros((n, len(maps), 3), dtype=np.int64)
    for k, ((_, rows, _), x) in enumerate(zip(maps, residues)):
        chars = _residue_chars(field, x.reshape(-1, k + 1), np.tile(rows, (n, 1)))
        counts[:, k] = (chars.reshape(n, -1, 1) == np.arange(-1, 2)).sum(axis=1)
    return counts.tolist()


def _sieve(field, discs):
    """(coefficient rows, `_residues`, divides, square) of nonzero `discs`
    of one degree m: a place p of degree <= m / 2 divides D where D = 0
    mod p, and p^2 divides D where D' = 0 mod p too, as places are
    separable; both are (discs, places of `_places(field, m // 2)`) bools."""
    m, n = discs[0].degree, len(discs)
    coeffs = _poly_rows(discs, m + 1)
    residues = _residues(field, m, coeffs)
    divides = _zero_at(residues, n)
    derivatives = coeffs[:, 1:] * np.arange(1, m + 1) % field.q
    square = divides & _zero_at(_residues(field, m, derivatives), n)
    return coeffs, residues, divides, square


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


def _crt_solutions(field, discs, places, residues):
    """(disc, a_m index, b) arrays for every degree 2 .. deg D / 2 of a_m:
    the root of D at each place from its batch residue, lifted to the
    powers of the place per D, and combined by CRT (`ffpoly._crt_roots`)."""
    top = discs[0].degree // 2
    out = [([], [], []) for _ in range(2, top + 1)]
    for i, disc in enumerate(discs):
        rows = [row for residue in residues for row in residue[i].tolist()]
        roots_at = {
            p: _roots_mod_powers(
                disc, p, top // p.degree, _sqrt_at_place(field.poly(row), p)
            )
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


def _primitive_solutions(field, discs, k, at, index, rows, places, square):
    """The solutions of degree k whose form is primitive.  A place p
    divides the content only if p^2 | D, p | a_m and p | b, read off their
    residues at every place (one matmul per place degree); `_is_primitive`
    decides the few solutions where some place does."""
    if k == 0:  # a_m = 1
        return at, index, rows
    m, n = discs[0].degree, len(at)
    monic, _, _, monic_rows = _monic_polys(field, k)
    suspects = (
        square[at]
        & _zero_at(_residues(field, m, monic_rows), len(monic))[index]
        & _zero_at(_residues(field, m, rows), n)
    )
    keep = np.ones(len(at), dtype=bool)
    for s in np.flatnonzero(suspects.any(axis=1)).tolist():
        suspected = [places[x] for x in np.flatnonzero(suspects[s]).tolist()]
        b = field.poly(rows[s].tolist())
        keep[s] = _is_primitive(monic[index[s]], b, discs[at[s]], suspected)
    return at[keep], index[keep], rows[keep]


@functools.lru_cache(maxsize=32)
def _monic_polys(field, k):
    """(the monic a_m of degree k in key order, each times the first
    non-square, the keys of those, and the coefficient rows of the a_m)."""
    size = field.q**k
    monic = [field.poly_from_key(size + j) for j in range(size)]
    nonsquare = field.constant(field._first_nonsquare())
    scaled = [a * nonsquare for a in monic]
    keys = np.array([a.key() for a in scaled], dtype=np.int64)
    return monic, scaled, keys, _poly_rows(monic, k + 1)


def _segments(at, n):
    """Bounds [lo, hi) of the entries of each of n discs in `at`, sorted."""
    return np.searchsorted(at, np.arange(n + 1)).tolist()


def _closed_part(field, coeffs, k, at, index, rows):
    """Where deg a < deg c: the classes (u a_m, +-b) of each D, with u = 1
    or the first non-square and b the first of +-b in key order, sorted by
    (key of a, key of b); one monic solution (a_m, b, None) each.  Returns
    the function that extends the lists of one table, and the (disc, a_m
    index, u != 1) arrays of the classes, in table order."""
    q = field.q
    powers = q ** np.arange(k, dtype=np.int64)
    b_keys, neg_keys = rows @ powers, (-rows % q) @ powers
    kept = b_keys <= neg_keys
    at, index, rows, b_keys = at[kept], index[kept], rows[kept], b_keys[kept]
    monic, scaled, scaled_keys, _ = _monic_polys(field, k)
    # by (disc, key of the scaled a_m, key of b): lexsort is stable
    by_scaled = np.lexsort((scaled_keys[index], at))
    solution = np.concatenate([np.arange(len(at)), by_scaled])
    is_scaled = np.arange(len(solution)) >= len(at)
    order = np.argsort(2 * at[solution] + is_scaled, kind="stable")
    members = at[solution[order]], index[solution[order]], is_scaled[order]
    by_scaled = by_scaled.tolist()
    bounds = _segments(at, len(coeffs))
    index, b_keys, scaled_keys = index.tolist(), b_keys.tolist(), scaled_keys.tolist()
    bs = [Poly(field, row) for row in rows.tolist()]
    size = q**k

    def extend(i, monic_out, classes, keys, counts):
        lo, hi = bounds[i], bounds[i + 1]
        first = len(monic_out) - lo
        for s in range(lo, hi):
            monic_out.append((monic[index[s]], bs[s], None))
        for s in range(lo, hi):
            classes.append((first + s, monic[index[s]]))
            keys.append((size + index[s], b_keys[s]))
            counts.append(2 if b_keys[s] else 1)
        for s in by_scaled[lo:hi]:
            classes.append((first + s, scaled[index[s]]))
            keys.append((scaled_keys[index[s]], b_keys[s]))
            counts.append(2 if b_keys[s] else 1)

    return extend, members


@functools.lru_cache(maxsize=16)
def _quotient_maps(field, k):
    """(coefficient rows of the monic a_m of degree k in key order, and
    the (q^k, 2k + 1, k + 1) maps x -> x // a_m on polynomials of degree
    <= 2k)."""
    monic, _, _, rows = _monic_polys(field, k)
    powers = [field.t**i for i in range(2 * k + 1)]
    maps = _poly_rows([x // a for a in monic for x in powers], k + 1)
    return rows, maps.reshape(len(monic), 2 * k + 1, k + 1)


def _torus_part(field, coeffs, k, at, index, rows):
    """Where deg a = deg c = k: c = (b^2 - D) / a_m for every solution, the
    class keys of all of them from one `_least_images` pass, and the
    classes of each D in order of their first form, which is the
    representative (a_m, b, c) of its class.  Returns what `_closed_part`
    does."""
    q, n = field.q, len(at)
    if not n:
        return (lambda *lists: None), (at, index, np.zeros(0, dtype=bool))
    a_rows, maps = _quotient_maps(field, k)
    b_rows = np.zeros((n, k + 1), dtype=np.int64)
    b_rows[:, :k] = rows
    b_squared = np.zeros((n, 2 * k + 1), dtype=np.int64)
    for j in range(k):
        b_squared[:, j : j + k] += rows[:, j : j + 1] * rows
    numerator = (b_squared - coeffs[at]) % q
    c_rows = np.einsum("ni,nij->nj", numerator, maps[index]) % q
    keys, proper_keys = _least_images(
        np.stack([a_rows[index], b_rows, c_rows], axis=1), q
    )
    # group by (disc, class key), then count the proper keys in each group
    columns = np.stack([at, *keys.T, *proper_keys.T])
    order = np.lexsort(columns[::-1])
    ranked = columns[:, order]
    changed = np.ones((len(columns), n), dtype=bool)  # the first form starts a group
    changed[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    starts = np.flatnonzero(changed[:3].any(axis=0))
    proper = changed.any(axis=0)
    firsts = np.minimum.reduceat(order, starts)
    counts_all = np.add.reduceat(proper, starts)
    by_first = np.argsort(firsts)
    firsts, counts_all = firsts[by_first], counts_all[by_first]
    bounds = _segments(at[firsts], len(coeffs))
    monic = _monic_polys(field, k)[0]
    class_keys = [tuple(x) for x in keys[firsts].tolist()]
    counts_list = counts_all.tolist()
    reps = [
        (monic[j], Poly(field, b), Poly(field, c))
        for j, b, c in zip(index[firsts].tolist(), rows[firsts].tolist(),
                           c_rows[firsts].tolist())
    ]

    def extend(i, monic_out, classes, keys_out, counts):
        for x in range(bounds[i], bounds[i + 1]):
            classes.append((len(monic_out), reps[x][0]))
            monic_out.append(reps[x])
            keys_out.append(class_keys[x])
            counts.append(counts_list[x])

    return extend, (at[firsts], index[firsts], np.zeros(len(firsts), dtype=bool))


def _disc_places(field, discs, coeffs, places, divides, square):
    """`factor(disc)[1]` of each of `discs`, of degree m, off the sieve at
    `places` (multiplicities above 1 by stripping), and the rows of R =
    D / (lc D S), S = prod p^e over those places, 1 or the place of degree
    > m / 2: t^m D(1/t) over t^s S(1/t), s = deg S, a column per step."""
    q, m = field.q, coeffs.shape[1] - 1
    exponents = divides.astype(np.int64)
    for i, x in zip(*np.nonzero(square)):
        exponents[i, x] = strip_valuation(discs[i], places[x])[0]
    below = np.eye(1, m + 1, dtype=np.int64).repeat(len(discs), axis=0)  # t^s S(1/t)
    for x in np.flatnonzero(exponents.any(axis=0)).tolist():
        p = places[x].coeffs[::-1]
        for e in range(exponents[:, x].max()):  # times p reversed where p^(e + 1) | D
            grown, times = below.copy(), exponents[:, x, None] > e
            for j in range(1, len(p)):
                grown[:, j:] += p[j] * times * below[:, :-j]
            below = grown % q
    inverse = np.array([pow(c, q - 2, q) for c in coeffs[:, m].tolist()])
    rest = coeffs[:, ::-1] * inverse[:, None] % q  # t^m D(1/t) / lc D
    for j in range(1, m + 1):
        rest[:, j] = (rest[:, j] - (below[:, j:0:-1] * rest[:, :j]).sum(axis=1)) % q
    out = [[] for _ in discs]
    owner, where = np.nonzero(exponents)
    for i, x in zip(owner.tolist(), where.tolist()):
        out[i].append((places[x], int(exponents[i, x])))
    degrees = m - exponents @ np.array([p.degree for p in places], dtype=np.int64)
    large = [Poly(field, row[d::-1]) for row, d in zip(rest.tolist(), degrees.tolist())]
    out = [pairs + [(r, 1)] * (r.degree > 0) for pairs, r in zip(out, large)]
    return out, _poly_rows(large, m + 1)


def _batch_genera(batch):
    """[(keys, pending)] for each table of `batch`: one int key per class,
    in table order, and [(class index, [rank, ...])] for the classes whose
    key still lacks the bits of the places at those ranks of `places`
    (`ClassTable._pending_key`).

    Bit r of a key is set where the assigned character of the class at the
    r-th place of D is -1, and the bit above them where its Hasse symbol at
    infinity is.  With a = l a_m, l = 1 or the first non-square:
    - at a place p of D of degree <= m / 2 that does not divide a_m,
      chi_p(a) = chi(l)^(deg p) chi_p(a_m), one `_chars_at` pair per class
      and place;
    - where p | a_m and p || D, p || a_m and the character is chi_p(c) =
      chi(l)^(deg p) chi_p(c_m), c_m = (b^2 - D) / a_m.  p | b, so
      c_m = -(D / p) / (a_m / p) mod p, and D' = p' (D / p) mod p, so
      chi_p(c_m) = chi_p(-p') chi_p(D') chi_p(a_m / p);
    - where p | a_m and p^2 | D the class is pending;
    - at the place R of degree > m / 2, where D has one (at most one, of
      multiplicity 1), R does not divide a_m, and by reciprocity chi_R(a_m)
      = (-1)^(((q - 1) / 2) deg a_m deg R) prod chi_p(R)^e over p^e || a_m;
    - the Hasse symbol at infinity reads only deg a, l and D
      (`_binary_hasse_at_infinity`)."""
    field, discs = batch.field, batch.discs
    q, m, n = field.q, discs[0].degree, len(discs)
    top = m // 2
    places = _places(field, top)
    monic_rows, factors, exponents, cofactor_chars = _monic_factors(field, top)
    # every class of the batch, by disc, then in table order; `index` runs
    # over the monic a_m of every degree <= m / 2, as `_monic_factors` does
    offsets = np.cumsum([0] + [q**k for k in range(top)])
    at, index, scaled, degree = (
        np.concatenate(column)
        for column in zip(
            *(
                (at, offsets[k] + index, scaled, np.full(len(at), k))
                for k, (at, index, scaled) in enumerate(batch.members)
            )
        )
    )
    order = np.argsort(at, kind="stable")
    at, index, scaled, degree = at[order], index[order], scaled[order], degree[order]

    # the places of degree <= m / 2 of each D, as (discs, rank) indices
    small = batch.divides.sum(axis=1)
    width = int(small.max(initial=0))
    owner, where = np.nonzero(batch.divides)
    ranked = np.zeros((n, width), dtype=np.int64)
    ranked[owner, np.cumsum(batch.divides, axis=1)[owner, where] - 1] = where
    columns, pairs = ranked[at], np.arange(width) < small[at, None]
    chars = np.zeros(pairs.shape, dtype=np.int64)
    pc, pj = np.nonzero(pairs)
    chars[pc, pj] = _chars_at(field, m, monic_rows[index[pc]], columns[pc, pj])
    divides_a = pairs & (chars == 0)
    pending = divides_a & batch.square[at[:, None], columns]
    rc, rj = np.nonzero(divides_a & ~pending)
    if len(rc):
        p = columns[rc, rj]
        own = (factors[index[rc]] == p[:, None]) & (exponents[index[rc]] > 0)
        derivatives = batch.coeffs[at[rc], 1:] * np.arange(1, m + 1) % q
        place_rows = _poly_rows([places[x] for x in p.tolist()], top + 1)
        minus_derivatives = -place_rows[:, 1:] * np.arange(1, top + 1) % q
        chars[rc, rj] = (
            (cofactor_chars[index[rc]] * own).sum(axis=1)
            * _chars_at(field, m, derivatives, p)
            * _chars_at(field, m, minus_derivatives, p)
        )
    odd = np.array([p.degree % 2 == 1 for p in places], dtype=bool)
    chars[scaled[:, None] & odd[columns]] *= -1
    keys = (chars < 0) @ (1 << np.arange(width, dtype=np.int64))

    large_degrees = (m - (batch.large[:, ::-1] != 0).argmax(axis=1))[at]
    odd_half = (q - 1) // 2 % 2 == 1
    flip = (large_degrees % 2 == 1) & (scaled ^ (odd_half & (degree % 2 == 1)))
    fc, fs = np.nonzero((exponents[index] % 2 == 1) & (large_degrees > 0)[:, None])
    if len(fc):
        chars_r = _chars_at(field, m, batch.large[at[fc]], factors[index[fc], fs])
        flip ^= np.bincount(fc[chars_r < 0], minlength=len(at)) % 2 == 1
    has_large = large_degrees > 0
    keys |= (flip & has_large).astype(np.int64) << small[at]

    # the symbol at infinity by (deg a_m, lc D, l), one disc for each lc D
    by_lead = {d.lc(): d for d in discs}
    leads = sorted(by_lead)
    units = (1, field._first_nonsquare())
    minus_at_infinity = np.array(
        [
            [[_binary_hasse_at_infinity(k, u, by_lead[lc]) < 0 for u in units]
             for lc in leads]
            for k in range(top + 1)
        ]
    )
    lead_index = np.searchsorted(leads, [d.lc() for d in discs])[at]
    infinity = minus_at_infinity[degree, lead_index, scaled.astype(np.int64)]
    keys |= infinity.astype(np.int64) << (small[at] + has_large)

    bounds = _segments(at, n)
    keys = keys.tolist()
    out = [(keys[bounds[i] : bounds[i + 1]], []) for i in range(n)]
    for c in np.flatnonzero(pending.any(axis=1)).tolist():
        ranks = np.flatnonzero(pending[c]).tolist()
        out[at[c]][1].append((c - bounds[at[c]], ranks))
    return out


@functools.lru_cache(maxsize=32)
def _monic_factors(field, top):
    """(rows, places, exponents, chars) over the monic a_m of every degree
    k <= top, by degree and then key: their (., top + 1) coefficient rows,
    and (., top) arrays of the index into `_places(field, top)` of each
    place p | a_m, its exponent e and chi_p(a_m / p^e), with exponent 0 in
    the slots left."""
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
    chars[filled] = _chars_at(field, 2 * top, rows, places[filled])
    return _poly_rows(monic, top + 1), places, exponents, chars


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
