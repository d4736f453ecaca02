"""Local invariants of forms over A = F_q[t] at the places of K = F_q(t).

Places are the monic irreducible polynomials plus INFINITY (uniformizer
1/t, residue field F_q).  All residue characteristics are odd, so the tame
Hilbert symbol formula applies everywhere and Jordan splittings need no
dyadic cases.

Genus symbols of binary forms need no diagonalization at a divisor p of
disc, whatever v_p(disc): the Jordan data there is fixed by one assigned
character, chi_p(a), or chi_p(c) when p divides a.  The p-adic Jordan
splitting is computed only where p divides the content of the form, and
for ranks 3 and 4.  Valuations v_p come from `ffpoly.strip_valuation`, and
the places of a discriminant from `ffpoly.factor`, once per discriminant.

Local representability over the completion A_p is decided from the Jordan
diagonalization: a unit is represented iff the scale-0 residue form
represents it over the residue field, and p f descends to a recursion on
the lattice with every scale shifted down, since an anisotropic scale-0
residue form forces the scale-0 coordinates to vanish mod p.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ffpoly import factor, invmod, is_irreducible, residue_char, strip_valuation
from .qform import Form, diagonal_square_classes


class _PlaceAtInfinity:
    def __repr__(self):
        return "INFINITY"


INFINITY = _PlaceAtInfinity()


def _check_finite_place(p):
    if p.lc() != 1 or not is_irreducible(p):
        raise ValueError("finite place must be a monic irreducible polynomial")


def hilbert_symbol(f, g, place):
    """Tame Hilbert symbol (f, g) at a place of F_q(t), as +1 or -1."""
    if f.is_zero() or g.is_zero():
        raise ValueError("Hilbert symbol requires nonzero arguments")
    F = f.field
    if place is INFINITY:
        alpha, beta = -f.degree, -g.degree
        cf, cg = F.char(f.lc()), F.char(g.lc())
        cm1 = F.char(F.neg(1))
    else:
        _check_finite_place(place)
        alpha, uf = strip_valuation(f, place)
        beta, ug = strip_valuation(g, place)
        cf = residue_char(uf, place)
        cg = residue_char(ug, place)
        cm1 = residue_char(-f.field.one, place)
    out = 1
    if beta % 2:
        out *= cf
    if alpha % 2:
        out *= cg
    if (alpha * beta) % 2:
        out *= cm1
    return out


def hasse_invariant(form, place):
    """Product of hilbert_symbol(d_i, d_j) over i < j for a diagonalization."""
    ds = diagonal_square_classes(form)
    out = 1
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            out *= hilbert_symbol(ds[i], ds[j], place)
    return out


@dataclass(frozen=True)
class JordanInvariant:
    """Jordan blocks at a finite place: (scale, rank, unit determinant char)."""

    blocks: tuple

    def __iter__(self):
        return iter(self.blocks)


def _jordan_diagonal(form, p):
    """p-adic diagonalization: [(scale, unit-part char), ...], scales ascending.

    Works modulo p^N with N = v_p(disc) + 2, enough precision for every
    pivot since pivot valuations sum to at most v_p(disc).
    """
    F = form.field
    n = form.n
    disc_val, _ = strip_valuation(form.discriminant(), p)
    prec = disc_val + 2
    powers = [p**0]
    for _ in range(prec):
        powers.append(powers[-1] * p)
    pn = powers[prec]

    def val(x):
        if x.is_zero():
            return prec
        return strip_valuation(x, p)[0]

    m = [[e % pn for e in row] for row in form.gram]
    active = list(range(n))
    out = []
    while active:
        vals = {(i, j): val(m[i][j]) for i in active for j in active if i <= j}
        # a diagonal entry wins a tie: adding row and column j to i when
        # v(m_ij) equals v(m_ii) or v(m_jj) can cancel m_ii + 2 m_ij + m_jj
        (bi, bj), best = min(
            vals.items(), key=lambda kv: (kv[1], kv[0][0] != kv[0][1], kv[0])
        )
        if best >= prec:
            raise AssertionError("insufficient p-adic precision")
        if bi != bj:
            # push the minimum onto the diagonal: row/col add, odd residue char;
            # v(m_ij) is below both diagonal valuations, so the sum keeps it
            for k in active:
                m[bi][k] = (m[bi][k] + m[bj][k]) % pn
            for k in active:
                m[k][bi] = (m[k][bi] + m[k][bj]) % pn
        s = val(m[bi][bi])
        unit = m[bi][bi] // powers[s]
        inv_unit = invmod(unit, powers[prec - s])
        out.append((s, residue_char(unit, p)))
        rest = [k for k in active if k != bi]
        # Schur complement m[k][l] - m[k][bi] m[bi][l] / pivot, symmetric
        for k in rest:
            fk = ((m[k][bi] // powers[s]) * inv_unit) % pn
            for l in rest:
                m[k][l] = (m[k][l] - fk * m[bi][l]) % pn
        active = rest
    out.sort()
    return out


def jordan_invariants(form, p):
    """Blocks (scale, rank, char of unit-block determinant), scales ascending."""
    _check_finite_place(p)
    diag = _jordan_diagonal(form, p)
    blocks = []
    for s, ch in diag:
        if blocks and blocks[-1][0] == s:
            blocks[-1][1] += 1
            blocks[-1][2] *= ch
        else:
            blocks.append([s, 1, ch])
    return JordanInvariant(tuple(tuple(b) for b in blocks))


@dataclass(frozen=True)
class GenusSymbol:
    """Exact discriminant, Jordan data at each divisor of disc, and the
    data at infinity (disc degree parity, disc leading char, Hasse symbol)."""

    disc_key: int
    finite: tuple  # ((place key, JordanInvariant), ...) sorted by place key
    infinity: tuple


def genus_symbol(form, places=None):
    """The genus symbol of a form.

    `places` is `factor(disc)[1]`, the (place, multiplicity) pairs of the
    discriminant; it is factored here when not given.
    """
    d = form.discriminant()
    if places is None:
        places = factor(d)[1]
    finite = tuple(
        sorted((p.key(), _jordan_at_place(form, d, p, v)) for p, v in places)
    )
    F = form.field
    inf = (d.degree % 2, F.char(d.lc()), _hasse_at_infinity(form, d))
    return GenusSymbol(d.key(), finite, inf)


def _hasse_at_infinity(form, disc):
    """The Hasse symbol at infinity; a binary (a, b, c) with a != 0
    diagonalizes as <a, -a disc> (`_binary_hasse_at_infinity`)."""
    if form.n == 2:
        a = form.gram[0][0]
        if not a.is_zero():
            return _binary_hasse_at_infinity(a.degree, a.lc(), disc)
    return hasse_invariant(form, INFINITY)


def _binary_hasse_at_infinity(deg_a, lc_a, disc):
    """The tame symbol (a, -a disc) at infinity, the Hasse symbol of a
    binary form with first coefficient a != 0: it reads only deg a, lc a
    and disc."""
    F = disc.field
    chi_a, chi_m1 = F.char(lc_a), F.char(F.neg(1))
    odd_a, odd_rest = deg_a % 2, (deg_a + disc.degree) % 2
    out = chi_a if odd_rest else 1
    if odd_a:
        out *= chi_m1 * chi_a * F.char(disc.lc())  # chi(lc(-a disc))
        if odd_rest:
            out *= chi_m1
    return out


def _jordan_at_place(form, disc, p, v):
    """Jordan invariants at a divisor p of disc with v = v_p(disc) >= 1.

    A binary form primitive at p represents a unit u (a, or c when p
    divides a: if p divides a and c it divides b^2 = disc + ac too), so it
    is <u> + <-disc/u>, with Jordan data (0, 1, chi_p(u)) and
    (v, 1, chi_p(u) chi_p(-disc/p^v)).  Only a form whose content p
    divides, and a form of rank 3 or 4, is diagonalized.
    """
    if form.n == 2:
        a, _, c = form.binary_coeffs()
        chi = residue_char(a, p) or residue_char(c, p)
        if chi:
            chi_rest = chi * residue_char(-(disc // p**v), p)
            return JordanInvariant(((0, 1, chi), (v, 1, chi_rest)))
    return jordan_invariants(form, p)


def genus_symbols(*forms):
    """The genus symbols of forms over one field, each distinct
    discriminant factored once."""
    places = {d: factor(d)[1] for d in {form.discriminant() for form in forms}}
    return [genus_symbol(form, places[form.discriminant()]) for form in forms]


def same_genus(q1, q2):
    """Equal exact discriminant plus equal local data everywhere."""
    if q1.field != q2.field or q1.n != q2.n:
        return False
    if q1.discriminant() != q2.discriminant():
        return False
    s1, s2 = genus_symbols(q1, q2)
    return s1 == s2


# -- local representability ------------------------------------------------

class LocalRepDecider:
    """Representability over A_p with the Jordan data computed once."""

    def __init__(self, form, p):
        _check_finite_place(p)
        self.place = p
        self.entries = _jordan_diagonal(form, p)
        self.chi_minus1 = residue_char(-form.field.one, p)

    def __call__(self, f):
        if f.is_zero():
            return True
        m, w = strip_valuation(f, self.place)
        return _descend(self.entries, m, residue_char(w, self.place), self.chi_minus1)


def local_represents(form, f, p):
    """Whether f is represented by the form over the completion A_p."""
    return LocalRepDecider(form, p)(f)


def represented_at_infinity(form, f):
    """Whether f is represented by the form over K_inf = F_q((1/t)).

    For anisotropic Q and f != 0 this is the isotropy of Q + <-f>, i.e.
    the extended form failing to be definite.  Rank-4 anisotropic forms
    represent every class, so extending them is never needed here.  The
    answer depends on f only through its square class in K_inf,
    (deg f mod 2, chi(lc f)), since f / (lc f t^deg f) is a 1-unit and
    1-units are squares (q odd).
    """
    if f.is_zero():
        return True
    if not form.is_definite():
        return True
    if form.n == 4:
        return True  # the 4-dim anisotropic space over K_inf is universal
    F = form.field
    n = form.n
    gram = [list(row) + [F.zero] for row in form.gram]
    gram.append([F.zero] * n + [-f])
    return not Form(tuple(tuple(row) for row in gram)).is_definite()


def _descend(entries, m, chi_w, chi_m1):
    sigma = min(s for s, _ in entries)
    if m < sigma:
        return False
    if sigma:
        entries = [(s - sigma, ch) for s, ch in entries]
        m -= sigma
    scale0 = [ch for s, ch in entries if s == 0]
    if m == 0:
        # a unit is represented iff the scale-0 residue form represents it
        return len(scale0) >= 2 or scale0[0] * chi_w == 1
    if len(scale0) >= 3:
        return True
    if len(scale0) == 2 and chi_m1 * scale0[0] * scale0[1] == 1:
        return True  # isotropic residue form lifts to a hyperbolic plane
    # anisotropic scale-0 residue: those coordinates vanish mod p; divide by p
    return _descend(
        [(1 if s == 0 else s - 1, ch) for s, ch in entries], m - 1, chi_w, chi_m1
    )
