"""Picard groups of quadratic orders B = A[sqrt(D)] over A = F_q[t].

For square-free definite D0 the order O = A[sqrt(D0)] is maximal, and
its Picard order comes at any genus from the zeta function of O
(`pic_order`), an Euler product over the monic irreducibles of degree
<= g, found by a product sieve over the q^g monic polynomials of degree
g, which the default budget caps.  At odd degree 2g+1 Pic O is the group
of reduced Mumford divisors (u, v) on y^2 = D0(t): u monic of degree
<= g, deg v < deg u, u | v^2 - D0, with the usual
composition-and-reduction group law (Cantor).  At genus <= 2
`pic_group` enumerates the divisors.  Each order divides N = |Pic O| and
is found by stripping the primes of N; the invariant factors are read
off the counts of elements of order dividing l^k.  At even degree 2g+2
the infinite place is inert of degree 2 and |Pic O| = 2h, with h the
class number of the genus-g curve.

Non-maximal orders B = A[sqrt(f^2 D0)] get their order from the conductor
exact sequence:

    |Pic B| = |Pic O| * |(O/fO)^x| / (|(A/fA)^x| * |O^x : B^x|)

with the middle factor a product of local terms that depend only on the
splitting of each prime divisor of f in O.  For constant D0 (= delta up
to squares) O = F_{q^2}[t] has trivial Picard group and unit index q+1.

The composition bridge: the proper primitive classes of discriminant
exactly D number 2 |Pic B| once deg D >= 1.  For constant D the unit norm
F_{q^2} -> F_q is onto, the square-class kernel collapses, and the count
is |Pic B| itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .classify import _monic_polys, _monic_roots, class_table
from .errors import DEFAULT_BUDGET, BudgetError, CapabilityError
from .ffpoly import _jacobi, _places, factor, is_squarefree, xgcd
from .qform import _poly_rows, is_definite_disc


@dataclass(frozen=True)
class MumfordDivisor:
    """Reduced divisor (u, v) on y^2 = curve(t)."""

    u: object
    v: object
    curve: object

    def __post_init__(self):
        if self.u.is_zero() or self.u.lc() != 1:
            raise ValueError("u must be monic")
        if self.v.degree >= self.u.degree:
            raise ValueError("v must have degree < deg u")
        if not ((self.v * self.v - self.curve) % self.u).is_zero():
            raise ValueError("u does not divide v^2 - curve")

    @classmethod
    def _trusted(cls, u, v, curve):
        """(u, v) with u monic, deg v < deg u and u | v^2 - curve known by
        construction: the checks of `__post_init__` are skipped."""
        divisor = cls.__new__(cls)
        vars(divisor).update(u=u, v=v, curve=curve)
        return divisor

    def is_identity(self):
        return self.u.degree == 0

    def __repr__(self):
        return f"MumfordDivisor(({self.u}, {self.v}))"


@functools.lru_cache(maxsize=1024)
def _genus(d0):
    """g = (deg d0 - 1) // 2; errors unless d0 is square-free, definite and
    of degree >= 1.  Cached, since `cantor_add` checks its curve each time."""
    if d0.degree < 1:
        raise ValueError("curve polynomial must have degree >= 1")
    if not is_definite_disc(d0):
        raise ValueError("even-degree D0 needs a non-square leading coefficient")
    if not is_squarefree(d0):
        raise ValueError("curve polynomial must be square-free")
    return (d0.degree - 1) // 2


def _check_curve(d0):
    """Genus of y^2 = d0 for divisor arithmetic, which needs odd degree."""
    if d0.degree % 2 == 0:
        raise ValueError("curve polynomial must have odd degree")
    return _genus(d0)


def divisor_identity(d0):
    F = d0.field
    return MumfordDivisor(F.one, F.zero, d0)


def cantor_add(p1, p2):
    """Group law on reduced divisors of y^2 = D0, D0 square-free odd degree."""
    if p1.curve != p2.curve:
        raise ValueError("divisors live on different curves")
    d0 = p1.curve
    genus = _check_curve(d0)
    F = d0.field
    # composition
    d1, e1, e2 = xgcd(p1.u, p2.u)
    vsum = p1.v + p2.v
    if vsum.is_zero():
        d, c1, c3 = d1, F.one, F.zero
    else:
        d, c1, c3 = xgcd(d1, vsum)
    s1, s2, s3 = c1 * e1, c1 * e2, c3
    u = (p1.u * p2.u) // (d * d)
    v = (s1 * p1.u * p2.v + s2 * p2.u * p1.v + s3 * (p1.v * p2.v + d0)) // d
    v = v % u
    # reduction
    while u.degree > genus:
        u = (d0 - v * v) // u
        v = (-v) % u
    u = u.monic()
    return MumfordDivisor(u, v % u, d0)


def _multiple(p, n):
    """[n]p for n >= 1, by double-and-add."""
    acc = None
    while True:
        if n & 1:
            acc = p if acc is None else cantor_add(acc, p)
        n >>= 1
        if not n:
            return acc
        p = cantor_add(p, p)


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _order_dividing(p, n, primes):
    """Order of p, given that it divides n with prime divisors `primes`:
    each prime l is stripped from n while [n/l]p is still the identity."""
    for ell in primes:
        while n % ell == 0 and _multiple(p, n // ell).is_identity():
            n //= ell
    return n


@dataclass(frozen=True)
class AbelianStructure:
    """Invariant factors d_1 | d_2 | ... with product the group order."""

    factors: tuple

    def __repr__(self):
        return "AbelianStructure" + repr(self.factors)


@dataclass
class PicGroup:
    order: int
    structure: AbelianStructure
    elements: list
    orders: list  # the order of each element, aligned with `elements`


def enumerate_reduced_divisors(d0):
    """All reduced Mumford divisors of y^2 = D0 (deg u <= genus): the
    identity, then (u, v) by deg u, key of u and key of v.  They are the
    monic solutions u | v^2 - D0, deg v < deg u, of degree 1 .. g of the
    class tables of D0 (`classify._monic_roots`, a batch of one), since
    deg D0 = 2g + 1."""
    genus = _check_curve(d0)
    F = d0.field
    _, solutions = _monic_roots(F, _poly_rows([d0], d0.degree + 1), False, lambda _: d0)
    out = [divisor_identity(d0)]
    for k, (_, index, rows) in enumerate(solutions[1 : genus + 1], 1):
        monic = _monic_polys(F, k)[0]
        for x, row in zip(index.tolist(), rows.tolist()):
            out.append(MumfordDivisor._trusted(monic[x], F.poly(row), d0))
    return out


def pic_group(d0):
    """(order, invariant factors, elements, element orders) of
    Pic(A[sqrt(D0)]), genus <= 2."""
    genus = _check_curve(d0)
    if genus > 2:
        raise CapabilityError("full group enumeration supports genus <= 2")
    elements = enumerate_reduced_divisors(d0)
    order = len(elements)
    primes = _prime_divisors(order)
    orders = [_order_dividing(p, order, primes) for p in elements]
    structure = AbelianStructure(_invariant_factors(orders, primes))
    return PicGroup(order, structure, elements, orders)


def _invariant_factors(orders, primes):
    """Invariant factors d_1 | d_2 | ... of the abelian group with these
    element orders and these prime divisors of its order.

    With G[m] the elements of order dividing m, exactly
    log_l |G[l^k]| / |G[l^(k-1)]| invariant factors are divisible by l^k.
    """
    factors = []  # largest first
    for ell in primes:
        below, power = 1, ell  # |G[l^(k-1)]|, l^k
        while (size := sum(1 for n in orders if power % n == 0)) > below:
            rank = round(math.log(size // below, ell))
            factors += [1] * (rank - len(factors))
            for i in range(rank):
                factors[i] *= ell
            below, power = size, power * ell
    return tuple(reversed(factors))


def pic_order(d0):
    """|Pic(A[sqrt(D0)])| for square-free definite D0 of degree >= 1.

    It is e h, where e = 1 (odd degree) or 2 (even) is the degree of the
    infinite place and h = L(1) the class number of y^2 = D0, of genus g.
    L(T) = Z_O(T) (1 - T)(1 - qT) / (1 - T^e) has degree 2g, and Z_O(T)
    is the product over places p of 1/(1-x)^2, 1/(1-x^2) or 1/(1-x)
    (x = T^deg p) as D0 is a square, a non-square or zero mod p.  As
    c_(2g-i) = q^(g-i) c_i, only places of degree <= g are visited: they
    come from the product sieve `ffpoly._places`, and (D0/p) from
    reciprocity.  BudgetError once q^g exceeds the default budget.
    """
    _genus(d0)
    return _series_orders(d0.field.q, d0.degree, _reciprocity_counts(d0))


def _reciprocity_counts(d0):
    """`_series_orders` counts of d0 by reciprocity, lazily: budget first."""
    genus = (d0.degree - 1) // 2
    counts = [[0, 0, 0] for _ in range(genus)]
    for p in _places(d0.field, genus):
        counts[p.degree - 1][_jacobi(d0, p) + 1] += 1
    yield from counts


def _series_orders(q, degree, counts):
    """|Pic O| of square-free definite d0 of `degree` >= 1 and genus g from
    `counts`, per k = 1 .. g the numbers (inert, ramified, split) of places
    of degree k where d0 is a non-square, zero or a nonzero square: ints
    for one d0, Python-int arrays for a batch at once (at g = 0, e for all).
    BudgetError once q^g exceeds the default budget, before any count."""
    genus = (degree - 1) // 2
    if q**genus > DEFAULT_BUDGET:
        raise BudgetError(
            f"genus {genus} scans the {q}^{genus} monic polynomials of "
            f"degree {genus} (budget {DEFAULT_BUDGET})"
        )
    series = [1] + [0] * genus  # coefficients of T^0 .. T^g: Z_O, then L
    for k, (inert, ramified, split) in enumerate(counts, 1):
        for step, power in ((k, 2 * split + ramified), (2 * k, inert)):
            # times 1/(1 - T^step)^power, whose coefficient of T^(j step) is
            # C(power + j - 1, j); descending, so each reads the old series
            binomials = [1]
            for j in range(1, genus // step + 1):
                binomials.append(binomials[-1] * (power + j - 1) // j)
            for n in range(genus, step - 1, -1):
                for j in range(1, n // step + 1):
                    series[n] += binomials[j] * series[n - j * step]
    for root in (1, q):  # times (1 - root T), descending
        for n in range(genus, 0, -1):
            series[n] -= root * series[n - 1]
    e = 2 - degree % 2
    for n in range(e, genus + 1):  # over (1 - T^e), ascending
        series[n] += series[n - e]
    h = sum(series) + sum(q ** (genus - i) * c for i, c in enumerate(series[:genus]))
    return e * h


def weil_interval(q, genus):
    """The integers h with (sqrt(q)-1)^(2g) <= h <= (sqrt(q)+1)^(2g).

    (q + 1 +- 2 sqrt(q))^g = A +- B sqrt(q), so the interval is
    |h - A| <= B sqrt(q), that is |h - A| <= isqrt(q B^2), in integers.
    """
    a, b = 1, 0
    for _ in range(genus):
        a, b = a * (q + 1) + 2 * b * q, 2 * a + b * (q + 1)
    r = math.isqrt(q * b * b)
    return a - r, a + r


def pic_order_with_conductor(d0, f):
    """|Pic(A[sqrt(f^2 D0)])| from the conductor exact sequence."""
    if f.is_zero() or f.lc() != 1:
        raise ValueError("conductor must be monic")
    if d0.degree != 0:
        _genus(d0)  # raises unless d0 is square-free and definite
    return _conductor_order(d0, factor(f)[1])


def _conductor_order(d0, conductor):
    """`pic_order_with_conductor` for the conductor f with the (place,
    multiplicity) pairs `conductor`, as `factor(f)[1]` gives them, and a d0
    known to be square-free and, above degree 0, definite."""
    F = d0.field
    q = F.q
    if d0.degree == 0:
        if F.is_square(d0.lc()):
            raise ValueError("constant D0 must be a non-square")
        # |Pic O| = 1; B = A[f sqrt(D0)] has constant units only once
        # deg f >= 1, as for f = 1 it is the maximal order F_{q^2}[t] itself
        numerator, denominator = 1, (q + 1 if conductor else 1)
    else:
        numerator, denominator = _series_orders(q, d0.degree, _reciprocity_counts(d0)), 1
    for p, k in conductor:
        d = p.degree
        sym = _jacobi(d0, p)
        if sym == 1:
            w = (q**d - 1) ** 2
        elif sym == -1:
            w = q ** (2 * d) - 1
        else:
            w = q**d * (q**d - 1)
        numerator *= q ** (2 * d * (k - 1)) * w
        denominator *= q ** (d * (k - 1)) * (q**d - 1)
    out, rem = divmod(numerator, denominator)
    if rem:
        raise AssertionError("conductor order formula did not divide exactly")
    return out


@dataclass
class CompReport:
    """The composition bridge |G_D| = (2 if deg D >= 1 else 1) * |Pic(B)|."""

    disc: object
    proper_classes: int
    pic_order: int
    expected: int
    passed: bool


def comp_sequence_check(disc):
    """The composition bridge at one discriminant, from its primitive class
    table (`class_table` raises unless disc is definite)."""
    return _comp_report(class_table(disc.field, disc, primitive_only=True))


def _comp_report(table):
    """The composition bridge of a primitive class table, read off its
    batch (`classify._Batch`) by `_bridge_orders`, as `verify comp` reads a
    whole batch."""
    batch, i = table._batch, table._index
    pic, expected = (int(x[i]) for x in _bridge_orders(batch))
    proper = int(batch.proper[i])
    return CompReport(
        disc=table.disc,
        proper_classes=proper,
        pic_order=pic,
        expected=expected,
        passed=(proper == expected),
    )


def _bridge_orders(batch):
    """(|Pic B|, the expected |G_D|) arrays over the discriminants D of a
    primitive class batch: |G_D| = 2 |Pic B| at degree >= 1, |Pic B| at
    degree 0.  The square-free D of degree >= 1 are their own d0: one
    `_series_orders` pass over the place counts of the batch.  Otherwise
    the places of D give D = lc(D) g^2 f0, and d0 = lc(D) f0 is
    square-free and definite by construction, with g from `conductor`."""
    F, m = batch.field, batch.m
    free = np.array(batch.square_free) & (m > 0)
    pic = np.zeros(batch.n, dtype=object)
    if free.any():
        counts = batch.place_counts[free].astype(object).transpose(1, 2, 0)
        pic[free] = _series_orders(F.q, m, counts)
    for i in np.flatnonzero(~free).tolist():
        places = batch.places(i)
        d0 = math.prod(
            (p for p, e in places if e % 2), start=F.constant(int(batch.coeffs[i, m]))
        )
        pic[i] = _conductor_order(d0, [(p, e // 2) for p, e in places if e > 1])
    return pic, (2 if m else 1) * pic
