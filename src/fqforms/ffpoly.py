"""Exact arithmetic in F_q (q an odd prime) and the polynomial ring A = F_q[t].

Field elements are plain Python ints, the residues {0, ..., q-1}.  `Field`
holds q and the fixed non-square delta; `Poly` methods reduce their
coefficients mod q inline.

Polynomials over F_q are immutable `Poly` values holding a tuple of field
elements, lowest degree first, with no trailing zeros ([] is the zero
polynomial).  deg(0) is the sentinel NEG_INF, which compares less than
every integer, so degree formulas involving max() are total.

A polynomial also has a base-q integer key (`key()`), used by the
enumeration-heavy modules to store large sets of polynomials compactly.

The places (monic irreducibles) dividing a polynomial come from one
distinct-degree pass over it, which `factor` and `is_irreducible` share.
"""

from __future__ import annotations

import functools
import itertools
import random

from .errors import DEFAULT_BUDGET, BudgetError

NEG_INF = float("-inf")


def _is_prime(n):
    if n < 2:
        return False
    for d in range(2, n):
        if d * d > n:
            return True
        if n % d == 0:
            return False
    return True


class Field:
    """The prime field F_p (p odd), plus its fixed non-square delta.

    `q` and `p` are the same number; `q` is the name used for counting
    (q^n polynomials of degree < n), `p` for reducing residues.
    `delta` defaults to the first non-square in the ascending element order.
    `chars[a]` is the quadratic character of a, by Euler's criterion.
    """

    def __init__(self, p, delta=None):
        if not _is_prime(p) or p == 2:
            raise ValueError(f"q must be an odd prime, got {p}")
        self.p = self.q = p
        half = (p - 1) // 2
        self.chars = (0,) + tuple(
            1 if pow(a, half, p) == 1 else -1 for a in range(1, p)
        )
        if delta is None:
            delta = self._first_nonsquare()
        if not 0 < delta < p or self.is_square(delta):
            raise ValueError(f"delta={delta} is not a non-square in 1..{p - 1}")
        self.delta = delta
        self.zero = self.poly(())
        self.one = self.poly((1,))
        self.t = self.poly((0, 1))

    # -- element arithmetic (ints) ------------------------------------

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return -a % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return pow(a, self.p - 2, self.p)

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inv(a), -n)
        return pow(a, n, self.p)

    def is_square(self, a):
        """Whether a is a nonzero square; errors on zero."""
        if a == 0:
            raise ValueError("is_square is undefined at 0")
        return self.chars[a % self.p] == 1

    def char(self, a):
        """Quadratic character: 0 at 0, else +1 for squares, -1 otherwise."""
        return self.chars[a % self.p]

    def elements(self):
        return range(self.q)

    def _first_nonsquare(self):
        for a in range(1, self.q):
            if not self.is_square(a):
                return a
        raise AssertionError("odd field has a non-square")

    # -- polynomial constructors --------------------------------------

    def poly(self, coeffs):
        return Poly(self, coeffs)

    def poly_from_key(self, key):
        q = self.q
        coeffs = []
        while key:
            key, c = divmod(key, q)
            coeffs.append(c)
        return Poly(self, coeffs)

    def constant(self, c):
        return Poly(self, (c % self.p,))

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and (self.p, self.delta) == (other.p, other.delta)
        )

    def __hash__(self):
        return hash((self.p, self.delta))

    def __repr__(self):
        return f"Field({self.p})"


@functools.cache
def prime_field(p):
    """Shared Field instance for F_p with the default delta."""
    return Field(p)


class Poly:
    """Immutable polynomial over a Field; coefficients lowest degree first."""

    __slots__ = ("field", "coeffs", "_hash")

    def __init__(self, field, coeffs):
        if coeffs.__class__ is not tuple:
            coeffs = tuple(coeffs)
        n = len(coeffs)
        while n and coeffs[n - 1] == 0:
            n -= 1
        self.field = field
        self.coeffs = coeffs if n == len(coeffs) else coeffs[:n]
        self._hash = None

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self):
        return not self.coeffs

    def lc(self):
        """Leading coefficient; errors on the zero polynomial."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def key(self):
        """Base-q integer packing of the coefficient tuple."""
        out = 0
        for c in reversed(self.coeffs):
            out = out * self.field.q + c
        return out

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def _coerce(self, other):
        if other.__class__ is Poly and other.field is self.field:
            return other
        if isinstance(other, Poly):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("mixed fields")
            return other
        if isinstance(other, int):
            return self.field.constant(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        F = self.field
        p = F.p
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % p
        return Poly(F, out)

    __radd__ = __add__

    def __neg__(self):
        F = self.field
        p = F.p
        return Poly(F, [-c % p for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        F = self.field
        p = F.p
        a, b = self.coeffs, other.coeffs
        out = list(a) + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] = (out[i] - c) % p
        return Poly(F, out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return F.zero
        p = F.p
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:  # by a nonzero constant: scale
            c = b[0]
            return Poly(F, tuple(x * c % p for x in a))
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return Poly(F, [c % p for c in out])

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        F = self.field
        p = F.p
        g = other.coeffs
        dg = len(g) - 1
        r = list(self.coeffs)
        if len(r) - 1 < dg:
            return F.zero, self
        inv_lc = pow(g[-1], p - 2, p)
        quo = [0] * (len(r) - dg)
        # r is reduced mod p only where it is read; the top coefficient
        # r[i + dg] is cancelled by construction and never written
        for i in range(len(r) - 1 - dg, -1, -1):
            c = r[i + dg] % p
            if c:
                qc = c * inv_lc % p
                quo[i] = qc
                for j in range(dg):
                    r[i + j] -= qc * g[j]
        return Poly(F, quo), Poly(F, [c % p for c in r[:dg]])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other):
        return (other % self).is_zero()

    def monic(self):
        if self.is_zero():
            return self
        F = self.field
        p = F.p
        inv = pow(self.coeffs[-1], p - 2, p)
        return Poly(F, [c * inv % p for c in self.coeffs])

    def derivative(self):
        F = self.field
        p = F.p
        return Poly(F, [c * i % p for i, c in enumerate(self.coeffs[1:], start=1)])

    def __call__(self, x):
        """Evaluate at a field element."""
        p = self.field.p
        out = 0
        for c in reversed(self.coeffs):
            out = (out * x + c) % p
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.constant(other)
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field.q, self.coeffs))
        return self._hash

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"Poly({poly_to_string(self)!r})"

    def __str__(self):
        return poly_to_string(self)


# -- parsing and printing ----------------------------------------------

def poly_to_string(f):
    """Canonical text form: descending degree, coefficients in 0..p-1.

    Examples over F_13: `t^3+12*t`, `1`, `0`.
    """
    if f.is_zero():
        return "0"
    parts = []
    for i in range(len(f.coeffs) - 1, -1, -1):
        c = f.coeffs[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append("t" if c == 1 else f"{c}*t")
        else:
            parts.append(f"t^{i}" if c == 1 else f"{c}*t^{i}")
    return "+".join(parts)


def poly_from_string(field, text):
    """Parse `poly := term (('+'|'-') term)*`, term `coeff['*'t['^'exp]]`."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial literal")
    # split into signed terms
    terms = []
    i = 0
    start = 0
    sign = 1
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        start = i = 1
    while i <= len(s):
        if i == len(s) or s[i] in "+-":
            if i == start:
                raise ValueError(f"bad polynomial literal: {text!r}")
            terms.append((sign, s[start:i]))
            if i < len(s):
                sign = -1 if s[i] == "-" else 1
            start = i + 1
        i += 1
    coeffs = {}
    for sign, term in terms:
        coeff, exp = _parse_term(term)
        if exp >= DEFAULT_BUDGET:
            raise BudgetError(
                f"degree {exp} needs {exp + 1} coefficients (budget {DEFAULT_BUDGET})"
            )
        coeff = coeff % field.p if sign > 0 else (-coeff) % field.p
        coeffs[exp] = field.add(coeffs.get(exp, 0), coeff)
    out = [0] * (max(coeffs) + 1)
    for exp, c in coeffs.items():
        out[exp] = c
    return field.poly(out)


def _parse_term(term):
    if "t" not in term:
        return int(term), 0
    head, _, tail = term.partition("t")
    if head == "":
        coeff = 1
    elif head.endswith("*"):
        coeff = int(head[:-1])
    else:
        raise ValueError(f"bad term: {term!r}")
    if tail == "":
        return coeff, 1
    if tail.startswith("^"):
        exp = int(tail[1:])
        if exp < 0:
            raise ValueError(f"bad exponent in term: {term!r}")
        return coeff, exp
    raise ValueError(f"bad term: {term!r}")


# -- gcd family ---------------------------------------------------------

def gcd(f, g):
    """Monic greatest common divisor; gcd(0, 0) is an error."""
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    while not g.is_zero():
        f, g = g, f % g
    return f.monic()


def xgcd(f, g):
    """(d, s, u) with d = s*f + u*g, d the monic gcd."""
    F = f.field
    r0, r1 = f, g
    s0, s1 = F.one, F.zero
    t0, t1 = F.zero, F.one
    while not r1.is_zero():
        quo, rem = divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - quo * s1
        t0, t1 = t1, t0 - quo * t1
    if r0.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    lead_inv = F.inv(r0.lc())
    return r0.monic(), s0 * lead_inv, t0 * lead_inv


def invmod(f, m):
    """Inverse of f modulo m; errors when gcd(f, m) != 1."""
    d, s, _ = xgcd(f, m)
    if d.degree != 0:
        raise ZeroDivisionError("element is not invertible modulo m")
    return s % m


def powmod(f, n, m):
    out = f.field.one % m
    f = f % m
    while n:
        if n & 1:
            out = (out * f) % m
        f = (f * f) % m
        n >>= 1
    return out


# -- irreducibility and factorization -----------------------------------

@functools.lru_cache(maxsize=4096)
def is_irreducible(f):
    """Whether f is a place up to a unit: the first place the
    distinct-degree pass finds is f itself.  Constants are not irreducible.

    Results are cached: a `Poly` is immutable and its hash and equality
    include the field, so each distinct place is tested once.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    if f.degree == 0:
        return False
    p, _ = next(_places_dividing(f))
    return p.degree == f.degree


def is_squarefree(f):
    """Whether a nonzero f has no repeated irreducible factor, i.e.
    gcd(f, f') is a unit.  Exact over a prime field: there f' = 0 only
    for f = h(t^p) = h(t)^p, whose gcd with f' is f itself."""
    return gcd(f, f.derivative()).degree == 0


def factor(f):
    """(unit, [(irreducible monic, multiplicity), ...]) sorted canonically."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    # a monic key orders by degree first
    return f.lc(), sorted(_places_dividing(f), key=lambda pe: pe[0].key())


def _places_dividing(f):
    """Yield (place, multiplicity) for the places dividing a nonzero f, by
    degree, in one distinct-degree pass over f itself.

    At degree d every place of lower degree is already divided out of
    `rest`, so gcd(t^(q^d) - t, rest) is the product of the places of
    degree d dividing it; Cantor-Zassenhaus splits it, and each place is
    stripped with its multiplicity.  Once deg rest < 2(d + 1), rest is 1 or
    a single place.
    """
    F = f.field
    t = F.t
    rest = f.monic()
    h = t  # t^(q^d) modulo an earlier rest, which rest divides
    d = 0
    while rest.degree >= 2 * (d + 1):
        d += 1
        h = powmod(h, F.q, rest)
        g = gcd(h - t, rest)
        if g.degree > 0:
            for p in _equal_degree_split(g, d):
                e, rest = strip_valuation(rest, p)
                yield p, e
    if rest.degree > 0:
        yield rest, 1


def strip_valuation(f, p):
    """(v, u) with f = p^v * u and p not dividing u (f nonzero)."""
    v = 0
    while True:
        quo, rem = divmod(f, p)
        if rem:
            return v, f
        f, v = quo, v + 1


def _equal_degree_split(f, d):
    """Cantor-Zassenhaus with a generator seeded from f, for reproducibility."""
    if f.degree == d:
        return [f.monic()]
    F = f.field
    rng = random.Random(f.key() * 0x9E3779B1 + F.q)
    n = f.degree
    exponent = (F.q**d - 1) // 2
    while True:
        a = F.poly([rng.randrange(F.q) for _ in range(n)])
        if a.degree <= 0:
            continue
        g = gcd(a, f)
        if 0 < g.degree < n:
            return _equal_degree_split(g, d) + _equal_degree_split(f // g, d)
        b = powmod(a, exponent, f) - 1
        g = gcd(b, f)
        if 0 < g.degree < n:
            return _equal_degree_split(g, d) + _equal_degree_split(f // g, d)


# -- characters and square classes ---------------------------------------

def residue_char(f, p):
    """Quadratic character of f in the residue field A/(p): +1, -1, or 0.

    0 iff p divides f.  At a place of degree 1 the residue of f is its value
    at the root.  Above degree 1 it is the Jacobi symbol (f/p), computed in
    Euclid steps (Rosen, GTM 210, ch. 3): for monic a and b,
    (a/b) = (b/a) (-1)^(((q-1)/2) deg a deg b), and a constant c has
    (c/b) = chi(c)^(deg b).  A linear f takes one step, (b/a) being the
    value of b at the root of a.  p need not be monic: A/(p) = A/(p monic).
    """
    if not is_irreducible(p):
        raise ValueError("place must be an irreducible polynomial")
    return _jacobi(f, p)


def _jacobi(f, p):
    """`residue_char` at a p known to be irreducible (a place of `_places`)."""
    F = f.field
    if p.degree == 1:
        root = F.neg(F.mul(p.coeffs[0], F.inv(p.coeffs[1])))
        return F.char(f(root))
    odd_half = (F.q - 1) // 2 % 2
    if f.degree == 1:
        # one reciprocity step for f = l (t - r): (f/p) = chi(l)^(deg p)
        # chi(p_monic(r)) (-1)^(((q-1)/2) deg p), and p(r) != 0 as deg p > 1
        lead = f.coeffs[1]
        root = F.neg(F.mul(f.coeffs[0], F.inv(lead)))
        out = F.char(p(root)) * F.char(p.coeffs[-1])
        if p.degree % 2:
            out *= -F.char(lead) if odd_half else F.char(lead)
        return out
    a, b = f, p.monic()
    out = 1
    while b.degree > 0:
        a = a % b
        if a.is_zero():
            return 0
        lead = a.coeffs[-1]
        if lead != 1:
            if b.degree % 2 and not F.is_square(lead):
                out = -out
            a = a.monic()
        if odd_half and a.degree % 2 and b.degree % 2:
            out = -out
        a, b = b, a
    return out


def _crt_roots(field, roots_at, degree):
    """Yield (u, [v : deg v < deg u, u | v^2 - d]) for each monic u of
    degree `degree`, both in key order, from `roots_at`, {p: [roots of
    x^2 = d mod p^k for k = 1, 2, ...]} over the places of degree <=
    `degree`: a sieve (Cohen, GTM 138, 1.5), combined by CRT over the
    factorization of u."""
    for u, factors in _monic_factorizations(field, degree):
        per_factor = [roots_at[p][e - 1] for p, e, _ in factors]
        if len(factors) == 1:
            vs = per_factor[0]
        else:
            idempotents = [c for _, _, c in factors]
            vs = [
                sum((r * c for r, c in zip(combo, idempotents)), field.zero) % u
                for combo in itertools.product(*per_factor)
            ]
        yield u, sorted(vs, key=Poly.key)


def _roots_mod_powers(d, p, top, r):
    """[roots of x^2 = d mod p^k for k = 1..top], each of degree < k deg p,
    from r, a root mod p or None.

    A root r mod p^k with p not dividing r lifts uniquely (Hensel):
    r + s p^k with s = (d - r^2) / p^k / (2 r) mod p.  Otherwise p | d, and
    since p | r, (r + s p^k)^2 = r^2 mod p^(k+1) for every s: all q^(deg p)
    digits lift r when r^2 = d mod p^(k+1), and none does otherwise.
    """
    F = d.field
    out = [[] if r is None else [r] if r.is_zero() else [r, -r]]
    pk = p
    for _ in range(1, top):
        pk1 = pk * p
        lifted = []
        for r in out[-1]:
            if (r % p).is_zero():
                if ((r * r - d) % pk1).is_zero():
                    lifted.extend(
                        r + F.poly_from_key(s) * pk for s in range(F.q**p.degree)
                    )
            else:
                s = ((d - r * r) // pk) * invmod(r + r, p) % p
                lifted.append(r + s * pk)
        out.append(lifted)
        pk = pk1
    return out


def _sqrt_at_place(a, p):
    """A square root in A/(p) (p monic) of a residue a (deg a < deg p), of
    degree < deg p, or None."""
    F = a.field
    if p.degree == 1:
        root = _sqrt_table(F.q).get(a[0])
        return None if root is None else F.constant(root)
    if a.is_zero():
        return a
    if _jacobi(a, p) != 1:
        return None
    # Tonelli-Shanks in the cyclic group (A/(p))^x of order q^n - 1 = 2^s m
    s, m, c = _tonelli_shanks_constants(p)
    x = powmod(a, (m - 1) // 2, p)
    t = x * x % p * a % p
    x = x * a % p
    while t != F.one:
        i, t2 = 0, t
        while t2 != F.one:
            t2 = t2 * t2 % p
            i += 1
        b = powmod(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, x = t * c % p, x * b % p
    return x


@functools.lru_cache(maxsize=256)
def _tonelli_shanks_constants(p):
    """(s, m, z^m) with q^(deg p) - 1 = 2^s m, m odd, z a non-square mod p."""
    F = p.field
    order = F.q**p.degree - 1
    s = (order & -order).bit_length() - 1
    m = order >> s
    z = next(
        z
        for z in (F.poly_from_key(k) for k in range(2, order + 1))
        if _jacobi(z, p) == -1
    )
    return s, m, powmod(z, m, p)


@functools.cache
def _sqrt_table(q):
    """{square: one root} over F_q; 0 maps to 0."""
    return {r * r % q: r for r in range(q)}


@functools.lru_cache(maxsize=32)
def _places(field, degree):
    """The places of degree <= `degree` (monic irreducibles), by degree,
    then key.

    A product sieve: the monic irreducibles of degree m are the monic
    polynomials of degree m that are not products of places of lower
    degree.
    """
    if degree < 1:
        return ()
    lower = _places(field, degree - 1)
    reducible = {u.key() for u, _ in _products(field, lower, degree)}
    size = field.q**degree
    return lower + tuple(
        field.poly_from_key(k) for k in range(size, 2 * size) if k not in reducible
    )


@functools.lru_cache(maxsize=32)
def _monic_factorizations(field, degree):
    """[(u, [(p, e, CRT idempotent of p^e mod u), ...]), ...] for every monic
    u of degree `degree`, in key order, each built once as a product of
    place powers.  The idempotent of p^e is 1 mod p^e and 0 mod u / p^e.
    """
    out = []
    products = _products(field, _places(field, degree), degree)
    for u, powers in sorted(products, key=lambda x: x[0].key()):
        factors = []
        for p, e in powers:
            pe = p**e
            rest = u // pe
            factors.append((p, e, rest * invmod(rest, pe) % u))
        out.append((u, factors))
    return out


def _products(field, places, degree):
    """Yield (u, [(p, e), ...]) for each product u of powers of `places`
    (sorted by degree) of total degree `degree`."""

    def extend(start, left, u, powers):
        if left == 0:
            yield u, powers
            return
        for i in range(start, len(places)):
            p = places[i]
            if p.degree > left:
                break
            pe, e = p, 1
            while pe.degree <= left:
                yield from extend(i + 1, left - pe.degree, u * pe, powers + [(p, e)])
                pe, e = pe * p, e + 1

    return extend(0, degree, field.one, [])


class SquareClass:
    """Class of a nonzero polynomial modulo squares of constants.

    The canonical representative is f scaled by a constant square so its
    leading coefficient is 1 (square lc) or delta (non-square lc).
    """

    __slots__ = ("rep",)

    def __init__(self, f):
        if f.is_zero():
            raise ValueError("zero polynomial has no square class")
        F = f.field
        u = f.lc()
        if F.is_square(u):
            scale = F.inv(u)
        else:
            scale = F.mul(F.delta, F.inv(u))
        self.rep = f * F.poly((scale,))

    def __eq__(self, other):
        return isinstance(other, SquareClass) and self.rep == other.rep

    def __hash__(self):
        return hash(("sqcls", self.rep))

    def __repr__(self):
        return f"SquareClass({poly_to_string(self.rep)!r})"
