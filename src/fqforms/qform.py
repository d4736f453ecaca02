"""Quadratic forms over A = F_q[t] of rank 2..4.

A form is stored by its symmetric Gram matrix M = (m_ij), so that
Q(x) = sum m_ij x_i x_j with off-diagonal contributions counted twice;
the binary shorthand (a, b, c) means a X^2 + 2b X Y + c Y^2.  q odd makes
halving safe everywhere.

Reduction follows the degree-based analogue of Gauss reduction: a form is
reduced when deg m_ii <= deg m_jj for i <= j and deg m_ij < deg m_ii for
i < j.  Every definite form is equivalent to a reduced one, and two
reduced forms in one GL_n(A)-class differ by a constant transformation in
GL_n(F_q), which keeps the equivalence search finite.  `reduce` reaches
the reduced form by one loop for every rank, of diagonal sorts and
shears on the Gram entries.

A binary form is definite exactly when its discriminant D has odd degree
or a non-square leading coefficient (`is_definite_disc`).
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .errors import CapabilityError
from .ffpoly import SquareClass, gcd, poly_from_string, poly_to_string

_REDUCE_CAP = 10_000


# -- small matrices of polynomials ---------------------------------------

def _mat_identity(field, n):
    return tuple(
        tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n)
    )

def _mat_transpose(m):
    return tuple(zip(*m))

def _mat_mul(a, b):
    n, mid, cols = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(cols):
            acc = a[i][0] * b[0][j]
            for k in range(1, mid):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)

def _mat_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    acc = None
    for j in range(n):
        minor = tuple(row[:j] + row[j + 1 :] for row in m[1:])
        term = m[0][j] * _mat_det(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc

def _mat_adjugate(m):
    n = len(m)
    cof = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = tuple(
                r[:j] + r[j + 1 :] for k, r in enumerate(m) if k != i
            )
            term = _mat_det(minor) if n > 1 else m[0][0].field.one
            if (i + j) % 2:
                term = -term
            row.append(term)
        cof.append(tuple(row))
    return _mat_transpose(tuple(cof))


class Transformation:
    """A change of variables in GL_n(A): matrix over A with constant unit det."""

    __slots__ = ("field", "matrix", "det")

    def __init__(self, field, matrix):
        self.field = field
        self.matrix = tuple(tuple(row) for row in matrix)
        d = _mat_det(self.matrix)
        if d.degree != 0:
            raise ValueError("transformation determinant is not a unit of F_q")
        self.det = d.coeffs[0]

    @classmethod
    def identity(cls, field, n):
        return cls(field, _mat_identity(field, n))

    @classmethod
    def from_scalars(cls, field, rows):
        return cls(field, [[field.constant(c) for c in row] for row in rows])

    def __matmul__(self, other):
        return Transformation(self.field, _mat_mul(self.matrix, other.matrix))

    def inverse(self):
        F = self.field
        inv = F.poly((F.inv(self.det),))
        adj = _mat_adjugate(self.matrix)
        return Transformation(F, [[e * inv for e in row] for row in adj])

    def apply(self, form):
        """The transported form Q o T, with Gram matrix T^t M T."""
        mt = _mat_transpose(self.matrix)
        return Form(_mat_mul(mt, _mat_mul(form.gram, self.matrix)))

    def __eq__(self, other):
        return isinstance(other, Transformation) and self.matrix == other.matrix

    def __repr__(self):
        rows = "; ".join(
            ", ".join(str(e) for e in row) for row in self.matrix
        )
        return f"Transformation([{rows}])"


class Form:
    """Nondegenerate quadratic form over F_q[t], rank 2..4."""

    __slots__ = ("field", "gram", "n")

    def __init__(self, gram):
        gram = tuple(tuple(row) for row in gram)
        n = len(gram)
        if not 2 <= n <= 4 or any(len(row) != n for row in gram):
            raise ValueError("Gram matrix must be square of rank 2..4")
        self.field = gram[0][0].field
        for i in range(n):
            for j in range(n):
                if gram[i][j] != gram[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        if _mat_det(gram).is_zero():
            raise ValueError("degenerate form")
        self.gram = gram
        self.n = n

    @classmethod
    def binary(cls, a, b, c):
        return cls(((a, b), (b, c)))

    @classmethod
    def _trusted_binary(cls, a, b, c):
        """(a, b, c) with b^2 - ac != 0 known by construction: the symmetry
        and determinant checks of `__init__` are skipped."""
        form = cls.__new__(cls)
        form.field = a.field
        form.gram = ((a, b), (b, c))
        form.n = 2
        return form

    @classmethod
    def diagonal(cls, entries):
        F = entries[0].field
        n = len(entries)
        return cls(
            tuple(
                tuple(entries[i] if i == j else F.zero for j in range(n))
                for i in range(n)
            )
        )

    def binary_coeffs(self):
        if self.n != 2:
            raise ValueError("not a binary form")
        return self.gram[0][0], self.gram[0][1], self.gram[1][1]

    def value(self, vec):
        """Q(x) for a coordinate vector of polynomials."""
        acc = self.field.zero
        for i in range(self.n):
            for j in range(self.n):
                acc = acc + self.gram[i][j] * vec[i] * vec[j]
        return acc

    def bilinear(self, u, v):
        """The associated bilinear form u^t M v."""
        acc = self.field.zero
        for i in range(self.n):
            for j in range(self.n):
                acc = acc + self.gram[i][j] * u[i] * v[j]
        return acc

    def discriminant(self):
        """(-1)^(n(n-1)/2) det(M); equals b^2 - ac for binary forms."""
        d = _mat_det(self.gram)
        if (self.n * (self.n - 1) // 2) % 2:
            d = -d
        return d

    def disc_class(self):
        return SquareClass(self.discriminant())

    def is_definite(self):
        """Anisotropy over F_q((1/t)), decided at the infinite place."""
        if self.n == 2:
            return is_definite_disc(self.discriminant())
        groups = {0: [], 1: []}
        for d in diagonal_square_classes(self):
            groups[d.degree % 2].append(d.lc())
        return all(_residue_anisotropic(self.field, g) for g in groups.values())

    def content(self):
        """Monic gcd of all Gram entries."""
        acc = None
        for row in self.gram:
            for e in row:
                if not e.is_zero():
                    acc = e if acc is None else gcd(acc, e)
        return acc.monic()

    def is_primitive(self):
        return self.content().degree == 0

    def primitive_part(self):
        """(Q/content, content)."""
        c = self.content()
        if c.degree == 0:
            return self, c
        return Form(tuple(tuple(e // c for e in row) for row in self.gram)), c

    def is_reduced(self):
        g = self.gram
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if g[i][i].degree > g[j][j].degree:
                    return False
                if g[i][j].degree >= g[i][i].degree:
                    return False
        return True

    def __eq__(self, other):
        return isinstance(other, Form) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def __repr__(self):
        return f"Form({form_to_string(self)!r})"


def is_definite_disc(d):
    """Whether a discriminant value belongs to definite binary forms."""
    if d.is_zero():
        return False
    if d.degree % 2 == 1:
        return True
    return not d.field.is_square(d.lc())


def _residue_anisotropic(field, lcs):
    # rank 0/1 residue forms are anisotropic; rank 2 <u, v> iff -uv non-square
    if len(lcs) <= 1:
        return True
    if len(lcs) == 2:
        return field.char(field.neg(field.mul(lcs[0], lcs[1]))) == -1
    return False


def diagonal_square_classes(form):
    """Diagonalization of Q over K = F_q(t), as square-class representatives.

    Entry i is a polynomial representing d_i in K^x / K^x2 (numerators times
    denominators, so ratios never appear).
    """
    F = form.field
    m = [list(row) for row in form.gram]
    out = []
    scale = F.one  # square-class of the denominator accumulated so far
    n = form.n
    for _ in range(n):
        k = len(out)
        pivot = next((i for i in range(k, n) if not m[i][i].is_zero()), None)
        if pivot is None:
            i, j = next(
                (i, j)
                for i in range(k, n)
                for j in range(k, n)
                if not m[i][j].is_zero()
            )
            for col in range(k, n):
                m[i][col] = m[i][col] + m[j][col]
            for row in range(k, n):
                m[row][i] = m[row][i] + m[row][j]
            pivot = i
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            for row in m:
                row[k], row[pivot] = row[pivot], row[k]
        d = m[k][k]
        out.append(d * scale)
        # complement: M'[r][c] = d*M[r][c] - M[r][k]*M[k][c], a form equal to M/d
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                m[r][c] = d * m[r][c] - m[r][k] * m[k][c]
        scale = scale * d
    return out


# -- reduction -----------------------------------------------------------

def reduce(form):
    """(R, T) with R reduced, T in GL_n(A) and Q o T = R exactly.

    One loop for ranks 2..4 works on the Gram entries m and the columns
    of T in place.  It sorts the diagonal by degree, keeping ties in
    place, by permuting rows and columns alike; once sorted, it shears at
    the first i < j with deg m_ij >= deg m_ii: column j -= k column i and
    then row j -= k row i, with k = m_ij // m_ii.  T is built once, at
    the end; an input that is already reduced comes back itself, with the
    identity.  Requires a definite form (ValueError otherwise), for which
    the loop terminates.
    """
    if not form.is_definite():
        raise ValueError("reduction requires a definite form")
    F, n = form.field, form.n
    m = [list(row) for row in form.gram]
    t = [list(row) for row in _mat_identity(F, n)]
    for step in range(_REDUCE_CAP):
        order = sorted(range(n), key=lambda i: m[i][i].degree)
        if order != list(range(n)):
            m = [[m[r][c] for c in order] for r in order]
            t = [[row[c] for c in order] for row in t]
            continue
        shear = next(
            (
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if m[i][j].degree >= m[i][i].degree
            ),
            None,
        )
        if shear is None:
            if not step:
                return form, Transformation.identity(F, n)
            return Form(m), Transformation(F, t)
        i, j = shear
        k = m[i][j] // m[i][i]
        for row in m + t:
            row[j] = row[j] - k * row[i]
        m[j] = [x - k * y for x, y in zip(m[j], m[i])]
    raise AssertionError("reduction did not terminate")


def successive_minima(form):
    """Increasing degrees of the diagonal of a reduced representative."""
    red, _ = reduce(form)
    return tuple(red.gram[i][i].degree for i in range(form.n))


# -- constant GL_n(F_q) transformations ------------------------------------

def _poly_rows(polys, length):
    """The (polys, length) coefficient rows of the sequence `polys`,
    zero-padded, read into the array with no list per row."""
    flat = chain.from_iterable(p.coeffs + (0,) * (length - len(p.coeffs)) for p in polys)
    count = len(polys) * length
    return np.fromiter(flat, dtype=np.int64, count=count).reshape(len(polys), length)

def key_powers(q, length):
    """The int64 weights q^0, ..., q^(length-1) that pack a row of `length`
    coefficients into its base-q key.

    Raises CapabilityError when the largest such key, q^length - 1, does
    not fit in int64, so that keys never wrap.
    """
    if q**length > 2**63:
        raise CapabilityError(
            f"base-{q} keys of {length} coefficients overflow 64-bit integers"
        )
    return q ** np.arange(length, dtype=np.int64)

def _bilinear_weights(u, v, q):
    """Rows w with w . g = B(u, v) = u^t M v, where g lists the Gram
    entries m_ij with i <= j in row-major order ((a, b, c) for a binary
    form): the weight of m_ij is u_i v_j + u_j v_i for i < j and u_i v_i
    for i = j, so that Q(u) = B(u, u).  Vectors lie along the last axis;
    broadcasts over the others."""
    n = u.shape[-1]
    return np.stack(
        [
            u[..., i] * v[..., j] + (u[..., j] * v[..., i] if i < j else 0)
            for i in range(n)
            for j in range(i, n)
        ],
        axis=-1,
    ) % q


# -- equivalence ----------------------------------------------------------

def _constant_witnesses(r1, r2):
    """All U in GL_n(F_q) with U^t M1 U = M2, as row-major flat tuples in
    lexicographic order of the columns (u_1, ..., u_n), each column in
    `np.indices((q,) * n)` order.

    The candidates for column i are the q^n vectors u with Q1(u) = m2_ii.
    The columns are joined one at a time: a partial tuple (u_1..u_(i-1))
    takes a candidate u_i only when B1(u_j, u_i) = m2_ji for every j < i.
    Every U found is invertible: det(U)^2 det M1 = det M2 != 0.
    """
    q, n = r1.field.q, r1.n
    if n == 3 and q > 7:
        raise CapabilityError(
            f"rank-3 equivalence search is GL_3(F_q)-exhaustive (~q^9); q={q} > 7"
        )
    if n == 4:
        raise CapabilityError("rank-4 equivalence search (~q^16) is not supported")
    length = max(len(e.coeffs) for g in (r1.gram, r2.gram) for row in g for e in row)
    rows = _poly_rows([r1.gram[i][j] for i in range(n) for j in range(i, n)], length)
    target = _poly_rows([e for row in r2.gram for e in row], length).reshape(n, n, -1)
    vecs = np.indices((q,) * n).reshape(n, -1).T
    values = _bilinear_weights(vecs, vecs, q) @ rows % q
    partial = np.zeros((1, 0, n), dtype=vecs.dtype)  # (tuples, columns, n)
    for i in range(n):
        cand = vecs[(values == target[i, i]).all(axis=1)]
        ok = np.ones((len(partial), len(cand)), dtype=bool)
        for j in range(i):
            pair = _bilinear_weights(partial[:, None, j], cand[None], q) @ rows % q
            ok &= (pair == target[j, i]).all(axis=-1)
        keep, take = np.nonzero(ok)
        partial = np.concatenate([partial[keep], cand[take, None]], axis=1)
    mats = partial.transpose(0, 2, 1).reshape(-1, n * n)
    return [tuple(u) for u in mats.tolist()]

def _scalar_matrix(field, n, flat):
    return Transformation.from_scalars(
        field, [flat[i * n : (i + 1) * n] for i in range(n)]
    )

def _witness_transforms(q1, q2):
    """Yield (U, t1, t2) data for the reduced representatives of q1, q2."""
    if q1.field != q2.field or q1.n != q2.n:
        raise ValueError("forms must share a field and rank")
    if not (q1.is_definite() and q2.is_definite()):
        raise ValueError("equivalence search requires definite forms")
    r1, t1 = reduce(q1)
    r2, t2 = reduce(q2)
    if tuple(r1.gram[i][i].degree for i in range(q1.n)) != tuple(
        r2.gram[i][i].degree for i in range(q2.n)
    ):
        return None
    return _constant_witnesses(r1, r2), t1, t2


def equivalent(q1, q2):
    """A transformation W with Q1 o W = Q2, or None."""
    found = _witness_transforms(q1, q2)
    if found is None or not found[0]:
        return None
    units, t1, t2 = found
    u = _scalar_matrix(q1.field, q1.n, units[0])
    return t1 @ u @ t2.inverse()


def properly_equivalent(q1, q2):
    """A determinant-1 transformation W with Q1 o W = Q2, or None.

    All transformations between reduced definite forms are constant, so it
    suffices to scan constant witnesses for one with the right determinant.
    """
    found = _witness_transforms(q1, q2)
    if found is None or not found[0]:
        return None
    units, t1, t2 = found
    F = q1.field
    want = F.mul(t2.det, F.inv(t1.det))
    n = q1.n
    for flat in units:
        u = _scalar_matrix(F, n, flat)
        if u.det == want:
            return t1 @ u @ t2.inverse()
    return None


def norm_form(d):
    """The binary form (1, 0, -d) of discriminant d."""
    F = d.field
    return Form.binary(F.one, F.zero, -d)


# -- literals --------------------------------------------------------------

def form_to_string(form):
    g = form.gram
    if form.n == 2:
        return "({}, {}, {})".format(
            poly_to_string(g[0][0]), poly_to_string(g[0][1]), poly_to_string(g[1][1])
        )
    if form.n == 3:
        parts = [g[0][0], g[1][1], g[2][2]], [g[0][1], g[0][2], g[1][2]]
        return "({};{})".format(
            ",".join(poly_to_string(p) for p in parts[0]),
            ",".join(poly_to_string(p) for p in parts[1]),
        )
    rows = "; ".join(
        ", ".join(poly_to_string(e) for e in row) for row in g
    )
    return f"[{rows}]"


def form_from_string(field, text):
    """Parse `(a, b, c)` or `(a11,a22,a33;a12,a13,a23)` literals."""
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"form literal must be parenthesized: {text!r}")
    body = s[1:-1]
    if ";" in body:
        diag_s, off_s = body.split(";")
        diag = [poly_from_string(field, p) for p in diag_s.split(",")]
        off = [poly_from_string(field, p) for p in off_s.split(",")]
        if len(diag) != 3 or len(off) != 3:
            raise ValueError(f"rank-3 literal needs 3+3 entries: {text!r}")
        a11, a22, a33 = diag
        a12, a13, a23 = off
        return Form(((a11, a12, a13), (a12, a22, a23), (a13, a23, a33)))
    parts = [poly_from_string(field, p) for p in body.split(",")]
    if len(parts) != 3:
        raise ValueError(f"binary literal needs 3 entries: {text!r}")
    return Form.binary(*parts)
