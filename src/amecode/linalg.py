"""Dense exact matrices over a cyclotomic field.

Small immutable matrices with exact equality and hashing; used for
single-site factors, code gates, projectors, and reduced densities.

Stacks of matrices can also be multiplied in packed integer form (see
`pack`, `right_actions` and `_matmul` below): the factor products of
the group closures run there, and the packed state kernel of `tensor`
shares its bound-checked matmul.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

import numpy as np

from .cyclo import Cyclotomic, _field


class Matrix:
    __slots__ = ("n", "rows", "_hash")

    def __init__(self, n: int, rows):
        rows = tuple(tuple(self._as_cyc(n, e) for e in row) for row in rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _from_rows(cls, n: int, rows: tuple) -> Matrix:
        """The matrix whose rows are equally long tuples of Cyclotomic
        entries of conductor n, taken as given: for entries built for it,
        so nothing is checked again."""
        m = object.__new__(cls)
        object.__setattr__(m, "n", n)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "_hash", None)
        return m

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def _as_cyc(n, e):
        if isinstance(e, Cyclotomic):
            if e.n != n:
                raise ValueError("entry conductor mismatch")
            return e
        return Cyclotomic.from_rational(n, e)

    @classmethod
    def identity(cls, size: int, n: int) -> Matrix:
        one, zero = Cyclotomic.one(n), Cyclotomic.zero(n)
        return cls(n, [[one if i == j else zero for j in range(size)] for i in range(size)])

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        ra, ca = self.shape
        rb, cb = other.shape
        if ca != rb:
            raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
        # each entry sums a[i][k] * b[k][j] over the k where both are nonzero,
        # in increasing k
        rows = [[(k, a) for k, a in enumerate(row) if a] for row in self.rows]
        cols = [{k: b for k, b in enumerate(col) if b} for col in zip(*other.rows)]
        zero = Cyclotomic.zero(self.n)
        out = []
        for row in rows:
            orow = []
            for col in cols:
                acc = None
                for k, a in row:
                    b = col.get(k)
                    if b is not None:
                        t = a * b
                        acc = t if acc is None else acc + t
                orow.append(zero if acc is None else acc)
            out.append(tuple(orow))
        return Matrix._from_rows(self.n, tuple(out))

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return Matrix(self.n, [[a + b for a, b in zip(r1, r2)]
                               for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return Matrix(self.n, [[a - b for a, b in zip(r1, r2)]
                               for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self):
        return Matrix(self.n, [[-a for a in r] for r in self.rows])

    def scale(self, c) -> Matrix:
        c = self._as_cyc(self.n, c)
        return Matrix._from_rows(self.n, tuple(tuple(c * a for a in r) for r in self.rows))

    def conj(self) -> Matrix:
        return Matrix(self.n, [[a.conj() for a in r] for r in self.rows])

    def dagger(self) -> Matrix:
        return Matrix(self.n, [[a.conj() for a in col] for col in zip(*self.rows)])

    def trace(self) -> Cyclotomic:
        acc = Cyclotomic.zero(self.n)
        for i in range(min(self.shape)):
            acc = acc + self.rows[i][i]
        return acc

    def mat_vec(self, vec) -> tuple:
        out = []
        for row in self.rows:
            acc = Cyclotomic.zero(self.n)
            for a, v in zip(row, vec):
                if not (a.is_zero() or v.is_zero()):
                    acc = acc + a * v
            out.append(acc)
        return tuple(out)

    def kron(self, other: Matrix) -> Matrix:
        ra, ca = self.shape
        rb, cb = other.shape
        out = [[None] * (ca * cb) for _ in range(ra * rb)]
        for i in range(ra):
            for j in range(ca):
                a = self.rows[i][j]
                for k in range(rb):
                    for l in range(cb):
                        out[i * rb + k][j * cb + l] = a * other.rows[k][l]
        return Matrix(self.n, out)

    def det(self) -> Cyclotomic:
        r, c = self.shape
        if r != c:
            raise ValueError("determinant of non-square matrix")
        m = self.rows
        if r == 1:
            return m[0][0]
        if r == 2:
            return m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if r == 3:
            return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                    - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                    + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
        rows = [list(row) for row in m]
        det = Cyclotomic.one(self.n)
        for col in range(r):
            piv = next((k for k in range(col, r) if not rows[k][col].is_zero()), None)
            if piv is None:
                return Cyclotomic.zero(self.n)
            if piv != col:
                rows[col], rows[piv] = rows[piv], rows[col]
                det = -det
            det = det * rows[col][col]
            inv = rows[col][col].inv()
            for k in range(col + 1, r):
                f = rows[k][col] * inv
                if not f.is_zero():
                    rows[k] = [a - f * b for a, b in zip(rows[k], rows[col])]
        return det

    def inv(self) -> Matrix:
        r, c = self.shape
        if r != c:
            raise ValueError("inverse of non-square matrix")
        n = self.n
        aug = [list(row) + list(Matrix.identity(r, n).rows[i]) for i, row in enumerate(self.rows)]
        for col in range(r):
            piv = next((k for k in range(col, r) if not aug[k][col].is_zero()), None)
            if piv is None:
                raise ZeroDivisionError("singular matrix")
            aug[col], aug[piv] = aug[piv], aug[col]
            inv = aug[col][col].inv()
            aug[col] = [a * inv for a in aug[col]]
            for k in range(r):
                if k != col and not aug[k][col].is_zero():
                    f = aug[k][col]
                    aug[k] = [a - f * b for a, b in zip(aug[k], aug[col])]
        return Matrix(n, [row[r:] for row in aug])

    def is_identity(self) -> bool:
        r, c = self.shape
        return r == c and self.rows == _identity(r, self.n).rows

    def is_zero(self) -> bool:
        return all(a.is_zero() for row in self.rows for a in row)

    def is_unitary(self) -> bool:
        return (self.dagger() * self).is_identity()

    def is_hermitian(self) -> bool:
        r, c = self.shape
        return r == c and all(self.rows[i][j] == self.rows[j][i].conj()
                              for i in range(r) for j in range(i, c))

    def to_complex(self):
        return [[a.to_complex() for a in row] for row in self.rows]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.n, self.rows))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"Matrix({self.shape[0]}x{self.shape[1]}, N={self.n})"


@lru_cache(maxsize=None)
def _identity(size: int, n: int) -> Matrix:
    """Matrix.identity, built once per size and conductor."""
    return Matrix.identity(size, n)


# -- packed integer kernel --------------------------------------------------
#
# A stack of matrices packs into one integer array of shape (k, rows, cols,
# deg): the power-basis numerators of every entry over one common
# denominator.  Right-multiplying by a matrix y is then one integer matmul
# of the packed rows with right_actions(y), built from the reduced powers of
# zeta.  Before every contraction (or, in tensor, once for a chain of them)
# the largest sum it can form is bounded, and _tier maps the bound to the
# arithmetic.  Below 2**53 it runs in float64 through BLAS: every product
# and partial sum is an integer of at most that size, so each is exact in
# any summation order, and the result is cast back to int64.  Below 2**62
# it runs on int64 arrays, and beyond that on Python ints (dtype=object,
# still exact).

_FLOAT_EXACT = 1 << 53
_INT64_SAFE = 1 << 62


def _max_abs(x) -> int:
    return int(np.abs(x).max()) if x.size else 0


def _compact(x):
    """x as int64 when its entries allow, else as Python ints."""
    return x.astype(np.int64 if _max_abs(x) < _INT64_SAFE else object)


def _col_bound(m) -> int:
    """Largest absolute column sum of m: |(x @ m)| <= it * max|x|."""
    return int(np.abs(m.astype(object)).sum(axis=-2).max())


def _fits(limit: int, a: int, b: int) -> bool:
    """Whether a, b and a * b are all below limit."""
    return a < limit and b < limit and a * b < limit


def _tier(bound: int):
    """The dtype of a chain of exact contractions whose operands, products
    and partial sums are all integers of absolute value at most bound:
    float64 below 2**53, int64 below 2**62, else Python ints (object)."""
    return np.float64 if bound < _FLOAT_EXACT else np.int64 if bound < _INT64_SAFE else object


def _matmul(x, m, m_bound: int):
    """Exact x @ m, where m_bound is _col_bound(m) (or any larger int).
    m_bound also bounds every entry of m, so both operands convert to the
    tier of m_bound, max|x| and their product."""
    top = _max_abs(x)
    dtype = _tier(max(m_bound, top, m_bound * top))
    y = np.matmul(x.astype(dtype, copy=False), m.astype(dtype, copy=False))
    return y.astype(np.int64) if dtype is np.float64 else y


def _scaled(x, k):
    """Exact k * x for a Python int k, or an array of them that broadcasts
    against x."""
    scalar = isinstance(k, int)
    dtype = np.int64 if _fits(_INT64_SAFE, abs(k) if scalar else _max_abs(k),
                              _max_abs(x)) else object
    return x.astype(dtype, copy=False) * (k if scalar else k.astype(dtype))


@lru_cache(maxsize=None)
def _structure(n: int):
    """(T, C) for conductor n: T[t, u] is the coefficient vector of
    zeta^(t+u), so a product of coefficient vectors x, y is
    sum x[t] y[u] T[t, u]; x @ C is the complex conjugate of x."""
    f = _field(n)
    deg = f.degree
    t = np.array([[f.powers[i + j] for j in range(deg)] for i in range(deg)], dtype=object)
    c = np.array([f.powers[(j * (n - 1)) % n] for j in range(deg)], dtype=object)
    return _compact(t.reshape(deg, deg, deg)), _compact(c)


@lru_cache(maxsize=None)
def _product_map(n: int):
    """(T2, bound) for conductor n: T2, of shape (deg*deg, deg), maps the
    products x[t] * y[u] of two coefficient vectors, flattened over (t, u),
    to the coefficients of x * y; bound is _col_bound(T2)."""
    t = _structure(n)[0]
    t2 = t.reshape(-1, t.shape[-1])
    return _compact(t2), _col_bound(t2)


def pack(mats):
    """(x, den): the entries of equally shaped matrices as numerators of
    shape (k, rows, cols, deg) over den, the lcm of their denominators."""
    entries = [e for m in mats for row in m.rows for e in row]
    den = lcm(*(e.den for e in entries))
    x = np.array([[c * (den // e.den) for c in e.coeffs] for e in entries], dtype=object)
    return _compact(x).reshape((len(mats), *mats[0].shape, -1)), den


def unpack(n: int, x, dens) -> list[Matrix]:
    """The matrices whose numerators are x, arrays of shape (rows, cols, deg),
    the i-th over dens[i]; entries with equal (den, numerators) are one object."""
    entries, out = {}, []
    for m, den in zip(x, dens):
        rows = []
        for row in m.tolist():
            cells = []
            for coeffs in row:
                key = (den, *coeffs)
                e = entries.get(key)
                if e is None:
                    e = entries[key] = Cyclotomic(n, coeffs, den)
                cells.append(e)
            rows.append(tuple(cells))
        out.append(Matrix._from_rows(n, tuple(rows)))
    return out


def right_actions(y, n: int):
    """(A, bounds) for packed matrices y of shape (k, m, c, deg): the packed
    rows of x @ y[j] are x's packed rows (flattened to m*deg) @ A[j], over
    the product of the two denominators; bounds[j] is _col_bound(A[j])."""
    k, m, c, deg = y.shape
    t = _structure(n)[0]
    # each entry of A sums deg products, and each column sum m * deg entries
    dtype = np.int64 if m * deg * deg * _max_abs(y) * _max_abs(t) < _INT64_SAFE else object
    # a[j, b, t, c, s] = sum_u y[j, b, c, u] * T[t, u, s]
    a = np.tensordot(y.astype(dtype), t.astype(dtype), axes=([3], [1])).transpose(0, 1, 3, 2, 4)
    a = a.reshape(k, m * deg, c * deg)
    return _compact(a), np.abs(a).sum(axis=-2).max(axis=-1).tolist()
