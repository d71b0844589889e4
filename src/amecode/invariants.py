"""The three generating invariants of the order-648 gate group in code
coordinates (a, b, c), of degrees 6, 9 and 12, with exact evaluation,
invariance and homogeneity decided on fixed integer lattices, and an
exact orbit witness: the element of a gate group that maps one point onto
the line of another.

`eval_invariants` evaluates one point on its coordinates' numerators over
a common denominator, by homogeneity: Python ints for a rational point,
so the field sees only the three values.  `orbit_witness` computes with
`Cyclotomic` field elements, one point at a time.  `check_weyl_invariance`
evaluates all 91 points of its lattice at once, on packed integer
numerators (a `_Stack` per coordinate, as in the packed kernel of
`linalg`), and compares them with the integer values at the lattice
points; all three run the one definition of the polynomials, `_of_cubes`.

All three polynomials depend on the coordinates only through their cubes
p = a^3, q = b^3, r = c^3:

    degree 6:   p^2 + q^2 + r^2 - 10(pq + pr + qr)
    degree 9:   (p - q)(p - r)(q - r)
    degree 12:  p^3(q+r) + q^3(p+r) + r^3(p+q)
                - 4(p^2 q^2 + p^2 r^2 + q^2 r^2) + 2 pqr (p + q + r)
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple

import numpy as np

from .cyclo import Cyclotomic
from .linalg import Matrix, _col_bound, _matmul, _product_map, _scaled, pack, right_actions


class CartanPoint(NamedTuple):
    """Coordinates of a code element in the fixed orthonormal basis."""

    a: Cyclotomic
    b: Cyclotomic
    c: Cyclotomic

    @classmethod
    def of(cls, n: int, a, b, c) -> CartanPoint:
        return cls(*(Matrix._as_cyc(n, x) for x in (a, b, c)))

    @property
    def n(self) -> int:
        return self.a.n

    def transform(self, gate: Matrix) -> CartanPoint:
        return CartanPoint(*gate.mat_vec(self))

    def scale(self, t) -> CartanPoint:
        t = Matrix._as_cyc(self.n, t)
        return CartanPoint(*(t * x for x in self))


class InvariantTriple(NamedTuple):
    i6: Cyclotomic
    i9: Cyclotomic
    i12: Cyclotomic


def _of_cubes(p, q, r):
    """The invariants as polynomials of degrees 2, 3 and 4 in the cubes
    p = a^3, q = b^3, r = c^3; plain ints evaluate them as well."""
    i6 = p * p + q * q + r * r - 10 * (p * q + p * r + q * r)
    i9 = (p - q) * (p - r) * (q - r)
    pq, pr, qr = p * q, p * r, q * r
    i12 = (p ** 3 * (q + r) + q ** 3 * (p + r) + r ** 3 * (p + q)
           - 4 * (pq * pq + pr * pr + qr * qr)
           + 2 * (pq * pr + pq * qr + pr * qr))
    return i6, i9, i12


def eval_invariants(point: CartanPoint) -> InvariantTriple:
    """Exact values of the degree-6, 9 and 12 invariants at the point.

    _of_cubes runs once, on the coordinates' numerators A, B, C over their
    common denominator den: a Python int for a rational coordinate, else a
    Cyclotomic over 1.  Each cube polynomial F is homogeneous of degree
    m = 2, 3, 4 in the cubes (is_homogeneous decides this exactly), so
    F((A/den)^3, (B/den)^3, (C/den)^3) = F(A^3, B^3, C^3) / den^(3m), and
    each value is one field element over den^(3m), reduced once.  On a
    rational point that is integer arithmetic and three Cyclotomics."""
    n, den = point.n, lcm(*(x.den for x in point))
    nums = [x.coeffs[0] * (den // x.den) if x.is_rational()
            else Cyclotomic(n, [c * (den // x.den) for c in x.coeffs]) for x in point]
    zeros = (0,) * (len(point.a.coeffs) - 1)
    return InvariantTriple(*(
        Cyclotomic(n, f.coeffs if isinstance(f, Cyclotomic) else (f, *zeros), den ** (3 * m))
        for m, f in zip((2, 3, 4), _of_cubes(*(x ** 3 for x in nums)))))


def is_homogeneous() -> bool:
    """Whether F(2P) == 2^m F(P) for the cube polynomials of degrees
    m = 2, 3, 4 at the 35 integer points of i + j + k <= 4.

    Each side has degree at most 4, and those points are unisolvent for
    degree 4 in three variables, so the identity holds everywhere: every
    term of F has degree m, and the invariants are homogeneous of degrees
    3m = 6, 9 and 12 in (a, b, c)."""
    points = [(i, j, k) for i in range(5) for j in range(5 - i) for k in range(5 - i - j)]
    return all(f2 == 2 ** m * f for pt in points
               for m, f, f2 in zip((2, 3, 4), _of_cubes(*pt), _of_cubes(*(2 * x for x in pt))))


# The 91 points of a + b + c = 12 in non-negative integers, shape (91, 3).
_LATTICE = np.array([(i, j, 12 - i - j) for i in range(13) for j in range(13 - i)],
                    dtype=np.int64)


class _Stack:
    """Field elements x[k] / den of conductor n, one per row of the
    (k, deg) power-basis numerator array x.  +, -, * and ** combine stacks
    row by row and with int scalars, so _of_cubes runs on a whole stack.
    Every step runs on linalg's exact kernels, which pick the arithmetic
    from the operands' largest entries: a sum adds two _scaled terms, each
    below 2**62 when it is int64 (else Python ints), so the sum fits."""

    __slots__ = ("x", "den", "n")

    def __init__(self, x, den: int, n: int):
        self.x, self.den, self.n = x, den, n

    def _add(self, other, sign: int) -> _Stack:
        if not isinstance(other, _Stack):  # an int: one row, broadcast over the stack
            other = _Stack(np.array([[other] + [0] * (self.x.shape[1] - 1)]), 1, self.n)
        den = lcm(self.den, other.den)
        x = _scaled(self.x, den // self.den) + _scaled(other.x, sign * (den // other.den))
        return _Stack(x, den, self.n)

    def __add__(self, other) -> _Stack:
        return self._add(other, 1)

    def __sub__(self, other) -> _Stack:
        return self._add(other, -1)

    def __mul__(self, other) -> _Stack:
        if not isinstance(other, _Stack):
            return _Stack(_scaled(self.x, other), self.den, self.n)
        # the coefficient products x[t] * y[u], mapped by T2 to coefficients
        outer = _scaled(self.x[:, :, None], other.x[:, None, :]).reshape(len(self.x), -1)
        return _Stack(_matmul(outer, *_product_map(self.n)), self.den * other.den, self.n)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> _Stack:
        return self if k == 1 else self * self ** (k - 1)


def check_weyl_invariance(gate: Matrix) -> bool:
    """Whether the gate preserves all three invariants, decided exactly:
    eval(gate * x) == eval(x) at the 91 points x of the order-12 lattice
    on the plane a + b + c = 12.

    For each invariant f of degree k <= 12, f(gate * x) - f(x) is
    homogeneous of degree k.  On the plane it is a polynomial of degree at
    most 12 in (a, b), which the lattice's points determine, so vanishing
    there makes it vanish on the plane and, by homogeneity, everywhere.  A
    failure is a certificate.

    The 91 points are evaluated at once.  The gate packs to numerators g
    over den, so the transformed coordinates are one integer contraction
    of the lattice with g, over den, and _of_cubes runs on _Stacks of them.
    Its values have degree m = 6, 9, 12 in the coordinates, so their
    numerators are over den**m; the power basis is a basis of the field,
    so f(gate * x) == f(x) exactly when those numerators are den**m * f(x)
    in the constant coefficient and 0 in every other.  The f(x) come from
    the same _of_cubes, run on the integer points."""
    g, den = pack([gate])
    deg = g.shape[-1]
    # gt[j, (i, u)] = g[i, j, u], so (x @ gt)[k, (i, u)] is coordinate i of gate * x_k
    gt = g[0].transpose(1, 0, 2).reshape(3, 3 * deg)
    y = _matmul(_LATTICE, gt, _col_bound(gt)).reshape(-1, 3, deg)
    coords = (_Stack(y[:, i], den, gate.n) for i in range(3))
    # |f(x)| < 2**48 on the lattice, so int64 holds the values exactly
    values = _of_cubes(*(_LATTICE.T ** 3))
    return all(np.array_equal(s.x[:, 0], _scaled(f, s.den)) and not s.x[:, 1:].any()
               for s, f in zip(_of_cubes(*(v ** 3 for v in coords)), values))


def orbit_witness(group, p: CartanPoint, q: CartanPoint) -> int | None:
    """The index of the first element g of a group of 3x3 gates with g * p
    parallel to q: all three 2x2 minors of (g * p, q) are exactly 0.  None
    when no element maps p onto the line of q; ValueError for a zero point.

    The elements are packed once, over one denominator, and transformed as
    one integer contraction of their rows with the packed column p (its
    right action).  Every g * p is then over the same denominator, so the
    minors x_i q_j - x_j q_i vanish exactly when they do on the numerators,
    which _Stacks of the coordinates decide for all the elements at once."""
    if any(all(x.is_zero() for x in point) for point in (p, q)):
        raise ValueError("a zero point lies on no line")
    g, _ = pack(group.elements)
    deg = g.shape[-1]
    col, _ = pack([Matrix(p.n, [[x] for x in p])])
    a, bounds = right_actions(col, p.n)
    # x[k, i] holds the numerators of coordinate i of g_k * p
    x = _matmul(g.reshape(-1, 3 * deg), a[0], bounds[0]).reshape(len(g), 3, deg)
    row, _ = pack([Matrix(q.n, [list(q)])])
    xs = [_Stack(x[:, i], 1, p.n) for i in range(3)]
    qs = [_Stack(row[0, 0, j][None], 1, q.n) for j in range(3)]
    off = np.any([((xs[i] * qs[j] - xs[j] * qs[i]).x != 0).any(axis=1)
                  for i, j in ((0, 1), (0, 2), (1, 2))], axis=0)
    hits = np.flatnonzero(~off)
    return int(hits[0]) if len(hits) else None
