"""The three generating invariants of the order-648 gate group in code
coordinates (a, b, c), of degrees 6, 9 and 12, with exact evaluation,
invariance and homogeneity decided on fixed integer lattices, and
scale-free orbit fingerprints.

All three polynomials depend on the coordinates only through their cubes
p = a^3, q = b^3, r = c^3:

    degree 6:   p^2 + q^2 + r^2 - 10(pq + pr + qr)
    degree 9:   (p - q)(p - r)(q - r)
    degree 12:  p^3(q+r) + q^3(p+r) + r^3(p+q)
                - 4(p^2 q^2 + p^2 r^2 + q^2 r^2) + 2 pqr (p + q + r)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .cyclo import Cyclotomic
from .linalg import Matrix


@dataclass(frozen=True)
class CartanPoint:
    """Coordinates of a code element in the fixed orthonormal basis."""

    a: Cyclotomic
    b: Cyclotomic
    c: Cyclotomic

    @classmethod
    def of(cls, n: int, a, b, c) -> CartanPoint:
        return cls(Matrix._as_cyc(n, a), Matrix._as_cyc(n, b), Matrix._as_cyc(n, c))

    @property
    def n(self) -> int:
        return self.a.n

    def transform(self, gate: Matrix) -> CartanPoint:
        va, vb, vc = gate.mat_vec((self.a, self.b, self.c))
        return CartanPoint(va, vb, vc)

    def scale(self, t) -> CartanPoint:
        t = Matrix._as_cyc(self.n, t)
        return CartanPoint(t * self.a, t * self.b, t * self.c)


@dataclass(frozen=True)
class InvariantTriple:
    i6: Cyclotomic
    i9: Cyclotomic
    i12: Cyclotomic

    def __iter__(self):
        return iter((self.i6, self.i9, self.i12))


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
    """Exact values of the degree-6, 9 and 12 invariants at the point."""
    return InvariantTriple(*_of_cubes(point.a ** 3, point.b ** 3, point.c ** 3))


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


@cache
def _lattice(n: int) -> list[tuple[CartanPoint, InvariantTriple]]:
    """The 91 points of a + b + c = 12 in non-negative integers, in
    Q(zeta_n), each with its invariants."""
    points = [CartanPoint.of(n, i, j, 12 - i - j) for i in range(13) for j in range(13 - i)]
    return [(p, eval_invariants(p)) for p in points]


def check_weyl_invariance(gate: Matrix) -> bool:
    """Whether the gate preserves all three invariants, decided exactly:
    eval(gate * x) == eval(x) at the 91 points of the order-12 lattice on
    the plane a + b + c = 12.

    For each invariant f of degree k <= 12, f(gate * x) - f(x) is
    homogeneous of degree k.  On the plane it is a polynomial of degree at
    most 12 in (a, b), which the lattice's points determine, so vanishing
    there makes it vanish on the plane and, by homogeneity, everywhere.  A
    failure is a certificate."""
    return all(eval_invariants(p.transform(gate)) == t for p, t in _lattice(gate.n))


@dataclass(frozen=True)
class Fingerprint:
    """Scale-invariant ratios of same-degree invariant combinations; equal
    fingerprints are necessary for two code elements to lie on the same
    gate-group orbit."""

    branch: str
    ratios: tuple


def invariant_ratio_fingerprint(point: CartanPoint) -> Fingerprint:
    """(i9^2/i6^3, i12/i6^2) when i6 != 0; labeled degenerate branches
    otherwise; raises when all three invariants vanish."""
    t = eval_invariants(point)
    if not t.i6.is_zero():
        d3 = t.i6 ** 3
        return Fingerprint("i6", (t.i9 ** 2 / d3, t.i12 / (t.i6 ** 2)))
    if not t.i9.is_zero():
        return Fingerprint("i9", (t.i6 ** 3 / t.i9 ** 2, t.i12 ** 3 / t.i9 ** 4))
    if not t.i12.is_zero():
        return Fingerprint("i12", (t.i6 ** 2 / t.i12, t.i9 ** 4 / t.i12 ** 3))
    raise ZeroDivisionError("all invariants vanish: fingerprint undefined")
