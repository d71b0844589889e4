"""The three generating invariants of the order-648 gate group in code
coordinates (a, b, c), of degrees 6, 9 and 12, with exact evaluation,
randomized invariance testing, and scale-free orbit fingerprints.

All three polynomials depend on the coordinates only through their cubes
p = a^3, q = b^3, r = c^3:

    degree 6:   p^2 + q^2 + r^2 - 10(pq + pr + qr)
    degree 9:   (p - q)(p - r)(q - r)
    degree 12:  p^3(q+r) + q^3(p+r) + r^3(p+q)
                - 4(p^2 q^2 + p^2 r^2 + q^2 r^2) + 2 pqr (p + q + r)
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

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


def eval_invariants(point: CartanPoint) -> InvariantTriple:
    """Exact values of the degree-6, 9 and 12 invariants at the point."""
    p, q, r = point.a ** 3, point.b ** 3, point.c ** 3
    i6 = p * p + q * q + r * r - 10 * (p * q + p * r + q * r)
    i9 = (p - q) * (p - r) * (q - r)
    pq, pr, qr = p * q, p * r, q * r
    i12 = (p ** 3 * (q + r) + q ** 3 * (p + r) + r ** 3 * (p + q)
           - 4 * (pq * pq + pr * pr + qr * qr)
           + 2 * (pq * pr + pq * qr + pr * qr))
    return InvariantTriple(i6, i9, i12)


def random_rational_point(n: int, rng: random.Random, height: int = 100) -> CartanPoint:
    """Rational coordinates with numerators and denominators of height at
    most `height`."""
    def coord():
        return Fraction(rng.randint(-height, height), rng.randint(1, height))
    return CartanPoint.of(n, coord(), coord(), coord())


def check_weyl_invariance(gate: Matrix, trials: int = 50, seed: int = 0,
                          height: int = 100) -> bool:
    """Randomized polynomial identity test: the gate preserves all three
    invariants iff eval(gate * p) == eval(p) as exact field elements at
    `trials` random rational points.

    Each invariant has degree at most 12, and each coordinate is drawn from
    more than 2*height values, so a nonzero difference polynomial survives a
    single trial with probability at most 12/(2*height) (Schwartz-Zippel);
    `trials` independent points make a false pass astronomically unlikely,
    and a reported failure is a certificate.  Fewer than one trial would
    pass vacuously and raises ValueError.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = random.Random(seed)
    for _ in range(trials):
        p = random_rational_point(gate.n, rng, height)
        if eval_invariants(p.transform(gate)) != eval_invariants(p):
            return False
    return True


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
