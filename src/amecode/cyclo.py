"""Exact arithmetic in the cyclotomic field Q(zeta_N).

An element is stored in the power basis {1, zeta, ..., zeta^(phi(N)-1)}
as an integer coefficient vector over one positive denominator, reduced
modulo the N-th cyclotomic polynomial.  The representation is canonical:
two elements are equal iff their conductors, denominators and coefficient
vectors coincide, so equality and hashing are exact and arithmetic never
leaves the field.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


_FLOAT_SAFE_BITS = 1000  # integers below 2**1000 convert to float, with headroom for sums


class ConductorMismatch(ValueError):
    """Arithmetic between elements of different fields is rejected, not coerced."""


class SqrtUnavailable(ValueError):
    """The requested square root does not live in the chosen field."""


def euler_phi(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_exact_div(num: list[int], den: tuple[int, ...]) -> list[int]:
    # long division by a monic integer polynomial; remainder must vanish
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(num) - dd - 1, -1, -1):
        c = num[k + dd]
        out[k] = c
        if c:
            for j in range(dd + 1):
                num[k + j] -= c * den[j]
    if any(num[:dd]):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n(x), ascending degree, monic."""
    if n < 1:
        raise ValueError("conductor must be positive")
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            num = _poly_exact_div(num, cyclotomic_polynomial(d))
    return tuple(num)


class _Field:
    """Per-conductor tables: reduced powers of zeta and float embeddings."""

    __slots__ = ("n", "degree", "poly", "powers", "units", "root_pows")

    def __init__(self, n: int):
        self.n = n
        self.poly = cyclotomic_polynomial(n)
        deg = len(self.poly) - 1
        self.degree = deg
        count = max(n, 2 * deg - 1)
        powers: list[tuple[int, ...]] = []
        cur = [0] * deg
        cur[0] = 1
        if deg == 0:  # unreachable: phi(n) >= 1
            raise ValueError(n)
        powers.append(tuple(cur))
        for _ in range(count - 1):
            top = cur[deg - 1] if deg > 0 else 0
            nxt = [0] * deg
            for j in range(1, deg):
                nxt[j] = cur[j - 1]
            if top:
                for j in range(deg):
                    nxt[j] -= top * self.poly[j]
            cur = nxt
            powers.append(tuple(cur))
        self.powers = powers
        self.units = [a for a in range(1, n) if gcd(a, n) == 1] or [0]
        w = cmath.exp(2j * cmath.pi / n)
        self.root_pows = [w ** j for j in range(deg)]


@lru_cache(maxsize=None)
def _field(n: int) -> _Field:
    return _Field(n)


class Cyclotomic:
    """Immutable element of Q(zeta_N) in canonical reduced form."""

    __slots__ = ("n", "den", "coeffs", "_hash")

    def __init__(self, n: int, coeffs, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        f = _field(n)
        coeffs = list(coeffs)
        if len(coeffs) != f.degree:
            raise ValueError(f"need {f.degree} coefficients for conductor {n}")
        if den < 0:
            den = -den
            coeffs = [-c for c in coeffs]
        g = den
        for c in coeffs:
            g = gcd(g, c)
            if g == 1:
                break
        if g > 1:
            den //= g
            coeffs = [c // g for c in coeffs]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):  # immutability
        raise AttributeError("Cyclotomic is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def from_rational(cls, n: int, value) -> Cyclotomic:
        q = Fraction(value)
        deg = _field(n).degree
        coeffs = [0] * deg
        coeffs[0] = q.numerator
        return cls(n, coeffs, q.denominator)

    @classmethod
    def zero(cls, n: int) -> Cyclotomic:
        return cls.from_rational(n, 0)

    @classmethod
    def one(cls, n: int) -> Cyclotomic:
        return cls.from_rational(n, 1)

    # -- helpers -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.n != self.n:
                raise ConductorMismatch(f"conductor {self.n} vs {other.n}")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(self.n, other)
        return None

    # -- ring/field operations ----------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        coeffs = [a * db + b * da for a, b in zip(self.coeffs, o.coeffs)]
        return Cyclotomic(self.n, coeffs, da * db)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.n, [-c for c in self.coeffs], self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        f = _field(self.n)
        deg = f.degree
        a, b = self.coeffs, o.coeffs
        conv = [0] * (2 * deg - 1) if deg > 1 else [0]
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        res = list(conv[:deg])
        for k in range(deg, len(conv)):
            ck = conv[k]
            if ck:
                pw = f.powers[k]
                for j in range(deg):
                    pj = pw[j]
                    if pj:
                        res[j] += ck * pj
        return Cyclotomic(self.n, res, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        result = Cyclotomic.one(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def galois(self, a: int) -> Cyclotomic:
        """Image under the field automorphism zeta -> zeta^a, gcd(a, N) = 1."""
        if gcd(a, self.n) != 1:
            raise ValueError(f"{a} is not a unit modulo {self.n}")
        f = _field(self.n)
        res = [0] * f.degree
        for j, cj in enumerate(self.coeffs):
            if cj:
                pw = f.powers[(j * a) % self.n]
                for t in range(f.degree):
                    pt = pw[t]
                    if pt:
                        res[t] += cj * pt
        return Cyclotomic(self.n, res, self.den)

    def conj(self) -> Cyclotomic:
        """Complex conjugate: zeta -> zeta^(N-1) extended as automorphism."""
        if self.n == 1:
            return self
        return self.galois(self.n - 1)

    def inv(self) -> Cyclotomic:
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        f = _field(self.n)
        prod = Cyclotomic.one(self.n)
        for a in f.units:
            if a != 1:
                prod = prod * self.galois(a)
        norm = self * prod
        if any(norm.coeffs[1:]):
            raise ArithmeticError("field norm failed to land in Q")
        r = Fraction(norm.coeffs[0], norm.den)
        return prod * Cyclotomic.from_rational(self.n, 1 / r)

    # -- predicates and conversions -----------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.coeffs[0], self.den)

    def is_real(self) -> bool:
        return self.conj() == self

    def to_complex(self) -> complex:
        """Float embedding at zeta = exp(2*pi*i/N).

        Numerators and denominator too long for a float are first divided
        by one power of two (integer true division, correctly rounded).
        Scaling by a power of two does not change float rounding, so the
        result is the same as without it wherever that would not
        overflow."""
        f = _field(self.n)
        bits = max(abs(c).bit_length() for c in self.coeffs + (self.den,))
        scale = 1 << max(0, bits - _FLOAT_SAFE_BITS)
        acc = 0j
        for c, w in zip(self.coeffs, f.root_pows):
            if c:
                acc += (c / scale) * w
        return acc / (self.den / scale)

    def embed(self, m: int) -> Cyclotomic:
        """Image in Q(zeta_M) for N | M, via zeta_N -> zeta_M^(M/N)."""
        if m % self.n != 0:
            raise ConductorMismatch(f"{self.n} does not divide {m}")
        if m == self.n:
            return self
        k = m // self.n
        f = _field(m)
        res = [0] * f.degree
        for j, cj in enumerate(self.coeffs):
            if cj:
                pw = f.powers[(j * k) % m]
                for t in range(f.degree):
                    pt = pw[t]
                    if pt:
                        res[t] += cj * pt
        return Cyclotomic(m, res, self.den)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        fr = [Fraction(c, self.den) for c in self.coeffs]
        return {
            "conductor": self.n,
            "coeffs": [f"{q.numerator}/{q.denominator}" for q in fr],
        }

    @classmethod
    def from_dict(cls, data: dict) -> Cyclotomic:
        n = int(data["conductor"])
        fracs = [Fraction(s) for s in data["coeffs"]]
        den = 1
        for q in fracs:
            den = lcm(den, q.denominator)
        coeffs = [int(q * den) for q in fracs]
        return cls(n, coeffs, den)

    # -- identity ------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other) if not isinstance(other, Cyclotomic) else other
        if o is None:
            return NotImplemented
        if isinstance(other, Cyclotomic) and other.n != self.n:
            return False
        return self.den == o.den and self.coeffs == o.coeffs

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.n, self.den, self.coeffs))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        terms = []
        for j, c in enumerate(self.coeffs):
            if c:
                base = "1" if j == 0 else ("z" if j == 1 else f"z^{j}")
                terms.append(f"{c}*{base}" if j else f"{c}")
        body = " + ".join(terms) if terms else "0"
        if self.den != 1:
            body = f"({body})/{self.den}"
        return f"Cyc{self.n}[{body}]"


# -- module-level constructors -------------------------------------------


def root_of_unity(k: int, n: int) -> Cyclotomic:
    """zeta_N^k in canonical reduced form."""
    f = _field(n)
    return Cyclotomic(n, f.powers[k % n], 1)


def inv_sqrt3(n: int) -> Cyclotomic:
    """1/sqrt(3) = (zeta_12 + zeta_12^11)/3, embedded in Q(zeta_N), 12 | N."""
    if n % 12 != 0:
        raise SqrtUnavailable(f"1/sqrt(3) needs 12 | conductor, got {n}")
    return (root_of_unity(n // 12, n) + root_of_unity(11 * n // 12, n)) * Fraction(1, 3)


def _squarefree_split(m: int) -> tuple[int, int]:
    # m = s^2 * f with f squarefree (m > 0, trial division)
    s, f = 1, 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                f *= p
        p += 1
    f *= m
    return s, f


def _legendre(a: int, p: int) -> int:
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def _sqrt_prime(p: int, n: int) -> Cyclotomic:
    if p == 2:
        if n % 8 != 0:
            raise SqrtUnavailable(f"sqrt(2) needs 8 | conductor, got {n}")
        return root_of_unity(n // 8, n) + root_of_unity(7 * n // 8, n)
    if n % p != 0:
        raise SqrtUnavailable(f"sqrt({p}) needs {p} | conductor, got {n}")
    # quadratic Gauss sum: sqrt(p) for p = 1 mod 4, i*sqrt(p) for p = 3 mod 4
    g = Cyclotomic.zero(n)
    for a in range(1, p):
        g = g + _legendre(a, p) * root_of_unity(a * (n // p), n)
    if p % 4 == 1:
        return g
    if n % 4 != 0:
        raise SqrtUnavailable(f"sqrt({p}) needs 4 | conductor, got {n}")
    return -root_of_unity(n // 4, n) * g  # -i * (i*sqrt(p))


def sqrt_of_rational(value, n: int) -> Cyclotomic:
    """Exact square root of a nonnegative rational, if Q(zeta_N) contains it."""
    q = Fraction(value)
    if q < 0:
        raise SqrtUnavailable("negative radicand")
    if q == 0:
        return Cyclotomic.zero(n)
    m = q.numerator * q.denominator
    s, f = _squarefree_split(m)
    root = Cyclotomic.from_rational(n, Fraction(s, q.denominator))
    rem = f
    p = 2
    while rem > 1:
        if rem % p == 0:
            rem //= p
            root = root * _sqrt_prime(p, n)
        else:
            p += 1 if p == 2 else 2
    return root


def default_conductor(d: int) -> int:
    """Smallest conductor covering the scalars used for local dimension d."""
    return 12 if d == 3 else lcm(4 * d, 12)
