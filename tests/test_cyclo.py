import os
import random
import subprocess
import sys
from fractions import Fraction
from math import inf
from pathlib import Path

import pytest

from amecode.cyclo import (ConductorMismatch, Cyclotomic, SqrtUnavailable,
                           cyclotomic_polynomial, default_conductor, euler_phi,
                           inv_sqrt3, root_of_unity, sqrt_of_rational)
from amecode.linalg import Matrix
from amecode.serialize import from_dict, to_dict


def rand_elem(n, rng, height=50):
    deg = euler_phi(n)
    coeffs = [rng.randint(-height, height) for _ in range(deg)]
    return Cyclotomic(n, coeffs, rng.randint(1, height))


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # phi(n) degrees
    for n in (1, 2, 3, 4, 8, 9, 12, 24, 36, 60):
        assert len(cyclotomic_polynomial(n)) - 1 == euler_phi(n)


def test_roots_of_unity():
    assert root_of_unity(12, 12) == 1
    w = root_of_unity(4, 12)
    assert (w * w + w + 1).is_zero()
    i = root_of_unity(3, 12)
    assert i * i == -1
    # zeta^k has multiplicative order N/gcd(N,k)
    z = root_of_unity(1, 12)
    assert z ** 12 == 1
    assert all(z ** k != 1 for k in range(1, 12))


def test_inv_sqrt3():
    s = inv_sqrt3(12)
    assert (s * s).as_fraction() == Fraction(1, 3)
    z = root_of_unity(1, 12)
    assert s * (z + z ** 11) == 1
    assert abs(s.to_complex() - 3 ** -0.5) < 1e-12
    with pytest.raises(SqrtUnavailable):
        inv_sqrt3(8)


def test_abs_square_of_unit_phase_over_sqrt3():
    # |zeta_12 / sqrt(3)|^2 expands exactly to 1/3
    z = root_of_unity(1, 12) * inv_sqrt3(12)
    assert (z * z.conj()).as_fraction() == Fraction(1, 3)


def test_conjugation():
    z = root_of_unity(1, 12)
    assert z.conj() == root_of_unity(11, 12)
    rng = random.Random(0)
    for _ in range(50):
        a, b = rand_elem(12, rng), rand_elem(12, rng)
        assert (a * b).conj() == a.conj() * b.conj()
        assert a.conj().conj() == a
    # sum of the cube roots of unity vanishes
    w = root_of_unity(4, 12)
    assert (1 + w + w * w).is_zero()


def test_field_inverse_and_division():
    rng = random.Random(1)
    for n in (12, 24, 36):
        for _ in range(25):
            a = rand_elem(n, rng)
            if a.is_zero():
                continue
            assert a * a.inv() == 1
            b = rand_elem(n, rng)
            assert (b / a) * a == b
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.zero(12).inv()


def test_conductor_mismatch_rejected():
    with pytest.raises(ConductorMismatch):
        root_of_unity(1, 12) + root_of_unity(1, 24)
    with pytest.raises(ConductorMismatch):
        root_of_unity(1, 12) * root_of_unity(1, 8)


def test_float_embedding_multiplicative():
    # property: embedding respects products on 1000 random bounded pairs
    rng = random.Random(2)
    for _ in range(1000):
        a, b = rand_elem(12, rng, height=20), rand_elem(12, rng, height=20)
        lhs = (a * b).to_complex()
        rhs = a.to_complex() * b.to_complex()
        assert abs(lhs - rhs) < 1e-10


def test_float_embedding_saturates_past_the_float_range():
    # numerators 2**2000 and more past a denominator of 1 or 3 used to divide
    # by a denominator that underflowed to 0.0; 10**400 saturated already
    assert Cyclotomic(12, [10 ** 700, 0, 0, -10 ** 700], 1).to_complex() == complex(inf, -inf)
    assert Cyclotomic(12, [-10 ** 700, 0, 0, 0], 3).to_complex() == complex(-inf, 0)
    assert Cyclotomic(12, [10 ** 400, 0, 0, 0], 1).to_complex() == complex(inf, 0)
    # a denominator past the float range is divided at its own scale
    assert Cyclotomic(12, [10 ** 3000, 0, 0, 0], 2 ** 1100).to_complex() == complex(inf, 0)


def test_float_embedding_keeps_an_exact_zero_component_past_the_float_range():
    # the float zeta^3 = i carries a real part of about 2.8e-16; scaled by
    # 10**400 it used to fill the real component with inf
    assert Cyclotomic(12, [0, 0, 0, 10 ** 400], 1).to_complex() == complex(0, inf)
    assert Cyclotomic(12, [0, 0, 0, -10 ** 400], 7).to_complex() == complex(0, -inf)
    # 10**400 * zeta: both components are nonzero and past the range
    assert Cyclotomic(12, [0, 10 ** 400, 0, 0], 1).to_complex() == complex(inf, inf)


def test_exact_zero_embeds_to_zero():
    rng = random.Random(3)
    for _ in range(200):
        a = rand_elem(12, rng)
        d = a - a
        assert d.is_zero()
        assert abs(d.to_complex()) < 1e-10


def test_rational_detection():
    w = root_of_unity(4, 12)
    assert not w.is_rational()
    assert (w + w.conj()).as_fraction() == -1  # 2*cos(2pi/3)
    x = Cyclotomic.from_rational(12, Fraction(22, 7))
    assert x.is_rational() and x.as_fraction() == Fraction(22, 7)


def test_sqrt_of_rational():
    cases = [(Fraction(1, 3), 12), (3, 12), (Fraction(4, 9), 12),
             (Fraction(1, 2), 24), (2, 24), (18, 24), (6, 24), (5, 60)]
    for q, n in cases:
        r = sqrt_of_rational(q, n)
        assert (r * r).as_fraction() == Fraction(q)
        assert r.to_complex().real > 0 or q == 0
    assert sqrt_of_rational(0, 12).is_zero()
    with pytest.raises(SqrtUnavailable):
        sqrt_of_rational(2, 12)
    with pytest.raises(SqrtUnavailable):
        sqrt_of_rational(-1, 12)


def test_embed():
    rng = random.Random(4)
    for _ in range(50):
        a = rand_elem(12, rng)
        e = a.embed(36)
        assert e.n == 36
        assert abs(e.to_complex() - a.to_complex()) < 1e-10
    with pytest.raises(ConductorMismatch):
        rand_elem(12, rng).embed(18)


def test_powers():
    z = root_of_unity(1, 12)
    assert z ** -1 == z.conj()
    a = z + 2
    assert a ** 3 == a * a * a
    assert a ** 0 == 1


def test_serialization_roundtrip():
    # a scalar round-trips as the entry of a 1 x 1 matrix document
    rng = random.Random(5)
    for n in (12, 24):
        for _ in range(20):
            m = Matrix(n, [[rand_elem(n, rng)]])
            assert from_dict(to_dict(m)) == m


def test_hash_consistency():
    a = root_of_unity(4, 12) * Fraction(2, 6)
    b = root_of_unity(4, 12) / 3
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("base", [Fraction(2), Fraction(1, 2), Fraction(3)],
                         ids=["2", "half", "3"])
def test_hash_separates_large_powers(base):
    # Python hashes an int modulo 2**61 - 1, under which 2**k repeats every
    # 61 steps; interning scalars relies on these hashes being spread out
    hashes = {hash(Cyclotomic.from_rational(12, base ** k)) for k in range(5000)}
    assert len(hashes) >= 4990


HASH_PROBE = """
from fractions import Fraction
from amecode.cyclo import Cyclotomic, root_of_unity
print([hash(c) for c in (root_of_unity(4, 12) / 3, Cyclotomic.from_rational(12, 2 ** 200),
                         Cyclotomic.from_rational(12, Fraction(1, 3 ** 90)))])
"""


def test_hash_does_not_depend_on_the_hash_seed():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = {subprocess.run([sys.executable, "-c", HASH_PROBE], capture_output=True, text=True,
                           check=True, timeout=60,
                           env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed}).stdout
            for seed in ("0", "1")}
    assert len(outs) == 1 and outs.pop().startswith("[")


def test_default_conductor():
    assert default_conductor(3) == 12
    assert default_conductor(2) == 24
    assert default_conductor(5) == 60
