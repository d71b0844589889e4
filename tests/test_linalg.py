import random
from fractions import Fraction

import numpy as np
import pytest

from amecode.cyclo import Cyclotomic, root_of_unity
from amecode.linalg import Matrix, pack, unpack
from amecode.serialize import from_dict, to_dict


def rand_matrix(n, size, rng):
    z = root_of_unity(1, n)
    return Matrix(n, [[rng.randint(-5, 5) + z * rng.randint(-5, 5)
                       for _ in range(size)] for _ in range(size)])


def test_identity_and_shape():
    i3 = Matrix.identity(3, 12)
    assert i3.shape == (3, 3)
    assert i3.is_identity()
    assert not Matrix.zeros(2, 2, 12).is_identity()
    assert Matrix.zeros(2, 3, 12).shape == (2, 3)


def test_product_and_inverse():
    rng = random.Random(0)
    for _ in range(20):
        m = rand_matrix(12, 3, rng)
        if m.det().is_zero():
            continue
        assert (m * m.inv()).is_identity()
        assert (m.inv() * m).is_identity()
    with pytest.raises(ZeroDivisionError):
        Matrix.zeros(2, 2, 12).inv()


def test_det_multiplicative():
    rng = random.Random(1)
    for _ in range(20):
        a, b = rand_matrix(12, 3, rng), rand_matrix(12, 3, rng)
        assert (a * b).det() == a.det() * b.det()


def test_det_matches_gauss_for_larger_sizes():
    rng = random.Random(2)
    for _ in range(5):
        m = rand_matrix(12, 4, rng)
        # expansion along the first row as an independent oracle
        def minor(mat, i, j):
            rows = [[e for c, e in enumerate(r) if c != j]
                    for k, r in enumerate(mat.rows) if k != i]
            return Matrix(mat.n, rows)
        acc = Cyclotomic.zero(12)
        for j in range(4):
            term = m.rows[0][j] * minor(m, 0, j).det()
            acc = acc + (term if j % 2 == 0 else -term)
        assert m.det() == acc


def test_dagger_and_hermitian():
    rng = random.Random(3)
    m = rand_matrix(12, 3, rng)
    h = m + m.dagger()
    assert h.is_hermitian()
    assert m.dagger().dagger() == m
    assert (m * m.dagger()).is_hermitian()


def test_unitary():
    w = root_of_unity(4, 12)
    d = Matrix(12, [[1, 0], [0, w]])
    assert d.is_unitary()
    assert not Matrix(12, [[2, 0], [0, 1]]).is_unitary()


def test_kron_dims_and_values():
    a = Matrix(12, [[1, 2], [3, 4]])
    b = Matrix.identity(2, 12)
    k = a.kron(b)
    assert k.shape == (4, 4)
    assert k.rows[0][0].as_fraction() == 1
    assert k.rows[2][2].as_fraction() == 4
    assert k.rows[0][1].is_zero()




def test_trace_and_mat_vec():
    m = Matrix(12, [[1, 2], [3, 4]])
    assert m.trace().as_fraction() == 5
    v = m.mat_vec((Cyclotomic.one(12), Cyclotomic.from_rational(12, 2)))
    assert [x.as_fraction() for x in v] == [5, 11]


def test_serialization():
    rng = random.Random(5)
    m = rand_matrix(12, 3, rng)
    assert from_dict(to_dict(m)) == m


def test_unpack_takes_one_denominator_per_matrix():
    rng = random.Random(7)
    a, b = rand_matrix(12, 3, rng), rand_matrix(12, 3, rng)
    mats = [Matrix.identity(3, 12), a.scale(Fraction(1, 2)), b.scale(Fraction(1, 6)),
            a.scale(Fraction(1, 2))]
    packs = [pack([m]) for m in mats]
    out = unpack(12, np.concatenate([x for x, _ in packs]), [den for _, den in packs])
    assert out == [unpack(12, x, [den])[0] for x, den in packs] == mats
    # equal (den, numerators) give one object: within a matrix, and across
    # matrices 1 and 3, which are equal over one denominator
    assert len({id(e) for row in out[0].rows for e in row}) == 2
    assert all(e is f for r, s in zip(out[1].rows, out[3].rows) for e, f in zip(r, s))
