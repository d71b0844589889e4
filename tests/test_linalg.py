import random
from fractions import Fraction

import numpy as np
import pytest

from amecode.cyclo import Cyclotomic, root_of_unity
from amecode import linalg
from amecode.linalg import Matrix, _col_bound, _matmul, _scaled, pack, unpack
from amecode.serialize import from_dict, to_dict


def rand_matrix(n, size, rng):
    z = root_of_unity(1, n)
    return Matrix(n, [[rng.randint(-5, 5) + z * rng.randint(-5, 5)
                       for _ in range(size)] for _ in range(size)])


def test_identity_and_shape():
    i3 = Matrix.identity(3, 12)
    assert i3.shape == (3, 3)
    assert i3.is_identity()
    assert not Matrix(12, [[0] * 2] * 2).is_identity()
    assert Matrix(12, [[0] * 3] * 2).shape == (2, 3)


def test_product_and_inverse():
    rng = random.Random(0)
    for _ in range(20):
        m = rand_matrix(12, 3, rng)
        if m.det().is_zero():
            continue
        assert (m * m.inv()).is_identity()
        assert (m.inv() * m).is_identity()
    with pytest.raises(ZeroDivisionError):
        Matrix(12, [[0] * 2] * 2).inv()


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


def test_scaled_bounds_negative_factors():
    # the bound is |k| * max|x|: a negative k must not pick int64 and wrap
    out = _scaled(np.array([1 << 61]), -8)
    assert out.tolist() == [-(1 << 64)]
    assert _scaled(np.array([3, -5]), -7).tolist() == [-21, 35]
    # one factor per row, broadcast against the rows
    rows = _scaled(np.array([[1 << 61], [3]]), np.array([[-8], [1 << 70]], dtype=object))
    assert rows.tolist() == [[-(1 << 64)], [3 << 70]]


def _edge_operands(m_bound: int, top: int):
    """(x, m) with _col_bound(m) == m_bound and max|x| == top, signs mixed,
    where x's first row meets the bound: (x @ m)[0, 0] == m_bound * top."""
    rng = random.Random(m_bound ^ top)
    m = np.array([[rng.randrange(-9, 10) for _ in range(8)] for _ in range(8)], dtype=object)
    col = [m_bound // 8] * 7 + [m_bound - 7 * (m_bound // 8)]
    m[:, 0] = [c if k % 2 else -c for k, c in enumerate(col)]
    x = np.array([[rng.randrange(-top, top + 1) for _ in range(8)] for _ in range(64)],
                 dtype=object)
    x[0] = [top if k % 2 else -top for k in range(8)]
    assert _col_bound(m) == m_bound and np.abs(x).max() == top
    return x.astype(np.int64), m.astype(np.int64)


@pytest.mark.parametrize("m_bound, top, tier", [
    (6361 * 69431, 20394401, np.float64),  # the bound is 2**53 - 1
    (1 << 26, 1 << 27, np.int64),  # the bound is 2**53
], ids=["bound-2^53-1-float64", "bound-2^53-int64"])
def test_matmul_float_tier_is_exact_at_its_edge(monkeypatch, m_bound, top, tier):
    assert m_bound * top == (1 << 53) - (tier is np.float64)
    x, m = _edge_operands(m_bound, top)
    seen = []
    real = np.matmul

    def spy(a, b):
        seen.append(a.dtype)
        return real(a, b)

    monkeypatch.setattr(linalg.np, "matmul", spy)
    out = _matmul(x, m, m_bound)
    monkeypatch.undo()
    assert seen == [np.dtype(tier)]
    assert out.dtype == np.int64
    assert out[0, 0] == m_bound * top
    assert out.tolist() == np.matmul(x.astype(object), m.astype(object)).tolist()
    assert out.tolist() == np.matmul(x, m).tolist()


def test_matmul_zero_operand_with_huge_other_is_exact():
    # a zero m has bound 0, but x near 2**200 fits neither float64 nor int64
    x = np.array([[(1 << 200) + k, -(1 << 199)] for k in range(3)], dtype=object)
    out = _matmul(x, np.zeros((2, 4), dtype=np.int64), 0)
    assert out.shape == (3, 4) and all(v == 0 for v in out.ravel().tolist())
    # and a zero x against an m near 2**200
    m = np.array([[1 << 200, -(1 << 200)], [1, 2]], dtype=object)
    out = _matmul(np.zeros((3, 2), dtype=np.int64), m, _col_bound(m))
    assert all(v == 0 for v in out.ravel().tolist())


def _reference_right_actions(y, n):
    """right_actions as one einsum on Python ints: the reference for its
    int64 tier."""
    k, m, c, deg = y.shape
    t = linalg._structure(n)[0].astype(object)
    a = np.einsum("jbcu,tus->jbtcs", y.astype(object), t).reshape(k, m * deg, c * deg)
    return linalg._compact(a), np.abs(a).sum(axis=-2).max(axis=-1).tolist()


def _int64_edge(n: int, m: int) -> int:
    """The largest max|y| for which right_actions still runs on int64."""
    deg = linalg._structure(n)[0].shape[0]
    per = m * deg * deg * int(np.abs(linalg._structure(n)[0].astype(object)).max())
    return ((1 << 62) - 1) // per


@pytest.mark.parametrize("n", [12, 24, 36])
@pytest.mark.parametrize("top", ["small", "int64-edge", "past-int64-edge", "near-2^60"])
def test_right_actions_match_the_object_einsum(n, top):
    rng = random.Random(n)
    deg = linalg._structure(n)[0].shape[0]
    k, m, c = 5, 3, 2
    big = {"small": 9, "int64-edge": _int64_edge(n, m), "past-int64-edge": _int64_edge(n, m) + 1,
           "near-2^60": (1 << 60) + 12345}[top]
    y = np.array([rng.randrange(-9, 10) for _ in range(k * m * c * deg)], dtype=object)
    y = y.reshape(k, m, c, deg)
    y[0, 0, 0, 0], y[-1, -1, -1, -1] = big, -big
    y[2, 1] = [[big - rng.randrange(1000) for _ in range(deg)] for _ in range(c)]
    a, bounds = linalg.right_actions(linalg._compact(y), n)
    ref, ref_bounds = _reference_right_actions(y, n)
    assert a.dtype == ref.dtype and a.shape == ref.shape
    assert a.tolist() == ref.tolist()
    assert bounds == ref_bounds and all(type(b) is int for b in bounds)
    # the bounds read off the actions are their column bounds
    assert bounds == [_col_bound(m) for m in ref]
