import random
from fractions import Fraction
from math import comb

import pytest

from amecode import catalog
from amecode.cyclo import default_conductor, root_of_unity
from amecode.qecc import (CodeSubspace, _pauli_error_basis, distance, kl_check,
                          pauli_error_basis, r_uniform_check, singleton_check,
                          stabilizer_subspace)
from amecode.tensor import LocalOperator, apply, inner

N = 12
N2 = default_conductor(2)


def test_error_basis_counts():
    # oracle: sum over weights of C(n,w) * (D^2-1)^w
    for n_sites, d, w in [(3, 3, 1), (3, 3, 3), (1, 2, 0), (4, 2, 2)]:
        expected = sum(comb(n_sites, k) * (d * d - 1) ** k for k in range(w + 1))
        assert len(pauli_error_basis(n_sites, d, w)) == expected
    assert len(pauli_error_basis(3, 3, 1)) == 25
    assert len(pauli_error_basis(3, 3, 3)) == 729
    assert len(pauli_error_basis(1, 2, 0)) == 1


def test_error_basis_weights_and_labels():
    basis = pauli_error_basis(2, 3, 2)
    for e in basis:
        assert e.weight == sum(1 for ab in e.exponents if ab != (0, 0))
    labels = [e.label for e in basis]
    assert labels[0] == "X0Z0.X0Z0"
    assert len(set(labels)) == len(labels)


def test_error_basis_rejects_non_prime():
    with pytest.raises(ValueError):
        pauli_error_basis(2, 4, 1)
    with pytest.raises(ValueError):
        pauli_error_basis(2, 3, 3)


def test_error_basis_built_once_per_key():
    basis = pauli_error_basis(3, 3, 1)
    assert isinstance(basis, tuple)
    # conductor=None is the default conductor, so both calls share one key
    assert pauli_error_basis(3, 3, 1, conductor=12) is basis
    assert pauli_error_basis(3, 3, 1, conductor=36) is not basis
    fresh = _pauli_error_basis.__wrapped__(3, 3, 1, 12)
    assert [(e.op, e.exponents, e.label) for e in fresh] == \
        [(e.op, e.exponents, e.label) for e in basis]


@pytest.mark.parametrize("name, d", [("332", 2), ("332", 3), ("442", 2)])
def test_kl_check_default_basis_matches_explicit(name, d):
    # the shared basis sweeps exactly as an explicit list of the same errors
    code = catalog.code_332() if name == "332" else catalog.code_442()
    errors = list(pauli_error_basis(code.n_sites, code.local_dim, d - 1,
                                    conductor=code.conductor))
    assert kl_check(code, d) == kl_check(code, d, errors=errors)


def test_code332_kl(code332):
    rep = kl_check(code332, 2)
    assert rep.is_code and rep.is_pure
    assert not rep.violations
    # purity: every nontrivial weight<2 error has c(E) = 0
    for label, c in rep.c_table.items():
        if label != "X0Z0.X0Z0.X0Z0":
            assert c.is_zero()
    rep3 = kl_check(code332, 3)
    assert not rep3.is_code
    assert rep3.violations


def test_kl_trivial_code():
    code = CodeSubspace(3, 3, [catalog.ket("000", 3, N)])
    assert kl_check(code, 1).is_code


def test_distance(code332):
    assert distance(code332) == 2
    # qubit span{|000>,|111>}: a single-site phase error distinguishes
    code = CodeSubspace(3, 2, [catalog.ket("000", 2, N2), catalog.ket("111", 2, N2)])
    assert distance(code) == 1
    z1 = catalog.pauli_product(2, N2, [(0, 1), (0, 0), (0, 0)])
    d00 = inner(code.basis[0], apply(z1, code.basis[0]))
    d11 = inner(code.basis[1], apply(z1, code.basis[1]))
    assert d00 != d11  # the weight-1 violation the sweep must find


def test_distance_monotone(code332):
    errors = pauli_error_basis(3, 3, 3)
    d = distance(code332)
    for dd in range(1, d + 1):
        assert kl_check(code332, dd, errors=errors).is_code


def test_r_uniform(phi_unit, phi_rowform):
    assert r_uniform_check(phi_unit, 2).uniform
    assert r_uniform_check(phi_rowform, 2).uniform  # normalization-independent
    assert r_uniform_check(phi_unit, 1).uniform
    s1 = catalog.code_basis()[0]
    assert r_uniform_check(s1, 1).uniform
    rep = r_uniform_check(catalog.ket("000", 3, N), 1)
    assert not rep.uniform
    assert rep.worst_deviation > 0.5
    with pytest.raises(ValueError):
        r_uniform_check(phi_unit, 5)


def test_singleton():
    assert singleton_check(3, 3, 2, 3)          # equality: 3*81 = 243? no: 3*9=27
    assert 3 * 3 ** 2 == 3 ** 3                 # MDS equality witness
    assert singleton_check(3, 2, 2, 2)          # bound holds, no code exists
    assert singleton_check(2, 1, 2, 2)
    assert 1 * 2 ** 2 == 2 ** 2                 # equality at n=2
    assert not singleton_check(3, 3, 3, 3)
    with pytest.raises(ValueError):
        singleton_check(0, 1, 1, 2)


def test_purity_bridge(code332):
    """Pure distance-d codes consist of (d-1)-uniform states: check basis
    states and 10 random exact unit combinations."""
    rng = random.Random(7)
    for code in (code332, catalog.code_442()):
        d = distance(code)
        assert kl_check(code, d).is_pure
        for v in code.basis:
            assert r_uniform_check(v, d - 1).uniform
        n = code.conductor
        for _ in range(10):
            # r_uniform_check normalizes by the exact squared norm itself
            combo = None
            for b in code.basis:
                c = root_of_unity(rng.randrange(n), n) * rng.randint(1, 3)
                term = b.scale(c)
                combo = term if combo is None else combo + term
            assert r_uniform_check(combo, d - 1).uniform
    # reverse direction: a non-pure span contains a non-uniform state
    triv = CodeSubspace(3, 3, [catalog.ket("000", 3, N)])
    rep = kl_check(triv, 2)
    assert rep.is_code and not rep.is_pure
    assert not r_uniform_check(triv.basis[0], 1).uniform


def test_mds_implies_pure(code332):
    # every MDS code in the corpus is pure
    corpus = [(code332, 2), (catalog.code_442(), 2)]
    for code, d in corpus:
        k, dim, n_sites = code.dimension, code.local_dim, code.n_sites
        saturated = k * dim ** (2 * (d - 1)) == dim ** n_sites
        assert saturated
        assert kl_check(code, d).is_pure


def test_stabilizer_subspace_332(code332):
    sub = stabilizer_subspace([catalog.xxx(3, 3, N), catalog.zzz(3, 3, N)])
    assert sub.dimension == 3
    assert sub.span_equal(code332)
    for b in sub.basis:
        assert apply(catalog.xxx(3, 3, N), b) == b


def test_stabilizer_subspace_identity_gives_full_space():
    sub = stabilizer_subspace([LocalOperator.identity((2,), N2)])
    assert sub.dimension == 2


def test_stabilizer_subspace_442():
    code = catalog.code_442()
    assert code.dimension == 4
    rep = kl_check(code, 2)
    assert rep.is_code and rep.is_pure
    assert distance(code) == 2


def test_stabilizer_rejects_nonunitary():
    bad = LocalOperator(N, 1, [catalog.pauli_x(3, N).scale(2)])
    with pytest.raises(ValueError):
        stabilizer_subspace([bad])


def test_code_subspace_validation():
    s1, s2, _ = catalog.code_basis()
    with pytest.raises(ValueError):
        CodeSubspace(3, 3, [s1, s1])  # not orthonormal
    with pytest.raises(ValueError):
        CodeSubspace(3, 3, [s1.scale(2)])  # not unit norm
    with pytest.raises(ValueError):
        CodeSubspace(2, 3, [s1])  # wrong site count
    code = CodeSubspace(3, 3, [s1, s2])
    assert code.contains(s1 + s2.scale(root_of_unity(1, N)))
    assert not code.contains(catalog.ket("001", 3, N))


def _reference_first_defect(basis):
    """The pair the field-arithmetic orthonormality loop named first."""
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            if inner(u, v) != (1 if i == j else 0):
                return (i, j)
    return None


_S1, _S2, _S3 = catalog.code_basis()


@pytest.mark.parametrize("basis, pair", [
    ([_S1, _S2, _S1], (0, 2)),
    ([_S2, _S1, _S3.scale(2)], (2, 2)),
    ([_S1, _S2 + _S3], (1, 1)),
    ([_S3, _S1, _S1 + _S2], (1, 2)),
], ids=["repeated", "scaled", "unnormalized-sum", "overlap"])
def test_non_orthonormal_code_names_reference_pair(basis, pair):
    assert _reference_first_defect(basis) == pair
    with pytest.raises(ValueError, match=rf"at pair \({pair[0]},{pair[1]}\)$"):
        CodeSubspace(3, 3, basis)


def test_contains_and_span_equal_by_gram(code332):
    s1, s2, s3 = code332.basis
    w = root_of_unity(1, N)
    code = CodeSubspace(3, 3, [s1, s2])
    assert code.contains(s1.scale(w) - s2.scale(3))
    assert not code.contains(s1 + s3.scale(Fraction(1, 1000)))
    assert not code.contains(catalog.ket("000", 3, N))
    assert code.span_equal(CodeSubspace(3, 3, [s2.scale(w), s1]))
    assert not code.span_equal(CodeSubspace(3, 3, [s1, s3]))
    assert not code.span_equal(code332)
