import math
import random
from dataclasses import asdict

import pytest

from amecode import catalog, tensor
from amecode.correspondence import purify_code, reduce_state, roundtrip
from amecode.cyclo import default_conductor, root_of_unity
from amecode.qecc import CodeSubspace, kl_check, r_uniform_check
from amecode.tensor import LocalOperator, apply, inner

N = 12
N2 = default_conductor(2)


def test_purify_code332(code332, phi_unit):
    st = purify_code(code332)
    assert st.norm_sq() == 1
    assert st == phi_unit
    assert r_uniform_check(st, 2).uniform


def test_purify_bell():
    code = CodeSubspace(1, 2, [catalog.ket("0", 2, N2), catalog.ket("1", 2, N2)])
    bell = purify_code(code)
    assert bell.dims == (2, 2)
    assert bell.norm_sq() == 1
    amps = bell.to_complex()
    assert abs(amps[0] - 1 / math.sqrt(2)) < 1e-12
    assert abs(amps[3] - 1 / math.sqrt(2)) < 1e-12
    assert abs(amps[1]) < 1e-15 and abs(amps[2]) < 1e-15
    assert r_uniform_check(bell, 1).uniform


def test_purify_requires_k_equal_d(code332):
    two = CodeSubspace(3, 3, list(code332.basis[:2]))
    with pytest.raises(ValueError):
        purify_code(two)


def test_reduce_state(code332, phi_unit):
    red = reduce_state(phi_unit)
    assert red.span_equal(code332)
    assert kl_check(red, 2).is_pure
    bell = purify_code(CodeSubspace(1, 2, [catalog.ket("0", 2, N2),
                                           catalog.ket("1", 2, N2)]))
    back = reduce_state(bell)
    assert back.dimension == 2 and back.n_sites == 1


def test_reduce_rank_deficient():
    with pytest.raises(ValueError):
        reduce_state(catalog.ket("000", 3, N))


def test_reduce_state_forms_the_gram_table_once(monkeypatch, code332, phi_unit):
    calls = []
    kernel = tensor._gram

    def counting(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(tensor, "_gram", counting)
    red = reduce_state(phi_unit)
    assert len(calls) == 1
    monkeypatch.undo()
    assert red.span_equal(code332)


def test_reduce_state_orthonormalizes_a_full_rank_state():
    # <1|_1 v overlaps <0|_1 v, so the columns go through Gram-Schmidt; the
    # full constructor check confirms the result is orthonormal
    def k(s):
        return catalog.ket(s, 3, N)
    red = reduce_state(k("000") + k("100") + k("111") + k("222"))
    assert CodeSubspace(2, 3, red.basis).basis == red.basis
    assert red.span_equal(CodeSubspace(2, 3, [k("00"), k("11"), k("22")]))


def test_roundtrip_code(code332):
    assert asdict(roundtrip(code332)) == {
        "direction": "code->state->code", "input_description": "code n=3 D=3 K=3",
        "output_description": "state dims=(3, 3, 3, 3)",
        "ame_verified": True, "kl_verified": True, "roundtrip_exact": True}


def test_roundtrip_state(phi_unit):
    assert asdict(roundtrip(phi_unit)) == {
        "direction": "state->code->state", "input_description": "state dims=(3, 3, 3, 3)",
        "output_description": "code n=3 D=3 K=3",
        "ame_verified": True, "kl_verified": True, "roundtrip_exact": True}


def test_roundtrip_bell_span():
    code = CodeSubspace(1, 2, [catalog.ket("0", 2, N2), catalog.ket("1", 2, N2)])
    assert asdict(roundtrip(code)) == {
        "direction": "code->state->code", "input_description": "code n=1 D=2 K=2",
        "output_description": "state dims=(2, 2)",
        "ame_verified": True, "kl_verified": True, "roundtrip_exact": True}


def test_roundtrip_ghz_reported_honestly():
    # span{|00>,|11>} purifies to the 3-qubit GHZ state: the span round-trips
    # exactly, but no distance-2 code appears and the state is not AME
    code = CodeSubspace(2, 2, [catalog.ket("00", 2, N2), catalog.ket("11", 2, N2)])
    assert asdict(roundtrip(code)) == {
        "direction": "code->state->code", "input_description": "code n=2 D=2 K=2",
        "output_description": "state dims=(2, 2, 2)",
        "ame_verified": False, "kl_verified": False, "roundtrip_exact": True}


def test_roundtrip_needs_k_equal_d():
    # the ((4,4,2))_2 code has K = 4 > D = 2, so it has no purification
    with pytest.raises(ValueError, match="need K = D = 2 basis states, got 4"):
        roundtrip(catalog.code_442())


def test_roundtrip_rejects_other_types():
    with pytest.raises(TypeError):
        roundtrip(42)


def _random_product_unitary(rng, sites=2, d=3, n=N):
    # words in {X, Z, F} per site; F is the unitary Fourier-like matrix
    x, z = catalog.pauli_x(d, n), catalog.pauli_z(d, n)
    w = root_of_unity(n // 3, n)
    from amecode.cyclo import inv_sqrt3
    s = inv_sqrt3(n)
    f = [[s, s, s],
         [s, s * w, s * w * w],
         [s, s * w * w, s * w]]
    from amecode.linalg import Matrix
    pool = [x, z, Matrix(n, f)]
    factors = []
    for _ in range(sites):
        m = Matrix.identity(d, n)
        for _ in range(rng.randint(1, 4)):
            m = m * pool[rng.randrange(len(pool))]
        factors.append(m)
    return LocalOperator(n, 1, factors)


def test_roundtrip_recovers_random_spans():
    """beta(alpha(span)) == span for random exact orthonormal triples."""
    rng = random.Random(13)
    kets = [catalog.ket(kk, 3, N) for kk in ("00", "11", "22")]
    for _ in range(8):
        u = _random_product_unitary(rng)
        basis = [apply(u, k) for k in kets]
        code = CodeSubspace(2, 3, basis)
        rep = roundtrip(code)
        assert rep.roundtrip_exact
        st = purify_code(code)
        assert st.norm_sq() == 1


def test_purified_norm_is_one(code332):
    assert inner(purify_code(code332), purify_code(code332)) == 1
