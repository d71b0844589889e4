import random
from fractions import Fraction
from math import prod

import pytest

from amecode import catalog
from amecode.cyclo import ConductorMismatch, Cyclotomic, root_of_unity
from amecode.linalg import Matrix
from amecode.qecc import pauli_error_basis
from amecode.tensor import (DensityOperator, DimensionMismatch, LocalOperator,
                            PackedBasis, PureState, apply, contract_site,
                            fixed_by, inner, matricize, orthonormalize,
                            partial_trace)

N = 12


def reference_apply(op, v):
    """The term-by-term field arithmetic the packed kernel replaced: each
    non-identity factor contracted against its site, amplitude by
    amplitude, then the scalar."""
    amps = list(v.amps)
    zero = Cyclotomic.zero(v.n)
    for pos, f in enumerate(op.factors):
        if f.is_identity():
            continue
        d = v.dims[pos]
        inner_sz = prod(v.dims[pos + 1:])
        outer_sz = prod(v.dims[:pos])
        block = d * inner_sz
        for o in range(outer_sz):
            base = o * block
            for r in range(inner_sz):
                idx = [base + k * inner_sz + r for k in range(d)]
                vals = [amps[i] for i in idx]
                for i_new in range(d):
                    acc = zero
                    for k, coeff in enumerate(f.rows[i_new]):
                        if not (coeff.is_zero() or vals[k].is_zero()):
                            acc = acc + coeff * vals[k]
                    amps[idx[i_new]] = acc
    if op.scalar != Cyclotomic.one(v.n):
        amps = [op.scalar * a for a in amps]
    return PureState(v.n, v.dims, amps)


def _random_cyc(rng, n, height=5):
    deg = len(Cyclotomic.one(n).coeffs)
    return Cyclotomic(n, [rng.randint(-height, height) for _ in range(deg)],
                      rng.randint(1, height))


def _random_operator(rng, n, dims):
    """A product operator with generic entries and denominators."""
    factors = []
    for d in dims:
        rows = [[_random_cyc(rng, n) for _ in range(d)] for _ in range(d)]
        rows[0][0] = Cyclotomic.one(n)  # no zero factor
        factors.append(Matrix(n, rows))
    return LocalOperator(n, _random_cyc(rng, n), factors)


def test_inner_products_of_code_basis(phi_rowform):
    s1, s2, s3 = catalog.code_basis()
    assert inner(s1, s1) == 1
    assert inner(s1, s2).is_zero()
    assert inner(s2, s3).is_zero()
    # nine terms with amplitude 1/sqrt(3): squared norm 3 exactly
    assert inner(phi_rowform, phi_rowform).as_fraction() == 3


def test_inner_conjugate_linear_first_argument():
    w = root_of_unity(4, N)
    a = catalog.ket("00", 3, N).scale(w)
    b = catalog.ket("00", 3, N)
    assert inner(a, b) == w.conj()
    assert inner(b, a) == w


def test_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        inner(catalog.ket("00", 3, N), catalog.ket("000", 3, N))


def test_apply_stabilizer_fixes_basis(phi_rowform):
    s1, s2, s3 = catalog.code_basis()
    x3, z3 = catalog.xxx(3, 3, N), catalog.zzz(3, 3, N)
    for s in (s1, s2, s3):
        assert apply(x3, s) == s
        assert apply(z3, s) == s  # each term gains xi^(0+1+2) = 1


def test_apply_identity_and_scalars():
    v = catalog.ket("012", 3, N)
    ident = LocalOperator.identity((3, 3, 3), N)
    assert apply(ident, v) == v
    w = root_of_unity(4, N)
    scaled = LocalOperator(N, w, [Matrix.identity(3, N)] * 3)
    assert apply(scaled, v) == v.scale(w)


def test_apply_respects_composition():
    rng = random.Random(0)
    v = catalog.ket("012", 3, N) + catalog.ket("201", 3, N).scale(root_of_unity(1, N))
    for _ in range(25):
        exps = [(rng.randrange(3), rng.randrange(3)) for _ in range(3)]
        exps2 = [(rng.randrange(3), rng.randrange(3)) for _ in range(3)]
        g = catalog.pauli_product(3, N, exps)
        h = catalog.pauli_product(3, N, exps2)
        assert apply(g, apply(h, v)) == apply(g * h, v)


def test_contract_site_examples(phi_rowform):
    s1, s2, s3 = catalog.code_basis()
    assert contract_site(0, 1, phi_rowform) == s1
    assert contract_site(1, 1, phi_rowform) == s2
    assert contract_site(2, 1, phi_rowform) == s3
    assert contract_site(0, 1, catalog.ket("000", 3, N)) == catalog.ket("00", 3, N)
    with pytest.raises(IndexError):
        contract_site(3, 1, phi_rowform)
    with pytest.raises(IndexError):
        contract_site(0, 5, phi_rowform)


def test_matricize_columns_match_contractions():
    rng = random.Random(1)
    dims = (2, 3, 2)
    amps = [Cyclotomic(N, [rng.randint(-3, 3) for _ in range(4)], rng.randint(1, 3))
            for _ in range(12)]
    v = PureState(N, dims, amps)
    for site in (1, 2, 3):
        m = matricize(v, site)
        for j in range(dims[site - 1]):
            col = [m.rows[i][j] for i in range(m.shape[0])]
            assert tuple(col) == contract_site(j, site, v).amps


def test_matricize_gram_identity(phi_rowform):
    m = matricize(phi_rowform, 1)
    assert (m.dagger() * m).is_identity()


def test_matricize_single_ket():
    m = matricize(catalog.ket("00", 2, 24), 1)
    nonzero = [(i, j) for i in range(2) for j in range(2)
               if not m.rows[i][j].is_zero()]
    assert nonzero == [(0, 0)]


def test_partial_trace_of_perfect_tensor(phi_unit, phi_rowform):
    rho = partial_trace(phi_unit, {3, 4})
    c = rho.proportional_to_identity()
    assert c is not None and c.as_fraction() == Fraction(1, 9)
    # unnormalized variant reduces to the sum of code projectors
    rho234 = partial_trace(phi_rowform, {2, 3, 4})
    acc = None
    for s in catalog.code_basis():
        m = DensityOperator.from_state(s).mat
        acc = m if acc is None else acc + m
    assert rho234.mat == acc


def test_partial_trace_product_state():
    rho = partial_trace(catalog.ket("000", 3, N), {1})
    assert rho.proportional_to_identity() is None
    assert rho.trace() == 1


def _random_monomial_state(dims, rng, n=N):
    # q * zeta^k amplitudes keep the squared norm rational
    from math import prod
    amps = [root_of_unity(rng.randrange(n), n) * rng.randint(-3, 3)
            for _ in range(prod(dims))]
    return PureState(n, dims, amps)


def test_partial_trace_preserves_trace_and_hermiticity(phi_unit):
    rng = random.Random(2)
    v = _random_monomial_state((3, 3, 3), rng)
    if v.is_zero():
        v = catalog.ket("000", 3, N)
    rho = DensityOperator.from_state(v, normalize=True)
    assert rho.trace() == 1
    for keep in ({1}, {2}, {1, 3}):
        red = partial_trace(rho, keep)
        assert red.trace() == 1
        assert red.mat.is_hermitian()
    # density-path and state-path agree
    assert partial_trace(rho, {2, 3}) == partial_trace(v, {2, 3}).scale(
        Fraction(1, 1) / v.norm_sq())


def test_density_constructor_rejects_non_hermitian():
    bad = Matrix(N, [[0, 1], [0, 0]])
    with pytest.raises(ValueError):
        DensityOperator((2,), bad)


def test_canonical_form_idempotent_and_equality():
    w = root_of_unity(4, N)
    x = catalog.pauli_x(3, N)
    # the same operator assembled with phases distributed differently
    a = LocalOperator(N, w, [x, x.scale(w)])
    b = LocalOperator(N, w * w, [x.scale(w), x])
    assert a != b or a == b  # comparable
    c = LocalOperator(N, 1, [x.scale(w), x.scale(w * w)])
    d = LocalOperator(N, 1, [x.scale(w * w), x.scale(w)])
    assert c == d  # both canonicalize to scalar w^3=1 times X(x)X
    re_canon = LocalOperator(c.n, c.scalar, c.factors)
    assert re_canon == c


def test_operator_inverse_and_unitarity():
    q1, q2, q3 = catalog.coset_representatives()
    for q in (q1, q2, q3):
        assert q.is_unitary()
        assert q * q.inv() == LocalOperator.identity((3, 3, 3), N)
    assert not LocalOperator(N, 1, [Matrix(N, [[2, 0], [0, 1]])]).is_unitary()


def test_operator_weight():
    x = catalog.pauli_x(3, N)
    i3 = Matrix.identity(3, N)
    assert LocalOperator(N, 1, [i3, x, i3]).weight() == 1
    assert LocalOperator(N, 1, [x, x, x]).weight() == 3
    assert LocalOperator.identity((3, 3), N).weight() == 0


def test_to_dense_matches_apply():
    rng = random.Random(3)
    exps = [(1, 2), (0, 1)]
    g = catalog.pauli_product(3, N, exps)
    dense = g.to_dense()
    v = catalog.ket("12", 3, N) + catalog.ket("01", 3, N).scale(2)
    direct = apply(g, v)
    via_dense = dense.mat_vec(v.amps)
    assert tuple(via_dense) == direct.amps


def test_orthonormalize():
    # squared norms are 2 and 2, so sqrt(2) must exist: conductor 24
    v1 = catalog.ket("00", 2, 24) + catalog.ket("11", 2, 24)
    v2 = catalog.ket("00", 2, 24) - catalog.ket("11", 2, 24)
    v3 = catalog.ket("01", 2, 24).scale(5)
    basis = orthonormalize([v1, v2])
    assert inner(basis[0], basis[0]) == 1
    assert inner(basis[0], basis[1]).is_zero()
    with pytest.raises(ValueError):
        orthonormalize([v1, v1])
    assert len(orthonormalize([v1, v1], drop_dependent=True)) == 1
    assert len(orthonormalize([v1, v2, v3], drop_dependent=False)) == 3
    from amecode.cyclo import SqrtUnavailable
    with pytest.raises(SqrtUnavailable):
        orthonormalize([catalog.ket("00", 3, 12) + catalog.ket("11", 3, 12)])


def test_state_serialization_roundtrip(phi_unit):
    d = phi_unit.to_dict()
    from amecode.serialize import from_dict
    assert from_dict(d) == phi_unit


# -- the packed kernel against the reference loop ----------------------------


@pytest.mark.parametrize("normalized", [True, False])
def test_kernel_matches_reference_on_symmetries(local_sym, normalized):
    phi = catalog.ame_state(normalized=normalized)
    # amplitudes 1/3 (normalized) or 1/sqrt(3) = (2z - z^3)/3 (row form)
    assert phi.norm_sq() == (1 if normalized else 3)
    sample = local_sym.sample(40, seed=13)
    for g in sample:
        assert apply(g, phi) == reference_apply(g, phi)
    assert fixed_by(sample, phi) == [reference_apply(g, phi) == phi for g in sample]


def test_kernel_matches_reference_generic_operators():
    rng = random.Random(4)
    v = PureState(N, (2, 3, 2), [_random_cyc(rng, N) for _ in range(12)])
    for _ in range(10):
        g = _random_operator(rng, N, v.dims)
        assert apply(g, v) == reference_apply(g, v)
    ops = [_random_operator(rng, N, v.dims) for _ in range(5)]
    ops.append(LocalOperator.identity(v.dims, N))
    assert fixed_by(ops, v) == [False] * 5 + [True]


def test_kernel_conductor_24_qubit_code():
    code = catalog.code_442()
    assert code.conductor == 24 and len(Cyclotomic.one(24).coeffs) == 8
    rng = random.Random(6)
    ops = [e.op for e in pauli_error_basis(4, 2, 2, conductor=24)]
    ops += [_random_operator(rng, 24, (2,) * 4) for _ in range(4)]
    for g in ops:
        for u in code.basis:
            assert apply(g, u) == reference_apply(g, u)


def test_kernel_conductor_36_special_unitary_factors():
    basis = [u.embed(36) for u in catalog.code_basis()]
    for trip in catalog.coset_representative_su_factors(36):
        g = LocalOperator(36, 1, list(trip))
        for u in basis:
            assert apply(g, u) == reference_apply(g, u)


def test_kernel_large_numerators_stay_exact():
    # numerators near 2**61: the first contraction's bound passes 2**62, so
    # the kernel must switch to Python ints instead of wrapping around
    rng = random.Random(8)
    big = 1 << 61
    amps = [Cyclotomic(N, [big - rng.randrange(1000) for _ in range(4)], 1)
            for _ in range(9)]
    v = PureState(N, (3, 3), amps)
    f = Matrix(N, [[1, 1, 1], [1, root_of_unity(4, N), root_of_unity(8, N)],
                   [1, root_of_unity(8, N), root_of_unity(4, N)]])
    g = LocalOperator(N, 3, [f, f])
    image = apply(g, v)
    assert image == reference_apply(g, v)
    assert max(abs(c) for a in image.amps for c in a.coeffs) > 1 << 63
    assert fixed_by([g], v) == [False]


def test_kernel_rejects_mismatched_operands():
    v = catalog.ket("01", 3, N)
    with pytest.raises(DimensionMismatch):
        apply(LocalOperator.identity((3, 3, 3), N), v)
    with pytest.raises(ConductorMismatch):
        apply(LocalOperator.identity((3, 3), 24), v)


def test_packed_table_matches_inner_for_every_error(code332):
    packed = PackedBasis(code332.basis)
    errors = pauli_error_basis(3, 3, 3)
    assert len(errors) == 729
    for e in errors:
        images = [reference_apply(e.op, u) for u in code332.basis]
        table = [[inner(ui, w) for w in images] for ui in code332.basis]
        assert packed.matrix_elements(e.op) == table


def test_packed_basis_generic_states():
    # complex amplitudes and mixed denominators, so the conjugation of the
    # bras and the common denominator both matter
    rng = random.Random(9)
    dims = (3, 2)
    states = [PureState(N, dims, [_random_cyc(rng, N) for _ in range(6)])
              for _ in range(3)]
    packed = PackedBasis(states)
    for _ in range(5):
        g = _random_operator(rng, N, dims)
        images = [reference_apply(g, u) for u in states]
        table, norms = packed.restriction(g)
        assert table == [[inner(u, w) for w in images] for u in states]
        assert packed.matrix_elements(g) == table
        assert norms == [inner(w, w) for w in images]
