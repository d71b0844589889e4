import itertools
import random
from fractions import Fraction
from math import gcd, lcm, prod

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from amecode import catalog, tensor
from amecode.cyclo import ConductorMismatch, Cyclotomic, root_of_unity
from amecode.linalg import Matrix
from amecode.qecc import UniformReport, pauli_error_basis, r_uniform_check
from amecode.correspondence import roundtrip
from amecode.serialize import _rational, dumps, from_dict, ingest, shipped_path, to_dict
from amecode.tensor import (DensityOperator, DimensionMismatch, LocalOperator,
                            PureState, _local_elements, _reduction, _restriction, apply,
                            contract_site, fixed_by, gram, inner, orthonormal_defect,
                            orthonormalize, partial_trace)

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


def reference_inner(a, b):
    """<a|b> term by term in field arithmetic: the reference for the Gram
    kernel, which inner runs on too."""
    acc = Cyclotomic.zero(a.n)
    for x, y in zip(a.amps, b.amps):
        if not (x.is_zero() or y.is_zero()):
            acc = acc + x.conj() * y
    return acc


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


def test_partial_trace_of_perfect_tensor(phi_unit, phi_rowform):
    rho = partial_trace(phi_unit, {3, 4})
    assert rho.mat == Matrix.identity(9, N).scale(Fraction(1, 9))
    # unnormalized variant reduces to the sum of code projectors |s><s|
    rho234 = partial_trace(phi_rowform, {2, 3, 4})
    acc = None
    for s in catalog.code_basis():
        m = Matrix(N, [[a * b.conj() for b in s.amps] for a in s.amps])
        acc = m if acc is None else acc + m
    assert rho234.mat == acc


def test_partial_trace_product_state():
    rho = partial_trace(catalog.ket("000", 3, N), {1})
    assert rho.mat == Matrix(N, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
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
    for keep in ({1}, {2}, {1, 3}, {1, 2, 3}):
        red = partial_trace(v, keep).scale(Fraction(1, 1) / v.norm_sq())
        assert red.trace() == 1
        assert red.mat.is_hermitian()
    # only a pure state is reduced
    with pytest.raises(TypeError):
        partial_trace(partial_trace(v, {1, 2}), {1})


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
    assert from_dict(to_dict(phi_unit)) == phi_unit


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


# -- fixation: one arithmetic per call, at the edges of its tiers ------------


def _fixation_bound(ops, v) -> int:
    """The bound from which fixed_by picks its arithmetic: the larger of
    the images' bound and x times the images' extra denominators."""
    top, images, scales = tensor._bounds(tensor._sites(ops), tensor._pack(v)[0])
    return max(images, top * scales)


def _scaled_to_bound(ops, v, target: int, above: bool) -> PureState:
    """v times the least integer c prime to v's denominator for which
    _fixation_bound reaches target (above), or the greatest for which it
    stays below; the bound is linear in c."""
    x, den = tensor._pack(v)
    top1 = tensor._max_abs(x)
    per = _fixation_bound(ops, v) // top1
    c = -(-target // (per * top1)) if above else (target - 1) // (per * top1)
    while gcd(c, den) != 1:
        c += 1 if above else -1
    w = v.scale(c)
    assert (_fixation_bound(ops, w) >= target) == above
    assert target // 2 < _fixation_bound(ops, w) < 2 * target
    return w


def _check_fixation(ops, v, expected):
    assert fixed_by(ops, v) == [apply(g, v) == v for g in ops] == expected


def _moved_symmetries(local_sym, count: int):
    """count symmetries of phi, every third times w (which no longer fixes
    phi) and every fifth with an X on its last site (neither)."""
    w = root_of_unity(4, N)
    shift = Matrix(N, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    ops, expected = [], []
    for k, g in enumerate(local_sym.elements_at(range(0, 1944, 1944 // count or 1))[:count]):
        if k % 3 == 1:
            g = LocalOperator(N, g.scalar * w, g.factors)
        if k % 5 == 2:
            g = LocalOperator(N, g.scalar, [*g.factors[:3], g.factors[3] * shift])
        ops.append(g)
        expected.append(k % 3 != 1 and k % 5 != 2)
    return ops, expected


@pytest.mark.parametrize("target, above, tier", [
    (1 << 53, False, np.float64), (1 << 53, True, np.int64), (1 << 62, True, object),
], ids=["below-2^53", "above-2^53", "above-2^62"])
def test_fixation_at_the_tier_edges(local_sym, phi_rowform, target, above, tier):
    ops, expected = _moved_symmetries(local_sym, 24)
    v = _scaled_to_bound(ops, phi_rowform, target, above)
    assert tensor._tier(_fixation_bound(ops, v)) is tier
    _check_fixation(ops, v, expected)
    if tier is not object:  # the whole group, in float64 or int64
        fixes = local_sym.fixes(v)
        assert all(fixes) and fixes == local_sym.fixes(phi_rowform)


def test_fixation_scalar_within_rounding_of_one(local_sym, phi_rowform):
    # (K+1)/K times a symmetry moves phi by 1/K of itself: in float64 the
    # two sides of the comparison would round to one value
    k = (1 << 55) + 1
    g = local_sym.elements_at([7])[0]
    ops = [g, LocalOperator(N, g.scalar * Fraction(k + 1, k), g.factors)]
    assert _fixation_bound(ops, phi_rowform) >= 1 << 53
    _check_fixation(ops, phi_rowform, [True, False])


def test_fixation_bounds_the_denominators_too(local_sym, phi_rowform):
    # a scalar 1 / 3**40 leaves the images' bound in int64, but its
    # denominator, which the comparison multiplies in, does not fit
    ops, expected = _moved_symmetries(local_sym, 12)
    v = _scaled_to_bound(ops, phi_rowform, 1 << 53, True)
    tiny = LocalOperator(N, Fraction(1, 3 ** 40), [Matrix.identity(3, N)] * 4)
    top, images, scales = tensor._bounds(tensor._sites(ops + [tiny]), tensor._pack(v)[0])
    assert tensor._tier(images) is np.int64 and tensor._tier(top * scales) is object
    _check_fixation(ops + [tiny], v, expected + [False])


@pytest.mark.parametrize("budget", ["default", "small"])
def test_fixation_counts_around_one_chunk(monkeypatch, local_sym, phi_rowform, budget):
    if budget == "small":  # chunks of 5 operators and blocks of 40 first-site actions
        monkeypatch.setattr(tensor, "_CHUNK_ENTRIES", 8 * 5 * 324)
    x = tensor._pack(phi_rowform)[0]
    step = tensor._CHUNK_ENTRIES // (8 * x.size)
    ops, expected = _moved_symmetries(local_sym, 300)
    for count in (0, step - 1, step, step + 1, 300):
        _check_fixation(ops[:count], phi_rowform, expected[:count])
    fixes = local_sym.fixes(catalog.ket("0000", 3, N))
    monkeypatch.undo()
    assert fixes == local_sym.fixes(catalog.ket("0000", 3, N))


def test_fixation_with_identity_sites():
    ident, w = Matrix.identity(3, N), root_of_unity(4, N)
    z = Matrix(N, [[1, 0, 0], [0, w, 0], [0, 0, w * w]])
    x = Matrix(N, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    v = catalog.ket("0000", 3, N)
    # sites 1 and 3 are the identity for every operator, and all sites for
    # the last list
    ops = [LocalOperator(N, 1, [ident, z, ident, z]), LocalOperator(N, 1, [ident, x, ident, z]),
           LocalOperator(N, w, [ident, z, ident, ident]), LocalOperator(N, 1, [ident, z, ident, ident])]
    assert [s is None for s in tensor._sites(ops)] == [True, False, True, False, False]
    _check_fixation(ops, v, [True, False, False, True])
    identities = [LocalOperator.identity(v.dims, N)] * 3
    assert all(s is None for s in tensor._sites(identities))
    _check_fixation(identities, v, [True] * 3)
    _check_fixation(identities, v.scale(0), [True] * 3)


def test_fixation_mixed_dims():
    i = root_of_unity(3, N)
    w = root_of_unity(4, N)
    z2 = Matrix(N, [[1, 0], [0, -1]])
    x2 = Matrix(N, [[0, 1], [1, 0]])
    d3 = Matrix(N, [[1, 0, 0], [0, -1, 0], [0, 0, w]])
    swap01 = Matrix(N, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    ident2, ident3 = Matrix.identity(2, N), Matrix.identity(3, N)
    # v = |0, 0> + i |1, 1> + 5 |1, 2>
    amps = [Cyclotomic.zero(N)] * 6
    amps[0], amps[4], amps[5] = Cyclotomic.one(N), i, Cyclotomic.from_rational(N, 5)
    v = PureState(N, (2, 3), amps)
    ops = [LocalOperator(N, 1, [z2, d3]), LocalOperator(N, 1, [z2, ident3]),
           LocalOperator(N, 1, [x2, swap01]), LocalOperator(N, 1, [ident2, ident3]),
           LocalOperator(N, -1, [z2, d3])]
    # z2 (x) d3 sends |1, 2> to -w |1, 2>: only the identity fixes v
    _check_fixation(ops, v, [False, False, False, True, False])
    u = PureState(N, (2, 3), [1, 0, 0, 0, i, 0])
    _check_fixation(ops, u, [True, False, False, True, False])
    _check_fixation(ops[2:3], PureState(N, (2, 3), [1, 0, 0, 0, 1, 0]), [True])


def test_fixation_conductor_24():
    n = 24
    z8, z24 = root_of_unity(3, n), root_of_unity(1, n)
    t = Matrix(n, [[1, 0], [0, z8]])
    t_inv = Matrix(n, [[1, 0], [0, z8.inv()]])
    x = Matrix(n, [[0, 1], [1, 0]])
    ident = Matrix.identity(2, n)
    v = PureState(n, (2, 2), [Cyclotomic.one(n), 0, 0, z24 * Fraction(2, 7)])
    ops = [LocalOperator(n, 1, [t, t_inv]), LocalOperator(n, 1, [t, ident]),
           LocalOperator(n, 1, [x, x]), LocalOperator(n, z24, [ident, ident]),
           LocalOperator(n, 1, [t_inv, t])]
    _check_fixation(ops, v, [True, False, False, False, True])
    _check_fixation(ops, v.scale(z24 * 3 ** 30), [True, False, False, False, True])


def _subset_table(states, op):
    """[<u_i| op |u_j>] from the reduction of the states onto op's support
    and one contraction with the packed op, as kl_check forms it."""
    support = tuple(p for p, f in enumerate(op.factors) if not f.is_identity())
    _, g, rden = _reduction(states, support)
    vals, dens = _local_elements([op], support, g, len(states))
    return [[Cyclotomic(op.n, c, dens[0] * rden) for c in row] for row in vals[0].tolist()]


def test_packed_table_matches_inner_for_every_error(code332):
    errors = pauli_error_basis(3, 3, 3)
    assert len(errors) == 729
    for e in errors:
        images = [reference_apply(e.op, u) for u in code332.basis]
        table = [[reference_inner(ui, w) for w in images] for ui in code332.basis]
        assert _restriction(e.op, code332.basis) == (table,
                                                     [reference_inner(w, w) for w in images])
        assert _subset_table(code332.basis, e.op) == table


def test_packed_basis_generic_states():
    # complex amplitudes and mixed denominators, so the conjugation of the
    # bras and the common denominator both matter
    rng = random.Random(9)
    dims = (3, 2)
    states = [PureState(N, dims, [_random_cyc(rng, N) for _ in range(6)])
              for _ in range(3)]
    for _ in range(5):
        g = _random_operator(rng, N, dims)
        images = [reference_apply(g, u) for u in states]
        table, norms = _restriction(g, states)
        assert table == [[reference_inner(u, w) for w in images] for u in states]
        assert _subset_table(states, g) == table
        assert norms == [reference_inner(w, w) for w in images]
    # an identity factor leaves its site out of the support and the reduction
    for pos in range(len(dims)):
        g = _random_operator(rng, N, dims)
        factors = list(g.factors)
        factors[pos] = Matrix.identity(dims[pos], N)
        g = LocalOperator(N, g.scalar, factors)
        images = [reference_apply(g, u) for u in states]
        assert _subset_table(states, g) == [[reference_inner(u, w) for w in images]
                                            for u in states]


# -- partial traces and Gram tables against term-by-term field arithmetic ----


def reference_partial_trace(v, keep):
    """The per-amplitude loop the packed Gram kernel replaced: rearrange the
    amplitudes to M[keep, traced], then rho[i][j] = sum_t M[i][t] conj(M[j][t])
    one field multiply-add at a time."""
    keep_pos = sorted(s - 1 for s in keep)
    trace_pos = [p for p in range(v.sites) if p not in keep_pos]
    kdims = [v.dims[p] for p in keep_pos]
    tdims = [v.dims[p] for p in trace_pos]
    kn, tn = prod(kdims), prod(tdims)

    def flat(multi, dims):
        idx = 0
        for m, d in zip(multi, dims):
            idx = idx * d + m
        return idx

    m = [[None] * tn for _ in range(kn)]
    for multi in itertools.product(*(range(d) for d in v.dims)):
        a = v.amps[flat(multi, v.dims)]
        m[flat([multi[p] for p in keep_pos], kdims)][flat([multi[p] for p in trace_pos],
                                                          tdims)] = a
    zero = Cyclotomic.zero(v.n)
    rows = []
    for i in range(kn):
        row = []
        for j in range(kn):
            acc = zero
            for t in range(tn):
                x, y = m[i][t], m[j][t]
                if not (x.is_zero() or y.is_zero()):
                    acc = acc + x * y.conj()
            row.append(acc)
        rows.append(row)
    return DensityOperator(kdims, Matrix(v.n, rows))


def reference_r_uniform(v, r):
    """The UniformReport of the field-arithmetic r-uniformity check: every
    reduction normalized, compared with I/dim and measured in floats."""
    ns = v.norm_sq()
    uniform, worst_subset, worst = True, None, 0.0
    for keep in itertools.combinations(range(1, v.sites + 1), r):
        rho = reference_partial_trace(v, keep).scale(Fraction(1, 1) / ns)
        dim = prod(v.dims[s - 1] for s in keep)
        target = Matrix.identity(dim, v.n).scale(Fraction(1, dim))
        if rho.mat != target:
            uniform = False
        dev = max(abs(x - y) for rw, tw in zip(rho.mat.to_complex(), target.to_complex())
                  for x, y in zip(rw, tw))
        if dev >= worst:
            worst = dev
            worst_subset = keep if dev > 0 or worst_subset is None else worst_subset
    return UniformReport(uniform, worst_subset, worst)


def _all_keep_sets(sites):
    return [set(c) for r in range(1, sites + 1)
            for c in itertools.combinations(range(1, sites + 1), r)]


def test_partial_trace_matches_reference_on_dense_image(phi_unit):
    # I (x) (q1 * circulant * zzz), a normalizer word through the circulant
    # coset representative: each slice <i|_1 becomes a generic code state,
    # so the image has 27 nonzero amplitudes with irrational entries to
    # phi's 9 rational ones
    q1, circulant, _ = catalog.coset_representatives(N)
    word = q1 * circulant * catalog.zzz(3, 3, N)
    a = LocalOperator(N, word.scalar, [Matrix.identity(3, N), *word.factors])
    image = apply(a, phi_unit)
    assert sum(not x.is_zero() for x in image.amps) == 27
    assert not all(x.is_rational() for x in image.amps)
    for keep in _all_keep_sets(4):
        assert partial_trace(image, keep) == reference_partial_trace(image, keep)


def test_partial_trace_matches_reference_mixed_dims():
    rng = random.Random(11)
    v = PureState(N, (2, 3, 2), [_random_cyc(rng, N) for _ in range(12)])
    for keep in _all_keep_sets(3):
        assert partial_trace(v, keep) == reference_partial_trace(v, keep)


def test_partial_trace_large_numerators_stay_exact():
    # numerators near 2**61 overflow int64 in the Gram contraction
    rng = random.Random(12)
    big = 1 << 61
    v = PureState(N, (3, 3), [Cyclotomic(N, [big - rng.randrange(1000) for _ in range(4)], 7)
                              for _ in range(9)])
    for keep in ({1}, {2}, {1, 2}):
        assert partial_trace(v, keep) == reference_partial_trace(v, keep)
    assert gram([v, v.conj()]) == [[reference_inner(a, b) for b in (v, v.conj())]
                                   for a in (v, v.conj())]


def test_gram_matches_inner():
    rng = random.Random(13)
    states = [PureState(N, (3, 2), [_random_cyc(rng, N) for _ in range(6)]) for _ in range(4)]
    table = gram(states)
    assert table == [[reference_inner(a, b) for b in states] for a in states]
    assert table == [[inner(a, b) for b in states] for a in states]
    with pytest.raises(DimensionMismatch):
        gram([states[0], catalog.ket("01", 3, N)])


def _bell_pairs(pairs):
    """The product of qutrit Bell pairs (unnormalized) on the given site pairs."""
    amps = []
    for multi in itertools.product(range(3), repeat=4):
        amps.append(int(all(multi[a - 1] == multi[b - 1] for a, b in pairs)))
    return PureState(N, (3,) * 4, amps)


@pytest.mark.parametrize("state", ["bell-12-34", "bell-14-23", "ket-0000", "monomial",
                                   "monomial-mixed-dims"])
def test_r_uniform_report_matches_reference(state, phi_unit):
    # the mixed dims keep subsets of unequal dimensions, reduced apart
    v = {"bell-12-34": lambda: _bell_pairs([(1, 2), (3, 4)]),
         "bell-14-23": lambda: _bell_pairs([(1, 4), (2, 3)]),
         "ket-0000": lambda: catalog.ket("0000", 3, N),
         "monomial": lambda: _random_monomial_state((3, 3, 3, 3), random.Random(14)),
         "monomial-mixed-dims": lambda: _random_monomial_state((2, 3, 2, 3),
                                                               random.Random(15))}[state]()
    for r in (1, 2):
        rep = r_uniform_check(v, r)
        assert rep == reference_r_uniform(v, r)
    assert not r_uniform_check(v, 2).uniform
    assert r_uniform_check(phi_unit, 2) == reference_r_uniform(phi_unit, 2)


# -- states built from packed numerators ------------------------------------

@st.composite
def _state_pairs(draw, n=None, dims=None):
    """(packed, reference): one state built from numerators over a common
    denominator that is not the least (times a drawn factor, some rows
    zero), and from its Cyclotomic amplitudes."""
    n = n or draw(st.sampled_from([12, 24]))
    deg = len(Cyclotomic.one(n).coeffs)
    dims = dims or draw(st.sampled_from([(3, 3), (2, 3, 2), (3,)]))
    rows = draw(st.lists(st.tuples(st.tuples(*[st.integers(-6, 6)] * deg),
                                   st.integers(1, 12), st.booleans()),
                         min_size=prod(dims), max_size=prod(dims)))
    amps = [Cyclotomic(n, coeffs, den) if keep else Cyclotomic.zero(n)
            for coeffs, den, keep in rows]
    den = lcm(*(a.den for a in amps)) * draw(st.integers(1, 30))
    x = np.array([[c * (den // a.den) for c in a.coeffs] for a in amps],
                 dtype=draw(st.sampled_from([np.int64, object])))
    return PureState._from_packed(n, dims, x, den), PureState(n, dims, amps)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_state_pairs(), st.data(), st.integers(-5, 5), st.integers(1, 7))
def test_packed_states_agree_with_amplitude_states(pair, data, k, m):
    p, v = pair
    assert p == v and v == p and hash(p) == hash(v)
    assert p.amps == v.amps
    assert [(z.real.hex(), z.imag.hex()) for z in p.to_complex()] == \
        [(z.real.hex(), z.imag.hex()) for z in v.to_complex()]
    assert dumps(p) == dumps(v)
    assert p.is_zero() == all(a.is_zero() for a in v.amps)
    c = Cyclotomic(p.n, [k] + [m] * (len(v.amps[0].coeffs) - 1), m)
    assert p.scale(c).amps == tuple(c * a for a in v.amps)
    assert (-p).amps == tuple(-a for a in v.amps)
    for site in range(1, v.sites + 1):
        step = prod(v.dims[site:])
        for i in range(v.dims[site - 1]):
            want = [a for j, a in enumerate(v.amps) if j // step % v.dims[site - 1] == i]
            assert contract_site(i, site, p).amps == tuple(want)
    assert inner(p, p) == reference_inner(v, v)
    q, w = data.draw(_state_pairs(p.n, p.dims))
    assert (p + q).amps == tuple(a + b for a, b in zip(v.amps, w.amps))
    assert (p - q).amps == tuple(a - b for a, b in zip(v.amps, w.amps))
    assert (p == q) == (v.amps == w.amps)
    assert (p - p).is_zero() and p - p == PureState(p.n, p.dims, [0] * len(v.amps))
    assert inner(p, q) == reference_inner(v, w) and inner(q, p) == reference_inner(w, v)


def _reference_defect(states):
    """The first pair, in row-major order, of the field-element table of
    <u_i|u_j> that is not delta_ij."""
    return next(((i, j) for i, u in enumerate(states) for j, w in enumerate(states)
                 if reference_inner(u, w) != (1 if i == j else 0)), None)


@st.composite
def _near_orthonormal_sets(draw):
    """(packed, reference) pairs of up to five states on (3, 3): computational
    kets times roots of unity, which are orthonormal, then up to two drawn
    defects (a multiple of one state added to another or to itself, by a
    root of unity or a drawn field element), and
    sometimes a random state from _state_pairs in a drawn place."""
    n = draw(st.sampled_from([12, 24]))
    deg = len(Cyclotomic.one(n).coeffs)
    k = draw(st.integers(1, 4))
    kets = draw(st.lists(st.integers(0, 8), min_size=k, max_size=k, unique=True))
    states = [PureState(n, (3, 3), [root_of_unity(draw(st.integers(0, n - 1)), n) if t == i
                                    else 0 for t in range(9)]) for i in kets]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        # a root of unity often has constant coefficient 0, so only the
        # other coefficients of the overlap it makes tell it from 0
        c = draw(st.builds(root_of_unity, st.integers(1, n - 1), st.just(n))
                 | st.builds(Cyclotomic, st.just(n),
                             st.lists(st.integers(-3, 3), min_size=deg, max_size=deg),
                             st.integers(1, 4)))
        states[i] = states[i] + states[j].scale(c)
    pairs = [(v, v) for v in states]
    if draw(st.booleans()):
        pairs.insert(draw(st.integers(0, k)), draw(_state_pairs(n, (3, 3))))
    return pairs


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_near_orthonormal_sets())
def test_orthonormal_defect_matches_field_reference(pairs):
    want = _reference_defect([v for _, v in pairs])
    assert orthonormal_defect([p for p, _ in pairs]) == want
    assert orthonormal_defect(v for _, v in pairs) == want


def test_orthonormal_defect_with_denominators_past_int64():
    # (m^2 - k^2, 2mk) / (m^2 + k^2) is a unit vector, and den**2 has about
    # 160 bits, so the diagonal is compared as Python ints
    m, k = 2 ** 40 + 15, 2 ** 39 + 7
    den = m * m + k * k
    a, b = Fraction(m * m - k * k, den), Fraction(2 * m * k, den)
    u = PureState(N, (3,), [a, b, 0])
    w = PureState(N, (3,), [-b, a, 0])
    z = catalog.ket("2", 3, N)
    assert orthonormal_defect([u, w, z]) is None
    zeta = root_of_unity(1, N)
    for states in ([u, w, u], [u, w.scale(Fraction(den + 1, den)), z], [u + z, w, z],
                   [u, w + u.scale(zeta), z]):
        assert orthonormal_defect(states) == _reference_defect(states) is not None


def test_ingest_and_roundtrip_pay_per_distinct_value(monkeypatch):
    # phi.state has 81 amplitudes of 2 distinct values, written with 2
    # distinct coefficient strings
    path = shipped_path("phi.state")
    _rational.cache_clear()
    built = []
    init = Cyclotomic.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Cyclotomic, "__init__", counting_init)
    phi = ingest(path)
    info = _rational.cache_info()
    assert (info.misses, info.hits + info.misses) == (2, 8)  # the 2 distinct amplitudes
    assert len(built) == 2
    roundtrip(phi)  # fills the process-wide caches the round trip reads
    built.clear()
    assert roundtrip(ingest(path)).roundtrip_exact
    assert 2 < len(built) < len(phi.amps)
