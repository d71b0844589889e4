import math

import numpy as np
import pytest

from amecode import catalog, suites
from amecode.kempfness import (CriticalityReport, EquivalenceReport, FloatState,
                               FlowReport, GradientReport, InequalityReport,
                               apply_sitewise, criticality_equivalence,
                               critical_state_pool, gell_mann_basis,
                               gradient_check, is_critical,
                               kempf_ness_inequality_test, log_norm_gradient,
                               norm_minimization_flow, norm_minimization_flows,
                               random_group_element, random_group_elements,
                               site_reductions)
from amecode.kempfness import (_expm, _expm_hermitian, _gell_mann_cached,
                               _lie_residuals, _random_exponents, _random_unitaries,
                               _reductions, _row_norms_sq, _spectral_norms)


# -- the per-sample loops the batched code replaced, kept as the reference ----


def _reference_expm(m):
    """The 19-term Taylor series with scaling and squaring that the sampler
    used before its degree-15 polynomial, kept as an accuracy reference."""
    norm = np.linalg.norm(m, 2)
    s = max(0, int(np.ceil(np.log2(norm / 0.5))) if norm > 0.5 else 0)
    a = m / (2 ** s)
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, 20):
        term = term @ a / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def _reference_taylor15(m, norm):
    """exp of one matrix of known spectral norm by the sampler's recipe:
    scale to norm <= 1/2, the degree-15 Taylor polynomial by
    Paterson-Stockmeyer, then square."""
    s = int(np.ceil(np.log2(max(norm / 0.5, 1.0))))
    a = m / 2.0 ** s
    a2 = a @ a
    a3 = a2 @ a
    a4 = a2 @ a2
    out = None
    for j in (3, 2, 1, 0):
        c = [1.0 / math.factorial(4 * j + i) for i in range(4)]
        block = c[0] * np.eye(len(m)) + c[1] * a + c[2] * a2 + c[3] * a3
        out = block if out is None else out @ a4 + block
    for _ in range(s):
        out = out @ out
    return out


def _reference_norm_sq(vec):
    """<v|v> of one flat vector: re^2 + im^2 summed by one reduction."""
    return float((vec.real ** 2 + vec.imag ** 2).sum())


def _reference_spectral_norm(m):
    """The spectral norm of one matrix: the root of the largest eigenvalue
    of m^dag m."""
    return math.sqrt(np.linalg.eigvalsh(m.conj().T @ m)[-1])


def _reference_renorm_det(m):
    """m over a d-th root of its determinant, taken as an array power."""
    d = m.shape[0]
    return m / (np.array([np.linalg.det(m)]) ** (1.0 / d))[0]


def _reference_group_elements(dims, rng, count, scale=1.0):
    """`count` draws from the sampler's bulk normals and uniforms, one
    matrix at a time: entry i is the list of site matrices of draw i."""
    draws = [[None] * len(dims) for _ in range(count)]
    for d in sorted(set(dims)):
        sites = [k for k, e in enumerate(dims) if e == d]
        z = rng.standard_normal((len(sites) * count, 2, d, d))
        u = rng.uniform(0.0, 1.0, len(sites) * count)
        for j, k in enumerate(sites):
            for i in range(count):
                r = j * count + i
                m = z[r, 0] + 1j * z[r, 1]
                m -= np.trace(m) / d * np.eye(d)
                norm = u[r] * scale
                m *= norm / _reference_spectral_norm(m)
                draws[i][k] = _reference_renorm_det(_reference_taylor15(m, norm))
    return draws


def _reference_apply(mats, state):
    t = state.tensor()
    for k, m in enumerate(mats):
        t = np.moveaxis(np.tensordot(m, t, axes=([1], [k])), 0, k)
    return FloatState(state.dims, t.reshape(-1))


def _reference_inequality(state, samples, seed, slack=1e-9):
    rng = np.random.default_rng(seed)
    base = _reference_norm_sq(state.vec)
    min_ratio = np.inf
    witness = None
    for g in _reference_group_elements(state.dims, rng, samples):
        ratio = _reference_norm_sq(_reference_apply(g, state).vec) / base
        if ratio < min_ratio:
            min_ratio = ratio
        if ratio < 1 - slack and witness is None:
            witness = ratio
    return InequalityReport(samples, float(min_ratio), witness is None, witness)


def _reference_gradient_check(seed, pairs, h=1e-5, dims=(3, 3, 3)):
    """The gradient check one pair and one direction at a time, from the
    bulk draws: every state first, then every group element."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((pairs, 2, math.prod(dims)))
    draws = _reference_group_elements(dims, rng, pairs, scale=0.5)
    max_rel = 0.0
    max_anti = 0.0
    for p, g in enumerate(draws):
        v = FloatState(dims, z[p, 0] + 1j * z[p, 1])
        psi = _reference_apply(g, v)
        f0 = np.log(_reference_norm_sq(psi.vec))
        for k, (d, rho) in enumerate(zip(dims, _reference_site_reductions(psi))):
            basis = _gell_mann_cached(d)
            analytic = np.array([2.0 * _reference_expectation(rho, lam).real for lam in basis])
            fd = np.zeros(len(basis))
            for a, lam in enumerate(basis):
                moved = []
                for step in (_expm_hermitian(lam, h), _expm_hermitian(lam, -h),
                             _reference_expm(1j * lam * h)):
                    mats = [m.copy() for m in g]
                    mats[k] = step @ g[k]
                    moved.append(np.log(_reference_norm_sq(_reference_apply(mats, v).vec)))
                fp, fm, fa = moved
                fd[a] = (fp - fm) / (2 * h)
                max_anti = max(max_anti, abs(fa - f0) / h)
            rel = (np.linalg.norm(analytic - fd, axis=-1)
                   / np.linalg.norm(analytic, axis=-1))
            max_rel = max(max_rel, float(rel))
    return GradientReport(pairs, max_rel, float(max_anti))


def _reference_site_reductions(state):
    t = state.tensor()
    ns = _reference_norm_sq(state.vec)
    sites = len(state.dims)
    out = []
    for k in range(sites):
        axes = [i for i in range(sites) if i != k]
        out.append(np.tensordot(t, t.conj(), axes=(axes, axes)) / ns)
    return out


def _reference_expectation(rho, lam):
    """tr(rho lam) of one matrix pair: the sum of rho_ij lam_ji in i, j order."""
    d = len(rho)
    return sum(rho[i, j] * lam[j, i] for i in range(d) for j in range(d))


def _reference_lie_residual(rhos, dims):
    res = 0.0
    for rho, d in zip(rhos, dims):
        for lam in _gell_mann_cached(d):
            res = max(res, float(abs(_reference_expectation(rho, lam))))
    return res


def _reference_is_critical(state, tol=1e-8):
    rhos = _reference_site_reductions(state)
    res_lie = _reference_lie_residual(rhos, state.dims)
    res_marg = 0.0
    for rho, d in zip(rhos, state.dims):
        dev = rho - np.eye(d) / d
        res_marg = max(res_marg, float(np.max(np.abs(np.linalg.eigvalsh(dev)))))
    return CriticalityReport(bool(res_lie <= tol and res_marg <= tol), res_lie, res_marg)


def _reference_unitary(z):
    """The rephased Q factor of one complex Gaussian matrix."""
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _reference_criticality_equivalence(count, seed, tol=1e-8):
    """The corpus from the bulk draws (the random states of each dims, then
    the unitaries of each site dimension), each state built and classified
    on its own."""
    rng = np.random.default_rng(seed)
    pool = critical_state_pool()
    dims_cycle = [(3, 3, 3), (3, 3, 3, 3), (2, 2, 2)]
    states = {}
    for c, dims in enumerate(dims_cycle):
        idx = [i for i in range(0, count, 2) if i % 3 == c]
        z = rng.standard_normal((len(idx), 2, math.prod(dims)))
        for r, i in enumerate(idx):
            states[i] = FloatState(dims, z[r, 0] + 1j * z[r, 1])
    images = [[i for i in range(1, count, 2) if (i // 2) % len(pool) == p]
              for p in range(len(pool))]
    # row of each (image, site) in its dimension's draw: pool entry, site, image
    rows = {}
    need = {}
    for p, base in enumerate(pool):
        for k, d in enumerate(base.dims):
            for i in images[p]:
                rows[i, k] = need.get(d, 0)
                need[d] = need.get(d, 0) + 1
    z = {d: rng.standard_normal((need[d], 2, d, d)) for d in sorted(need)}
    for p, base in enumerate(pool):
        for i in images[p]:
            mats = [_reference_unitary(z[d][rows[i, k], 0] + 1j * z[d][rows[i, k], 1])
                    for k, d in enumerate(base.dims)]
            states[i] = _reference_apply(mats, base)
    agreements = 0
    disagreements = []
    for i in range(count):
        rep = _reference_is_critical(states[i], tol)
        if (rep.residual_lie <= tol) == (rep.residual_marginal <= tol):
            agreements += 1
        else:
            disagreements.append((i, rep.residual_lie, rep.residual_marginal))
    return EquivalenceReport(count, agreements, disagreements)


def _reference_flow(state, max_iters=5000, step=1.0, tol=1e-7):
    cur = state
    norms = [_reference_norm_sq(cur.vec)]
    eta = step
    residual = _reference_lie_residual(_reference_site_reductions(cur), cur.dims)
    iterations = 0
    converged = residual <= tol
    while not converged and iterations < max_iters:
        iterations += 1
        rhos = _reference_site_reductions(cur)
        hs = [rho - np.eye(d) / d for rho, d in zip(rhos, cur.dims)]
        accepted = None
        while eta > 1e-14:
            mats = [_reference_renorm_det(_expm_hermitian(h, -eta)) for h in hs]
            cand = _reference_apply(mats, cur)
            if _reference_norm_sq(cand.vec) <= norms[-1] * (1 + 1e-12):
                accepted = cand
                break
            eta *= 0.5
        if accepted is None:
            break
        cur = accepted
        norms.append(_reference_norm_sq(cur.vec))
        if norms[-1] < 1e-30:
            break
        eta = min(eta * 1.5, step)
        residual = _reference_lie_residual(_reference_site_reductions(cur), cur.dims)
        converged = residual <= tol
    return FlowReport(norms[0], norms[-1], iterations, residual, converged, norms)


def test_gell_mann_basis():
    for d in (2, 3):
        basis = gell_mann_basis(d)
        assert len(basis) == d * d - 1
        for a, la in enumerate(basis):
            assert abs(np.trace(la)) < 1e-14
            assert np.allclose(la, la.conj().T)
            for b, lb in enumerate(basis):
                want = 2.0 if a == b else 0.0
                assert abs(np.trace(la @ lb) - want) < 1e-12


def test_critical_states():
    phi = FloatState.from_exact(catalog.ame_state())
    rep = is_critical(phi, 1e-10)
    assert rep.critical and rep.residual_lie < 1e-12

    s1 = FloatState.from_exact(catalog.code_basis()[0])
    assert is_critical(s1, 1e-10).critical

    k000 = FloatState.from_exact(catalog.ket("000", 3, 12))
    rep = is_critical(k000, 1e-10)
    assert not rep.critical
    assert rep.residual_marginal > 0.5

    with pytest.raises(ValueError):
        is_critical(phi, tol=0)


def test_site_reductions_trace_one():
    rng = np.random.default_rng(0)
    v = FloatState.random((3, 3, 3), rng)
    for rho in site_reductions(v):
        assert abs(np.trace(rho) - 1) < 1e-12
        assert np.allclose(rho, rho.conj().T)


def test_flow_from_critical_state_is_immediate():
    phi = FloatState.from_exact(catalog.ame_state())
    rep = norm_minimization_flow(phi, tol=1e-7)
    assert rep.converged and rep.iterations == 0


def test_flow_converges_from_perturbed_starts():
    phi = FloatState.from_exact(catalog.ame_state())
    rng = np.random.default_rng(42)
    for _ in range(5):
        g = random_group_element(phi.dims, rng, scale=1.0)
        rep = norm_minimization_flow(apply_sitewise(g, phi),
                                     max_iters=5000, tol=1e-8)
        assert rep.converged
        assert rep.monotone
        assert rep.criticality_residual < 1e-6
        # the orbit minimum is the exact norm of the critical representative
        assert abs(rep.final_norm_sq - 1.0) < 1e-6
        assert rep.final_norm_sq <= rep.initial_norm_sq + 1e-9


def test_flow_norm_collapse_reported():
    k001 = FloatState.from_exact(catalog.ket("001", 2, 24))
    rep = norm_minimization_flow(k001, max_iters=400, tol=1e-8)
    assert not rep.converged
    assert rep.monotone
    assert rep.final_norm_sq < 1e-3
    # strictly decreasing norm trace witnesses the unattained infimum
    assert rep.norm_trace[-1] < rep.norm_trace[0]


def test_flow_rejects_bad_parameters():
    phi = FloatState.from_exact(catalog.ame_state())
    with pytest.raises(ValueError):
        norm_minimization_flow(phi, max_iters=0)


def test_inequality_on_critical_state():
    phi = FloatState.from_exact(catalog.ame_state())
    rep = kempf_ness_inequality_test(phi, samples=300, seed=7)
    assert rep.all_above_one
    assert rep.min_ratio >= 1 - 1e-9


def test_inequality_identity_ratio():
    phi = FloatState.from_exact(catalog.ame_state())
    ident = [np.eye(3, dtype=complex)] * 4
    ratio = apply_sitewise(ident, phi).norm_sq() / phi.norm_sq()
    assert abs(ratio - 1) < 1e-14


def test_inequality_converse_on_noncritical():
    k000 = FloatState.from_exact(catalog.ket("000", 3, 12))
    # explicit witness: squeeze site 1 along |0>
    g = [np.diag([0.5, 2.0, 1.0]).astype(complex),
         np.eye(3, dtype=complex), np.eye(3, dtype=complex)]
    ratio = apply_sitewise(g, k000).norm_sq() / k000.norm_sq()
    assert ratio < 1
    rep = kempf_ness_inequality_test(k000, samples=200, seed=3,
                                     require_critical=False)
    assert not rep.all_above_one
    with pytest.raises(ValueError):
        kempf_ness_inequality_test(k000, samples=10)


def test_group_elements_have_unit_determinant():
    rng = np.random.default_rng(1)
    for dims in ((3, 3, 3), (2, 2, 2, 2)):
        for m in random_group_element(dims, rng):
            assert abs(np.linalg.det(m) - 1) < 1e-9


def test_gradient_matches_finite_differences():
    rep = gradient_check(seed=5, pairs=10)
    assert rep.max_rel_error < 1e-5
    assert rep.max_antihermitian_derivative < 1e-6


def test_gradient_formula_direct():
    # one direction by hand: d/dt log||exp(tL)_1 psi||^2 = 2 tr(rho_1 L)
    rng = np.random.default_rng(2)
    v = FloatState.random((3, 3), rng)
    lam = gell_mann_basis(3)[4]
    grad = log_norm_gradient(v)[0][4]
    h = 1e-6
    from amecode.kempfness import _expm_hermitian
    plus = apply_sitewise([_expm_hermitian(lam, h), np.eye(3)], v)
    minus = apply_sitewise([_expm_hermitian(lam, -h), np.eye(3)], v)
    fd = (np.log(plus.norm_sq()) - np.log(minus.norm_sq())) / (2 * h)
    assert abs(grad - fd) < 1e-8


def test_criticality_equivalence():
    rep = criticality_equivalence(100, seed=0, tol=1e-8)
    assert rep.agreements == rep.count, rep.disagreements


def test_criticality_lu_invariance():
    rng = np.random.default_rng(9)
    for base in critical_state_pool():
        mats = [_random_unitaries(d, rng, 1)[0] for d in base.dims]
        assert is_critical(apply_sitewise(mats, base), 1e-8).critical


# -- the batched path gives the floats of the per-sample reference loops ------


def test_group_element_stacks_match_sequential_draws():
    for dims, scale in (((3, 3, 3, 3), 1.0), ((2, 3, 2), 1.0), ((3, 2, 4, 2), 0.5)):
        stacks = random_group_elements(dims, np.random.default_rng(4), 50, scale)
        draws = _reference_group_elements(dims, np.random.default_rng(4), 50, scale)
        for i in range(50):
            for k, m in enumerate(draws[i]):
                assert np.array_equal(stacks[k][i], m)
        assert all(np.array_equal(a, b) for a, b in zip(
            random_group_element(dims, np.random.default_rng(4), scale),
            _reference_group_elements(dims, np.random.default_rng(4), 1, scale)[0]))


def test_inequality_matches_reference_loop():
    phi = FloatState.from_exact(catalog.ame_state())
    for seed in range(10):
        assert (kempf_ness_inequality_test(phi, samples=100, seed=seed)
                == _reference_inequality(phi, 100, seed))
    # non-critical: the witness is the first ratio below 1 - slack, not the least
    k000 = FloatState.from_exact(catalog.ket("000", 3, 12))
    rep = kempf_ness_inequality_test(k000, samples=200, seed=3, require_critical=False)
    assert rep == _reference_inequality(k000, 200, 3)
    assert rep.witness_below is not None and rep.witness_below > rep.min_ratio
    empty = kempf_ness_inequality_test(phi, samples=0)
    assert empty == _reference_inequality(phi, 0, 0)
    assert empty.min_ratio == np.inf and empty.all_above_one
    mixed = FloatState.random((2, 3), np.random.default_rng(3))
    for seed in range(5):
        assert (kempf_ness_inequality_test(mixed, samples=100, seed=seed,
                                           require_critical=False)
                == _reference_inequality(mixed, 100, seed))


def test_gradient_check_matches_reference_loop():
    for seed in (0, 5):
        assert gradient_check(seed=seed, pairs=8) == _reference_gradient_check(seed, 8)
    assert (gradient_check(seed=1, pairs=5, dims=(2, 3))
            == _reference_gradient_check(1, 5, dims=(2, 3)))


def test_flow_matches_reference_loop():
    phi = FloatState.from_exact(catalog.ame_state())
    rng = np.random.default_rng(42)
    starts = [apply_sitewise(random_group_element(phi.dims, rng), phi) for _ in range(3)]
    starts.append(FloatState.from_exact(catalog.ket("001", 2, 24)))
    for v in starts:
        assert (norm_minimization_flow(v, max_iters=400, tol=1e-8)
                == _reference_flow(v, max_iters=400, tol=1e-8))


def _seeded_starts(seed, count):
    """The starts of the suite's flows: random orbit points of phi."""
    phi = FloatState.from_exact(catalog.ame_state())
    gs = random_group_elements(phi.dims, np.random.default_rng(seed), count)
    return [apply_sitewise([g[i] for g in gs], phi) for i in range(count)]


def test_flows_match_reference_loop_per_state():
    phi = FloatState.from_exact(catalog.ame_state())
    # 20 seeded starts with phi itself, which stops at once
    batch = _seeded_starts(0, 20) + [phi]
    reps = norm_minimization_flows(batch, tol=1e-8)
    assert reps == [_reference_flow(v, tol=1e-8) for v in batch]
    assert reps[-1].iterations == 0 and reps[-1].converged
    assert {r.iterations for r in reps[:-1]} != {reps[0].iterations}  # uneven lengths
    # every start cut at max_iters, next to phi
    batch = _seeded_starts(1, 3) + [phi]
    reps = norm_minimization_flows(batch, max_iters=3, tol=1e-8)
    assert reps == [_reference_flow(v, max_iters=3, tol=1e-8) for v in batch]
    assert [r.iterations for r in reps] == [3, 3, 3, 0]
    # the collapse case on its own dims, next to generic starts that converge
    rng = np.random.default_rng(5)
    batch = [FloatState.from_exact(catalog.ket("001", 2, 24)),
             *(FloatState.random((2, 2, 2), rng) for _ in range(3))]
    reps = norm_minimization_flows(batch, max_iters=400, tol=1e-8)
    assert reps == [_reference_flow(v, max_iters=400, tol=1e-8) for v in batch]
    assert reps[0].final_norm_sq < 1e-3 and not reps[0].converged
    # a step too small for the line search ends each flow in its first iteration
    batch = _seeded_starts(2, 2)
    reps = norm_minimization_flows(batch, step=1e-15)
    assert reps == [_reference_flow(v, step=1e-15) for v in batch]
    assert all(r.iterations == 1 and len(r.norm_trace) == 1 for r in reps)


def test_flows_batch_edges():
    starts = _seeded_starts(3, 2)
    assert norm_minimization_flows(starts[:1], tol=1e-8) == [
        norm_minimization_flow(starts[0], tol=1e-8)]
    assert norm_minimization_flows([]) == []
    k001 = FloatState.from_exact(catalog.ket("001", 2, 24))
    with pytest.raises(ValueError, match="share dims"):
        norm_minimization_flows([starts[0], k001])


@pytest.mark.parametrize("kwargs", [{"tol": math.nan}, {"tol": math.inf}, {"tol": -1.0},
                                    {"step": math.nan}, {"step": math.inf}, {"step": 0.0},
                                    {"max_iters": 0}])
def test_flows_reject_bad_parameters(kwargs):
    phi = FloatState.from_exact(catalog.ame_state())
    with pytest.raises(ValueError):
        norm_minimization_flows([phi], **kwargs)
    with pytest.raises(ValueError):
        norm_minimization_flow(phi, **kwargs)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0])
def test_is_critical_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        is_critical(FloatState.from_exact(catalog.ame_state()), tol)


def test_is_critical_matches_reference_loop():
    rng = np.random.default_rng(11)
    states = [FloatState.from_exact(catalog.ame_state()),
              FloatState.from_exact(catalog.ket("000", 3, 12)),
              *(FloatState.random(dims, rng)
                for dims in ((2, 2, 2), (3, 3, 3), (3, 3, 3, 3), (9, 2)) for _ in range(3))]
    states += [apply_sitewise([_random_unitaries(d, rng, 1)[0] for d in base.dims], base)
               for base in critical_state_pool()]
    for v in states:
        for tol in (1e-8, 1e-6):
            assert is_critical(v, tol) == _reference_is_critical(v, tol)
        assert all(np.array_equal(a, b) for a, b in zip(
            site_reductions(v), _reference_site_reductions(v)))


@pytest.mark.parametrize("seed", range(5))
def test_criticality_equivalence_matches_reference_loop(seed):
    for count in (1, 7, 100):
        assert (criticality_equivalence(count, seed=seed)
                == _reference_criticality_equivalence(count, seed))


# -- the sampler: one bulk draw per site dimension, the degree-15 exponential --


class _CountingGenerator:
    """A Generator that records the name of each method called on it."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls.append(name)
            return method(*args, **kwargs)
        return counted


@pytest.mark.parametrize("dims", [(3, 3, 3, 3), (2, 3, 2), (3, 2, 4, 2), (2,)])
def test_sampler_draws_in_bulk_per_site_dimension(dims):
    rng = _CountingGenerator(np.random.default_rng(0))
    stacks = random_group_elements(dims, rng, 100)
    assert rng.calls == ["standard_normal", "uniform"] * len(set(dims))
    assert [s.shape for s in stacks] == [(100, d, d) for d in dims]


def _sampler_stack(seed):
    """Every exponent the sampler draws in check_kempf_ness(seed), the
    inequality's, the flow starts' and the gradient check's (drawn after its
    20 states), as one stack with its norms."""
    draws = [_random_exponents((3, 3, 3, 3), np.random.default_rng(seed), count, 1.0)
             for count in (suites.INEQUALITY_SAMPLES, suites.FLOW_STARTS)]
    rng = np.random.default_rng(seed)
    rng.standard_normal((20, 2, 27))
    draws.append(_random_exponents((3, 3, 3), rng, 20, 0.5))
    return (np.concatenate([m for draw in draws for _, m, _ in draw]),
            np.concatenate([norm for draw in draws for _, _, norm in draw]))


def test_expm_with_known_norms_is_bit_identical():
    # seeds 0-63 cover every seed the tests, the demos and the BENCH files use
    for seed in range(64):
        m, norm = _sampler_stack(seed)
        assert np.array_equal(_expm(m, norm), _expm(m))


def _relative_errors(x, want):
    return (np.linalg.norm(x - want, 2, axis=(-2, -1))
            / np.linalg.norm(want, 2, axis=(-2, -1)))


def _scaled_to_norms(m, norms):
    return m * (norms / np.linalg.norm(m, 2, axis=(-2, -1)))[:, None, None]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 9])
def test_spectral_norms_match_the_svd(d):
    # at every scale whose squares stay in the normal range
    rng = np.random.default_rng(20 + d)
    z = rng.standard_normal((2000, d, d)) + 1j * rng.standard_normal((2000, d, d))
    for scale in (1e-100, 1e-3, 1.0, 1e3, 1e100):
        m = z * scale
        want = np.linalg.norm(m, 2, axis=(-2, -1))
        assert (np.abs(_spectral_norms(m) - want) / want).max() <= 1e-14
    assert np.array_equal(_spectral_norms(np.zeros((3, d, d), dtype=complex)), np.zeros(3))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_expm_matches_eigh_on_hermitian_stacks(d):
    rng = np.random.default_rng(d)
    z = rng.standard_normal((2000, d, d)) + 1j * rng.standard_normal((2000, d, d))
    h = _scaled_to_norms(z + z.conj().swapaxes(-1, -2), rng.uniform(0.0, 2.0, 2000))
    assert _relative_errors(_expm(h), _expm_hermitian(h, 1.0)).max() <= 1e-14


@pytest.mark.parametrize("d", [2, 3, 4])
def test_expm_matches_the_19_term_series(d):
    rng = np.random.default_rng(10 + d)
    z = rng.standard_normal((2000, d, d)) + 1j * rng.standard_normal((2000, d, d))
    z -= (np.trace(z, axis1=1, axis2=2) / d)[:, None, None] * np.eye(d)
    m = _scaled_to_norms(z, rng.uniform(0.0, 1.0, 2000))
    want = np.array([_reference_expm(x) for x in m])
    assert _relative_errors(_expm(m), want).max() <= 1e-14


def test_expm_of_zero_is_the_identity():
    for d in (2, 3):
        assert np.array_equal(_expm(np.zeros((5, d, d), dtype=complex)),
                              np.broadcast_to(np.eye(d), (5, d, d)))
    assert np.array_equal(_expm(np.zeros((2, 3, 3), dtype=complex), np.zeros(2)),
                          np.broadcast_to(np.eye(3), (2, 3, 3)))


@pytest.mark.parametrize("seed", range(64))
def test_kempf_ness_check_passes(seed):
    # both float checks, on every seed the tests, the demos and the BENCH files use
    for check in (suites.check_kempf_ness, suites.check_criticality_equivalence):
        result = check(seed)
        assert result.passed, result.actual


# -- stacks: each row gets the floats it gets alone ----------------------------


@pytest.mark.parametrize("rows", [1, 7, 1000])
@pytest.mark.parametrize("dims", [(3, 3, 3, 3), (2, 3), (2, 2, 2)])
def test_row_norms_and_residuals_are_those_of_a_stack_of_one(rows, dims):
    rng = np.random.default_rng(rows)
    t = (rng.standard_normal((rows, *dims)) + 1j * rng.standard_normal((rows, *dims))) \
        * rng.uniform(0.1, 10.0, rows).reshape(rows, *(1,) * len(dims))
    norms = _row_norms_sq(t)
    residuals = _lie_residuals(_reductions(t))
    for i in range(rows):
        assert np.array_equal(norms[i:i + 1], _row_norms_sq(t[i:i + 1]))
        assert residuals[i] == _lie_residuals(_reductions(t[i:i + 1]))[0]
    assert np.array_equal(norms, [_reference_norm_sq(row.reshape(-1)) for row in t])


def test_empty_draws():
    phi = FloatState.from_exact(catalog.ame_state())
    assert gradient_check(pairs=0) == GradientReport(0, 0.0, 0.0)
    assert kempf_ness_inequality_test(phi, samples=0).min_ratio == np.inf
    assert criticality_equivalence(0) == EquivalenceReport(0, 0, [])
    assert [s.shape for s in random_group_elements((2, 3), np.random.default_rng(0), 0)] \
        == [(0, 2, 2), (0, 3, 3)]
