"""Floating-point norm minimization over products of determinant-1 groups.

A state is critical when every single-site reduction is maximally mixed,
equivalently when the expectation of every traceless single-site operator
vanishes.  Critical states minimize the norm in their orbit under products
of determinant-1 matrices; the flow here performs multiplicative gradient
descent on log <v|g^dag g|v> with per-site matrix exponentials, determinant
renormalization, and a backtracking line search, so the squared norm is
non-increasing along every run.

This module is deliberately floating point; tolerances default to 1e-8 for
criticality and 1e-6 for flow convergence.  The sampled checks, the
criticality test and the flows work on stacks of matrices and states (the
flows of one call advance in lockstep), and each row of a stack gets the
floats it gets alone.  A state is a complex array of shape dims (from_exact
converts an exact one), a stack of S states one (S, *dims) array, and a
single state a stack of one: products, determinants, eigenvalues and QR
factors are numpy's stacked LAPACK and BLAS routines, one call per matrix,
and norms and expectations are numpy reductions along each row in a fixed
order.  Spectral norms come from the
eigenvalues of m^dag m, not from an SVD.  The random draws of one call come
in bulk: the sampler takes one standard_normal and one uniform call per
distinct site dimension, so `count` draws in one call are not the draws of
`count` calls, and the gradient check and the criticality corpus draw all
their states and unitaries the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


def from_exact(state) -> np.ndarray:
    """The amplitudes of an exact PureState as a complex array of shape dims."""
    return np.array(state.to_complex(), dtype=complex).reshape(state.dims)


@lru_cache(maxsize=None)
def _gell_mann_cached(d: int) -> np.ndarray:
    """The traceless Hermitian basis of d x d matrices, tr(L_a L_b) =
    2 delta_ab, as one read-only (d*d - 1, d, d) stack; (0, 1, 1) for d = 1."""
    out = []
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = m[k, j] = 1.0
            out.append(m)
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1j
            m[k, j] = 1j
            out.append(m)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        for i in range(l):
            m[i, i] = 1.0
        m[l, l] = -l
        m *= math.sqrt(2.0 / (l * (l + 1)))
        out.append(m)
    stack = np.array(out, dtype=complex).reshape(len(out), d, d)
    stack.flags.writeable = False
    return stack


def _random_vectors(rng: np.random.Generator, count: int, size: int) -> np.ndarray:
    """`count` complex Gaussian vectors of length `size` from one
    standard_normal((count, 2, size)) call: row i takes the real parts, then
    the imaginary parts, of draw i."""
    z = rng.standard_normal((count, 2, size))
    return z[:, 0] + 1j * z[:, 1]


def _positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _reductions(t: np.ndarray):
    """Normalized single-site reduced densities of each row of t, shape
    (S, *dims): one (S, d, d) stack per site.

    Site k is the (d, rest) @ (rest, d) product over the conjugate that
    tensordot forms for a single state, divided by the row's own norm
    (_row_norms_sq), so a stack of one gives the floats of one state."""
    ns = _row_norms_sq(t)
    if not np.all(np.isfinite(ns)):
        raise ValueError("state norm is not finite")
    if np.any(ns <= 0):
        raise ValueError("zero state")
    out = []
    for k in range(1, t.ndim):
        a = np.moveaxis(t, k, 1)
        a = a.reshape(len(t), a.shape[1], math.prod(a.shape[2:]))
        b = np.ascontiguousarray(a.conj().transpose(0, 2, 1))
        out.append(_stack_matmul(a, b) / ns[:, None, None])
    return out


def _expectations(rhos):
    """tr(rho L_a) for each row of each site's stack and each Gell-Mann
    matrix L_a: one (S, d*d - 1) complex array per site, each entry the sum
    of rho_ij (L_a)_ji in i, j order."""
    return [np.einsum("sij,aji->sa", rho, _gell_mann_cached(rho.shape[-1]))
            for rho in rhos]


def _stack_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks, with the floats of tensordot's gemm: over an inner
    dimension of 1 (a site of dimension 1, the rest of a one-site state)
    matmul's route can differ from it in the last bit, a broadcast product not."""
    return a @ b if a.shape[-1] > 1 else a * b


def _lie_residuals(rhos) -> list:
    """Largest |tr(rho_k L_a)| over the sites and the Gell-Mann basis, per row."""
    # hypot is the scalar complex abs; np.abs on a complex array takes a
    # vectorized route that can differ from it in the last bit
    return [float(r) for r in np.max(
        [np.hypot(e.real, e.imag).max(axis=1, initial=0.0) for e in _expectations(rhos)],
        axis=0)]


def _centered(rho: np.ndarray) -> np.ndarray:
    """rho - I/d for each matrix of a (S, d, d) stack."""
    return rho - np.eye(rho.shape[-1]) / rho.shape[-1]


@dataclass
class CriticalityReport:
    critical: bool
    residual_lie: float
    residual_marginal: float


def _criticality(t: np.ndarray, tol: float) -> list:
    """is_critical of each row of a (S, *dims) stack of tensors."""
    _positive("tol", tol)
    rhos = _reductions(t)
    lie = _lie_residuals(rhos)
    marg = np.max([np.abs(np.linalg.eigvalsh(_centered(rho))).max(axis=1) for rho in rhos],
                  axis=0)
    return [CriticalityReport(bool(l <= tol and m <= tol), l, float(m))
            for l, m in zip(lie, marg)]


def is_critical(state: np.ndarray, tol: float = 1e-8) -> CriticalityReport:
    """Evaluate both criticality conditions: vanishing traceless
    expectations (residual_lie) and maximally mixed single-site reductions
    in spectral norm (residual_marginal); critical iff both <= tol, which
    must be finite and positive."""
    return _criticality(state[None], tol)[0]


def _apply_stack(mats, t: np.ndarray) -> np.ndarray:
    """Images of a stack of tensors under a stack of site-wise products.

    t has shape (S or 1, *dims) and mats[k] shape (S or 1, d_k, d_k); the
    result has shape (S, *dims).  Site k is one (d, d) @ (d, rest) gemm per
    image, the product tensordot forms for a single matrix, so a stack of
    one gives the floats of a single application."""
    for k, m in enumerate(mats):
        t = np.moveaxis(t, k + 1, 1)
        shape = t.shape
        # rebinding t drops each stack once it is copied: two alive at a time
        t = t.reshape(len(t), shape[1], math.prod(shape[2:]))
        t = _stack_matmul(m, t)
        t = np.moveaxis(t.reshape(len(t), *shape[1:]), 1, k + 1)
    return t


def apply_sitewise(mats, state: np.ndarray) -> np.ndarray:
    """The image of one state under one matrix per site, C-contiguous."""
    return np.ascontiguousarray(
        _apply_stack([np.asarray(m)[None] for m in mats], state[None])[0])


def _row_norms_sq(images: np.ndarray) -> np.ndarray:
    """<v|v> of each row of a (S, ...) stack: re^2 + im^2 summed along each
    row by one numpy reduction, which sums a row in an order set by its
    length alone."""
    flat = images.reshape(len(images), math.prod(images.shape[1:]))
    return (flat.real ** 2 + flat.imag ** 2).sum(axis=1)


def _renorm_det(m: np.ndarray) -> np.ndarray:
    """Scale each matrix of a (..., d, d) stack to determinant 1."""
    d = m.shape[-1]
    return m / (np.linalg.det(m) ** (1.0 / d))[..., None, None]


def random_group_element(dims, rng: np.random.Generator, scale: float = 1.0):
    """One determinant-1 matrix per site: exp of a random traceless matrix
    of spectral norm <= scale; random_group_elements with count 1."""
    return [m[0] for m in random_group_elements(dims, rng, 1, scale)]


def random_group_elements(dims, rng: np.random.Generator, count: int,
                          scale: float = 1.0):
    """`count` random determinant-1 products; returns one (count, d, d)
    stack per site.

    For each distinct site dimension d, in sorted order, the draws of all
    its sites come from one standard_normal and one uniform call (see
    _random_exponents), so the stream differs from `count` calls of
    random_group_element.  Each matrix is exp of a random traceless matrix
    scaled to spectral norm u * scale, u uniform on [0, 1), then scaled to
    determinant 1.  The exponential runs on one site's rows at a time,
    which keeps its working set to one site's stack."""
    out = [None] * len(dims)
    for ks, m, norm in _random_exponents(dims, rng, count, scale):
        for j, k in enumerate(ks):
            rows = slice(j * count, (j + 1) * count)
            out[k] = _renorm_det(_expm(m[rows], norm[rows]))
    return out


def _random_exponents(dims, rng: np.random.Generator, count: int, scale: float):
    """The exponents of random_group_elements: for each distinct site
    dimension d in sorted order, (sites, m, norm) with m the (len(sites) *
    count, d, d) stack of traceless matrices and norm their spectral norms
    (to rounding; 0 for d = 1).  Row j * count + i is draw i of site sites[j].

    The real and imaginary parts of all rows come from one
    standard_normal((rows, 2, d, d)) call and the norms from the uniform
    call after it, rng.uniform(0, 1, rows) * scale."""
    out = []
    for d in sorted(set(dims)):
        sites = [k for k, e in enumerate(dims) if e == d]
        z = rng.standard_normal((len(sites) * count, 2, d, d))
        norm = rng.uniform(0.0, 1.0, len(sites) * count) * scale
        m = z[:, 0] + 1j * z[:, 1]
        diag = np.arange(d)
        m[:, diag, diag] -= (np.trace(m, axis1=1, axis2=2) / d)[:, None]
        sn = _spectral_norms(m)
        # a traceless 1 x 1 matrix is 0, and exp(0) = [[1]] is all of SL(1)
        norm[sn == 0] = 0.0
        m *= (norm / np.where(sn > 0, sn, 1.0))[:, None, None]
        out.append((sites, m, norm))
    return out


def _spectral_norms(m: np.ndarray) -> np.ndarray:
    """The spectral norm of each matrix of a (..., d, d) stack, any d: the
    square root of the largest eigenvalue of m^dag m, one stacked eigvalsh
    in place of an SVD per matrix.  It squares the entries, so they must
    stay within about 1e-150 to 1e150 in magnitude."""
    return np.sqrt(np.linalg.eigvalsh(m.conj().swapaxes(-1, -2) @ m)[..., -1])


# 1/k!, k = 0..15: the degree-15 Taylor polynomial of exp in four blocks of
# four; on norm <= 1/2 its truncation error 0.5**16 / 16! is about 7e-19
_TAYLOR_BLOCKS = [[1.0 / math.factorial(4 * j + i) for i in range(4)] for j in range(4)]


def _expm(m: np.ndarray, norm=None) -> np.ndarray:
    """exp of each matrix of an (N, d, d) stack by scaling and squaring.

    Each matrix is divided by 2**s, the least s that takes its spectral
    norm (`norm`, one per matrix, or _spectral_norms when None) to 1/2 or
    less; the degree-15 Taylor polynomial is evaluated by Paterson–Stockmeyer
    (a^2, a^3 and a^4, then Horner in a^4 over four blocks: 6 products); and
    the result is squared s times, each matrix as often as its own norm
    asks."""
    if norm is None:
        norm = _spectral_norms(m)
    s = np.ceil(np.log2(np.maximum(norm / 0.5, 1.0))).astype(int)
    a = m / (2.0 ** s)[:, None, None]
    a2 = a @ a
    a3 = a2 @ a
    a4 = a2 @ a2
    eye = np.eye(m.shape[-1])
    out = None
    for c in reversed(_TAYLOR_BLOCKS):
        block = c[0] * eye + c[1] * a + c[2] * a2 + c[3] * a3
        out = block if out is None else out @ a4 + block
    for j in range(s.max(initial=0)):
        sel = s > j
        out[sel] = out[sel] @ out[sel]
    return out


def _expm_hermitian(h: np.ndarray, t) -> np.ndarray:
    """exp(t h) for a Hermitian h, or for each matrix of an (S, d, d) stack
    with t a scalar or one factor per matrix."""
    w, u = np.linalg.eigh(h)
    e = np.exp(np.asarray(t)[..., None] * w)
    return (u * e[..., None, :]) @ u.conj().swapaxes(-1, -2)


@dataclass
class FlowReport:
    initial_norm_sq: float
    final_norm_sq: float
    iterations: int
    criticality_residual: float
    converged: bool
    norm_trace: list = field(default_factory=list)

    @property
    def monotone(self) -> bool:
        return all(b <= a * (1 + 1e-12) + 1e-15
                   for a, b in zip(self.norm_trace, self.norm_trace[1:]))


def norm_minimization_flow(state: np.ndarray, max_iters: int = 5000,
                           step: float = 1.0, tol: float = 1e-7) -> FlowReport:
    """Minimize the squared norm over the orbit of `state` under products of
    determinant-1 matrices: the flow of norm_minimization_flows for one
    state."""
    return norm_minimization_flows([state], max_iters, step, tol)[0]


def norm_minimization_flows(states, max_iters: int = 5000, step: float = 1.0,
                            tol: float = 1e-7) -> list:
    """One norm-minimizing flow per state; the states, a sequence of arrays
    or one (S, *dims) stack, must share dims.

    Each iteration moves every site by exp(-eta * (rho_k - I/d_k)) with
    backtracking on eta, then renormalizes determinants.  A flow halts when
    the traceless-expectation residual of its current state drops below
    tol.  Runs that drive the norm toward zero without ever meeting the
    residual (orbits whose infimum is not attained) end with
    converged=False and the descent trace as evidence, as do runs whose
    line search shrinks eta to 1e-14 and runs that reach max_iters.

    The flows still running advance in lockstep, one candidate each per
    round, through stacked calls that treat every matrix and row on its
    own; each flow keeps its own eta, norm trace and accept/halve
    decisions, so its report is the one it would get alone.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    _positive("step", step)
    _positive("tol", tol)
    states = list(states)
    if not states:
        return []
    if any(np.shape(s) != np.shape(states[0]) for s in states):
        raise ValueError("states must share dims")
    t = np.array(states, dtype=complex)
    dims = t.shape[1:]
    cur = t.reshape(len(t), -1)
    norms = [[n] for n in _row_norms_sq(cur).tolist()]
    rhos = _reductions(t)
    residual = _lie_residuals(rhos)
    converged = [r <= tol for r in residual]
    eta = [step] * len(t)
    iterations = [0 if c else 1 for c in converged]
    # the sites of each distinct dimension move side by side: hs[j][:, i] is
    # the (len(sites[j]), d, d) stack of flow i's site moves
    sites = [[k for k, e in enumerate(dims) if e == d] for d in sorted(set(dims))]
    hs = [np.array([_centered(rhos[k]) for k in ks]) for ks in sites]
    running = [i for i, c in enumerate(converged) if not c]
    while running:
        # a flow whose line search has shrunk eta to nothing stops
        running = [i for i in running if eta[i] > 1e-14]
        if not running:
            break
        mats = [None] * len(dims)
        for ks, h in zip(sites, hs):
            moves = _renorm_det(_expm_hermitian(h[:, running],
                                                -np.array([eta[i] for i in running])))
            for k, m in zip(ks, moves):
                mats[k] = m
        cand = _apply_stack(mats, cur[running].reshape(len(running), *dims))
        cand = cand.reshape(len(running), -1)
        kept, moved = [], []
        for i, row, n in zip(running, cand, _row_norms_sq(cand).tolist()):
            if n > norms[i][-1] * (1 + 1e-12):
                eta[i] *= 0.5  # rejected: the same iteration retries next round
                kept.append(i)
                continue
            norms[i].append(n)
            if n < 1e-30:  # norm collapse: infimum not attained on the orbit
                continue
            cur[i] = row
            eta[i] = min(eta[i] * 1.5, step)
            moved.append(i)
        if moved:
            rhos = _reductions(cur[moved].reshape(len(moved), *dims))
            for ks, h in zip(sites, hs):
                h[:, moved] = [_centered(rhos[k]) for k in ks]
            for i, r in zip(moved, _lie_residuals(rhos)):
                residual[i] = r
                converged[i] = r <= tol
                if not converged[i] and iterations[i] < max_iters:
                    iterations[i] += 1
                    kept.append(i)
        running = sorted(kept)
    return [FlowReport(n[0], n[-1], it, r, c, n)
            for n, it, r, c in zip(norms, iterations, residual, converged)]


@dataclass
class InequalityReport:
    samples: int
    min_ratio: float
    all_above_one: bool
    witness_below: float | None


def kempf_ness_inequality_test(state: np.ndarray, samples: int = 1000,
                               seed: int = 0, require_critical: bool = True,
                               slack: float = 1e-9) -> InequalityReport:
    """Sample random determinant-1 products g and compare <v|g^dag g|v>
    against <v|v>.  For critical v every ratio must be >= 1 - slack; passing
    require_critical=False allows probing non-critical states, where ratios
    below 1 exhibit the converse direction."""
    if require_critical and not is_critical(state, 1e-6).critical:
        raise ValueError("state is not critical; pass require_critical=False to probe")
    rng = np.random.default_rng(seed)
    base = _row_norms_sq(state[None])[0]
    gs = random_group_elements(state.shape, rng, samples)
    ratios = _row_norms_sq(_apply_stack(gs, state[None])) / base
    below = ratios[ratios < 1 - slack]
    witness = float(below[0]) if len(below) else None
    return InequalityReport(samples, float(ratios.min(initial=np.inf)),
                            witness is None, witness)


@dataclass
class GradientReport:
    pairs: int
    max_rel_error: float
    max_antihermitian_derivative: float


def gradient_check(seed: int = 0, pairs: int = 20, dims=(3, 3, 3)) -> GradientReport:
    """Compare the analytic gradient of log <v|g^dag g|v> against central
    finite differences at random (state, group element) pairs.

    The error is measured relative to the full gradient vector per pair.
    Anti-Hermitian directions generate unitaries, so their derivatives must
    vanish; the maximum such derivative is reported as well.

    All pairs come from one draw: the states from one standard_normal call,
    then the group elements from one random_group_elements(dims, rng, pairs,
    0.5) call.  Every pair's image g v and its images under g with one
    factor moved by a step go through one _apply_stack.
    """
    h = 1e-5  # the finite-difference step
    # steps[d] holds exp(hL_a), exp(-hL_a), exp(ihL_a) in rows 3a, 3a+1, 3a+2;
    # they do not depend on the pair
    steps = {}
    for d in set(dims):
        basis = _gell_mann_cached(d)
        anti = _expm(1j * basis * h)
        steps[d] = np.array([e for lam, ea in zip(basis, anti)
                             for e in (_expm_hermitian(lam, h),
                                       _expm_hermitian(lam, -h), ea)]).reshape(-1, d, d)
    # row 0 of a pair is g itself; rows offsets[k]:offsets[k + 1] are g with
    # its site-k factor moved by a step
    offsets = np.cumsum([1] + [len(steps[d]) for d in dims])
    rows = offsets[-1]
    rng = np.random.default_rng(seed)
    v = _random_vectors(rng, pairs, math.prod(dims))
    mats = []
    for k, (d, g) in enumerate(zip(dims, random_group_elements(dims, rng, pairs, 0.5))):
        m = np.repeat(g[:, None], rows, axis=1)
        m[:, offsets[k]:offsets[k + 1]] = steps[d] @ g[:, None]
        mats.append(m.reshape(pairs * rows, d, d))
    images = _apply_stack(mats, np.repeat(v, rows, axis=0).reshape(pairs * rows, *dims))
    logs = np.log(_row_norms_sq(images)).reshape(pairs, rows)
    psi = images.reshape(pairs, rows, *dims)[:, 0]
    max_rel = 0.0
    max_anti = 0.0
    for k, e in enumerate(_expectations(_reductions(psi))):
        if not e.shape[1]:  # a site of dimension 1 has no direction to check
            continue
        analytic = 2.0 * e.real
        fp, fm, fa = np.moveaxis(
            logs[:, offsets[k]:offsets[k + 1]].reshape(pairs, e.shape[1], 3), 2, 0)
        fd = (fp - fm) / (2 * h)
        rel = np.linalg.norm(analytic - fd, axis=1) / np.linalg.norm(analytic, axis=1)
        max_rel = max(max_rel, rel.max(initial=0.0))
        max_anti = max(max_anti, (np.abs(fa - logs[:, :1]) / h).max(initial=0.0))
    return GradientReport(pairs, float(max_rel), float(max_anti))


@dataclass
class EquivalenceReport:
    count: int
    agreements: int
    disagreements: list


def _random_unitaries(d: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` random d x d unitaries as one stack: the Q factors of complex
    Gaussian matrices, from one standard_normal((count, 2, d, d)) call and
    one stacked QR, each column rephased by the phase of R's diagonal."""
    z = rng.standard_normal((count, 2, d, d))
    q, r = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def critical_state_pool():
    """Exactly critical reference states as complex arrays."""
    from . import catalog
    from .tensor import PureState
    from .cyclo import default_conductor
    n2 = default_conductor(2)
    ghz2 = PureState(n2, (2, 2, 2), [1, 0, 0, 0, 0, 0, 0, 1])
    bell = PureState(n2, (2, 2), [1, 0, 0, 1])
    return [from_exact(catalog.ame_state(normalized=False)),
            from_exact(catalog.code_basis()[0]), from_exact(ghz2), from_exact(bell)]


def criticality_equivalence(count: int = 100, seed: int = 0,
                            tol: float = 1e-8) -> EquivalenceReport:
    """Classify a seeded corpus of states by both criticality conditions and
    count agreements.  The corpus alternates generic random states with
    random local-unitary images of exactly critical ones, so both classes
    are represented away from the tolerance boundary: state i is a random
    state of dims_cycle[i % 3] for even i and, for odd i, the image of
    pool[(i // 2) % 4] under one random unitary per site.

    The random states of each dims come from one standard_normal call, in
    the order of dims_cycle; then the unitaries of each site dimension d, in
    sorted order, from one _random_unitaries call, laid out pool entry by
    pool entry, site by site, image by image."""
    rng = np.random.default_rng(seed)
    pool = critical_state_pool()
    dims_cycle = [(3, 3, 3), (3, 3, 3, 3), (2, 2, 2)]
    groups = []  # (indices, (len(indices), *dims) stack of their tensors)
    for c, dims in enumerate(dims_cycle):
        idx = [i for i in range(0, count, 2) if i % len(dims_cycle) == c]
        v = _random_vectors(rng, len(idx), math.prod(dims))
        groups.append((idx, v.reshape(len(idx), *dims)))
    images = [[i for i in range(1, count, 2) if (i // 2) % len(pool) == p]
              for p in range(len(pool))]
    need = {}
    for base, idx in zip(pool, images):
        for d in base.shape:
            need[d] = need.get(d, 0) + len(idx)
    units = {d: _random_unitaries(d, rng, need[d]) for d in sorted(need)}
    for base, idx in zip(pool, images):
        mats = []
        for d in base.shape:
            mats.append(units[d][:len(idx)])
            units[d] = units[d][len(idx):]
        groups.append((idx, _apply_stack(mats, base[None])))
    stacks = {}  # one stack per dims
    for idx, t in groups:
        stacks.setdefault(t.shape[1:], []).append((idx, t))
    reports = {}
    for parts in stacks.values():
        reports.update(zip([i for idx, _ in parts for i in idx],
                           _criticality(np.concatenate([t for _, t in parts]), tol)))
    agreements = 0
    disagreements = []
    for i in range(count):
        rep = reports[i]
        if (rep.residual_lie <= tol) == (rep.residual_marginal <= tol):
            agreements += 1
        else:
            disagreements.append((i, rep.residual_lie, rep.residual_marginal))
    return EquivalenceReport(count, agreements, disagreements)
