"""Named verification suites.

Each check pins its tolerance here and returns a CheckResult; the CLI and
the test suite share these implementations.  All randomized checks take
their seed from the context, so a report is reproducible byte-for-byte up
to its timing fields.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import catalog
from .correspondence import purify_code, roundtrip
from .cyclo import Cyclotomic, root_of_unity
from .groups import (centralizer_containment_check, closure, local_symmetry_report,
                     transversal_group, verify_coset_representatives,
                     weyl_generators, weyl_group)
from .invariants import (check_weyl_invariance, eval_invariants,
                         random_rational_point)
from .kempfness import (FloatState, apply_sitewise, criticality_equivalence,
                        gradient_check, kempf_ness_inequality_test,
                        norm_minimization_flow, random_group_element)
from .linalg import Matrix
from .qecc import (distance, kl_check, pauli_error_basis, r_uniform_check,
                   singleton_check, stabilizer_subspace)

# pinned tolerances
KN_RATIO_SLACK = 1e-9          # inequality sampling
FLOW_RESIDUAL_TOL = 1e-6       # flow criticality residual
FLOW_NORM_TOL = 1e-6           # final norm gap
FLOW_STOP_TOL = 1e-8           # internal stopping residual for flows
GRADIENT_REL_TOL = 1e-5        # analytic vs central differences
EQUIVALENCE_TOL = 1e-8         # criticality definition agreement
INVARIANCE_TRIALS = 50
FLOW_STARTS = 20
INEQUALITY_SAMPLES = 1000
EQUIVALENCE_STATES = 100


@dataclass
class CheckResult:
    name: str
    passed: bool
    expected: str
    actual: str
    elapsed: float = 0.0

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"


class SuiteContext:
    """Shared parameters and lazily built groups for a suite run."""

    def __init__(self, conductor: int = 12, seed: int = 0,
                 cap: int | None = None):
        self.conductor = conductor
        self.seed = seed
        self.cap = cap
        self._cache: dict = {}

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    @property
    def code(self):
        return self._get("code", lambda: catalog.code_332(self.conductor))

    @property
    def weyl(self):
        return self._get("weyl", lambda: weyl_group(self.conductor,
                                                    cap=self.cap or 6480))

    @property
    def phi_unit(self):
        return self._get("phi_unit", lambda: catalog.ame_state(self.conductor))

    @property
    def phi_rowform(self):
        return self._get("phi_rowform",
                         lambda: catalog.ame_state(self.conductor, normalized=False))


def check_code332_kl(ctx: SuiteContext) -> CheckResult:
    errors = pauli_error_basis(3, 3, 1, conductor=ctx.conductor)
    r2 = kl_check(ctx.code, 2)
    r3 = kl_check(ctx.code, 3)
    dist = distance(ctx.code)
    passed = (len(errors) == 25 and r2.is_code and r2.is_pure
              and not r3.is_code and dist == 2
              and singleton_check(3, 3, 2, 3))
    return CheckResult(
        "code332-knill-laflamme", passed,
        "pure at d=2 over the 25 weight<=1 errors; fails at d=3; distance 2",
        f"sweep={len(errors)} d2: code={r2.is_code} pure={r2.is_pure}; "
        f"d3: code={r3.is_code} ({len(r3.violations)} violations); "
        f"distance={dist}", 0.0)


def check_ame_uniform(ctx: SuiteContext) -> CheckResult:
    rep = r_uniform_check(ctx.phi_unit, 2)
    subsets = 6
    passed = rep.uniform
    return CheckResult(
        "ame4-two-uniform", passed,
        "all 6 two-site reductions equal I/9 exactly",
        f"uniform={rep.uniform} over {subsets} subsets, "
        f"float deviation {rep.worst_deviation:.1e}")


def check_stabilizer_fixed_space(ctx: SuiteContext) -> CheckResult:
    n = ctx.conductor
    sub = stabilizer_subspace([catalog.xxx(3, 3, n), catalog.zzz(3, 3, n)])
    passed = sub.dimension == 3 and sub.span_equal(ctx.code)
    return CheckResult(
        "stabilizer-fixed-space", passed,
        "fixed space of X^x3, Z^x3 has dimension 3 and equals the code span",
        f"dimension={sub.dimension} span_equal={sub.span_equal(ctx.code)}")


def check_centralizer(ctx: SuiteContext) -> CheckResult:
    rep = centralizer_containment_check(ctx.conductor)
    return CheckResult(
        "centralizer-order-9", rep.ok,
        "closure of X^x3, Z^x3 has order 9, fixes the code basis pointwise, "
        "refactors with determinant-1 factors, and 648*9 = 5832",
        f"order={rep.order} fixes={rep.fixes_code_pointwise} "
        f"sl={rep.special_linear_factorable} commute={rep.generators_commute} "
        f"quotient={rep.order_matches_quotient}")


def check_weyl_order(ctx: SuiteContext) -> CheckResult:
    gens = weyl_generators(ctx.conductor)
    printed = catalog.weyl_generator_matrices(ctx.conductor)
    match = all(a == b for a, b in zip(gens, printed))
    w = root_of_unity(ctx.conductor // 3, ctx.conductor)
    spectra = []
    for g in gens:
        i3 = Matrix.identity(3, ctx.conductor)
        spectra.append(((g - i3) * (g - i3.scale(w))).is_zero()
                       and g.trace() == 2 + w)
    passed = ctx.weyl.order == 648 and match and all(spectra)
    return CheckResult(
        "weyl-group-648", passed,
        "reflection formula reproduces the closed-form generators entry for "
        "entry; closure has order 648; generators have eigenvalues {1,1,w}",
        f"order={ctx.weyl.order} entries_match={match} spectra_ok={all(spectra)}")


def check_coset_representatives(ctx: SuiteContext) -> CheckResult:
    rep = verify_coset_representatives(n=ctx.conductor)
    return CheckResult(
        "coset-representatives", rep.ok,
        "each representative restricts to its reflection exactly and has an "
        "exact special-unitary per-site factorization",
        f"restrictions={rep.restriction_matches} su_factors={rep.su_factor_checks}"
        + (f" mismatches={rep.mismatches}" if rep.mismatches else ""))


def check_transversal(ctx: SuiteContext) -> CheckResult:
    t = transversal_group(ctx.code, ctx.conductor)
    same = t.set_equal(ctx.weyl)
    passed = t.order == 648 and same
    return CheckResult(
        "transversal-group", passed,
        "closure of the code restrictions of the five lifts set-equals the "
        "648-element reflection group",
        f"order={t.order} set_equal={same}")


def check_local_symmetry(ctx: SuiteContext) -> CheckResult:
    rep = local_symmetry_report(ctx.conductor, sample_size=100, seed=ctx.seed)
    passed = (rep.operator_order == 5832 and rep.generators_fix_state
              and rep.all_elements_fix_state
              and rep.sample_has_restriction_form)
    return CheckResult(
        "local-symmetry-group", passed,
        "closure of the five generators has order 5832; all generators and "
        "elements fix the state exactly; sampled elements have the "
        "conj(code restriction) (x) normalizer-element form",
        f"operator_closure_order={rep.operator_order} "
        f"normalizer_order={rep.normalizer_order} "
        f"central_scalars={rep.scalar_kernel_order} "
        f"(operator_order x scalars = {rep.operator_order * rep.scalar_kernel_order}) "
        f"generators_fix={rep.generators_fix_state} "
        f"all_elements_fix={rep.all_elements_fix_state} "
        f"sampled_form_ok={rep.sample_has_restriction_form}")


def check_invariance(ctx: SuiteContext) -> CheckResult:
    gens = weyl_generators(ctx.conductor)
    inv_ok = [check_weyl_invariance(g, trials=INVARIANCE_TRIALS, seed=ctx.seed + i)
              for i, g in enumerate(gens)]
    rng = random.Random(ctx.seed + 99)
    homog_ok = True
    for _ in range(10):
        p = random_rational_point(ctx.conductor, rng)
        lam = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        lamc = Cyclotomic.from_rational(ctx.conductor, lam)
        t0, t1 = eval_invariants(p), eval_invariants(p.scale(lam))
        homog_ok &= (t1.i6 == lamc ** 6 * t0.i6 and t1.i9 == lamc ** 9 * t0.i9
                     and t1.i12 == lamc ** 12 * t0.i12)
    control = Matrix(ctx.conductor, [[2, 0, 0], [0, Fraction(1, 2), 0], [0, 0, 1]])
    control_fails = not check_weyl_invariance(control, trials=10, seed=ctx.seed)
    passed = all(inv_ok) and homog_ok and control_fails
    return CheckResult(
        "invariant-polynomials", passed,
        f"all three generators fix the degree 6/9/12 invariants at "
        f"{INVARIANCE_TRIALS} exact random points; homogeneity exact; "
        "a non-gate diagonal fails",
        f"generators={inv_ok} homogeneity={homog_ok} negative_control={control_fails}")


def check_correspondence(ctx: SuiteContext) -> CheckResult:
    r_code = roundtrip(ctx.code)
    r_state = roundtrip(ctx.phi_unit)
    lifted = purify_code(ctx.code)
    uniform = r_uniform_check(lifted, 2).uniform
    passed = (r_code.roundtrip_exact and r_state.roundtrip_exact
              and r_code.ame_verified and r_state.kl_verified and uniform)
    return CheckResult(
        "correspondence-roundtrip", passed,
        "code->state->code and state->code->state both recover their input "
        "exactly; the purified code is 2-uniform",
        f"code_roundtrip={r_code.roundtrip_exact} "
        f"state_roundtrip={r_state.roundtrip_exact} purified_2uniform={uniform}")


def check_code442(ctx: SuiteContext) -> CheckResult:
    code = catalog.code_442()
    rep = kl_check(code, 2)
    dist = distance(code)
    passed = (code.dimension == 4 and rep.is_code and rep.is_pure
              and dist == 2)
    return CheckResult(
        "code442-qubit", passed,
        "fixed space of X^x4, Z^x4 on qubits has dimension 4 and is a pure "
        "distance-2 code",
        f"dimension={code.dimension} is_code={rep.is_code} "
        f"is_pure={rep.is_pure} distance={dist}")


def check_kempf_ness(ctx: SuiteContext) -> CheckResult:
    phi = FloatState.from_exact(ctx.phi_unit)
    ineq = kempf_ness_inequality_test(phi, samples=INEQUALITY_SAMPLES,
                                      seed=ctx.seed, slack=KN_RATIO_SLACK)
    part_a = ineq.all_above_one and ineq.min_ratio >= 1 - KN_RATIO_SLACK

    rng = np.random.default_rng(ctx.seed)
    flows_ok = 0
    worst_gap = 0.0
    worst_resid = 0.0
    for _ in range(FLOW_STARTS):
        g = random_group_element(phi.dims, rng, scale=1.0)
        rep = norm_minimization_flow(apply_sitewise(g, phi),
                                     max_iters=5000, step=1.0, tol=FLOW_STOP_TOL)
        gap = abs(rep.final_norm_sq - phi.norm_sq())
        worst_gap = max(worst_gap, gap)
        worst_resid = max(worst_resid, rep.criticality_residual)
        if (rep.converged and rep.monotone
                and rep.criticality_residual < FLOW_RESIDUAL_TOL
                and gap <= FLOW_NORM_TOL):
            flows_ok += 1
    part_b = flows_ok == FLOW_STARTS

    grad = gradient_check(seed=ctx.seed, pairs=20)
    part_c = grad.max_rel_error <= GRADIENT_REL_TOL

    return CheckResult(
        "kempf-ness-properties", part_a and part_b and part_c,
        f"(a) {INEQUALITY_SAMPLES} sampled ratios >= 1 - {KN_RATIO_SLACK}; "
        f"(b) {FLOW_STARTS} seeded flows converge monotonically with residual "
        f"< {FLOW_RESIDUAL_TOL} and norm gap <= {FLOW_NORM_TOL}; "
        f"(c) gradient matches central differences within {GRADIENT_REL_TOL}",
        f"min_ratio={ineq.min_ratio:.12f} flows_ok={flows_ok}/{FLOW_STARTS} "
        f"worst_gap={worst_gap:.2e} worst_residual={worst_resid:.2e} "
        f"grad_rel_err={grad.max_rel_error:.2e}")


def check_criticality_equivalence(ctx: SuiteContext) -> CheckResult:
    rep = criticality_equivalence(EQUIVALENCE_STATES, seed=ctx.seed,
                                  tol=EQUIVALENCE_TOL)
    return CheckResult(
        "criticality-equivalence", rep.ok,
        f"both criticality residuals classify {EQUIVALENCE_STATES} seeded "
        f"states identically at tol {EQUIVALENCE_TOL}",
        f"agreements={rep.agreements}/{rep.count}"
        + (f" disagreements={rep.disagreements}" if rep.disagreements else ""))


SUITES = {
    "code332": [check_code332_kl, check_stabilizer_fixed_space, check_centralizer],
    "ame4": [check_ame_uniform],
    "correspondence": [check_correspondence],
    "weyl": [check_weyl_order, check_coset_representatives, check_transversal],
    "local-symmetry": [check_local_symmetry],
    "invariants": [check_invariance],
    "kempfness": [check_kempf_ness, check_criticality_equivalence],
    "code442-qubit": [check_code442],
}

SUITES["all"] = [
    check_code332_kl, check_ame_uniform, check_stabilizer_fixed_space,
    check_centralizer, check_weyl_order, check_coset_representatives,
    check_transversal, check_local_symmetry, check_invariance,
    check_correspondence, check_code442, check_kempf_ness,
    check_criticality_equivalence,
]


@dataclass
class SuiteReport:
    suite: str
    seed: int
    conductor: int
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def exit_status(self) -> int:
        return 0 if self.passed else 1

    def to_dict(self) -> dict:
        return {
            "schema": "amecode-report/1",
            "suite": self.suite,
            "seed": self.seed,
            "conductor": self.conductor,
            "passed": self.passed,
            "checks": [{
                "name": c.name,
                "status": c.status,
                "expected": c.expected,
                "actual": c.actual,
                "elapsed": round(c.elapsed, 6),
            } for c in self.checks],
        }


def run_suite(name: str, ctx: SuiteContext | None = None) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    ctx = ctx or SuiteContext()
    report = SuiteReport(name, ctx.seed, ctx.conductor)

    def timed(fn):
        t0 = time.perf_counter()
        result = fn(ctx)
        result.elapsed = time.perf_counter() - t0
        return result

    report.checks = [timed(fn) for fn in SUITES[name]]
    return report
