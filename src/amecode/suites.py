"""Named verification suites.

Each check pins its tolerance here, decides its verdict from the facts the
library computes, and returns a CheckResult; the CLI and the test suite
share these implementations.  A check takes only the run's seed, so a
report is reproducible byte-for-byte up to its timing fields.  Every exact
object lives in Q(zeta_12), the field of CONDUCTOR: each check asks catalog
and groups for the fixed objects it reads (the code, the state, the
reflections and their group) at that conductor, and those builders make
each one once in a process, closing each group under its own fixed cap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import catalog
from .correspondence import roundtrip
from .cyclo import root_of_unity
from .groups import (centralizer_containment_check, local_symmetry_report,
                     transversal_group, verify_coset_representatives,
                     weyl_generators, weyl_group)
from .invariants import check_weyl_invariance, is_homogeneous
from .kempfness import (FloatState, _apply_stack, criticality_equivalence,
                        gradient_check, kempf_ness_inequality_test,
                        norm_minimization_flows, random_group_elements)
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
FLOW_STARTS = 20
INEQUALITY_SAMPLES = 1000
EQUIVALENCE_STATES = 100
CONDUCTOR = 12                 # the field of every exact object checked


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


def check_code332_kl(seed: int) -> CheckResult:
    errors = pauli_error_basis(3, 3, 1, conductor=CONDUCTOR)
    code = catalog.code_332(CONDUCTOR)
    r2 = kl_check(code, 2)
    r3 = kl_check(code, 3)
    dist = distance(code)
    passed = (len(errors) == 25 and r2.is_code and r2.is_pure
              and not r3.is_code and dist == 2
              and singleton_check(3, 3, 2, 3))
    return CheckResult(
        "code332-knill-laflamme", passed,
        "pure at d=2 over the 25 weight<=1 errors; fails at d=3; distance 2",
        f"sweep={len(errors)} d2: code={r2.is_code} pure={r2.is_pure}; "
        f"d3: code={r3.is_code} ({len(r3.violations)} violations); "
        f"distance={dist}", 0.0)


def check_ame_uniform(seed: int) -> CheckResult:
    rep = r_uniform_check(catalog.ame_state(CONDUCTOR), 2)
    subsets = 6
    passed = rep.uniform
    return CheckResult(
        "ame4-two-uniform", passed,
        "all 6 two-site reductions equal I/9 exactly",
        f"uniform={rep.uniform} over {subsets} subsets, "
        f"float deviation {rep.worst_deviation:.1e}")


def check_stabilizer_fixed_space(seed: int) -> CheckResult:
    sub = stabilizer_subspace([catalog.xxx(3, 3, CONDUCTOR), catalog.zzz(3, 3, CONDUCTOR)])
    same = sub.span_equal(catalog.code_332(CONDUCTOR))
    return CheckResult(
        "stabilizer-fixed-space", sub.dimension == 3 and same,
        "fixed space of X^x3, Z^x3 has dimension 3 and equals the code span",
        f"dimension={sub.dimension} span_equal={same}")


def _sizes(sizes) -> str:
    return ",".join(map(str, sizes)) or "none"


def check_centralizer(seed: int) -> CheckResult:
    rep = centralizer_containment_check(CONDUCTOR)
    passed = (rep.order == 9 and rep.fixes_code_pointwise and rep.special_linear_factorable
              and rep.generators_commute and rep.mu_is_homomorphism
              and rep.mu_image_order == rep.weyl_order and rep.kernel_is_centralizer)
    return CheckResult(
        "centralizer-order-9", passed,
        "closure of X^x3, Z^x3 has order 9, fixes the code basis pointwise, "
        "refactors with determinant-1 factors, and is the kernel of the code "
        "restriction mu, a homomorphism from the normalizer onto the "
        "reflection group",
        f"order={rep.order} fixes={rep.fixes_code_pointwise} "
        f"sl={rep.special_linear_factorable} commute={rep.generators_commute} "
        f"mu_homomorphism={rep.mu_is_homomorphism} "
        f"mu_image={rep.mu_image_order}/{rep.weyl_order} "
        f"fibres={_sizes(rep.mu_fibre_sizes)} kernel_is_centralizer={rep.kernel_is_centralizer}")


def check_weyl_order(seed: int) -> CheckResult:
    gens = weyl_generators(CONDUCTOR)
    printed = catalog.weyl_generator_matrices(CONDUCTOR)
    match = all(a == b for a, b in zip(gens, printed))
    w = root_of_unity(CONDUCTOR // 3, CONDUCTOR)
    spectra = []
    for g in gens:
        i3 = Matrix.identity(3, CONDUCTOR)
        spectra.append(((g - i3) * (g - i3.scale(w))).is_zero()
                       and g.trace() == 2 + w)
    order = weyl_group(CONDUCTOR).order
    return CheckResult(
        "weyl-group-648", order == 648 and match and all(spectra),
        "reflection formula reproduces the closed-form generators entry for "
        "entry; closure has order 648; generators have eigenvalues {1,1,w}",
        f"order={order} entries_match={match} spectra_ok={all(spectra)}")


def check_coset_representatives(seed: int) -> CheckResult:
    rep = verify_coset_representatives(CONDUCTOR)
    return CheckResult(
        "coset-representatives",
        all(rep.restriction_matches) and all(rep.su_factor_checks),
        "each representative restricts to its reflection exactly and has an "
        "exact special-unitary per-site factorization",
        f"restrictions={rep.restriction_matches} su_factors={rep.su_factor_checks}"
        + (f" mismatches={rep.mismatches}" if rep.mismatches else ""))


def check_transversal(seed: int) -> CheckResult:
    t = transversal_group(CONDUCTOR)
    same = t.set_equal(weyl_group(CONDUCTOR))
    return CheckResult(
        "transversal-group", t.order == 648 and same,
        "closure of the code restrictions of the five lifts set-equals the "
        "648-element reflection group",
        f"order={t.order} set_equal={same}")


_LOCAL_SYMMETRY_CLAUSES = (
    "all generators and elements fix the state exactly; A -> conj(mu(A)) (x) A "
    "is a homomorphism from the normalizer onto the closure whose kernel is "
    "the 3 central scalars")


def _local_symmetry_actual(rep) -> str:
    """The facts of a local-symmetry report, as both checks print them."""
    return (f"operator_closure_order={rep.operator_order} "
            f"normalizer_order={rep.normalizer_order} "
            f"lift_homomorphism={rep.lift_is_homomorphism} "
            f"image_order={rep.image_order} fibres={_sizes(rep.fibre_sizes)} "
            f"kernel_is_scalars={rep.kernel_is_scalars} "
            f"generators_fix={rep.generators_fix_state} "
            f"all_elements_fix={rep.all_elements_fix_state}")


def _local_symmetry_holds(rep) -> bool:
    return (rep.generators_fix_state and rep.all_elements_fix_state and rep.lift_is_homomorphism
            and rep.image_order == rep.operator_order and rep.kernel_is_scalars)


def check_local_symmetry(seed: int) -> CheckResult:
    rep = local_symmetry_report(CONDUCTOR)
    return CheckResult(
        "local-symmetry-group",
        rep.operator_order == 5832 and _local_symmetry_holds(rep),
        "closure of the five generators has order 5832; " + _LOCAL_SYMMETRY_CLAUSES,
        _local_symmetry_actual(rep))


def check_local_symmetry_relation(seed: int) -> CheckResult:
    """The structural clauses of the local-symmetry check, with the published
    5832 tied to the closure by the computed 3-to-1 map from the normalizer
    (see groups.local_symmetry_report) instead of asserted as the closure's
    own order.  Not part of any suite: the acceptance tests run it, while
    `suite all` keeps check_local_symmetry with the literal order clause."""
    rep = local_symmetry_report(CONDUCTOR)
    return CheckResult(
        "local-symmetry-relation",
        (rep.normalizer_order == 5832 and rep.fibre_sizes == (3,)
         and _local_symmetry_holds(rep)),
        _LOCAL_SYMMETRY_CLAUSES + "; the normalizer has order 5832 and every "
        "fibre has 3 elements, so the closure has order 5832 / 3",
        _local_symmetry_actual(rep))


def check_invariance(seed: int) -> CheckResult:
    inv_ok = [check_weyl_invariance(g) for g in weyl_generators(CONDUCTOR)]
    homog_ok = is_homogeneous()
    control = Matrix(CONDUCTOR, [[2, 0, 0], [0, Fraction(1, 2), 0], [0, 0, 1]])
    control_fails = not check_weyl_invariance(control)
    passed = all(inv_ok) and homog_ok and control_fails
    return CheckResult(
        "invariant-polynomials", passed,
        "all three generators fix the degree 6/9/12 invariants at the 91 "
        "points of a+b+c = 12; homogeneity exact at the 35 points of "
        "i+j+k <= 4 in the cubes; a non-gate diagonal fails",
        f"generators={inv_ok} homogeneity={homog_ok} negative_control={control_fails}")


def check_correspondence(seed: int) -> CheckResult:
    # the code's round trip decides the purified state's 2-uniformity
    r_code = roundtrip(catalog.code_332(CONDUCTOR))
    r_state = roundtrip(catalog.ame_state(CONDUCTOR))
    passed = (r_code.roundtrip_exact and r_state.roundtrip_exact
              and r_code.ame_verified and r_state.kl_verified)
    return CheckResult(
        "correspondence-roundtrip", passed,
        "code->state->code and state->code->state both recover their input "
        "exactly; the purified code is 2-uniform",
        f"code_roundtrip={r_code.roundtrip_exact} "
        f"state_roundtrip={r_state.roundtrip_exact} "
        f"purified_2uniform={r_code.ame_verified}")


def check_code442(seed: int) -> CheckResult:
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


def check_kempf_ness(seed: int) -> CheckResult:
    phi = FloatState.from_exact(catalog.ame_state(CONDUCTOR))
    ineq = kempf_ness_inequality_test(phi, samples=INEQUALITY_SAMPLES,
                                      seed=seed, slack=KN_RATIO_SLACK)
    part_a = ineq.all_above_one and ineq.min_ratio >= 1 - KN_RATIO_SLACK

    gs = random_group_elements(phi.dims, np.random.default_rng(seed), FLOW_STARTS)
    starts = [FloatState(phi.dims, row) for row in
              _apply_stack(gs, phi.tensor()[None]).reshape(FLOW_STARTS, -1)]
    flows_ok = 0
    worst_gap = 0.0
    worst_resid = 0.0
    for rep in norm_minimization_flows(starts, max_iters=5000, step=1.0,
                                       tol=FLOW_STOP_TOL):
        gap = abs(rep.final_norm_sq - phi.norm_sq())
        worst_gap = max(worst_gap, gap)
        worst_resid = max(worst_resid, rep.criticality_residual)
        if (rep.converged and rep.monotone
                and rep.criticality_residual < FLOW_RESIDUAL_TOL
                and gap <= FLOW_NORM_TOL):
            flows_ok += 1
    part_b = flows_ok == FLOW_STARTS

    grad = gradient_check(seed=seed, pairs=20)
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


def check_criticality_equivalence(seed: int) -> CheckResult:
    rep = criticality_equivalence(EQUIVALENCE_STATES, seed=seed,
                                  tol=EQUIVALENCE_TOL)
    return CheckResult(
        "criticality-equivalence", rep.agreements == rep.count,
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
            "conductor": CONDUCTOR,
            "passed": self.passed,
            "checks": [{
                "name": c.name,
                "status": c.status,
                "expected": c.expected,
                "actual": c.actual,
                "elapsed": round(c.elapsed, 6),
            } for c in self.checks],
        }


def run_suite(name: str, seed: int = 0) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    report = SuiteReport(name, seed)

    def timed(fn):
        t0 = time.perf_counter()
        result = fn(seed)
        result.elapsed = time.perf_counter() - t0
        return result

    report.checks = [timed(fn) for fn in SUITES[name]]
    return report
