"""The expected outcome of every benchmark operation.

This is the one table the benchmark checks results against.  An operation
whose outcome differs from it counts as failed.  Nothing here depends on
the seed: the seed chooses inputs, and every input of a workload has the
same expected outcome.
"""

from fractions import Fraction

# suite-all: the 13 checks of `amecode suite all`, in report order.
# local-symmetry-group is red by design (criterion 8 asserts the published
# 5832; the exact closure has 1944 elements), so "fail" is its correct outcome.
SUITE_CHECKS = {
    "code332-knill-laflamme": "pass",
    "ame4-two-uniform": "pass",
    "stabilizer-fixed-space": "pass",
    "centralizer-order-9": "pass",
    "weyl-group-648": "pass",
    "coset-representatives": "pass",
    "transversal-group": "pass",
    "local-symmetry-group": "fail",
    "invariant-polynomials": "pass",
    "correspondence-roundtrip": "pass",
    "code442-qubit": "pass",
    "kempf-ness-properties": "pass",
    "criticality-equivalence": "pass",
}
# Facts that must appear in the actual field of a check, as key=value.
SUITE_FACTS = {
    "local-symmetry-group": {"operator_closure_order": "1944",
                             "normalizer_order": "5832",
                             "all_elements_fix": "True"},
}
SUITE_EXIT = 1  # one check fails, so the CLI exits 1

# group-closure: the orders of the five closures, built cold.
GROUP_ORDERS = {
    "weyl_group": 648,
    "transversal_group": 648,
    "local_symmetry_group": 1944,
    "normalizer_group_332": 5832,
    "centralizer": 9,
}

# state-kernels
SYMMETRY_FIXES_STATE = True       # apply(g, phi) == phi for every sampled g
MU_IMAGE_IN_WEYL = True           # mu_matrix(A) lies in the 648-element group
KL = {                            # (code, d) -> (is_code, is_pure)
    ("code332", 2): (True, True),
    ("code332", 3): (False, False),
    ("code442", 2): (True, True),
    ("code442", 3): (False, False),
}
DISTANCE = {"code332": 2, "code442": 2}
TWO_UNIFORM = True                # r_uniform_check(phi, 2)
TWO_SITE_REDUCTION = Fraction(1, 9)  # every two-site reduction of an image of phi is I/9

# user-inputs: CLI exit codes (0 pass, 1 a check failed, 2 usage or input
# error) and the facts each command must print.
INGEST_EXIT = 0
INGEST_ROUNDTRIP_BIT_EXACT = True
CORRESPOND_EXIT = 0
CORRESPOND_FACTS = {"roundtrip_exact": True, "ame_verified": True,
                    "kl_verified": True}
CODE_KL_EXIT = 0
CODE_KL_FACTS = {"is_code": True, "is_pure": True}
INVARIANTS_EXIT = 0               # values must equal an independent Fraction oracle
KEMPFNESS_CRITICAL_EXIT = 0
KEMPFNESS_CRITICAL_FACTS = {"critical": True}
MALFORMED_EXIT = 2                # every malformed input is an input error
