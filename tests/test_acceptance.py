"""Acceptance criteria, one test per criterion, each printing a pass/fail
line (run with -s or check the captured output on failure).

Criterion 8 checks that the five four-site symmetry generators generate the
local symmetry group and that this group is tied to the published order 5832
by a computed map (suites.check_local_symmetry_relation): the generators and
every element fix the state, the three-site normalizer has order 5832, and
A -> conj(mu(A)) (x) A, checked on every edge of the normalizer's Cayley
table, is a homomorphism onto the closure whose fibres have 3 elements and
whose kernel is the 3 central scalars w^k * I, so the closure has
5832 / 3 = 1944 elements.

The literal clause "the closure of the five generators has order 5832" is not
asserted here: a closure of product operators cannot have that order, since
the published count enumerates the normalizer, which collapses 3-to-1 onto
the operators.  `amecode suite all` and `amecode group
verify-local-symmetry` still assert that clause as published, report it red
and exit 1.
"""

import time

from amecode import suites


def _run(criterion, check):
    t0 = time.perf_counter()
    result = check(0)
    elapsed = time.perf_counter() - t0
    line = (f"criterion {criterion:02d} {'PASS' if result.passed else 'FAIL'} "
            f"[{result.name}] ({elapsed:.2f}s): {result.actual}")
    print(line)
    assert result.passed, line
    return result


def test_criterion_01_pure_code_332():
    _run(1, suites.check_code332_kl)


def test_criterion_02_state_is_ame():
    _run(2, suites.check_ame_uniform)


def test_criterion_03_stabilizer_fixed_space():
    _run(3, suites.check_stabilizer_fixed_space)


def test_criterion_04_centralizer_order_9():
    _run(4, suites.check_centralizer)


def test_criterion_05_weyl_group_order_648():
    _run(5, suites.check_weyl_order)


def test_criterion_06_coset_representatives():
    _run(6, suites.check_coset_representatives)


def test_criterion_07_transversal_equals_weyl():
    _run(7, suites.check_transversal)


def test_criterion_08_local_symmetry_group():
    # the published 5832 is checked through the computed 3-to-1 map from the
    # normalizer, not as the operator closure's order (which is 1944); the
    # suite's check_local_symmetry keeps the literal clause and stays red.
    # See the module docstring and README.
    _run(8, suites.check_local_symmetry_relation)


def test_criterion_09_invariants():
    _run(9, suites.check_invariance)


def test_criterion_10_correspondence_roundtrip():
    _run(10, suites.check_correspondence)


def test_criterion_11_four_qubit_code():
    _run(11, suites.check_code442)


def test_criterion_12_kempf_ness_properties():
    _run(12, suites.check_kempf_ness)


def test_criterion_13_criticality_equivalence():
    _run(13, suites.check_criticality_equivalence)
