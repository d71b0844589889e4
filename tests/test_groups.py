import random

import pytest

from amecode import catalog
from amecode.cyclo import Cyclotomic, root_of_unity
from amecode.groups import (ClosureCapExceeded, NotInNormalizer, closure,
                            centralizer_containment_check, fixes_state,
                            has_conjugate_restriction_form, local_symmetry_report,
                            mu_matrix, normalizer_group_332, reflection,
                            sl_factorable, transversal_group,
                            verify_coset_representatives, weyl_generators)
from amecode.linalg import Matrix
from amecode.tensor import LocalOperator, apply

N = 12


def test_closure_stabilizer_order_9():
    g = closure([catalog.xxx(3, 3, N), catalog.zzz(3, 3, N)], cap=90)
    assert g.order == 9
    for s in catalog.code_basis():
        assert all(apply(e, s) == s for e in g.elements)


def test_closure_identity():
    g = closure([LocalOperator.identity((3, 3, 3), N)], cap=10)
    assert g.order == 1


def test_closure_single_site_pauli():
    # phases xi^k times X^a Z^b: 3 * 9 = 27 matrices
    x = LocalOperator(N, 1, [catalog.pauli_x(3, N)])
    z = LocalOperator(N, 1, [catalog.pauli_z(3, N)])
    g = closure([x, z], cap=270)
    assert g.order == 27


def test_closure_cap():
    x = LocalOperator(N, 1, [catalog.pauli_x(3, N)])
    z = LocalOperator(N, 1, [catalog.pauli_z(3, N)])
    with pytest.raises(ClosureCapExceeded):
        closure([x, z], cap=10)


def test_closure_group_axioms(weyl):
    assert weyl.verify_closure(sample_size=200, seed=1)
    ident = Matrix.identity(3, N)
    assert ident in weyl


def test_reflection_formula():
    r1, r2, r3 = weyl_generators()
    p1, p2, p3 = catalog.weyl_generator_matrices()
    assert r1 == p1 and r2 == p2 and r3 == p3
    w = root_of_unity(4, N)
    assert r1 == Matrix(N, [[1, 0, 0], [0, 1, 0], [0, 0, w]])
    assert r3 == Matrix(N, [[1, 0, 0], [0, w, 0], [0, 0, 1]])
    # order-1 reflection is the identity
    assert reflection((0, 0, 1), 1, N).is_identity()
    with pytest.raises(ValueError):
        reflection((0, 0, 0), 3, N)


def test_reflection_spectra():
    # each generator is a complex reflection: eigenvalues {1, 1, w}
    w = root_of_unity(4, N)
    i3 = Matrix.identity(3, N)
    for r in weyl_generators():
        assert ((r - i3) * (r - i3.scale(w))).is_zero()
        assert r.trace() == 2 + w
        assert r.det() == w


def test_weyl_group_order(weyl):
    assert weyl.order == 648
    # the central scalar w*I is an element
    w = root_of_unity(4, N)
    assert Matrix.identity(3, N).scale(w) in weyl


def test_mu_matrix(code332):
    r = weyl_generators()
    q1, q2, q3 = catalog.coset_representatives()
    assert mu_matrix(q1, code332) == r[0]
    assert mu_matrix(q2, code332) == r[1]
    assert mu_matrix(q3, code332) == r[2]
    assert mu_matrix(catalog.xxx(3, 3, N), code332).is_identity()
    assert mu_matrix(LocalOperator.identity((3, 3, 3), N), code332).is_identity()
    x1 = catalog.pauli_product(3, N, [(1, 0), (0, 0), (0, 0)])
    with pytest.raises(NotInNormalizer):
        mu_matrix(x1, code332)


def test_verify_coset_representatives():
    rep = verify_coset_representatives()
    assert rep.ok
    assert rep.restriction_matches == [True, True, True]
    assert rep.su_factor_checks == [True, True, True]


def test_coset_su_factors_exact():
    # independent oracle: determinant and unitarity of each factor at 36
    for trip, q in zip(catalog.coset_representative_su_factors(),
                       catalog.coset_representatives()):
        rebuilt = LocalOperator(36, 1, list(trip))
        assert rebuilt == q.embed(36)
        for f in trip:
            assert f.det() == Cyclotomic.one(36)
            assert (f.dagger() * f).is_identity()


def test_verify_cosets_negative_control():
    q1, q2, q3 = catalog.coset_representatives()
    w = root_of_unity(4, N)
    rows = [list(r) for r in q2.factors[1].rows]
    rows[0][1] = rows[0][1] * w
    bad = LocalOperator(N, q2.scalar, [q2.factors[0], Matrix(N, rows), q2.factors[2]],
                        _canonical=False)
    rep = verify_coset_representatives(reps=(q1, bad, q3))
    assert not rep.ok
    assert any("rep 2" in m for m in rep.mismatches)


def test_transversal_group(code332, weyl):
    t = transversal_group(code332)
    assert t.order == 648
    assert t.set_equal(weyl)
    # stabilizer elements restrict to the identity gate
    assert mu_matrix(catalog.zzz(3, 3, N), code332).is_identity()


def test_local_symmetry_generators_published_form():
    g1, g2, g3, g4, g5 = catalog.local_symmetry_generators()
    ident = Matrix.identity(3, N)
    assert g1 == LocalOperator(N, 1, [ident, catalog.pauli_x(3, N),
                                      catalog.pauli_x(3, N), catalog.pauli_x(3, N)])
    assert g2.factors[0].is_identity()
    phi = catalog.ame_state(normalized=False)
    for g in (g1, g2, g3, g4, g5):
        assert fixes_state(g, phi)
        assert g.is_unitary()


def test_local_symmetry_group_structure(local_sym, code332):
    # the operator closure and its 3-to-1 relation to the normalizer
    assert local_sym.order == 1944
    norm = normalizer_group_332()
    assert norm.order == 5832
    w = root_of_unity(4, N)
    ident3 = Matrix.identity(3, N)
    scalars = [LocalOperator(N, w ** k, [ident3] * 3) for k in range(3)]
    assert all(s in norm for s in scalars)
    assert local_sym.order * 3 == norm.order


def test_local_symmetry_elements_fix_state(local_sym, phi_rowform):
    sample = local_sym.sample(100, seed=7)
    assert all(fixes_state(g, phi_rowform) for g in sample)


def test_local_symmetry_conjugate_restriction_form(local_sym, code332):
    sample = local_sym.sample(40, seed=5)
    for g in sample:
        assert has_conjugate_restriction_form(g, code332) is not None
    # a product operator that is not a symmetry lacks the form
    x1 = LocalOperator(N, 1, [catalog.pauli_x(3, N), Matrix.identity(3, N),
                              Matrix.identity(3, N), Matrix.identity(3, N)])
    assert has_conjugate_restriction_form(x1, code332) is None


def test_local_symmetry_report():
    rep = local_symmetry_report(sample_size=50, seed=3)
    assert rep.operator_order == 1944
    assert rep.normalizer_order == 5832
    assert rep.scalar_kernel_order == 3
    assert rep.orders_consistent
    assert rep.generators_fix_state
    assert rep.all_elements_fix_state is True
    assert rep.sample_has_restriction_form


def test_centralizer_containment():
    rep = centralizer_containment_check()
    assert rep.ok
    assert rep.order == 9
    x3, z3 = catalog.xxx(3, 3, N), catalog.zzz(3, 3, N)
    assert x3 * z3 == z3 * x3  # xi^3 = 1 makes the tensor cubes commute


def test_sl_factorable():
    assert sl_factorable(catalog.xxx(3, 3, N))
    assert sl_factorable(catalog.zzz(3, 3, N))
    for q in catalog.coset_representatives():
        assert sl_factorable(q)
    w = root_of_unity(4, N)
    ident3 = Matrix.identity(3, N)
    assert sl_factorable(LocalOperator(N, w, [ident3] * 3))  # w^3 = 1
    z12 = root_of_unity(1, N)
    assert not sl_factorable(LocalOperator(N, z12, [ident3] * 3))


def test_canonicalization_idempotent_on_products():
    rng = random.Random(11)
    gens = catalog.local_symmetry_generators()
    cur = gens[0]
    for _ in range(30):
        cur = cur * gens[rng.randrange(len(gens))]
        again = LocalOperator(cur.n, cur.scalar, cur.factors)
        assert again == cur
