import functools
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import numpy as np
import pytest

from amecode import catalog, groups, suites, tensor
from amecode.cyclo import Cyclotomic, root_of_unity
from amecode.groups import (ClosureCapExceeded, GeneratorTypeError, NotInNormalizer, closure,
                            centralizer_containment_check, homomorphism,
                            image_fibres_kernel, local_symmetry_group,
                            local_symmetry_report, mu_matrix,
                            normalizer_group_332, reflection,
                            sl_factorable, transversal_group,
                            verify_coset_representatives, weyl_generators, weyl_group)
from amecode.linalg import Matrix, _matmul
from amecode.tensor import DimensionMismatch, LocalOperator, apply, fixed_by

N = 12


def _reference_closure(generators, cap):
    """Breadth-first closure over the elements themselves, multiplied with
    Matrix.__mul__ or LocalOperator.__mul__: the reference for the batched
    integer search."""
    gens = list(generators)
    elements = {gens[0] * gens[0].inv(): None}
    frontier = []
    for g in gens:
        if g not in elements:
            elements[g] = None
            frontier.append(g)
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                p = h * g
                if p not in elements:
                    if len(elements) >= cap:
                        raise ClosureCapExceeded(f"closure exceeded cap {cap}")
                    elements[p] = None
                    nxt.append(p)
        frontier = nxt
    return tuple(elements)


def _conjugated_monomials(p_rows):
    """P^-1 M P for M the cyclic shift and diag(w, 1, 1): a dense group of
    order 81 whose entries have the denominators and sizes P gives them."""
    w = root_of_unity(4, N)
    shift = Matrix(N, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    phase = Matrix(N, [[w, 0, 0], [0, 1, 0], [0, 0, 1]])
    p = Matrix(N, p_rows)
    return [p.inv() * m * p for m in (shift, phase)]


def _den(m: Matrix) -> int:
    return lcm(*(e.den for row in m.rows for e in row))


def _numerator_bits(m: Matrix) -> int:
    return max(abs(c) for row in m.rows for e in row for c in e.coeffs).bit_length()


# the products of these generators need denominator 4, their own lcm is 2
GROWING = ((-2, -2, 0), (-1, 1, -3), (-1, 1, -1))
# generator numerators near 2**61: every product sum needs Python ints
HUGE = ((1, 2 ** 60 - 1, 0), (0, 1, 0), (0, 0, 1))


def _pauli_generators(d: int, sites: int) -> list:
    """X and Z of dimension d on each of the sites, site by site."""
    ident = Matrix.identity(d, N)
    gens = []
    for k in range(sites):
        for m in (catalog.pauli_x(d, N), catalog.pauli_z(d, N)):
            factors = [ident] * sites
            factors[k] = m
            gens.append(LocalOperator(N, 1, factors))
    return gens


@pytest.mark.parametrize("build", [
    lambda: closure([catalog.xxx(3, 3, N), catalog.zzz(3, 3, N)], cap=90),
    lambda: closure(_pauli_generators(3, 2), cap=2430),
    local_symmetry_group,
    normalizer_group_332,
    weyl_group,
    transversal_group,
    lambda: closure(_conjugated_monomials(GROWING), cap=810),
    lambda: closure(_conjugated_monomials(HUGE), cap=810),
    lambda: closure([LocalOperator(N, 1, [catalog.pauli_x(2, N), catalog.pauli_z(3, N)]),
                     LocalOperator(N, 1, [catalog.pauli_z(2, N), catalog.pauli_x(3, N)])],
                    cap=400),
], ids=["centralizer-9", "pauli-3-2", "local-symmetry-1944", "normalizer-5832",
        "weyl-648", "transversal-648", "dense-growing-denominator", "dense-huge-numerators",
        "mixed-dims-2-3"])
def test_closure_matches_reference(build):
    g = build()
    # capped at the order, the reference also fails if it finds more elements
    assert g.elements == _reference_closure(g.generators, g.order)


def _digest(elements) -> str:
    """sha256 of the elements in order, each written out as the exact
    integers of its canonical form: equal digests mean equal tuples."""
    h = hashlib.sha256()
    for e in elements:
        cells = [e.scalar] + [c for f in e.factors for row in f.rows for c in row]
        h.update(repr([(c.den, c.coeffs) for c in cells]).encode())
    return h.hexdigest()


def _capped_user_closure():
    """A user closure at conductor 12 that interns factors and scalars of
    the paper's groups, and more, before it exceeds its cap."""
    diag = Matrix(N, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    grow = LocalOperator(N, 1, [diag, catalog.pauli_z(3, N), Matrix.identity(3, N)])
    with pytest.raises(ClosureCapExceeded):
        closure([catalog.xxx(3, 3, N), grow], cap=200)


BUILD_IN_ORDER = """
import json, sys
sys.path.insert(0, sys.argv[1])
import test_groups as t
from amecode import groups
built = {"capped": t._capped_user_closure, "5832": groups.normalizer_group_332,
         "1944": groups.local_symmetry_group}
print(json.dumps({name: [g.table.tolist(), t._digest(g.elements)] for name in sys.argv[2:]
                  if (g := built[name]()) is not None}))
"""


@pytest.mark.parametrize("order", [("5832", "1944"), ("1944", "5832"),
                                   ("capped", "5832", "1944")],
                         ids=["5832-first", "1944-first", "after-capped-user-closure"])
def test_shared_operator_table_is_order_independent(order, local_sym):
    """Product-operator closures share one table per conductor, so the ids
    a fresh process gives depend on what it closed first; the groups must
    not."""
    here = Path(__file__).resolve().parent
    src = str(here.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", BUILD_IN_ORDER, str(here), *order],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr[-2000:]
    built = json.loads(proc.stdout)
    assert built.keys() == {"5832", "1944"}
    for name, group in (("5832", normalizer_group_332()), ("1944", local_sym)):
        table, elements = built[name]
        assert np.array_equal(np.array(table), group.table)
        assert elements == _digest(group.elements)


def _reference_scalar_products(table, a, b):
    """_ProductTable._scalar_products read once per product: the missing
    pairs filled in ascending order, then one dict read per product."""
    pairs = (b.astype(np.int64) << 32) | a
    flat, mul, scalars = pairs.ravel().tolist(), table._scalar_mul, table.scalars
    for ab in sorted(set(flat).difference(mul)):
        mul[ab] = table._scalar_id(scalars[ab & groups._LOW] * scalars[ab >> 32])
    return np.array(list(map(mul.__getitem__, flat)), dtype=np.int32).reshape(pairs.shape)


def _reference_fill_factors(table, pairs):
    """_ProductTable._fill_factors with one lead, inverse action and scalar
    id per factor pair."""
    x, dens = table.factors.x, table.factors.den
    right = [table._actions[table._columns[b]] for _, b in pairs]
    left = np.stack([x[a] for a, _ in pairs])
    p = _matmul(left.reshape(*left.shape[:2], -1), np.stack([r[0] for r in right]),
                max(r[1] for r in right))
    d = p.shape[1]
    p = p.reshape(len(pairs), d * d, -1)
    dens = [dens[a] * dens[b] for a, b in pairs]
    first = np.abs(p).max(axis=2).astype(bool).argmax(axis=1).tolist()
    leads = [Cyclotomic(table.n, p[k, j].tolist(), den)
             for k, (j, den) in enumerate(zip(first, dens))]
    acts, inv_dens, bounds, _ = zip(*map(table._inverse_action, leads))
    q = _matmul(p, np.stack(acts), max(bounds))
    ids = table.factors(q.reshape(len(pairs), d, d, -1),
                        [den * e for den, e in zip(dens, inv_dens)])
    for (a, b), c, i in zip(pairs, leads, ids):
        table._factor_mul[a, table._columns[b]] = (table._scalar_id(c), i)


# the four closures of the paper and the centralizer, each built by closure
# itself (weyl_group and normalizer_group_332 cache their results)
PAPER_CLOSURES = (
    lambda: closure(weyl_generators(N), cap=6480),
    lambda: transversal_group(N),
    lambda: local_symmetry_group(N),
    lambda: closure([catalog.xxx(3, 3, N), catalog.zzz(3, 3, N),
                     *catalog.coset_representatives(N)], cap=58320),
    lambda: closure([catalog.xxx(3, 3, N), catalog.zzz(3, 3, N)], cap=90),
)


def _thin_operator():
    return LocalOperator(N, 1, [Matrix(N, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])])


def _fill_fresh_table(monkeypatch, order):
    """A fresh conductor-12 operator table after the paper closures in the
    given order, then a thin closure to its cap: (table, groups built)."""
    table = groups._ProductTable(N)
    monkeypatch.setattr(groups, "_product_table", lambda n: table)
    built = [PAPER_CLOSURES[k]() for k in order]
    with pytest.raises(ClosureCapExceeded):
        closure([_thin_operator()], cap=200)
    return table, built


@pytest.mark.parametrize("order", [(0, 1, 2, 3, 4), (4, 3, 2, 1, 0)],
                         ids=["paper-first", "centralizer-first"])
def test_operator_table_matches_per_product_reference(monkeypatch, order):
    """Looking scalar pairs and factor leads up once per distinct value
    fills the shared table exactly as one lookup per product does."""
    sides = []
    for reference in (True, False):
        with monkeypatch.context() as m:
            if reference:
                m.setattr(groups._ProductTable, "_scalar_products", _reference_scalar_products)
                m.setattr(groups._ProductTable, "_fill_factors", _reference_fill_factors)
            sides.append(_fill_fresh_table(m, order))
    (ref, ref_groups), (new, new_groups) = sides
    assert new.scalars == ref.scalars
    assert new._scalar_mul == ref._scalar_mul
    assert new.factors._ids == ref.factors._ids and new.factors.den == ref.factors.den
    assert all(np.array_equal(a, b) for a, b in zip(new.factors.x, ref.factors.x))
    assert new._columns == ref._columns
    assert np.array_equal(new._factor_mul, ref._factor_mul)
    for g, h in zip(new_groups, ref_groups):
        assert np.array_equal(g.table, h.table) and np.array_equal(g.codes, h.codes)


class _CountingDict(dict):
    """A dict that counts its reads per key."""

    def __init__(self):
        super().__init__()
        self.reads = {}

    def _read(self, key):
        self.reads[key] = self.reads.get(key, 0) + 1

    def get(self, key, default=None):
        self._read(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self._read(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self._read(key)
        return super().__contains__(key)


def test_closure_looks_up_each_distinct_scalar_pair_and_lead_once(monkeypatch):
    table = groups._ProductTable(N)
    table._scalar_mul = _CountingDict()
    monkeypatch.setattr(groups, "_product_table", lambda n: table)
    scalar_calls, lead_calls, leads = [], [], []
    scalar_products, fill_factors = table._scalar_products, table._fill_factors

    def counted_scalars(a, b):
        table._scalar_mul.reads.clear()
        out = scalar_products(a, b)
        pairs = set(((b.astype(np.int64) << 32) | a).ravel().tolist())
        scalar_calls.append((dict(table._scalar_mul.reads), pairs))
        return out

    def counted_factors(pairs):
        leads.clear()
        fill_factors(pairs)
        lead_calls.append((list(leads), len(pairs)))

    def counting_cyclotomic(n, coeffs, den=1):
        leads.append((den, *coeffs))
        return Cyclotomic(n, coeffs, den)

    monkeypatch.setattr(table, "_scalar_products", counted_scalars)
    monkeypatch.setattr(table, "_fill_factors", counted_factors)
    monkeypatch.setattr(groups, "Cyclotomic", counting_cyclotomic)
    x3, z3 = catalog.xxx(3, 3, N), catalog.zzz(3, 3, N)
    assert closure([x3, z3, *catalog.coset_representatives(N)], cap=58320).order == 5832
    assert scalar_calls and lead_calls
    for reads, pairs in scalar_calls:
        assert reads.keys() <= pairs and max(reads.values(), default=0) <= 1
    # one Cyclotomic per distinct (den, numerators) of a call's leads
    for built, n_pairs in lead_calls:
        assert 0 < len(built) == len(set(built)) <= n_pairs
    # the normalizer's products have far fewer distinct leads than pairs
    assert sum(len(b) for b, _ in lead_calls) < sum(n for _, n in lead_calls) // 10


def test_set_equal_compares_codes(weyl, local_sym):
    t = transversal_group()
    assert t.set_equal(weyl) and weyl.set_equal(t)
    assert "elements" not in vars(t)
    x3, z3 = catalog.xxx(3, 3, N), catalog.zzz(3, 3, N)
    c, swapped = closure([x3, z3], cap=90), closure([z3, x3], cap=90)
    assert c.set_equal(swapped) and not c.set_equal(normalizer_group_332())
    assert not c.set_equal(weyl) and not weyl.set_equal(c) and not c.set_equal(local_sym)
    # a subgroup of the reflection group differs from it
    assert not closure(weyl_generators(N)[:1], cap=30).set_equal(weyl)
    # Q(zeta_8) has degree 4 too: the same numerators over another field
    # are other matrices
    assert not closure([Matrix(N, [[0, 1], [1, 0]])], cap=4).set_equal(
        closure([Matrix(8, [[0, 1], [1, 0]])], cap=4))
    # dense gates and the same gates as one-site operators share the table,
    # and their codes, but are not the same elements
    assert weyl.codec is local_sym.codec
    one_site = closure([LocalOperator(N, 1, [g]) for g in weyl_generators(N)], cap=6480)
    dense = closure(weyl_generators(N), cap=6480)
    assert one_site.order == dense.order == 648
    assert not dense.set_equal(one_site) and not one_site.set_equal(dense)


def test_dense_closure_grows_and_widens():
    grow = closure(_conjugated_monomials(GROWING), cap=810)
    assert grow.order == 81
    assert lcm(*map(_den, grow.generators)) == 2
    assert lcm(*map(_den, grow.elements)) == 4
    huge = closure(_conjugated_monomials(HUGE), cap=810)
    assert huge.order == 81
    assert max(map(_numerator_bits, huge.generators)) == 61
    assert max(map(_numerator_bits, huge.elements)) > 64


def test_row_keys_of_large_rows_spread_their_hashes():
    # Python hashes an int modulo 2**61 - 1, so without their bit lengths
    # the rows (2**k, 0, 0, 0) past int64 would share 61 hashes
    rows = np.array([[2 ** k, 0, 0, 0] for k in range(64, 5000)], dtype=object)
    keys = groups._row_keys(rows)
    assert len(set(keys)) == len({hash(key) for key in keys}) == 4936
    assert groups._row_keys(rows.copy()) == keys


@pytest.mark.parametrize("k", [2, Fraction(1, 2)], ids=["diag-2", "diag-half"])
def test_dense_closure_cap_matches_reference(k):
    gens = [Matrix(N, [[k, 0, 0], [0, 1, 0], [0, 0, 1]])]
    with pytest.raises(ClosureCapExceeded, match="cap 12"):
        closure(gens, cap=12)
    with pytest.raises(ClosureCapExceeded, match="cap 12"):
        _reference_closure(gens, 12)


def test_closure_rejects_infinite_and_mismatched_operators():
    diag = Matrix(N, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    grow = LocalOperator(N, root_of_unity(1, N), [diag])
    with pytest.raises(ClosureCapExceeded, match="cap 40"):
        closure([grow], cap=40)
    with pytest.raises(ClosureCapExceeded, match="cap 40"):
        _reference_closure([grow], 40)
    x = catalog.pauli_x(3, N)
    with pytest.raises(DimensionMismatch):
        closure([LocalOperator(N, 1, [x, x]), LocalOperator(N, 1, [x, x, x])])
    with pytest.raises(DimensionMismatch):
        closure([LocalOperator(N, 1, [x]), LocalOperator(N, 1, [x]).embed(24)])


def test_closure_rejects_mismatched_generators():
    x = catalog.pauli_x(3, N)
    with pytest.raises(GeneratorTypeError, match="PureState"):
        closure([catalog.ame_state()])
    with pytest.raises(GeneratorTypeError):
        closure([x, LocalOperator(N, 1, [x])])
    with pytest.raises(GeneratorTypeError):
        closure([LocalOperator(N, 1, [x]), x])
    with pytest.raises(DimensionMismatch):
        closure([x, catalog.pauli_x(2, N)])
    with pytest.raises(DimensionMismatch):
        closure([x, Matrix(24, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])])
    with pytest.raises(DimensionMismatch):
        closure([Matrix(N, [[1, 0, 0], [0, 1, 0]])])


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
    # an empty selection of unbuilt dense elements builds nothing
    assert closure(weyl_generators(N)[:1], cap=30).elements_at([]) == []


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
    assert rep.restriction_matches == [True, True, True]
    assert rep.su_factor_checks == [True, True, True]
    assert rep.mismatches == []


def test_coset_representatives_at_other_conductors():
    # the special-unitary factors are built at lcm(n, 36), so 24 needs no 36 | n
    for n in (24, 72):
        rep = groups.verify_coset_representatives(n=n)
        assert rep.restriction_matches == rep.su_factor_checks == [True, True, True]
        assert rep.mismatches == []


def test_fixed_objects_are_built_once_per_process():
    assert catalog.ame_state() is catalog.ame_state(12)
    assert catalog.code_basis() == catalog.code_basis(12)
    assert all(a is b for a, b in zip(catalog.code_basis(), catalog.code_basis(12)))
    assert groups.weyl_generators() is groups.weyl_generators(12)
    assert weyl_group() is weyl_group(12)
    assert normalizer_group_332() is normalizer_group_332(12)


def test_coset_su_factors_exact():
    # independent oracle: determinant and unitarity of each factor at 36
    for trip, q in zip(catalog.coset_representative_su_factors(),
                       catalog.coset_representatives()):
        rebuilt = LocalOperator(36, 1, list(trip))
        assert rebuilt == q.embed(36)
        for f in trip:
            assert f.det() == Cyclotomic.one(36)
            assert (f.dagger() * f).is_identity()


def test_verify_cosets_negative_control(monkeypatch):
    q1, q2, q3 = catalog.coset_representatives()
    w = root_of_unity(4, N)
    rows = [list(r) for r in q2.factors[1].rows]
    rows[0][1] = rows[0][1] * w
    bad = LocalOperator(N, q2.scalar, [q2.factors[0], Matrix(N, rows), q2.factors[2]],
                        _canonical=False)
    monkeypatch.setattr(catalog, "coset_representatives", lambda n: (q1, bad, q3))
    rep = verify_coset_representatives()
    assert rep.restriction_matches == [True, False, True]
    assert any("rep 2" in m for m in rep.mismatches)
    result = suites.check_coset_representatives(0)
    assert not result.passed and "rep 2" in result.actual


def test_transversal_group(code332, weyl):
    t = transversal_group()
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
        assert fixed_by([g], phi) == [True]
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
    assert all(fixed_by(sample, phi_rowform))


def test_local_symmetry_report():
    rep = local_symmetry_report()
    assert rep.operator_order == 1944
    assert rep.normalizer_order == 5832
    assert rep.generators_fix_state
    assert rep.all_elements_fix_state is True
    assert rep.lift_is_homomorphism
    assert rep.image_order == 1944 and rep.fibre_sizes == (3,)
    assert rep.kernel_is_scalars


def test_centralizer_containment():
    rep = centralizer_containment_check()
    assert rep.order == 9
    assert rep.fixes_code_pointwise and rep.special_linear_factorable
    assert rep.mu_is_homomorphism
    assert rep.mu_image_order == rep.weyl_order == 648
    assert rep.mu_fibre_sizes == (9,)
    assert rep.kernel_is_centralizer
    x3, z3 = catalog.xxx(3, 3, N), catalog.zzz(3, 3, N)
    assert x3 * z3 == z3 * x3  # xi^3 = 1 makes the tensor cubes commute


def test_centralizer_quotient_follows_computed_orders(monkeypatch):
    # the verdict reads the computed map: on the subgroup generated by X^x3,
    # Z^x3 and q1, mu is a homomorphism with the right kernel, but its image
    # is the 3-element group of r1, not the reflection group
    x3, z3 = catalog.xxx(3, 3, N), catalog.zzz(3, 3, N)
    sub = closure([x3, z3, catalog.coset_representatives()[0]])
    monkeypatch.setattr(groups, "normalizer_group_332", lambda n: sub)
    rep = centralizer_containment_check()
    assert rep.mu_is_homomorphism and rep.kernel_is_centralizer
    assert (rep.mu_image_order, rep.mu_fibre_sizes, sub.order) == (3, (9,), 27)
    assert not suites.check_centralizer(0).passed


# -- the Cayley table and homomorphisms -----------------------------------------


def _assert_table_rows(group, rows):
    """table[h, i] is the index of elements[h] * generators[i], multiplied
    directly, for every listed row h."""
    index = {g: k for k, g in enumerate(group.elements)}
    for h in rows:
        assert [index[group.elements[h] * g] for g in group.generators] == \
            group.table[h].tolist()


def test_closure_table_is_right_multiplication(weyl):
    assert weyl.table.shape == (648, 3)
    _assert_table_rows(weyl, range(weyl.order))
    centralizer = closure([catalog.xxx(3, 3, N), catalog.zzz(3, 3, N)])
    _assert_table_rows(centralizer, range(centralizer.order))
    norm = normalizer_group_332()
    _assert_table_rows(norm, random.Random(4).sample(range(norm.order), 200))
    # row 0 is the identity's, so it lists the generators
    assert norm.elements[0] == LocalOperator.identity((3, 3, 3), N)
    assert [norm.elements[k] for k in norm.table[0]] == list(norm.generators)


def test_right_multiplication_follows_discovery_words(weyl):
    rng = random.Random(6)
    edges = groups._discovery_edges(weyl)
    for k in rng.sample(range(weyl.order), 10):
        r = groups._right_multiplication(weyl, edges, k)
        for h in rng.sample(range(weyl.order), 10):
            assert weyl.elements[r[h]] == weyl.elements[h] * weyl.elements[k]


def test_identity_and_inner_automorphism_of_weyl(weyl):
    assert homomorphism(weyl, weyl, list(weyl.generators)).tolist() == list(range(648))
    # conjugation by an element that is no generator: images are no generators
    c = weyl.elements[100]
    conj = homomorphism(weyl, weyl, [c * r * c.inv() for r in weyl.generators])
    index = {g: k for k, g in enumerate(weyl.elements)}
    for k in random.Random(8).sample(range(648), 30):
        assert conj[k] == index[c * weyl.elements[k] * c.inv()]
    image, fibres, kernel = image_fibres_kernel(weyl, conj)
    assert (image, fibres, kernel) == (648, (1,), {Matrix.identity(3, N)})


def test_trivial_map_has_the_whole_source_as_kernel(weyl):
    phi = homomorphism(weyl, weyl, [Matrix.identity(3, N)] * 3)
    assert image_fibres_kernel(weyl, phi) == (1, (648,), set(weyl.elements))


def test_mu_is_a_homomorphism_onto_the_reflection_group(code332, weyl):
    norm = normalizer_group_332()
    mu = homomorphism(norm, weyl, [mu_matrix(a, code332) for a in norm.generators])
    image, fibres, kernel = image_fibres_kernel(norm, mu)
    assert image == 648 and fibres == (9,)
    assert kernel == set(closure([catalog.xxx(3, 3, N), catalog.zzz(3, 3, N)]).elements)
    for k in random.Random(2).sample(range(norm.order), 20):
        assert weyl.elements[mu[k]] == mu_matrix(norm.elements[k], code332)


def _lift(a, code):
    return LocalOperator(N, a.scalar, [mu_matrix(a, code).conj(), *a.factors])


def test_lift_is_a_homomorphism_onto_the_local_symmetries(code332, local_sym):
    norm = normalizer_group_332()
    lifts = [_lift(a, code332) for a in norm.generators]
    assert lifts == list(catalog.local_symmetry_generators())
    lift = homomorphism(norm, local_sym, lifts)
    image, fibres, kernel = image_fibres_kernel(norm, lift)
    assert image == 1944 and fibres == (3,)
    w = root_of_unity(4, N)
    assert kernel == {LocalOperator(N, w ** k, [Matrix.identity(3, N)] * 3) for k in range(3)}
    for k in random.Random(3).sample(range(norm.order), 20):
        assert local_sym.elements[lift[k]] == _lift(norm.elements[k], code332)


@pytest.mark.parametrize("images", [
    lambda r, i: [i, i, r[1], r[0], r[2]],
    lambda r, i: [i, i, r[0], r[2], r[1]],
    lambda r, i: [r[0], i, r[0], r[1], r[2]],
], ids=["q1-q2-swapped", "q2-q3-swapped", "xxx-to-r1"])
def test_wrong_images_into_the_reflection_group_define_no_homomorphism(images, weyl):
    r = weyl_generators()
    assert homomorphism(normalizer_group_332(), weyl, images(r, Matrix.identity(3, N))) is None


def test_swapped_lifts_define_no_homomorphism(local_sym):
    g1, g2, g3, g4, g5 = catalog.local_symmetry_generators()
    assert homomorphism(normalizer_group_332(), local_sym, [g1, g2, g4, g3, g5]) is None


def test_image_outside_the_target_is_an_error(weyl):
    r1, r2, r3 = weyl_generators()
    outside = Matrix(N, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match=r"images\[1\] is not in the target"):
        homomorphism(weyl, weyl, [r1, outside, r3])
    with pytest.raises(ValueError, match="need 3 images"):
        homomorphism(weyl, weyl, [r1, r2])


# -- fixation on the codes and elements built when read --------------------------


def _fixed_by_apply(group, v) -> list[bool]:
    return [apply(g, v) == v for g in group.elements]


def test_fixation_on_codes_matches_apply_on_every_element(local_sym, phi_rowform):
    fixes = local_sym.fixes(phi_rowform)
    assert len(fixes) == 1944 and all(fixes)
    assert fixes == _fixed_by_apply(local_sym, phi_rowform)
    # |0000> is fixed by some symmetries and moved by others
    ket = catalog.ket("0000", 3, N)
    fixes = local_sym.fixes(ket)
    assert 0 < sum(fixes) < 1944
    assert fixes == _fixed_by_apply(local_sym, ket) == fixed_by(local_sym.elements, ket)


def test_centralizer_fixes_the_code_basis_on_its_codes():
    group = closure([catalog.xxx(3, 3, N), catalog.zzz(3, 3, N)], cap=90)
    for s in catalog.code_basis():
        assert group.fixes(s) == _fixed_by_apply(group, s) == [True] * 9
    # a state outside the code: only the identity and the Z-type elements fix |000>
    ket = catalog.ket("000", 3, N)
    assert group.fixes(ket) == _fixed_by_apply(group, ket)
    assert sum(group.fixes(ket)) == 3


def test_fixation_does_not_depend_on_the_chunk_size(monkeypatch, local_sym, phi_rowform):
    ket = catalog.ket("0000", 3, N)
    default = [local_sym.fixes(v) for v in (phi_rowform, ket)]
    monkeypatch.setattr(tensor, "_CHUNK_ENTRIES", 1)
    assert [local_sym.fixes(v) for v in (phi_rowform, ket)] == default


def test_fixation_needs_product_operators_of_the_state_dims(weyl, local_sym):
    with pytest.raises(TypeError):
        weyl.fixes(catalog.ket("000", 3, N))
    with pytest.raises(DimensionMismatch):
        local_sym.fixes(catalog.ket("000", 3, N))


def test_checks_leave_the_normalizer_elements_unbuilt(monkeypatch):
    # a fresh normalizer for this test: others may read the cached one's elements
    monkeypatch.setattr(groups, "_normalizer_group_332",
                        functools.cache(groups._normalizer_group_332.__wrapped__))
    centralizer_containment_check()
    local_symmetry_report()
    norm = normalizer_group_332()
    assert "elements" not in vars(norm)
    rng = random.Random(9)
    picked = rng.sample(range(norm.order), 50)
    some = norm.elements_at(picked)
    assert norm.sample(20, seed=3) == norm.elements_at(random.Random(3).sample(range(5832), 20))
    assert "elements" not in vars(norm)
    # built on demand, in order, the elements equal the eager closure's
    eager = closure(norm.generators, cap=58320)
    assert norm.elements == eager.elements
    assert some == [eager.elements[k] for k in picked] == norm.elements_at(picked)


def test_membership_is_found_by_code(weyl, local_sym):
    assert [weyl.index(g) for g in weyl.elements] == list(range(648))
    norm = normalizer_group_332()
    picked = random.Random(5).sample(range(norm.order), 30)
    assert [norm.index(g) for g in norm.elements_at(picked)] == picked
    # other values are no elements, and looking them up adds no id to the
    # conductor's one table
    table = weyl.codec
    assert table is local_sym.codec
    sizes = (len(table.scalars), len(table.factors.x))
    assert weyl.index(Matrix(N, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])) is None
    assert weyl.index(Matrix.zeros(3, 3, N)) is None
    assert weyl.index(Matrix(N, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])) is None
    assert catalog.xxx(3, 3, N) not in weyl and Matrix.identity(2, N) not in weyl
    assert weyl.generators[0] not in local_sym and catalog.xxx(3, 3, N) not in local_sym
    assert LocalOperator(N, 2, [Matrix.identity(3, N)] * 4) not in local_sym
    half = Matrix(N, [[Cyclotomic(N, [1, 0, 0, 0], 2), 0, 0], [0, 2, 0], [0, 0, 1]])
    assert LocalOperator(N, 1, [half, *[Matrix.identity(3, N)] * 3]) not in local_sym
    assert LocalOperator.identity((3, 3, 3, 3), 24) not in local_sym
    assert (len(table.scalars), len(table.factors.x)) == sizes
    assert [weyl.index(g) for g in weyl.elements] == list(range(648))


def test_fixation_contracts_one_state_with_many_actions_in_float64(monkeypatch, local_sym,
                                                                   phi_rowform):
    # a chunk contracts phi's first site with over a hundred distinct factor
    # actions at once; every bound of this check is below 2**53, so each
    # contraction runs in float64 through BLAS
    seen = []
    real = np.matmul

    def spy(a, b):
        seen.append((a.shape, b.shape, a.dtype, b.dtype))
        return real(a, b)

    monkeypatch.setattr(np, "matmul", spy)
    assert all(local_sym.fixes(phi_rowform))
    monkeypatch.undo()
    assert any(a[0] == 1 and b[0] > 100 for a, b, _, _ in seen)
    assert {(x, y) for _, _, x, y in seen} == {(np.dtype(np.float64),) * 2}


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
