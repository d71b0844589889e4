"""Finite matrix groups by closure: qudit Pauli groups, the order-648
reflection group acting on code coordinates, its realization as transversal
gates, and the order-5832 local symmetry group of the perfect tensor.

Closure is breadth-first over canonical forms (plain entries for dense
gates, scalar-plus-leading-1 factors for product operators), so element
sets are exact and enumeration order is deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .cyclo import Cyclotomic, root_of_unity
from .linalg import Matrix
from .tensor import LocalOperator, PureState, fixed_by


class ClosureCapExceeded(RuntimeError):
    pass


class NotInNormalizer(ValueError):
    """The operator does not preserve the code subspace."""


@dataclass(frozen=True)
class MatrixGroup:
    """A finite group materialized as its full element set."""

    generators: tuple
    elements: tuple
    cap: int

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g) -> bool:
        return g in self._index

    @property
    def _index(self):
        idx = self.__dict__.get("_idx")
        if idx is None:
            idx = frozenset(self.elements)
            self.__dict__["_idx"] = idx
        return idx

    def set_equal(self, other: MatrixGroup) -> bool:
        return self._index == other._index

    def sample(self, k: int, seed: int = 0) -> list:
        rng = random.Random(seed)
        return [self.elements[i] for i in rng.sample(range(self.order), min(k, self.order))]

    def verify_closure(self, sample_size: int = 200, seed: int = 0) -> bool:
        """Spot-check the group axioms on the materialized set."""
        idx = self._index
        for h in self.sample(sample_size, seed):
            if h.inv() not in idx:
                return False
            for g in self.generators:
                if g * h not in idx:
                    return False
        return True


def closure(generators, cap: int = 100_000) -> MatrixGroup:
    """Breadth-first multiplicative closure of the generators.

    Elements must be hashable with exact equality and support * and inv().
    Raises ClosureCapExceeded if more than `cap` elements appear, which
    signals a non-finite or mis-specified group.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    ident = gens[0] * gens[0].inv()
    elements: dict = {ident: None}
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
    return MatrixGroup(tuple(gens), tuple(elements.keys()), cap)


# -- complex reflections and the gate group ---------------------------------


def reflection(vector, order: int, n: int) -> Matrix:
    """The complex reflection fixing the hyperplane orthogonal to `vector`
    and scaling the vector itself by zeta_order:
    I - (1 - zeta_order) * (a a^dagger) / (a^dagger a)."""
    a = [Matrix._as_cyc(n, e) for e in vector]
    if all(e.is_zero() for e in a):
        raise ValueError("reflection vector must be nonzero")
    if n % order != 0:
        raise ValueError(f"conductor {n} lacks zeta_{order}")
    denom = Cyclotomic.zero(n)
    for e in a:
        denom = denom + e * e.conj()
    coef = (Cyclotomic.one(n) - root_of_unity(n // order, n)) / denom
    size = len(a)
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            e = -coef * a[i] * a[j].conj()
            if i == j:
                e = e + 1
            row.append(e)
        rows.append(row)
    return Matrix(n, rows)


def weyl_generators(n: int = 12) -> tuple[Matrix, Matrix, Matrix]:
    """The three order-3 reflections built from the catalog vectors."""
    from . import catalog
    return tuple(reflection(v, 3, n) for v in catalog.reflection_vectors(n))


def weyl_group(n: int = 12, cap: int = 6480) -> MatrixGroup:
    """Closure of the three reflection generators; order 648."""
    return closure(weyl_generators(n), cap=cap)


def pauli_group(d: int, sites: int, n: int, cap: int | None = None) -> MatrixGroup:
    from . import catalog
    gens = []
    for k in range(sites):
        for m in (catalog.pauli_x(d, n), catalog.pauli_z(d, n)):
            facs = [Matrix.identity(d, n)] * sites
            facs[k] = m
            gens.append(LocalOperator(n, 1, facs))
    return closure(gens, cap=cap or 10 * d ** (2 * sites + 1))


# -- code-space restriction --------------------------------------------------


def mu_matrix(g: LocalOperator, code) -> Matrix:
    """Matrix of g restricted to the code, entries <u_i| g |u_j>.

    Raises NotInNormalizer when g does not preserve the span, checked
    exactly: against the orthonormal basis, g|u_j> lies in the span iff
    its squared norm equals the sum of |<u_i| g |u_j>|^2 over i."""
    table, norms = code.packed.restriction(g)
    for j, norm in enumerate(norms):
        if sum((row[j].conj() * row[j] for row in table), Cyclotomic.zero(g.n)) != norm:
            raise NotInNormalizer(f"operator maps basis vector {j} outside the code")
    return Matrix(g.n, table)


@dataclass
class CosetReport:
    ok: bool
    restriction_matches: list[bool]
    su_factor_checks: list[bool]
    mismatches: list[str] = field(default_factory=list)


def verify_coset_representatives(reps=None, n: int = 12) -> CosetReport:
    """Check that each published representative restricts to its reflection
    generator exactly, and that each admits an exact per-site factorization
    into special-unitary matrices (materialized at conductor 36)."""
    from . import catalog
    code = catalog.code_332(n)
    targets = weyl_generators(n)
    if reps is None:
        reps = catalog.coset_representatives(n)
    matches, sus, mismatches = [], [], []
    for i, (q, r) in enumerate(zip(reps, targets)):
        try:
            m = mu_matrix(q, code)
            ok = m == r
        except NotInNormalizer as exc:
            ok = False
            mismatches.append(f"rep {i + 1}: {exc}")
            matches.append(ok)
            continue
        if not ok:
            rows = m.shape[0]
            for a in range(rows):
                for b in range(rows):
                    if m.rows[a][b] != r.rows[a][b]:
                        mismatches.append(f"rep {i + 1}: entry ({a},{b}) differs")
        matches.append(ok)
    su_factors = catalog.coset_representative_su_factors(36)
    for i, (q, trip) in enumerate(zip(reps, su_factors)):
        ok = True
        if len(reps) == 3 and LocalOperator(36, 1, list(trip)) != q.embed(36):
            ok = False
            mismatches.append(f"rep {i + 1}: special-unitary factors do not rebuild it")
        for f in trip:
            if not (f.is_unitary() and f.det() == Cyclotomic.one(36)):
                ok = False
                mismatches.append(f"rep {i + 1}: factor not special-unitary")
        sus.append(ok)
    return CosetReport(all(matches) and all(sus), matches, sus, mismatches)


def transversal_group(code=None, n: int = 12, cap: int = 6480) -> MatrixGroup:
    """Closure of the code restrictions of the two stabilizer generators and
    the three coset representatives; equals the reflection group."""
    from . import catalog
    if code is None:
        code = catalog.code_332(n)
    lifts = [catalog.xxx(3, 3, n), catalog.zzz(3, 3, n), *catalog.coset_representatives(n)]
    images = []
    for g in lifts:
        m = mu_matrix(g, code)
        if m not in images:
            images.append(m)
    return closure(images, cap=cap)


# -- the local symmetry group ------------------------------------------------


def local_symmetry_group(n: int = 12, cap: int = 58320) -> MatrixGroup:
    """Closure of the five four-site generators of the symmetry group of the
    perfect tensor.  Every generator is checked to fix the state exactly
    first.

    The exact closure has 1944 distinct product operators.  The published
    count 5832 = 648 * 9 enumerates the three-site normalizer (see
    normalizer_group_332), which maps onto this group 3-to-1: the central
    scalars {I, wI, w^2I} of the normalizer pair with their conjugated code
    restrictions to give the identity operator on four sites.
    """
    from . import catalog
    phi = catalog.ame_state(n, normalized=False)
    gens = catalog.local_symmetry_generators(n)
    for i, fixed in enumerate(fixed_by(gens, phi)):
        if not fixed:
            raise ValueError(f"generator {i + 1} does not fix the perfect tensor")
    return closure(gens, cap=cap)


def normalizer_group_332(n: int = 12, cap: int = 58320) -> MatrixGroup:
    """The group of three-site product operators preserving the code:
    closure of the two stabilizer generators and the three coset
    representatives; order 5832 = 648 * 9."""
    from . import catalog
    gens = [catalog.xxx(3, 3, n), catalog.zzz(3, 3, n),
            *catalog.coset_representatives(n)]
    return closure(gens, cap=cap)


@dataclass
class LocalSymmetryReport:
    operator_order: int
    normalizer_order: int
    scalar_kernel_order: int
    generators_fix_state: bool
    all_elements_fix_state: bool
    sample_has_restriction_form: bool

    @property
    def orders_consistent(self) -> bool:
        return self.operator_order * self.scalar_kernel_order == self.normalizer_order


def local_symmetry_report(n: int = 12, sample_size: int = 100,
                          seed: int = 0) -> LocalSymmetryReport:
    """Structural verification of the local symmetry group: generator and
    element fixing of the perfect tensor (every element, exactly), the
    conj(restriction) tensor g form on a sample, and the 3-to-1 relation to
    the normalizer."""
    from . import catalog
    phi = catalog.ame_state(n, normalized=False)
    code = catalog.code_332(n)
    group = local_symmetry_group(n)
    gens_fix = all(fixed_by(group.generators, phi))
    all_fix = all(fixed_by(group.elements, phi))
    sample = group.sample(sample_size, seed=seed)
    form_ok = all(has_conjugate_restriction_form(g, code) is not None for g in sample)
    norm = normalizer_group_332(n)
    w = root_of_unity(n // 3, n)
    ident = Matrix.identity(3, n)
    scalars = sum(1 for k in range(3)
                  if LocalOperator(n, w ** k, [ident] * 3) in norm)
    return LocalSymmetryReport(
        operator_order=group.order,
        normalizer_order=norm.order,
        scalar_kernel_order=scalars,
        generators_fix_state=gens_fix,
        all_elements_fix_state=all_fix,
        sample_has_restriction_form=form_ok,
    )


def fixes_state(g: LocalOperator, v: PureState) -> bool:
    return fixed_by([g], v)[0]


def has_conjugate_restriction_form(g: LocalOperator, code=None):
    """Whether a four-site operator factors as conj(code restriction of its
    last-three-site part) on site 1, up to a positive real scale.

    Returns the three-site part's code restriction when the form holds,
    else None."""
    from . import catalog
    if code is None:
        code = catalog.code_332(g.n)
    rest = LocalOperator(g.n, g.scalar, g.factors[1:], _canonical=True)
    try:
        v = mu_matrix(rest, code)
    except NotInNormalizer:
        return None
    w = v.conj()
    ratio = g.factors[0].scalar_multiple_of(w)
    if ratio is None or not ratio.is_real():
        return None
    if ratio.to_complex().real <= 0:
        return None
    return v


# -- stabilizer/centralizer consistency ---------------------------------------


@dataclass
class CentralizerReport:
    order: int
    fixes_code_pointwise: bool
    special_linear_factorable: bool
    generators_commute: bool
    order_matches_quotient: bool

    @property
    def ok(self) -> bool:
        return (self.order == 9 and self.fixes_code_pointwise
                and self.special_linear_factorable and self.generators_commute
                and self.order_matches_quotient)


def sl_factorable(op: LocalOperator) -> bool:
    """Whether the product operator can be refactored with determinant-1
    factors: requires scalar^d * prod(det factors) == 1 for d x d sites."""
    d = op.dims[0]
    if any(dd != d for dd in op.dims):
        raise ValueError("mixed local dimensions")
    t = op.scalar ** d
    for f in op.factors:
        t = t * f.det()
    return t == Cyclotomic.one(op.n)


def centralizer_containment_check(n: int = 12) -> CentralizerReport:
    """Consistency facts for the stabilizer group acting on the code: all
    nine elements fix the basis pointwise, each is a phase times a
    determinant-1 product, and 5832/648 == 9.  The converse inclusion (no
    other determinant-1 products fix the code) is not re-derived here."""
    from . import catalog
    x3, z3 = catalog.xxx(3, 3, n), catalog.zzz(3, 3, n)
    group = closure([x3, z3], cap=90)
    basis = catalog.code_basis(n)
    fixes = all(all(fixed_by(group.elements, s)) for s in basis)
    slfac = all(sl_factorable(g) for g in group.elements)
    commute = x3 * z3 == z3 * x3
    return CentralizerReport(
        order=group.order,
        fixes_code_pointwise=fixes,
        special_linear_factorable=slfac,
        generators_commute=commute,
        order_matches_quotient=(5832 // 648 == 9 and group.order * 648 == 5832),
    )
