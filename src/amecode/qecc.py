"""Error bases, Knill-Laflamme verification, exact distance by brute force,
r-uniformity, the quantum Singleton bound, and stabilizer fixed spaces.

Everything here is exact: a condition holds iff the relevant field elements
reduce to literal zeros, with no tolerances anywhere.  Each Pauli error
basis is built once per process and shared as an immutable tuple, so
repeated `kl_check` and `distance` calls sweep the same error objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations, product
from math import prod

import numpy as np

from .linalg import Matrix
from .tensor import (LocalOperator, PackedBasis, PureState, _density, _reduction, gram,
                     in_span, orthonormal_defect, orthonormalize)


class CodeSubspace:
    """Orthonormal exact basis of a subspace with claimed parameters
    ((n, K, d))_D."""

    __slots__ = ("n_sites", "local_dim", "basis", "claimed_d", "_packed")

    def __init__(self, n_sites: int, local_dim: int, basis, claimed_d: int | None = None):
        basis = tuple(basis)
        if not basis:
            raise ValueError("empty basis")
        dims = (local_dim,) * n_sites
        for v in basis:
            if v.dims != dims:
                raise ValueError(f"basis state dims {v.dims} != {dims}")
        pair = orthonormal_defect(basis)
        if pair is not None:
            raise ValueError(f"basis not orthonormal at pair ({pair[0]},{pair[1]})")
        object.__setattr__(self, "n_sites", n_sites)
        object.__setattr__(self, "local_dim", local_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "claimed_d", claimed_d)
        object.__setattr__(self, "_packed", None)

    def __setattr__(self, *a):
        raise AttributeError("CodeSubspace is immutable")

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def conductor(self) -> int:
        return self.basis[0].n

    @property
    def packed(self) -> PackedBasis:
        """The basis packed once for matrix elements of product operators."""
        if self._packed is None:
            object.__setattr__(self, "_packed", PackedBasis(self.basis))
        return self._packed

    def contains(self, v: PureState) -> bool:
        g = gram(self.basis + (v,))
        return in_span([row[-1] for row in g[:-1]], g[-1][-1])

    def span_equal(self, other: CodeSubspace) -> bool:
        """One Gram table of both bases; each basis must lie in the other's
        span."""
        k = self.dimension
        if other.dimension != k:
            return False
        g = gram(self.basis + other.basis)
        return (all(in_span([row[j] for row in g[k:]], g[j][j]) for j in range(k))
                and all(in_span([row[j] for row in g[:k]], g[j][j]) for j in range(k, 2 * k)))

    def to_dict(self) -> dict:
        return {
            "format": "code",
            "n": self.n_sites,
            "D": self.local_dim,
            "claimed_d": self.claimed_d,
            "basis": [v.to_dict() for v in self.basis],
        }

    def __repr__(self):
        return (f"CodeSubspace(n={self.n_sites}, D={self.local_dim}, "
                f"K={self.dimension}, claimed_d={self.claimed_d})")


@dataclass(frozen=True)
class ErrorBasisElement:
    """A Pauli product error X^a Z^b per site; weight counts the
    non-identity factors of the operator (computed once from them, never
    taken from the exponents)."""

    op: LocalOperator
    exponents: tuple
    label: str

    @cached_property
    def weight(self) -> int:
        return self.op.weight()


def error_label(exponents) -> str:
    return ".".join(f"X{a}Z{b}" for a, b in exponents)


def pauli_error_basis(n: int, d: int, max_weight: int,
                      conductor: int | None = None) -> tuple[ErrorBasisElement, ...]:
    """All weight <= max_weight Pauli products on n sites of prime local
    dimension d, identity included, in deterministic order.  Built once
    per (n, d, max_weight, conductor) in a process; the tuple is shared by
    every caller."""
    from .cyclo import default_conductor
    if d < 2 or any(d % p == 0 for p in range(2, d)):
        raise ValueError(f"local dimension {d} must be prime")
    if not 0 <= max_weight <= n:
        raise ValueError(f"max_weight {max_weight} out of range 0..{n}")
    return _pauli_error_basis(n, d, max_weight, conductor or default_conductor(d))


@cache
def _pauli_error_basis(n: int, d: int, max_weight: int,
                       nn: int) -> tuple[ErrorBasisElement, ...]:
    from . import catalog
    single = {(a, b): catalog.pauli_power(d, nn, a, b)
              for a in range(d) for b in range(d)}
    ident = single[(0, 0)]
    nontrivial = [(a, b) for a in range(d) for b in range(d) if (a, b) != (0, 0)]
    out = []
    for w in range(max_weight + 1):
        for sites in combinations(range(n), w):
            for assignment in product(nontrivial, repeat=w):
                exps = [(0, 0)] * n
                for pos, e in zip(sites, assignment):
                    exps[pos] = e
                factors = [single[e] if e != (0, 0) else ident for e in exps]
                op = LocalOperator(nn, 1, factors)
                out.append(ErrorBasisElement(op, tuple(exps), error_label(exps)))
    return tuple(out)


@dataclass
class KLReport:
    """Result of a Knill-Laflamme sweep at target distance d."""

    distance: int
    is_code: bool
    is_pure: bool
    c_table: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)

    def to_dict(self, code: CodeSubspace) -> dict:
        return {
            "parameters": {"n": code.n_sites, "K": code.dimension,
                           "d": self.distance, "D": code.local_dim},
            "is_code": self.is_code,
            "is_pure": self.is_pure,
            "violations": [{"error_label": label, "i": i, "j": j,
                            "value": val.to_dict()}
                           for label, i, j, val in self.violations],
        }


def kl_check(code: CodeSubspace, d: int, errors=None) -> KLReport:
    """Check <u_i|E|u_j> = c(E) delta_ij for every error of weight < d;
    pure additionally means c(E) = 0 for 0 < wt(E) < d."""
    if d < 1:
        raise ValueError("distance must be >= 1")
    if errors is None:
        errors = pauli_error_basis(code.n_sites, code.local_dim, d - 1,
                                   conductor=code.conductor)
    k = code.dimension
    is_code = True
    is_pure = True
    c_table: dict = {}
    violations = []
    for e in errors:
        if e.weight >= d:
            continue
        table = code.packed.matrix_elements(e.op)
        consistent = True
        c = table[0][0]
        for i in range(k):
            for j in range(k):
                val = table[i][j]
                if i != j:
                    if not val.is_zero():
                        consistent = False
                        violations.append((e.label, i, j, val))
                elif val != c:
                    consistent = False
                    violations.append((e.label, i, i, val))
        if consistent:
            c_table[e.label] = c
            if e.weight > 0 and not c.is_zero():
                is_pure = False
        else:
            is_code = False
            is_pure = False
    return KLReport(d, is_code, is_pure and is_code, c_table, violations)


def distance(code: CodeSubspace) -> int:
    """Largest d with a passing Knill-Laflamme sweep, by brute force over
    increasing d.  Capped at n+1, past which no new errors exist (the cap
    is only reachable for one-dimensional codes, where the delta condition
    is vacuous)."""
    errors = pauli_error_basis(code.n_sites, code.local_dim, code.n_sites,
                               conductor=code.conductor)
    d = 1
    while d <= code.n_sites and kl_check(code, d + 1, errors=errors).is_code:
        d += 1
    return d


@dataclass
class UniformReport:
    uniform: bool
    worst_subset: tuple | None
    worst_deviation: float


def r_uniform_check(v: PureState, r: int) -> UniformReport:
    """Exactly decide whether every r-site reduction of the normalized state
    is (1/D^r) * identity; the reported deviation is a float diagnostic.

    A reduction g / den passes when its integer numerators vanish off the
    diagonal and agree on it: its trace is then the rational <v|v>, so the
    common diagonal entry is <v|v> / dim.  The normalized reduction and its
    deviation are built only for a subset that fails; a passing one
    deviates by exactly 0.0."""
    sites = v.sites
    if not 1 <= r <= sites:
        raise ValueError(f"r={r} out of range 1..{sites}")
    if v.is_zero():
        raise ValueError("zero state")
    ns = None
    uniform = True
    worst_subset = None
    worst = 0.0
    for keep in combinations(range(1, sites + 1), r):
        kdims, g, den = _reduction(v, keep)
        dim = len(g)
        diagonal = np.eye(dim, dtype=bool)
        if not g[~diagonal].any() and (g[diagonal] == g[0, 0]).all():
            dev = 0.0
        else:
            uniform = False
            ns = v.norm_sq() if ns is None else ns
            rho = _density(v.n, kdims, g, den).scale(Fraction(1, 1) / ns)
            target = Matrix.identity(dim, v.n).scale(Fraction(1, dim))
            dev = max(abs(x - y) for rw, tw in zip(rho.mat.to_complex(), target.to_complex())
                      for x, y in zip(rw, tw))
        if dev >= worst:
            worst = dev
            worst_subset = keep if dev > 0 or worst_subset is None else worst_subset
    return UniformReport(uniform, worst_subset, worst)


def singleton_check(n: int, k: int, d: int, local_dim: int) -> bool:
    """log_D K <= n - 2(d-1), evaluated exactly as K * D^(2(d-1)) <= D^n."""
    if min(n, k, d, local_dim) < 1:
        raise ValueError("parameters must be positive")
    return k * local_dim ** (2 * (d - 1)) <= local_dim ** n


def stabilizer_subspace(generators, cap: int = 10_000,
                        claimed_d: int | None = None) -> CodeSubspace:
    """Orthonormal exact basis of the simultaneous fixed space of the group
    generated by unitary Pauli-group elements, via the group-average
    projector."""
    from .groups import closure
    gens = list(generators)
    dims = gens[0].dims
    nn = gens[0].n
    for g in gens:
        if g.dims != dims or g.n != nn:
            raise ValueError("generators must share dims and conductor")
        if not g.is_unitary():
            raise ValueError("stabilizer generators must be unitary")
    group = closure(gens, cap=cap)
    dim = prod(dims)
    acc = gens[0].to_dense().scale(0)
    for g in group.elements:
        acc = acc + g.to_dense()
    proj = acc.scale(Fraction(1, group.order))
    # image basis from projector columns, orthonormalized exactly
    cols = []
    for j in range(dim):
        col = tuple(proj.rows[i][j] for i in range(dim))
        if any(not e.is_zero() for e in col):
            cols.append(PureState(nn, dims, col))
    basis = orthonormalize(cols, drop_dependent=True)
    expected = proj.trace().as_fraction()
    if expected.denominator != 1 or len(basis) != expected.numerator:
        raise ArithmeticError("projector rank does not match its trace")
    d0 = dims[0]
    if any(d != d0 for d in dims):
        raise ValueError("mixed local dimensions")
    return CodeSubspace(len(dims), d0, basis, claimed_d=claimed_d)
