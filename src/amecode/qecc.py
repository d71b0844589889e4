"""Error bases, Knill-Laflamme verification, exact distance, r-uniformity,
the quantum Singleton bound, and stabilizer fixed spaces.

Everything here is exact: a condition holds iff the relevant field elements
reduce to literal zeros, with no tolerances anywhere.

The code checks rest on one identity.  Matricize each codeword u_i over a
site set S and its complement, as M_i; then for every operator E_S on S

    <u_i|E_S|u_j> = tr(E_S R_S[j, i]),   R_S[j, i] = M_j M_i^dagger,

and the blocks R_S of every site set of one size are one packed Gram
contraction of the stacked matricizations (`tensor._reductions`).  One
predicate on integer numerators decides them: R_S[j, i] = delta_ij
R_S[0, 0], and optionally R_S[0, 0] a multiple of I.  The first part holds
exactly when every operator on S has a table c(E) delta_ij, which is all
`distance` needs, for any local dimension; with K = 1 and the second part
it is `r_uniform_check`'s test of a reduction.  `kl_check` forms the
reductions once per size of its errors' supports.  A support whose table
passes both parts, and whose errors are all traceless, is decided without
expanding an error: with R_S[0, 0] = lambda I, c(E) = lambda tr(E) = 0.
So is the empty support when its table passes, as purity does not concern
it.  Only the errors of any other support are expanded, and their K x K
tables come from one integer contraction with R_S.  Field elements are
built only for the entries a `KLReport` lists in `violations`.  Each Pauli
error basis is built once per process and shared as an immutable tuple: it
supplies `kl_check`'s default errors and their labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations, product
from math import lcm, prod

import numpy as np

from . import catalog
from .cyclo import Cyclotomic, default_conductor
from .groups import closure
from .linalg import Matrix, _matmul, _scaled
from .tensor import (LocalOperator, PureState, _canon_factor, _check_operands, _dense_packed,
                     _density, _gram, _gram_table, _local_elements, _reductions,
                     orthonormal_defect, orthonormalize)


class CodeSubspace:
    """Orthonormal exact basis of a subspace with claimed parameters
    ((n, K, d))_D."""

    __slots__ = ("n_sites", "local_dim", "basis", "claimed_d")

    def __init__(self, n_sites: int, local_dim: int, basis, claimed_d: int | None = None):
        self._set(n_sites, local_dim, basis, claimed_d)
        pair = orthonormal_defect(self.basis)
        if pair is not None:
            raise ValueError(f"basis not orthonormal at pair ({pair[0]},{pair[1]})")

    @classmethod
    def _of_orthonormal(cls, n_sites: int, local_dim: int, basis) -> CodeSubspace:
        """The code on a basis its caller has found orthonormal: the dims
        are checked, the Gram table is not formed again."""
        code = object.__new__(cls)
        code._set(n_sites, local_dim, basis, None)
        return code

    def _set(self, n_sites, local_dim, basis, claimed_d):
        basis = tuple(basis)
        if not basis:
            raise ValueError("empty basis")
        dims = (local_dim,) * n_sites
        for v in basis:
            if v.dims != dims:
                raise ValueError(f"basis state dims {v.dims} != {dims}")
        object.__setattr__(self, "n_sites", n_sites)
        object.__setattr__(self, "local_dim", local_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "claimed_d", claimed_d)

    def __setattr__(self, *a):
        raise AttributeError("CodeSubspace is immutable")

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def conductor(self) -> int:
        return self.basis[0].n

    def span_equal(self, other: CodeSubspace) -> bool:
        """Whether each basis lies in the other's span: against an
        orthonormal basis x, y does exactly when sum_i |<x_i|y>|^2 = <y|y>
        (Pythagoras).  Decided on the packed Gram numerators t over den**2
        of both bases, with no field element built: sum_i t[i, y] *
        conj(t[i, y]) = t[y, y] * den**2, the left sides one more _gram,
        batched over the rows of the cross blocks."""
        k = self.dimension
        if other.dimension != k:
            return False
        t, den = _gram_table(self.basis + other.basis)
        # t[i, j] = <u_i|u_j>; row j of cross holds the coefficients of the
        # other's vector j against this basis, row k + j those of this
        # basis's vector j against the other
        cross = np.concatenate([t[:k, k:], t[k:, :k]], axis=1).swapaxes(0, 1)
        sums = _gram(cross[:, None], self.conductor)[:, 0, 0]
        diag = np.arange(2 * k)
        norms = np.roll(t[diag, diag], -k, axis=0)
        return np.array_equal(sums, _scaled(norms, den * den))

    def __repr__(self):
        return (f"CodeSubspace(n={self.n_sites}, D={self.local_dim}, "
                f"K={self.dimension}, claimed_d={self.claimed_d})")


@dataclass(frozen=True)
class ErrorBasisElement:
    """A Pauli product error X^a Z^b per site; support lists the 0-based
    sites of the non-identity factors of the operator and weight counts them
    (computed once from the factors, never taken from the exponents)."""

    op: LocalOperator
    exponents: tuple
    label: str

    @cached_property
    def support(self) -> tuple[int, ...]:
        return tuple(p for p, f in enumerate(self.op.factors) if not f.is_identity())

    @property
    def weight(self) -> int:
        return len(self.support)

    @cached_property
    def traceless(self) -> bool:
        """Whether tr(op) = 0, the scalar times the traces of the factors:
        true of every X^a Z^b other than the identity."""
        return self.op.scalar.is_zero() or any(f.trace().is_zero() for f in self.op.factors)


def error_label(exponents) -> str:
    return ".".join(f"X{a}Z{b}" for a, b in exponents)


def pauli_error_basis(n: int, d: int, max_weight: int,
                      conductor: int | None = None) -> tuple[ErrorBasisElement, ...]:
    """All weight <= max_weight Weyl-Heisenberg products X^a Z^b on n sites
    of local dimension d, identity included, in deterministic order.  The
    d^2 single-site X^a Z^b form an operator basis for every d >= 2, prime
    or not.  Built once per (n, d, max_weight, conductor) in a process; the
    tuple is shared by every caller."""
    if d < 2:
        raise ValueError(f"local dimension {d} must be at least 2")
    if not 0 <= max_weight <= n:
        raise ValueError(f"max_weight {max_weight} out of range 0..{n}")
    return _pauli_error_basis(n, d, max_weight, conductor or default_conductor(d))


@cache
def _pauli_error_basis(n: int, d: int, max_weight: int,
                       nn: int) -> tuple[ErrorBasisElement, ...]:
    # each of the d^2 factors is made canonical once: (lead, canonical factor)
    single = {(a, b): _canon_factor(catalog.pauli_power(d, nn, a, b))
              for a in range(d) for b in range(d)}
    nontrivial = [(a, b) for a in range(d) for b in range(d) if (a, b) != (0, 0)]
    one = Cyclotomic.one(nn)
    out = []
    for w in range(max_weight + 1):
        for sites in combinations(range(n), w):
            for assignment in product(nontrivial, repeat=w):
                exps = [(0, 0)] * n
                for pos, e in zip(sites, assignment):
                    exps[pos] = e
                scalar = one  # the identity's lead is 1
                for e in assignment:
                    scalar = scalar * single[e][0]
                op = LocalOperator(nn, scalar, [single[e][1] for e in exps], _canonical=True)
                out.append(ErrorBasisElement(op, tuple(exps), error_label(exps)))
    return tuple(out)


@dataclass
class KLReport:
    """Result of a Knill-Laflamme sweep at target distance d."""

    distance: int
    is_code: bool
    is_pure: bool
    violations: list = field(default_factory=list)


def _delta_holds(g, k: int, scalar: bool = False):
    """For each table g[s] of _reductions of K states, shape (S, K*dim,
    K*dim, deg), whether its blocks satisfy R[j, i] = delta_ij R[0, 0] and,
    with scalar, whether R[0, 0] is a multiple of the identity too: a bool
    array of shape (S,), decided on the integer numerators."""
    s, dim = len(g), g.shape[1] // k
    blocks = g.reshape(s, k, dim, k, dim, -1)  # blocks[:, j, :, i] = R[j, i]
    eye = np.eye(k, dtype=bool)[:, None, :, None, None]
    holds = (blocks == np.where(eye, blocks[:, :1, :, :1], 0)).reshape(s, -1).all(axis=1)
    if scalar:
        first = blocks[:, 0, :, 0]
        eye = np.eye(dim, dtype=bool)[:, :, None]
        holds &= (first == np.where(eye, first[:, :1, :1], 0)).reshape(s, -1).all(axis=1)
    return holds


def kl_check(code: CodeSubspace, d: int, errors=None) -> KLReport:
    """Check <u_i|E|u_j> = c(E) delta_ij for every error of weight < d;
    pure additionally means c(E) = 0 for 0 < wt(E) < d.

    The errors (the Pauli basis of weight < d, which for d > n + 1 is every
    weight up to n, or an explicit list) are grouped by their support S, in
    their order, and the reductions R_S[j, i] = M_j M_i^dagger of the
    codewords onto all the supports of one size come from one _reductions;
    <u_i|E_S|u_j> = tr(E_S R_S[j, i]).  When R_S[j, i] = delta_ij R_S[0, 0]
    with R_S[0, 0] a multiple of the identity, every operator on S has a
    table c(E) delta_ij and every traceless one has c(E) = 0, so a support
    whose table holds and whose errors are traceless (or the empty support,
    which purity does not concern) is decided with no error expanded.  On
    any other support one integer contraction of R_S with the packed errors
    gives every K x K table, and each error is decided on those integers;
    `violations`, in the errors' order, is the only place where values are
    built as field elements."""
    if d < 1:
        raise ValueError("distance must be >= 1")
    if errors is None:
        errors = pauli_error_basis(code.n_sites, code.local_dim, min(d - 1, code.n_sites),
                                   conductor=code.conductor)
    errors = [e for e in errors if e.weight < d]
    k, n = code.dimension, code.conductor
    groups: dict = {}
    for idx, e in enumerate(errors):
        _check_operands(e.op, code.basis[0])
        groups.setdefault(e.support, []).append(idx)
    by_size: dict = {}
    for support in groups:
        by_size.setdefault(len(support), []).append(support)
    eye = np.eye(k, dtype=bool)
    is_pure = True
    flagged = {}
    for supports in by_size.values():
        tables, rden = _reductions(code.basis, supports)
        for support, g, holds in zip(supports, tables, _delta_holds(tables, k, scalar=True)):
            idxs = groups[support]
            if holds and (not support or all(errors[i].traceless for i in idxs)):
                continue
            vals, dens = _local_elements([errors[i].op for i in idxs], support, g, k)
            nonzero = (vals != 0).any(axis=-1)
            bad = np.where(eye, (vals != vals[:, :1, :1]).any(axis=-1), nonzero)
            # a flagged error also fails is_code, which is_pure is joined with
            if support and nonzero[:, 0, 0].any():
                is_pure = False
            for c in np.flatnonzero(bad.any(axis=(1, 2))).tolist():
                flagged[idxs[c]] = (vals[c], dens[c] * rden, bad[c])
    violations = [(errors[idx].label, i, j, Cyclotomic(n, vals[i, j].tolist(), den))
                  for idx, (vals, den, bad) in sorted(flagged.items())
                  for i, j in np.argwhere(bad).tolist()]
    return KLReport(d, not flagged, is_pure and not flagged, violations)


def distance(code: CodeSubspace) -> int:
    """Largest d with a passing Knill-Laflamme sweep, over increasing d.
    The sweep at d + 1 holds exactly when every operator on every d-site
    subset S satisfies the delta condition, that is R_S[j, i] =
    delta_ij R_S[0, 0]; smaller subsets are partial traces of these, so
    each candidate is decided from the size-d subsets alone, all reduced
    by one _reductions, with no error basis and so for any local
    dimension.  Capped at n+1, past which no new errors exist (the cap is
    only reachable for one-dimensional codes, where the delta condition is
    vacuous)."""
    n = code.n_sites
    d = 1
    while d <= n:
        tables, _ = _reductions(code.basis, list(combinations(range(n), d)))
        if not _delta_holds(tables, code.dimension).all():
            break
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
    # the subsets that keep equal dimensions are reduced together
    subsets = list(combinations(range(sites), r))
    by_dim: dict = {}
    for keep_pos in subsets:
        by_dim.setdefault(prod(v.dims[p] for p in keep_pos), []).append(keep_pos)
    reduced = {}
    for keeps in by_dim.values():
        tables, den = _reductions((v,), keeps)
        reduced.update(zip(keeps, zip(tables, _delta_holds(tables, 1, scalar=True).tolist())))
    ns = None
    uniform = True
    worst_subset = None
    worst = 0.0
    for keep_pos in subsets:
        g, holds = reduced[keep_pos]
        keep = tuple(p + 1 for p in keep_pos)
        if holds:
            dev = 0.0
        else:
            uniform = False
            ns = v.norm_sq() if ns is None else ns
            dim = len(g)
            rho = _density(v.n, [v.dims[p] for p in keep_pos], g, den).scale(Fraction(1, 1) / ns)
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


def stabilizer_subspace(generators, claimed_d: int | None = None) -> CodeSubspace:
    """Orthonormal exact basis of the simultaneous fixed space of the group
    generated by unitary Pauli-group elements, via the group-average
    projector."""
    gens = list(generators)
    dims = gens[0].dims
    nn = gens[0].n
    for g in gens:
        if g.dims != dims or g.n != nn:
            raise ValueError("generators must share dims and conductor")
        if not g.is_unitary():
            raise ValueError("stabilizer generators must be unitary")
    group = closure(gens, cap=10_000)
    # sum_g g as numerators over den, one weighted sum per chunk; column j
    # is the image sum_g g|j>
    acc, den = 0, 1
    for e, dens in _dense_packed(group.elements, range(len(dims))):
        total = lcm(den, *dens)
        weights = np.array([total // dn for dn in dens], dtype=object)
        part = _matmul(np.moveaxis(e, 0, -1), weights, int(weights.sum()))
        acc, den = acc * (total // den) + part.astype(object), total
    den *= group.order
    cols = [PureState._from_packed(nn, dims, acc[:, j], den) for j in range(prod(dims))
            if (acc[:, j] != 0).any()]
    # image basis from projector columns, orthonormalized exactly
    basis = orthonormalize(cols, drop_dependent=True)
    expected = Cyclotomic(nn, np.trace(acc).tolist(), den).as_fraction()
    if expected.denominator != 1 or len(basis) != expected.numerator:
        raise ArithmeticError("projector rank does not match its trace")
    d0 = dims[0]
    if any(d != d0 for d in dims):
        raise ValueError("mixed local dimensions")
    return CodeSubspace(len(dims), d0, basis, claimed_d=claimed_d)
