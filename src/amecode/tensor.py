"""Exact multi-qudit tensor algebra: pure states, factored local operators,
reduced densities, site contraction and matricization.

Amplitude order is row-major with site 1 varying slowest, so contracting
the computational bra <j| against site 1 just slices the amplitude vector.
Operators are kept in canonical factored form: a global scalar times one
matrix per site, each factor scaled so its first nonzero entry (row-major)
equals 1.  Canonical forms make equality of tensor-product operators
decidable even though phases can move between factors.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm, prod

import numpy as np

from .cyclo import ConductorMismatch, Cyclotomic, _field, sqrt_of_rational
from .linalg import Matrix


class DimensionMismatch(ValueError):
    pass


def _check_dims(a, b):
    if a.dims != b.dims:
        raise DimensionMismatch(f"{a.dims} vs {b.dims}")


class PureState:
    """Exact amplitude tensor over n qudit sites."""

    __slots__ = ("n", "dims", "amps", "_hash", "_packed")

    def __init__(self, n: int, dims, amps):
        dims = tuple(int(d) for d in dims)
        amps = tuple(Matrix._as_cyc(n, a) for a in amps)
        if len(amps) != prod(dims):
            raise ValueError(f"need {prod(dims)} amplitudes, got {len(amps)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_packed", None)

    def __setattr__(self, *a):
        raise AttributeError("PureState is immutable")

    @classmethod
    def basis_state(cls, n: int, dims, digits) -> PureState:
        """Computational basis ket |d1 d2 ... dn>."""
        dims = tuple(dims)
        idx = 0
        for d, digit in zip(dims, digits):
            idx = idx * d + int(digit)
        amps = [Cyclotomic.zero(n)] * prod(dims)
        amps[idx] = Cyclotomic.one(n)
        return cls(n, dims, amps)

    @property
    def sites(self) -> int:
        return len(self.dims)

    def scale(self, c) -> PureState:
        c = Matrix._as_cyc(self.n, c)
        return PureState(self.n, self.dims, [c * a for a in self.amps])

    def __add__(self, other):
        _check_dims(self, other)
        return PureState(self.n, self.dims, [a + b for a, b in zip(self.amps, other.amps)])

    def __sub__(self, other):
        _check_dims(self, other)
        return PureState(self.n, self.dims, [a - b for a, b in zip(self.amps, other.amps)])

    def __neg__(self):
        return PureState(self.n, self.dims, [-a for a in self.amps])

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.amps)

    def norm_sq(self) -> Fraction:
        v = inner(self, self)
        return v.as_fraction()

    def conj(self) -> PureState:
        return PureState(self.n, self.dims, [a.conj() for a in self.amps])

    def embed(self, m: int) -> PureState:
        return PureState(m, self.dims, [a.embed(m) for a in self.amps])

    def to_complex(self):
        return [a.to_complex() for a in self.amps]

    def to_dict(self) -> dict:
        return {
            "format": "state",
            "dims": list(self.dims),
            "conductor": self.n,
            "amps": [a.to_dict() for a in self.amps],
        }

    def __eq__(self, other):
        if not isinstance(other, PureState):
            return NotImplemented
        return self.n == other.n and self.dims == other.dims and self.amps == other.amps

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.n, self.dims, self.amps))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        nz = sum(1 for a in self.amps if not a.is_zero())
        return f"PureState(dims={self.dims}, {nz} nonzero amps)"


def inner(a: PureState, b: PureState) -> Cyclotomic:
    """<a|b>, conjugate-linear in the first argument."""
    _check_dims(a, b)
    acc = Cyclotomic.zero(a.n)
    for x, y in zip(a.amps, b.amps):
        if not (x.is_zero() or y.is_zero()):
            acc = acc + x.conj() * y
    return acc


def contract_site(bra_index: int, site: int, v: PureState) -> PureState:
    """<bra_index| applied at the given site (1-based); returns the
    (n-1)-site state."""
    pos = site - 1
    if not 0 <= pos < v.sites:
        raise IndexError(f"site {site} out of range 1..{v.sites}")
    d = v.dims[pos]
    if not 0 <= bra_index < d:
        raise IndexError(f"basis index {bra_index} out of range for dim {d}")
    inner_sz = prod(v.dims[pos + 1:])
    outer_sz = prod(v.dims[:pos])
    block = d * inner_sz
    amps = [v.amps[o * block + bra_index * inner_sz + r]
            for o in range(outer_sz) for r in range(inner_sz)]
    return PureState(v.n, v.dims[:pos] + v.dims[pos + 1:], amps)


def matricize(v: PureState, site: int) -> Matrix:
    """Matrix of shape (prod of other dims) x d_site whose column j is
    contract_site(j, site, v)."""
    if v.sites < 2:
        raise ValueError("matricize needs at least 2 sites")
    cols = [contract_site(j, site, v).amps for j in range(v.dims[site - 1])]
    return Matrix(v.n, list(zip(*cols)))


class LocalOperator:
    """scalar * (F_1 tensor ... tensor F_n) in canonical factored form."""

    __slots__ = ("n", "scalar", "factors", "_hash")

    def __init__(self, n: int, scalar, factors, *, _canonical: bool = False):
        scalar = Matrix._as_cyc(n, scalar)
        factors = tuple(f if isinstance(f, Matrix) else Matrix(n, f) for f in factors)
        if any(f.n != n for f in factors):
            raise ValueError("factor conductor mismatch")
        if not _canonical:
            canon = []
            for f in factors:
                lead, g = _canon_factor(f)
                scalar = scalar * lead
                canon.append(g)
            factors = tuple(canon)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "scalar", scalar)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("LocalOperator is immutable")

    @classmethod
    def identity(cls, dims, n: int) -> LocalOperator:
        return cls(n, 1, [Matrix.identity(d, n) for d in dims], _canonical=True)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)

    @property
    def sites(self) -> int:
        return len(self.factors)

    def __mul__(self, other):
        if not isinstance(other, LocalOperator):
            return NotImplemented
        if self.dims != other.dims or self.n != other.n:
            raise DimensionMismatch("operator product shape/conductor mismatch")
        scalar = self.scalar * other.scalar
        factors = []
        for a, b in zip(self.factors, other.factors):
            lead, g = _canon_mul(a, b)
            scalar = scalar * lead
            factors.append(g)
        return LocalOperator(self.n, scalar, factors, _canonical=True)

    def inv(self) -> LocalOperator:
        scalar = self.scalar.inv()
        factors = []
        for f in self.factors:
            lead, g = _canon_inv(f)
            scalar = scalar * lead
            factors.append(g)
        return LocalOperator(self.n, scalar, factors, _canonical=True)

    def dagger(self) -> LocalOperator:
        return LocalOperator(self.n, self.scalar.conj(), [f.dagger() for f in self.factors])

    def conj(self) -> LocalOperator:
        return LocalOperator(self.n, self.scalar.conj(), [f.conj() for f in self.factors])

    def weight(self) -> int:
        return sum(0 if f.is_identity() else 1 for f in self.factors)

    def is_unitary(self) -> bool:
        """Exact check: each factor unitary up to positive rational scale and
        the scalar balancing the total."""
        t = self.scalar * self.scalar.conj()
        for f in self.factors:
            g = f.dagger() * f
            d = g.shape[0]
            lead = g.rows[0][0]
            if not lead.is_rational():
                return False
            ident = Matrix.identity(d, self.n).scale(lead)
            if g != ident:
                return False
            t = t * lead
        return t == Cyclotomic.one(self.n)

    def embed(self, m: int) -> LocalOperator:
        return LocalOperator(
            m, self.scalar.embed(m),
            [Matrix(m, [[e.embed(m) for e in row] for row in f.rows]) for f in self.factors],
            _canonical=True)

    def to_dense(self) -> Matrix:
        out = self.factors[0]
        for f in self.factors[1:]:
            out = out.kron(f)
        return out.scale(self.scalar)

    def to_dict(self) -> dict:
        return {
            "format": "operator",
            "conductor": self.n,
            "scalar": self.scalar.to_dict(),
            "factors": [[[e.to_dict() for e in row] for row in f.rows] for f in self.factors],
        }

    def __eq__(self, other):
        if not isinstance(other, LocalOperator):
            return NotImplemented
        return (self.n == other.n and self.scalar == other.scalar
                and self.factors == other.factors)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.n, self.scalar, self.factors))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"LocalOperator(dims={self.dims}, N={self.n})"


def _canon_factor(f: Matrix) -> tuple[Cyclotomic, Matrix]:
    for row in f.rows:
        for e in row:
            if not e.is_zero():
                if e == Cyclotomic.one(f.n):
                    return e, f
                return e, f.scale(e.inv())
    raise ValueError("zero factor in local operator")


@lru_cache(maxsize=1 << 17)
def _canon_mul(a: Matrix, b: Matrix) -> tuple[Cyclotomic, Matrix]:
    return _canon_factor(a * b)


@lru_cache(maxsize=1 << 15)
def _canon_inv(f: Matrix) -> tuple[Cyclotomic, Matrix]:
    return _canon_factor(f.inv())


# -- packed exact kernel ---------------------------------------------------
#
# A stack of S states packs into one integer array of shape (S, *dims, deg):
# the power-basis numerators of every amplitude over one common denominator.
# Multiplying by a field element is then an integer deg x deg matrix built
# from the reduced powers of zeta, a d x d factor acts on its site through
# one integer (d*deg) x (d*deg) matrix, and a product operator is one matmul
# per non-identity site plus one for a scalar other than 1.  Before every
# contraction the largest sum it can form is bounded; arrays are int64 while
# that bound stays below 2**62 and Python ints (dtype=object, still exact)
# beyond it.

_INT64_SAFE = 1 << 62
_FIX_CHUNK = 32  # operators whose images fixed_by holds at once (bounds peak memory)


def _max_abs(x) -> int:
    return int(np.abs(x).max()) if x.size else 0


def _compact(x):
    """x as int64 when its entries allow, else as Python ints."""
    return x.astype(np.int64 if _max_abs(x) < _INT64_SAFE else object)


def _col_bound(m) -> int:
    """Largest absolute column sum of m: |(x @ m)| <= it * max|x|."""
    return int(np.abs(m.astype(object)).sum(axis=-2).max())


def _matmul(x, m, m_bound: int):
    """Exact x @ m, where m_bound is _col_bound(m)."""
    dtype = np.int64 if m_bound * _max_abs(x) < _INT64_SAFE else object
    return np.matmul(x.astype(dtype, copy=False), m.astype(dtype, copy=False))


def _scaled(x, k: int):
    """Exact k * x for a Python int k."""
    dtype = np.int64 if k * _max_abs(x) < _INT64_SAFE else object
    return x.astype(dtype, copy=False) * k


@lru_cache(maxsize=None)
def _structure(n: int):
    """(T, C) for conductor n: T[t, u] is the coefficient vector of
    zeta^(t+u), so a product of coefficient vectors x, y is
    sum x[t] y[u] T[t, u]; x @ C is the complex conjugate of x."""
    f = _field(n)
    deg = f.degree
    t = np.array([[f.powers[i + j] for j in range(deg)] for i in range(deg)], dtype=object)
    c = np.array([f.powers[(j * (n - 1)) % n] for j in range(deg)], dtype=object)
    return t.reshape(deg, deg, deg), _compact(c)


@lru_cache(maxsize=1 << 12)
def _action(f: Matrix):
    """(A, den, bound, identity): the factor f acts on the packed amplitudes
    of its site, flattened to (basis index, power) pairs, as x @ A / den."""
    t = _structure(f.n)[0]
    deg = t.shape[0]
    d = f.shape[0]
    den = lcm(*(e.den for row in f.rows for e in row))
    a = np.zeros((d, deg, d, deg), dtype=object)
    for i, row in enumerate(f.rows):
        for k, e in enumerate(row):
            if not e.is_zero():
                c = np.array(e.coeffs, dtype=object) * (den // e.den)
                a[k, :, i, :] = np.tensordot(c, t, axes=(0, 0))
    a = a.reshape(d * deg, d * deg)
    return _compact(a), den, _col_bound(a), f.is_identity()


@lru_cache(maxsize=1 << 12)
def _scalar_action(c: Cyclotomic):
    return _action(Matrix(c.n, [[c]]))


def _pack(v: PureState):
    """(x, den): v's amplitudes as numerators of shape (*dims, deg) over
    one denominator; computed once per state and read-only."""
    packed = v._packed
    if packed is None:
        den = lcm(*(a.den for a in v.amps))
        rows = [[c * (den // a.den) for c in a.coeffs] for a in v.amps]
        x = _compact(np.array(rows, dtype=object)).reshape(v.dims + (-1,))
        x.flags.writeable = False
        packed = (x, den)
        object.__setattr__(v, "_packed", packed)
    return packed


def _unpack(n: int, dims, x, den: int) -> PureState:
    return PureState(n, dims, [Cyclotomic(n, c, den)
                               for c in x.reshape(-1, x.shape[-1]).tolist()])


def _check_operands(op: LocalOperator, v: PureState):
    if op.dims != v.dims:
        raise DimensionMismatch(f"operator dims {op.dims} vs state dims {v.dims}")
    if op.n != v.n:
        raise ConductorMismatch(f"operator conductor {op.n} vs state conductor {v.n}")


def _apply_packed(ops, x, den: int):
    """Images of packed states under product operators.

    x holds S states, shape (S, *dims, deg), over the denominator den; ops
    holds C operators.  S and C pair up as in np.matmul (equal, or one of
    them 1).  Returns the images, whose leading axis broadcasts to
    max(S, C), and the denominator of each operator's images."""
    dens = [den] * len(ops)
    # the scalar acts as a 1 x 1 factor on one more site, of dimension 1
    sites = x.ndim - 2
    x = x[..., None, :]
    for pos in range(sites + 1):
        acts = [_action(op.factors[pos]) if pos < sites else _scalar_action(op.scalar)
                for op in ops]
        if all(a[3] for a in acts):
            continue
        y = np.moveaxis(x, pos + 1, -2)
        shape = y.shape
        y = _matmul(y.reshape(shape[0], -1, shape[-2] * shape[-1]),
                    np.stack([a[0] for a in acts]), max(a[2] for a in acts))
        x = np.moveaxis(y.reshape(y.shape[:1] + shape[1:]), -2, pos + 1)
        dens = [dn * a[1] for dn, a in zip(dens, acts)]
    return x[..., 0, :], dens


def apply(op: LocalOperator, v: PureState) -> PureState:
    """(scalar * tensor of factors)|v>, by the packed kernel."""
    _check_operands(op, v)
    x, den = _pack(v)
    images, dens = _apply_packed([op], x[None], den)
    return _unpack(v.n, v.dims, images[0], dens[0])


def fixed_by(ops, v: PureState) -> list[bool]:
    """For each operator g, whether g|v> == |v> exactly.  Images are formed
    _FIX_CHUNK operators at a time and compared with v by
    cross-multiplication, without building any field element."""
    ops = list(ops)
    for op in ops:
        _check_operands(op, v)
    x, den = _pack(v)
    out = []
    for start in range(0, len(ops), _FIX_CHUNK):
        part = ops[start:start + _FIX_CHUNK]
        images, dens = _apply_packed(part, x[None], den)
        images = np.broadcast_to(images, (len(part),) + x.shape)
        out.extend(np.array_equal(_scaled(img, den), _scaled(x, dn))
                   for img, dn in zip(images, dens))
    return out


class PackedBasis:
    """States u_1..u_K on one dims and conductor, packed once, for the
    matrix elements <u_i| g |u_j> of many product operators g."""

    __slots__ = ("n", "dims", "states", "x", "den", "_bra", "_bra_bound")

    def __init__(self, states):
        states = tuple(states)
        if not states:
            raise ValueError("empty basis")
        n, dims = states[0].n, states[0].dims
        for v in states:
            if v.dims != dims or v.n != n:
                raise ValueError("basis states must share dims and conductor")
        packs = [_pack(v) for v in states]
        den = lcm(*(d for _, d in packs))
        x = np.stack([_scaled(p, den // d).astype(object) for p, d in packs])
        t, conj = _structure(n)
        deg = t.shape[0]
        # bra[(a, u), (i, s)] = sum_t conj(u_i)[a, t] T[t, u, s], so that
        # (w @ bra)[i, s] are the coefficients of <u_i|w> times den
        bra = np.tensordot(np.matmul(x, conj.astype(object)), t, axes=([-1], [0]))
        bra = bra.reshape(len(states), -1, deg, deg).transpose(1, 2, 0, 3)
        bra = bra.reshape(-1, len(states) * deg)
        self.n, self.dims, self.states, self.den = n, dims, states, den
        self.x = _compact(x)
        self._bra, self._bra_bound = _compact(bra), _col_bound(bra)

    def _images(self, op: LocalOperator):
        """op|u_j> for every j, flattened to shape (K, amps * deg), and
        their denominator."""
        _check_operands(op, self.states[0])
        images, dens = _apply_packed([op], self.x, self.den)
        return images.reshape(len(self.states), -1), dens[0]

    def _table(self, w, den: int) -> list[list[Cyclotomic]]:
        k = len(self.states)
        vals = _matmul(w, self._bra, self._bra_bound).reshape(k, k, -1).tolist()
        den *= self.den
        return [[Cyclotomic(self.n, vals[j][i], den) for j in range(k)] for i in range(k)]

    def matrix_elements(self, op: LocalOperator) -> list[list[Cyclotomic]]:
        """The K x K table [<u_i| op |u_j>]; field elements are built only
        for its entries."""
        return self._table(*self._images(op))

    def restriction(self, op: LocalOperator):
        """(table, norms): the matrix_elements table and <op u_j|op u_j>
        for every j.  For an orthonormal basis, op|u_j> lies in the span
        exactly when sum_i |table[i][j]|^2 equals norms[j]."""
        w, den = self._images(op)
        t, conj = _structure(self.n)
        deg = t.shape[0]
        w3 = w.reshape(len(self.states), -1, deg)
        cw = _matmul(w3, conj, _col_bound(conj))
        gram = _matmul(cw.transpose(0, 2, 1), w3, w3.shape[1] * _max_abs(w3))
        t2 = t.reshape(deg * deg, deg)
        norms = _matmul(gram.reshape(len(self.states), -1), t2, _col_bound(t2)).tolist()
        return self._table(w, den), [Cyclotomic(self.n, c, den * den) for c in norms]


class DensityOperator:
    """Exact Hermitian operator on a subset of sites."""

    __slots__ = ("dims", "mat")

    def __init__(self, dims, mat: Matrix):
        dims = tuple(dims)
        if mat.shape != (prod(dims), prod(dims)):
            raise ValueError("matrix size does not match dims")
        if not mat.is_hermitian():
            raise ValueError("density operator must be Hermitian")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "mat", mat)

    def __setattr__(self, *a):
        raise AttributeError("DensityOperator is immutable")

    @property
    def n(self) -> int:
        return self.mat.n

    @classmethod
    def from_state(cls, v: PureState, normalize: bool = False) -> DensityOperator:
        amps = v.amps
        if normalize:
            ns = v.norm_sq()
            if ns == 0:
                raise ZeroDivisionError("cannot normalize the zero state")
            scale = Cyclotomic.from_rational(v.n, 1 / ns)
        else:
            scale = Cyclotomic.one(v.n)
        rows = [[scale * a * b.conj() for b in amps] for a in amps]
        return cls(v.dims, Matrix(v.n, rows))

    def trace(self) -> Fraction:
        return self.mat.trace().as_fraction()

    def scale(self, c) -> DensityOperator:
        return DensityOperator(self.dims, self.mat.scale(c))

    def proportional_to_identity(self):
        """The ratio c with mat == c*I, or None."""
        return self.mat.scalar_multiple_of(Matrix.identity(prod(self.dims), self.n))

    def __eq__(self, other):
        if not isinstance(other, DensityOperator):
            return NotImplemented
        return self.dims == other.dims and self.mat == other.mat

    def __repr__(self):
        return f"DensityOperator(dims={self.dims})"


def _keep_positions(keep, sites: int) -> list[int]:
    keep_pos = sorted(int(s) - 1 for s in keep)
    if not keep_pos:
        raise ValueError("keep set must be nonempty")
    if keep_pos[0] < 0 or keep_pos[-1] >= sites or len(set(keep_pos)) != len(keep_pos):
        raise ValueError(f"invalid keep set {sorted(keep)} for {sites} sites")
    return keep_pos


def partial_trace(obj, keep) -> DensityOperator:
    """Reduce a PureState (as |v><v|) or DensityOperator onto the 1-based
    sites in `keep`, tracing out the rest."""
    if isinstance(obj, PureState):
        return _partial_trace_state(obj, keep)
    if isinstance(obj, DensityOperator):
        return _partial_trace_density(obj, keep)
    raise TypeError(f"cannot partial-trace {type(obj).__name__}")


def _flat_index(multi, dims) -> int:
    idx = 0
    for m, d in zip(multi, dims):
        idx = idx * d + m
    return idx


def _all_multi(dims):
    if not dims:
        yield ()
        return
    for head in range(dims[0]):
        for tail in _all_multi(dims[1:]):
            yield (head,) + tail


def _partial_trace_state(v: PureState, keep) -> DensityOperator:
    keep_pos = _keep_positions(keep, v.sites)
    trace_pos = [p for p in range(v.sites) if p not in keep_pos]
    kdims = [v.dims[p] for p in keep_pos]
    tdims = [v.dims[p] for p in trace_pos]
    kn, tn = prod(kdims), prod(tdims)
    # M[keep, traced] rearrangement of the amplitude tensor
    m = [[None] * tn for _ in range(kn)]
    for multi in _all_multi(v.dims):
        a = v.amps[_flat_index(multi, v.dims)]
        ki = _flat_index([multi[p] for p in keep_pos], kdims)
        ti = _flat_index([multi[p] for p in trace_pos], tdims)
        m[ki][ti] = a
    zero = Cyclotomic.zero(v.n)
    rows = []
    for i in range(kn):
        row = []
        for j in range(kn):
            acc = zero
            for t in range(tn):
                x, y = m[i][t], m[j][t]
                if not (x.is_zero() or y.is_zero()):
                    acc = acc + x * y.conj()
            row.append(acc)
        rows.append(row)
    return DensityOperator(kdims, Matrix(v.n, rows))


def _partial_trace_density(rho: DensityOperator, keep) -> DensityOperator:
    keep_pos = _keep_positions(keep, len(rho.dims))
    trace_pos = [p for p in range(len(rho.dims)) if p not in keep_pos]
    kdims = [rho.dims[p] for p in keep_pos]
    tdims = [rho.dims[p] for p in trace_pos]
    kn = prod(kdims)
    zero = Cyclotomic.zero(rho.n)
    out = [[zero] * kn for _ in range(kn)]
    for mi in _all_multi(tuple(kdims)):
        i = _flat_index(mi, kdims)
        for mj in _all_multi(tuple(kdims)):
            j = _flat_index(mj, kdims)
            acc = zero
            for mt in _all_multi(tuple(tdims)):
                full_i = [0] * len(rho.dims)
                full_j = [0] * len(rho.dims)
                for p, vkeep in zip(keep_pos, mi):
                    full_i[p] = vkeep
                for p, vkeep in zip(keep_pos, mj):
                    full_j[p] = vkeep
                for p, vtr in zip(trace_pos, mt):
                    full_i[p] = vtr
                    full_j[p] = vtr
                e = rho.mat.rows[_flat_index(full_i, rho.dims)][_flat_index(full_j, rho.dims)]
                if not e.is_zero():
                    acc = acc + e
            out[i][j] = acc
    return DensityOperator(kdims, Matrix(rho.n, out))


def orthonormalize(states, drop_dependent: bool = False) -> list[PureState]:
    """Exact Gram-Schmidt.  Normalization needs sqrt of each rational norm
    to exist in the field; raises SqrtUnavailable otherwise."""
    basis: list[PureState] = []
    for v in states:
        w = v
        for b in basis:
            c = inner(b, w)
            if not c.is_zero():
                w = w - b.scale(c)
        if w.is_zero():
            if drop_dependent:
                continue
            raise ValueError("linearly dependent input state")
        ns = inner(w, w).as_fraction()
        root = sqrt_of_rational(ns, w.n)
        basis.append(w.scale(root.inv()))
    return basis
