"""Exact multi-qudit tensor algebra: pure states, factored local operators,
reduced densities and site contraction.

Amplitude order is row-major with site 1 varying slowest, so contracting
the computational bra <j| against site 1 just slices the amplitude vector.
A state carries its amplitudes as field elements, as packed integer
numerators over one denominator, or both: kernel results are packed and
build field elements only when something reads them.
Operators are kept in canonical factored form: a global scalar times one
matrix per site, each factor scaled so its first nonzero entry (row-major)
equals 1.  Canonical forms make equality of tensor-product operators
decidable even though phases can move between factors.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

import numpy as np

from .cyclo import ConductorMismatch, Cyclotomic, sqrt_of_rational
from .linalg import (Matrix, _col_bound, _compact, _matmul, _max_abs, _product_map, _scaled,
                     _structure, _tier, pack, right_actions, unpack)


class DimensionMismatch(ValueError):
    pass


def _check_dims(a, b):
    if a.dims != b.dims:
        raise DimensionMismatch(f"{a.dims} vs {b.dims}")


class PureState:
    """Exact amplitude tensor over n qudit sites.

    A state is built from its amplitudes, or by the kernels from packed
    numerators over one denominator (see _pack), and each form is made from
    the other when first read: the amplitudes with one Cyclotomic per
    distinct numerator row.  Equality, sums, scaling, site contraction,
    is_zero and inner products read the packed form only, so a state that
    comes out of a kernel and goes back into one builds no field element
    per amplitude; hashing, conversions and repr read the amplitudes."""

    __slots__ = ("n", "dims", "_amps", "_hash", "_packed")

    def __init__(self, n: int, dims, amps):
        dims = tuple(int(d) for d in dims)
        amps = tuple(Matrix._as_cyc(n, a) for a in amps)
        if len(amps) != prod(dims):
            raise ValueError(f"need {prod(dims)} amplitudes, got {len(amps)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "_amps", amps)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_packed", None)

    @classmethod
    def _from_packed(cls, n: int, dims, x, den: int) -> PureState:
        """The state of conductor n on dims whose amplitudes are the
        numerators x, prod(dims) rows of deg integers, over den > 0.  The
        pair is kept in lowest terms, as _pack gives it for the same
        amplitudes, so equal states have equal packed forms."""
        dims = tuple(dims)
        g = gcd(den, int(np.gcd.reduce(x, axis=None))) if den > 1 else 1
        x = _compact(x // g if g > 1 else x).reshape(dims + (-1,))
        x.flags.writeable = False
        v = object.__new__(cls)
        object.__setattr__(v, "n", n)
        object.__setattr__(v, "dims", dims)
        object.__setattr__(v, "_amps", None)
        object.__setattr__(v, "_hash", None)
        object.__setattr__(v, "_packed", (x, den // g))
        return v

    def __setattr__(self, *a):
        raise AttributeError("PureState is immutable")

    @property
    def amps(self) -> tuple[Cyclotomic, ...]:
        """The amplitudes, built from the packed form on first read."""
        amps = self._amps
        if amps is None:
            x, den = self._packed
            rows = list(map(tuple, x.reshape(-1, x.shape[-1]).tolist()))
            distinct: dict = {}
            for row in rows:
                if row not in distinct:  # by membership: a zero Cyclotomic is falsy
                    distinct[row] = Cyclotomic(self.n, row, den)
            amps = tuple(map(distinct.__getitem__, rows))
            object.__setattr__(self, "_amps", amps)
        return amps

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
        """c * self, by one matmul with c's packed action."""
        a, aden, bound, _ = _scalar_action(Matrix._as_cyc(self.n, c))
        x, den = _pack(self)
        y = _matmul(x.reshape(-1, x.shape[-1]), a, bound)
        return PureState._from_packed(self.n, self.dims, y, den * aden)

    def __add__(self, other):
        x, den = _pack_states((self, other))
        return PureState._from_packed(self.n, self.dims, x[0] + x[1], den)

    def __sub__(self, other):
        x, den = _pack_states((self, other))
        return PureState._from_packed(self.n, self.dims, x[0] - x[1], den)

    def __neg__(self):
        x, den = _pack(self)
        return PureState._from_packed(self.n, self.dims, -x, den)

    def is_zero(self) -> bool:
        return not _pack(self)[0].any()

    def norm_sq(self) -> Fraction:
        return gram([self])[0][0].as_fraction()

    def conj(self) -> PureState:
        return PureState(self.n, self.dims, [a.conj() for a in self.amps])

    def embed(self, m: int) -> PureState:
        return PureState(m, self.dims, [a.embed(m) for a in self.amps])

    def to_complex(self):
        return [a.to_complex() for a in self.amps]

    def __eq__(self, other):
        if not isinstance(other, PureState):
            return NotImplemented
        if self.n != other.n or self.dims != other.dims:
            return False
        (x, den), (y, other_den) = _pack(self), _pack(other)
        return den == other_den and np.array_equal(x, y)

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
    return gram((a, b))[0][1]


def contract_site(bra_index: int, site: int, v: PureState) -> PureState:
    """<bra_index| applied at the given site (1-based); returns the
    (n-1)-site state."""
    pos = site - 1
    if not 0 <= pos < v.sites:
        raise IndexError(f"site {site} out of range 1..{v.sites}")
    d = v.dims[pos]
    if not 0 <= bra_index < d:
        raise IndexError(f"basis index {bra_index} out of range for dim {d}")
    x, den = _pack(v)
    return PureState._from_packed(v.n, v.dims[:pos] + v.dims[pos + 1:],
                                  x[(slice(None),) * pos + (bra_index,)], den)


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
    def _from_canonical(cls, n: int, scalar: Cyclotomic, factors: tuple) -> LocalOperator:
        """The operator with a Cyclotomic scalar and a tuple of canonical
        Matrix factors, all of conductor n, taken as given: for factors
        already interned and canonical, so nothing is checked again."""
        op = object.__new__(cls)
        object.__setattr__(op, "n", n)
        object.__setattr__(op, "scalar", scalar)
        object.__setattr__(op, "factors", factors)
        object.__setattr__(op, "_hash", None)
        return op

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
# per non-identity site plus one for a scalar other than 1.  Operators are
# given per site as their distinct actions and an index into them, so a
# batch acts with each distinct factor's action once.  apply, _restriction
# and fixation run one chain of such contractions (_chain), whose largest
# sum is bounded once per call (_bounds); the bound picks exact float64,
# int64 or Python-int arithmetic (linalg._tier) for every site.  The
# factor actions and the bound-checked matmul of the other kernels come
# from linalg's packed matrix kernel, which the closures of groups use too.

_CHUNK_ENTRIES = 1 << 18  # packed integers a chunk of images or operators holds (bounds peak memory)


def _factor_actions(x, dens, n: int) -> list:
    """(A, den, bound, identity) for each factor f packed (linalg.pack) as
    numerators x, shape (k, d, d, deg), over dens: f acts on the packed
    amplitudes of its site, flattened to (basis index, power) pairs, as
    y @ A / den; bound is _col_bound(A), and identity whether f is the
    identity matrix."""
    a, bounds = right_actions(x.swapaxes(1, 2), n)
    identity = (a == np.eye(a.shape[1], dtype=a.dtype)).all(axis=(1, 2)).tolist()
    return [(m, den, bound, den == 1 and same)
            for m, den, bound, same in zip(a, dens, bounds, identity)]


@lru_cache(maxsize=1 << 12)
def _action(f: Matrix):
    """_factor_actions of the one factor f."""
    x, den = pack([f])
    return _factor_actions(x, [den], f.n)[0]


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


def _pack_states(states):
    """(x, den): states of one dims and conductor packed as numerators of
    shape (K, *dims, deg) over one denominator."""
    n, dims = states[0].n, states[0].dims
    for v in states:
        _check_dims(states[0], v)
        if v.n != n:
            raise ConductorMismatch(f"conductor {n} vs {v.n}")
    packs = [_pack(v) for v in states]
    den = lcm(*(d for _, d in packs))
    return _compact(np.stack([_scaled(p, den // d) for p, d in packs])), den


@lru_cache(maxsize=None)
def _conj_products(n: int):
    """(P, bound of P): P, of shape (deg, deg*deg), maps a coefficient
    vector x to the coefficients of zeta^t * conj(x) for t = 0..deg-1, so
    that x * conj(y) = sum_t x[t] (y @ P)[t]."""
    t, conj = _structure(n)
    deg = len(conj)
    p = np.einsum("au,tuw->atw", conj.astype(object), t).reshape(deg, deg * deg)
    return _compact(p), _col_bound(p)


def _gram(x, n: int):
    """Numerators over den**2 of the Gram matrices of rows x packed over
    den, shape (..., K, t, deg): g[..., i, j] = sum_t x[..., i, t] *
    conj(x[..., j, t]), shape (..., K, K, deg), one table per leading
    index.  One map of every coefficient vector to its conjugate's
    multiples by each power of zeta, then one contraction of the rows with
    each row's multiples over t and the powers, each bound-checked once
    for the whole batch; no array formed is larger than deg times the rows
    or than the tables."""
    p, p_bound = _conj_products(n)
    *batch, k, width, deg = x.shape
    # y[..., j, (t, s), u] = coefficient u of zeta^s * conj(x[..., j, t])
    y = _matmul(x.reshape(-1, deg), p, p_bound).reshape(*batch, k, width * deg, deg)
    g = _matmul(x.reshape(*batch, 1, k, width * deg), y, width * deg * _max_abs(y))
    return g.swapaxes(-3, -2)


def _gram_table(states):
    """(t, den): t[i, j] holds the numerators over den**2 of <u_i|u_j>, for
    states of one dims and conductor, by one packed contraction."""
    x, den = _pack_states(states)
    g = _gram(x.reshape(len(states), -1, x.shape[-1]), states[0].n)
    # g[i, j] = <u_j|u_i>, so the table is g transposed
    return g.transpose(1, 0, 2), den


def gram(states) -> list[list[Cyclotomic]]:
    """The table [<u_i|u_j>] of states of one dims and conductor; field
    elements are built only for its entries."""
    states = tuple(states)
    t, den = _gram_table(states)
    return [[Cyclotomic(states[0].n, c, den * den) for c in row] for row in t.tolist()]


def in_span(coeffs, norm: Cyclotomic) -> bool:
    """Whether a vector lies in the span of an orthonormal basis b_i, given
    its coefficients <b_i|v> and its squared norm <v|v>: exactly when
    <v|v> = sum_i |<b_i|v>|^2 (Pythagoras)."""
    return sum((c.conj() * c for c in coeffs), Cyclotomic.zero(norm.n)) == norm


def orthonormal_defect(states):
    """The first pair (i, j), in row-major order, with <u_i|u_j> != delta_ij,
    or None when the states are orthonormal.

    Decided on the packed Gram numerators over den**2, with no field
    element built: the power basis is a basis, so <u_i|u_j> == delta_ij
    exactly when its numerator is den**2 * delta_ij in the constant
    coefficient and 0 in every other."""
    t, den = _gram_table(tuple(states))
    delta = _scaled(np.eye(len(t), dtype=np.int64), den * den)
    pairs = np.argwhere((t[:, :, 0] != delta) | (t[:, :, 1:] != 0).any(axis=-1))
    return (int(pairs[0][0]), int(pairs[0][1])) if len(pairs) else None


def _check_operands(op: LocalOperator, v: PureState):
    if op.dims != v.dims:
        raise DimensionMismatch(f"operator dims {op.dims} vs state dims {v.dims}")
    if op.n != v.n:
        raise ConductorMismatch(f"operator conductor {op.n} vs state conductor {v.n}")


def _site(acts, index):
    """One site of _apply_packed: the distinct actions acts, as _action
    returns them, and index, the position in acts of each operator's
    action; None when every action is the identity."""
    if all(a[3] for a in acts):
        return None
    return (np.stack([a[0] for a in acts]), np.array([a[1] for a in acts], dtype=object),
            max(a[2] for a in acts), np.asarray(index))


def _sites(ops):
    """The sites of _apply_packed for product operators of one dims: each
    factor position, then the scalar, with one action per distinct entry."""
    out = []
    for pos in range(ops[0].sites + 1):
        scalar = pos == ops[0].sites
        distinct: dict = {}
        index = [distinct.setdefault(op.scalar if scalar else op.factors[pos], len(distinct))
                 for op in ops]
        act = _scalar_action if scalar else _action
        out.append(_site([act(f) for f in distinct], index))
    return out


def _chain(sites, x):
    """The images of x, shape (S, *dims, deg), under the operators given
    per site, each factor position and then the scalar, which acts as a
    1 x 1 factor on one more site, of dimension 1.  A site is None where
    every operator acts as the identity, else (A, index): the distinct
    actions A, in x's dtype, and index[c] the action of operator c.  One
    matmul per live site, in that dtype; S and C pair up as in np.matmul
    (equal, or one of them 1)."""
    x = x[..., None, :]
    for pos, site in enumerate(sites):
        if site is None:
            continue
        a, index = site
        y = np.moveaxis(x, pos + 1, -2)
        shape = y.shape
        y = y.reshape(shape[0], -1, shape[-2] * shape[-1])
        del x  # read only through y from here, so when y is a copy x can be freed
        y = np.matmul(y, a[index])
        x = np.moveaxis(y.reshape(y.shape[:1] + shape[1:]), -2, pos + 1)
    return x[..., 0, :]


def _bounds(sites, x):
    """(top, image bound, scale bound) for product operators given per site
    as (A, dens, bound, index) or None, acting on numerators x.  A
    contraction multiplies the largest entry by at most the column bound
    of its action, so top = max(max|x|, 1) times the product of the live
    sites' bounds bounds every entry of every intermediate and of every
    action.  The product of each live site's largest denominator bounds
    the factor by which an image's denominator exceeds x's."""
    top = max(_max_abs(x), 1)
    live = [s for s in sites if s is not None]
    return top, top * prod(s[2] for s in live), prod(max(s[1]) for s in live)


def _apply_packed(sites, x, den: int):
    """Images of packed states under product operators.

    x holds S states, shape (S, *dims, deg), over the denominator den, and
    the operators come per site as _chain takes them, with each site's
    actions as (A, dens, bound, index): over the denominators dens (an
    object array), bound the largest of their _col_bounds.  The arithmetic
    is picked once, from the image bound of _bounds, and every site runs in
    it.  Returns the images as int64 or Python ints, whose leading axis
    broadcasts to max(S, C), and the denominators of the operators'
    images, an object array that broadcasts likewise."""
    dtype = _tier(_bounds(sites, x)[1])
    images = _chain([None if s is None else (s[0].astype(dtype), s[3]) for s in sites],
                    x.astype(dtype))
    dens = np.array([den], dtype=object)
    for s in sites:
        if s is not None:
            dens = dens * s[1][s[3]]
    return images.astype(np.int64) if dtype is np.float64 else images, dens


def _fixed(sites, count: int, x, den: int) -> list[bool]:
    """For each of count operators, given per site as _apply_packed takes
    them, whether it fixes the state packed as x over den.  Its image has
    numerators y over den * s, s the product of its actions' denominators,
    so it fixes the state exactly when y == x * s, which builds no field
    element.  One arithmetic serves the whole call, picked from the larger
    of the two sides' bounds (_bounds), and the actions and the s convert
    to it once.  The operators run in chunks whose images hold about
    _CHUNK_ENTRIES / 8 packed integers, so that each working array stays
    small, taken in the order of their action at the first live site.  x
    is contracted there once with each action, in blocks of actions whose
    images hold about _CHUNK_ENTRIES packed integers, and the chunks of
    the operators that use a block gather their images from it."""
    top, image_bound, scale_bound = _bounds(sites, x)
    dtype = _tier(max(image_bound, top * scale_bound))
    acts = [None if s is None else (s[0].astype(dtype), s[3]) for s in sites]
    live = [pos for pos, s in enumerate(acts) if s is not None]
    if not live:  # every operator is the identity
        return [True] * count
    scales = np.ones(count, dtype=dtype)
    for pos in live:
        scales = scales * sites[pos][1].astype(dtype)[sites[pos][3]]
    x = x.astype(dtype)
    lead = live[0]
    a, index = acts[lead]
    acts[lead] = None
    # the head is kept with the next live site's axis beside the powers,
    # where _chain reads it, so a chunk's gathered rows need no other copy
    axis = live[1] + 1 if len(live) > 1 else -2
    order = np.argsort(index, kind="stable")
    ranked = index[order]
    block, step = max(1, _CHUNK_ENTRIES // x.size), max(1, _CHUNK_ENTRIES // (8 * x.size))
    out = np.empty(count, dtype=bool)
    for lo in range(0, len(a), block):
        head = _chain([None] * lead + [(a, np.arange(lo, min(lo + block, len(a))))], x[None])
        head = np.ascontiguousarray(np.moveaxis(head[..., None, :], axis, -2))
        first, last = np.searchsorted(ranked, [lo, lo + block]).tolist()
        for start in range(first, last, step):
            rows = order[start:min(start + step, last)]
            images = _chain([None if s is None else (s[0], s[1][rows]) for s in acts],
                            np.moveaxis(head[index[rows] - lo], -2, axis)[..., 0, :])
            same = images == x * scales[rows].reshape(-1, *(1,) * x.ndim)
            out[rows] = same.reshape(len(rows), -1).all(axis=1)
    return out.tolist()


def apply(op: LocalOperator, v: PureState) -> PureState:
    """(scalar * tensor of factors)|v>, by the packed kernel."""
    _check_operands(op, v)
    x, den = _pack(v)
    images, dens = _apply_packed(_sites([op]), x[None], den)
    return PureState._from_packed(v.n, v.dims, images[0], dens[0])


def fixed_by(ops, v: PureState) -> list[bool]:
    """For each operator g, whether g|v> == |v> exactly, by the packed
    kernel on the operators' distinct factors and scalars."""
    ops = list(ops)
    for op in ops:
        _check_operands(op, v)
    return _fixed(_sites(ops), len(ops), *_pack(v)) if ops else []


def _dense_packed(ops, positions):
    """Yields (e, dens) for consecutive chunks of the operators: each one's
    scalar times the tensor product of its factors at the 0-based
    positions, as numerators e[c] of shape (dim, dim, deg) over dens[c].
    A chunk holds about _CHUNK_ENTRIES packed integers.  Starting from the
    packed 1 x 1 identity, the scalar and then each factor multiply in
    through their cached actions, one bound-checked matmul per position."""
    deg = len(ops[0].scalar.coeffs)
    dim = prod(ops[0].factors[p].shape[0] for p in positions)
    step = max(1, _CHUNK_ENTRIES // (dim * dim * deg))
    for start in range(0, len(ops), step):
        chunk = ops[start:start + step]
        e = np.zeros((len(chunk), 1, 1, deg), dtype=np.int64)
        e[..., 0] = 1
        dens = [1] * len(chunk)
        for acts in ([_scalar_action(op.scalar) for op in chunk],
                     *([_action(op.factors[p]) for op in chunk] for p in positions)):
            c, rows, cols, _ = e.shape
            d = acts[0][0].shape[0] // deg
            # the action A[(y, t), (x, s)] multiplies zeta^t by the entry f[x, y]
            m = np.stack([a[0] for a in acts]).reshape(c, d, deg, d, deg)
            m = m.transpose(0, 2, 1, 3, 4).reshape(c, deg, d * d * deg)
            e = _matmul(e.reshape(c, rows * cols, deg), m, max(a[2] for a in acts))
            e = e.reshape(c, rows, cols, d, d, deg).transpose(0, 1, 4, 2, 3, 5)
            e = e.reshape(c, rows * d, cols * d, deg)
            dens = [dn * a[1] for dn, a in zip(dens, acts)]
        yield e, dens


def _local_elements(ops, positions, g, k: int):
    """(vals, dens): the numerators vals[c], shape (K, K, deg), of
    <u_i| E_c |u_j> = tr(E_c R[j, i]) for product operators E_c that act as
    the identity off the 0-based positions, given the blocks g of K states
    from _reduction(states, positions).  vals[c] is over dens[c] times the
    denominator of g.  Per chunk of operators, one contraction over the
    dim x dim entries and one map of the coefficient products, both
    bound-checked."""
    t2, t2_bound = _product_map(ops[0].n)
    dim = len(g) // k
    deg = g.shape[-1]
    # r[(a, b), (i, j, u)] = R[j, i][b, a]
    r = g.reshape(k, dim, k, dim, deg).transpose(3, 1, 2, 0, 4).reshape(dim * dim, -1)
    r_bound = dim * dim * _max_abs(r)
    vals, dens = [], []
    for e, chunk_dens in _dense_packed(ops, positions):
        c = len(e)
        p = _matmul(e.transpose(0, 3, 1, 2).reshape(c * deg, dim * dim), r, r_bound)
        p = p.reshape(c, deg, k * k, deg).transpose(0, 2, 1, 3).reshape(c, k * k, deg * deg)
        vals.append(_matmul(p, t2, t2_bound).reshape(c, k, k, deg))
        dens += chunk_dens
    return np.concatenate(vals), dens


def _restriction(op: LocalOperator, states):
    """(table, norms): [<u_i| op |u_j>] and every <op u_j|op u_j>, by one
    _apply_packed of op on the stacked states u_1..u_K and one _gram of the
    states stacked over their images."""
    _check_operands(op, states[0])
    x, den = _pack_states(states)
    images, dens = _apply_packed(_sites([op]), x, den)
    k = len(states)
    rows = np.concatenate([_scaled(x, dens[0]), _scaled(images, den)])
    g = _gram(_compact(rows).reshape(2 * k, -1, x.shape[-1]), op.n)
    den = (den * dens[0]) ** 2
    # g[a, b] = <row_b|row_a>, and the images are rows k..2k-1
    vals = g[k:].tolist()
    return ([[Cyclotomic(op.n, vals[j][i], den) for j in range(k)] for i in range(k)],
            [Cyclotomic(op.n, vals[j][k + j], den) for j in range(k)])


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

    def trace(self) -> Fraction:
        return self.mat.trace().as_fraction()

    def scale(self, c) -> DensityOperator:
        return DensityOperator(self.dims, self.mat.scale(c))

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
    """Reduce a PureState, as |v><v|, onto the 1-based sites in `keep`,
    tracing out the rest."""
    if isinstance(obj, PureState):
        return _density(obj.n, *_reduction((obj,), _keep_positions(keep, obj.sites)))
    raise TypeError(f"cannot partial-trace {type(obj).__name__}")


def _reduction(states, keep_pos):
    """(kdims, g, den): the blocks R[j, i] = M_j M_i^dagger of states
    u_1..u_K, where M_i is the matricization M[keep, traced] of u_i's packed
    amplitudes over the sites at the sorted 0-based positions keep_pos
    (possibly none), as _reductions forms them for one support.  g / den
    holds them as integer numerators of shape (K*dim, K*dim, deg), indexed
    ((j, b), (i, a)) with dim the product of kdims.  For one state, g / den
    is its reduction |v><v| onto keep_pos."""
    g, den = _reductions(states, [keep_pos])
    return [states[0].dims[p] for p in keep_pos], g[0], den


def _reductions(states, supports):
    """(g, den): g[s] / den holds the blocks of _reduction(states,
    supports[s]), for supports that keep equal dimensions: the Gram
    matrix of the rows of the K stacked matricizations over supports[s].
    The matricizations of a chunk of supports are stacked and all their
    blocks formed by one _gram; a chunk holds as many supports as fit
    _CHUNK_ENTRIES packed integers in the largest array _gram forms for
    one (its coefficient products or its blocks)."""
    x, den = _pack_states(states)
    k, sites, deg = len(states), x.ndim - 2, x.shape[-1]
    dim = prod(x.shape[p + 1] for p in supports[0])
    step = max(1, _CHUNK_ENTRIES // (max(x.size, k * dim * k * dim) * deg))
    out = []
    for start in range(0, len(supports), step):
        m = []
        for keep_pos in supports[start:start + step]:
            trace_pos = [p for p in range(sites) if p not in keep_pos]
            m.append(x.transpose([0] + [p + 1 for p in (*keep_pos, *trace_pos)] + [sites + 1])
                     .reshape(k * dim, -1, deg))
        out.append(_gram(np.stack(m), states[0].n))
    return (out[0] if len(out) == 1 else np.concatenate(out)), den * den


def _density(n: int, kdims, g, den: int) -> DensityOperator:
    """The DensityOperator on kdims with entries g / den."""
    return DensityOperator(kdims, unpack(n, [g], [den])[0])


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
