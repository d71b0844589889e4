"""Finite matrix groups by closure: the order-648
reflection group acting on code coordinates, its realization as transversal
gates, the order-5832 three-site normalizer of the code, and the local
symmetry group of the perfect tensor, which has 1944 elements as product
operators: the normalizer maps onto it 3-to-1 (see local_symmetry_group).

Closure is breadth-first over small-integer codes, so element sets are
exact and enumeration order is deterministic.  There is one engine: a
dense gate is closed as a one-site product operator, a scalar times a
canonical factor.  A product operator is an int32 row (scalar id,
canonical-factor id per site), keyed by the row's bytes, and a level's
products are numpy gathers from an int array of factor products and
lookups of its distinct scalar pairs, one dict read per distinct pair;
missing factor products are formed by linalg's packed kernel in one batch
per level and site, and divided by their leading entry through tensor's
packed scalar action, with one field element and one inverse per distinct
leading entry of the batch.
The ids and both tables belong to the conductor, not the closure, so the
closures of one process share them; the groups do not depend on the order
they are built in.

Every closure keeps its Cayley table, the index of each product h * g_i it
forms, and `homomorphism` checks a map given on the generators on every
edge of it, so the maps from the normalizer onto the reflection and local
symmetry groups are computed on every element, kernels included.

A group keeps the codes its closure found, and its elements are built from
them when first read.  Membership is looked up by code, a kernel builds
only its own elements, and a group of product operators decides which
elements fix a state on its codes (MatrixGroup.fixes): the packed kernel
of tensor acts with one action per distinct factor and scalar, so the
symmetry checks never build the 5832 operators of the normalizer.

Only `closure` takes a cap, for generators from outside the program.  The
paper's groups have fixed generators and known orders, so each passes a
constant: ten times the order the paper gives it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache
from math import gcd, lcm

import numpy as np

from . import catalog
from .cyclo import Cyclotomic, root_of_unity
from .linalg import Matrix, _compact, _matmul, pack, right_actions, unpack
from .tensor import (DimensionMismatch, LocalOperator, _check_operands, _factor_actions, _fixed,
                     _pack, _restriction, _scalar_action, _site, fixed_by, in_span)


class ClosureCapExceeded(RuntimeError):
    """More elements than the cap allows."""


class GeneratorTypeError(TypeError):
    """Closure generators must be all Matrix or all LocalOperator."""


class NotInNormalizer(ValueError):
    """The operator does not preserve the code subspace."""


@dataclass(frozen=True)
class MatrixGroup:
    """A finite group, kept as the integer codes its closure searched:
    codes[k] is element k's code in codec, the conductor's _ProductTable; a
    dense group's codes are those of its gates as one-site operators, and
    its elements are built back as Matrix gates.  table[h, i] is the index
    of elements[h] * generators[i]; element 0 is the identity.  The
    elements are built from the codes when first read.  Groups compare by
    their generators, which fix the closure's elements and their order."""

    generators: tuple
    table: np.ndarray = field(compare=False, repr=False)
    codes: np.ndarray = field(compare=False, repr=False)
    codec: object = field(compare=False, repr=False)

    @property
    def order(self) -> int:
        return len(self.codes)

    @property
    def _dense(self) -> bool:
        return isinstance(self.generators[0], Matrix)

    @cached_property
    def elements(self) -> tuple:
        return self._built(self.codes)

    def elements_at(self, indices) -> list:
        """The elements at the given indices; only these are built when the
        group's elements have not been read."""
        if "elements" in self.__dict__:
            return [self.elements[k] for k in indices]
        return list(self._built(self.codes[list(indices)]))

    def _built(self, codes) -> tuple:
        return self.codec.matrices(codes) if self._dense else self.codec.elements(codes)

    def fixes(self, v) -> list[bool]:
        """For each element g of a group of product operators, whether
        g|v> == |v> exactly: the packed kernel reads one action per distinct
        factor and scalar of the codes, and builds no element."""
        if self._dense:
            raise TypeError("only product operators act on states")
        _check_operands(self.generators[0], v)
        return _fixed(self.codec.sites(self.codes), self.order, *_pack(v))

    def index(self, g) -> int | None:
        """The index of g among the elements, or None when it is not one;
        found by g's code, so no element is built and no id is added."""
        first = self.generators[0]
        if not (type(g) is type(first) and g.n == first.n and _shape(g) == _shape(first)):
            return None
        if self._dense:
            if g.is_zero():
                return None
            g = LocalOperator(g.n, 1, [g])
        key = self.codec.key(g)
        return None if key is None else self._positions.get(key)

    @cached_property
    def _positions(self) -> dict:
        return dict(zip(self.codec.keys(self.codes), range(self.order)))

    def __contains__(self, g) -> bool:
        return self.index(g) is not None

    def set_equal(self, other: MatrixGroup) -> bool:
        """Whether the two groups have the same elements, decided on their
        codes, so no element is built: the groups of one conductor share a
        table, in which equal elements of one generator type have equal
        code rows."""
        return (self.codec is other.codec and self._dense == other._dense
                and set(self.codec.keys(self.codes)) == set(other.codec.keys(other.codes)))

    def sample(self, k: int, seed: int = 0) -> list:
        rng = random.Random(seed)
        return self.elements_at(rng.sample(range(self.order), min(k, self.order)))

    def verify_closure(self, sample_size: int = 200, seed: int = 0) -> bool:
        """Spot-check the group axioms on a sample of the elements."""
        for h in self.sample(sample_size, seed):
            if h.inv() not in self:
                return False
            for g in self.generators:
                if g * h not in self:
                    return False
        return True


def closure(generators, cap: int = 100_000) -> MatrixGroup:
    """Breadth-first multiplicative closure of the generators.

    The generators are all dense square Matrix gates of one shape and
    conductor, or all LocalOperators of one dims and conductor (see
    _operators).  Elements are searched as integer codes in the
    conductor's _ProductTable, a dense gate as a one-site operator, each
    with a hashable key that is equal exactly when the elements are: each
    level's products h * g, for h in the frontier and g in the generators,
    are formed in one batch and visited in (h, g) order, and the elements
    are built when first read, in search order.  The closures of a process
    share the table, so they reuse the scalars, factors and factor
    products found before; the elements, their order and the table do not
    depend on what was built first.  The frontiers run through the
    elements in index order, so the products, in the order formed, are the
    rows of the table after the identity's.  Raises ClosureCapExceeded if
    more than `cap` elements appear, which signals a non-finite or
    mis-specified group.
    """
    gens = tuple(generators)
    ops = _operators(gens)
    table = _product_table(ops[0].n)
    codes = table.codes([LocalOperator.identity(ops[0].dims, ops[0].n), *ops])
    keys = table.keys(codes)
    elements: dict = {}  # key -> index
    new = []
    for i, key in enumerate(keys):
        if key not in elements:
            elements[key] = len(elements)
            new.append(i)
    rows = [elements[key] for key in keys[1:]]  # the table, row-major; row 0 is the identity's
    found = [codes[new]]  # the codes of the elements, in index order
    gcodes, frontier = codes[1:], codes[new[1:]]
    while len(frontier):
        products = table.products(frontier, gcodes)
        new = []
        for i, key in enumerate(table.keys(products)):
            k = elements.get(key)
            if k is None:
                if len(elements) >= cap:
                    raise ClosureCapExceeded(f"closure exceeded cap {cap}")
                k = elements[key] = len(elements)
                new.append(i)
            rows.append(k)
        frontier = products[new]
        found.append(frontier)
    return MatrixGroup(gens, np.array(rows, dtype=np.int32).reshape(-1, len(gens)),
                       np.concatenate(found), table)


def _shape(g) -> tuple:
    return g.dims if isinstance(g, LocalOperator) else g.shape


def _operators(gens) -> list[LocalOperator]:
    """The generators as product operators, a dense gate as a one-site one,
    after checking that they are all square Matrix gates of one shape and
    conductor or all LocalOperators of one dims and conductor (else
    GeneratorTypeError or DimensionMismatch), and that none is singular:
    ValueError names the first generator of determinant 0 (for an operator,
    a zero scalar or a singular factor), so no product of factors is ever
    zero."""
    if not gens:
        raise ValueError("need at least one generator")
    first = gens[0]
    kind = Matrix if isinstance(first, Matrix) else LocalOperator
    for g in gens:
        if not isinstance(g, kind):
            raise GeneratorTypeError(f"cannot close {type(g).__name__}: generators must be "
                                     f"all Matrix or all LocalOperator")
        if g.n != first.n or _shape(g) != _shape(first):
            raise DimensionMismatch("generator shape/conductor mismatch")
    if kind is Matrix and first.shape[0] != first.shape[1]:
        raise DimensionMismatch(f"cannot close {first.shape} matrices")
    for i, g in enumerate(gens):
        if _singular(g):
            raise ValueError(f"generators[{i}] is singular (determinant 0)")
    return list(gens) if kind is LocalOperator else [LocalOperator(g.n, 1, [g]) for g in gens]


@lru_cache(maxsize=1 << 12)
def _singular(g) -> bool:
    """Whether a dense gate or product operator has determinant 0; cached,
    because the closures of one process share most generator factors."""
    if isinstance(g, LocalOperator):
        return g.scalar.is_zero() or any(_singular(f) for f in g.factors)
    return g.det().is_zero()


_INT64_MAX = 1 << 63


def _row_keys(x) -> list:
    """Hashable keys of the rows of an integer array, equal exactly when the
    rows are: the int64 bytes of a row that fits in int64, else its ints
    and their bit lengths (Python hashes an int modulo 2**61 - 1, so rows
    2**k and 2**(k + 61) would collide; their bit lengths tell them apart)."""
    flat = x.reshape(len(x), -1)
    if flat.dtype != object:
        return [r.tobytes() for r in flat.astype(np.int64, copy=False)]
    top = np.abs(flat).max(axis=1, initial=0)
    return [r.astype(np.int64).tobytes() if m < _INT64_MAX else _int_key(r.tolist())
            for r, m in zip(flat, top)]


def _int_key(row: list) -> tuple:
    return (*row, *map(int.bit_length, row))


def _lowest_terms(x, dens):
    """(x, dens): the matrices with numerators x, shape (k, rows, cols,
    deg), over dens, in lowest terms."""
    flat = x.reshape(len(x), -1)
    divs = [gcd(g, den) for g, den in zip(np.gcd.reduce(flat, axis=1).tolist(), dens)]
    if any(g != 1 for g in divs):
        x = x // _compact(np.array(divs, dtype=object)).reshape(-1, 1, 1, 1)
        dens = [den // g for den, g in zip(dens, divs)]
    return x, dens


class _PackedIds:
    """Ids for exact matrices given packed (linalg.pack) with one
    denominator each.  A matrix is reduced to lowest terms and keyed on
    (den, numerators), so equal matrices get equal ids whatever denominator
    they arrive over; x[i] and den[i] are id i in lowest terms."""

    def __init__(self):
        self.x, self.den = [], []
        self._ids: dict = {}

    @staticmethod
    def _lowest(x, dens):
        """(x, dens, keys): the matrices with numerators x, shape (k, rows,
        cols, deg), over dens, in lowest terms, and their keys."""
        x, dens = _lowest_terms(x, dens)
        return x, dens, list(zip(dens, _row_keys(x)))

    def get(self, x, dens) -> list:
        """Ids of the matrices with numerators x over dens, None for a
        matrix not seen before; no id is added."""
        return [self._ids.get(key) for key in self._lowest(x, dens)[2]]

    def __call__(self, x, dens) -> list[int]:
        """Ids of the matrices with numerators x, shape (k, rows, cols, deg),
        over dens; the matrices not seen before get the next ids."""
        x, dens, keys = self._lowest(x, dens)
        ids, new = [], []
        for key in keys:
            i = self._ids.get(key)
            if i is None:
                i = self._ids[key] = len(self._ids)
                new.append(len(ids))
            ids.append(i)
        if new:
            self.x.extend(_compact(x[new]))
            self.den.extend(dens[k] for k in new)
        return ids


def _grown(table, rows: int, cols: int):
    """table, an array padded with -1, with at least rows x cols entries in
    its first two axes; a side that is too short at least doubles."""
    r, c = table.shape[:2]
    if rows <= r and cols <= c:
        return table
    shape = (r if rows <= r else max(rows, 2 * r), c if cols <= c else max(cols, 2 * c))
    out = np.full((*shape, *table.shape[2:]), -1, table.dtype)
    out[:r, :c] = table
    return out


_LOW = (1 << 32) - 1


class _ProductTable:
    """Small-integer codes for the product operators of one conductor,
    shared by every closure at it (see _product_table).

    A code is the int32 row (scalar id, factor id per site), and its key is
    the row's bytes; scalars and canonical factors get ids as they first
    appear, so equal operators have equal keys.  A level's products are
    read from two tables:

    * factor id x generator-factor column -> (lead scalar id, id of the
      canonical factor of the product), an int32 array gathered with numpy;
      each generator factor gets a column when first used;
    * scalar ids (a, b) -> id of a*b, a dict keyed by one int per pair, so
      it holds only the pairs formed: a thin closure such as diag(2, 1, 1)
      makes a new scalar at every level.  Each scalar step of a level sorts
      its pairs, reads the dict once per distinct pair and finds each
      product's pair among them by binary search: the paper's steps have up
      to 4830 products and at most 72 distinct pairs.

    The five closures of the paper, the two dense ones included, use 216
    factors per site and 54 scalars in all, so nearly every product is a
    lookup, and each closure finds most of its factor products filled by
    those before it.  The factor pairs a level lacks at a site are
    multiplied in one batch by the packed kernel of linalg, each over the
    product of its two denominators, and made canonical by the exact
    inverse of the leading entry; the batch builds the field element,
    scalar id and inverse action of each distinct lead (den, numerators)
    once (the five closures fill 2160 factor pairs with 10 distinct
    leads).  Factors are interned on their packed numerators in lowest
    terms; a right action is built only for a generator factor, and a
    Matrix only for a factor of an element that is built."""

    def __init__(self, n: int):
        self.n = n
        self.scalars, self._scalar_ids = [], {}
        self.factors = _PackedIds()  # factor id -> packed numerators, den
        self._matrices = {}  # factor id -> Matrix, built when an element needs it
        self._inverses = {}
        self._columns = {}  # generator factor id -> its column of _factor_mul
        self._actions = []  # per column: (right action of its factor, bound)
        self._factor_mul = np.full((0, 0, 2), -1, dtype=np.int32)  # -1: not formed yet
        self._scalar_mul = {}  # (b << 32) | a -> id of scalars[a] * scalars[b]
        self._site_actions = {}  # factor id -> its _factor_actions entry, built to act on a state

    def _scalar_id(self, c: Cyclotomic) -> int:
        i = self._scalar_ids.get(c)
        if i is None:
            i = self._scalar_ids[c] = len(self.scalars)
            self.scalars.append(c)
        return i

    def _inverse_action(self, lead: Cyclotomic):
        """tensor._scalar_action of 1 / lead, inverting lead once."""
        act = self._inverses.get(lead)
        if act is None:
            act = self._inverses[lead] = _scalar_action(lead.inv())
        return act

    def _fill_factors(self, pairs) -> None:
        """Enter the canonical products of the factor pairs (a, b), all of
        one shape, in the factor table; b has a column."""
        x, dens = self.factors.x, self.factors.den
        right = [self._actions[self._columns[b]] for _, b in pairs]
        # np.array stacks these arrays of one shape at a fraction of the fixed
        # cost of np.stack, which a thin closure pays at every level
        left = np.array([x[a] for a, _ in pairs])
        p = _matmul(left.reshape(*left.shape[:2], -1), np.array([r[0] for r in right]),
                    max(r[1] for r in right))
        d = p.shape[1]
        p = p.reshape(len(pairs), d * d, -1)
        dens = [dens[a] * dens[b] for a, b in pairs]
        # factors of invertible generators: every product has a nonzero entry
        first = np.abs(p).max(axis=2).astype(bool).argmax(axis=1).tolist()
        # one Cyclotomic, scalar id and inverse action per distinct lead
        # (den, numerators), in order of first occurrence
        keys = {}
        index = [keys.setdefault((den, *p[k, j].tolist()), len(keys))
                 for k, (j, den) in enumerate(zip(first, dens))]
        leads = [Cyclotomic(self.n, list(key[1:]), key[0]) for key in keys]
        acts, inv_dens, bounds, _ = zip(*map(self._inverse_action, leads))
        lead_ids = [self._scalar_id(c) for c in leads]
        q = _matmul(p, np.array([acts[k] for k in index]), max(bounds))
        ids = self.factors(q.reshape(len(pairs), d, d, -1),
                           [den * inv_dens[k] for den, k in zip(dens, index)])
        for (a, b), k, i in zip(pairs, index, ids):
            self._factor_mul[a, self._columns[b]] = (lead_ids[k], i)

    def _factor_products(self, a, b):
        """(lead scalar ids, factor ids) of the products of factors a[i] and
        b[j], each of shape (len(a), len(b))."""
        cols = [self._column(f) for f in b.tolist()]
        self._factor_mul = _grown(self._factor_mul, len(self.factors.x), len(self._columns))
        e = self._factor_mul[a[:, None], cols]
        missing = np.nonzero(e[..., 1] < 0)
        if len(missing[0]):
            self._fill_factors(list(dict.fromkeys(zip(a[missing[0]].tolist(),
                                                      b[missing[1]].tolist()))))
            e = self._factor_mul[a[:, None], cols]
        return e[..., 0], e[..., 1]

    def _column(self, f: int) -> int:
        """The column of _factor_mul for right factor f, made on first use
        with the right action of f."""
        c = self._columns.get(f)
        if c is None:
            a, bounds = right_actions(self.factors.x[f][None], self.n)
            self._actions.append((a[0], bounds[0]))
            c = self._columns[f] = len(self._columns)
        return c

    def _scalar_products(self, a, b):
        """Ids of scalars[a] * scalars[b], for int arrays that broadcast.
        The table is read once per distinct pair, the pairs it lacks are
        formed in ascending order of their keys, and each product's id is
        gathered by its pair's place among the distinct ones.  A key puts b
        in its high half: an int hashes to itself, so the low bits, which
        pick a dict slot, hold a, which takes many values, and not b, a
        lead or generator scalar, which takes few."""
        pairs = (b.astype(np.int64) << 32) | a
        s = np.sort(pairs, axis=None)
        distinct = s[np.concatenate(([True], s[1:] != s[:-1]))]
        table, scalars = self._scalar_mul, self.scalars
        ids = []
        for ab in distinct.tolist():
            i = table.get(ab)
            if i is None:
                i = table[ab] = self._scalar_id(scalars[ab & _LOW] * scalars[ab >> 32])
            ids.append(i)
        return np.array(ids, dtype=np.int32)[distinct.searchsorted(pairs)]

    def sites(self, codes):
        """The sites of tensor._apply_packed for the operators with these
        codes: each factor column, then the scalar, with one action per
        distinct id.  The actions of factors not acted with before are
        built in one tensor._factor_actions call per shape."""
        columns = [np.unique(codes[:, c], return_inverse=True)
                   for c in [*range(1, codes.shape[1]), 0]]
        acts, shapes = self._site_actions, {}
        for i in sorted({i for ids, _ in columns[:-1] for i in ids.tolist()}.difference(acts)):
            shapes.setdefault(self.factors.x[i].shape, []).append(i)
        for new in shapes.values():
            acts.update(zip(new, _factor_actions(np.stack([self.factors.x[i] for i in new]),
                                                 [self.factors.den[i] for i in new], self.n)))
        *factors, (scalars, index) = columns
        return [*(_site([acts[i] for i in ids.tolist()], index) for ids, index in factors),
                _site([_scalar_action(self.scalars[i]) for i in scalars.tolist()], index)]

    def codes(self, ops) -> np.ndarray:
        rows = []
        for g in ops:
            packs = [pack([f]) for f in g.factors]  # one each: the sites may differ in shape
            rows.append([self._scalar_id(g.scalar),
                         *(self.factors(x, [den])[0] for x, den in packs)])
        return np.array(rows, dtype=np.int32)

    @staticmethod
    def keys(codes) -> list[bytes]:
        codes = np.ascontiguousarray(codes)
        return codes.view(np.dtype((np.void, codes.itemsize * codes.shape[1]))).ravel().tolist()

    def key(self, g):
        """The key of g's code, or None at its first scalar or factor
        without an id; adds no id."""
        row = [self._scalar_ids.get(g.scalar)]
        for f in g.factors:
            if row[-1] is None:
                return None
            x, den = pack([f])
            row += self.factors.get(x, [den])
        return None if row[-1] is None else self.keys(np.array([row], dtype=np.int32))[0]

    def products(self, frontier, gcodes) -> np.ndarray:
        """The codes of h * g, for h in the frontier and g in the generators,
        in (h, g) order."""
        out = np.empty((len(frontier), *gcodes.shape), dtype=np.int32)
        s = self._scalar_products(frontier[:, :1], gcodes[:, 0])
        for site in range(1, gcodes.shape[1]):
            lead, out[..., site] = self._factor_products(frontier[:, site], gcodes[:, site])
            s = self._scalar_products(s, lead)
        out[..., 0] = s
        return out.reshape(-1, gcodes.shape[1])

    def elements(self, codes) -> tuple:
        n, scalars, factors = self.n, self.scalars, self._matrices
        new = list(set(codes[:, 1:].ravel().tolist()).difference(factors))
        factors.update(zip(new, unpack(n, [self.factors.x[i] for i in new],
                                       [self.factors.den[i] for i in new])))
        return tuple(LocalOperator._from_canonical(n, scalars[k[0]],
                                                   tuple(factors[i] for i in k[1:]))
                     for k in codes.tolist())

    def matrices(self, codes) -> tuple:
        """The dense gates scalar * factor of one-site codes: one packed
        product of the factor numerators with each distinct scalar's action
        (as _fill_factors divides by a lead), then one linalg.unpack call
        in lowest terms, where equal entries share one field element."""
        if not len(codes):
            return ()
        scalars, index = np.unique(codes[:, 0], return_inverse=True)
        acts, dens, bounds, _ = zip(*(_scalar_action(self.scalars[i]) for i in scalars.tolist()))
        factors = codes[:, 1].tolist()
        x = np.array([self.factors.x[i] for i in factors])
        p = _matmul(x.reshape(len(x), -1, x.shape[-1]), np.array(acts)[index], max(bounds))
        return tuple(unpack(self.n, *_lowest_terms(
            p.reshape(x.shape), [self.factors.den[i] * dens[k]
                                 for i, k in zip(factors, index.tolist())])))


@cache
def _product_table(n: int) -> _ProductTable:
    """The product-operator table of conductor n: built once per process,
    so its closures share their scalars, factors and factor products."""
    return _ProductTable(n)


# -- homomorphisms ------------------------------------------------------------


def _discovery_edges(group: MatrixGroup) -> tuple[list, list]:
    """(parent, gen): element k > 0 first occurs in group.table, row-major,
    as elements[parent[k]] * generators[gen[k]], so parent[k] < k."""
    values, first = np.unique(group.table, return_index=True)
    parent, gen = np.zeros((2, group.order), dtype=np.int64)
    parent[values], gen[values] = np.divmod(first, group.table.shape[1])
    return parent.tolist(), gen.tolist()


def _right_multiplication(group: MatrixGroup, edges, k: int):
    """The index array r with elements[r[h]] == elements[h] * elements[k]:
    the table columns of k's discovery word, composed."""
    if k == 0:
        return np.arange(group.order)
    parent, gen = edges
    return group.table[_right_multiplication(group, edges, parent[k]), gen[k]]


def homomorphism(source: MatrixGroup, target: MatrixGroup, images):
    """The homomorphism sending source.generators[i] to images[i], as an
    index array phi (source element k to target element phi[k]), or None
    when the images define none.

    phi is propagated along each element's discovery edge, phi(h * g_i) =
    phi(h) * images[i], with right multiplication read from target.table;
    then the same equation is checked on every edge of source.table, one
    comparison per generator.  When all agree, phi is well defined and
    multiplicative, as every element is a word in the generators.  Raises
    ValueError for an image that is not in the target."""
    if len(images) != len(source.generators):
        raise ValueError(f"need {len(source.generators)} images, got {len(images)}")
    edges = _discovery_edges(target)
    right = []
    for i, t in enumerate(images):
        k = target.index(t)
        if k is None:
            raise ValueError(f"images[{i}] is not in the target group")
        right.append(_right_multiplication(target, edges, k))
    parent, gen = _discovery_edges(source)
    columns = [r.tolist() for r in right]
    phi = [0] * source.order
    for k in range(1, source.order):
        phi[k] = columns[gen[k]][phi[parent[k]]]
    phi = np.array(phi)
    if all(np.array_equal(phi[source.table[:, i]], r[phi]) for i, r in enumerate(right)):
        return phi
    return None


def image_fibres_kernel(source: MatrixGroup, phi):
    """(image order, the distinct fibre sizes over the image, the kernel as
    a set of source elements) of the homomorphism phi; for phi None, no
    homomorphism, (0, (), set())."""
    if phi is None:
        return 0, (), set()
    counts = np.bincount(phi)
    fibres = counts[counts > 0]
    return (len(fibres), tuple(sorted(set(fibres.tolist()))),
            set(source.elements_at(np.flatnonzero(phi == 0).tolist())))


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
    col = Matrix(n, [[e] for e in a])
    coef = (Cyclotomic.one(n) - root_of_unity(n // order, n)) / (col.dagger() * col)[0, 0]
    return Matrix.identity(len(a), n) - (col * col.dagger()).scale(coef)


def weyl_generators(n: int = 12) -> tuple[Matrix, Matrix, Matrix]:
    """The three order-3 reflections built from the catalog vectors; built
    once per conductor in a process."""
    return _weyl_generators(n)


@cache
def _weyl_generators(n: int) -> tuple[Matrix, Matrix, Matrix]:
    return tuple(reflection(v, 3, n) for v in catalog.reflection_vectors(n))


def weyl_group(n: int = 12) -> MatrixGroup:
    """Closure of the three reflection generators; order 648.  Built once
    per conductor in a process."""
    return _weyl_group(n)


@cache
def _weyl_group(n: int) -> MatrixGroup:
    return closure(weyl_generators(n), cap=6480)


# -- code-space restriction --------------------------------------------------


def mu_matrix(g: LocalOperator, code) -> Matrix:
    """Matrix of g restricted to the code, entries <u_i| g |u_j>.

    Raises NotInNormalizer when g does not preserve the span, checked
    exactly: against the orthonormal basis, g|u_j> lies in the span iff
    its squared norm equals the sum of |<u_i| g |u_j>|^2 over i."""
    table, norms = _restriction(g, code.basis)
    for j, norm in enumerate(norms):
        if not in_span([row[j] for row in table], norm):
            raise NotInNormalizer(f"operator maps basis vector {j} outside the code")
    return Matrix(g.n, table)


@lru_cache(maxsize=64)
def _code_restriction(g: LocalOperator) -> Matrix:
    """mu_matrix of the three-site operator g on the ((3,3,2))_3 code of its
    conductor, computed once per distinct operator in a process: the checks
    that restrict the five normalizer generators share it."""
    return mu_matrix(g, catalog.code_332(g.n))


@dataclass
class CosetReport:
    restriction_matches: list[bool]
    su_factor_checks: list[bool]
    mismatches: list[str] = field(default_factory=list)


def verify_coset_representatives(n: int = 12) -> CosetReport:
    """Check that each published representative restricts to its reflection
    generator exactly, and that each admits an exact per-site factorization
    into special-unitary matrices, materialized at lcm(n, 36), the smallest
    conductor holding both the representatives and zeta_36."""
    targets = weyl_generators(n)
    reps = catalog.coset_representatives(n)
    matches, sus, mismatches = [], [], []
    for i, (q, r) in enumerate(zip(reps, targets), 1):
        try:
            m = _code_restriction(q)
        except NotInNormalizer as exc:
            matches.append(False)
            mismatches.append(f"rep {i}: {exc}")
            continue
        matches.append(m == r)
        rows = range(m.shape[0])
        mismatches += [f"rep {i}: entry ({a},{b}) differs" for a in rows for b in rows
                       if m.rows[a][b] != r.rows[a][b]]
    su_n = lcm(n, 36)
    su_factors = catalog.coset_representative_su_factors(su_n)
    for i, (q, trip) in enumerate(zip(reps, su_factors), 1):
        rebuilt = LocalOperator(su_n, 1, list(trip)) == q.embed(su_n)
        faults = [] if rebuilt else [f"rep {i}: special-unitary factors do not rebuild it"]
        faults += [f"rep {i}: factor not special-unitary" for f in trip
                   if not (f.is_unitary() and f.det() == Cyclotomic.one(su_n))]
        sus.append(not faults)
        mismatches += faults
    return CosetReport(matches, sus, mismatches)


def transversal_group(n: int = 12) -> MatrixGroup:
    """Closure of the restrictions to the ((3,3,2))_3 code of the two
    stabilizer generators and the three coset representatives; equals the
    reflection group."""
    lifts = [catalog.xxx(3, 3, n), catalog.zzz(3, 3, n), *catalog.coset_representatives(n)]
    images = []
    for g in lifts:
        m = _code_restriction(g)
        if m not in images:
            images.append(m)
    return closure(images, cap=6480)


# -- the local symmetry group ------------------------------------------------


def local_symmetry_group(n: int = 12) -> MatrixGroup:
    """Closure of the five four-site generators of the symmetry group of the
    perfect tensor.  Every generator is checked to fix the state exactly
    first.

    The exact closure has 1944 distinct product operators.  The published
    count 5832 = 648 * 9 enumerates the three-site normalizer (see
    normalizer_group_332), which maps onto this group 3-to-1: the central
    scalars {I, wI, w^2I} of the normalizer pair with their conjugated code
    restrictions to give the identity operator on four sites.
    """
    phi = catalog.ame_state(n, normalized=False)
    gens = catalog.local_symmetry_generators(n)
    for i, fixed in enumerate(fixed_by(gens, phi)):
        if not fixed:
            raise ValueError(f"generator {i + 1} does not fix the perfect tensor")
    return closure(gens, cap=58320)


def normalizer_group_332(n: int = 12) -> MatrixGroup:
    """The group of three-site product operators preserving the code:
    closure of the two stabilizer generators and the three coset
    representatives; order 5832 = 648 * 9.  Built once per conductor in a
    process."""
    return _normalizer_group_332(n)


@cache
def _normalizer_group_332(n: int) -> MatrixGroup:
    gens = [catalog.xxx(3, 3, n), catalog.zzz(3, 3, n),
            *catalog.coset_representatives(n)]
    return closure(gens, cap=58320)


@dataclass
class LocalSymmetryReport:
    operator_order: int
    normalizer_order: int
    generators_fix_state: bool
    all_elements_fix_state: bool
    lift_is_homomorphism: bool
    image_order: int
    fibre_sizes: tuple
    kernel_is_scalars: bool


def local_symmetry_report(n: int = 12) -> LocalSymmetryReport:
    """Structural verification of the local symmetry group: every generator
    and every element fixes the perfect tensor exactly, and A -> conj(mu(A))
    (x) A, given on the normalizer generators by their lifts, is checked as
    a homomorphism from the normalizer on every edge of its table.  Its
    image, fibres and kernel are read off exactly; the kernel is compared
    with the central scalars w^k * I as a set."""
    phi = catalog.ame_state(n, normalized=False)
    group = local_symmetry_group(n)
    norm = normalizer_group_332(n)
    lifts = [LocalOperator(n, a.scalar, [_code_restriction(a).conj(), *a.factors])
             for a in norm.generators]
    lift = homomorphism(norm, group, lifts)
    image, fibres, kernel = image_fibres_kernel(norm, lift)
    w = root_of_unity(n // 3, n)
    ident = Matrix.identity(3, n)
    fixed = group.fixes(phi)
    return LocalSymmetryReport(
        operator_order=group.order,
        normalizer_order=norm.order,
        generators_fix_state=all(fixed[group.index(g)] for g in group.generators),
        all_elements_fix_state=all(fixed),
        lift_is_homomorphism=lift is not None,
        image_order=image,
        fibre_sizes=fibres,
        kernel_is_scalars=kernel == {LocalOperator(n, w ** k, [ident] * 3) for k in range(3)},
    )


# -- stabilizer/centralizer consistency ---------------------------------------


@dataclass
class CentralizerReport:
    order: int
    fixes_code_pointwise: bool
    special_linear_factorable: bool
    generators_commute: bool
    mu_is_homomorphism: bool
    mu_image_order: int
    weyl_order: int
    mu_fibre_sizes: tuple
    kernel_is_centralizer: bool


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
    determinant-1 product, and the group is the kernel of the code
    restriction mu, checked as a homomorphism from the normalizer onto the
    reflection group on every edge of the normalizer's table; so no other
    normalizer element acts trivially on the code."""
    x3, z3 = catalog.xxx(3, 3, n), catalog.zzz(3, 3, n)
    group = closure([x3, z3], cap=90)
    basis = catalog.code_basis(n)
    norm = normalizer_group_332(n)
    weyl = weyl_group(n)
    mu = homomorphism(norm, weyl, [_code_restriction(a) for a in norm.generators])
    image, fibres, kernel = image_fibres_kernel(norm, mu)
    return CentralizerReport(
        order=group.order,
        fixes_code_pointwise=all(all(group.fixes(s)) for s in basis),
        special_linear_factorable=all(sl_factorable(g) for g in group.elements),
        generators_commute=x3 * z3 == z3 * x3,
        mu_is_homomorphism=mu is not None,
        mu_image_order=image,
        weyl_order=weyl.order,
        mu_fibre_sizes=fibres,
        kernel_is_centralizer=kernel == set(group.elements),
    )
