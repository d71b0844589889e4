import dataclasses
import random
from fractions import Fraction
from itertools import combinations, product
from math import comb, prod

import numpy as np
import pytest

from amecode import catalog, qecc, tensor
from amecode.correspondence import reduce_state
from amecode.cyclo import ConductorMismatch, Cyclotomic, default_conductor, root_of_unity
from amecode.groups import closure
from amecode.linalg import Matrix
from amecode.qecc import (CodeSubspace, ErrorBasisElement, _pauli_error_basis, distance,
                          error_label, kl_check,
                          pauli_error_basis, r_uniform_check, singleton_check,
                          stabilizer_subspace)
from amecode.tensor import (DimensionMismatch, LocalOperator, PureState, _reduction,
                            _reductions, apply, fixed_by, gram, in_span, inner, orthonormalize)

N = 12
N2 = default_conductor(2)


def test_error_basis_counts():
    # oracle: sum over weights of C(n,w) * (D^2-1)^w
    for n_sites, d, w in [(3, 3, 1), (3, 3, 3), (1, 2, 0), (4, 2, 2)]:
        expected = sum(comb(n_sites, k) * (d * d - 1) ** k for k in range(w + 1))
        assert len(pauli_error_basis(n_sites, d, w)) == expected
    assert len(pauli_error_basis(3, 3, 1)) == 25
    assert len(pauli_error_basis(3, 3, 3)) == 729
    assert len(pauli_error_basis(1, 2, 0)) == 1


def test_error_basis_weights_and_labels():
    basis = pauli_error_basis(2, 3, 2)
    for e in basis:
        assert e.weight == sum(1 for ab in e.exponents if ab != (0, 0))
    labels = [e.label for e in basis]
    assert labels[0] == "X0Z0.X0Z0"
    assert len(set(labels)) == len(labels)


def test_error_basis_rejects_bad_arguments():
    with pytest.raises(ValueError):
        pauli_error_basis(2, 1, 1)
    with pytest.raises(ValueError):
        pauli_error_basis(2, 3, 3)


def test_error_basis_built_once_per_key():
    basis = pauli_error_basis(3, 3, 1)
    assert isinstance(basis, tuple)
    # conductor=None is the default conductor, so both calls share one key
    assert pauli_error_basis(3, 3, 1, conductor=12) is basis
    assert pauli_error_basis(3, 3, 1, conductor=36) is not basis
    fresh = _pauli_error_basis.__wrapped__(3, 3, 1, 12)
    assert [(e.op, e.exponents, e.label) for e in fresh] == \
        [(e.op, e.exponents, e.label) for e in basis]


def _reference_error_basis(n, d, max_weight, nn):
    """Every operator canonicalized from its raw X^a Z^b factors."""
    nontrivial = [(a, b) for a in range(d) for b in range(d) if (a, b) != (0, 0)]
    out = []
    for w in range(max_weight + 1):
        for sites in combinations(range(n), w):
            for assignment in product(nontrivial, repeat=w):
                exps = [(0, 0)] * n
                for pos, e in zip(sites, assignment):
                    exps[pos] = e
                op = LocalOperator(nn, 1, [catalog.pauli_power(d, nn, a, b) for a, b in exps])
                out.append(ErrorBasisElement(op, tuple(exps), error_label(exps)))
    return tuple(out)


@pytest.mark.parametrize("n, d", [(3, 3), (4, 2), (2, 4)])
def test_error_basis_matches_canonicalizing_each_operator(n, d):
    nn = default_conductor(d)
    basis = _pauli_error_basis.__wrapped__(n, d, 2, nn)
    # ErrorBasisElement equality compares operators (scalar and factors),
    # exponents and labels
    assert basis == _reference_error_basis(n, d, 2, nn)


@pytest.mark.parametrize("name, d", [("332", 2), ("332", 3), ("442", 2)])
def test_kl_check_default_basis_matches_explicit(name, d):
    # the shared basis sweeps exactly as an explicit list of the same errors
    code = catalog.code_332() if name == "332" else catalog.code_442()
    errors = list(pauli_error_basis(code.n_sites, code.local_dim, d - 1,
                                    conductor=code.conductor))
    assert kl_check(code, d) == kl_check(code, d, errors=errors)


def test_code332_kl(code332):
    rep = kl_check(code332, 2)
    assert rep.is_code and rep.is_pure
    assert not rep.violations
    # purity: every nontrivial weight-1 error has <u_i|E|u_j> = 0
    errors = pauli_error_basis(3, 3, 1)[1:]
    assert len(errors) == 24
    for e in errors:
        assert all(inner(u, apply(e.op, w)).is_zero()
                   for u in code332.basis for w in code332.basis)
    rep3 = kl_check(code332, 3)
    assert not rep3.is_code
    assert rep3.violations


def test_kl_check_past_n_plus_one_sweeps_every_weight(code332):
    # no error has weight above n = 3, so d = 5 sweeps the errors of d = 4
    rep5, rep4 = kl_check(code332, 5), kl_check(code332, 4)
    assert rep5.distance == 5
    assert dataclasses.replace(rep5, distance=4) == rep4
    assert not rep5.is_code and len(rep5.violations) == 198


def test_kl_check_rejects_mismatched_errors(code332):
    errors = pauli_error_basis(2, 3, 1)
    with pytest.raises(DimensionMismatch):
        kl_check(code332, 2, errors=errors)
    with pytest.raises(ConductorMismatch):
        kl_check(code332, 2, errors=pauli_error_basis(3, 3, 1, conductor=36))


def test_kl_trivial_code():
    code = CodeSubspace(3, 3, [catalog.ket("000", 3, N)])
    assert kl_check(code, 1).is_code


def test_distance(code332):
    assert distance(code332) == 2
    # qubit span{|000>,|111>}: a single-site phase error distinguishes
    code = CodeSubspace(3, 2, [catalog.ket("000", 2, N2), catalog.ket("111", 2, N2)])
    assert distance(code) == 1
    z1 = catalog.pauli_product(2, N2, [(0, 1), (0, 0), (0, 0)])
    d00 = inner(code.basis[0], apply(z1, code.basis[0]))
    d11 = inner(code.basis[1], apply(z1, code.basis[1]))
    assert d00 != d11  # the weight-1 violation the sweep must find


def test_distance_monotone(code332):
    errors = pauli_error_basis(3, 3, 3)
    d = distance(code332)
    for dd in range(1, d + 1):
        assert kl_check(code332, dd, errors=errors).is_code


def test_r_uniform(phi_unit, phi_rowform):
    assert r_uniform_check(phi_unit, 2).uniform
    assert r_uniform_check(phi_rowform, 2).uniform  # normalization-independent
    assert r_uniform_check(phi_unit, 1).uniform
    s1 = catalog.code_basis()[0]
    assert r_uniform_check(s1, 1).uniform
    rep = r_uniform_check(catalog.ket("000", 3, N), 1)
    assert not rep.uniform
    assert rep.worst_deviation > 0.5
    with pytest.raises(ValueError):
        r_uniform_check(phi_unit, 5)


def test_singleton():
    assert singleton_check(3, 3, 2, 3)          # equality: 3*81 = 243? no: 3*9=27
    assert 3 * 3 ** 2 == 3 ** 3                 # MDS equality witness
    assert singleton_check(3, 2, 2, 2)          # bound holds, no code exists
    assert singleton_check(2, 1, 2, 2)
    assert 1 * 2 ** 2 == 2 ** 2                 # equality at n=2
    assert not singleton_check(3, 3, 3, 3)
    with pytest.raises(ValueError):
        singleton_check(0, 1, 1, 2)


def test_purity_bridge(code332):
    """Pure distance-d codes consist of (d-1)-uniform states: check basis
    states and 10 random exact unit combinations."""
    rng = random.Random(7)
    for code in (code332, catalog.code_442()):
        d = distance(code)
        assert kl_check(code, d).is_pure
        for v in code.basis:
            assert r_uniform_check(v, d - 1).uniform
        n = code.conductor
        for _ in range(10):
            # r_uniform_check normalizes by the exact squared norm itself
            combo = None
            for b in code.basis:
                c = root_of_unity(rng.randrange(n), n) * rng.randint(1, 3)
                term = b.scale(c)
                combo = term if combo is None else combo + term
            assert r_uniform_check(combo, d - 1).uniform
    # reverse direction: a non-pure span contains a non-uniform state
    triv = CodeSubspace(3, 3, [catalog.ket("000", 3, N)])
    rep = kl_check(triv, 2)
    assert rep.is_code and not rep.is_pure
    assert not r_uniform_check(triv.basis[0], 1).uniform


def test_mds_implies_pure(code332):
    # every MDS code in the corpus is pure
    corpus = [(code332, 2), (catalog.code_442(), 2)]
    for code, d in corpus:
        k, dim, n_sites = code.dimension, code.local_dim, code.n_sites
        saturated = k * dim ** (2 * (d - 1)) == dim ** n_sites
        assert saturated
        assert kl_check(code, d).is_pure


def test_stabilizer_subspace_332(code332):
    sub = stabilizer_subspace([catalog.xxx(3, 3, N), catalog.zzz(3, 3, N)])
    assert sub.dimension == 3
    assert sub.span_equal(code332)
    for b in sub.basis:
        assert apply(catalog.xxx(3, 3, N), b) == b


def test_stabilizer_subspace_identity_gives_full_space():
    sub = stabilizer_subspace([LocalOperator.identity((2,), N2)])
    assert sub.dimension == 2


def test_stabilizer_subspace_442():
    code = catalog.code_442()
    assert code.dimension == 4
    rep = kl_check(code, 2)
    assert rep.is_code and rep.is_pure
    assert distance(code) == 2


def test_stabilizer_rejects_nonunitary():
    bad = LocalOperator(N, 1, [catalog.pauli_x(3, N).scale(2)])
    with pytest.raises(ValueError):
        stabilizer_subspace([bad])


def test_code_subspace_validation():
    s1 = catalog.code_basis()[0]
    with pytest.raises(ValueError):
        CodeSubspace(3, 3, [s1, s1])  # not orthonormal
    with pytest.raises(ValueError):
        CodeSubspace(3, 3, [s1.scale(2)])  # not unit norm
    with pytest.raises(ValueError):
        CodeSubspace(2, 3, [s1])  # wrong site count


def _reference_inner(a, b):
    """<a|b> term by term in field arithmetic, independent of the Gram
    kernel that inner and the packed checks share."""
    acc = Cyclotomic.zero(a.n)
    for x, y in zip(a.amps, b.amps):
        if not (x.is_zero() or y.is_zero()):
            acc = acc + x.conj() * y
    return acc


def _reference_first_defect(basis):
    """The pair the field-arithmetic orthonormality loop named first."""
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            if _reference_inner(u, v) != (1 if i == j else 0):
                return (i, j)
    return None


_S1, _S2, _S3 = catalog.code_basis()


@pytest.mark.parametrize("basis, pair", [
    ([_S1, _S2, _S1], (0, 2)),
    ([_S2, _S1, _S3.scale(2)], (2, 2)),
    ([_S1, _S2 + _S3], (1, 1)),
    ([_S3, _S1, _S1 + _S2], (1, 2)),
], ids=["repeated", "scaled", "unnormalized-sum", "overlap"])
def test_non_orthonormal_code_names_reference_pair(basis, pair):
    assert _reference_first_defect(basis) == pair
    with pytest.raises(ValueError, match=rf"at pair \({pair[0]},{pair[1]}\)$"):
        CodeSubspace(3, 3, basis)


def test_span_equal_by_gram(code332):
    s1, s2, s3 = code332.basis
    w = root_of_unity(1, N)
    code = CodeSubspace(3, 3, [s1, s2])
    assert code.span_equal(CodeSubspace(3, 3, [s2.scale(w), s1]))
    assert not code.span_equal(CodeSubspace(3, 3, [s1, s3]))
    assert not code.span_equal(code332)


def _reference_span_equal(a, b):
    """span_equal in field arithmetic: one gram table of both bases and
    Pythagoras through in_span, each basis against the other."""
    k = a.dimension
    if b.dimension != k:
        return False
    g = gram(a.basis + b.basis)
    return (all(in_span([row[j] for row in g[k:]], g[j][j]) for j in range(k))
            and all(in_span([row[j] for row in g[:k]], g[j][j]) for j in range(k, 2 * k)))


def test_span_equal_matches_field_reference(code332):
    s1, s2, s3 = code332.basis
    w = root_of_unity(5, N)
    # a rotation of s1 and w s2: the same span as {s1, s2} in another basis
    mixed = CodeSubspace(3, 3, [s1.scale(Fraction(3, 5)) + s2.scale(w * Fraction(4, 5)),
                                s2.scale(w * Fraction(3, 5)) - s1.scale(Fraction(4, 5))])
    images = _normalizer_images(2, 5)
    large = _large_denominator_code()
    pairs = [(CodeSubspace(3, 3, [s1, s2]), mixed), (mixed, CodeSubspace(3, 3, [s1, s3])),
             (code332, CodeSubspace(3, 3, [s3, s1.scale(w), s2])), (code332, large),
             (large, CodeSubspace(3, 3, [large.basis[2], large.basis[0], large.basis[1]])),
             (images[0], code332), (images[1], large), (code332, mixed)]
    verdicts = [a.span_equal(b) for a, b in pairs]
    assert verdicts == [_reference_span_equal(a, b) for a, b in pairs]
    assert verdicts == [True, False, True, False, True, True, False, False]


# -- references: the per-error sweep and the dense projector -------------------


def _reference_kl(code, d, errors=None):
    """(is_code, is_pure, violations) of the per-error sweep: every table
    entry <u_i|E|u_j> through apply and _reference_inner, decided in field
    arithmetic."""
    if errors is None:
        errors = pauli_error_basis(code.n_sites, code.local_dim, d - 1,
                                   conductor=code.conductor)
    k = code.dimension
    is_code = is_pure = True
    violations = []
    for e in errors:
        weight = e.op.weight()
        if weight >= d:
            continue
        images = [apply(e.op, u) for u in code.basis]
        table = [[_reference_inner(u, w) for w in images] for u in code.basis]
        c = table[0][0]
        consistent = True
        for i in range(k):
            for j in range(k):
                val = table[i][j]
                if (not val.is_zero()) if i != j else val != c:
                    consistent = False
                    violations.append((e.label, i, j, val))
        if not consistent:
            is_code = is_pure = False
        elif weight > 0 and not c.is_zero():
            is_pure = False
    return is_code, is_pure and is_code, violations


def _reference_distance(code):
    """Largest d whose sweep over the whole weight-n Pauli basis passes."""
    errors = pauli_error_basis(code.n_sites, code.local_dim, code.n_sites,
                               conductor=code.conductor)
    d = 1
    while d <= code.n_sites and _reference_kl(code, d + 1, errors)[0]:
        d += 1
    return d


def _reference_stabilizer(generators):
    """The fixed-space basis from the dense group-average projector: the
    to_dense() matrices of the closure summed in field arithmetic."""
    group = closure(list(generators), cap=10_000)
    first = group.elements[0]
    dims, nn, dim = first.dims, first.n, prod(first.dims)
    acc = first.to_dense().scale(0)
    for g in group.elements:
        acc = acc + g.to_dense()
    proj = acc.scale(Fraction(1, group.order))
    cols = [PureState(nn, dims, [proj.rows[i][j] for i in range(dim)]) for j in range(dim)]
    basis = orthonormalize([v for v in cols if not v.is_zero()], drop_dependent=True)
    assert len(basis) == proj.trace().as_fraction()
    return tuple(basis)


def _normalizer_images(count, seed):
    """Images of the ((3,3,2))_3 code under words in the monomial normalizer
    generators around the circulant coset representative."""
    rng = random.Random(seed)
    q1, circulant, q3 = catalog.coset_representatives(N)
    monomial = [catalog.xxx(3, 3, N), catalog.zzz(3, 3, N), q1, q3]
    code = catalog.code_332(N)
    out = []
    for _ in range(count):
        a = rng.choice(monomial) * circulant * rng.choice(monomial) * rng.choice(monomial)
        out.append(CodeSubspace(3, 3, [apply(a, u) for u in code.basis]))
    return out


def _large_denominator_code():
    """((3,3,2))_3 under a rational Householder reflection on site 1 whose
    denominator is near 2**82, so every packed contraction of its
    reductions needs Python ints."""
    v = (2 ** 40 + 1, 3 ** 25, 5 ** 17)
    norm = sum(x * x for x in v)
    h = Matrix(N, [[int(i == j) - Fraction(2 * v[i] * v[j], norm) for j in range(3)]
                   for i in range(3)])
    ident = Matrix.identity(3, N)
    op = LocalOperator(N, 1, [h, ident, ident])
    return CodeSubspace(3, 3, [apply(op, u) for u in catalog.code_332(N).basis])


_CODES = {
    "332": lambda: catalog.code_332(N),
    "442": catalog.code_442,
    "trivial": lambda: CodeSubspace(3, 3, [catalog.ket("000", 3, N)]),
    "repetition": lambda: CodeSubspace(3, 2, [catalog.ket("000", 2, N2),
                                              catalog.ket("111", 2, N2)]),
    "large-denominators": _large_denominator_code,
    **{f"image{i}": (lambda i=i: _normalizer_images(5, 17)[i]) for i in range(5)},
}
_KL_CASES = ([("332", d) for d in range(1, 5)] + [("442", d) for d in range(1, 6)]
             + [("trivial", d) for d in range(1, 5)] + [("repetition", d) for d in range(1, 5)]
             + [("large-denominators", d) for d in range(1, 4)]
             + [(f"image{i}", d) for i in range(5) for d in range(1, 4)])


def _gf4_latin_state():
    """|i, j, i+j, i+aj>/4 over GF(4) = {0, 1, a, a^2} with a^2 = a + 1: the
    element x0 + x1 a is the digit x0 + 2 x1, so addition is XOR and
    a (x0 + x1 a) = x1 + (x0 + x1) a."""
    def times_a(x):
        return (x >> 1) | (((x & 1) ^ (x >> 1)) << 1)
    amps = [0] * 4 ** 4
    for i in range(4):
        for j in range(4):
            amps[((i * 4 + j) * 4 + (i ^ j)) * 4 + (i ^ times_a(j))] = Fraction(1, 4)
    return PureState(N, (4,) * 4, amps)


def test_composite_dimension_gf4_code():
    # D = 4 is not prime: the Weyl-Heisenberg basis still spans every operator
    v = _gf4_latin_state()
    assert v.norm_sq() == 1 and r_uniform_check(v, 2).uniform
    code = reduce_state(v)
    assert (code.dimension, code.conductor) == (4, N)
    r2, r3 = kl_check(code, 2), kl_check(code, 3)
    assert r2.is_code and r2.is_pure
    assert not r3.is_code and len(r3.violations) == 1232
    assert distance(code) == 2
    assert (r2.is_code, r2.is_pure, r2.violations) == _reference_kl(code, 2)


@pytest.mark.parametrize("name, d", _KL_CASES, ids=[f"{n}-d{d}" for n, d in _KL_CASES])
def test_kl_check_matches_reference_loop(name, d):
    code = _CODES[name]()
    rep = kl_check(code, d)
    assert (rep.is_code, rep.is_pure, rep.violations) == _reference_kl(code, d)


@pytest.mark.parametrize("name", ["332", "442", "trivial", "repetition",
                                  "large-denominators", "image0"])
def test_distance_matches_reference_loop(name):
    code = _CODES[name]()
    assert distance(code) == _reference_distance(code)


def test_large_denominator_code_takes_python_ints():
    code = _large_denominator_code()
    assert _reduction(code.basis, (0,))[1].dtype == object
    rep = kl_check(code, 3)
    assert not rep.is_code
    assert max(v.den for *_, v in rep.violations).bit_length() > 64


def test_kl_check_explicit_z_errors_match_reference(code332):
    # only the Z-type errors, supports interleaved against the basis order:
    # each listed error is decided alone, and only the listed ones count
    errors = [e for e in pauli_error_basis(3, 3, 3) if all(a == 0 for a, _ in e.exponents)]
    assert len(errors) == 27
    errors = errors[::2] + errors[1::2]
    # the Z^b (x) Z^b (x) Z^b stabilizers act as 1 on the code: a code, not pure
    stabilizers = [e for e in errors if len(set(e.exponents)) == 1]
    assert len(stabilizers) == 3
    verdicts = []
    for d in range(1, 5):
        for errs in (errors, stabilizers):
            rep = kl_check(code332, d, errors=errs)
            assert (rep.is_code, rep.is_pure, rep.violations) == _reference_kl(code332, d, errs)
            verdicts.append((rep.is_code, rep.is_pure))
    assert verdicts[-2:] == [(False, False), (True, False)]


def _hadamard_pair():
    """H (x) H, scalar 1/2 on two integer factors: its group {I, H (x) H}
    sums elements over the denominators 1 and 2."""
    h = [[1, 1], [1, -1]]
    return [LocalOperator(N2, Fraction(1, 2), [h, h])]


@pytest.mark.parametrize("gens", [
    lambda: [catalog.xxx(3, 3, N), catalog.zzz(3, 3, N)],
    lambda: [catalog.xxx(2, 4, N2), catalog.zzz(2, 4, N2)],
    lambda: [LocalOperator.identity((2,), N2)],
    lambda: [LocalOperator.identity((3, 3), N)],
    lambda: _hadamard_pair(),
], ids=["332", "442", "identity-qubit", "identity-qutrits", "hadamard-pair"])
def test_stabilizer_subspace_matches_dense_projector(gens):
    assert stabilizer_subspace(gens()).basis == _reference_stabilizer(gens())


def _assert_batched_reductions_match(states, size):
    """_reductions of every support of one size equals _reduction of each."""
    supports = list(combinations(range(states[0].sites), size))
    tables, den = _reductions(states, supports)
    assert len(tables) == len(supports)
    for support, table in zip(supports, tables):
        _, g, rden = _reduction(states, support)
        assert rden == den and np.array_equal(table, g)


@pytest.mark.parametrize("name", ["phi-pairs", "332-one-site", "332-two-site",
                                  "large-denominators-one-site",
                                  "large-denominators-two-site"])
def test_batched_reductions_match_per_subset(name, phi_unit, code332):
    states, size = {
        "phi-pairs": lambda: ((phi_unit,), 2),
        "332-one-site": lambda: (code332.basis, 1),
        "332-two-site": lambda: (code332.basis, 2),
        "large-denominators-one-site": lambda: (_large_denominator_code().basis, 1),
        "large-denominators-two-site": lambda: (_large_denominator_code().basis, 2),
    }[name]()
    _assert_batched_reductions_match(states, size)


def _counting(monkeypatch, module, name):
    """The arguments of every call to module.name, recorded in a list."""
    calls = []
    kernel = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_only_failing_supports_are_expanded(monkeypatch, code332):
    calls = _counting(monkeypatch, qecc, "_local_elements")
    # a passing sweep expands no support
    rep = kl_check(code332, 2)
    assert rep.is_code and rep.is_pure and not rep.violations
    assert calls == []
    # at d = 3 the 0- and 1-site supports pass and the 2-site ones fail
    rep = kl_check(code332, 3)
    assert [tuple(c[1]) for c in calls] == [(0, 1), (0, 2), (1, 2)]
    assert (rep.is_code, rep.is_pure, rep.violations) == _reference_kl(code332, 3)


def test_error_with_a_trace_is_expanded(monkeypatch, code332):
    # diag(1, 2, 3) on site 1: its support passes the delta condition, but
    # its trace is not 0, so only the expansion finds c(E) != 0
    diag = Matrix(N, [[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    ident = Matrix.identity(3, N)
    traced = ErrorBasisElement(LocalOperator(N, 1, [diag, ident, ident]), None, "diag123.I.I")
    assert not traced.traceless
    assert all(e.traceless for e in pauli_error_basis(3, 3, 3)[1:])
    errors = list(pauli_error_basis(3, 3, 1)) + [traced]
    calls = _counting(monkeypatch, qecc, "_local_elements")
    rep = kl_check(code332, 2, errors=errors)
    assert [tuple(c[1]) for c in calls] == [(0,)]
    assert (rep.is_code, rep.is_pure, rep.violations) == _reference_kl(code332, 2, errors)
    assert rep.is_code and not rep.is_pure


def test_one_contraction_per_support_size(monkeypatch, phi_unit, code332):
    code442, trivial = catalog.code_442(), _CODES["trivial"]()
    calls = _counting(monkeypatch, tensor, "_gram")
    r_uniform_check(phi_unit, 2)
    assert len(calls) == 1
    cases = [(lambda: kl_check(code332, 2), 2), (lambda: kl_check(code332, 3), 3),
             (lambda: kl_check(code442, 2), 2),
             # candidates 1 (passes) and 2 (fails)
             (lambda: distance(code332), 2), (lambda: distance(code442), 2),
             # one-dimensional: candidates 1, 2 and 3 all pass
             (lambda: distance(trivial), 3)]
    for check, contractions in cases:
        calls.clear()
        check()
        assert len(calls) == contractions


def test_chunked_expansion_matches_reference(monkeypatch, code332, phi_unit):
    # one operator per chunk: the tables, the sums and the images do not change
    monkeypatch.setattr(tensor, "_CHUNK_ENTRIES", 1)
    for d in (2, 3):
        rep = kl_check(code332, d)
        assert (rep.is_code, rep.is_pure, rep.violations) == _reference_kl(code332, d)
    for gens in ([catalog.xxx(3, 3, N), catalog.zzz(3, 3, N)], _hadamard_pair()):
        assert stabilizer_subspace(gens).basis == _reference_stabilizer(gens)
    ops = [e.op for e in pauli_error_basis(3, 3, 3, N)]
    for v in code332.basis:
        assert fixed_by(ops, v) == [apply(op, v) == v for op in ops]
    # one support per batch of reductions
    for states, size in [((phi_unit,), 2), (code332.basis, 1), (code332.basis, 2),
                         (_large_denominator_code().basis, 2)]:
        _assert_batched_reductions_match(states, size)
