import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from amecode import invariants, suites
from amecode.cyclo import Cyclotomic
from amecode.groups import weyl_generators, weyl_group
from amecode.invariants import CartanPoint, check_weyl_invariance, eval_invariants
from amecode.linalg import Matrix, pack

N = 12


def _rational_point(rng):
    def coord():
        return Fraction(rng.randint(-100, 100), rng.randint(1, 100))
    return CartanPoint.of(N, coord(), coord(), coord())


def _oracle(a, b, c):
    # independent monomial-by-monomial evaluation over plain Fractions
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    i6 = (a ** 6 + b ** 6 + c ** 6
          - 10 * (a ** 3 * b ** 3 + a ** 3 * c ** 3 + b ** 3 * c ** 3))
    i9 = (a ** 3 - b ** 3) * (a ** 3 - c ** 3) * (b ** 3 - c ** 3)
    i12 = (a ** 9 * (b ** 3 + c ** 3) + b ** 9 * (a ** 3 + c ** 3)
           + c ** 9 * (a ** 3 + b ** 3)
           - 4 * (a ** 6 * b ** 6 + a ** 6 * c ** 6 + b ** 6 * c ** 6)
           + 2 * (a ** 6 * b ** 3 * c ** 3 + a ** 3 * b ** 6 * c ** 3
                  + a ** 3 * b ** 3 * c ** 6))
    return i6, i9, i12


def _as_fracs(triple):
    return tuple(x.as_fraction() for x in triple)


def test_frozen_examples():
    assert _oracle(1, 0, 0) == (1, 0, 0)
    assert _oracle(1, 1, 1) == (-27, 0, 0)
    assert _as_fracs(eval_invariants(CartanPoint.of(N, 1, 0, 0))) == (1, 0, 0)
    assert _as_fracs(eval_invariants(CartanPoint.of(N, 1, 1, 1))) == (-27, 0, 0)
    assert eval_invariants(CartanPoint.of(N, 1, 1, 0)).i9.is_zero()


def test_matches_monomial_oracle_on_random_rationals():
    rng = random.Random(0)
    for _ in range(30):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        assert _as_fracs(eval_invariants(CartanPoint.of(N, a, b, c))) == _oracle(a, b, c)


def _field_path(point):
    # the reference: the cube polynomials in field arithmetic on the point
    return invariants.InvariantTriple(*invariants._of_cubes(*(x ** 3 for x in point)))


_HEIGHT = 10 ** 40
_numerators = st.integers(-_HEIGHT, _HEIGHT) | st.sampled_from([0, 1, -1])


@st.composite
def _rational_points(draw):
    """Three rationals of height up to 10**40, zeros and negatives included,
    over one shared denominator or over their own."""
    if draw(st.booleans()):
        den = draw(st.integers(1, _HEIGHT))
        return [Fraction(draw(_numerators), den) for _ in range(3)]
    return [Fraction(draw(_numerators), draw(st.integers(1, _HEIGHT))) for _ in range(3)]


@st.composite
def _points_with_irrational_coordinates(draw):
    """A point of conductor 12 or 24 with one or three coordinates that are
    not rational; the rest are rationals."""
    n = draw(st.sampled_from([12, 24]))
    deg = len(Cyclotomic.one(n).coeffs)
    coords = list(draw(_rational_points()))
    for i in draw(st.sampled_from([[0], [1], [2], [0, 1, 2]])):
        coeffs = draw(st.lists(st.integers(-10 ** 12, 10 ** 12), min_size=deg, max_size=deg))
        coeffs[draw(st.integers(1, deg - 1))] = draw(st.integers(1, 10 ** 12))
        coords[i] = Cyclotomic(n, coeffs, draw(st.integers(1, 10 ** 12)))
    return CartanPoint.of(n, *coords)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_rational_points())
def test_rational_points_match_field_path_and_oracle(coords):
    t = eval_invariants(CartanPoint.of(N, *coords))
    assert t == _field_path(CartanPoint.of(N, *coords))
    assert _as_fracs(t) == _oracle(*coords)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_points_with_irrational_coordinates())
def test_irrational_points_match_field_path(point):
    assert eval_invariants(point) == _field_path(point)


def test_rational_point_takes_no_field_arithmetic(monkeypatch):
    # the integer numerators carry the evaluation; the field sees only the
    # three values, each built once over den**(3m)
    coords = (Fraction(-7, 3), 5, Fraction(10 ** 30 + 1, 2 ** 40))
    point = CartanPoint.of(N, *coords)
    calls = {"arithmetic": 0, "built": 0}

    def counting(method):
        def wrapper(*args):
            calls["arithmetic"] += 1
            return method(*args)
        return wrapper

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__neg__", "__pow__", "__truediv__", "inv"):
        monkeypatch.setattr(Cyclotomic, name, counting(getattr(Cyclotomic, name)))
    init = Cyclotomic.__init__

    def counting_init(self, *args):
        calls["built"] += 1
        init(self, *args)

    monkeypatch.setattr(Cyclotomic, "__init__", counting_init)
    t = eval_invariants(point)
    assert calls == {"arithmetic": 0, "built": 3}
    assert _as_fracs(t) == _oracle(*coords)


def test_homogeneity_exact():
    rng = random.Random(1)
    for _ in range(15):
        p = _rational_point(rng)
        lam = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        lamc = Cyclotomic.from_rational(N, lam)
        t0, t1 = eval_invariants(p), eval_invariants(p.scale(lam))
        assert t1.i6 == lamc ** 6 * t0.i6
        assert t1.i9 == lamc ** 9 * t0.i9
        assert t1.i12 == lamc ** 12 * t0.i12


def test_generators_preserve_invariants():
    for r in weyl_generators():
        assert check_weyl_invariance(r)


def test_every_weyl_element_preserves_invariants(weyl):
    assert weyl.order == 648
    assert all(check_weyl_invariance(g) for g in weyl.elements)


def _per_point(gate):
    # the reference: one exact Cyclotomic evaluation per lattice point
    points = [CartanPoint.of(gate.n, i, j, 12 - i - j) for i in range(13) for j in range(13 - i)]
    return all(eval_invariants(p.transform(gate)) == eval_invariants(p) for p in points)


def test_packed_check_matches_per_point_reference():
    g0, g1, g2 = weyl_generators()
    product = g0 * g1
    assert pack([product])[1] == 3
    gates = {
        "generators": [g0, g1, g2, product],
        "control": [Matrix(N, [[2, 0, 0], [0, Fraction(1, 2), 0], [0, 0, 1]])],
        "conductor 24": [weyl_generators(24)[0]],
        # coordinates up to 1.2e7, so their cubes pass 2**62 and the stacks
        # fall back to Python ints
        "large entries": [Matrix(N, [[10 ** 6, 0, 0], [0, 1, 0], [0, 0, 1]])],
    }
    verdicts = {k: [check_weyl_invariance(g) for g in v] for k, v in gates.items()}
    assert verdicts == {k: [_per_point(g) for g in v] for k, v in gates.items()}
    assert verdicts == {"generators": [True] * 4, "control": [False],
                        "conductor 24": [True], "large entries": [False]}


def test_non_gate_fails():
    bad = Matrix(N, [[2, 0, 0], [0, Fraction(1, 2), 0], [0, 0, 1]])
    assert not check_weyl_invariance(bad)
    # explicit counterexample at (1, 1, 0): the degree-6 value moves
    p = CartanPoint.of(N, 1, 1, 0)
    before = eval_invariants(p).i6
    after = eval_invariants(p.transform(bad)).i6
    assert before != after
    assert _oracle(1, 1, 0)[0] != _oracle(2, Fraction(1, 2), 0)[0]


def test_invariance_check_reads_no_seed():
    a, b = suites.check_invariance(0), suites.check_invariance(7)
    assert a.passed and (a.expected, a.actual) == (b.expected, b.actual)


def test_non_homogeneous_cubes_fail_the_homogeneity_clause(monkeypatch):
    # the patch reaches both sides of the invariance comparison, which still
    # holds for the shifted polynomials: only the homogeneity clause can fail
    assert check_weyl_invariance(weyl_generators()[0])
    of_cubes = invariants._of_cubes

    def shifted(p, q, r):
        i6, i9, i12 = of_cubes(p, q, r)
        return i6 + 1, i9, i12

    monkeypatch.setattr(invariants, "_of_cubes", shifted)
    assert not invariants.is_homogeneous()
    result = suites.check_invariance(0)
    assert not result.passed and "homogeneity=False" in result.actual


def _cyclotomic_scalar(rng):
    # a random non-zero element of the field, not only a rational
    while True:
        t = Cyclotomic(N, [rng.randint(-5, 5) for _ in range(4)], rng.randint(1, 5))
        if not t.is_zero():
            return t


def test_orbit_witness_finds_an_element_onto_the_line(weyl):
    rng = random.Random(5)
    for _ in range(5):
        p = _rational_point(rng)
        k = rng.randrange(weyl.order)
        q = p.transform(weyl.elements[k]).scale(_cyclotomic_scalar(rng))
        j = invariants.orbit_witness(weyl, p, q)
        assert j is not None and j <= k
        # independently: q is a multiple of g_j * p, with the ratio read off
        # at a non-zero coordinate
        x = p.transform(weyl.elements[j])
        i = next(i for i, v in enumerate(x) if not v.is_zero())
        ratio = q[i] / x[i]
        assert q == x.scale(ratio)


def test_orbit_witness_of_a_multiple_is_the_identity(weyl):
    rng = random.Random(6)
    assert weyl.elements[0].is_identity()
    for _ in range(3):
        p = _rational_point(rng)
        assert invariants.orbit_witness(weyl, p, p.scale(_cyclotomic_scalar(rng))) == 0


def test_orbit_witness_none_across_orbits(weyl):
    # the certificate: whether i9 vanishes is unchanged along an orbit and by
    # scaling, and i9 is 0 at (1, 0, 0) but not at (1, 2, 3)
    p, q = CartanPoint.of(N, 1, 0, 0), CartanPoint.of(N, 1, 2, 3)
    assert eval_invariants(p).i9.is_zero() and not eval_invariants(q).i9.is_zero()
    assert invariants.orbit_witness(weyl, p, q) is None
    assert invariants.orbit_witness(weyl, q, p) is None
    # with a zero first coordinate only the third minor tells (0, 1, 2) from
    # (0, 1, 3); i6^3 / i9^2 is unchanged along an orbit and by scaling
    p, q = CartanPoint.of(N, 0, 1, 2), CartanPoint.of(N, 0, 1, 3)
    (s6, s9, _), (t6, t9, _) = eval_invariants(p), eval_invariants(q)
    assert s6 ** 3 * t9 ** 2 != t6 ** 3 * s9 ** 2
    assert invariants.orbit_witness(weyl, p, q) is None


def _reference_orbit_witness(group, p, q):
    """orbit_witness as a Cyclotomic loop over the elements: the reference
    for the packed contraction."""
    for k, g in enumerate(group.elements):
        x = p.transform(g)
        if all(x[i] * q[j] == x[j] * q[i] for i, j in ((0, 1), (0, 2), (1, 2))):
            return k
    return None


def _orbit_witness_cases(group, n, rng):
    """(p, q) pairs at conductor n: hits onto an element's image, scaled by
    a field element and by a large rational; misses across orbits; the pair
    with a zero first coordinate; and points with cyclotomic coordinates."""
    def scalar():
        while True:
            t = Cyclotomic(n, [rng.randint(-5, 5) for _ in range(len(Cyclotomic.one(n).coeffs))],
                           rng.randint(1, 5))
            if not t.is_zero():
                return t

    def point():
        return CartanPoint.of(n, *(Fraction(rng.randint(-50, 50), rng.randint(1, 50))
                                   for _ in range(3)))
    cases = []
    for _ in range(3):
        p = point()
        g = group.elements[rng.randrange(group.order)]
        cases.append((p, p.transform(g).scale(scalar())))
        cases.append((p, p.transform(g).scale(Fraction(10 ** 30 + 7, 3 ** 40))))
        cases.append((p.scale(scalar()), p.transform(g)))
    p = CartanPoint(*(scalar() for _ in range(3)))
    cases.append((p, p.transform(group.elements[-1]).scale(scalar())))
    cases.append((CartanPoint.of(n, 1, 0, 0), CartanPoint.of(n, 1, 2, 3)))
    cases.append((CartanPoint.of(n, 1, 2, 3), CartanPoint.of(n, 1, 0, 0)))
    cases.append((CartanPoint.of(n, 0, 1, 2), CartanPoint.of(n, 0, 1, 3)))
    cases.append((point(), point()))
    return cases


@pytest.mark.parametrize("n", [12, 24])
def test_orbit_witness_matches_the_field_loop(n):
    group = weyl_group(n)
    cases = _orbit_witness_cases(group, n, random.Random(n))
    found = [invariants.orbit_witness(group, p, q) for p, q in cases]
    assert found == [_reference_orbit_witness(group, p, q) for p, q in cases]
    # hits and misses both occur, and a hit is not always the identity
    assert None in found and any(k not in (None, 0) for k in found)


def test_orbit_witness_rejects_a_zero_point(weyl):
    zero, p = CartanPoint.of(N, 0, 0, 0), CartanPoint.of(N, 1, 2, 3)
    for args in ((zero, p), (p, zero), (zero, zero)):
        with pytest.raises(ValueError):
            invariants.orbit_witness(weyl, *args)
