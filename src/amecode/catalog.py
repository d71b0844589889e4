"""The concrete objects the toolkit verifies.

Everything here is buildable from short closed-form expressions: the
generalized Pauli matrices, the four-qutrit perfect tensor coming from a
pair of orthogonal Latin squares of order 3, the three-qutrit code basis
obtained by contracting its first site, the three reflection generators of
the order-648 gate group, special-unitary lifts of those generators to
three-site product operators, and the five four-site generators of the
local symmetry group of the state.

The states (the perfect tensor in either normalization and the three code
basis vectors) are built once per conductor in a process and shared:
PureState is immutable, so every caller may hold the same object.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .cyclo import Cyclotomic, inv_sqrt3, root_of_unity
from .linalg import Matrix
from .tensor import LocalOperator, PureState


def pauli_x(d: int, n: int) -> Matrix:
    """Cyclic shift X|i> = |i+1 mod d>."""
    zero, one = Cyclotomic.zero(n), Cyclotomic.one(n)
    return Matrix(n, [[one if i == (j + 1) % d else zero for j in range(d)]
                      for i in range(d)])


def pauli_z(d: int, n: int) -> Matrix:
    """Phase Z|i> = xi^i |i> with xi = zeta_d."""
    if n % d != 0:
        raise ValueError(f"conductor {n} does not contain zeta_{d}")
    zero = Cyclotomic.zero(n)
    return Matrix(n, [[root_of_unity(i * (n // d), n) if i == j else zero
                       for j in range(d)] for i in range(d)])


def pauli_power(d: int, n: int, a: int, b: int) -> Matrix:
    """X^a Z^b on one site."""
    m = Matrix.identity(d, n)
    x, z = pauli_x(d, n), pauli_z(d, n)
    for _ in range(a % d):
        m = x * m
    for _ in range(b % d):
        m = z * m
    return m


def pauli_product(d: int, n: int, exponents) -> LocalOperator:
    """Tensor product of X^a Z^b factors, one (a, b) pair per site."""
    return LocalOperator(n, 1, [pauli_power(d, n, a, b) for a, b in exponents])


def xxx(d: int, sites: int, n: int) -> LocalOperator:
    return LocalOperator(n, 1, [pauli_x(d, n)] * sites)


def zzz(d: int, sites: int, n: int) -> LocalOperator:
    return LocalOperator(n, 1, [pauli_z(d, n)] * sites)


def ket(digits: str, d: int, n: int) -> PureState:
    return PureState.basis_state(n, (d,) * len(digits), [int(c) for c in digits])


# -- the four-qutrit perfect tensor and its code ---------------------------

_AME_TERMS = ("0000", "0111", "0222",
              "1012", "1120", "1201",
              "2021", "2102", "2210")

_CODE_TERMS = (("000", "111", "222"),
               ("012", "120", "201"),
               ("021", "102", "210"))


@cache
def _uniform_superposition(terms, d: int, n: int, amp: Cyclotomic) -> PureState:
    """amp on each ket of terms (equal-length base-d digit strings), 0 on
    every other; built once per argument tuple in a process."""
    amps = [Cyclotomic.zero(n)] * d ** len(terms[0])
    for t in terms:
        amps[int(t, d)] = amp
    return PureState(n, (d,) * len(terms[0]), amps)


def ame_state(n: int = 12, normalized: bool = True) -> PureState:
    """The four-qutrit perfect tensor built from two orthogonal Latin
    squares of order 3.

    With normalized=False the nine terms carry amplitude 1/sqrt(3); the
    squared norm is then 3, and contracting |j-1> against site 1 yields the
    unit-norm code basis vectors directly.  With normalized=True (default)
    the state has norm 1.
    """
    amp = Fraction(1, 3) * Cyclotomic.one(n) if normalized else inv_sqrt3(n)
    return _uniform_superposition(_AME_TERMS, 3, n, amp)


def code_basis(n: int = 12) -> tuple[PureState, PureState, PureState]:
    """Orthonormal basis of the three-qutrit code: the three cyclic-orbit
    superpositions (each with amplitude 1/sqrt(3))."""
    amp = inv_sqrt3(n)
    return tuple(_uniform_superposition(t, 3, n, amp) for t in _CODE_TERMS)


def code_332(n: int = 12):
    """The distance-2 three-qutrit code as a CodeSubspace."""
    from .qecc import CodeSubspace
    return CodeSubspace(3, 3, code_basis(n), claimed_d=2)


def code_442(n: int = 24):
    """The distance-2 four-qubit code: fixed space of X^x4 and Z^x4."""
    from .qecc import stabilizer_subspace
    return stabilizer_subspace([xxx(2, 4, n), zzz(2, 4, n)], claimed_d=2)


# -- gate-group generators --------------------------------------------------


def reflection_vectors(n: int = 12):
    """The three unit vectors whose order-3 reflections generate the
    648-element gate group: |2>, (i/sqrt(3))(|0>+|1>+|2>), |1>."""
    zero, one = Cyclotomic.zero(n), Cyclotomic.one(n)
    c = root_of_unity(n // 4, n) * inv_sqrt3(n)  # i/sqrt(3)
    return ((zero, zero, one), (c, c, c), (zero, one, zero))


def weyl_generator_matrices(n: int = 12) -> tuple[Matrix, Matrix, Matrix]:
    """Closed-form entries of the three reflection generators:
    diag(1,1,w), (1/sqrt(3))*zeta_12*[[1,w,w],[w,1,w],[w,w,1]], diag(1,w,1)."""
    w = root_of_unity(n // 3, n)
    zero, one = Cyclotomic.zero(n), Cyclotomic.one(n)
    r1 = Matrix(n, [[one, zero, zero], [zero, one, zero], [zero, zero, w]])
    c = inv_sqrt3(n) * root_of_unity(n // 12, n)
    r2 = Matrix(n, [[c, c * w, c * w], [c * w, c, c * w], [c * w, c * w, c]])
    r3 = Matrix(n, [[one, zero, zero], [zero, w, zero], [zero, zero, one]])
    return r1, r2, r3


def _diag(n: int, entries) -> Matrix:
    zero = Cyclotomic.zero(n)
    return Matrix(n, [[e if i == j else zero for j, e in enumerate(entries)]
                      for i in range(len(entries))])


def _omega_circulant(n: int) -> Matrix:
    # [[w,1,1],[1,w,1],[1,1,w]]
    w = root_of_unity(n // 3, n)
    one = Cyclotomic.one(n)
    return Matrix(n, [[w, one, one], [one, w, one], [one, one, w]])


def coset_representatives(n: int = 12) -> tuple[LocalOperator, ...]:
    """Three-site product unitaries whose restrictions to the code are the
    three reflection generators."""
    w = root_of_unity(n // 3, n)
    w2 = w * w
    one = Cyclotomic.one(n)
    q1 = LocalOperator(n, w, [_diag(n, [one, one, w2]),
                              _diag(n, [one, w2, one]),
                              _diag(n, [w2, one, one])])
    m = _omega_circulant(n)
    s27 = inv_sqrt3(n) * Fraction(1, 3)  # 1/sqrt(27)
    q2 = LocalOperator(n, s27 * root_of_unity(n // 12, n), [m, m, m])
    q3 = LocalOperator(n, w, [_diag(n, [w2, one, one]),
                              _diag(n, [one, w2, one]),
                              _diag(n, [one, one, w2])])
    return q1, q2, q3


def coset_representative_su_factors(n: int = 36) -> tuple[tuple[Matrix, ...], ...]:
    """Per-site special-unitary factorizations of the coset representatives.

    The diagonal representatives need the ninth root of unity to push the
    global phase into determinant-1 factors, and the circulant one needs
    zeta_36, so the conductor must be a multiple of 36.
    """
    if n % 36 != 0:
        raise ValueError("special-unitary factors need 36 | conductor")
    z9 = root_of_unity(n // 9, n)
    w = root_of_unity(n // 3, n)
    w2 = w * w
    one = Cyclotomic.one(n)
    a1 = (_diag(n, [one, one, w2]).scale(z9),
          _diag(n, [one, w2, one]).scale(z9),
          _diag(n, [w2, one, one]).scale(z9))
    c = inv_sqrt3(n) * root_of_unity(n // 36, n)  # zeta_36 / sqrt(3)
    m = _omega_circulant(n).scale(c)
    a2 = (m, m, m)
    a3 = (_diag(n, [w2, one, one]).scale(z9),
          _diag(n, [one, w2, one]).scale(z9),
          _diag(n, [one, one, w2]).scale(z9))
    return a1, a2, a3


def local_symmetry_generators(n: int = 12) -> tuple[LocalOperator, ...]:
    """Five four-site product unitaries generating the symmetry group of the
    perfect tensor: identity tensored with the two three-site stabilizer
    generators, plus the conjugated gate action paired with each coset
    representative.  See groups.local_symmetry_group for the order count."""
    w = root_of_unity(n // 3, n)
    w2 = w * w
    one = Cyclotomic.one(n)
    ident = Matrix.identity(3, n)
    x, z = pauli_x(3, n), pauli_z(3, n)
    g1 = LocalOperator(n, 1, [ident, x, x, x])
    g2 = LocalOperator(n, 1, [ident, z, z, z])
    g3 = LocalOperator(n, w, [_diag(n, [one, one, w2]),
                              _diag(n, [one, one, w2]),
                              _diag(n, [one, w2, one]),
                              _diag(n, [w2, one, one])])
    m = _omega_circulant(n)
    g4 = LocalOperator(n, w2 * Fraction(1, 9), [m, m, m, m])
    g5 = LocalOperator(n, w, [_diag(n, [one, w2, one]),
                              _diag(n, [w2, one, one]),
                              _diag(n, [one, w2, one]),
                              _diag(n, [one, one, w2])])
    return g1, g2, g3, g4, g5
