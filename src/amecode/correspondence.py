"""The two maps between codes and highly entangled states: purify a
D-dimensional code on n-1 sites to an n-site state, and reduce a state to
the code spanned by its first-site contractions.

With the conventions used here (new site prepended, basis order matching
the code basis) the round trip is exact on representatives, not merely
orbit-level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cyclo import sqrt_of_rational
from .qecc import CodeSubspace, kl_check, r_uniform_check
from .tensor import (PureState, _pack_states, contract_site, orthonormal_defect,
                     orthonormalize)


@dataclass
class CorrespondenceReport:
    direction: str            # "code->state->code" or "state->code->state"
    input_description: str
    output_description: str
    ame_verified: bool
    kl_verified: bool
    roundtrip_exact: bool


def purify_code(code: CodeSubspace) -> PureState:
    """(1/sqrt(D)) * sum_i |i> tensor |basis_i>, the new site prepended as
    site 1; output has norm exactly 1."""
    d = code.local_dim
    if code.dimension != d:
        raise ValueError(f"need K = D = {d} basis states, got {code.dimension}")
    n = code.conductor
    x, den = _pack_states(code.basis)  # row i is |i> tensor |basis_i>
    state = PureState._from_packed(n, (d,) + code.basis[0].dims, x, den)
    return state.scale(sqrt_of_rational(Fraction(1, d), n))


def reduce_state(v: PureState) -> CodeSubspace:
    """Code spanned by sqrt(D) * <i|_1 v for 0 <= i < D; equals the image of
    D * Tr_1(|v><v|).  Raises if the site-1 matricization is rank-deficient
    (the state is not 1-uniform at site 1).  The columns' Gram table is
    formed once: exact Gram-Schmidt makes an orthonormal basis, so the code
    does not check it again."""
    d = v.dims[0]
    n = v.n
    root_d = sqrt_of_rational(d, n)
    cols = [contract_site(i, 1, v).scale(root_d) for i in range(d)]
    if orthonormal_defect(cols) is not None:
        try:
            cols = orthonormalize(cols)
        except ValueError:
            raise ValueError("reduction is rank-deficient: state is not "
                             "1-uniform at site 1") from None
    if any(v.dims[1] != dd for dd in v.dims[1:]):
        raise ValueError("mixed local dimensions")
    return CodeSubspace._of_orthonormal(len(v.dims) - 1, v.dims[1], cols)


def _describe_code(code: CodeSubspace) -> str:
    return f"code n={code.n_sites} D={code.local_dim} K={code.dimension}"


def _describe_state(v: PureState) -> str:
    return f"state dims={v.dims}"


def roundtrip(obj) -> CorrespondenceReport:
    """Run both maps starting from a code or a state and check exact
    recovery: span equality for code -> state -> code, amplitude equality
    for state -> code -> state."""
    if isinstance(obj, CodeSubspace):
        state = purify_code(obj)
        code = reduce_state(state)
        direction, exact = "code->state->code", obj.span_equal(code)
        descriptions = (_describe_code(obj), _describe_state(state))
    elif isinstance(obj, PureState):
        state, code = obj, reduce_state(obj)
        direction, exact = "state->code->state", purify_code(code) == obj
        descriptions = (_describe_state(state), _describe_code(code))
    else:
        raise TypeError(f"cannot round-trip {type(obj).__name__}")
    half = state.sites // 2
    even = state.sites % 2 == 0
    return CorrespondenceReport(
        direction, *descriptions,
        ame_verified=even and r_uniform_check(state, half).uniform,
        kl_verified=even and kl_check(code, half).is_pure,
        roundtrip_exact=exact,
    )
