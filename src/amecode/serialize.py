"""The JSON file formats of states, operators, gate matrices and codes.

This is the only module that reads or writes them: `to_dict` and
`scalar_to_dict` write each form next to the readers in `_READERS`, and
no field, matrix, tensor or code class knows JSON.  Every scalar is
written exactly as {conductor, coeffs: ["p/q", ...]} in the power basis,
so files round-trip bit-exactly.  `ingest` validates the structural
invariants of whatever it loads (orthonormality for codes, canonical
factored form for operators) and raises IngestError with the failing
check and its JSON path named.  A document pays once per distinct value:
each coefficient string is parsed once, and each distinct scalar is
validated and built once, so a state of 81 amplitudes with 2 distinct
values builds 2 field elements.  States are read as amplitudes, not
packed: a common denominator of many distinct ones can run to thousands
of digits.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from importlib import resources
from math import gcd, lcm, log10
from pathlib import Path

from .cyclo import Cyclotomic, euler_phi
from .linalg import Matrix
from .qecc import CodeSubspace
from .tensor import LocalOperator, PureState, gram


class IngestError(ValueError):
    pass


# -- from dict ---------------------------------------------------------------
#
# Every reader takes the JSON value, its path ("$.amps[3].coeffs[1]") and
# the document's map of the scalars read so far (see _scalars), checks the
# value's type before using it, and raises IngestError naming that path on
# the first mismatch, so no malformed file gets further than ingest.  An
# unknown field, a misspelt one included, is an error too.

# The kernels' field tables grow as the cube of the field degree phi(N):
# degree 64 (conductor 192) runs in 40 MB, degree 512 asks for 1 GiB.  The
# data uses conductors 12, 24 and 36 (degrees 4, 8 and 12).
MAX_CONDUCTOR = 1024
MAX_DEGREE = 64
_RATIONAL = re.compile(r"(?P<num>[+-]?[0-9]+)(?:/(?P<den>[0-9]+))?")
_SCALAR_KEYS = {"conductor", "coeffs"}


def _kind(value) -> str:
    return "null" if value is None else type(value).__name__


def _get(data, key: str, path: str):
    """(data[key], its path) for a JSON object data, checked by _fields."""
    if key not in data:
        raise IngestError(f"{path}: missing field {key!r}")
    return data[key], f"{path}.{key}"


def _fields(data, path: str, kind: str | None, *keys: str) -> None:
    """Reject every key of the object data outside keys, a format naming
    kind (None: no format) and the top-level description."""
    if not isinstance(data, dict):
        raise IngestError(f"{path}: expected an object, got {_kind(data)}")
    for key, value in data.items():
        if key == "format" and kind is not None:
            if value != kind:
                raise IngestError(f"{path}.format: expected {kind!r}, got {value!r}")
        elif key not in keys and not (key == "description" and path == "$"):
            raise IngestError(f"{path}.{key}: unknown field")


def _list(value, path: str) -> list:
    """The JSON list value at path."""
    if not isinstance(value, list):
        raise IngestError(f"{path}: expected a list, got {_kind(value)}")
    return value


def _items(value, path: str) -> list:
    """[(item, its path)] for a JSON list."""
    return [(v, f"{path}[{i}]") for i, v in enumerate(_list(value, path))]


def _int(value, path: str, low: int = 1, high: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise IngestError(f"{path}: expected an integer, got {_kind(value)}")
    if value < low or (high is not None and value > high):
        bounds = f"{low}..{high}" if high is not None else f">= {low}"
        raise IngestError(f"{path}: {value} is outside {bounds}")
    return value


def _conductor(data, path: str) -> int:
    """The conductor of an object: one whose field the kernels can build."""
    n = _int(*_get(data, "conductor", path), high=MAX_CONDUCTOR)
    if euler_phi(n) > MAX_DEGREE:
        raise IngestError(f"{path}.conductor: {n} has field degree {euler_phi(n)}, "
                          f"above {MAX_DEGREE}")
    return n


@lru_cache(maxsize=1024)
def _rational(text: str) -> tuple[int, int]:
    """(p, q) for a coefficient string "p" or "p/q" in decimal digits with
    q > 0; ValueError naming the fault otherwise.  Each distinct string is
    parsed once per process, up to the cache's bound."""
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError(f'expected a rational "p/q", got {text!r}')
    num, den = int(match["num"]), int(match["den"] or 1)  # ValueError past the digit limit
    if not den:
        raise ValueError(f"zero denominator in {text!r}")
    return num, den


def _scalar(data, path: str, n: int) -> Cyclotomic:
    """A field element {conductor, coeffs} whose conductor is n, with
    coefficient strings "p" or "p/q" in decimal digits and q > 0."""
    _fields(data, path, None, "conductor", "coeffs")
    if _int(*_get(data, "conductor", path), high=MAX_CONDUCTOR) != n:
        raise IngestError(f"{path}.conductor: {data['conductor']} differs from "
                          f"the file conductor {n}")
    coeffs, where = _get(data, "coeffs", path)
    pairs = []
    for i, text in enumerate(_list(coeffs, where)):
        try:
            if not isinstance(text, str):
                raise ValueError(f'expected a rational "p/q", got {text!r}')
            pairs.append(_rational(text))
        except ValueError as exc:
            raise IngestError(f"{where}[{i}]: {exc}") from None
    den = lcm(*(q for _, q in pairs))
    try:
        return Cyclotomic(n, [p * (den // q) for p, q in pairs], den)
    except ValueError as exc:  # a wrong number of coefficients
        raise IngestError(f"{where}: {exc}") from None


def _scalars(value, path: str, n: int, seen: dict) -> list[Cyclotomic]:
    """The field elements of conductor n in the JSON list value at path.
    seen maps (n, *coefficient strings) of each entry read before in the
    document to its element, so an entry equal to one of those is that
    element: each distinct entry is validated, parsed, built and given a
    path once."""
    out = []
    for i, data in enumerate(_list(value, path)):
        key = None
        if (type(data) is dict and data.keys() == _SCALAR_KEYS
                and type(data["conductor"]) is int and data["conductor"] == n
                and type(data["coeffs"]) is list):
            key = (n, *data["coeffs"])
        try:
            c = seen.get(key)
        except TypeError:  # an unhashable coefficient, which _scalar rejects
            c = key = None
        if c is None:
            # seen takes a key only once _scalar accepts it, so a key found
            # there holds strings and is equal to no other JSON value
            c = _scalar(data, f"{path}[{i}]", n)
            if key is not None:
                seen[key] = c
        out.append(c)
    return out


def _rows(value, path: str, n: int, seen: dict, square: bool = False) -> Matrix:
    rows = [_scalars(*row, n, seen) for row in _items(value, path)]
    try:
        m = Matrix(n, rows)
    except ValueError as exc:
        raise IngestError(f"{path}: {exc}") from None
    r, c = m.shape
    if not r or not c:
        raise IngestError(f"{path}: expected a non-empty matrix, got {r}x{c}")
    if square and r != c:
        raise IngestError(f"{path}: expected a square matrix, got {r}x{c}")
    return m


def _state_from_dict(data, path: str, seen: dict) -> PureState:
    _fields(data, path, "state", "conductor", "dims", "amps")
    n = _conductor(data, path)
    dims = [_int(*item) for item in _items(*_get(data, "dims", path))]
    amps = _scalars(*_get(data, "amps", path), n, seen)
    try:
        return PureState(n, dims, amps)
    except ValueError as exc:
        raise IngestError(f"{path}: invalid state: {exc}") from None


def _operator_from_dict(data, path: str, seen: dict) -> LocalOperator:
    _fields(data, path, "operator", "conductor", "scalar", "factors")
    n = _conductor(data, path)
    scalar = _scalar(*_get(data, "scalar", path), n)
    factors = [_rows(f, p, n, seen, square=True)
               for f, p in _items(*_get(data, "factors", path))]
    if not factors:
        raise IngestError(f"{path}.factors: expected at least one factor")
    try:
        op = LocalOperator(n, scalar, factors)
    except ValueError as exc:
        raise IngestError(f"{path}: invalid operator: {exc}") from None
    if op != LocalOperator(n, scalar, factors, _canonical=True):
        raise IngestError(f"{path}: operator factors are not in canonical leading-1 form")
    return op


def _matrix_from_dict(data, path: str, seen: dict) -> Matrix:
    _fields(data, path, "matrix", "conductor", "entries")
    return _rows(*_get(data, "entries", path), _conductor(data, path), seen)


def _code_from_dict(data, path: str, seen: dict) -> CodeSubspace:
    _fields(data, path, "code", "basis", "n", "D", "claimed_d")
    basis = [_state_from_dict(s, p, seen) for s, p in _items(*_get(data, "basis", path))]
    n_sites = _int(*_get(data, "n", path))
    local_dim = _int(*_get(data, "D", path))
    claimed = data.get("claimed_d")
    if claimed is not None:
        claimed = _int(claimed, f"{path}.claimed_d")
    try:
        return CodeSubspace(n_sites, local_dim, basis, claimed_d=claimed)
    except ValueError as exc:
        raise IngestError(f"{path}: invalid code: {exc}") from None


def _list_from_dict(read, kind: str, key: str):
    def read_list(data, path: str, seen: dict) -> list:
        _fields(data, path, kind, key)
        return [read(item, p, seen) for item, p in _items(*_get(data, key, path))]
    return read_list


_READERS = {
    "state": _state_from_dict,
    "operator": _operator_from_dict,
    "matrix": _matrix_from_dict,
    "code": _code_from_dict,
    "operator-list": _list_from_dict(_operator_from_dict, "operator-list", "operators"),
    "matrix-list": _list_from_dict(_matrix_from_dict, "matrix-list", "matrices"),
}


def from_dict(data):
    """The typed object a parsed JSON document describes; IngestError, with
    the JSON path of the first fault, for anything else."""
    if not isinstance(data, dict):
        raise IngestError(f"$: expected an object with a format field, got {_kind(data)}")
    kind = data.get("format")
    read = _READERS.get(kind) if isinstance(kind, str) else None
    if read is None:
        raise IngestError(f"$.format: unknown or missing format field: {kind!r}")
    return read(data, "$", {})


def ingest(path):
    """Load and validate a data file; returns the typed object."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise IngestError(f"cannot read {path}: {exc}") from None
    except RecursionError:
        raise IngestError(f"cannot read {path}: JSON nested too deeply") from None
    try:
        return from_dict(data)
    except IngestError as exc:
        raise IngestError(f"{path}: {exc}") from None


# -- to dict -----------------------------------------------------------------
#
# The writers give back exactly the documents the readers above accept.


def scalar_to_dict(c: Cyclotomic) -> dict:
    """{conductor, coeffs}: each power-basis coefficient as "p/q" in lowest terms."""
    first, *rest = c.coeffs
    if not any(rest):
        # rational: the constructor made gcd(first, den) == 1
        return {"conductor": c.n, "coeffs": [f"{first}/{c.den}"] + ["0/1"] * len(rest)}
    return {"conductor": c.n, "coeffs": [f"{a // g}/{c.den // g}" for a in c.coeffs
                                         for g in [gcd(a, c.den)]]}


def _entries(m: Matrix) -> list:
    return [[scalar_to_dict(e) for e in row] for row in m.rows]


def to_dict(obj) -> dict:
    """The document of a state, operator, matrix or code, or of a list of
    operators or of matrices."""
    if isinstance(obj, PureState):
        return {"format": "state", "dims": list(obj.dims), "conductor": obj.n,
                "amps": [scalar_to_dict(a) for a in obj.amps]}
    if isinstance(obj, LocalOperator):
        return {"format": "operator", "conductor": obj.n,
                "scalar": scalar_to_dict(obj.scalar),
                "factors": [_entries(f) for f in obj.factors]}
    if isinstance(obj, Matrix):
        return {"format": "matrix", "conductor": obj.n, "entries": _entries(obj)}
    if isinstance(obj, CodeSubspace):
        return {"format": "code", "n": obj.n_sites, "D": obj.local_dim,
                "claimed_d": obj.claimed_d, "basis": [to_dict(v) for v in obj.basis]}
    if isinstance(obj, (list, tuple)):
        items = [to_dict(o) for o in obj]
        kinds = {i["format"] for i in items}
        if kinds == {"operator"}:
            return {"format": "operator-list", "operators": items}
        if kinds == {"matrix"}:
            return {"format": "matrix-list", "matrices": items}
        raise ValueError(f"cannot serialize a mixed list: {kinds}")
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump(obj, path) -> None:
    Path(path).write_text(dumps(obj))


def dumps(obj) -> str:
    return json.dumps(to_dict(obj), indent=1, sort_keys=True) + "\n"


def _digits(k: int) -> int:
    """The decimal digits of an int k > 0, counted without writing it out."""
    d = int(k.bit_length() * log10(2)) + 1  # the count, or one more
    return d if k >= 10 ** (d - 1) else d - 1


def _norm_text(v: PureState) -> str:
    """<v|v> as str gives it when rational and short; past the int-to-string
    digit limit, which str would raise on, as a float with the digit counts
    of its terms; a norm that is not rational (amplitudes whose squared
    moduli lie in the real subfield) as a float."""
    norm = gram([v])[0][0]
    if not norm.is_rational():
        return f"{norm.to_complex().real!r} (not rational)"
    q = norm.as_fraction()
    try:
        return str(q)
    except ValueError:
        num, den = _digits(q.numerator), _digits(q.denominator)
        value = repr(q.numerator / q.denominator) if num - den < 300 else f">= 1e{num - den - 1}"
        return f"{value} ({num}-digit/{den}-digit fraction)"


def describe(obj) -> str:
    if isinstance(obj, PureState):
        return (f"state on dims {obj.dims}, conductor {obj.n}, "
                f"norm^2 = {_norm_text(obj)}")
    if isinstance(obj, CodeSubspace):
        return (f"code n={obj.n_sites} D={obj.local_dim} K={obj.dimension}"
                f" claimed_d={obj.claimed_d}")
    if isinstance(obj, LocalOperator):
        return f"product operator on dims {obj.dims}, conductor {obj.n}"
    if isinstance(obj, Matrix):
        return f"matrix {obj.shape[0]}x{obj.shape[1]}, conductor {obj.n}"
    if isinstance(obj, list):
        return f"list of {len(obj)}: " + "; ".join(describe(o) for o in obj)
    return repr(obj)


# -- shipped data -------------------------------------------------------------

SHIPPED = ("phi.state", "c332.code", "weyl-generators.ops",
           "fig1-generators.ops", "coset-reps.ops")


def shipped_path(name: str) -> Path:
    if name not in SHIPPED:
        raise KeyError(f"unknown data file {name!r}; have {SHIPPED}")
    return Path(str(resources.files("amecode").joinpath("data", name)))


def load_shipped(name: str):
    return ingest(shipped_path(name))
