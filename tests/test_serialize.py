import json
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from amecode import catalog
from amecode import serialize as ser
from amecode.cyclo import Cyclotomic, euler_phi, root_of_unity
from amecode.groups import weyl_generators
from amecode.linalg import Matrix
from amecode.qecc import CodeSubspace
from amecode.tensor import LocalOperator, PureState, apply


def test_shipped_files_ingest_and_match_catalog():
    def shipped(name):
        return ser.ingest(ser.shipped_path(name))
    assert shipped("phi.state") == catalog.ame_state(normalized=True)
    assert shipped("c332.code").span_equal(catalog.code_332())
    assert shipped("weyl-generators.ops") == list(weyl_generators())
    assert shipped("fig1-generators.ops") == list(catalog.local_symmetry_generators())
    assert shipped("coset-reps.ops") == list(catalog.coset_representatives())
    # each carries a top-level description, the one field no reader reads
    for name in ser.SHIPPED:
        assert "description" in json.loads(ser.shipped_path(name).read_text())


def test_roundtrip_through_files(tmp_path):
    objs = [
        catalog.ame_state(),
        catalog.code_332(),
        CodeSubspace(3, 3, catalog.code_332().basis),  # claimed_d written as null
        catalog.coset_representatives()[0],
        list(catalog.coset_representatives()),
        list(weyl_generators()),
        catalog.pauli_x(3, 12),
    ]
    for i, obj in enumerate(objs):
        path = tmp_path / f"obj{i}.json"
        ser.dump(obj, path)
        back = ser.ingest(path)
        if isinstance(obj, CodeSubspace):
            assert back.span_equal(obj)
            assert back.basis == obj.basis
        else:
            assert back == obj
        # a second round-trip is byte-identical
        path2 = tmp_path / f"obj{i}b.json"
        ser.dump(back, path2)
        assert path.read_text() == path2.read_text()


def test_ingest_rejects_non_orthonormal_code(tmp_path):
    data = ser.to_dict(catalog.code_332())
    data["basis"][1] = data["basis"][0]  # duplicate basis vector
    p = tmp_path / "bad.code"
    p.write_text(json.dumps(data))
    with pytest.raises(ser.IngestError, match="orthonormal"):
        ser.ingest(p)


def test_ingest_rejects_noncanonical_operator(tmp_path):
    data = ser.to_dict(catalog.coset_representatives()[0])
    # scale one factor entry so the leading entry is no longer 1
    w = data["factors"][0][0][0]
    data["factors"][0][0][0] = data["factors"][0][2][2]
    p = tmp_path / "bad.ops"
    p.write_text(json.dumps(data))
    with pytest.raises(ser.IngestError):
        ser.ingest(p)


def test_ingest_rejects_garbage(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    with pytest.raises(ser.IngestError):
        ser.ingest(p)
    p2 = tmp_path / "unknown.json"
    p2.write_text(json.dumps({"format": "mystery"}))
    with pytest.raises(ser.IngestError, match="format"):
        ser.ingest(p2)
    with pytest.raises(ser.IngestError):
        ser.ingest(tmp_path / "missing.json")


def test_ingest_rejects_conductor_mismatch(tmp_path):
    data = ser.to_dict(catalog.ame_state())
    data["conductor"] = 24
    p = tmp_path / "mixed.state"
    p.write_text(json.dumps(data))
    with pytest.raises(ser.IngestError, match="conductor"):
        ser.ingest(p)


def test_shipped_files_roundtrip(tmp_path):
    # ingest -> serialize -> ingest yields equal objects
    for name in ser.SHIPPED:
        obj = ser.ingest(ser.shipped_path(name))
        p = tmp_path / name
        ser.dump(obj, p)
        again = ser.ingest(p)
        if isinstance(obj, CodeSubspace):
            assert again.basis == obj.basis
        else:
            assert again == obj


def test_ingest_rejects_a_misspelt_field(tmp_path):
    # claimed_D is not claimed_d: it must not ingest as claimed_d=None
    data = json.loads(ser.shipped_path("c332.code").read_text())
    data["claimed_D"] = data.pop("claimed_d")
    with pytest.raises(ser.IngestError, match=r"\$\.claimed_D: unknown field"):
        _ingest_json(tmp_path, data)


def test_describe():
    assert "norm^2 = 1" in ser.describe(catalog.ame_state())
    assert "K=3" in ser.describe(catalog.code_332())
    assert "list of 3" in ser.describe(list(weyl_generators()))


# -- the writer ----------------------------------------------------------------


def _indented(obj) -> str:
    """The bytes dumps promises: json's own indented layout of to_dict."""
    return json.dumps(ser.to_dict(obj), indent=1, sort_keys=True) + "\n"


def _long(n, rng, digits):
    """A field element with signed coefficients of about `digits` digits."""
    top = 10 ** digits
    return Cyclotomic(n, [rng.randint(-top, top) for _ in range(euler_phi(n))],
                      rng.randint(1, top))


def _long_state(n):
    # a few distinct long values, negative rationals among them, repeated
    rng = random.Random(n)
    values = [_long(n, rng, 40) for _ in range(4)]
    values += [Cyclotomic.from_rational(n, Fraction(-(10 ** 50) - 1, 3)), Cyclotomic.zero(n)]
    return PureState(n, (3, 3), [rng.choice(values) for _ in range(9)])


def _shared_scalar_operator(n):
    # the scalar w is also a factor entry: one value at depths 1 and 4
    w = root_of_unity(n // 3, n)
    one, zero = Cyclotomic.one(n), Cyclotomic.zero(n)
    return LocalOperator(n, w, [Matrix(n, [[one, zero], [zero, w]]),
                                Matrix(n, [[one, w], [w, -one]])], _canonical=True)


def _long_matrices(n):
    rng = random.Random(n + 1)
    return [Matrix(n, [[_long(n, rng, 30), -_long(n, rng, 60)], [Cyclotomic.one(n), -1]]),
            *weyl_generators(n)]


_WRITER_CASES = {}
for _n in (12, 24, 36):
    _WRITER_CASES.update({
        f"state-{_n}": lambda n=_n: catalog.ame_state(n),
        f"long-state-{_n}": lambda n=_n: _long_state(n),
        f"code-{_n}": lambda n=_n: catalog.code_332(n),
        f"operator-{_n}": lambda n=_n: catalog.coset_representatives(n)[1],
        f"shared-scalar-operator-{_n}": lambda n=_n: _shared_scalar_operator(n),
        f"matrix-{_n}": lambda n=_n: weyl_generators(n)[1],
        f"operator-list-{_n}": lambda n=_n: [*catalog.local_symmetry_generators(n),
                                              _shared_scalar_operator(n)],
        f"matrix-list-{_n}": lambda n=_n: _long_matrices(n),
    })
_WRITER_CASES["code-without-claimed-d"] = lambda: CodeSubspace(3, 3, catalog.code_332().basis)
_WRITER_CASES["operator-tuple"] = lambda: catalog.coset_representatives()


@pytest.mark.parametrize("name", sorted(_WRITER_CASES))
def test_dumps_is_the_indented_json_dumps(name):
    obj = _WRITER_CASES[name]()
    assert ser.dumps(obj) == _indented(obj)


@pytest.mark.parametrize("name", ser.SHIPPED)
def test_dumps_of_each_shipped_file_is_the_indented_json_dumps(name):
    obj = ser.ingest(ser.shipped_path(name))
    assert ser.dumps(obj) == _indented(obj)


def _user_input_objects(seed):
    """States and codes made as the benchmark's user-inputs files are: images
    of the perfect tensor and of the code under seed-chosen words in the
    monomial normalizer and symmetry generators, with the circulant coset
    representative once in between."""
    rng = random.Random(seed)

    def word(gens):
        g = rng.choice(gens)
        for _ in range(5):
            g = g * rng.choice(gens)
        return g

    q1, circulant, q3 = catalog.coset_representatives()
    monomial = [catalog.xxx(3, 3, 12), catalog.zzz(3, 3, 12), q1, q3]
    g1, g2, g3, _, g5 = catalog.local_symmetry_generators()
    ident = catalog.pauli_power(3, 12, 0, 0)
    out = []
    for _ in range(2):
        a = word(monomial) * circulant * word(monomial)
        on_four = LocalOperator(12, a.scalar, [ident, *a.factors], _canonical=True)
        out.append(apply(word([g1, g2, g3, g5]), apply(on_four, catalog.ame_state())))
        a = word(monomial) * circulant * word(monomial)
        out.append(CodeSubspace(3, 3, [apply(a, u) for u in catalog.code_332().basis],
                                claimed_d=2))
    return out


@pytest.mark.parametrize("seed", [1, 2])
def test_dumps_of_user_input_files_is_the_indented_json_dumps(seed, tmp_path):
    for i, obj in enumerate(_user_input_objects(seed)):
        path = tmp_path / f"obj{i}.json"
        ser.dump(obj, path)
        assert path.read_text() == _indented(obj)
        assert ser.dumps(ser.ingest(path)) == path.read_text()


def test_shipped_path_unknown():
    with pytest.raises(KeyError):
        ser.shipped_path("nope.state")


def _ingest_json(tmp_path, data):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(data))
    return ser.ingest(p)


def _fraction_scalar_to_dict(c):
    """scalar_to_dict by one Fraction per coefficient."""
    return {"conductor": c.n,
            "coeffs": [f"{q.numerator}/{q.denominator}"
                       for q in (Fraction(a, c.den) for a in c.coeffs)]}


_COEFFS = st.one_of(st.integers(-60, 60), st.integers(-10 ** 30, 10 ** 30))


@settings(max_examples=300, deadline=None)
@given(n=st.sampled_from([3, 4, 12, 24]), rational=st.booleans(), data=st.data())
def test_scalar_to_dict_matches_the_fraction_path(n, rational, data):
    rest = euler_phi(n) - 1
    coeffs = [data.draw(_COEFFS)] + ([0] * rest if rational else data.draw(
        st.lists(_COEFFS, min_size=rest, max_size=rest)))
    den = data.draw(_COEFFS.filter(bool))
    c = Cyclotomic(n, coeffs, den)
    assert ser.scalar_to_dict(c) == _fraction_scalar_to_dict(c)


_ONE, _ZERO = ser.scalar_to_dict(Cyclotomic.one(12)), ser.scalar_to_dict(Cyclotomic.zero(12))


def _operator(factors) -> dict:
    return {"format": "operator", "conductor": 12, "scalar": _ONE, "factors": factors}


@pytest.mark.parametrize("edit, where", [
    (lambda d: [d], r"\$: expected an object with a format field, got list"),
    (lambda d: d["amps"][5]["coeffs"].__setitem__(1, "1/0"),
     r"\$\.amps\[5\]\.coeffs\[1\]: zero denominator in '1/0'"),
    (lambda d: d["amps"].__setitem__(3, 7), r"\$\.amps\[3\]: expected an object, got int"),
    (lambda d: d["amps"][0]["coeffs"].__setitem__(0, "1e9"),
     r"\$\.amps\[0\]\.coeffs\[0\]: expected a rational"),
    (lambda d: d["amps"][2].__setitem__("coeffs", ["1", "0", "0"]),
     r"\$\.amps\[2\]\.coeffs: need 4 coefficients"),
    (lambda d: d.__setitem__("conductor", 10 ** 6), r"\$\.conductor: 1000000 is outside"),
    (lambda d: d.__setitem__("dims", [3, 3, "3", 3]), r"\$\.dims\[2\]: expected an integer"),
    (lambda d: d.update(dims=[], amps=d["amps"][:1]), r"\$\.dims: expected at least one site"),
    (lambda d: d.__delitem__("amps"), r"\$: missing field 'amps'"),
    (lambda d: d["amps"][0].__setitem__("conductor", 24),
     r"\$\.amps\[0\]\.conductor: 24 differs"),
    (lambda d: _operator([[[_ONE, _ZERO]]]),
     r"\$\.factors\[0\]: expected a square matrix, got 1x2"),
    (lambda d: _operator([]), r"\$\.factors: expected at least one factor"),
    (lambda d: dict(ser.to_dict(catalog.pauli_x(3, 12)), entries=[]),
     r"\$\.entries: expected a non-empty matrix, got 0x0"),
    (lambda d: d["amps"][4].__setitem__("description", "x"),
     r"\$\.amps\[4\]\.description: unknown field"),
    (lambda d: d["amps"][4].__setitem__("format", "scalar"),
     r"\$\.amps\[4\]\.format: unknown field"),
    (lambda d: {"format": "operator-list",
                "operators": [dict(_operator([[[_ONE]]]), format="matrix")]},
     r"\$\.operators\[0\]\.format: expected 'operator', got 'matrix'"),
], ids=["top-level-list", "zero-denominator", "bare-int", "exponent", "too-few-coeffs",
        "huge-conductor", "string-dim", "no-sites", "missing-field", "mixed-conductor",
        "non-square-factor", "no-factors", "empty-matrix",
        "nested-description", "scalar-format", "nested-format"])
def test_ingest_names_the_json_path(tmp_path, edit, where):
    data = ser.to_dict(catalog.ame_state())
    data = edit(data) or data
    with pytest.raises(ser.IngestError, match=where):
        _ingest_json(tmp_path, data)


_LEAVES = (st.none() | st.booleans() | st.integers(-3, 40)
           | st.sampled_from(["1/0", "1/2", "-3", "0/1", "x", "2/3/4", "", "1e3"]))
_KEYS = st.sampled_from(["format", "conductor", "coeffs", "dims", "amps", "scalar",
                         "factors", "entries", "basis", "n", "D", "claimed_d",
                         "operators", "matrices"])
_JSON = st.recursive(_LEAVES, lambda inner: st.lists(inner, max_size=4)
                     | st.dictionaries(_KEYS, inner, max_size=5), max_leaves=20)
_SEEDS = [ser.to_dict(x) for x in (catalog.pauli_x(3, 12), list(weyl_generators()),
                                   catalog.xxx(3, 3, 12), catalog.ket("01", 3, 12))]


def _leaf_paths(doc, path=()):
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _leaf_paths(v, path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _leaf_paths(v, path + (i,))
    yield path


@st.composite
def _documents(draw):
    """Random JSON, or a valid document with one value replaced."""
    if draw(st.booleans()):
        return {"format": draw(st.sampled_from(list(ser._READERS))), **draw(
            st.dictionaries(_KEYS, _JSON, max_size=5))}
    doc = json.loads(json.dumps(draw(st.sampled_from(_SEEDS))))
    path = draw(st.sampled_from(list(_leaf_paths(doc))))
    if not path:
        return draw(_JSON)
    target = doc
    for k in path[:-1]:
        target = target[k]
    target[path[-1]] = draw(_JSON)
    return doc


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_documents())
def test_from_dict_fuzz_raises_only_ingest_error(doc):
    # any JSON value is either a valid object or an IngestError
    try:
        ser.from_dict(doc)
    except ser.IngestError:
        pass


def _set(*keys, value):
    """An edit that sets the value at keys, a path into the document."""
    def edit(doc):
        for k in keys[:-1]:
            doc = doc[k]
        doc[keys[-1]] = value
    return edit


def _drop(*keys):
    def edit(doc):
        for k in keys[:-1]:
            doc = doc[k]
        del doc[keys[-1]]
    return edit


_CODE = ser.to_dict(catalog.code_332())


@pytest.mark.parametrize("doc, edit, message", [
    (None, _set("amps", value={"a": 1}), "$.amps: expected a list, got dict"),
    (None, _set("amps", 6, "coeffs", value="1/3"),
     "$.amps[6].coeffs: expected a list, got str"),
    (None, _set("amps", 6, "coeffs", 1, value=3),
     '$.amps[6].coeffs[1]: expected a rational "p/q", got 3'),
    (None, _set("amps", 6, "coeffs", 1, value=None),
     '$.amps[6].coeffs[1]: expected a rational "p/q", got None'),
    (None, _drop("amps", 6, "conductor"), "$.amps[6]: missing field 'conductor'"),
    (None, _drop("amps", 6, "coeffs"), "$.amps[6]: missing field 'coeffs'"),
    (None, _set("amps", 6, "conductor", value=True),
     "$.amps[6].conductor: expected an integer, got bool"),
    (None, _set("conductor", value=True), "$.conductor: expected an integer, got bool"),
    (None, _drop("amps", 80), "$: invalid state: need 81 amplitudes, got 80"),
    (None, _set("amps", 6, "coeffs", 0, value="7" * 5001),
     "$.amps[6].coeffs[0]: Exceeds the limit (4300 digits) for integer string conversion: "
     "value has 5001 digits; use sys.set_int_max_str_digits() to increase the limit"),
    (_CODE, _set("basis", 1, "amps", 7, "coeffs", 2, value="2/0"),
     "$.basis[1].amps[7].coeffs[2]: zero denominator in '2/0'"),
    (_CODE, _set("basis", 1, "amps", 7, "coeffs", value=["1", "2"]),
     "$.basis[1].amps[7].coeffs: need 4 coefficients for conductor 12"),
], ids=["amps-not-list", "coeffs-not-list", "int-coefficient", "null-coefficient",
        "no-conductor", "no-coeffs", "bool-amp-conductor", "bool-conductor",
        "amp-count", "5001-digits", "code-basis-zero-denominator", "code-basis-coeff-count"])
def test_state_and_code_readers_pin_each_fault(tmp_path, doc, edit, message):
    # each fault follows amplitudes equal to valid ones read before it, so
    # a reader that reuses what it has read must still name the same fault
    data = json.loads(json.dumps(doc or ser.to_dict(catalog.ame_state())))
    edit(data)
    with pytest.raises(ser.IngestError) as exc:
        ser.from_dict(data)
    assert str(exc.value) == message
    with pytest.raises(ser.IngestError) as exc:
        _ingest_json(tmp_path, data)
    assert str(exc.value) == f"{tmp_path / 'doc.json'}: {message}"
