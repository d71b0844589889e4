import argparse
import hashlib
import json
import random
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from amecode import cli, suites
from amecode.cli import main
from amecode.cyclo import Cyclotomic
from amecode.linalg import Matrix
from amecode.serialize import dump, scalar_to_dict, shipped_path, to_dict
from amecode.suites import SUITES, run_suite
from amecode.tensor import LocalOperator, PureState


def _strip_elapsed(report: dict) -> dict:
    out = json.loads(json.dumps(report))
    for c in out["checks"]:
        c.pop("elapsed")
    return out


def test_suite_names_cover_the_required_set():
    required = {"code332", "ame4", "correspondence", "weyl", "local-symmetry",
                "invariants", "kempfness", "code442-qubit", "all"}
    assert required <= set(SUITES)


def test_run_suite_weyl_passes():
    rep = run_suite("weyl")
    assert rep.passed
    orders = [c for c in rep.checks if c.name == "weyl-group-648"]
    assert "order=648" in orders[0].actual


def test_run_suite_unknown():
    try:
        run_suite("nope")
        assert False
    except KeyError:
        pass


def test_run_suite_deterministic_modulo_timing():
    # the randomized suites must be byte-identical given a fixed seed
    for name in ("invariants", "kempfness"):
        a = _strip_elapsed(run_suite(name, seed=5).to_dict())
        b = _strip_elapsed(run_suite(name, seed=5).to_dict())
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_cli_code_kl(capsys):
    assert main(["code", "kl", "--code", str(shipped_path("c332.code")),
                 "--distance", "2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["parameters"] == {"D": 3, "K": 3, "d": 2, "n": 3}
    assert data["is_code"] and data["is_pure"] and data["violations"] == []
    assert main(["code", "kl", "--code", str(shipped_path("c332.code")),
                 "--distance", "3"]) == 1
    # past n + 1 the sweep reaches every error, as at d = n + 1
    assert main(["code", "kl", "--code", str(shipped_path("c332.code")),
                 "--distance", "5"]) == 1
    capsys.readouterr()


def test_cli_suite_json(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(["suite", "ame4", "--format", "json", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["schema"] == "amecode-report/1"
    assert data["passed"] is True


def test_cli_suite_text_out_writes_the_text_to_the_file(tmp_path, capsys):
    # --out takes the place of stdout in text mode too, with the same lines
    out = tmp_path / "rep.txt"
    code, printed, err = _run(["suite", "ame4", "--out", str(out)], capsys)
    assert (code, printed, err) == (0, "", "")
    untimed = re.compile(r"\(\d+\.\d\ds\)")
    assert untimed.sub("", _run(["suite", "ame4"], capsys)[1]) == \
        untimed.sub("", out.read_text()) == "PASS ame4-two-uniform \nsuite ame4: PASS\n"


def test_cli_unknown_suite():
    assert main(["suite", "definitely-not-a-suite"]) == 2


def test_cli_ingest_and_correspond(capsys):
    assert main(["ingest", str(shipped_path("phi.state"))]) == 0
    assert main(["correspond", str(shipped_path("c332.code"))]) == 0
    capsys.readouterr()


def test_cli_ingest_missing_file(capsys):
    assert main(["ingest", "/nonexistent/file.state"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_cli_group_close(capsys):
    code = main(["group", "close", "--gens", str(shipped_path("weyl-generators.ops")),
                 "--cap", "6480"])
    assert code == 0
    assert capsys.readouterr().out == "generators: 3\norder: 648\n"


def test_cli_group_close_rejects_non_square_factor(tmp_path, capsys):
    # ingest rejects the factor [[1, 0]] before any determinant is taken
    one, zero = scalar_to_dict(Cyclotomic.one(12)), scalar_to_dict(Cyclotomic.zero(12))
    gens = tmp_path / "bad.op"
    gens.write_text(json.dumps({"format": "operator", "conductor": 12, "scalar": one,
                                "factors": [[[one, zero]]]}))
    assert _run(["group", "close", "--gens", str(gens)], capsys) == \
        (2, "", f"error: {gens}: $.factors[0]: expected a square matrix, got 1x2\n")


def test_cli_group_close_cap_exceeded(tmp_path, capsys):
    # diag(2, 1, 1) has infinite order: the closure overflows its cap
    op = LocalOperator(12, 1, [Matrix(12, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])])
    gens = tmp_path / "grow.op"
    gens.write_text(json.dumps(to_dict(op)))
    code = main(["group", "close", "--gens", str(gens), "--cap", "40"])
    assert code == 2
    assert "error: closure exceeded cap 40" in capsys.readouterr().err


def test_cli_group_close_zero_factor(tmp_path, capsys):
    # N = [[0, 1], [0, 0]] is canonical, but N * N would have a zero factor:
    # the singular generator is rejected before the search
    x = LocalOperator(12, 1, [Matrix(12, [[0, 1], [1, 0]])])
    nil = LocalOperator(12, 1, [Matrix(12, [[0, 1], [0, 0]])])
    gens = tmp_path / "nil.ops"
    dump([x, nil], gens)
    assert main(["group", "close", "--gens", str(gens)]) == 2
    assert "error: generators[1] is singular (determinant 0)" in capsys.readouterr().err


_PERMUTATION = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
_SINGULAR = [[1, 0, 0], [0, 1, 0], [0, 0, 0]]


@pytest.mark.parametrize("rows, at", [([_SINGULAR], 0), ([_PERMUTATION, _SINGULAR], 1),
                                     ([[[0, 0, 0]] * 3], 0)],
                         ids=["first", "after-permutation", "zero"])
def test_cli_group_close_singular_matrix(tmp_path, capsys, rows, at):
    gens = tmp_path / "singular.mats"
    dump([Matrix(12, r) for r in rows], gens)
    assert main(["group", "close", "--gens", str(gens)]) == 2
    assert capsys.readouterr().err == f"error: generators[{at}] is singular (determinant 0)\n"


def test_cli_group_close_singular_factor(tmp_path, capsys):
    # diag(1, 0) is idempotent: its closure never meets a zero factor
    gens = tmp_path / "idempotent.ops"
    dump([LocalOperator(12, 1, [Matrix(12, [[0, 1], [1, 0]]), Matrix(12, [[1, 0], [0, 0]])])],
         gens)
    assert main(["group", "close", "--gens", str(gens)]) == 2
    assert "error: generators[0] is singular (determinant 0)" in capsys.readouterr().err


def test_cli_group_verify_cosets(capsys):
    assert main(["group", "verify-cosets"]) == 0


def test_cli_ingest_rejects_a_misspelt_field(tmp_path, capsys):
    data = json.loads(shipped_path("c332.code").read_text())
    data["claimed_D"] = data.pop("claimed_d")
    path = tmp_path / "misspelt.code"
    path.write_text(json.dumps(data))
    assert _run(["ingest", str(path)], capsys) == \
        (2, "", f"error: {path}: $.claimed_D: unknown field\n")


def test_cli_invariants_eval(capsys):
    assert main(["invariants", "eval", "--point", "1,1,1",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["i6_float"].startswith("(-27")


def test_cli_invariants_eval_large_height(capsys):
    # the exact values have numerators and denominators far past the float
    # range; their float rendering must still succeed
    point = "98765432109876543210/12345678901234567891,-3/7,55555555555555555555/3"
    assert main(["invariants", "eval", "--point", point, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    exact = Fraction(data["i12"]["coeffs"][0])
    assert exact.numerator.bit_length() > 1100
    assert complex(data["i12_float"]).real == pytest.approx(float(exact), rel=1e-12)


def test_cli_invariants_eval_past_the_float_range(capsys):
    # i12 has a numerator of about 2**8000 over 1, so the float rendering
    # must scale the numerator without the denominator underflowing
    assert main(["invariants", "eval", "--point=1e200,1,1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    a = Fraction(10) ** 200
    # the cube polynomials at p = a**3, q = r = 1
    oracle = {"i6": a ** 6 + 2 - 10 * (2 * a ** 3 + 1), "i9": 0,
              "i12": (2 * a ** 9 + 2 * (a ** 3 + 1) - 4 * (2 * a ** 6 + 1)
                      + 2 * a ** 3 * (a ** 3 + 2))}
    for key, value in oracle.items():
        coeffs = [Fraction(c) for c in data[key]["coeffs"]]
        assert coeffs == [value, 0, 0, 0], key
    assert (data["i6_float"], data["i9_float"], data["i12_float"]) == ("(inf+0j)", "0j", "(inf+0j)")


def test_cli_invariants_eval_bad_point(capsys):
    assert main(["invariants", "eval", "--point", "1,1"]) == 2


def test_cli_kempfness(capsys, tmp_path):
    assert main(["kempfness", "critical", "--state",
                 str(shipped_path("phi.state"))]) == 0
    assert main(["kempfness", "flow", "--state", str(shipped_path("phi.state")),
                 "--iters", "50"]) == 0
    capsys.readouterr()


def test_cli_kempfness_rejects_non_state(capsys):
    code_file = str(shipped_path("c332.code"))
    for cmd in ("critical", "flow"):
        assert main(["kempfness", cmd, "--state", code_file]) == 2
        assert "expected a state" in capsys.readouterr().err
    # the flow is deterministic and takes no seed
    assert main(["kempfness", "flow", "--state", str(shipped_path("phi.state")),
                 "--seed", "0"]) == 2
    capsys.readouterr()


def test_cli_correspond_reports_failure_exit(tmp_path, capsys):
    # a product basis state cannot be reduced: usage error (exit 2)
    from amecode import catalog, serialize
    p = tmp_path / "prod.state"
    serialize.dump(catalog.ket("0000", 3, 12), p)
    assert main(["correspond", str(p)]) == 2


def _bell_file(tmp_path, n):
    from amecode.cyclo import sqrt_of_rational
    from amecode.tensor import PureState
    h, z = sqrt_of_rational(Fraction(1, 2), n), Cyclotomic.zero(n)
    p = tmp_path / f"bell{n}.state"
    dump(PureState(n, [2, 2], [h, z, z, h]), p)
    return p


def test_cli_correspond_at_the_largest_field_degree(tmp_path, capsys):
    # conductor 192 has degree phi(192) = 64, the largest the kernels accept
    from amecode.cyclo import euler_phi
    from amecode.serialize import MAX_DEGREE
    assert euler_phi(192) == MAX_DEGREE
    code, out, err = _run(["correspond", str(_bell_file(tmp_path, 192)), "--format", "json"],
                          capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["roundtrip_exact"] is True


def test_cli_rejects_field_degree_above_the_bound(tmp_path, capsys):
    # conductor 200 has degree 80: an input error naming $.conductor
    p = _bell_file(tmp_path, 192)
    p.write_text(json.dumps(dict(json.loads(p.read_text()), conductor=200)))
    assert _run(["correspond", str(p)], capsys) == \
        (2, "", f"error: {p}: $.conductor: 200 has field degree 80, above 64\n")


@pytest.mark.parametrize("argv, expected", [
    (["code", "kl", "--code", "phi.state"], "expected a code, got state on dims"),
    (["group", "close", "--gens", "phi.state"],
     "expected matrices or product operators, got state on dims"),
    (["correspond", "weyl-generators.ops"],
     "expected a state or a code, got list of 3: matrix 3x3"),
], ids=["code-kl", "group-close", "correspond"])
def test_cli_rejects_wrong_object_type(argv, expected, capsys):
    # each command checks the type of the object it ingests
    argv = [str(shipped_path(a)) if "." in a else a for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {argv[-1]}: {expected}")


def test_cli_ingest_malformed_json(tmp_path, capsys):
    top = tmp_path / "list.json"
    top.write_text("[1, 2, 3]")
    assert main(["ingest", str(top)]) == 2
    assert "$: expected an object with a format field, got list" in capsys.readouterr().err
    data = json.loads(shipped_path("phi.state").read_text())
    data["amps"][17]["coeffs"][2] = "1/0"
    zero = tmp_path / "zero.state"
    zero.write_text(json.dumps(data))
    assert main(["ingest", str(zero)]) == 2
    assert "$.amps[17].coeffs[2]: zero denominator" in capsys.readouterr().err


def _run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", [
    ["code", "kl", "--code", str(shipped_path("c332.code")), "--format", "json"],
    ["invariants", "eval", "--point=1/2,-3,7", "--format", "json"],
    ["group", "close", "--gens", str(shipped_path("weyl-generators.ops")), "--cap", "10"],
    ["suite", "definitely-not-a-suite"],
    ["code", "kl"],
], ids=["code-kl", "invariants-eval", "cap-exceeded", "unknown-suite", "missing-option"])
def test_cli_same_argv_twice_same_result(argv, capsys):
    # one parser serves every call of the process: no state carries over
    assert _run(argv, capsys) == _run(list(argv), capsys)


def _fresh(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    out, err = capsys.readouterr()
    return 2 if exc.value.code else 0, out, err


def test_cli_usage_and_help_after_success(capsys):
    # the shared parser prints what a freshly built one prints
    assert _run(["invariants", "eval", "--point", "1,1,1"], capsys)[0] == 0
    for argv in (["invariants", "eval"], ["--help"], ["code", "--help"], ["--help"]):
        code, out, err = _run(argv, capsys)
        assert (code, out, err) == _fresh(argv, capsys)
        assert code == (0 if "--help" in argv else 2)
    assert "the following arguments are required: --point" in _run(["invariants", "eval"],
                                                                    capsys)[2]


def test_cli_builds_parser_once(monkeypatch, capsys):
    built = []
    build = cli.build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        for argv in (["invariants", "eval", "--point", "1,2,3"], ["suite", "nope"],
                     ["--help"], ["group", "verify-cosets"]):
            main(argv)
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()
    assert len(built) == 1


def test_cli_invariants_eval_zero_denominator(capsys):
    assert _run(["invariants", "eval", "--point=1/0,1,1"], capsys) == \
        (2, "", "error: --point: zero denominator in '1/0'\n")


@pytest.mark.parametrize("coord", ["1e10000000", "1e-10000000", "1e4301", "7" * 4301])
def test_cli_invariants_eval_rejects_a_huge_coordinate_before_building_it(coord, capsys):
    # Fraction("1e10000000") alone takes seconds, and its invariants far
    # more: the coordinate's size is checked on its text first
    start = time.perf_counter()
    code, out, err = _run(["invariants", "eval", f"--point={coord},1,1"], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: --point: ")
    assert "4300" in err


@pytest.mark.parametrize("coord", ["1e200", "1e400", "-1.5e3", "1_000/3"])
def test_cli_invariants_eval_accepts_a_coordinate_within_the_bound(coord, capsys):
    assert _run(["invariants", "eval", f"--point={coord},1,1"], capsys)[0] == 0


# stdout of `invariants eval` at six points, as written before the
# evaluation moved to integer numerators: each format's bytes are pinned
_GOLDEN = json.loads((Path(__file__).parent / "golden" / "invariants_eval.json").read_text())


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("case", _GOLDEN, ids=[c["label"] for c in _GOLDEN])
def test_cli_invariants_eval_writes_the_pinned_bytes(case, fmt, capsys):
    assert _run(["invariants", "eval", f"--point={case['point']}", "--format", fmt],
                capsys) == (0, case[fmt], "")


@pytest.mark.parametrize("point, name", [("1e4300,1,1", "'1e4300'"), ("1e1000,1,1", "i6"),
                                         ("1e-400,1e-400,1", "i12")])
def test_cli_invariants_eval_rejects_a_value_too_long_to_write(point, name, tmp_path, capsys):
    # 1e4300 passes the bound on its text, but has 4301 digits; at 1e1000
    # i6 has about 6000, and at (1e-400, 1e-400, 1) the denominator of i12 has 4800
    out = tmp_path / "report.json"
    for extra in ([], ["--format", "json"], ["--out", str(out)]):
        start = time.perf_counter()
        code, stdout, err = _run(["invariants", "eval", f"--point={point}", *extra], capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, stdout) == (2, "")
        assert err == (f"error: --point: {name} has a numerator or denominator of more "
                       "than 4300 digits\n")
    assert not out.exists()


def test_cli_ingest_of_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000)
    assert _run(["ingest", str(deep)], capsys) == \
        (2, "", f"error: cannot read {deep}: JSON nested too deeply\n")


def _state_file(tmp_path, amps):
    path = tmp_path / "generic.state"
    dump(PureState(12, (3, 3, 3, 3), amps), path)
    return path


def test_cli_ingest_renders_a_norm_past_the_digit_limit(tmp_path, capsys):
    # 81 distinct 40-digit denominators: norm^2 is a rational whose terms
    # have about 6000 digits, more than str writes out
    rng = random.Random(5)
    amps = [Fraction(rng.randint(-10 ** 40, 10 ** 40), rng.randint(10 ** 39, 10 ** 40))
            for _ in range(81)]
    norm = sum(a * a for a in amps)
    code, out, err = _run(["ingest", str(_state_file(tmp_path, amps)), "--format", "json"],
                          capsys)
    assert (code, err) == (0, "")
    text = json.loads(out)["description"]
    head = "state on dims (3, 3, 3, 3), conductor 12, norm^2 = "
    assert text.startswith(head)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        num, den = len(str(norm.numerator)), len(str(norm.denominator))
    finally:
        sys.set_int_max_str_digits(limit)
    assert den > limit
    assert text == f"{head}{float(norm)!r} ({num}-digit/{den}-digit fraction)"


def test_cli_ingest_renders_a_norm_that_is_not_rational(tmp_path, capsys):
    # |1 + zeta_12|^2 = 2 + sqrt(3) lies in the real subfield, not in Q
    one_plus_zeta = Cyclotomic(12, [1, 1, 0, 0])
    amps = [one_plus_zeta] + [0] * 80
    code, out, err = _run(["ingest", str(_state_file(tmp_path, amps))], capsys)
    assert (code, err) == (0, "")
    head, value = out.splitlines()[-1].rsplit(" = ", 1)
    assert head == "description: state on dims (3, 3, 3, 3), conductor 12, norm^2"
    assert value.endswith(" (not rational)")
    assert float(value.split()[0]) == pytest.approx(2 + 3 ** 0.5, rel=1e-15)


@pytest.mark.parametrize("argv", [["group", "close", "--gens",
                                   str(shipped_path("weyl-generators.ops"))]],
                         ids=["group-close"])
def test_cli_cap_zero_is_a_cap(argv, capsys):
    # --cap 0 is a cap of zero elements, not the default
    assert _run(argv + ["--cap", "0"], capsys) == (2, "", "error: closure exceeded cap 0\n")


@pytest.mark.parametrize("argv, option", [
    (["suite", "all"], "--cap 0"),
    (["group", "verify-weyl"], "--cap 0"),
    (["group", "verify-local-symmetry"], "--cap 0"),
    (["group", "verify-cosets"], "--cap 0"),
    (["group", "verify-cosets"], "--seed 0"),
    (["group", "close", "--gens", str(shipped_path("weyl-generators.ops"))], "--seed 0"),
    (["suite", "all"], "--conductor 24"),
    (["group", "verify-weyl"], "--conductor 24"),
    (["group", "verify-local-symmetry"], "--conductor 24"),
    (["group", "verify-cosets"], "--conductor 24"),
    (["invariants", "eval", "--point", "1,2,3"], "--conductor 24"),
], ids=["suite-cap", "verify-weyl-cap", "verify-local-symmetry-cap", "verify-cosets-cap",
        "verify-cosets-seed", "close-seed", "suite-conductor", "verify-weyl-conductor",
        "verify-local-symmetry-conductor", "verify-cosets-conductor",
        "invariants-eval-conductor"])
def test_cli_rejects_removed_flags(argv, option, capsys):
    # the paper's groups are closed under fixed caps and built in the field
    # of suites.CONDUCTOR, and group close samples nothing: only group close
    # takes --cap, and no command takes --conductor
    code, out, err = _run(argv + option.split(), capsys)
    assert code == 2 and f"unrecognized arguments: {option}" in err


def test_cli_invariants_check_weyl_is_removed(capsys):
    # suite invariants prints the generators' invariance as its first clause
    code, out, err = _run(["invariants", "check-weyl"], capsys)
    assert code == 2 and "invalid choice: 'check-weyl'" in err


@pytest.mark.parametrize("name", ["all", "invariants"])
def test_cli_suite_rejects_negative_seed(name, capsys):
    # the seed is checked when the arguments are parsed, before any check runs
    code, out, err = _run(["suite", name, "--seed", "-1"], capsys)
    assert (code, out) == (2, "")
    assert "argument --seed: must be a non-negative integer, got '-1'" in err


def _option_strings(parser, path=()) -> dict:
    """{subcommand path: its sorted option strings, help aside}."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {" ".join(path): sorted({o for a in parser._actions for o in a.option_strings}
                                       - {"-h", "--help"})}
    return {k: v for name, sub in subs[0].choices.items()
            for k, v in _option_strings(sub, path + (name,)).items()}


def test_cli_option_sets_are_pinned():
    out = ["--format", "--out"]
    assert _option_strings(cli.build_parser()) == {
        "suite": ["--format", "--out", "--seed"],
        "ingest": out,
        "correspond": out,
        "code kl": ["--code", "--distance", "--format", "--out"],
        "group close": ["--cap", "--format", "--gens", "--out"],
        "group verify-weyl": out,
        "group verify-local-symmetry": out,
        "group verify-cosets": out,
        "invariants eval": ["--format", "--out", "--point"],
        "kempfness critical": ["--format", "--out", "--state", "--tol"],
        "kempfness flow": ["--format", "--iters", "--out", "--state", "--tol"],
    }


def test_cli_verify_weyl_takes_no_seed(capsys):
    # the closure and the generator comparison draw no sample
    code, out, err = _run(["group", "verify-weyl", "--seed", "0"], capsys)
    assert code == 2 and "unrecognized arguments: --seed 0" in err


def test_cli_verify_local_symmetry_takes_no_seed(capsys):
    # the relation is computed on every element, so nothing is sampled
    code, out, err = _run(["group", "verify-local-symmetry", "--seed", "0"], capsys)
    assert code == 2 and "unrecognized arguments: --seed 0" in err


@pytest.mark.parametrize("cmd, check, status", [
    ("verify-weyl", suites.check_weyl_order, 0),
    ("verify-local-symmetry", suites.check_local_symmetry, 1),
    ("verify-cosets", suites.check_coset_representatives, 0),
])
def test_cli_group_verify_prints_the_suite_check(cmd, check, status, capsys):
    code, out, err = _run(["group", cmd, "--format", "json"], capsys)
    expected = check(0)
    assert (code, err) == (status, "")
    assert json.loads(out) == {"name": expected.name, "passed": expected.passed,
                               "expected": expected.expected, "actual": expected.actual}


def test_suite_all_report_is_pinned():
    # name, status, expected and actual of every exact check at seed 1; the
    # two Kempf-Ness checks print floats whose last digits follow LAPACK
    rep = run_suite("all", seed=1)
    rows = [[c.name, c.status, c.expected, c.actual] for c in rep.checks
            if c.name not in ("kempf-ness-properties", "criticality-equivalence")]
    assert len(rows) == 11 and rep.exit_status == 1
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == \
        "245b89cb25773b556a4467840cd7433926c6d152082ee54af7a2eee1685f60c4"


def test_cli_code_kl_violations_are_byte_stable(capsys):
    # the 66 violations of the d=3 sweep, each with its exact value
    code, out, err = _run(["code", "kl", "--code", str(shipped_path("c332.code")),
                           "--distance", "3", "--format", "json"], capsys)
    assert (code, err) == (1, "")
    assert len(json.loads(out)["violations"]) == 66
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "6415a6c07c6e052a363ec9ff3f2274ab4cf5f9a8c4edaf8855dfaf8e95342249"


@pytest.mark.parametrize("cmd", ["critical", "flow"])
def test_cli_kempfness_rejects_state_of_infinite_norm(cmd, tmp_path, capsys):
    # an exact coefficient beyond the float range becomes inf amplitudes
    data = json.loads(shipped_path("phi.state").read_text())
    data["amps"][0]["coeffs"][0] = "1" + "0" * 400
    huge = tmp_path / "huge.state"
    huge.write_text(json.dumps(data))
    assert _run(["kempfness", cmd, "--state", str(huge)], capsys) == \
        (2, "", "error: state norm is not finite\n")


def test_cli_kempfness_critical_rejects_an_amplitude_past_the_float_range(tmp_path, capsys):
    # 10**700 over 1: the denominator underflows at the numerator's scale
    data = json.loads(shipped_path("phi.state").read_text())
    data["amps"][0]["coeffs"][0] = "1" + "0" * 700
    huge = tmp_path / "huge.state"
    huge.write_text(json.dumps(data))
    assert _run(["kempfness", "critical", "--state", str(huge)], capsys) == \
        (2, "", "error: state norm is not finite\n")


@pytest.mark.parametrize("cmd", ["critical", "flow"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_cli_kempfness_rejects_bad_tol(cmd, tol, capsys):
    code, out, err = _run(["kempfness", cmd, "--state", str(shipped_path("phi.state")),
                           f"--tol={tol}"], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: tol must be finite and positive, got {float(tol)!r}\n"
