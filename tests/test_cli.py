import json
from fractions import Fraction

import pytest

from amecode.cli import main
from amecode.serialize import shipped_path
from amecode.suites import SUITES, SuiteContext, run_suite


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
    rep = run_suite("weyl", SuiteContext())
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
        a = _strip_elapsed(run_suite(name, SuiteContext(seed=5)).to_dict())
        b = _strip_elapsed(run_suite(name, SuiteContext(seed=5)).to_dict())
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_cli_code_kl(capsys):
    assert main(["code", "kl", "--code", str(shipped_path("c332.code")),
                 "--distance", "2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["parameters"] == {"D": 3, "K": 3, "d": 2, "n": 3}
    assert data["is_code"] and data["is_pure"] and data["violations"] == []
    assert main(["code", "kl", "--code", str(shipped_path("c332.code")),
                 "--distance", "3"]) == 1
    capsys.readouterr()


def test_cli_suite_json(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(["suite", "ame4", "--format", "json", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["schema"] == "amecode-report/1"
    assert data["passed"] is True


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
    assert "order: 648" in capsys.readouterr().out


def test_cli_group_verify_cosets(capsys):
    assert main(["group", "verify-cosets"]) == 0


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


def test_cli_invariants_eval_bad_point(capsys):
    assert main(["invariants", "eval", "--point", "1,1"]) == 2


def test_cli_kempfness(capsys, tmp_path):
    assert main(["kempfness", "critical", "--state",
                 str(shipped_path("phi.state"))]) == 0
    assert main(["kempfness", "flow", "--state", str(shipped_path("phi.state")),
                 "--iters", "50"]) == 0
    capsys.readouterr()


def test_cli_correspond_reports_failure_exit(tmp_path, capsys):
    # a product basis state cannot be reduced: usage error (exit 2)
    from amecode import catalog, serialize
    p = tmp_path / "prod.state"
    serialize.dump(catalog.ket("0000", 3, 12), p)
    assert main(["correspond", str(p)]) == 2
