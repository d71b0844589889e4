"""The four benchmark workloads.

Each workload is a closed loop with one client in one process: the next
call is made when the previous one has returned.  A workload has

* `setup(seed, tmpdir)`: builds the inputs from the seed (counted in
  setup_s);
* `run(inputs, span)`: the timed pass, which only calls amecode and keeps
  the raw results;
* `check(inputs, results)`: compares every result against the expected
  table, outside the timed pass, and returns one (label, ok) per operation.

amecode is reached through module attributes (`tensor.apply`, not a name
bound at import), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import traceback
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import expected as E
from amecode import catalog, cli, groups, linalg, qecc, serialize, tensor

N = 12  # the conductor every workload uses (the CLI default)


def cli_call(argv):
    """Run the CLI in-process as `python -m amecode.cli` would: an uncaught
    exception prints a traceback and gives exit code 1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # noqa: BLE001 - the process boundary of a CLI call
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def _json(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _word(rng, gens, length=6):
    """A seed-chosen group element: a random word in the generators."""
    g = rng.choice(gens)
    for _ in range(length - 1):
        g = g * rng.choice(gens)
    return g


def _normalizer_element(rng):
    """m1 * C * m2: C is the circulant coset representative and m1, m2 are
    words in the monomial generators, so every element spreads amplitudes
    alike and every seed asks for the same amount of work."""
    q1, circulant, q3 = catalog.coset_representatives(N)
    monomial = [catalog.xxx(3, 3, N), catalog.zzz(3, 3, N), q1, q3]
    return _word(rng, monomial) * circulant * _word(rng, monomial)


def _monomial_symmetry(rng):
    """A word in the four monomial symmetry generators (all but the
    circulant one), which permute and rephase amplitudes."""
    g1, g2, g3, _circulant, g5 = catalog.local_symmetry_generators(N)
    return _word(rng, [g1, g2, g3, g5])


def _on_last_three(a):
    """I (x) A on four sites, for a three-site operator A."""
    return tensor.LocalOperator(N, a.scalar, [catalog.pauli_power(3, N, 0, 0), *a.factors],
                                _canonical=True)


# -- suite-all ----------------------------------------------------------------


class SuiteAll:
    """`amecode suite all` through cli.main, default flags only.  One
    operation is one of the 13 checks."""

    name = "suite-all"
    size = "13 checks at conductor 12"

    def setup(self, seed, tmpdir):
        return ["suite", "all", "--seed", str(seed), "--format", "json"]

    def run(self, argv, span):
        with span("bench.suite"):
            return cli_call(argv)

    def check(self, argv, result):
        code, out, _err = result
        report = _json(out)
        checks = {c["name"]: c for c in report["checks"]} if report else {}
        outcomes = []
        for name, status in E.SUITE_CHECKS.items():
            c = checks.get(name)
            ok = code == E.SUITE_EXIT and c is not None and c["status"] == status
            if ok:
                facts = dict(re.findall(r"(\w+)=(\S+)", c["actual"]))
                ok = all(facts.get(k) == v for k, v in E.SUITE_FACTS.get(name, {}).items())
            outcomes.append((name, ok))
        if len(checks) != len(E.SUITE_CHECKS):
            outcomes.append(("check set", False))
        return outcomes

    def extra(self, argv, result):
        # Every byte of the report except the timing lines.
        stripped = re.sub(r'(?m)^\s*"elapsed": .*\n', "", result[1])
        return {"report_sha256": hashlib.sha256(stripped.encode()).hexdigest()}


# -- group-closure ------------------------------------------------------------


class GroupClosure:
    """The five closures, built cold in a fresh process.  One operation is
    one group element enumerated.  The pass is the same for every seed; the
    seed chooses the elements the closure axioms are spot-checked on."""

    name = "group-closure"
    size = "5 closures, 9081 elements"

    def setup(self, seed, tmpdir):
        return seed

    def run(self, seed, span):
        built = {}
        for name in ("weyl_group", "transversal_group", "local_symmetry_group",
                     "normalizer_group_332"):
            with span(f"bench.{name}"):
                built[name] = getattr(groups, name)()
        with span("bench.centralizer"):
            built["centralizer"] = groups.closure(
                [catalog.xxx(3, 3, N), catalog.zzz(3, 3, N)], cap=90)
        return built

    def check(self, seed, built):
        outcomes = []
        for name, order in E.GROUP_ORDERS.items():
            g = built.get(name)
            ok = (g is not None and g.order == order
                  and g.verify_closure(sample_size=40, seed=seed))
            if name == "transversal_group":
                ok = ok and g.set_equal(built["weyl_group"])
            outcomes.extend((f"{name}[{i}]", ok) for i in range(order))
        return outcomes


# -- state-kernels ------------------------------------------------------------

SYMMETRY_SAMPLES = 250     # apply(g, phi) on the 1944-element group
MU_SAMPLES = 100           # mu_matrix(A) on the 5832-element normalizer
REDUCTION_SAMPLES = 30     # two-site partial traces of images of phi


class StateKernels:
    """L2 kernels on seed-chosen samples; the groups are built in setup, so
    no closure runs in the timed pass.  One operation is one kernel call.
    Runnable, but not listed in BENCHMARK.json (see README.md)."""

    name = "state-kernels"
    size = (f"{SYMMETRY_SAMPLES} symmetries on the 81-amplitude state, {MU_SAMPLES} "
            f"normalizer elements, KL at d=2,3 and distance on 2 codes, "
            f"{REDUCTION_SAMPLES + 6} two-site reductions")

    def setup(self, seed, tmpdir):
        rng = random.Random(seed)
        local = groups.local_symmetry_group(N)
        normalizer = groups.normalizer_group_332(N)
        weyl = groups.weyl_group(N)
        phi_unit = catalog.ame_state(N)
        images = []
        for a in normalizer.sample(REDUCTION_SAMPLES, seed=rng.randrange(1 << 30)):
            keep = rng.choice(list(combinations(range(1, 5), 2)))
            images.append((tensor.apply(_on_last_three(a), phi_unit), keep))
        return {
            "phi": catalog.ame_state(N, normalized=False),
            "phi_unit": phi_unit,
            "codes": {"code332": catalog.code_332(N), "code442": catalog.code_442()},
            "weyl": weyl,
            "symmetries": local.sample(SYMMETRY_SAMPLES, seed=rng.randrange(1 << 30)),
            "normalizer": normalizer.sample(MU_SAMPLES, seed=rng.randrange(1 << 30)),
            "images": images,
        }

    def run(self, inp, span):
        phi, code = inp["phi"], inp["codes"]["code332"]
        out = {"apply": [], "mu": [], "kl": {}, "distance": {}, "reduction": []}
        with span("bench.apply"):
            for g in inp["symmetries"]:
                out["apply"].append(tensor.apply(g, phi))
        with span("bench.mu_matrix"):
            for a in inp["normalizer"]:
                out["mu"].append(groups.mu_matrix(a, code))
        with span("bench.kl"):
            for (name, d) in E.KL:
                out["kl"][name, d] = qecc.kl_check(inp["codes"][name], d)
            for name in E.DISTANCE:
                out["distance"][name] = qecc.distance(inp["codes"][name])
        with span("bench.partial_trace"):
            out["uniform"] = qecc.r_uniform_check(inp["phi_unit"], 2)
            for img, keep in inp["images"]:
                out["reduction"].append(tensor.partial_trace(img, keep))
        return out

    def check(self, inp, out):
        phi, weyl = inp["phi"], inp["weyl"]
        outcomes = [("apply", (v == phi) == E.SYMMETRY_FIXES_STATE) for v in out["apply"]]
        outcomes += [("mu_matrix", (m in weyl) == E.MU_IMAGE_IN_WEYL) for m in out["mu"]]
        for key, want in E.KL.items():
            rep = out["kl"].get(key)
            outcomes.append((f"kl_check{key}",
                             rep is not None and (rep.is_code, rep.is_pure) == want))
        for name, d in E.DISTANCE.items():
            outcomes.append((f"distance({name})", out["distance"].get(name) == d))
        outcomes.append(("r_uniform_check", out["uniform"].uniform == E.TWO_UNIFORM))
        want = linalg.Matrix.identity(9, N).scale(E.TWO_SITE_REDUCTION)
        outcomes += [("partial_trace", rho.mat == want) for rho in out["reduction"]]
        return outcomes


# -- user-inputs --------------------------------------------------------------

STATE_FILES = 10
CODE_FILES = 10
POINTS = 60
POINT_HEIGHT = 10 ** 8  # i12 then stays below the float range its rendering needs


def _invariants_oracle(a, b, c):
    """i6, i9, i12 at a rational point, in plain Fractions (independent of
    amecode's field arithmetic)."""
    p, q, r = a ** 3, b ** 3, c ** 3
    i6 = p * p + q * q + r * r - 10 * (p * q + p * r + q * r)
    i9 = (p - q) * (p - r) * (q - r)
    i12 = (p ** 3 * (q + r) + q ** 3 * (p + r) + r ** 3 * (p + q)
           - 4 * (p * p * q * q + p * p * r * r + q * q * r * r)
           + 2 * p * q * r * (p + q + r))
    return [{"conductor": N, "coeffs": [f"{v.numerator}/{v.denominator}"]
             + ["0/1"] * 3} for v in (i6, i9, i12)]


class UserInputs:
    """Seed-generated files and points through the CLI commands that take
    user input.  One operation is one CLI command.  Malformed inputs are
    probed after the pass and reported on their own (see `probes`)."""

    name = "user-inputs"
    size = (f"{STATE_FILES} state files, {CODE_FILES} code files, {POINTS} points "
            f"of height {POINT_HEIGHT:.0e}")

    def setup(self, seed, tmpdir):
        rng = random.Random(seed)
        tmp = Path(tmpdir)
        phi, code = catalog.ame_state(N), catalog.code_332(N)
        states, codes = [], []
        for i in range(STATE_FILES):
            image = tensor.apply(_monomial_symmetry(rng),
                                 tensor.apply(_on_last_three(_normalizer_element(rng)), phi))
            if image.norm_sq() != 1:
                raise ArithmeticError("a unitary image of phi lost its norm")
            states.append(self._write(tmp / f"state{i}.state", image))
        for i in range(CODE_FILES):
            a = _normalizer_element(rng)
            image = qecc.CodeSubspace(3, 3, [tensor.apply(a, u) for u in code.basis],
                                      claimed_d=2)
            codes.append(self._write(tmp / f"code{i}.code", image))
        points = []
        for _ in range(POINTS):
            pt = [Fraction(rng.randint(-POINT_HEIGHT, POINT_HEIGHT),
                           rng.randint(1, POINT_HEIGHT)) for _ in range(3)]
            points.append((",".join(str(x) for x in pt), _invariants_oracle(*pt)))
        inp = {"states": states, "codes": codes, "points": points, "tmp": tmp, "seed": seed}
        inp["cmds"] = self.commands(inp)
        return inp

    @staticmethod
    def _write(path, obj):
        path.write_text(serialize.dumps(obj))
        return str(path)

    def commands(self, inp):
        """(label, argv, verify) for every operation of the pass."""
        cmds = []
        for f in inp["states"] + inp["codes"]:
            want = ("state on dims (3, 3, 3, 3), conductor 12, norm^2 = 1"
                    if f in inp["states"] else "code n=3 D=3 K=3 claimed_d=2")
            cmds.append(("ingest", ["ingest", f, "--format", "json"],
                         _expect(E.INGEST_EXIT, {"valid": True, "description": want},
                                 roundtrip=f)))
        for f in inp["states"] + inp["codes"]:
            cmds.append(("correspond", ["correspond", f, "--format", "json"],
                         _expect(E.CORRESPOND_EXIT, E.CORRESPOND_FACTS)))
        for f in inp["codes"]:
            cmds.append(("code kl", ["code", "kl", "--code", f, "--distance", "2",
                                     "--format", "json"],
                         _expect(E.CODE_KL_EXIT, E.CODE_KL_FACTS)))
        for f in inp["states"]:
            cmds.append(("kempfness critical", ["kempfness", "critical", "--state", f,
                                                "--format", "json"],
                         _expect(E.KEMPFNESS_CRITICAL_EXIT, E.KEMPFNESS_CRITICAL_FACTS)))
        for point, values in inp["points"]:
            cmds.append(("invariants eval", ["invariants", "eval", f"--point={point}",
                                             "--format", "json"],
                         _expect(E.INVARIANTS_EXIT, dict(zip(("i6", "i9", "i12"), values)))))
        return cmds

    def run(self, inp, span):
        results = []
        for label, argv, _verify in inp["cmds"]:
            with span(f"bench.{label.replace(' ', '_')}"):
                results.append(cli_call(argv))
        return results

    def check(self, inp, results):
        return [(label, verify(res)) for (label, _argv, verify), res in zip(inp["cmds"], results)]

    def probes(self, inp):
        """Inputs the CLI does not handle today, kept out of the pass so that
        the workload's own operations all succeed.  Returns (label, exit code,
        expected exit code) per probe: malformed files of the kinds the
        exit-code contract says are input errors, and one valid point whose
        invariants overflow the float rendering."""
        rng = random.Random(inp["seed"])
        tmp = inp["tmp"]
        state = json.loads(Path(inp["states"][0]).read_text())
        zero_den = json.loads(json.dumps(state))
        zero_den["amps"][rng.randrange(81)]["coeffs"][rng.randrange(4)] = "1/0"
        files = {
            "zero denominator": zero_den,
            "bare-int amplitudes": dict(state, amps=[rng.randint(-9, 9) for _ in range(81)]),
            "top-level list": [rng.randint(0, 9) for _ in range(3)],
            # diag(k, 1, 1) with k > 1 has infinite order
            "infinite group": serialize.to_dict(
                [linalg.Matrix(N, [[rng.randint(2, 9), 0, 0], [0, 1, 0], [0, 0, 1]])]),
        }
        argvs = {}
        for label, data in files.items():
            path = tmp / f"malformed-{label.replace(' ', '-')}.json"
            path.write_text(json.dumps(data))
            argvs[label] = (["group", "close", "--gens", str(path), "--cap", "40"]
                            if label == "infinite group" else ["ingest", str(path)])
        argvs["code file as a state"] = ["kempfness", "critical", "--state", inp["codes"][0]]
        out = [(label, cli_call(argv)[0], E.MALFORMED_EXIT) for label, argv in argvs.items()]
        big = ",".join(f"{rng.randint(1, 10 ** 20)}/{rng.randint(1, 10 ** 20)}"
                       for _ in range(3))
        out.append(("point of height 1e20",
                    cli_call(["invariants", "eval", f"--point={big}"])[0], E.INVARIANTS_EXIT))
        return out


def _expect(exit_code, facts, roundtrip=None):
    """Verifier of one CLI result: exit code, printed facts and, for an
    ingested file, that it serializes back to the same bytes."""
    def verify(result):
        code, out, _err = result
        payload = _json(out)
        ok = (code == exit_code and isinstance(payload, dict)
              and all(payload.get(k) == v for k, v in facts.items()))
        if ok and roundtrip is not None:
            text = Path(roundtrip).read_text()
            ok = (serialize.dumps(serialize.ingest(roundtrip)) == text) == \
                E.INGEST_ROUNDTRIP_BIT_EXACT
        return ok
    return verify


WORKLOADS = {w.name: w for w in (SuiteAll(), GroupClosure(), StateKernels(), UserInputs())}
