"""Command-line interface.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
I/O error.  Reports are printed as text by default or JSON with --format
json; --out writes to a file instead of stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from fractions import Fraction

from . import serialize
from .suites import SUITES, SuiteContext, run_suite


def _emit(payload: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(payload, indent=1, sort_keys=True, default=str) + "\n"
    else:
        text = _as_text(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _as_text(payload, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(payload, dict):
        lines = []
        for k, v in payload.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.append(_as_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
        return "\n".join(lines) + ("\n" if indent == 0 else "")
    if isinstance(payload, list):
        return "\n".join(_as_text(v, indent) if isinstance(v, (dict, list))
                         else f"{pad}- {v}" for v in payload)
    return f"{pad}{payload}"


def cmd_suite(args) -> int:
    ctx = SuiteContext(conductor=args.conductor, seed=args.seed, cap=args.cap)
    report = run_suite(args.name, ctx)
    d = report.to_dict()
    if args.format == "text":
        for c in d["checks"]:
            line = f"{c['status'].upper():4s} {c['name']} ({c['elapsed']:.2f}s)"
            print(line)
            if c["status"] == "fail":
                print(f"     expected: {c['expected']}")
                print(f"     actual:   {c['actual']}")
        print(f"suite {report.suite}: {'PASS' if report.passed else 'FAIL'}")
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(d, fh, indent=1, sort_keys=True)
                fh.write("\n")
    else:
        _emit(d, args)
    return report.exit_status


def cmd_ingest(args) -> int:
    obj = serialize.ingest(args.file)
    _emit({"file": args.file, "valid": True,
           "description": serialize.describe(obj)}, args)
    return 0


def cmd_correspond(args) -> int:
    from .correspondence import roundtrip
    obj = serialize.ingest(args.file)
    rep = roundtrip(obj)
    _emit(asdict(rep), args)
    return 0 if rep.roundtrip_exact else 1


def cmd_code(args) -> int:
    from .qecc import kl_check
    code = serialize.ingest(args.code)
    rep = kl_check(code, args.distance)
    _emit(rep.to_dict(code), args)
    return 0 if rep.is_code else 1


def cmd_group(args) -> int:
    from . import catalog
    from .groups import closure, local_symmetry_report, verify_coset_representatives, weyl_group

    if args.group_cmd == "close":
        gens = serialize.ingest(args.gens)
        if not isinstance(gens, list):
            gens = [gens]
        g = closure(gens, cap=args.cap)
        _emit({"generators": len(gens), "order": g.order,
               "closure_verified": g.verify_closure(seed=args.seed)}, args)
        return 0
    if args.group_cmd == "verify-weyl":
        w = weyl_group(args.conductor, cap=args.cap or 6480)
        printed = catalog.weyl_generator_matrices(args.conductor)
        from .groups import weyl_generators
        match = all(a == b for a, b in zip(weyl_generators(args.conductor), printed))
        ok = w.order == 648 and match
        _emit({"order": w.order, "expected_order": 648,
               "generator_entries_match": match, "passed": ok}, args)
        return 0 if ok else 1
    if args.group_cmd == "verify-local-symmetry":
        rep = local_symmetry_report(args.conductor, seed=args.seed)
        ok = rep.operator_order == 5832
        _emit({**asdict(rep), "expected_operator_order": 5832,
               "orders_consistent": rep.orders_consistent, "passed": ok}, args)
        return 0 if ok else 1
    if args.group_cmd == "verify-cosets":
        rep = verify_coset_representatives(n=args.conductor)
        _emit(asdict(rep), args)
        return 0 if rep.ok else 1
    raise KeyError(args.group_cmd)


def cmd_invariants(args) -> int:
    from .invariants import CartanPoint, check_weyl_invariance, eval_invariants
    from .groups import weyl_generators

    if args.inv_cmd == "eval":
        parts = args.point.split(",")
        if len(parts) != 3:
            raise ValueError("--point needs three comma-separated rationals a,b,c")
        coords = [Fraction(p) for p in parts]
        p = CartanPoint.of(args.conductor, *coords)
        t = eval_invariants(p)
        _emit({"point": [str(c) for c in coords],
               "i6": t.i6.to_dict(), "i9": t.i9.to_dict(), "i12": t.i12.to_dict(),
               "i6_float": str(t.i6.to_complex()),
               "i9_float": str(t.i9.to_complex()),
               "i12_float": str(t.i12.to_complex())}, args)
        return 0
    if args.inv_cmd == "check-weyl":
        results = [check_weyl_invariance(g, trials=args.trials, seed=args.seed + i)
                   for i, g in enumerate(weyl_generators(args.conductor))]
        _emit({"trials": args.trials, "generators_invariant": results,
               "passed": all(results)}, args)
        return 0 if all(results) else 1
    raise KeyError(args.inv_cmd)


def cmd_kempfness(args) -> int:
    from .kempfness import FloatState, is_critical, norm_minimization_flow

    obj = serialize.ingest(args.file)
    state = FloatState.from_exact(obj)
    if args.kn_cmd == "critical":
        rep = is_critical(state, tol=args.tol)
        _emit(asdict(rep), args)
        return 0 if rep.critical else 1
    if args.kn_cmd == "flow":
        rep = norm_minimization_flow(state, max_iters=args.iters, tol=args.tol)
        d = asdict(rep)
        d["norm_trace"] = d["norm_trace"][:10] + (
            ["..."] if len(rep.norm_trace) > 10 else [])
        d["monotone"] = rep.monotone
        _emit(d, args)
        return 0 if rep.converged else 1
    raise KeyError(args.kn_cmd)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--out", help="write the report to this file")

    p = argparse.ArgumentParser(
        prog="amecode",
        description="Exact verification suites for the four-qutrit perfect "
                    "tensor, its three-qutrit code, and their symmetry groups.")
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("suite", help="run a named verification suite", parents=[common])
    s.add_argument("name", choices=sorted(SUITES))
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--conductor", type=int, default=12)
    s.add_argument("--cap", type=int, default=None)
    s.set_defaults(fn=cmd_suite)

    s = sub.add_parser("ingest", help="validate and describe a data file", parents=[common])
    s.add_argument("file")
    s.set_defaults(fn=cmd_ingest)

    s = sub.add_parser("correspond", help="round-trip a state or code file", parents=[common])
    s.add_argument("file")
    s.set_defaults(fn=cmd_correspond)

    s = sub.add_parser("code", help="error-correction checks on a code file")
    g = s.add_subparsers(dest="code_cmd", required=True)
    c = g.add_parser("kl", parents=[common])
    c.add_argument("--code", required=True)
    c.add_argument("--distance", type=int, default=2)
    s.set_defaults(fn=cmd_code)

    s = sub.add_parser("group", help="group closures and verifications")
    g = s.add_subparsers(dest="group_cmd", required=True)
    c = g.add_parser("close", parents=[common])
    c.add_argument("--gens", required=True)
    c.add_argument("--cap", type=int, default=100000)
    c.add_argument("--seed", type=int, default=0)
    for name in ("verify-weyl", "verify-local-symmetry", "verify-cosets"):
        v = g.add_parser(name, parents=[common])
        v.add_argument("--cap", type=int, default=None)
        v.add_argument("--seed", type=int, default=0)
        v.add_argument("--conductor", type=int, default=12)
    s.set_defaults(fn=cmd_group)

    s = sub.add_parser("invariants", help="evaluate or test the invariants")
    g = s.add_subparsers(dest="inv_cmd", required=True)
    e = g.add_parser("eval", parents=[common])
    e.add_argument("--point", required=True, help="a,b,c as rationals")
    e.add_argument("--conductor", type=int, default=12)
    c = g.add_parser("check-weyl", parents=[common])
    c.add_argument("--trials", type=int, default=50)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--conductor", type=int, default=12)
    s.set_defaults(fn=cmd_invariants)

    s = sub.add_parser("kempfness", help="criticality tests and the norm flow")
    g = s.add_subparsers(dest="kn_cmd", required=True)
    c = g.add_parser("critical", parents=[common])
    c.add_argument("--state", dest="file", required=True)
    c.add_argument("--tol", type=float, default=1e-8)
    f = g.add_parser("flow", parents=[common])
    f.add_argument("--state", dest="file", required=True)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--iters", type=int, default=5000)
    f.add_argument("--tol", type=float, default=1e-7)
    s.set_defaults(fn=cmd_kempfness)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (serialize.IngestError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
