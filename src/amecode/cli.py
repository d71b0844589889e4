"""Command-line interface.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage,
input or I/O error (a `group close` that exceeds its `--cap` included).
Only `group close` takes a cap: it closes generators from a file, while
the paper's groups are built under fixed caps.  Only `suite` takes a
seed, a non-negative integer checked when the arguments are parsed; no
command takes a conductor, since every exact object the suites and the
`group verify-*` and `invariants eval` commands build lives in the field
of `suites.CONDUCTOR`.  Each `group verify-*` command prints its suite
check, so every verdict is decided once, in `suites`.  Reports are
printed as text by default or JSON with --format json; --out writes
either format to a file instead of stdout.

`main` parses with one parser per process, built by `build_parser` on the
first call: `parse_args` returns a fresh namespace and argparse makes its
help formatters at call time, so reusing the parser changes no output.
The subcommand handlers are bound when the parser is built, so replacing
a `cmd_*` function after the first `main` call has no effect.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict
from fractions import Fraction
from functools import cache

from . import serialize
from .correspondence import roundtrip
from .groups import ClosureCapExceeded, closure
from .invariants import CartanPoint, eval_invariants
from .kempfness import from_exact, is_critical, norm_minimization_flow
from .linalg import Matrix
from .qecc import CodeSubspace, kl_check
from .suites import (CONDUCTOR, SUITES, check_coset_representatives, check_local_symmetry,
                     check_weyl_order, run_suite)
from .tensor import LocalOperator, PureState


def _emit(payload: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(payload, indent=1, sort_keys=True, default=str) + "\n"
    else:
        text = _as_text(payload)
    _write(text, args)


def _write(text: str, args) -> None:
    """The one output path: the file named by --out, else stdout."""
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
    report = run_suite(args.name, args.seed)
    d = report.to_dict()
    if args.format == "json":
        _emit(d, args)
        return report.exit_status
    lines = []
    for c in d["checks"]:
        lines.append(f"{c['status'].upper():4s} {c['name']} ({c['elapsed']:.2f}s)")
        if c["status"] == "fail":
            lines.append(f"     expected: {c['expected']}")
            lines.append(f"     actual:   {c['actual']}")
    lines.append(f"suite {report.suite}: {'PASS' if report.passed else 'FAIL'}")
    _write("\n".join(lines) + "\n", args)
    return report.exit_status


def _ingest_as(path, kinds, expected: str):
    """The object in the file at path, which must be one of kinds; any
    other object is an input error."""
    obj = serialize.ingest(path)
    if not isinstance(obj, kinds):
        raise serialize.IngestError(
            f"{path}: expected {expected}, got {serialize.describe(obj)}")
    return obj


def cmd_ingest(args) -> int:
    obj = serialize.ingest(args.file)
    _emit({"file": args.file, "valid": True,
           "description": serialize.describe(obj)}, args)
    return 0


def cmd_correspond(args) -> int:
    rep = roundtrip(_ingest_as(args.file, (PureState, CodeSubspace), "a state or a code"))
    _emit(asdict(rep), args)
    return 0 if rep.roundtrip_exact else 1


def cmd_code(args) -> int:
    code = _ingest_as(args.code, CodeSubspace, "a code")
    rep = kl_check(code, args.distance)
    _emit({"parameters": {"n": code.n_sites, "K": code.dimension,
                          "d": rep.distance, "D": code.local_dim},
           "is_code": rep.is_code,
           "is_pure": rep.is_pure,
           "violations": [{"error_label": label, "i": i, "j": j,
                           "value": serialize.scalar_to_dict(val)}
                          for label, i, j, val in rep.violations]}, args)
    return 0 if rep.is_code else 1


def cmd_group(args) -> int:
    if args.group_cmd == "close":
        gens = _ingest_as(args.gens, (Matrix, LocalOperator, list),
                          "matrices or product operators")
        if not isinstance(gens, list):
            gens = [gens]
        _emit({"generators": len(gens), "order": closure(gens, cap=args.cap).order}, args)
        return 0
    # each verification prints its suite check, so the verdict has one
    # source; none of the three draws a sample, so the seed is unused
    check = {"verify-weyl": check_weyl_order, "verify-local-symmetry": check_local_symmetry,
             "verify-cosets": check_coset_representatives}[args.group_cmd]
    result = check(0)
    _emit({"name": result.name, "passed": result.passed,
           "expected": result.expected, "actual": result.actual}, args)
    return 0 if result.passed else 1


# Python's int-to-string limit, which file coefficients meet too: a point
# coordinate may have at most this many digits and a decimal exponent of at
# most this size, checked before the Fraction, whose size the exponent sets;
# every integer the report writes is checked against it before writing
_POINT_DIGITS = 4300
_TOO_LONG = 10 ** _POINT_DIGITS  # the least integer with more digits
_EXPONENT = re.compile(r"[eE](?P<exp>[-+]?\d+(?:_\d+)*)\s*\Z")  # as Fraction reads it


def _rational(text: str) -> Fraction:
    exponent = _EXPONENT.search(text)
    if (sum(c.isdigit() for c in text) > _POINT_DIGITS
            or (exponent and abs(int(exponent["exp"])) > _POINT_DIGITS)):
        raise ValueError(f"--point: {text!r} has more than {_POINT_DIGITS} digits "
                         f"or a decimal exponent beyond {_POINT_DIGITS}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"--point: zero denominator in {text!r}") from None


def cmd_invariants(args) -> int:
    parts = args.point.split(",")
    if len(parts) != 3:
        raise ValueError("--point needs three comma-separated rationals a,b,c")
    coords = [_rational(p) for p in parts]
    t = eval_invariants(CartanPoint.of(CONDUCTOR, *coords))
    written = [(repr(p), (c.numerator, c.denominator)) for p, c in zip(parts, coords)]
    written += [(name, (v.den, *v.coeffs)) for name, v in zip(t._fields, t)]
    for name, ints in written:
        if any(abs(k) >= _TOO_LONG for k in ints):
            raise ValueError(f"--point: {name} has a numerator or denominator of more "
                             f"than {_POINT_DIGITS} digits")
    _emit({"point": [str(c) for c in coords],
           "i6": serialize.scalar_to_dict(t.i6), "i9": serialize.scalar_to_dict(t.i9),
           "i12": serialize.scalar_to_dict(t.i12),
           "i6_float": str(t.i6.to_complex()),
           "i9_float": str(t.i9.to_complex()),
           "i12_float": str(t.i12.to_complex())}, args)
    return 0


def cmd_kempfness(args) -> int:
    state = from_exact(_ingest_as(args.file, PureState, "a state"))
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


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


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
    s.add_argument("--seed", type=_seed, default=0)
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
    for name in ("verify-weyl", "verify-local-symmetry", "verify-cosets"):
        g.add_parser(name, parents=[common])
    s.set_defaults(fn=cmd_group)

    s = sub.add_parser("invariants", help="evaluate the invariants")
    g = s.add_subparsers(dest="inv_cmd", required=True)
    e = g.add_parser("eval", parents=[common])
    e.add_argument("--point", required=True, help="a,b,c as rationals")
    s.set_defaults(fn=cmd_invariants)

    s = sub.add_parser("kempfness", help="criticality tests and the norm flow")
    g = s.add_subparsers(dest="kn_cmd", required=True)
    c = g.add_parser("critical", parents=[common])
    c.add_argument("--state", dest="file", required=True)
    c.add_argument("--tol", type=float, default=1e-8)
    f = g.add_parser("flow", parents=[common])
    f.add_argument("--state", dest="file", required=True)
    f.add_argument("--iters", type=int, default=5000)
    f.add_argument("--tol", type=float, default=1e-7)
    s.set_defaults(fn=cmd_kempfness)
    return p


@cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (serialize.IngestError, OSError, ValueError, KeyError,
            ClosureCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
