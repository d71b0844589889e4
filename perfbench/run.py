"""amecode benchmark: time to verdict on four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: suite-all, group-closure,
state-kernels, user-inputs (see workloads.py and BENCHMARK.json).

For --seconds S the runner starts one fresh single-threaded child process
per sample, one after another, and starts another only while it is
expected to end within S seconds (always at least one).  Each child sets
up its inputs from the seed, runs one timed pass, checks every outcome
against expected.py and reports.  Extra set-up-only children are started
until set-up time has MIN_SETUPS samples.

--trace 0 prints the end-to-end metrics of BENCHMARK.json: the median over
the run's samples (quartiles and the sample count on the lines above).
--trace 1 alternates untraced and traced children and prints the
per-layer metrics, each the median over the traced children, and the
tracing overhead.  Spans go to perfbench/out/trace-<workload>-seed<N>.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 2 means the benchmark
could not run (for example, no amecode source next to it).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("suite-all", "group-closure", "state-kernels", "user-inputs")
MIN_SETUPS = 5
RUN_LIMIT_S = 170.0  # no child outlives this many seconds from the start
CHILD_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1",
             "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class RunError(RuntimeError):
    pass


def spawn(workload, seed, deadline, setup_only=False, trace=False) -> dict:
    t0 = time.monotonic()
    argv = [sys.executable, str(HERE / "child.py"), "--workload", workload,
            "--seed", str(seed), "--spawn-ns", str(time.monotonic_ns())]
    argv += ["--setup-only"] if setup_only else []
    argv += ["--trace"] if trace else []
    try:
        proc = subprocess.run(argv, cwd=ROOT, env={**os.environ, **CHILD_ENV},
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise RunError(f"{workload} child passed the {RUN_LIMIT_S:.0f} s limit") from None
    if proc.returncode != 0:
        raise RunError(f"{workload} child exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["elapsed"] = time.monotonic() - t0
    return res


def collect(workload, seed, seconds, trace) -> tuple[list, list, list]:
    """Run children until the time is used; returns untraced passes, traced
    passes and set-up times."""
    start = time.monotonic()
    end, deadline = start + seconds, start + RUN_LIMIT_S
    plain, traced, setups = [], [], []
    longest = {False: 0.0, True: 0.0}
    want_trace = False
    while True:
        enough = plain and (traced or not trace)
        if enough and time.monotonic() + longest[want_trace] > end:
            break
        res = spawn(workload, seed, deadline, trace=want_trace)
        longest[want_trace] = max(longest[want_trace], res["elapsed"])
        (traced if want_trace else plain).append(res)
        setups.append(res)
        want_trace = trace and not want_trace
    longest_setup = max(s["setup_raw_s"] for s in setups)
    while len(setups) < MIN_SETUPS and time.monotonic() + longest_setup <= end:
        setups.append(spawn(workload, seed, deadline, setup_only=True))
    return plain, traced, setups


def summary(values) -> dict:
    values = sorted(values)
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def declared_metrics(trace) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "amecode" / "__init__.py").is_file():
        print(f"error: no amecode source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    load0 = os.getloadavg()
    try:
        plain, traced, setups = collect(args.workload, args.seed, args.seconds, args.trace)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    children = plain + traced
    attempted = sum(c["ops"] for c in children)
    failed = sum(c["failed"] for c in children)
    env = children[0]["env"]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} passes={len(plain)} traced_passes={len(traced)} "
          f"setups={len(setups)}")
    print(f"input size: {children[0]['size']}")
    print(f"env nproc={os.cpu_count()} python={env['python']} numpy={env['numpy']} "
          f"blas_threads={env['blas_threads']} PYTHONHASHSEED={env['pythonhashseed']} "
          f"loadavg_start={'/'.join(f'{x:.2f}' for x in load0)} "
          f"loadavg_end={'/'.join(f'{x:.2f}' for x in os.getloadavg())}")

    stats = {
        "wall_s": summary([c["wall_s"] for c in plain]),
        "cpu_s": summary([c["cpu_s"] for c in plain]),
        "ops_per_s": summary([c["ops"] / c["wall_s"] for c in plain]),
        "setup_s": summary([s["setup_s"] for s in setups]),
        "peak_rss_mb": summary([c["peak_rss_mb"] for c in plain]),
    }
    raw = {
        "wall_s": summary([c["wall_raw_s"] for c in plain]),
        "cpu_s": summary([c["cpu_raw_s"] for c in plain]),
        "ops_per_s": summary([c["ops"] / c["wall_raw_s"] for c in plain]),
        "setup_s": summary([s["setup_raw_s"] for s in setups]),
    }
    ops = {c["ops"] for c in plain}
    print("times in reference seconds (speed.py), raw seconds in brackets")
    for name, s in stats.items():
        line = (f"{name:12s} median={s['median']:.6g} q1={s['q1']:.6g} q3={s['q3']:.6g} "
                f"n={s['n']}")
        if name in raw:
            r = raw[name]
            line += f"  [raw median={r['median']:.6g} q1={r['q1']:.6g} q3={r['q3']:.6g}]"
        print(line)
    snippet = summary([c["snippet_ns"] / 1e3 for c in plain])
    print(f"reference snippet during passes: median={snippet['median']:.4g} us "
          f"q1={snippet['q1']:.4g} q3={snippet['q3']:.4g} (reference speed: 25 us)")
    print(f"ops_per_pass={'/'.join(map(str, sorted(ops)))} "
          f"fail_ratio={failed}/{attempted}={failed / attempted:.6g}")
    for c in children:
        if c["failures"]:
            print(f"failed operations: {', '.join(c['failures'])}")
    deterministic = True
    shas = {c["extra"]["report_sha256"] for c in children if "extra" in c}
    if shas:
        deterministic = len(shas) == 1
        print(f"report_sha256={'/'.join(sorted(shas))} (elapsed stripped; "
              f"{'identical' if deterministic else 'DIFFERS'} across {len(children)} passes)")
    if children[0].get("probes"):
        probes = children[0]["probes"]
        bad = sum(1 for _, code, want in probes if code != want)
        for label, code, want in probes:
            print(f"probe {label!r}: exit {code}, expected {want}")
        print(f"probe_fail_ratio={bad}/{len(probes)} (outside the workload's operations)")

    if args.trace:
        values = {}
        for name in traced[0]["layers"]:
            values[name] = statistics.median(c["layers"][name] for c in traced)
        values["trace.overhead_ratio"] = (statistics.median(c["wall_s"] for c in traced)
                                          / stats["wall_s"]["median"])
        selfs = {}
        for c in traced:
            for name, ns in c["self_ns"].items():
                selfs.setdefault(name, []).append(ns)
        top = sorted(selfs.items(), key=lambda kv: -statistics.median(kv[1]))[:12]
        print("self time (median over traced passes): " + ", ".join(
            f"{name}={statistics.median(v) / 1e9:.4g}s" for name, v in top))
        print(f"spans: {traced[-1]['trace_file']}")
    else:
        values = {name: s["median"] for name, s in stats.items()}

    declared = declared_metrics(args.trace)
    names = {m["name"] for m in declared}
    if names != set(values):
        print(f"error: metrics differ from BENCHMARK.json: "
              f"missing {sorted(names - set(values))}, undeclared {sorted(set(values) - names)}",
              file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": failed == 0 and deterministic, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
