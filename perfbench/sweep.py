"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py --workloads suite-all,user-inputs --seeds 1-10 \
        [--seconds S] [--trace 0|1] [--out perfbench/out/sweep.json]

Runs run.py once per (workload, seed), one after another, and prints for
each metric the median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median, next to the metric's bound in BENCHMARK.json.
This is how the steadiness of the benchmark is checked and how a baseline
is recorded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    report = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds,
              "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            t0 = time.monotonic()
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)],
                                  cwd=ROOT, capture_output=True, text=True)
            took = time.monotonic() - t0
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{workload} seed={seed} took={took:.1f}s correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} " + " ".join(
                      f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()
                      if k in ("wall_s", "setup_s", "trace.overhead_ratio")), flush=True)
            runs.append({"seed": seed, "took_s": took, **res})
        summary = {}
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            summary[name] = {"median": med, "q1": q1, "q3": q3, "n": len(vals),
                             "spread": spread, "unit": runs[0]["metrics"][name]["unit"]}
            bound = bounds.get(name)
            print(f"  {name:34s} median={med:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} "
                  f"spread={spread:.3f}" + (f" bound={bound}" if bound is not None else ""))
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
