"""One workload process: set up, run one timed pass, check it, report.

    python3 perfbench/child.py --workload NAME --seed N --spawn-ns T [--setup-only] [--trace]

run.py starts one of these per sample, so every pass pays for filling
amecode's process-wide caches as a CLI user does.  T is the
CLOCK_MONOTONIC time (ns) at which run.py started the process; set-up runs
from there until the inputs are ready.  Times are reported raw and at the
reference speed (speed.py).  The last line of standard output is one JSON
object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"


def _import_amecode():
    """Import the amecode of this checkout, never an installed one."""
    sys.path.insert(0, str(ROOT / "src"))
    import amecode
    if Path(amecode.__file__).resolve().parent != ROOT / "src" / "amecode":
        raise SystemExit(f"imported amecode from {amecode.__file__}, not {ROOT / 'src'}")


def _blas_threads():
    """OpenBLAS's thread count as numpy's bundled library reports it, or -1."""
    import ctypes
    import glob
    import numpy
    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return -1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    from speed import SpeedProbe
    probe = SpeedProbe()
    probe.start()
    _import_amecode()
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        inputs = wl.setup(args.seed, tmp)
        ready = time.monotonic_ns()
        result = {}
        if not args.setup_only:
            result.update(_timed_pass(wl, inputs, args, probe))
        else:
            probe.stop()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result["setup_raw_s"], result["setup_s"] = probe.measure(args.spawn_ns, ready)
    print(json.dumps(result), file=sys.__stdout__, flush=True)
    return 0


def _no_span(name):
    return nullcontext()


def _timed_pass(wl, inputs, args, probe) -> dict:
    import expected
    import numpy
    from amecode import tensor

    tracer = None
    span = _no_span
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        span = tracer.span
        cache0 = tensor._canon_mul.cache_info()
        tracer.install()
    first = len(probe.samples)
    cpu0, wall0 = time.process_time(), time.monotonic_ns()
    try:
        raw = wl.run(inputs, span)
    finally:
        wall1, cpu1 = time.monotonic_ns(), time.process_time()
        probe.stop()
        if tracer is not None:
            tracer.uninstall()
    in_pass = probe.samples[first:-1]
    wall_raw, wall = probe.measure(wall0, wall1)
    cpu_raw = cpu1 - cpu0 - sum(d for _, d in in_pass) / 1e9
    outcomes = wl.check(inputs, raw)
    failures = [label for label, ok in outcomes if not ok]
    out = {
        "wall_raw_s": wall_raw,
        "wall_s": wall,
        "cpu_raw_s": cpu_raw,
        "cpu_s": cpu_raw * wall / wall_raw,
        "snippet_ns": statistics.median(d for _, d in probe.samples[first:]),
        "ops": len(outcomes),
        "size": wl.size,
        "failed": len(failures),
        "failures": sorted(set(failures))[:10],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "blas_threads": _blas_threads(),
                "pythonhashseed": os.environ.get("PYTHONHASHSEED")},
    }
    if hasattr(wl, "extra"):
        out["extra"] = wl.extra(inputs, raw)
    if hasattr(wl, "probes"):
        out["probes"] = wl.probes(inputs)
    if tracer is not None:
        cache1 = tensor._canon_mul.cache_info()
        hits, misses = cache1.hits - cache0.hits, cache1.misses - cache0.misses
        layers = tracer.metrics(list(expected.SUITE_CHECKS))
        layers["tensor.canon_mul_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["layers"] = layers
        out["self_ns"] = tracer.self_times()
        OUT.mkdir(parents=True, exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          **tracer.dump()}))
        out["trace_file"] = str(trace_file.relative_to(ROOT))
    return out


if __name__ == "__main__":
    sys.exit(main())
