"""Outside-in tracing of amecode's layers.

The tracer replaces public functions and methods of the amecode modules
with wrappers, from the benchmark's side: nothing inside the program is
changed.  A function imported by name into another module has one
reference per importing module (`apply` lives in tensor, groups, qecc and
suites), so every module attribute that refers to a traced function is
replaced, and so are the entries of `suites.SUITES`.  Class methods are
replaced on their class, aliases included (`__rmul__ = __mul__`).

Two kinds of record are kept:

* spans, for calls at layer boundaries (L2 kernels, L3 closures, L4
  checks, L5 CLI entry, the side modules): id, parent id, name, start and
  end in nanoseconds.  They are kept in memory and written out at the end.
* counters, for field and matrix arithmetic (L0/L1), which runs millions
  of times per pass: a call count and, for multiplications, inclusive
  time.  Recording a span per field operation would cost more than the
  operation itself.

A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

# Module-level functions traced as spans: (module, attribute).
SPAN_FUNCTIONS = [
    ("cli", "main"),
    ("suites", "run_suite"),
    ("groups", "closure"),
    ("groups", "mu_matrix"),
    ("groups", "weyl_group"),
    ("groups", "transversal_group"),
    ("groups", "local_symmetry_group"),
    ("groups", "normalizer_group_332"),
    ("groups", "local_symmetry_report"),
    ("groups", "verify_coset_representatives"),
    ("groups", "centralizer_containment_check"),
    ("tensor", "apply"),
    ("tensor", "partial_trace"),
    ("tensor", "orthonormalize"),
    ("qecc", "kl_check"),
    ("qecc", "distance"),
    ("qecc", "r_uniform_check"),
    ("qecc", "pauli_error_basis"),
    ("qecc", "stabilizer_subspace"),
    ("serialize", "ingest"),
    ("correspondence", "roundtrip"),
    ("correspondence", "purify_code"),
    ("correspondence", "reduce_state"),
    ("invariants", "eval_invariants"),
    ("invariants", "check_weyl_invariance"),
    ("kempfness", "is_critical"),
    ("kempfness", "norm_minimization_flow"),
    ("kempfness", "kempf_ness_inequality_test"),
    ("kempfness", "gradient_check"),
    ("kempfness", "criticality_equivalence"),
]
# Module-level functions counted (and timed) without a span.
COUNTED_FUNCTIONS = [("tensor", "inner", "tensor.inner", False)]
# Methods counted on their class: (module, class, attributes, counter, timed).
COUNTED_METHODS = [
    ("cyclo", "Cyclotomic", ("__mul__", "__rmul__"), "cyclo.mul", True),
    ("cyclo", "Cyclotomic", ("__add__", "__radd__"), "cyclo.add", False),
    ("cyclo", "Cyclotomic", ("inv",), "cyclo.inv", False),
    ("cyclo", "Cyclotomic", ("__init__",), "cyclo.new", False),
    ("linalg", "Matrix", ("__mul__",), "linalg.matmul", True),
    ("linalg", "Matrix", ("det",), "linalg.det", True),
    ("tensor", "LocalOperator", ("__mul__",), "tensor.opmul", True),
]
# Products that a closure forms: the element multiplications made while
# the innermost span is a closure and no other such multiplication is open.
ELEMENT_PRODUCTS = ("linalg.matmul", "tensor.opmul")


class Tracer:
    """Install wrappers, record spans and counters, restore on uninstall."""

    def __init__(self):
        self.spans: list[tuple] = []        # (id, parent, name, start, end)
        self.info: dict[int, dict] = {}     # extra facts per span id
        self.calls: dict[str, int] = defaultdict(int)
        self.ns: dict[str, int] = defaultdict(int)
        self._stack = [(0, "root")]
        self._next = 1
        self._elem_depth = 0
        self._restore: list[tuple] = []

    # -- spans -----------------------------------------------------------

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def _open(self, name):
        sid = self._next
        self._next += 1
        self._stack.append((sid, name))
        return sid, time.perf_counter_ns()

    def _close(self, sid, name, t0):
        t1 = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append((sid, self._stack[-1][0], name, t0, t1))

    def _span_wrapper(self, name, fn):
        post = _POST.get(name)
        if post is None and name.startswith("suites.check_"):
            post = _check_facts
        tracer = self

        def traced(*args, **kwargs):
            first = len(tracer.spans)
            sid, t0 = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, name, t0)
            if post is not None:
                tracer.info[sid] = post(tracer, sid, first, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters --------------------------------------------------------

    def _counter_wrapper(self, counter, fn, timed):
        calls, ns = self.calls, self.ns
        clock = time.perf_counter_ns
        if counter in ELEMENT_PRODUCTS:
            tracer = self

            def counted(*args, **kwargs):
                calls[counter] += 1
                if tracer._elem_depth == 0 and tracer._stack[-1][1] == "groups.closure":
                    calls["groups.closure_products"] += 1
                tracer._elem_depth += 1
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    ns[counter] += clock() - t0
                    tracer._elem_depth -= 1
        elif timed:
            def counted(*args, **kwargs):
                calls[counter] += 1
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    ns[counter] += clock() - t0
        else:
            def counted(*args, **kwargs):
                calls[counter] += 1
                return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        """Wrap every reference to the traced functions in the loaded
        amecode modules, and the counted methods on their classes."""
        mods = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                if name.startswith("amecode.") and mod is not None}
        wrappers = {}
        for modname, attr in SPAN_FUNCTIONS:
            fn = getattr(mods[modname], attr)
            wrappers[id(fn)] = (fn, self._span_wrapper(f"{modname}.{attr}", fn))
        for modname, attr, counter, timed in COUNTED_FUNCTIONS:
            fn = getattr(mods[modname], attr)
            wrappers[id(fn)] = (fn, self._counter_wrapper(counter, fn, timed))
        suites = mods["suites"]
        for fn in suites.SUITES["all"]:
            wrappers[id(fn)] = (fn, self._span_wrapper(f"suites.{fn.__name__}", fn))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                fn, w = wrappers.get(id(value), (None, None))
                if fn is value:
                    self._set(mod, attr, w)
        for lst in suites.SUITES.values():
            for i, value in enumerate(lst):
                fn, w = wrappers.get(id(value), (None, None))
                if fn is value:
                    self._restore.append((lst, i, value))
                    lst[i] = w
        for modname, clsname, attrs, counter, timed in COUNTED_METHODS:
            cls = getattr(mods[modname], clsname)
            shared = {}
            for attr in attrs:
                fn = cls.__dict__[attr]
                if id(fn) not in shared:
                    shared[id(fn)] = self._counter_wrapper(counter, fn, timed)
                self._set(cls, attr, shared[id(fn)])

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            if isinstance(key, int):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, int]:
        """Total self time per span name, in nanoseconds."""
        child = defaultdict(int)
        for _sid, parent, _name, t0, t1 in self.spans:
            child[parent] += t1 - t0
        out = defaultdict(int)
        for sid, _parent, name, t0, t1 in self.spans:
            out[name] += t1 - t0 - child[sid]
        return dict(out)

    def metrics(self, check_names) -> dict[str, float]:
        """The per-layer metrics of one traced pass (cache ratio and
        overhead are added by the caller).  A time is the total duration of
        a function's spans that are not nested in a span of the same name."""
        by_name = defaultdict(list)
        for s in self.spans:
            by_name[s[2]].append(s)
        name_of = {s[0]: s[2] for s in self.spans}
        parent_of = {s[0]: s[1] for s in self.spans}

        def nested(sid, name):
            p = parent_of[sid]
            while p and name_of[p] != name:
                p = parent_of[p]
            return bool(p)

        def secs(name):
            return sum(s[4] - s[3] for s in by_name[name] if not nested(s[0], name)) / 1e9

        def count(name):
            return len(by_name[name])

        def facts(name, key):
            return sum(self.info[s[0]][key] for s in by_name[name] if s[0] in self.info)

        c, ns = self.calls, self.ns
        applies = sorted(s[4] - s[3] for s in by_name["tensor.apply"])
        products = facts("groups.closure", "products")
        m = {
            "cyclo.mul_calls": c["cyclo.mul"],
            "cyclo.add_calls": c["cyclo.add"],
            "cyclo.inv_calls": c["cyclo.inv"],
            "cyclo.new_calls": c["cyclo.new"],
            "cyclo.mul_s": ns["cyclo.mul"] / 1e9,
            "linalg.matmul_calls": c["linalg.matmul"],
            "linalg.matmul_s": ns["linalg.matmul"] / 1e9,
            "linalg.det_s": ns["linalg.det"] / 1e9,
            "tensor.opmul_calls": c["tensor.opmul"],
            "tensor.opmul_s": ns["tensor.opmul"] / 1e9,
            "tensor.apply_calls": len(applies),
            "tensor.apply_s": secs("tensor.apply"),
            "tensor.apply_p50_ms": _percentile(applies, 0.50) / 1e6,
            "tensor.apply_p99_ms": _percentile(applies, 0.99) / 1e6,
            "tensor.inner_calls": c["tensor.inner"],
            "tensor.partial_trace_s": secs("tensor.partial_trace"),
            "groups.closure_calls": count("groups.closure"),
            "groups.closure_s": secs("groups.closure"),
            "groups.closure_elements": facts("groups.closure", "order"),
            "groups.closure_products": products,
            "groups.closure_dup_ratio": (facts("groups.closure", "duplicates") / products
                                         if products else 0.0),
            "groups.mu_matrix_calls": count("groups.mu_matrix"),
            "groups.mu_matrix_s": secs("groups.mu_matrix"),
            "qecc.kl_check_calls": count("qecc.kl_check"),
            "qecc.kl_check_s": secs("qecc.kl_check"),
            "qecc.errors_swept": facts("qecc.kl_check", "errors_swept"),
            "qecc.distance_calls": count("qecc.distance"),
            "serialize.ingest_calls": count("serialize.ingest"),
            "serialize.ingest_s": secs("serialize.ingest"),
            "correspondence.roundtrip_s": secs("correspondence.roundtrip"),
            "invariants.eval_calls": count("invariants.eval_invariants"),
            "invariants.eval_s": secs("invariants.eval_invariants"),
            "kempfness.flow_calls": count("kempfness.norm_minimization_flow"),
            "kempfness.flow_iters": facts("kempfness.norm_minimization_flow", "iterations"),
            "kempfness.flow_s": secs("kempfness.norm_minimization_flow"),
            "kempfness.inequality_s": secs("kempfness.kempf_ness_inequality_test"),
            "cli.main_calls": count("cli.main"),
            "cli.main_s": secs("cli.main"),
        }
        by_check = defaultdict(int)
        for sid, _parent, _name, t0, t1 in self.spans:
            check = self.info.get(sid, {}).get("check")
            if check:
                by_check[check] += t1 - t0
        for name in check_names:
            m[f"suites.{name}_s"] = by_check[name] / 1e9
        return m

    def dump(self) -> dict:
        return {"spans": self.spans, "info": {str(k): v for k, v in self.info.items()},
                "self_ns": self.self_times(), "calls": dict(self.calls),
                "counter_ns": dict(self.ns)}


class _Span:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.sid, self.t0 = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.sid, self.name, self.t0)
        return False


def _percentile(sorted_values, q):
    """Nearest-rank percentile; 0 for no values."""
    if not sorted_values:
        return 0.0
    return float(sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)])


# -- facts read from a traced call's arguments and result -------------------


def _closure_facts(tracer, sid, first, args, kwargs, group):
    # Elements not formed by a product are the distinct non-identity
    # generators; the identity itself is formed by gens[0] * gens[0].inv().
    direct = len(set(group.generators) - {group.elements[0]})
    products = tracer.calls.pop("groups.closure_products", 0)
    return {"order": group.order, "generators": len(group.generators),
            "products": products, "duplicates": products - (group.order - direct)}


def _kl_facts(tracer, sid, first, args, kwargs, report):
    code = args[0] if args else kwargs["code"]
    applies = sum(1 for s in tracer.spans[first:] if s[1] == sid and s[2] == "tensor.apply")
    return {"errors_swept": applies // len(code.basis), "d": report.distance}


def _flow_facts(tracer, sid, first, args, kwargs, report):
    return {"iterations": report.iterations}


def _check_facts(tracer, sid, first, args, kwargs, result):
    return {"check": result.name, "passed": result.passed}


_POST = {"groups.closure": _closure_facts,
         "qecc.kl_check": _kl_facts,
         "kempfness.norm_minimization_flow": _flow_facts}
