"""Span recording around gaussmanin's public functions, for the traced run.

`Tracer.install` wraps each function named in `FUNCTIONS` under every name a
caller looks it up by (module globals bound with `from .x import f`, and
methods patched on their class), so nothing inside gaussmanin changes.
A span is (name, start, end, parent, job, error); spans and counters stay in
memory inside the job's process and are handed back when the job ends.
`layer_metrics` turns the spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# span name -> (module, attribute) pairs the wrapper replaces.  A class
# method is given as "Class.method" on the class's module.
FUNCTIONS = {
    "engine.analyze": [("engine", "analyze"), ("cli", "analyze"),
                       ("intdep", "analyze"), ("critical", "analyze")],
    "engine.build_operator": [("engine", "build_operator"), ("cli", "build_operator"),
                              ("selftest", "build_operator")],
    "abalgebra.chain_expand": [("abalgebra", "HomogChain.expand")],
    "abalgebra.mul": [("abalgebra", "ABElement.__mul__")],
    "abalgebra.right_divide": [("abalgebra", "right_divide"), ("factor", "right_divide"),
                               ("selftest", "right_divide")],
    "ode.euler_export": [("ode", "to_differential_operator"),
                         ("cli", "to_differential_operator")],
    "ode.euler_form": [("ode", "euler_form")],
    "ode.euler_to_diffop": [("ode", "euler_to_diffop")],
    "ode.bernstein_polynomial": [("ode", "bernstein_polynomial"),
                                 ("factor", "bernstein_polynomial")],
    "factor.pipeline": [("factor", "regular_quotient_pipeline"),
                        ("cli", "regular_quotient_pipeline")],
    "factor.hensel_lift": [("factor", "hensel_decompose")],
    "factor.split_irregular": [("factor", "split_irregular")],
    "scalars.coprime_split": [("scalars", "coprime_split")],
    "scalars.bezout": [("scalars", "bezout"), ("factor", "bezout")],
    "intdep.expand": [("intdep", "dependence_relation"), ("cli", "dependence_relation")],
    "intdep.verify": [("intdep", "verify_identity"), ("cli", "verify_identity")],
    "critical.critical_values": [("critical", "critical_values"), ("cli", "critical_values")],
    "cli.to_json": [("engine", "RelationData.to_json"), ("engine", "GMOperator.to_json"),
                    ("ode", "DiffOp.to_json"), ("factor", "PipelineReport.to_json"),
                    ("intdep", "DependenceRelation.to_json"),
                    ("critical", "CriticalReport.to_json")],
}

LAURENT_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__neg__", "__truediv__", "__pow__")

ROOT_SPAN = {"cli": "cli.main", "library": "library.call"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._job = None

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._job, False])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, failed: bool) -> None:
        self._stack.pop()
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = failed

    def wrap(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx, True)
                raise
            tracer._close(idx, False)
            if observe is not None:
                observe(tracer.counters, args, out)
            return out

        return wrapper

    def begin_job(self, job: dict) -> None:
        self._job = job["id"]
        self._root = self._open(ROOT_SPAN["library" if job.get("library") else "cli"])

    def end_job(self, escaped: bool) -> None:
        self._close(self._root, escaped)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        from gaussmanin.scalars import LaurentLambda

        observers = {
            "engine.analyze": _observe_analyze,
            "abalgebra.mul": _observe_mul,
            "factor.hensel_lift": _observe_trunc,
            "factor.split_irregular": _observe_trunc,
            "intdep.expand": _observe_relation,
            "critical.critical_values": _observe_critical,
        }
        for name, targets in FUNCTIONS.items():
            for module_name, attr in targets:
                module = importlib.import_module(f"gaussmanin.{module_name}")
                owner, _, method = attr.rpartition(".")
                holder = getattr(module, owner) if owner else module
                setattr(holder, method,
                        self.wrap(name, getattr(holder, method), observers.get(name)))

        counters = self.counters
        for op in LAURENT_OPS:
            original = LaurentLambda.__dict__.get(op)
            if original is None:
                continue

            def counted(*args, _fn=original):
                counters["scalars.laurent.ops"] += 1
                return _fn(*args)

            setattr(LaurentLambda, op, counted)

    def export(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


def _observe_analyze(counters, args, rel):
    counters["engine.d_plus_h.max"] = max(counters["engine.d_plus_h.max"], rel.d + rel.h)


def _observe_mul(counters, args, out):
    x, y = args
    if type(y) is type(x):
        counters["abalgebra.mul.term_pairs"] += len(x.terms) * len(y.terms)


def _observe_trunc(counters, args, out):
    counters["factor.trunc_order.max"] = max(counters["factor.trunc_order.max"], out.trunc)


def _observe_relation(counters, args, relation):
    counters["intdep.relation_terms"] += sum(len(c) for c in relation.coefficients)


def _observe_critical(counters, args, report):
    counters["critical.n_starts"] += report.n_starts
    counters["critical.n_converged"] += report.n_converged


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

LAYERS = ("engine", "abalgebra", "ode", "factor", "scalars", "intdep", "critical", "cli")

# per-layer metric -> unit; every name is printed, zero when the layer did not run
UNITS = {
    "engine.analyze.calls": "count", "engine.analyze.total_s": "s",
    "engine.build_operator.self_s": "s", "engine.d_plus_h.max": "count",
    "abalgebra.chain_expand.total_s": "s", "abalgebra.mul.calls": "count",
    "abalgebra.mul.self_s": "s", "abalgebra.mul.term_pairs": "count",
    "abalgebra.right_divide.calls": "count", "abalgebra.right_divide.self_s": "s",
    "ode.euler_export.total_s": "s", "ode.euler_form.total_s": "s",
    "ode.euler_to_diffop.total_s": "s", "ode.bernstein_polynomial.total_s": "s",
    "factor.pipeline.self_s": "s", "factor.hensel_lift.total_s": "s",
    "factor.hensel_lift.self_s": "s", "factor.hensel_lift.mul_calls": "count",
    "factor.split_irregular.calls": "count", "factor.split_irregular.total_s": "s",
    "factor.trunc_order.max": "count",
    "scalars.coprime_split.total_s": "s", "scalars.bezout.total_s": "s",
    "scalars.laurent.ops": "count", "scalars.coeff_bits.max": "bits",
    "intdep.expand.total_s": "s", "intdep.relation_terms": "count",
    "intdep.verify.self_s": "s",
    "critical.critical_values.calls": "count", "critical.critical_values.total_s": "s",
    "critical.converged_ratio": "ratio",
    "cli.to_json.total_s": "s", "cli.main.self_s": "s",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.overhead_s": "s",
}

def span_figures(spans: list) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (outermost spans of the name only) and
    self seconds, errors, and for the Hensel lift the mul calls below it."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, job, failed in spans:
        if parent >= 0:
            child_time[parent] += end - start
    fig: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for idx, (name, start, end, parent, job, failed) in enumerate(spans):
        dur = end - start
        f = fig[name]
        f["calls"] += 1
        f["self"] += dur - child_time[idx]
        outer = True
        hensel = False
        p = parent
        while p >= 0:
            if spans[p][0] == name:
                outer = False
            if spans[p][0] == "factor.hensel_lift":
                hensel = True
            p = spans[p][3]
        if outer:
            f["total"] += dur
        if hensel and name == "abalgebra.mul":
            fig["factor.hensel_lift"]["mul_calls"] += 1
        if failed:
            f["errors"] += 1
    return fig


def layer_metrics(spans: list, counters: dict, coeff_bits: int) -> dict[str, float]:
    """Per-layer metric values for the spans and counters of one traced pass."""
    fig = span_figures(spans)
    out = {name: 0.0 for name in UNITS}
    for span_name, f in fig.items():
        for kind, suffix in (("calls", "calls"), ("total", "total_s"), ("self", "self_s"),
                             ("mul_calls", "mul_calls")):
            key = f"{span_name}.{suffix}"
            if key in out:
                out[key] = f[kind]
    for layer in LAYERS:
        out[f"{layer}.errors"] = sum(f.get("errors", 0.0) for name, f in fig.items()
                                     if name.split(".")[0] == layer)
    for key in ("engine.d_plus_h.max", "abalgebra.mul.term_pairs", "factor.trunc_order.max",
                "intdep.relation_terms", "scalars.laurent.ops"):
        out[key] = counters.get(key, 0.0)
    starts = counters.get("critical.n_starts", 0.0)
    out["critical.converged_ratio"] = counters.get("critical.n_converged", 0.0) / starts if starts else 0.0
    out["scalars.coeff_bits.max"] = float(coeff_bits)
    return out


def merge_counters(total: dict, part: dict) -> None:
    for key, value in part.items():
        if key.endswith(".max"):
            total[key] = max(total.get(key, 0.0), value)
        else:
            total[key] = total.get(key, 0.0) + value
