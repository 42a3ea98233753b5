"""Spans and counts recorded around the package's layer boundaries.

The tracer wraps the names the CLI and the loops look up at call time, so
nothing in the package changes:

* ``proxlab.cli``: the problem constructors (zoo), ``reference_solution``, the
  ``run_*`` loops, the ``check_*`` / ``verify_gd_rates`` checkers,
  ``estimate_constants``, ``audit_implications`` and ``emit_trace_csv``;
* ``proxlab.ppm.prox`` and ``proxlab.ippm.prox``, each call classified by
  the structure that decides its solver;
* ``proxlab.regularity.find_suboptimal_stationary_points`` and
  ``proxlab.regularity._sample_points``;
* ``IterationTrace.running_diameter``;
* the oracles of every ``ProblemSpec`` the constructors return, replaced with
  ``dataclasses.replace`` so that reference solves are counted too.

A span is ``[id, parent, job, name, layer, start, end, child_s]``; its self
time is its duration minus ``child_s``, the time its children cover.  Oracle
calls are too many to keep one span each: they are aggregated per enclosing
span into ``(calls, seconds)`` records.  Everything stays in memory until
``write`` at the end of the run.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "zoo", "problem", "prox", "ppm", "ippm", "gd", "regularity", "traceio")
PROX_STRUCTURES = ("composite", "svm_dual", "bisect_1d")
# ProblemSpec field -> metric stem of its call count.
ORACLES = {"value": "value", "subgradient": "subgradient",
           "min_norm_subgradient": "min_norm", "interval_1d": "interval",
           "project_solution": "project"}

ID, PARENT, JOB, NAME, LAYER, START, END, CHILD = range(8)


def _prox_kind(p, *args, **kwargs) -> str:
    """The solver ``proxlab.prox.prox`` dispatches to for problem p."""
    if p.prox_closed_form is not None:
        return "prox.closed_form"
    if p.composite is not None:
        return "prox.composite"
    if p.svm is not None:
        return "prox.svm_dual"
    return "prox.bisect_1d"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.leaves: dict[tuple[int, str], list] = defaultdict(lambda: [0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self.job = None
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, layer: str) -> list:
        parent = self._stack[-1][ID] if self._stack else None
        rec = [self._next_id, parent, self.job, name, layer, perf_counter(), 0.0, 0.0]
        self._next_id += 1
        self._stack.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1][CHILD] += rec[END] - rec[START]
        self.spans.append(rec)

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        """Run fn inside a span (for calls the benchmark makes itself)."""
        rec = self._open(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)

    def wrap(self, fn, name, layer: str, after=None, on_error=None):
        """fn inside a span; ``name`` may be a function of the call's arguments.

        ``after(name, result, args)`` may replace the result; ``on_error(name,
        exc)`` sees an exception before it propagates.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            rec = tracer._open(span_name, layer)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(span_name, exc)
                raise
            finally:
                tracer._close(rec)
            return after(span_name, result, args) if after is not None else result

        return wrapper

    def leaf(self, oracle: str, fn):
        """Count and time an oracle call against the enclosing span."""
        if getattr(fn, "_perfbench_oracle", False):
            return fn
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                parent = tracer._stack[-1] if tracer._stack else None
                if parent is not None:
                    parent[CHILD] += dt
                agg = tracer.leaves[(parent[ID] if parent is not None else -1, oracle)]
                agg[0] += 1
                agg[1] += dt

        wrapper._perfbench_oracle = True
        return wrapper

    def wrap_problem(self, p):
        """Copy of ProblemSpec p whose oracles are counted."""
        fields = {f: self.leaf(stem, getattr(p, f)) for f, stem in ORACLES.items()
                  if getattr(p, f) is not None}
        if p.composite is not None:
            fields["composite"] = dataclasses.replace(
                p.composite, grad_smooth=self.leaf("grad_smooth", p.composite.grad_smooth))
        return dataclasses.replace(p, **fields)

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from proxlab.errors import InnerBudgetExhausted

        cli = sys.modules["proxlab.cli"]
        ppm = sys.modules["proxlab.ppm"]
        ippm = sys.modules["proxlab.ippm"]
        regularity = sys.modules["proxlab.regularity"]
        count = self.counts

        def problem(_name, result, _args):
            return self.wrap_problem(result)

        def reference(name, result, args):
            count["ppm.reference_steps"] += int(result.metadata.get("reference_iterations", 0))
            return self.wrap_problem(result)

        def steps(counter):
            def after(_name, trace, _args):
                count[counter] += len(trace) - 1
                return trace
            return after

        def tally(counter, size=None):
            def after(_name, result, args):
                count[counter] += 1 if size is None else size(result, args)
                return result
            return after

        def prox_done(name, result, _args):
            count[name + ".calls"] += 1
            count[name + ".inner_iters"] += result.inner_iterations
            return result

        def prox_failed(name, exc):
            count[name + ".calls"] += 1
            count[name + ".exhausted"] += isinstance(exc, InnerBudgetExhausted)
            best = getattr(exc, "best", None)
            count[name + ".inner_iters"] += getattr(best, "inner_iterations", 0)

        patches = [
            (cli, "make_benchmark", "zoo.build", "zoo", problem),
            (cli, "make_ml_problem", "zoo.build", "zoo", problem),
            (cli, "generate_lasso_data", "zoo.build", "zoo", None),
            (cli, "make_blob_dataset", "zoo.build", "zoo", None),
            (cli, "load_libsvm", "zoo.build", "zoo", None),
            (cli, "reference_solution", "ppm.reference", "ppm", reference),
            (cli, "run_ppm", "ppm.run", "ppm", steps("ppm.outer_steps")),
            (cli, "run_ippm", "ippm.run", "ippm", steps("ippm.outer_steps")),
            (cli, "run_gd", "gd.run", "gd", None),
            (cli, "check_sublinear_bound", "ppm.checks", "ppm", None),
            (cli, "check_one_step", "ppm.checks", "ppm", None),
            (cli, "check_linear_rates", "ppm.checks", "ppm", None),
            (cli, "check_ippm_sublinear", "ippm.checks", "ippm", None),
            (cli, "check_ippm_linear", "ippm.checks", "ippm", None),
            (cli, "verify_gd_rates", "gd.checks", "gd", None),
            (cli, "estimate_constants", "regularity.estimate", "regularity",
             tally("regularity.estimate.calls")),
            (cli, "audit_implications", "regularity.audit", "regularity", None),
            (cli, "emit_trace_csv", "traceio.emit", "traceio",
             tally("traceio.rows", lambda _r, args: len(args[0]))),
            (regularity, "find_suboptimal_stationary_points", "regularity.stationary_scan",
             "regularity", tally("regularity.samples", lambda r, _a: len(r))),
            (regularity, "_sample_points", "regularity.sample_points", "regularity",
             tally("regularity.samples", lambda r, _a: len(r))),
            (ppm.IterationTrace, "running_diameter", "ppm.running_diameter", "ppm", None),
        ]
        try:
            for owner, attr, name, layer, after in patches:
                self._patch(owner, attr, self.wrap(getattr(owner, attr), name, layer, after))
            for module in (ppm, ippm):
                self._patch(module, "prox", self.wrap(module.prox, _prox_kind, "prox",
                                                      prox_done, prox_failed))
        except AttributeError:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def metrics(self, jobs: int) -> dict[str, float]:
        """Per-layer metrics over everything recorded (see BENCHMARK.json)."""
        inclusive: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        names = {}
        for rec in self.spans:
            duration = rec[END] - rec[START]
            inclusive[rec[NAME]] += duration
            self_time[rec[NAME]] += duration - rec[CHILD]
            names[rec[ID]] = rec[NAME]
            if rec[NAME] != "traceio.read":  # the benchmark's own output check
                layer_self[rec[LAYER]] += duration - rec[CHILD]
        oracle_calls: dict[str, int] = defaultdict(int)
        under: dict[tuple[str, str], int] = defaultdict(int)
        oracle_s = 0.0
        for (parent, oracle), (calls, seconds) in self.leaves.items():
            oracle_calls[oracle] += calls
            under[(names.get(parent, ""), oracle)] += calls
            oracle_s += seconds
        layer_self["problem"] += oracle_s
        c = self.counts

        def per(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        out: dict[str, float] = {}
        for struct in PROX_STRUCTURES:
            stem = f"prox.{struct}"
            iters = c[stem + ".inner_iters"]
            out[stem + ".calls"] = c[stem + ".calls"]
            out[stem + ".s"] = inclusive[stem]
            out[stem + ".inner_iters"] = iters
            out[stem + ".us_per_inner_iter"] = per(inclusive[stem], iters, 1e6)
            out[stem + ".exhausted"] = c[stem + ".exhausted"]
        out["prox.composite.grad_per_iter"] = per(under[("prox.composite", "grad_smooth")],
                                                  c["prox.composite.inner_iters"])
        out["prox.closed_form.calls"] = c["prox.closed_form.calls"]
        out["ppm.reference_s"] = inclusive["ppm.reference"]
        out["ppm.reference_steps"] = c["ppm.reference_steps"]
        out["ppm.run.self_s"] = self_time["ppm.run"]
        out["ppm.outer_steps"] = c["ppm.outer_steps"]
        out["ippm.run.self_s"] = self_time["ippm.run"]
        out["ippm.outer_steps"] = c["ippm.outer_steps"]
        out["gd.run_s"] = inclusive["gd.run"]
        out["ppm.checks_s"] = inclusive["ppm.checks"]
        out["ppm.running_diameter_s"] = inclusive["ppm.running_diameter"]
        out["ippm.checks_s"] = inclusive["ippm.checks"]
        out["gd.checks_s"] = inclusive["gd.checks"]
        sampled = c["regularity.samples"]
        admitted = (under[("regularity.estimate", "min_norm")]
                    + under[("regularity.estimate", "subgradient")])
        out["regularity.estimate.self_s"] = self_time["regularity.estimate"]
        out["regularity.samples"] = sampled
        out["regularity.included_frac"] = per(admitted, sampled)
        out["regularity.us_per_sample"] = per(inclusive["regularity.estimate"], sampled, 1e6)
        out["regularity.stationary_scan_s"] = inclusive["regularity.stationary_scan"]
        out["regularity.audit_s"] = inclusive["regularity.audit"]
        out["problem.oracle_s"] = oracle_s
        for stem in (*ORACLES.values(), "grad_smooth"):
            out[f"problem.{stem}_calls"] = oracle_calls[stem]
        out["cli.self_s"] = self_time["cli.main"]
        out["cli.estimate_calls_per_job"] = per(c["regularity.estimate.calls"], jobs)
        out["traceio.emit_s"] = inclusive["traceio.emit"]
        out["traceio.rows"] = c["traceio.rows"]
        out["traceio.read_s"] = inclusive["traceio.read"]
        out["zoo.build_s"] = inclusive["zoo.build"]
        job_s = inclusive["cli.main"]
        for layer in LAYERS:
            out[f"share.{layer}"] = per(layer_self[layer], job_s)
        return out

    def write(self, path) -> None:
        """Spans, then aggregated oracle records, one JSON object a line."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps({"id": rec[ID], "parent": rec[PARENT], "job": rec[JOB],
                                     "name": rec[NAME], "layer": rec[LAYER],
                                     "start": rec[START], "end": rec[END],
                                     "child_s": rec[CHILD]}) + "\n")
            for (parent, oracle), (calls, seconds) in sorted(self.leaves.items()):
                fh.write(json.dumps({"parent": parent, "oracle": oracle,
                                     "calls": calls, "s": seconds}) + "\n")
