"""Experiment harness: JSON config in, CSV trace / JSON report out.

Subcommands: run-ppm, run-ippm, run-gd, estimate, audit.  Each
takes --config <path> and --out <dir>; --seed overrides the config seed.
Exit codes: 0 success, 1 operational error, 2 bound-check failure in
test mode (so CI can tell theory regressions from crashes).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

# hashlib.blake2b is this function, but importing hashlib loads OpenSSL: 5 ms
# and at times 30 ms.  numpy.random, which would load it too, is imported
# through problem.default_rng without it, so no run loads OpenSSL.
from _blake2 import blake2b

import numpy as np

from .checks import (RateBounds, check_inexact_one_step, check_ippm_linear,
                     check_ippm_sublinear, check_linear_rates, check_one_step,
                     check_sublinear_bound, verify_gd_rates)
from .errors import ProxlabError
from .gd import GDParams, run_gd
from .ippm import InexactCriterion, run_ippm
from .ppm import IterationTrace, StepSchedule, install_reference, reference_solution, run_ppm
from .problem import ProblemSpec
from .regularity import audit_implications, estimate_constants
from .traceio import emit_trace_csv
from .zoo import (BENCHMARKS, MLProblemParams, generate_lasso_data, load_libsvm,
                  make_benchmark, make_blob_dataset, make_ml_problem)


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _typed(json.load(fh), dict, path)
    except OSError as exc:  # missing, a directory, unreadable
        raise ValueError(f"cannot read config {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON in {path}: {exc}")


def _typed(value, kind, field: str):
    """``value`` if it has the JSON kind ``kind``: a type (``float`` for any number) or a
    tuple of them.  A bool is only a bool, and a null is nothing.  A number must fit a
    float; an integer that does is returned as it is."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    accepted = kinds + (int,) if float in kinds else kinds
    if not isinstance(value, accepted) or isinstance(value, bool) and bool not in kinds:
        expected = " or ".join("number" if k is float else k.__name__ for k in kinds)
        got = "nothing" if value is None else type(value).__name__
        raise ValueError(f"{field}: expected {expected}, got {got}")
    if float in kinds and type(value) is int:
        try:
            float(value)
        except OverflowError:
            raise ValueError(f"{field}: expected a number, got an integer too large for "
                             "a float") from None
    return value


class _Fields(dict):
    """The present fields of one config section; indexing an absent one is a config error."""

    def __init__(self, fields: dict, prefix: str, kinds: dict):
        super().__init__(fields)
        self.prefix, self.kinds = prefix, kinds

    def __missing__(self, key):
        return _typed(None, self.kinds[key], self.prefix + key)  # raises


def _fields(section: dict, path: str, defaults: dict | None = None, /, **kinds) -> _Fields:
    """The fields of the JSON object ``section`` at ``path`` ("" at the top) named in
    ``kinds``, each checked against its kind (see ``_typed``).  A null field is an
    absent one.  An absent field takes its value in ``defaults``, or is left out, so a
    library call given ``**fields`` keeps its own default; indexing a left-out field
    raises "<path>.<key>: expected <kind>, got nothing".  A ``seed`` must not be
    negative."""
    prefix = f"{path}." if path else ""
    fields = {}
    for key, kind in kinds.items():
        value = section.get(key)
        if value is None and defaults:
            value = defaults.get(key)
        if value is not None:
            fields[key] = _typed(value, kind, prefix + key)
            if key == "seed" and value < 0:
                raise ValueError(f"{prefix}{key}: expected non-negative integer, got {value}")
    return _Fields(fields, prefix, kinds)


# Reference solves of ML problems kept for later runs in this process, oldest
# first: (params, (shape, dtype, BLAKE2b digest) of each data array) -> the
# arguments of install_reference after the problem.  The entries are the
# outcomes of _solver, the make_ml_problem and reference_solution this module
# bound when they were solved; rebinding either (tracing, tests) empties the
# memo, so a replaced solver is always called.  tools/run_configs.py builds 9
# distinct data sets in one process and a benchmark deck at most 6; an entry
# holds one point of the problem's dimension, so 16 entries cover both with
# room to spare.  Emptied before every job, ml_solve deck passes took 1.39-1.43x
# as long (seeds 1-3, in process, alternating with a kept memo; 2-vCPU host).
REFERENCE_MEMO_SIZE = 16
_references: dict = {}
_solver: tuple = ()


def _ml_problem(data, params: MLProblemParams) -> ProblemSpec:
    """The ML problem on ``data`` (features, targets, ...) with its reference
    installed.  The first build of these data and params in this process solves it
    (``reference_solution``); later builds install the solve's numbers on a freshly
    built problem."""
    global _solver
    p = make_ml_problem(data, params)
    if _solver != (make_ml_problem, reference_solution):
        _references.clear()
        _solver = (make_ml_problem, reference_solution)
    key = (params, *((a.shape, a.dtype.str,
                      blake2b(np.ascontiguousarray(a), digest_size=32).digest())
                     for a in data[:2]))
    if key in _references:
        return install_reference(p, *_references[key])
    ref = reference_solution(p)
    md = ref.metadata
    if len(_references) >= REFERENCE_MEMO_SIZE:
        del _references[next(iter(_references))]
    _references[key] = (ref.f_star, md["reference_point"], md["reference_residual"],
                        md["reference_iterations"])
    return ref


def _size(fields: _Fields, key: str) -> int:
    """The integer ``fields[key]``, refused when numpy cannot take it as an array size."""
    value, top = fields[key], np.iinfo(np.intp).max
    if not 0 <= value <= top:
        raise ValueError(f"{fields.prefix}{key}: expected an array size, from 0 to {top}")
    return value


def build_problem(cfg: dict, seed: int) -> ProblemSpec:
    prob = _fields(cfg["problem"], "problem", {"data": {}, "params": {}}, benchmark=str,
                   ml=str, data=dict, params=dict)
    if "benchmark" in prob:
        name = prob["benchmark"]
        if name not in BENCHMARKS:
            raise ValueError(f"problem.benchmark: unknown benchmark {name!r}; pick one of "
                             f"{BENCHMARKS}")
        return make_benchmark(name)
    if "ml" not in prob:
        raise ValueError("problem: needs either 'benchmark' or 'ml'")
    kind = prob["ml"]
    params = MLProblemParams(kind, **_fields(prob["params"], "problem.params", svm_reg=float,
                                             lam=float, en_reg=float))
    data = _fields(prob["data"], "problem.data", lasso=dict, blobs=dict, libsvm=str)
    if kind != "svm":  # lasso or elastic_net: MLProblemParams rejects any other kind
        gen = _fields(data["lasso"], "problem.data.lasso", {"seed": seed}, n=int, m=int, s=int,
                      seed=int)
        dataset = generate_lasso_data(*(_size(gen, key) for key in "nms"), gen["seed"])
    elif "libsvm" in data:
        try:
            dataset = load_libsvm(data["libsvm"])
        except OSError as exc:  # missing, a directory, unreadable
            raise ValueError(f"problem.data.libsvm: cannot read {data['libsvm']}: "
                             f"{exc.strerror}")
    elif "blobs" in data:
        size = _fields(data["blobs"], "problem.data.blobs", n=int, d=int)
        shape = _fields(data["blobs"], "problem.data.blobs", {"seed": seed}, seed=int,
                        separation=float)
        if not math.isfinite(shape.get("separation", 0.0)):
            raise ValueError(f"problem.data.blobs.separation: expected a finite number, "
                             f"got {shape['separation']}")
        dataset = make_blob_dataset(_size(size, "n"), _size(size, "d"), **shape)
    else:
        raise ValueError("problem.data: svm needs data.libsvm or data.blobs")
    return _ml_problem(dataset, params)


def build_schedule(cfg: dict) -> StepSchedule:
    return StepSchedule.constant(_fields(cfg["schedule"], "schedule", constant=float)["constant"])


def build_x0(cfg: dict, p: ProblemSpec) -> np.ndarray:
    x0 = cfg["x0"]
    if isinstance(x0, str):
        if x0 == "zeros":
            return np.zeros(p.dimension)
        raise ValueError(f"x0: unknown x0 preset {x0!r}")
    arr = np.array([_typed(v, float, "x0") for v in x0], dtype=float)
    if arr.shape != (p.dimension,):
        raise ValueError(f"x0: shape {arr.shape}, problem dimension is {p.dimension}")
    return arr


def build_criteria(cfg: dict):
    crit = cfg["criterion"]
    entries = [_typed(e, dict, "criterion") for e in (crit if isinstance(crit, list) else [crit])]
    return tuple(InexactCriterion(_fields(e, "criterion", kind=str)["kind"],
                                  **_fields(e, "criterion", eps0=float, delta0=float,
                                            gamma=float)) for e in entries)


def _ratio_summary(xs: np.ndarray) -> dict:
    vals = xs[xs > 1e-14]
    ratios = vals[1:] / vals[:-1]
    if not ratios.size:
        return {"count": 0}
    return {"count": len(ratios), "max": float(ratios.max()), "min": float(ratios.min()),
            "last": float(ratios[-1])}


def _check_to_json(check) -> dict:
    return {"name": check.name, "ok": check.all_ok, "checked": len(check.indices),
            "first_violation": check.first_violation, "max_ratio": check.max_ratio,
            "worst_index": check.worst_index}


def _missing_reference(p: ProblemSpec) -> str | None:
    """Why bounds against S cannot be replayed or constants estimated on ``p``, if so."""
    if p.f_star is None or p.project_solution is None:
        return "no f_star or solution oracle"
    return None


def _estimate(p: ProblemSpec, nu: float | None, out: Path, audit: bool):
    """Estimate the constants on the ``nu``-sublevel set and write report.json, with the
    audit when asked."""
    report = estimate_constants(p, nu)
    body = report.to_json()
    if audit:
        body["audit"] = [{"relation": c.relation, "expected": c.expected,
                          "observed": c.observed, "status": c.status}
                         for c in audit_implications(report, p.weak_convexity)]
    _write_json(out / "report.json", body)
    return report


def _strict(value):
    """``value`` with non-finite floats written "inf", "-inf" or "nan"."""
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_strict(v) for v in value]
    return str(value) if isinstance(value, float) and not math.isfinite(value) else value


def _write_json(path: Path, body: dict) -> None:
    """Write ``body`` as strict JSON: sorted keys, non-finite floats as strings."""
    text = json.dumps(_strict(body), indent=2, sort_keys=True, allow_nan=False, default=str)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")  # one write: json.dump writes each token


def _theorems(cmd: str, cfg: dict, p: ProblemSpec, trace: IterationTrace, report,
              params: GDParams | None, crits) -> list:
    """Every bound ``cmd`` can assert, in summary order: (row names, skip reason or
    None, checker).  The reason is the first precondition that fails; the checker
    returns one BoundCheck per name.  Checkers are looked up in this module when
    called, so a wrapped ``check_*`` is the one that runs.
    """
    rho = p.weak_convexity
    gate = ("test_mode is off" if not cfg["test_mode"] else
            None if cmd == "run-gd" else _missing_reference(p))

    def reason(*preconditions):
        return next((why for why in (gate, *preconditions) if why), None)

    convex = f"convex result, rho = {rho:g}" if rho > 0 else None
    estimate = None if cfg["estimate"] else "estimate is off"
    if cmd == "run-ppm":
        return [(("sublinear_envelope",), reason(convex),
                 lambda: [check_sublinear_bound(trace)]),
                (("one_step_improvement",), reason(), lambda: [check_one_step(trace)]),
                (("linear_cost", "linear_dist"), reason(estimate),
                 lambda: check_linear_rates(trace, report, report.nu))]
    if cmd == "run-ippm":
        a_type = None if any(c.absolute for c in crits) else "no A-type budget"
        b_type = None if any(not c.absolute for c in crits) else "no B-type budget"
        # The contraction factor needs beta = mu_q - rho/2 > 0.
        growth = None if report is None or report.mu_q > 0.5 * rho else "needs mu_q > rho/2"
        # Only the unprimed rules log the exact prox the inequality compares against.
        primed = "primed rule: no exact prox" if any(c.implementable for c in crits) else None
        return [(("ippm_best_iterate",), reason(convex, a_type),
                 lambda: [check_ippm_sublinear(trace)]),
                (("ippm_linear_dist",), reason(estimate, b_type, growth),
                 lambda: [check_ippm_linear(trace, report, report.nu)]),
                (("inexact_one_step",), reason(convex, b_type, primed),
                 lambda: [check_inexact_one_step(trace)])]
    return [(("gd_dist", "gd_cost"), reason(), lambda: verify_gd_rates(trace, params))]


def cmd_run(cmd: str, cfg: dict, out: Path, seed: int) -> int:
    """run-ppm, run-ippm, run-gd: run, write trace.csv, estimate at most once, replay
    the theorem table and write summary.json; exit 2 on a failed check in test mode."""
    p = build_problem(cfg, seed)
    x0 = build_x0(cfg, p)
    why = _missing_reference(p) if cfg["estimate"] or cfg["audit"] else "estimate is off"
    if not why and math.isnan(cfg.get("nu", 0.0)):  # refused before the run, not after it
        raise ValueError("nu = nan is not a sublevel bound; give a number or inf")
    limit = [_size(cfg, "max_iter")] if "max_iter" in cfg else []  # else each loop's own horizon
    params = crits = None
    bounds = {}
    if cmd == "run-gd":
        mu_p = p.metadata.get("mu_p")
        gd = _fields(cfg["gd"], "gd", {"mu": p.metadata.get("mu_r"),
                                       "beta": None if mu_p is None else mu_p / 2},
                     mu=float, beta=float)
        params = GDParams(p.smoothness, gd["mu"], gd["beta"])
        trace = run_gd(p, x0, params, *limit)
        bounds = {"dist_factor": params.omega_dist, "cost_factor": params.omega_cost,
                  "step": params.step_size}
    elif cmd == "run-ippm":
        sched = build_schedule(cfg)
        crits = build_criteria(cfg)
        trace = run_ippm(p, x0, sched, crits, *limit, test_mode=cfg["test_mode"])
    else:
        sched = build_schedule(cfg)
        trace = run_ppm(p, x0, sched, *limit)
    emit_trace_csv(trace, out / "trace.csv")
    report, skipped = None, {}
    if why:
        skipped["estimate"] = why
    else:
        report = _estimate(p, cfg.get("nu"), out, cfg["audit"])
    checks = []
    for names, reason, checker in _theorems(cmd, cfg, p, trace, report, params, crits):
        if reason:
            skipped.update(dict.fromkeys(names, reason))
        else:
            checks.extend(checker())
    if cmd == "run-ppm" and "linear_cost" not in skipped:
        rb = RateBounds(report.mu_p, report.mu_q, report.mu_e, rho=p.weak_convexity)
        bounds = {"cost_factor": rb.omega(sched.c), "dist_factor": rb.theta(sched.c)}
    # A row that replays no inequality (no step, or none inside the sublevel set)
    # passes vacuously, so it is not counted as asserted.
    skipped.update((c.name, "no inequality to replay") for c in checks if not c.indices.size)
    checks = [c for c in checks if c.indices.size]
    final_gap = float(trace.gaps[-1])
    failed = [c.name for c in checks if not c.all_ok]
    _write_json(out / "summary.json", {
        "problem": p.name,
        "iterations": len(trace) - 1,
        "stop_reason": trace.stop_reason,
        "final_value": float(trace.values[-1]),
        "final_gap": None if math.isnan(final_gap) else final_gap,
        "cost_ratio": _ratio_summary(trace.gaps),
        "dist_ratio": _ratio_summary(trace.dists),
        "bounds": bounds,
        "checks": [_check_to_json(c) for c in checks],
        "bounds_ok": not failed,
        "asserted": len(checks),
        "skipped": skipped,
    })
    if cfg["test_mode"] and failed:
        print(f"bound-check failure: {failed}", file=sys.stderr)
        return 2
    return 0


def cmd_estimate(cmd: str, cfg: dict, out: Path, seed: int) -> int:
    """estimate, audit: write report.json; exit 1 when the problem has no reference."""
    p = build_problem(cfg, seed)
    report = _estimate(p, cfg.get("nu"), out, cmd == "audit" or cfg["audit"])
    _write_json(out / "summary.json", {"problem": p.name, "report": "report.json",
                                       "flags": report.to_json()["flags"]})
    return 0


_COMMANDS = {"run-ppm": cmd_run, "run-ippm": cmd_run, "run-gd": cmd_run,
             "estimate": cmd_estimate, "audit": cmd_estimate}

# Built once: parsing does not change the parser, and building it costs more
# than a parse.
_PARSER = argparse.ArgumentParser(prog="proxlab", description=__doc__)
_PARSER.add_argument("command", choices=_COMMANDS)
_PARSER.add_argument("--config", required=True)
_PARSER.add_argument("--out", required=True)
_PARSER.add_argument("--seed", type=int, default=None)


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        body = load_config(args.config)
        if args.seed is not None:
            body["seed"] = args.seed
        cfg = _fields(body, "", {
            "schedule": {"constant": 1.0}, "x0": "zeros", "seed": 0, "test_mode": False,
            "estimate": False, "audit": False},
            problem=dict, schedule=dict, x0=(str, list), max_iter=int, criterion=(dict, list),
            gd=dict, nu=float, seed=int, test_mode=bool, estimate=bool, audit=bool)
        seed = cfg["seed"]
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # an existing file, a file on the path, no permission
            raise ValueError(f"cannot create --out {out}: {exc.strerror}")
        return _COMMANDS[args.command](args.command, cfg, out, seed)
    except ValueError as exc:  # values the config or the library refuses
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ProxlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
