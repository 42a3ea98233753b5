"""Experiment harness: JSON config in, CSV trace / JSON report out.

Subcommands: run-ppm, run-ippm, run-gd, estimate, audit, gen-data.  Each
takes --config <path> and --out <dir>; --seed overrides the config seed.
Exit codes: 0 success, 1 operational error, 2 bound-check failure in
test mode (so CI can tell theory regressions from crashes).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, ProxlabError
from .gd import GDParams, run_gd, verify_gd_rates
from .ippm import (InexactCriterion, check_inexact_one_step, check_ippm_linear,
                   check_ippm_sublinear, run_ippm)
from .ppm import (IterationTrace, RateBounds, StepSchedule, check_linear_rates,
                  check_one_step, check_sublinear_bound, reference_solution, run_ppm)
from .problem import ProblemSpec
from .regularity import audit_implications, estimate_constants, plan_for
from .traceio import emit_trace_csv
from .zoo import (BENCHMARKS, MLProblemParams, generate_lasso_data, load_libsvm,
                  make_benchmark, make_blob_dataset, make_ml_problem, save_libsvm)


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _typed(json.load(fh), dict, path)
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"cannot read config {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}")


def _get(cfg: dict, key: str, default=None, required: bool = False):
    if key in cfg:
        return cfg[key]
    if required:
        raise ConfigError("missing required field", field=key)
    return default


# The JSON type of a number field: an int or a float (a bool is neither).
NUMBER = (int, float)


def _typed(value, kind, field: str):
    """Return value if it has the JSON type kind, a type or NUMBER (a bool is only a bool)."""
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        expected = "number" if kind is NUMBER else kind.__name__
        raise ConfigError(f"expected {expected}, got {type(value).__name__}", field=field)
    return value


def _scalars(section: dict, name: str, **kinds) -> dict:
    """Return section after checking each of its non-null fields named in kinds
    against its JSON type; ``name`` is the section's path ("" at the top)."""
    for key, kind in kinds.items():
        if section.get(key) is not None:
            _typed(section[key], kind, f"{name}.{key}" if name else key)
    return section


def build_problem(cfg: dict, seed: int) -> ProblemSpec:
    prob = _typed(_get(cfg, "problem", required=True), dict, "problem")
    if "benchmark" in prob:
        name = prob["benchmark"]
        if name not in BENCHMARKS:
            raise ConfigError(f"unknown benchmark {name!r}; pick one of {BENCHMARKS}",
                              field="problem.benchmark")
        return make_benchmark(name)
    if "ml" in prob:
        kind = prob["ml"]
        data_cfg = _typed(prob.get("data", {}), dict, "problem.data")
        weights = _scalars(_typed(prob.get("params", {}), dict, "problem.params"),
                           "problem.params", svm_reg=NUMBER, lam=NUMBER, en_reg=NUMBER)
        params = MLProblemParams(kind=kind, **{key: v for key, v in weights.items()
                                               if key in ("svm_reg", "lam", "en_reg")})
        if kind in ("lasso", "elastic_net"):
            gen = data_cfg.get("lasso")
            if gen is None:
                raise ConfigError("regression problems need data.lasso generation sizes",
                                  field="problem.data")
            gen = _scalars(_typed(gen, dict, "problem.data.lasso"), "problem.data.lasso",
                           n=int, m=int, s=int, seed=int)
            a_mat, y, _ = generate_lasso_data(gen["n"], gen["m"], gen["s"],
                                              gen.get("seed", seed))
            problem = make_ml_problem(kind, (a_mat, y), params)
        elif kind == "svm":
            if "libsvm" in data_cfg:
                path = _typed(data_cfg["libsvm"], str, "problem.data.libsvm")
                try:
                    dataset = load_libsvm(path)
                except OSError as exc:  # missing, a directory, unreadable
                    raise ConfigError(f"cannot read {path}: {exc.strerror}",
                                      field="problem.data.libsvm")
            elif "blobs" in data_cfg:
                blobs = _scalars(_typed(data_cfg["blobs"], dict, "problem.data.blobs"),
                                 "problem.data.blobs", n=int, d=int, seed=int,
                                 separation=NUMBER)
                dataset = make_blob_dataset(blobs["n"], blobs["d"],
                                            blobs.get("seed", seed),
                                            blobs.get("separation", 2.0))
            else:
                raise ConfigError("svm needs data.libsvm or data.blobs",
                                  field="problem.data")
            problem = make_ml_problem("svm", dataset, params)
        else:
            raise ConfigError(f"unknown ml kind {kind!r}", field="problem.ml")
        return reference_solution(problem)
    raise ConfigError("problem needs either 'benchmark' or 'ml'", field="problem")


def build_schedule(cfg: dict) -> StepSchedule:
    sched = _typed(_get(cfg, "schedule", {"constant": 1.0}), dict, "schedule")
    if "constant" in sched:
        return StepSchedule.constant(_typed(sched["constant"], NUMBER, "schedule.constant"))
    if "sequence" in sched:
        return StepSchedule.from_sequence(
            [_typed(c, NUMBER, "schedule.sequence")
             for c in _typed(sched["sequence"], list, "schedule.sequence")])
    if "geometric" in sched:
        geometric = _typed(sched["geometric"], dict, "schedule.geometric")
        return StepSchedule.geometric(*(_typed(geometric.get(k), NUMBER, f"schedule.geometric.{k}")
                                        for k in ("c0", "growth")))
    raise ConfigError("schedule needs constant / sequence / geometric", field="schedule")


def build_x0(cfg: dict, p: ProblemSpec) -> np.ndarray:
    x0 = _get(cfg, "x0", "zeros")
    if isinstance(x0, str):
        if x0 == "zeros":
            return np.zeros(p.dimension)
        raise ConfigError(f"unknown x0 preset {x0!r}", field="x0")
    arr = np.array([_typed(v, NUMBER, "x0") for v in _typed(x0, list, "x0")], dtype=float)
    if arr.shape != (p.dimension,):
        raise ConfigError(f"x0 has shape {arr.shape}, problem dimension is {p.dimension}",
                          field="x0")
    return arr


def build_criteria(cfg: dict):
    crit = _get(cfg, "criterion", required=True)
    entries = [_scalars(_typed(e, dict, "criterion"), "criterion", kind=str, eps0=NUMBER,
                        delta0=NUMBER, gamma=NUMBER)
               for e in (crit if isinstance(crit, list) else [crit])]
    return tuple(InexactCriterion(kind=e["kind"],
                                  eps0=e.get("eps0", 0.1),
                                  delta0=e.get("delta0", 0.5),
                                  gamma=e.get("gamma", 0.7)) for e in entries)


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


def _estimate(cfg: dict, p: ProblemSpec, out: Path):
    """Estimate the constants under the config's plan and write report.json, with
    the audit when asked."""
    est = _scalars(_typed(cfg.get("estimation", {}), dict, "estimation"), "estimation",
                   count=int, nu=NUMBER, tau_s=NUMBER)
    plan = plan_for(p, count=est.get("count", 10_001), nu=est.get("nu", cfg.get("nu")))
    if "bracket" in est:
        ends = tuple(_typed(v, NUMBER, "estimation.bracket")
                     for v in _typed(est["bracket"], list, "estimation.bracket"))
        if len(ends) != 2:
            raise ConfigError(f"expected [lo, hi], got {len(ends)} numbers",
                              field="estimation.bracket")
        plan = replace(plan, bracket=ends)
    report = estimate_constants(p, replace(plan, tau_s=est.get("tau_s", plan.tau_s)))
    body = report.to_json()
    if cfg.get("audit", False):
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_strict(body), fh, indent=2, sort_keys=True, allow_nan=False, default=str)
        fh.write("\n")


def _theorems(cmd: str, cfg: dict, p: ProblemSpec, trace: IterationTrace, report,
              params: GDParams | None, crits) -> list:
    """Every bound ``cmd`` can assert, in summary order: (row names, skip reason or
    None, checker).  The reason is the first precondition that fails; the checker
    returns one BoundCheck per name.  Checkers are looked up in this module when
    called, so a wrapped ``check_*`` is the one that runs.
    """
    rho = p.weak_convexity
    nu = cfg.get("nu", math.inf)
    gate = ("test_mode is off" if not cfg.get("test_mode", False) else
            None if cmd == "run-gd" else _missing_reference(p))

    def reason(*preconditions):
        return next((why for why in (gate, *preconditions) if why), None)

    convex = f"convex result, rho = {rho:g}" if rho > 0 else None
    estimate = None if cfg.get("estimate", False) else "estimate is off"
    if cmd == "run-ppm":
        return [(("sublinear_envelope",), reason(convex),
                 lambda: [check_sublinear_bound(trace)]),
                (("one_step_improvement",), reason(), lambda: [check_one_step(trace)]),
                (("linear_cost", "linear_dist"), reason(estimate),
                 lambda: check_linear_rates(trace, report, nu))]
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
                 lambda: [check_ippm_linear(trace, report, nu)]),
                (("inexact_one_step",), reason(convex, b_type, primed),
                 lambda: [check_inexact_one_step(trace)])]
    step = None if params.step_rule_valid else "step outside (0, 2/L)"
    return [(("gd_dist", "gd_cost"), reason(step), lambda: verify_gd_rates(trace, params))]


def cmd_run(cmd: str, cfg: dict, out: Path, seed: int) -> int:
    """run-ppm, run-ippm, run-gd: run, write trace.csv, estimate at most once, replay
    the theorem table and write summary.json; exit 2 on a failed check in test mode."""
    p = build_problem(cfg, seed)
    x0 = build_x0(cfg, p)
    max_iter = _typed(cfg.get("max_iter", 50 if cmd == "run-gd" else 500), int, "max_iter")
    params = crits = None
    bounds = {}
    if cmd == "run-gd":
        gd_cfg = _scalars(_typed(_get(cfg, "gd", required=True), dict, "gd"), "gd",
                          mu=NUMBER, beta=NUMBER, step=NUMBER)
        params = GDParams(lipschitz=p.smoothness,
                          mu=gd_cfg.get("mu", p.metadata.get("gd_mu")),
                          beta=gd_cfg.get("beta", p.metadata.get("gd_beta")),
                          step=gd_cfg.get("step"))
        trace = run_gd(p, x0, params, iters=max_iter)
        bounds = {"dist_factor": params.omega_dist, "cost_factor": params.omega_cost,
                  "step": params.step_size, "step_rule_valid": params.step_rule_valid}
    elif cmd == "run-ippm":
        sched = build_schedule(cfg)
        crits = build_criteria(cfg)
        trace = run_ippm(p, x0, sched, crits, max_iter=max_iter,
                         test_mode=cfg.get("test_mode", False), seed=seed)
    else:
        sched = build_schedule(cfg)
        trace = run_ppm(p, x0, sched, max_iter=max_iter)
    emit_trace_csv(trace, out / "trace.csv")
    report, skipped = None, {}
    wanted = cfg.get("estimate", False) or cfg.get("audit", False)
    why = _missing_reference(p) if wanted else "estimate is off"
    if why:
        skipped["estimate"] = why
    else:
        report = _estimate(cfg, p, out)
    checks = []
    for names, reason, checker in _theorems(cmd, cfg, p, trace, report, params, crits):
        if reason:
            skipped.update(dict.fromkeys(names, reason))
        else:
            checks.extend(checker())
    if cmd == "run-ppm" and "linear_cost" not in skipped:
        rb = RateBounds(report.mu_p, report.mu_q, report.mu_e, rho=p.weak_convexity)
        bounds = {"cost_factor": rb.omega(sched.at(0)), "dist_factor": rb.theta(sched.at(0))}
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
    if cfg.get("test_mode", False) and failed:
        print(f"bound-check failure: {failed}", file=sys.stderr)
        return 2
    return 0


def cmd_estimate(cmd: str, cfg: dict, out: Path, seed: int) -> int:
    """estimate, audit: write report.json; exit 1 when the problem has no reference."""
    if cmd == "audit":
        cfg = {**cfg, "audit": True}
    p = build_problem(cfg, seed)
    report = _estimate(cfg, p, out)
    _write_json(out / "summary.json", {"problem": p.name, "report": "report.json",
                                       "flags": report.to_json()["flags"]})
    return 0


def cmd_gen_data(_cmd: str, cfg: dict, out: Path, seed: int) -> int:
    """gen-data: write blob classification data as data.libsvm."""
    gen = _scalars(_typed(_get(cfg, "gen", required=True), dict, "gen"), "gen",
                   n=int, d=int, seed=int, separation=NUMBER)
    if gen.get("kind") != "blobs":
        raise ConfigError(f"unknown gen kind {gen.get('kind')!r}; gen-data makes only blobs",
                          field="gen.kind")
    dataset = make_blob_dataset(gen["n"], gen["d"], gen.get("seed", seed),
                                gen.get("separation", 2.0))
    save_libsvm(dataset, out / "data.libsvm")
    _write_json(out / "summary.json", {"kind": "blobs", "n": dataset.n_samples,
                                       "d": dataset.n_features})
    return 0


_COMMANDS = {"run-ppm": cmd_run, "run-ippm": cmd_run, "run-gd": cmd_run,
             "estimate": cmd_estimate, "audit": cmd_estimate, "gen-data": cmd_gen_data}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="proxlab", description=__doc__)
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        cfg = _scalars(load_config(args.config), "", nu=NUMBER, test_mode=bool, estimate=bool,
                       audit=bool)
        seed = args.seed if args.seed is not None else _typed(cfg.get("seed", 0), int, "seed")
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # an existing file, a file on the path, no permission
            raise ConfigError(f"cannot create --out {out}: {exc.strerror}")
        return _COMMANDS[args.command](args.command, cfg, out, seed)
    except (ConfigError, ValueError) as exc:  # values the library rejects
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except KeyError as exc:
        print(f"config error: missing field {exc}", file=sys.stderr)
        return 1
    except ProxlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
