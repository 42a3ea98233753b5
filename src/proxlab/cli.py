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
from .ippm import InexactCriterion, check_ippm_linear, check_ippm_sublinear, run_ippm
from .ppm import (IterationTrace, RateBounds, StepSchedule, check_linear_rates,
                  check_one_step, check_sublinear_bound, reference_solution, run_ppm)
from .problem import ProblemSpec
from .prox import InnerTolerance
from .regularity import EstimationPlan, audit_implications, estimate_constants, plan_for
from .traceio import emit_trace_csv
from .zoo import (BENCHMARKS, MLProblemParams, generate_lasso_data, load_libsvm,
                  make_benchmark, make_blob_dataset, make_ml_problem, save_libsvm)


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}")


def _get(cfg: dict, key: str, default=None, required: bool = False):
    if key in cfg:
        return cfg[key]
    if required:
        raise ConfigError("missing required field", field=key)
    return default


def build_problem(cfg: dict, seed: int) -> ProblemSpec:
    prob = _get(cfg, "problem", required=True)
    if "benchmark" in prob:
        name = prob["benchmark"]
        if name not in BENCHMARKS:
            raise ConfigError(f"unknown benchmark {name!r}; pick one of {BENCHMARKS}",
                              field="problem.benchmark")
        return make_benchmark(name, aniso_l=prob.get("aniso_l", 9.0))
    if "ml" in prob:
        kind = prob["ml"]
        data_cfg = prob.get("data", {})
        params = MLProblemParams(kind=kind, **prob.get("params", {}))
        if kind in ("lasso", "elastic_net"):
            gen = data_cfg.get("lasso")
            if gen is None:
                raise ConfigError("regression problems need data.lasso generation sizes",
                                  field="problem.data")
            a_mat, y, _ = generate_lasso_data(gen["n"], gen["m"], gen["s"],
                                              gen.get("seed", seed))
            problem = make_ml_problem(kind, (a_mat, y), params)
        elif kind == "svm":
            if "libsvm" in data_cfg:
                dataset = load_libsvm(data_cfg["libsvm"])
            elif "blobs" in data_cfg:
                blobs = data_cfg["blobs"]
                dataset = make_blob_dataset(blobs["n"], blobs["d"],
                                            blobs.get("seed", seed),
                                            blobs.get("separation", 2.0))
            else:
                raise ConfigError("svm needs data.libsvm or data.blobs",
                                  field="problem.data")
            problem = make_ml_problem("svm", dataset, params)
        else:
            raise ConfigError(f"unknown ml kind {kind!r}", field="problem.ml")
        ref = cfg.get("reference", {})
        if ref.get("skip", False):
            return problem
        return reference_solution(problem, effort=ref.get("effort", 400),
                                  c_ref=ref.get("c", 1.0))
    raise ConfigError("problem needs either 'benchmark' or 'ml'", field="problem")


def build_schedule(cfg: dict) -> StepSchedule:
    sched = _get(cfg, "schedule", {"constant": 1.0})
    if "constant" in sched:
        return StepSchedule.constant(sched["constant"])
    if "sequence" in sched:
        return StepSchedule.from_sequence(sched["sequence"])
    if "geometric" in sched:
        return StepSchedule.geometric(sched["geometric"]["c0"],
                                      sched["geometric"]["growth"])
    raise ConfigError("schedule needs constant / sequence / geometric", field="schedule")


def build_x0(cfg: dict, p: ProblemSpec) -> np.ndarray:
    x0 = _get(cfg, "x0", "zeros")
    if isinstance(x0, str):
        if x0 == "zeros":
            return np.zeros(p.dimension)
        if x0 == "ones":
            return np.ones(p.dimension)
        raise ConfigError(f"unknown x0 preset {x0!r}", field="x0")
    arr = np.asarray(x0, dtype=float)
    if arr.shape != (p.dimension,):
        raise ConfigError(f"x0 has shape {arr.shape}, problem dimension is {p.dimension}",
                          field="x0")
    return arr


def build_criteria(cfg: dict):
    crit = _get(cfg, "criterion", required=True)
    entries = crit if isinstance(crit, list) else [crit]
    return tuple(InexactCriterion(kind=e["kind"],
                                  eps0=e.get("eps0", 0.1),
                                  delta0=e.get("delta0", 0.5),
                                  gamma=e.get("gamma", 0.7)) for e in entries)


def _ratio_summary(xs: list[float | None]) -> dict:
    vals = [v for v in xs if v is not None and v > 1e-14]
    ratios = [b / a for a, b in zip(vals, vals[1:])]
    if not ratios:
        return {"count": 0}
    return {"count": len(ratios), "max": max(ratios), "min": min(ratios),
            "last": ratios[-1]}


def _check_to_json(check) -> dict:
    return {"name": check.name, "ok": check.all_ok,
            "checked": len(check.indices), "first_violation": check.first_violation}


def _maybe_report(cfg: dict, p: ProblemSpec, out: Path, report=None) -> dict | None:
    """Write report.json when the config asks for estimates; reuse ``report`` if given."""
    if not (cfg.get("estimate", False) or cfg.get("audit", False)):
        return None
    if report is None:
        report = estimate_constants(p, _build_plan(cfg, p))
    body = report.to_json()
    if cfg.get("audit", False):
        rho = p.weak_convexity
        body["audit"] = [{"relation": c.relation, "expected": c.expected,
                          "observed": c.observed, "status": c.status}
                         for c in audit_implications(report, rho)]
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return body


def _build_plan(cfg: dict, p: ProblemSpec) -> EstimationPlan:
    est = cfg.get("estimation", {})
    plan = plan_for(p, count=est.get("count", 10_001), nu=est.get("nu", cfg.get("nu")))
    if "bracket" in est:
        plan = replace(plan, bracket=tuple(est["bracket"]))
    return replace(plan, tau_s=est.get("tau_s", plan.tau_s))


def _write_summary(out: Path, body: dict) -> None:
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _finish_run(cfg: dict, p: ProblemSpec, trace: IterationTrace, out: Path,
                checks: list, bounds: dict | None = None, report=None) -> int:
    emit_trace_csv(trace, out / "trace.csv")
    _maybe_report(cfg, p, out, report)
    summary = {
        "problem": p.name,
        "iterations": len(trace) - 1,
        "stop_reason": trace.stop_reason,
        "final_value": trace.values[-1],
        "final_gap": trace.gaps()[-1],
        "cost_ratio": _ratio_summary(trace.gaps()),
        "dist_ratio": _ratio_summary(trace.dists()),
        "bounds": bounds or {},
        "checks": [_check_to_json(c) for c in checks],
    }
    failed = [c for c in checks if not c.all_ok]
    summary["bounds_ok"] = not failed
    _write_summary(out, summary)
    if cfg.get("test_mode", False) and failed:
        print(f"bound-check failure: {[c.name for c in failed]}", file=sys.stderr)
        return 2
    return 0


def cmd_run_ppm(cfg: dict, out: Path, seed: int) -> int:
    p = build_problem(cfg, seed)
    sched = build_schedule(cfg)
    x0 = build_x0(cfg, p)
    inner = InnerTolerance(target_residual=cfg.get("inner_target", 1e-10),
                           max_inner_iterations=cfg.get("max_inner", 100_000))
    trace = run_ppm(p, x0, sched, max_iter=cfg.get("max_iter", 500), inner_tol=inner)
    checks = []
    bounds = report = None
    if cfg.get("test_mode", False) and p.f_star is not None and p.project_solution is not None:
        if p.weak_convexity == 0:  # the envelope is a convex result
            checks.append(check_sublinear_bound(trace))
        checks.append(check_one_step(trace))
        if cfg.get("estimate", False):
            report = estimate_constants(p, _build_plan(cfg, p))
            nu = cfg.get("nu", math.inf)
            cost, dist = check_linear_rates(trace, report, nu)
            checks.extend([cost, dist])
            rb = RateBounds(mu_p=report.mu_p, mu_q=report.mu_q,
                            mu_e=report.mu_e, rho=p.weak_convexity)
            c0 = sched.at(0)
            bounds = {"cost_factor": rb.omega(c0), "dist_factor": rb.theta(c0)}
    return _finish_run(cfg, p, trace, out, checks, bounds=bounds, report=report)


def cmd_run_ippm(cfg: dict, out: Path, seed: int) -> int:
    p = build_problem(cfg, seed)
    sched = build_schedule(cfg)
    crits = build_criteria(cfg)
    trace = run_ippm(p, build_x0(cfg, p), sched, crits,
                     max_iter=cfg.get("max_iter", 500),
                     test_mode=cfg.get("test_mode", False), seed=seed)
    checks = []
    report = None
    if cfg.get("test_mode", False) and p.f_star is not None and p.project_solution is not None:
        if any(c.absolute for c in crits) and p.weak_convexity == 0:  # a convex result
            checks.append(check_ippm_sublinear(trace))
        if any(not c.absolute for c in crits) and cfg.get("estimate", False):
            report = estimate_constants(p, _build_plan(cfg, p))
            if report.mu_q > 0.5 * p.weak_convexity:  # the contraction needs beta > 0
                checks.append(check_ippm_linear(trace, report, cfg.get("nu", math.inf)))
    return _finish_run(cfg, p, trace, out, checks, report=report)


def cmd_run_gd(cfg: dict, out: Path, seed: int) -> int:
    p = build_problem(cfg, seed)
    gd_cfg = _get(cfg, "gd", required=True)
    params = GDParams(
        lipschitz=gd_cfg.get("lipschitz", p.smoothness),
        mu=gd_cfg.get("mu", p.metadata.get("gd_mu")),
        beta=gd_cfg.get("beta", p.metadata.get("gd_beta")),
        step=gd_cfg.get("step"),
    )
    trace = run_gd(p, build_x0(cfg, p), params, iters=cfg.get("max_iter", 50))
    checks = []
    rate_note = None
    if cfg.get("test_mode", False):
        rates = verify_gd_rates(trace, params)
        if rates.step_rule_valid:
            checks.extend([rates.dist, rates.cost])
        else:
            rate_note = "step outside (0, 2/L): precondition breach, bounds not asserted"
    code = _finish_run(cfg, p, trace, out, checks,
                       bounds={"dist_factor": params.omega_dist,
                               "cost_factor": params.omega_cost,
                               "step": params.step_size,
                               "step_rule_valid": params.step_rule_valid})
    if rate_note:
        print(rate_note, file=sys.stderr)
    return code


def cmd_estimate(cfg: dict, out: Path, seed: int, audit: bool = False) -> int:
    cfg = dict(cfg)
    cfg["estimate"] = True
    if audit:
        cfg["audit"] = True
    p = build_problem(cfg, seed)
    body = _maybe_report(cfg, p, out)
    _write_summary(out, {"problem": p.name, "report": "report.json",
                         "flags": body["flags"]})
    return 0


def cmd_gen_data(cfg: dict, out: Path, seed: int) -> int:
    gen = _get(cfg, "gen", required=True)
    kind = gen.get("kind")
    if kind == "lasso":
        a_mat, y, xhat = generate_lasso_data(gen["n"], gen["m"], gen["s"],
                                             gen.get("seed", seed))
        np.savez(out / "data.npz", A=a_mat, y=y, xhat=xhat)
        _write_summary(out, {"kind": "lasso", "A_shape": list(a_mat.shape),
                             "zeros_in_xhat": int(np.sum(xhat == 0.0))})
        return 0
    if kind == "blobs":
        dataset = make_blob_dataset(gen["n"], gen["d"], gen.get("seed", seed),
                                    gen.get("separation", 2.0))
        save_libsvm(dataset, out / "data.libsvm")
        _write_summary(out, {"kind": "blobs", "n": dataset.n_samples,
                             "d": dataset.n_features})
        return 0
    raise ConfigError(f"unknown gen kind {kind!r}", field="gen.kind")


_COMMANDS = {
    "run-ppm": cmd_run_ppm,
    "run-ippm": cmd_run_ippm,
    "run-gd": cmd_run_gd,
    "estimate": lambda cfg, out, seed: cmd_estimate(cfg, out, seed, audit=False),
    "audit": lambda cfg, out, seed: cmd_estimate(cfg, out, seed, audit=True),
    "gen-data": cmd_gen_data,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="proxlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True)
        cmd.add_argument("--out", required=True)
        cmd.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        seed = args.seed if args.seed is not None else cfg.get("seed", 0)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out, seed)
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
