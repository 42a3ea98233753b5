"""Job decks for the three benchmark workloads.

A deck is the list of jobs one run cycles through.  It is a pure function of
the workload name and the workload seed: the same seed gives the same configs.
Every job is one ``proxlab`` subcommand with a generated JSON config, which
is all the program ever receives.

Each deck has a fixed composition (so every seed exercises the same layers
in the same proportions); the seed draws the order and the free parameters
of each job.  The problem *data* of ``ml_solve`` come from a fixed catalog of
instances, because one instance's solve time varies tenfold with its data
seed (0.5 s to 7.8 s for the lasso shape), and a run completes only about
two dozen of these jobs: with freshly drawn data the run-to-run spread of the
throughput would be set by which instances happened to be drawn.
"""

from __future__ import annotations

import random

WORKLOADS = ("ml_solve", "estimate_audit", "scalar_steps")

# The workload whose job shape covers each shipped config under experiments/.
COVERAGE = {
    "elastic_net_medium.json": "ml_solve",
    "lasso_large.json": "ml_solve",
    "lasso_medium.json": "ml_solve",
    "lasso_small.json": "ml_solve",
    "svm_synthetic.json": "ml_solve",
    "quad1d_audit.json": "estimate_audit",
    "sine_quad_audit.json": "estimate_audit",
    "wc_piecewise_audit.json": "estimate_audit",
    "ippm_quad1d_aprime.json": "scalar_steps",
    "gd_aniso.json": "scalar_steps",
}

# ml_solve catalog: the shipped instance of each shape and its neighbours.
LASSO_SEEDS = (11, 12, 13)  # lasso_large: n=30, m=60, s=15
EN_SEEDS = (7, 8)  # elastic_net_medium: n=20, m=50, s=10
SVM_SEEDS = (3,)  # hinge-loss blobs at n=2000, d=20

BENCHMARKS = ("quad1d", "quad_quartic", "sine_quad", "wc_piecewise", "aniso_quad")

# Inexactness budgets and horizons of the shipped iPPM configs.  Horizons
# stop at 40: beyond it a gamma = 0.5 budget falls below what the inner
# solvers can certify in double precision, which raises today (see README).
GAMMA_RANGE = (0.5, 0.7)
EPS0 = 0.1
DELTA0 = 0.5
IPPM_HORIZON = (20, 40)


def _job(kind: str, cmd: str, cfg: dict, **check) -> dict:
    return {"kind": kind, "cmd": cmd, "cfg": cfg, "check": check}


def _lead(jobs: list[dict], rng: random.Random, kind: str) -> list[dict]:
    """Shuffle, then move the first job whose kind starts with ``kind`` to the
    front: deck[0] is also the warm-up job, so set-up time stays comparable."""
    rng.shuffle(jobs)
    first = next(i for i, job in enumerate(jobs) if job["kind"].startswith(kind))
    jobs.insert(0, jobs.pop(first))
    return jobs


def _regression_cfg(kind: str, n: int, m: int, s: int, data_seed: int) -> dict:
    params = {"lam": 10.0}
    if kind == "elastic_net":
        params["en_reg"] = 1.0
    return {"problem": {"ml": kind,
                        "data": {"lasso": {"n": n, "m": m, "s": s, "seed": data_seed}},
                        "params": params},
            "x0": "zeros", "max_iter": 60,
            "reference": {"effort": 600, "c": 1.0}, "seed": data_seed}


def _svm_cfg(data_seed: int) -> dict:
    return {"problem": {"ml": "svm",
                        "data": {"blobs": {"n": 2000, "d": 20, "seed": data_seed,
                                           "separation": 1.0}},
                        "params": {"svm_reg": 1.0}},
            "x0": "zeros", "max_iter": 60,
            "reference": {"effort": 400, "c": 1.0}, "seed": data_seed}


def _ml_solve(rng: random.Random) -> list[dict]:
    instances = ([("lasso", _regression_cfg("lasso", 30, 60, 15, s), 0.16,
                   {"n": 30, "m": 60, "s": 15, "seed": s, "lam": 10.0, "en_reg": 0.0})
                  for s in LASSO_SEEDS]
                 + [("elastic_net", _regression_cfg("elastic_net", 20, 50, 10, s), 0.16,
                     {"n": 20, "m": 50, "s": 10, "seed": s, "lam": 10.0, "en_reg": 1.0})
                    for s in EN_SEEDS]
                 + [("svm", _svm_cfg(s), 1.0, None) for s in SVM_SEEDS])
    # One instance's cost depends strongly on its iPPM budget, so the budget
    # is fixed at the middle of the shipped ranges rather than drawn: the seed
    # draws the order and the step sizes.  The second elastic net runs iPPM
    # only: an odd deck puts the median of a two-pass run on the two runs of
    # one job (1.25 s) instead of between two jobs 6% apart.
    jobs = []
    for kind, base, c_ship, data in instances:
        for cmd in ("run-ppm", "run-ippm"):
            if kind == "elastic_net" and base["seed"] != EN_SEEDS[0] and cmd == "run-ppm":
                continue
            cfg = dict(base)
            cfg["schedule"] = {"constant": round(c_ship * rng.uniform(0.97, 1.03), 6)}
            if cmd == "run-ippm":
                cfg["criterion"] = {"kind": "A'", "eps0": EPS0, "gamma": 0.6}
                cfg["max_iter"] = 30
            jobs.append(_job(f"{kind}{base['seed']}.{cmd}", cmd, cfg, kkt=data))
    return _lead(jobs, rng, f"elastic_net{EN_SEEDS[0]}.run-ippm")


def _estimate_audit(rng: random.Random) -> list[dict]:
    jobs = [_job(f"grid.{b}", cmd, {"problem": {"benchmark": b}}, constants=b)
            for b in BENCHMARKS for cmd in ("estimate", "audit")]
    sign = rng.choice((-1.0, 1.0))
    jobs.append(_job("quad1d_audit", "run-ppm", {
        "problem": {"benchmark": "quad1d"},
        "schedule": {"constant": round(rng.uniform(0.5, 1.5), 6)},
        "x0": [round(sign * rng.uniform(0.5, 1.0), 6)],
        "max_iter": 20, "nu": 1.0, "test_mode": True, "estimate": True, "audit": True,
    }, constants="quad1d"))
    jobs.append(_job("random.elastic_net", "estimate",
                     _regression_cfg("elastic_net", 20, 50, 10, EN_SEEDS[0])))
    return _lead(jobs, rng, "grid.quad1d")


def _x0_1d(rng: random.Random, lo: float, hi: float) -> list[float]:
    return [round(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi), 6)]


def _scalar_steps(rng: random.Random) -> list[dict]:
    jobs = []
    # Exact PPM, long horizons: steps c <= 0.01 keep the gap above the
    # stopping threshold for 500 steps, so every horizon is realised.  The
    # checks cost O(K^2), so the set of horizons is fixed and only assigned
    # by the seed.  quad_quartic is the convex benchmark without a closed-form
    # prox (bisection); the one-step improvement check asserts convexity, so
    # the weakly convex benchmarks run under iPPM only.
    for horizon in rng.sample((300, 400, 500), 3):
        jobs.append(_job("ppm.bisect.quad_quartic", "run-ppm", {
            "problem": {"benchmark": "quad_quartic"},
            "schedule": {"constant": round(rng.uniform(0.005, 0.01), 6)},
            "x0": _x0_1d(rng, 0.5, 1.5), "max_iter": horizon, "test_mode": True}))
    for horizon in rng.sample((100, 300), 2):
        jobs.append(_job("ppm.closed.quad1d", "run-ppm", {
            "problem": {"benchmark": "quad1d"},
            "schedule": {"constant": round(rng.uniform(0.005, 0.01), 6)},
            "x0": _x0_1d(rng, 0.5, 1.0), "max_iter": horizon, "test_mode": True}))
    # Inexact PPM under every rule on every 1-d benchmark, budgets from the
    # shipped ranges.  Test mode replays the best-iterate envelope for the
    # absolute rules, a convex result: rule A (which needs test mode) runs on
    # the convex benchmarks only, and the primed rules use test mode there.
    steps = {"quad1d": (0.5, 1.5), "quad_quartic": (0.5, 1.5),
             "sine_quad": (0.02, 0.08), "wc_piecewise": (0.1, 0.45)}
    convex = ("quad1d", "quad_quartic")
    for rule in ("A'", "B'", "A", "B"):
        for b in (convex if rule == "A" else steps):
            jobs.append(_job(f"ippm.{rule}.{b}", "run-ippm", {
                "problem": {"benchmark": b},
                "criterion": {"kind": rule, "eps0": EPS0, "delta0": DELTA0,
                              "gamma": round(rng.uniform(*GAMMA_RANGE), 6)},
                "schedule": {"constant": round(rng.uniform(*steps[b]), 6)},
                "x0": _x0_1d(rng, 0.5, 1.0), "max_iter": rng.randint(*IPPM_HORIZON),
                "test_mode": rule in ("A", "B") or b in convex,
                "seed": rng.randint(0, 2 ** 31 - 1)}))
    # Gradient descent on the 2-d anisotropic quadratic.
    for _ in range(2):
        jobs.append(_job("gd.aniso_quad", "run-gd", {
            "problem": {"benchmark": "aniso_quad"},
            "gd": {"mu": 1.0, "beta": 1.0},
            "x0": [round(rng.uniform(-1.0, 1.0), 6), round(rng.uniform(-1.0, 1.0), 6)],
            "max_iter": rng.randint(30, 80), "test_mode": True}))
    return _lead(jobs, rng, "ippm.")


_DECKS = {"ml_solve": _ml_solve, "estimate_audit": _estimate_audit,
             "scalar_steps": _scalar_steps}


def build_deck(workload: str, seed: int) -> list[dict]:
    """The seeded job list of one workload; job ids are deck positions."""
    if workload not in _DECKS:
        raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    deck = _DECKS[workload](rng)
    for i, job in enumerate(deck):
        job["id"] = i
    return deck
