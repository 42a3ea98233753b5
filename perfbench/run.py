"""proxlab benchmark: three workloads through ``proxlab.cli.main``.

Run from the repository root:

    python3 perfbench/run.py --workload ml_solve --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: the next job (one CLI
subcommand on a generated config) starts only after the previous one has
returned, in this one process.  The loop makes whole passes over the
workload's seeded deck (``bench_workloads.py``), as many as take about
``--seconds`` at the reference speed, and checks every job's outputs
(``bench_checks.py``).  Times are reported in seconds at the reference machine
speed (``machine_speed``); the wall times as read are kept beside them.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs a fixed
number of deck passes untraced and then traced (``bench_trace.py``) and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object; full results, the recorded environment
and (traced) the spans go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import bench_workloads

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3
# Job time of one deck pass at the reference speed.  A run makes
# round(--seconds / NOMINAL_PASS_S) passes, so its job count, the percentile
# of its tail and (traced) its counts are functions of the arguments alone.
NOMINAL_PASS_S = {"ml_solve": 17.0, "estimate_audit": 9.5, "scalar_steps": 1.5}
TAIL_BEYOND = 10
# Machine-speed kernel and its median time on the reference machine (2-vCPU
# Intel Xeon VM, Python 3.11.7, numpy 2.4.6), measured over 1000 calls.
KERNEL_LOOPS = 300
KERNEL_REF_S = 1.3e-3

UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s", "job_tail_s": "s",
         "ok_frac": "ratio", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=bench_workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run as a set-up probe launched at this CLOCK_MONOTONIC time.
    parser.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class Session:
    """Imported package, generated deck and a scratch directory for one process."""

    def __init__(self, workload: str, seed: int, root: Path, tag: str):
        import proxlab.cli
        from proxlab.traceio import read_trace_csv

        from bench_checks import check_job

        self.cli = proxlab.cli
        self.read_trace = read_trace_csv
        self.check_job = check_job
        self.deck = bench_workloads.build_deck(workload, seed)
        self.work = root / ".perfbench" / "work" / f"{workload}-s{seed}-{tag}-{os.getpid()}"
        (self.work / "cfg").mkdir(parents=True, exist_ok=True)
        for job in self.deck:
            job["path"] = str(self.work / "cfg" / f"{job['id']}.json")
            with open(job["path"], "w", encoding="utf-8") as fh:
                json.dump(job["cfg"], fh)
        self.out = self.work / "out"
        self.last_trace = None
        self._originals = {}
        if any(job["check"].get("kkt") for job in self.deck):
            self._capture_final_step()

    def _capture_final_step(self):
        """Keep the trace the CLI's run call returns, for the KKT check."""
        for name in ("run_ppm", "run_ippm"):
            original = self._originals[name] = getattr(self.cli, name)

            def capture(*args, _original=original, **kwargs):
                self.last_trace = _original(*args, **kwargs)
                return self.last_trace

            setattr(self.cli, name, capture)

    def run(self, job: dict, tracer=None) -> tuple[float, list[str]]:
        """Run one job; return its wall time and the problems its check found."""
        if self.out.exists():
            shutil.rmtree(self.out)
        self.last_trace = None
        argv = [job["cmd"], "--config", job["path"], "--out", str(self.out)]
        log = io.StringIO()
        code, problems = None, []
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    code = tracer.call("cli.main", "cli", self.cli.main, argv)
            except Exception:
                problems = ["raised: " + traceback.format_exc(limit=3).strip()]
            elapsed = time.perf_counter() - start
        if code is not None:
            read = self.read_trace
            if tracer is not None:
                read = tracer.wrap(read, "traceio.read", "traceio")
            problems = self.check_job(job, self.out, code, self.last_trace, read)
            if problems and log.getvalue():
                problems.append("stderr: " + log.getvalue().strip()[-300:])
        return elapsed, problems

    def close(self):
        for name, original in self._originals.items():
            setattr(self.cli, name, original)
        shutil.rmtree(self.work, ignore_errors=True)


@dataclass
class Passes:
    times: list[float]  # per job, reference seconds
    pass_times: list[float]  # per pass, reference seconds
    walls: list[float]  # per job, wall seconds as read
    pass_walls: list[float]  # per pass, wall seconds as read


def run_passes(session: Session, passes: int, failures: list, tracer=None) -> Passes:
    """Job times and pass times of ``passes`` whole deck passes.

    The machine speed is read before the first job of a pass and after every
    job (see ``machine_speed``).  A job's wall time is scaled by the median of
    the readings just before and just after it and the median reading of its
    pass, so one stray reading does not move it.  Whole passes keep the job
    mix identical in every run.
    """
    out = Passes([], [], [], [])
    for done in range(passes):
        walls, speeds = [], [machine_speed()]
        for job in session.deck:
            if tracer is not None:
                tracer.job = f"{done}.{job['id']}"
            elapsed, problems = session.run(job, tracer)
            speeds.append(machine_speed())
            walls.append(elapsed)
            if problems:
                failures.append({"pass": done, "job": job["id"], "kind": job["kind"],
                                 "problems": problems})
        typical = statistics.median(speeds)
        times = [wall * statistics.median((before, after, typical))
                 for wall, before, after in zip(walls, speeds, speeds[1:])]
        for job, scaled in zip(session.deck, times):
            job.setdefault("times", []).append(scaled)
        out.times += times
        out.walls += walls
        out.pass_times.append(sum(times))
        out.pass_walls.append(sum(walls))
    return out


def pass_count(args, share: float = 1.0) -> int:
    """Whole passes that fill ``share`` of --seconds at the reference speed."""
    return max(1, round(share * args.seconds / NOMINAL_PASS_S[args.workload]))


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND jobs beyond it.

    That is the (TAIL_BEYOND + 1)-th slowest job, at percentile
    100 (n - TAIL_BEYOND) / n.  Below 3 TAIL_BEYOND jobs that percentile is
    under p67, not a tail: the median is reported instead.
    """
    n = len(times)
    if n < 3 * TAIL_BEYOND:
        return statistics.median(times), 50.0
    return sorted(times)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def machine_speed() -> float:
    """Current speed of this machine relative to the reference machine.

    The host is shared: on the 2-vCPU Xeon VM this benchmark was defined on,
    one job took from 0.30 s to 0.50 s within a minute, and the median pass
    time of identical 30 s runs ranged over 50%.  A fixed kernel of small
    numpy calls, dict and list work, independent of the package, slows down
    by nearly the same factor.  Job times are therefore multiplied by the
    kernel's reference time over its measured time (median of three runs):
    they are reported in seconds at the reference speed, and the results file
    keeps the wall times as read under ``raw``.
    """
    import numpy

    vec = numpy.linspace(0.0, 1.0, 64)
    readings = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0.0
        for i in range(KERNEL_LOOPS):
            acc += float(numpy.dot(numpy.sqrt(vec * vec + 1.0), vec)) + i
            _ = {"i": i, "acc": [acc]}
        readings.append(time.perf_counter() - start)
    return KERNEL_REF_S / statistics.median(readings)


def _clock() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def measure_setup(args) -> list[tuple[float, float]]:
    """(reference, wall) seconds from process launch to ready-for-the-first-
    timed-job, per probe."""
    samples = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
               "--setup-probe", repr(_clock())]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        try:
            out, err = proc.communicate(timeout=170)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe {i} failed ({proc.returncode}): {err.strip()}")
        wall, speed = (float(v) for v in out.split()[-2:])
        samples.append((wall * speed, wall))
    return samples


def setup_probe(args, root: Path) -> int:
    """Child of measure_setup: import, generate the deck, run the warm-up job.

    Prints the wall time from launch to ready and the machine speed read
    right after.
    """
    session = Session(args.workload, args.seed, root, "probe")
    try:
        _, problems = session.run(session.deck[0])
        ready = _clock() - args.setup_probe
        speed = machine_speed()
    finally:
        session.close()
    if problems:
        print(f"warm-up job failed: {problems}", file=sys.stderr)
        return 1
    print(ready, speed)
    return 0


def environment(root: Path, args) -> dict:
    import numpy

    env = {"nproc": os.cpu_count(), "cpu": platform.processor() or platform.machine(),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "threads": {var: os.environ.get(var) for var in THREAD_VARS},
           "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "commit": _commit(root)}
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name")), env["cpu"])
    with contextlib.suppress(KeyError, TypeError, AttributeError):
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    return env


def _commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def untraced(args, session: Session) -> tuple[dict, dict]:
    failures = []
    run = run_passes(session, pass_count(args), failures)
    tail_s, tail_pct = tail(run.times)
    n = len(run.times)
    metrics = {
        "jobs_per_s": len(session.deck) / statistics.median(run.pass_times),
        "job_p50_s": statistics.median(run.times),
        "job_tail_s": tail_s,
        "ok_frac": (n - len(failures)) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {"jobs_per_s": len(session.deck) / statistics.median(run.pass_walls),
           "job_p50_s": statistics.median(run.walls), "job_tail_s": tail(run.walls)[0]}
    detail = {"jobs": n, "passes": len(run.pass_times), "pass_s": run.pass_times,
              "pass_wall_s": run.pass_walls, "raw": raw,
              "deck": [(job["kind"], job["times"]) for job in session.deck],
              "tail_percentile": tail_pct, "fail_frac": len(failures) / n,
              "failures": failures[:20], "n_failed": len(failures)}
    return metrics, detail


def traced(args, session: Session, spans_path: Path) -> tuple[dict, dict]:
    from bench_trace import Tracer

    passes = pass_count(args, share=0.5)
    failures = []
    plain = run_passes(session, passes, failures)
    tracer = Tracer()
    tracer.install()
    try:
        traced_run = run_passes(session, passes, failures, tracer)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    n = len(traced_run.times)
    metrics = tracer.metrics(n)
    plain_rate = len(plain.times) / sum(plain.pass_times)
    traced_rate = n / sum(traced_run.pass_times)
    metrics["bench.trace_overhead_frac"] = (plain_rate - traced_rate) / plain_rate
    detail = {"jobs": n, "passes": passes, "deck": len(session.deck),
              "untraced_jobs_per_s": plain_rate, "traced_jobs_per_s": traced_rate,
              "fail_frac": len(failures) / (2 * n), "failures": failures[:20],
              "n_failed": len(failures), "spans": str(spans_path)}
    return metrics, detail


def per_layer_units(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("us_per_inner_iter", "us_per_sample")):
        return "us"
    if name.endswith(("_frac", "grad_per_iter", "_per_job")) or name.startswith("share."):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    root = Path.cwd()
    src = root / "src"
    if not (src / "proxlab" / "__init__.py").is_file():
        print("error: no proxlab sources at ./src/proxlab; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.setup_probe is not None:
        return setup_probe(args, root)

    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setup = measure_setup(args) if not args.trace else []
    session = Session(args.workload, args.seed, root, "main")
    try:
        warm_elapsed, warm_problems = session.run(session.deck[0])
        if args.trace:
            metrics, detail = traced(args, session, results / f"{stem}-spans.jsonl")
            units = {name: per_layer_units(name) for name in metrics}
        else:
            metrics, detail = untraced(args, session)
            metrics["setup_s"] = statistics.median(ref for ref, _ in setup)
            detail["raw"]["setup_s"] = statistics.median(wall for _, wall in setup)
            units = UNITS
    finally:
        session.close()
    detail["warm_up"] = {"s": warm_elapsed, "problems": warm_problems}
    detail["setup_samples_s"] = setup
    detail["environment"] = environment(root, args)
    failed = detail["n_failed"]
    attempted = detail["jobs"] * (2 if args.trace else 1)
    report = {"correct": failed == 0 and not warm_problems, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in sorted(metrics)}}
    with open(results / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**report, "detail": detail}, fh, indent=2, default=str)

    samples = {"setup_s": len(setup), "peak_rss_mb": 1}
    print(f"# {args.workload} seed={args.seed} trace={args.trace} jobs={detail['jobs']} "
          f"passes={detail['passes']} failed={failed}")
    raw = detail.get("raw", {})
    for name in sorted(metrics):
        wall = f"  (wall {raw[name]:.6g})" if name in raw else ""
        print(f"{name:40s} {metrics[name]:14.6g} {units[name]:6s} "
              f"n={samples.get(name, detail['jobs'])}{wall}")
    if not args.trace:
        print(f"{'fail_frac':40s} {detail['fail_frac']:14.6g} {'ratio':6s} n={detail['jobs']}")
        print(f"# job_tail_s is the p{detail['tail_percentile']:.1f} job time")
    for failure in detail["failures"]:
        print(f"# FAILED {failure}", file=sys.stderr)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
