"""Time two versions of proxlab against each other in one process, job by job.

    python3 tools/ab_inprocess.py PARENT_SRC CHANGE_SRC WORKLOAD [--seed S] [--passes N]

PARENT_SRC and CHANGE_SRC are directories holding a ``proxlab`` package (the
``src`` directory of a checkout).  Both packages are copied into a temporary
directory as ``proxlab_parent`` and ``proxlab_change`` and imported side by
side.  One loop runs WORKLOAD's benchmark deck at --seed, loaded as
``tools/run_configs.py`` loads it: each job through each side's ``cli.main``
in turn, the side that goes first alternating with the pass number and the job
id, so that in every pass each side goes first on half the jobs.  It makes one
warm-up pass, --passes timed passes and one untimed pass.  Configs and outputs
go to the temporary directory, which is removed at the end; nothing is written
under ``perfbench/``.

The report has three tables, one row per job kind.  The time table gives each
side's median time per timed pass, their ratio (parent over change: above 1
when the change is faster) and the passes the change won, then a ``pass`` row
and a ``warm-up pass`` row, kept out of the medians: the warm-up pays each
side's first-call costs and the reference solve of each ML data set, which the
benchmark's first timed pass pays too, for every instance but that of its
warm-up job.  The memory table gives each side's largest traced peak in the
untimed pass (the most memory numpy and Python held during one job above what
they held when it started) and their ratio.  It follows the process's peak
RSS, which the benchmark reports, without the interpreter's and the libraries'
own pages.  Each traced job starts after ``gc.collect()``, so that its peak
does not depend on when the collector frees what earlier jobs left: two copies
of one tree read ratios within 0.98-1.02.  The work table gives each side's
prox inner iterations in the untimed pass, counted by wrapping ``ppm.prox``
and ``ippm.prox``, their ratio and a ``pass`` row: the work a change saves, as
a count that does not vary from run to run as times do.  The untimed pass
follows the warm-up, so the reference solves the warm-up paid are not in it.

This is a development aid for a noisy shared host, where one process
alternating the two versions sees both under the same machine state.  It
decides nothing: the benchmark (``perfbench/run.py``, run on each commit) alone
decides a performance claim.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import json
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from run_configs import bench_decks

SIDES = ("parent", "change")


def load_cli(src: Path, into: Path, side: str):
    """The ``cli`` module of the proxlab package under ``src``, imported as proxlab_<side>."""
    name = f"proxlab_{side}"
    shutil.copytree(src / "proxlab", into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.cli")


def job_runs(clis: dict, deck: list[dict], number: int, work: Path):
    """(side, kind, run) for each job of pass ``number`` on both sides in turn, the
    side that goes first alternating with the pass number and the job id.  Each
    ``run()`` runs the job into its side's emptied out directory and gives the
    exit code."""
    for job in deck:
        for side in SIDES if (number + job["id"]) % 2 == 0 else SIDES[::-1]:
            out = work / "out" / side
            shutil.rmtree(out, ignore_errors=True)
            yield side, job["kind"], functools.partial(clis[side].main, job["argv"] + [str(out)])


def per_side(deck: list[dict], value) -> dict:
    """``value`` for each side and job kind."""
    return {side: dict.fromkeys((job["kind"] for job in deck), value) for side in SIDES}


def timed_passes(clis: dict, deck: list[dict], passes: int, work: Path) -> tuple[list, dict]:
    """Per pass, the warm-up first, each side's seconds per job kind; and each side's
    nonzero exits."""
    spent_per_pass, failed = [], dict.fromkeys(SIDES, 0)
    for number in range(passes + 1):  # pass 0 warms up
        spent = per_side(deck, 0.0)
        for side, kind, run in job_runs(clis, deck, number, work):
            start = time.perf_counter()
            code = run()
            spent[side][kind] += time.perf_counter() - start
            failed[side] += code != 0
        spent_per_pass.append(spent)
    return spent_per_pass, failed


def untimed_pass(clis: dict, deck: list[dict], number: int, work: Path) -> tuple[dict, dict]:
    """Each side's largest traced peak (bytes above the job's start) and its prox
    inner iterations, per job kind, over pass ``number``, untimed.  Each job
    starts after a garbage collection."""
    peaks, counts, inner = per_side(deck, 0), per_side(deck, 0), 0
    proxes = {side: importlib.import_module(f"proxlab_{side}.prox").prox for side in SIDES}
    loops = {side: [importlib.import_module(f"proxlab_{side}.{name}") for name in ("ppm", "ippm")]
             for side in SIDES}

    def counting(prox):
        def call(*args, **kwargs):
            nonlocal inner
            result = prox(*args, **kwargs)
            inner += result.inner_iterations
            return result
        return call

    for side in SIDES:
        for loop in loops[side]:
            loop.prox = counting(proxes[side])
    tracemalloc.start()
    try:
        for side, kind, run in job_runs(clis, deck, number, work):
            gc.collect()
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            inner = 0
            run()
            peaks[side][kind] = max(peaks[side][kind], tracemalloc.get_traced_memory()[1] - start)
            counts[side][kind] += inner
    finally:
        tracemalloc.stop()
        for side in SIDES:
            for loop in loops[side]:
                loop.prox = proxes[side]
    return peaks, counts


def side_table(values: dict, unit: str, show, total: bool) -> str:
    """Each side's value per job kind (and their sum, with ``total``), shown by
    ``show`` under the unit ``unit``, and their ratio, parent over change."""
    rows = [(kind, *(values[side][kind] for side in SIDES)) for kind in values["parent"]]
    if total:
        rows.append(("pass", *(sum(values[side].values()) for side in SIDES)))
    width = max(len(kind) for kind, *_ in rows)
    cell = max(len(f"parent {unit}"), 10)
    lines = [f"{'kind':<{width}}  {'parent ' + unit:>{cell}}  {'change ' + unit:>{cell}}"
             f"  {'ratio':>6}"]
    for kind, parent, change in rows:
        ratio = f"{parent / change:6.3f}" if change else f"{'-':>6}"
        lines.append(f"{kind:<{width}}  {show(parent):>{cell}}  {show(change):>{cell}}  {ratio}")
    return "\n".join(lines)


def report(spent_per_pass: list) -> str:
    warm_up, *timed = spent_per_pass
    kinds = list(warm_up["parent"])
    rows = [(kind, [{side: t[side][kind] for side in SIDES} for t in timed]) for kind in kinds]
    rows.append(("pass", [{side: sum(t[side].values()) for side in SIDES} for t in timed]))
    rows.append(("warm-up pass", [{side: sum(warm_up[side].values()) for side in SIDES}]))
    width = max(len(kind) for kind, _ in rows)
    lines = [f"{'kind':<{width}}  {'parent ms':>10}  {'change ms':>10}  {'ratio':>6}  won"]
    for kind, per_pass in rows:
        med = {side: statistics.median(t[side] for t in per_pass) for side in SIDES}
        won = sum(t["change"] < t["parent"] for t in per_pass)
        lines.append(f"{kind:<{width}}  {med['parent'] * 1e3:10.3f}  {med['change'] * 1e3:10.3f}"
                     f"  {med['parent'] / med['change']:6.3f}  {won}/{len(per_pass)}")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=9)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    deck = bench_decks().build_deck(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix="ab_inprocess-") as tmp:
        work = Path(tmp)
        sys.path.insert(0, str(work))
        clis = {side: load_cli(src, work, side)
                for side, src in zip(SIDES, (args.parent_src, args.change_src))}
        for job in deck:
            config = work / f"cfg{job['id']}.json"
            config.write_text(json.dumps(job["cfg"]), encoding="utf-8")
            job["argv"] = [job["cmd"], "--config", str(config), "--out"]
        spent_per_pass, failed = timed_passes(clis, deck, args.passes, work)
        peaks, counts = untimed_pass(clis, deck, args.passes + 1, work)
    print(report(spent_per_pass))
    print()
    print(side_table(peaks, "MB", lambda peak: f"{peak / 1e6:.3f}", total=False))
    print()
    print(side_table(counts, "inner", str, total=True))
    if any(failed.values()):
        print(f"nonzero exits: {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
