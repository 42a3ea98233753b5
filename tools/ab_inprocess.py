"""Time two versions of proxlab against each other in one process, job by job.

    python3 tools/ab_inprocess.py PARENT_SRC CHANGE_SRC WORKLOAD [--seed S] [--passes N]

PARENT_SRC and CHANGE_SRC are directories holding a ``proxlab`` package (the
``src`` directory of a checkout).  Both packages are copied into a temporary
directory as ``proxlab_parent`` and ``proxlab_change`` and imported side by
side.  Every job of WORKLOAD's benchmark deck (``perfbench/bench_workloads.py``
at --seed, as ``tools/run_configs.py`` reads it) runs through each side's
``cli.main`` in turn, the side that goes first alternating from job to job, over
--passes timed passes after one warm-up pass, then through one untimed pass per
side under ``tracemalloc``.  Configs and outputs go to the temporary directory,
which is removed at the end; nothing is written under ``perfbench/``.

For each job kind, and for the whole pass, the report gives each side's median
time per timed pass, their ratio (parent over change: above 1 when the change
is faster) and the passes the change won.  A last row gives the warm-up pass
the same way, kept out of the medians: it pays each side's first-call costs
and the reference solve of each ML data set, which the benchmark's first timed
pass pays too, for every instance but that of its warm-up job.  A second table
gives, per job kind, each side's largest traced peak over its jobs (the most
memory numpy and Python held during one job above what they held when it
started) and their ratio, parent over change.  It follows the process's peak
RSS, which the benchmark reports, without the interpreter's and the libraries'
own pages.  A third table gives, per job kind, each side's prox inner
iterations summed over one more untimed pass, counted by wrapping the
``prox`` names the outer loops call (``ppm.prox`` and ``ippm.prox``), and
their ratio.  It shows the work a change saves as a count, which does not
vary from run to run as the times do.  That pass follows the warm-up, so the
reference solves the warm-up paid are not in it.

This is a development aid for a noisy shared host, where one process
alternating the two versions sees both under the same machine state.  It
decides nothing: the benchmark (``perfbench/run.py``, run on each commit) alone
decides a performance claim.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def load_cli(src: Path, into: Path, side: str):
    """The ``cli`` module of the proxlab package under ``src``, imported as proxlab_<side>."""
    name = f"proxlab_{side}"
    shutil.copytree(src / "proxlab", into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.cli")


def build_deck(workload: str, seed: int) -> list[dict]:
    sys.dont_write_bytecode = True  # import the benchmark's decks without writing there
    sys.path.insert(0, str(ROOT / "perfbench"))
    import bench_workloads

    return bench_workloads.build_deck(workload, seed)


def run_passes(clis: dict, deck: list[dict], passes: int, work: Path) -> tuple[list, dict]:
    """Per pass, the warm-up first, each side's seconds per job kind; and each side's
    nonzero exits."""
    for job in deck:
        config = work / f"cfg{job['id']}.json"
        config.write_text(json.dumps(job["cfg"]), encoding="utf-8")
        job["argv"] = [job["cmd"], "--config", str(config), "--out"]
    spent_per_pass, failed = [], dict.fromkeys(SIDES, 0)
    for done in range(passes + 1):  # pass 0 warms up
        spent = {side: dict.fromkeys((job["kind"] for job in deck), 0.0) for side in SIDES}
        for job in deck:
            for side in SIDES if (done + job["id"]) % 2 == 0 else SIDES[::-1]:
                out = work / "out" / side
                shutil.rmtree(out, ignore_errors=True)
                start = time.perf_counter()
                code = clis[side].main(job["argv"] + [str(out)])
                spent[side][job["kind"]] += time.perf_counter() - start
                failed[side] += code != 0
        spent_per_pass.append(spent)
    return spent_per_pass, failed


def traced_peaks(clis: dict, deck: list[dict], work: Path) -> dict:
    """Each side's largest traced peak (bytes above the job's start) per job kind,
    over one untimed pass."""
    peaks = {side: dict.fromkeys((job["kind"] for job in deck), 0) for side in SIDES}
    tracemalloc.start()
    try:
        for job in deck:
            for side in SIDES:
                out = work / "out" / side
                shutil.rmtree(out, ignore_errors=True)
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                clis[side].main(job["argv"] + [str(out)])
                peak = tracemalloc.get_traced_memory()[1] - start
                peaks[side][job["kind"]] = max(peaks[side][job["kind"]], peak)
    finally:
        tracemalloc.stop()
    return peaks


def inner_iterations(cli, deck: list[dict], out: Path) -> dict:
    """The prox inner iterations of one untimed pass of ``cli``'s side per job kind,
    counted through the outer loops' ``prox`` names."""
    package = cli.__name__.rpartition(".")[0]
    prox = importlib.import_module(f"{package}.prox").prox
    loops = [importlib.import_module(f"{package}.{name}") for name in ("ppm", "ippm")]
    counts = dict.fromkeys((job["kind"] for job in deck), 0)
    kind = None

    def counting(*args, **kwargs):
        result = prox(*args, **kwargs)
        counts[kind] += result.inner_iterations
        return result

    for loop in loops:
        loop.prox = counting
    try:
        for job in deck:
            kind = job["kind"]
            shutil.rmtree(out, ignore_errors=True)
            cli.main(job["argv"] + [str(out)])
    finally:
        for loop in loops:
            loop.prox = prox
    return counts


def work_report(counts: dict) -> str:
    rows = [(kind, *(counts[side][kind] for side in SIDES)) for kind in counts["parent"]]
    rows.append(("pass", *(sum(counts[side].values()) for side in SIDES)))
    width = max(len(kind) for kind, *_ in rows)
    lines = [f"{'kind':<{width}}  {'parent inner':>12}  {'change inner':>12}  {'ratio':>6}"]
    for kind, parent, change in rows:
        ratio = f"{parent / change:6.3f}" if change else f"{'-':>6}"
        lines.append(f"{kind:<{width}}  {parent:12d}  {change:12d}  {ratio}")
    return "\n".join(lines)


def memory_report(peaks: dict) -> str:
    width = max(map(len, peaks["parent"]))
    lines = [f"{'kind':<{width}}  {'parent MB':>10}  {'change MB':>10}  {'ratio':>6}"]
    for kind, parent in peaks["parent"].items():
        change = peaks["change"][kind]
        lines.append(f"{kind:<{width}}  {parent / 1e6:10.3f}  {change / 1e6:10.3f}"
                     f"  {parent / change:6.3f}")
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
    deck = build_deck(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix="ab_inprocess-") as tmp:
        work = Path(tmp)
        sys.path.insert(0, str(work))
        clis = {side: load_cli(src, work, side)
                for side, src in zip(SIDES, (args.parent_src, args.change_src))}
        spent_per_pass, failed = run_passes(clis, deck, args.passes, work)
        peaks = traced_peaks(clis, deck, work)
        counts = {side: inner_iterations(clis[side], deck, work / "out" / side)
                  for side in SIDES}
    print(report(spent_per_pass))
    print()
    print(memory_report(peaks))
    print()
    print(work_report(counts))
    if any(failed.values()):
        print(f"nonzero exits: {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
