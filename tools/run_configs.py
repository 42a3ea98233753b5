"""Run every shipped config and every benchmark deck job through the CLI.

    python3 tools/run_configs.py OUT

Each config under ``experiments/`` runs through the subcommands its keys
describe (the run, then ``estimate`` / ``audit`` when those flags are set), and
each job of the ``perfbench`` decks at seeds 1-3 runs as its one subcommand,
all through ``proxlab.cli.main`` in this process.  OUT must be new or empty,
so no file of an earlier run survives into the tree; an OUT that holds files
exits 2.  Every run writes into its own directory under OUT (the job's config
beside its outputs), ``OUT/exit_codes.txt`` lists each run's directory and
exit code, and the script exits 1 when any run exits nonzero.  Two trees made
from two versions of the code compare with one ``diff -r``, or with
``python3 tools/compare_runs.py A B``, which prints each differing file with
the largest relative change of its numeric CSV or JSON fields, then how many
files differ and the largest change of all, and exits 0 only when the trees
are identical.

Stdout gives one line per theorem row that a run's ``summary.json`` names:
how many runs asserted it, then how many skipped it for each reason, as in
``linear_cost: 5 asserted | 20 test_mode is off | 15 estimate is off``.  The
summary line comes last.  It ends with the total wall time of the runs and its
share per group (``experiments``, then each workload's decks), the process's
peak RSS and whether OpenSSL (``_hashlib``) was loaded, none of which OUT
records.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def subcommands(cfg: dict) -> list[str]:
    """The run a config's keys describe, then estimate / audit when those flags are set."""
    if "gd" in cfg:
        cmds = ["run-gd"]
    elif "criterion" in cfg:
        cmds = ["run-ippm"]
    elif "schedule" in cfg:
        cmds = ["run-ppm"]
    else:
        cmds = ["audit"]
    return cmds + [flag for flag in ("estimate", "audit") if cfg.get(flag) and flag not in cmds]


def runs():
    """(directory under OUT, subcommand, config) for every run, in a fixed order."""
    for path in sorted((ROOT / "experiments").glob("*.json")):
        cfg = json.loads(path.read_text(encoding="utf-8"))
        for cmd in subcommands(cfg):
            yield f"experiments/{path.stem}/{cmd}", cmd, cfg
    sys.dont_write_bytecode = True  # import the benchmark's decks without writing there
    sys.path.insert(0, str(ROOT / "perfbench"))
    import bench_workloads

    for workload in bench_workloads.WORKLOADS:
        for seed in SEEDS:
            for job in bench_workloads.build_deck(workload, seed):
                yield (f"decks/{workload}/seed{seed}/{job['id']:02d}-{job['kind']}",
                       job["cmd"], job["cfg"])


def coverage(out: Path, codes: list[tuple[str, int]]) -> list[str]:
    """One line per theorem row named in the runs' summaries, most asserted first:
    the runs that asserted it, then the runs that skipped it for each reason."""
    rows = {}  # row -> Counter of "asserted" and of each skip reason
    for name, code in codes:
        if code == 1:  # a run that exits 1 writes no summary
            continue
        summary = json.loads((out / name / "summary.json").read_text(encoding="utf-8"))
        for check in summary.get("checks", ()):
            rows.setdefault(check["name"], Counter())["asserted"] += 1
        for row, why in summary.get("skipped", {}).items():
            if row != "estimate":  # a skipped estimate is not a theorem row
                rows.setdefault(row, Counter())[why] += 1
    lines = []
    for row, counts in sorted(rows.items(), key=lambda item: (-item[1]["asserted"], item[0])):
        asserted = counts.pop("asserted", 0)
        reasons = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        lines.append(" | ".join([f"{row}: {asserted} asserted"] +
                                [f"{n} {why}" for why, n in reasons]))
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from proxlab.cli import main as proxlab_main

    out = Path(argv[0])
    if out.is_dir() and any(out.iterdir()):
        print(f"OUT {out} already holds files; give a new or empty directory", file=sys.stderr)
        return 2
    codes, group_s = [], {}
    start = time.perf_counter()
    for name, cmd, cfg in runs():
        run_start = time.perf_counter()
        run_dir = out / name
        run_dir.mkdir(parents=True, exist_ok=True)
        config = run_dir / "config.json"
        config.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        code = proxlab_main([cmd, "--config", str(config), "--out", str(run_dir)])
        codes.append((name, code))
        group = name.split("/")[1 if name.startswith("decks/") else 0]
        group_s[group] = group_s.get(group, 0.0) + time.perf_counter() - run_start
    wall = time.perf_counter() - start
    (out / "exit_codes.txt").write_text("".join(f"{name} {code}\n" for name, code in codes),
                                        encoding="utf-8")
    for line in coverage(out, codes):
        print(line)
    failed = sum(code != 0 for _, code in codes)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KB on Linux
    openssl = "loaded" if "_hashlib" in sys.modules else "not loaded"
    print(f"{len(codes)} runs, {failed} nonzero exit codes, "
          f"{wall:.2f} s ({', '.join(f'{group} {t:.2f} s' for group, t in group_s.items())}), "
          f"peak RSS {peak_mb:.1f} MB, _hashlib {openssl}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
