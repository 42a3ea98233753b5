"""Every shipped config runs through its subcommands and meets its bounds."""

import json
from pathlib import Path

import pytest
import run_configs
from run_configs import subcommands

from proxlab.cli import main

CONFIGS = sorted((Path(__file__).parent.parent / "experiments").glob("*.json"))

# Every bound a run subcommand can assert; each is either checked or skipped.
ROWS = {
    "run-ppm": ("sublinear_envelope", "one_step_improvement", "linear_cost", "linear_dist"),
    "run-ippm": ("ippm_best_iterate", "ippm_linear_dist", "inexact_one_step"),
    "run-gd": ("gd_dist", "gd_cost"),
}


def load_strict(path: Path) -> dict:
    """Parse a JSON artifact, refusing the non-standard NaN / Infinity literals."""

    def reject(constant):
        raise ValueError(f"{path.name} is not strict JSON: {constant}")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


def test_configs_are_found():
    assert len(CONFIGS) >= 10


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
def test_shipped_config(tmp_path, path):
    cfg = json.loads(path.read_text(encoding="utf-8"))
    for cmd in subcommands(cfg):
        out = tmp_path / cmd
        assert main([cmd, "--config", str(path), "--out", str(out)]) == 0, cmd
        summary = load_strict(out / "summary.json")
        if (out / "report.json").is_file():
            load_strict(out / "report.json")
        if cmd.startswith("run-"):
            assert (out / "trace.csv").is_file()
            assert summary["bounds_ok"], cmd
            assert summary["asserted"] > 0 or not cfg.get("test_mode"), cmd  # no vacuous pass
            skipped = dict(summary["skipped"])
            assert (skipped.pop("estimate", None) is None) == (out / "report.json").is_file()
            names = [c["name"] for c in summary["checks"]] + list(skipped)
            assert sorted(names) == sorted(ROWS[cmd]), cmd
        else:
            assert (out / "report.json").is_file()


QUAD1D, CUBIC = {"problem": {"benchmark": "quad1d"}}, {"problem": {"benchmark": "cubic"}}


@pytest.mark.parametrize("configs,codes", [([QUAD1D], [0]), ([QUAD1D, CUBIC], [0, 1])])
def test_run_configs_exits_one_when_a_run_fails(tmp_path, monkeypatch, capsys, configs, codes):
    runs = [(f"experiments/c{i}/estimate", "estimate", cfg) for i, cfg in enumerate(configs)]
    monkeypatch.setattr(run_configs, "runs", lambda: iter(runs))
    assert run_configs.main([str(tmp_path)]) == (1 if any(codes) else 0)
    assert (tmp_path / "exit_codes.txt").read_text() == "".join(
        f"{name} {code}\n" for (name, _, _), code in zip(runs, codes))
    out = capsys.readouterr().out
    assert out.startswith(f"{len(runs)} runs, {sum(codes)} nonzero exit codes")


def test_run_configs_prints_theorem_row_coverage(tmp_path, monkeypatch, capsys):
    run = {"problem": {"benchmark": "quad1d"}, "schedule": {"constant": 1.0}, "max_iter": 5}
    runs = [("experiments/on/run-ppm", "run-ppm", {**run, "test_mode": True}),
            ("experiments/off/run-ppm", "run-ppm", run),
            ("experiments/on/estimate", "estimate", run)]
    monkeypatch.setattr(run_configs, "runs", lambda: iter(runs))
    assert run_configs.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    # Most asserted first; the summary line stays last.
    assert lines[:-1] == [
        "one_step_improvement: 1 asserted | 1 test_mode is off",
        "sublinear_envelope: 1 asserted | 1 test_mode is off",
        "linear_cost: 0 asserted | 1 estimate is off | 1 test_mode is off",
        "linear_dist: 0 asserted | 1 estimate is off | 1 test_mode is off"]
    assert lines[-1].startswith("3 runs, 0 nonzero exit codes")


def test_run_configs_refuses_an_out_that_holds_files(tmp_path, monkeypatch, capsys):
    # A file of an earlier run would survive where a change no longer writes
    # it, and two trees would compare identical.
    stale = tmp_path / "experiments" / "old" / "report.json"
    stale.parent.mkdir(parents=True)
    stale.write_text("{}", encoding="utf-8")
    monkeypatch.setattr(run_configs, "runs", lambda: pytest.fail("a run started"))
    assert run_configs.main([str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and str(tmp_path) in captured.err
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [stale]
