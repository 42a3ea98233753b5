"""tools/compare_runs.py on two small hand-made run trees."""

import json
import math

import pytest
from compare_runs import main, relative_change


def make_tree(root, gap=1.0, f_last="2.0", code=0, extra=False):
    run = root / "experiments" / "quad1d" / "run-ppm"
    run.mkdir(parents=True)
    (run / "summary.json").write_text(json.dumps(
        {"problem": "quad1d", "final_gap": gap, "checks": [{"max_ratio": 0.5}],
         "bounds": {"dist_factor": "inf"}}), encoding="utf-8")
    (run / "trace.csv").write_text(f"k,f\n0,1.0\n1,{f_last}\n", encoding="utf-8")
    (root / "exit_codes.txt").write_text(f"experiments/quad1d/run-ppm {code}\n",
                                         encoding="utf-8")
    if extra:
        (run / "report.json").write_text("{}", encoding="utf-8")
    return root


def test_identical_trees_exit_zero(tmp_path, capsys):
    a, b = make_tree(tmp_path / "a"), make_tree(tmp_path / "b")
    assert main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == "0 files differ; largest relative change 0\n"


def test_differing_trees_give_each_file_and_the_largest_change(tmp_path, capsys):
    a = make_tree(tmp_path / "a")
    b = make_tree(tmp_path / "b", gap=0.9, f_last="2.5", code=1, extra=True)
    assert main([str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "exit_codes.txt: -",
        f"experiments/quad1d/run-ppm/report.json: only in {b}",
        "experiments/quad1d/run-ppm/summary.json: 0.1 at final_gap",
        "experiments/quad1d/run-ppm/trace.csv: 0.2 at row 2 column f",
        "4 files differ; largest relative change 0.2",
    ]


def test_relative_change():
    assert relative_change(0.0, 0.0) == 0.0 and relative_change(math.nan, math.nan) == 0.0
    assert relative_change(-2.0, 2.0) == 2.0
    assert relative_change(1.0, 1.0 + 2.0 ** -52) == pytest.approx(2.0 ** -52, rel=1e-12)
    assert relative_change(math.inf, 1.0) == math.inf and relative_change(math.nan, 0.0) == math.inf


def test_usage_errors_exit_two(tmp_path):
    assert main([str(tmp_path)]) == 2
    assert main([str(tmp_path), str(tmp_path / "missing")]) == 2
