"""tools/ab_inprocess.py on two copies of this tree, over a two-job deck."""

import sys
import types
from pathlib import Path

import ab_inprocess
import pytest
import run_configs

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def runs(monkeypatch):
    """(side, config) of every cli run, in order.  The deck is two consecutive
    ``scalar_steps`` jobs; the side packages the tool imports are dropped after."""
    deck = run_configs.bench_decks().build_deck("scalar_steps", 1)[7:9]
    monkeypatch.setattr(ab_inprocess, "bench_decks",
                        lambda: types.SimpleNamespace(build_deck=lambda workload, seed: deck))
    monkeypatch.setattr(sys, "path", list(sys.path))
    calls, load_cli = [], ab_inprocess.load_cli

    def recorded(src, into, side):
        cli = load_cli(src, into, side)
        return types.SimpleNamespace(main=lambda argv: calls.append((side, argv[2])) or
                                     cli.main(argv))

    monkeypatch.setattr(ab_inprocess, "load_cli", recorded)
    yield calls
    for name in [name for name in sys.modules
                 if name.startswith(("proxlab_parent", "proxlab_change"))]:
        del sys.modules[name]


def test_every_pass_alternates_sides_and_one_tree_counts_equal_work(runs, capsys):
    passes = 2
    assert ab_inprocess.main([str(SRC), str(SRC), "scalar_steps", "--passes", str(passes)]) == 0
    # A warm-up pass, the timed passes and one untimed pass, each job on both sides.
    assert len(runs) == (passes + 2) * 4
    for number in range(passes + 2):
        pairs = [runs[4 * number:4 * number + 2], runs[4 * number + 2:4 * number + 4]]
        assert all(first[1] == second[1] and {first[0], second[0]} == set(ab_inprocess.SIDES)
                   for first, second in pairs)
        assert sorted(first[0] for first, _ in pairs) == ["change", "parent"]
    *_, work = capsys.readouterr().out.split("\n\n")
    rows = [line.split() for line in work.splitlines()[1:]]
    assert [row[0] for row in rows] == ["ippm.B.wc_piecewise", "ippm.A'.sine_quad", "pass"]
    assert all(int(row[1]) == int(row[2]) > 0 for row in rows)
