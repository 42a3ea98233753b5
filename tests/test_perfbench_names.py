"""The benchmark under ``perfbench/`` finds the names it uses in this package.

Its tracer patches names of ``proxlab`` by their strings and its files import
others, so a change that drops or renames one fails here, in this suite, and
not only under ``python -m pytest perfbench``.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import proxlab.cli  # noqa: F401  (the tracer patches names of the loaded modules)
from proxlab import (BENCHMARKS, MLProblemParams, generate_lasso_data, make_benchmark,
                     make_blob_dataset, make_ml_problem)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_bench_trace():
    """perfbench/bench_trace.py as a module, imported without writing bytecode there."""
    spec = importlib.util.spec_from_file_location("bench_trace", PERFBENCH / "bench_trace.py")
    module = importlib.util.module_from_spec(spec)
    write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write
    return module


bench_trace = load_bench_trace()


def test_the_tracer_installs_and_uninstalls():
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        patched = list(tracer._undo)
        assert patched and all(getattr(owner, attr) is not original
                               for owner, attr, original in patched)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)


def problem(name):
    if name in BENCHMARKS:
        return make_benchmark(name)
    data = (make_blob_dataset(20, 3, seed=1) if name == "svm"
            else generate_lasso_data(8, 3, 1, seed=1))
    return make_ml_problem(data, MLProblemParams(name))


@pytest.mark.parametrize("name", [*BENCHMARKS, "svm", "lasso", "elastic_net"])
def test_the_tracer_counts_the_oracles_of_every_problem(name):
    tracer = bench_trace.Tracer()
    p = problem(name)
    q = tracer.wrap_problem(p)
    x = np.full(p.dimension, 0.25)
    assert q.value(x) == p.value(x)
    assert q.min_norm_subgradient(x).tolist() == p.min_norm_subgradient(x).tolist()
    assert sorted((oracle, calls) for (_, oracle), (calls, _) in tracer.leaves.items()) \
        == [("min_norm", 1), ("value", 1)]


def test_the_names_the_benchmark_imports_exist():
    imported = [(node.module, alias.name) for path in sorted(PERFBENCH.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("proxlab")
                for alias in node.names]
    assert ("proxlab", "StepSchedule") in imported  # test_bench.py's imports were read
    missing = [f"{module}.{name}" for module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert not missing
