import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from proxlab import (MLProblemParams, generate_lasso_data, make_benchmark, make_blob_dataset,
                     make_ml_problem, reference_solution)


# The oracles the estimator and the trace read, with whether each is a batch form.
COUNTED_ORACLES = {"value": False, "project_solution": False, "min_norm_subgradient": False,
                   "values": True, "project_solutions": True, "min_norm_subgradients": True}


def counted(p, tally: Counter):
    """Copy of p whose oracles in COUNTED_ORACLES add to tally[name] a pair
    (calls, rows) per call: one row for a scalar oracle, len(xs) for a batch."""

    def wrap(name, oracle):
        def call(x, *args, **kwargs):
            calls, rows = tally[name] or (0, 0)
            tally[name] = (calls + 1, rows + (len(x) if COUNTED_ORACLES[name] else 1))
            return oracle(x, *args, **kwargs)
        return call

    return replace(p, **{name: wrap(name, getattr(p, name)) for name in COUNTED_ORACLES
                         if getattr(p, name) is not None})


@pytest.fixture(scope="session")
def quad1d():
    return make_benchmark("quad1d")


def with_solution_point(p, x_star):
    """Copy of p (f_star kept) whose solution oracle projects every point onto x_star,
    for replaying the bounds against one minimizer of a problem without a unique one."""
    x_star = np.array(x_star, dtype=float)
    return replace(p, project_solution=lambda x: x_star,
                   project_solutions=lambda xs: np.broadcast_to(x_star, xs.shape))


@pytest.fixture(scope="session")
def quad_quartic():
    return make_benchmark("quad_quartic")


@pytest.fixture(scope="session")
def sine_quad():
    return make_benchmark("sine_quad")


@pytest.fixture(scope="session")
def wc_piecewise():
    return make_benchmark("wc_piecewise")


@pytest.fixture(scope="session")
def aniso_quad():
    return make_benchmark("aniso_quad")


@pytest.fixture(scope="session")
def lasso_toy():
    # A = I_2, y = (3, 0), lam = 1: minimizer (2, 0), optimal value 2.5.
    return make_ml_problem((np.eye(2), np.array([3.0, 0.0])),
                           MLProblemParams("lasso", lam=1.0))


@pytest.fixture(scope="session")
def lasso_toy_ref(lasso_toy):
    return reference_solution(lasso_toy)


@pytest.fixture(scope="session")
def en_toy():
    # A = I_1, y = 4, lam = 1, quadratic weight 1: minimizer 1.5.
    return make_ml_problem((np.eye(1), np.array([4.0])),
                           MLProblemParams("elastic_net", lam=1.0, en_reg=1.0))


@pytest.fixture(scope="session")
def en_toy_ref(en_toy):
    return reference_solution(en_toy)


@pytest.fixture(scope="session")
def svm_toy():
    data = (np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
            np.array([1.0, -1.0, 1.0, -1.0]))
    return make_ml_problem(data, MLProblemParams("svm", svm_reg=1.0))


@pytest.fixture(scope="session")
def svm_toy_ref(svm_toy):
    return reference_solution(svm_toy)


@pytest.fixture(scope="session")
def lasso_f20(request):
    a_mat, y, xhat = generate_lasso_data(20, 50, 10, seed=7)
    problem = make_ml_problem((a_mat, y), MLProblemParams("lasso", lam=10.0))
    return reference_solution(problem)


@pytest.fixture(scope="session")
def en_f20():
    a_mat, y, _ = generate_lasso_data(20, 50, 10, seed=7)
    problem = make_ml_problem((a_mat, y),
                              MLProblemParams("elastic_net", lam=10.0, en_reg=1.0))
    return reference_solution(problem)


@pytest.fixture(scope="session")
def svm_blobs():
    data = make_blob_dataset(200, 10, seed=3, separation=1.0)
    problem = make_ml_problem(data, MLProblemParams("svm", svm_reg=1.0))
    return reference_solution(problem)
