import math

import numpy as np
import pytest

from proxlab import (BENCHMARKS, MLProblemParams, ProxlabError,
                     generate_lasso_data, load_libsvm, make_benchmark,
                     make_blob_dataset, make_ml_problem)
from proxlab.problem import as_point

from oracles import golden_section, grid_argmin, refined_grid_argmin_2d


def test_benchmark_metadata_constants(quad1d, wc_piecewise):
    md = quad1d.metadata
    assert (md["mu_s"], md["mu_r"], md["mu_e"], md["mu_p"], md["mu_q"]) == (1, 2, 0.5, 4, 1)
    wd = wc_piecewise.metadata
    assert wd["mu_q"] == 3.0 and wd["mu_e"] == 0.5
    assert wd["mu_p"] == pytest.approx(4.0 / 3.0)
    assert wc_piecewise.weak_convexity == 2.0
    assert float(wc_piecewise.project_solution([0.3])[0]) == -1.0


def test_grid_minimum_matches_f_star():
    # 10001-point scan on each documented bracket recovers the optimum.
    for name in BENCHMARKS:
        p = make_benchmark(name)
        lo, hi = p.metadata["bracket"]
        if p.dimension == 1:
            argmin, val = grid_argmin(lambda t: float(p.value([t])), lo, hi)
            sol = as_point(p.project_solution([argmin]))
            assert abs(val - p.f_star) <= 1e-8, name
            assert abs(argmin - float(sol[0])) <= 1e-4, name
        else:
            pt, val = refined_grid_argmin_2d(lambda v: float(p.value(v)), lo, hi,
                                             side=101, refinements=1)
            assert abs(val - p.f_star) <= 1e-8, name
            assert np.linalg.norm(pt - as_point(p.project_solution(pt))) <= 1e-4


def test_sine_quad_global_quadratic_growth(sine_quad):
    xs = np.linspace(-10, 10, 10_001)
    for x in xs:
        if abs(x) < 1e-12:
            continue
        gap = float(sine_quad.value([x]))
        assert gap >= 1.0 * x * x - 1e-12  # growth constant 1, tight near k*pi


def test_quad_quartic_not_globally_smooth(quad_quartic):
    # Derivative 2x^3 outside [-1,1]: secant slopes grow without bound.
    g = lambda t: float(quad_quartic.subgradient([t])[0])
    assert g(1.0) == pytest.approx(2.0)  # matches the inner piece at the seam
    assert (g(3.0) - g(2.0)) / 1.0 > 30.0


def test_generate_lasso_data_reference_sizes():
    a_mat, y, xhat = generate_lasso_data(10, 40, 5, seed=1)
    assert a_mat.shape == (10, 40) and y.shape == (10,)
    assert np.linalg.norm(y - a_mat @ xhat) == 0.0
    _, _, xhat2 = generate_lasso_data(20, 50, 10, seed=7)
    assert int(np.sum(xhat2 == 0.0)) == 10


def test_generate_lasso_data_bad_shape():
    with pytest.raises(ProxlabError):
        generate_lasso_data(2, 3, 3, seed=0)


def test_lasso_value_upper_bound():
    a_mat, y, xhat = generate_lasso_data(10, 40, 5, seed=1)
    p = make_ml_problem((a_mat, y), MLProblemParams("lasso", lam=10.0))
    # y = A xhat exactly, so the optimum is at most lam * ||xhat||_1.
    assert float(p.value(xhat)) == pytest.approx(10.0 * np.abs(xhat).sum())


def test_svm_toy_value_at_origin(svm_toy):
    assert float(svm_toy.value(np.zeros(2))) == pytest.approx(1.0)


def test_lasso_toy_minimizer(lasso_toy):
    # Oracle 1: per-coordinate soft threshold of y at lam = 1 -> (2, 0).
    soft = np.sign([3.0, 0.0]) * np.maximum(np.abs([3.0, 0.0]) - 1.0, 0.0)
    assert np.allclose(soft, [2.0, 0.0])
    # Oracle 2: refined grid search over [-4, 4]^2 agrees.
    pt, val = refined_grid_argmin_2d(lambda v: float(lasso_toy.value(v)), -4, 4,
                                     side=161, refinements=2)
    assert np.linalg.norm(pt - np.array([2.0, 0.0])) <= 1e-2
    assert val == pytest.approx(2.5, abs=1e-3)
    assert float(lasso_toy.value(np.array([2.0, 0.0]))) == pytest.approx(2.5)


def test_elastic_net_toy_minimizer(en_toy):
    # Golden section resolves the argmin to sqrt(eps); stationarity is sharper:
    # 0 = (x - 4) + 1 + x at x = 1.5.
    xmin = golden_section(lambda t: float(en_toy.value([t])), -4.0, 4.0)
    assert xmin == pytest.approx(1.5, abs=1e-6)
    assert (1.5 - 4.0) + 1.0 + 1.5 == 0.0


def test_ml_problem_shape_errors():
    for kind in ("svm", "lasso", "elastic_net"):
        for features, targets in ((np.eye(2), np.ones(3)), (np.ones(2), np.ones(2))):
            with pytest.raises(ProxlabError, match="^features .* vs labels "):
                make_ml_problem((features, targets), MLProblemParams(kind))


def test_dataset_validation():
    svm = MLProblemParams("svm")
    with pytest.raises(ProxlabError, match="^labels must be -1 or \\+1$"):
        make_ml_problem((np.ones((2, 2)), np.array([1.0, 2.0])), svm)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ProxlabError, match="^non-finite entries"):
            make_ml_problem((np.array([[bad, 0.0]]), np.array([1.0])), svm)
    p = make_ml_problem((np.ones((2, 2)), np.array([1.0, -1.0])), svm)
    with pytest.raises(ValueError):  # frozen buffers
        p.svm.signed_rows[0, 0] = 5.0
    with pytest.raises(ValueError):
        p.svm.squared_norms[0] = 5.0


@pytest.mark.parametrize("kind", ["lasso", "elastic_net"])
@pytest.mark.parametrize("where", ["A", "y"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_least_squares_data_must_be_finite(kind, where, bad):
    # A NaN in A built a problem whose value was NaN and whose prox raised
    # numpy's LinAlgError.
    a_mat, y, _ = generate_lasso_data(4, 3, 1, seed=0)
    (a_mat[0] if where == "A" else y)[1] = bad
    with pytest.raises(ProxlabError, match="^non-finite entries"):
        make_ml_problem((a_mat, y), MLProblemParams(kind))


@pytest.mark.parametrize("kind", ["svm", "lasso", "elastic_net"])
def test_writes_to_the_callers_data_change_nothing(kind):
    # The problem keeps read-only copies: the caller's arrays stay writable,
    # and a write moves neither the value nor the memoized Hessian out of step.
    features, targets = (make_blob_dataset(6, 3, seed=1) if kind == "svm"
                         else generate_lasso_data(6, 3, 1, seed=1)[:2])
    p = make_ml_problem((features, targets), MLProblemParams(kind))
    x = np.ones(3)
    before = p.value(x), p.min_norm_subgradient(x).tolist()
    features *= 2.0
    targets *= -1.0
    assert (p.value(x), p.min_norm_subgradient(x).tolist()) == before


def test_least_squares_data_whose_hessian_overflows_are_refused():
    # A^T A overflowed to inf, and the first prox raised numpy's LinAlgError.
    a_mat, y, _ = generate_lasso_data(6, 3, 1, seed=1)
    for kind in ("lasso", "elastic_net"):
        with pytest.raises(ValueError, match="rescale the data$"):
            make_ml_problem((a_mat * 1e160, y), MLProblemParams(kind))


def test_load_libsvm_basic(tmp_path):
    path = tmp_path / "toy.libsvm"
    path.write_text("+1 1:0.5 3:2\n-1\n", encoding="utf-8")
    features, labels = load_libsvm(path)
    assert features.shape == (2, 3)
    assert np.allclose(features[0], [0.5, 0.0, 2.0])
    assert np.allclose(features[1], [0.0, 0.0, 0.0])
    assert list(labels) == [1.0, -1.0]


def test_load_libsvm_zero_one_convention(tmp_path):
    path = tmp_path / "zo.libsvm"
    path.write_text("0 1:1\n1 2:1\n", encoding="utf-8")
    _, labels = load_libsvm(path)
    assert list(labels) == [-1.0, 1.0]


def test_load_libsvm_rejects_other_labels(tmp_path):
    path = tmp_path / "bad.libsvm"
    path.write_text("+2 1:1\n", encoding="utf-8")
    with pytest.raises(ProxlabError, match="^line 1: "):
        load_libsvm(path)


def test_load_libsvm_malformed_token(tmp_path):
    path = tmp_path / "tok.libsvm"
    path.write_text("+1 1:0.5\n-1 x:y\n", encoding="utf-8")
    with pytest.raises(ProxlabError, match="^line 2: "):
        load_libsvm(path)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_load_libsvm_rejects_non_finite_values(tmp_path, value):
    path = tmp_path / "inf.libsvm"
    path.write_text(f"+1 1:0.5\n-1 2:{value}\n", encoding="utf-8")
    with pytest.raises(ProxlabError, match="^line 2: "):
        load_libsvm(path)


def libsvm_text(data) -> str:
    """The (features, labels) data in LIBSVM text, with each nonzero feature written
    exactly."""
    features, labels = data
    return "".join(f"{label:+.0f} " + " ".join(f"{j + 1}:{v!r}" for j, v in enumerate(row) if v)
                   + "\n" for row, label in zip(features.tolist(), labels.tolist()))


def test_libsvm_round_trip(tmp_path):
    ds = make_blob_dataset(12, 3, seed=5)
    path = tmp_path / "rt.libsvm"
    path.write_text(libsvm_text(ds), encoding="utf-8")
    back = load_libsvm(path)
    assert np.array_equal(back[0], ds[0])
    assert np.array_equal(back[1], ds[1])


def test_blob_dataset_shape_and_balance():
    features, labels = make_blob_dataset(31, 4, seed=9)
    assert features.shape == (31, 4)
    assert int(np.sum(labels == 1.0)) == 15


def test_params_validation():
    with pytest.raises(ValueError):
        MLProblemParams("ridge")
    with pytest.raises(ValueError):
        MLProblemParams("lasso", lam=0.0)


@pytest.mark.parametrize("field", ["lam", "en_reg", "svm_reg"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
def test_params_reject_non_finite_weights_by_name(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
        MLProblemParams("elastic_net", **{field: value})


def test_unknown_benchmark():
    with pytest.raises(ValueError):
        make_benchmark("cubic")
