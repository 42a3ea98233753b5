import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from proxlab import (BENCHMARKS, ProblemSpec, ProxlabError, ProxResult, SvmParts,
                     distances_to_solution, make_benchmark, make_blob_dataset,
                     min_norm_subgradient, problem)
from proxlab.ppm import install_reference
from proxlab.problem import (SHORT_VECTOR, Piecewise1D, all_finite, as_point, batch_oracle,
                             nearest_zero, problem_from_1d, row_dots, vector_norm)

from oracles import box_least_squares, grid_argmin, svm_kink_terms
from test_prox import certificate_is_subgradient


def test_min_norm_smooth_quadratic(quad1d):
    element, norm = min_norm_subgradient(quad1d, [3.0])
    assert np.allclose(element, [6.0])
    assert norm == pytest.approx(6.0)


def test_min_norm_at_piecewise_kinks(wc_piecewise):
    # Subdifferential hulls are [0, 2] at -1 and [1, 3] at -0.5.
    assert min_norm_subgradient(wc_piecewise, [-1.0])[1] == 0.0
    assert min_norm_subgradient(wc_piecewise, [-0.5])[1] == pytest.approx(1.0)
    assert wc_piecewise.interval_1d(-1.0) == (0.0, 2.0)
    assert wc_piecewise.interval_1d(-0.5) == (1.0, 3.0)


def box_distance(intervals, shift):
    """dist(-shift, [lo_1, hi_1] x ... x [lo_d, hi_d]), one coordinate at a time."""
    return math.hypot(*(max(0.0, lo + s, -(hi + s)) for (lo, hi), s in zip(intervals, shift)))


@pytest.mark.parametrize("name,x,intervals", [
    ("wc_piecewise", [-0.5], [(1.0, 3.0)]),  # a kink
    ("lasso_toy", [0.5, 0.0], [(-1.5, -1.5), (-1.0, 1.0)]),  # x - y + sign(x), x_1 = 0
    ("aniso_quad", [0.5, -0.2], [(0.5, 0.5), (-1.8, -1.8)]),  # diag(1, 9) x
])
def test_shifted_min_norm_is_the_distance_to_the_subdifferential(request, name, x,
                                                                 intervals):
    p = request.getfixturevalue(name)
    for shift in np.random.default_rng(4).uniform(-4.0, 4.0, size=(40, len(x))):
        _, norm = min_norm_subgradient(p, x, shift=shift)
        assert norm == pytest.approx(box_distance(intervals, shift), abs=1e-12)


def test_shifted_svm_element_is_a_certificate(svm_toy):
    # Hinge terms 0 and 1 sit at their kink at x.  Their weights span
    # [-0.25, 0.25] in the first coordinate of the shifted set, so the
    # nearest element to zero has weights strictly inside [0, 1].
    x, z, c = np.array([1.0, 0.3]), np.array([1.375, -0.5]), 0.5
    element, _ = min_norm_subgradient(svm_toy, x, shift=(x - z) / c)
    assert element[0] == pytest.approx(0.0, abs=1e-12)
    res = ProxResult(x, element, float(np.linalg.norm(element)), 0)
    assert certificate_is_subgradient(svm_toy, res, z, c, np.random.default_rng(6))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(6, 40), d=st.sampled_from((2, 3, 10)), kinks=st.integers(1, 6),
       seed=st.integers(0, 2 ** 16), shifted=st.booleans())
def test_svm_min_norm_element_is_the_box_least_squares_minimum(n, d, kinks, seed, shifted):
    # x sits on the kinks of min(kinks, d) hinge terms.  A shifted element aims
    # at weights drawn from [-0.5, 1.5], so its optimum mixes weights at 0, at
    # 1 and free.
    rng = np.random.default_rng(seed)
    features, labels = make_blob_dataset(n, d, seed=seed)
    parts = SvmParts(labels[:, None] * features, reg=rng.uniform(0.1, 2.0))
    on = rng.choice(n, size=min(kinks, d), replace=False)
    x = rng.standard_normal(d)
    x += np.linalg.lstsq(parts.signed_rows[on], 1.0 - parts.signed_rows[on] @ x, rcond=None)[0]
    base, rows = svm_kink_terms(parts, x)
    shift = np.zeros(d)
    if shifted:
        noise = 0.1 * np.linalg.norm(rows, axis=1).mean() * rng.standard_normal(d)
        shift = rows.T @ rng.uniform(-0.5, 1.5, len(rows)) - base + noise
    want = box_least_squares(base + shift, rows)
    got = parts.min_norm_element(x, shift)
    scale = np.linalg.norm(base + shift) + np.linalg.norm(rows, axis=1).sum()
    assert np.linalg.norm(got - want) <= 1e-12 * scale


def test_every_builder_has_one_subgradient_routine(lasso_toy, en_toy, svm_toy):
    # Gradient descent steps along ``subgradient`` and every certificate reads
    # ``min_norm_subgradient``; each builder passes one routine as both.
    pw = Piecewise1D([0.0], [(lambda x: -x, lambda x: -1.0), (lambda x: x, lambda x: 1.0)])
    problems = [make_benchmark(name) for name in BENCHMARKS]
    problems += [problem_from_1d(pw, name="abs"), lasso_toy, en_toy, svm_toy]
    for p in problems:
        assert p.subgradient is p.min_norm_subgradient, p.name


def test_min_norm_domain_error():
    p = ProblemSpec(dimension=1,
                    value=lambda x: float(x[0] ** 2) if abs(x[0]) <= 1 else math.inf,
                    subgradient=lambda x: 2.0 * x,
                    min_norm_subgradient=lambda x, shift=0.0: 2.0 * x + shift)
    with pytest.raises(ProxlabError):
        min_norm_subgradient(p, [2.0])


def test_distance_examples(quad1d, wc_piecewise, sine_quad):
    assert distances_to_solution(quad1d, np.array([[2.0]])) == pytest.approx([2.0])
    assert distances_to_solution(wc_piecewise, np.array([[0.0]])) == pytest.approx([1.0])
    # Oracle: the global argmin of x^2 + 6 sin^2 x on [-10, 10] is 0.
    argmin, _ = grid_argmin(lambda t: t * t + 6 * math.sin(t) ** 2, -10, 10)
    assert abs(argmin) < 1e-9
    assert distances_to_solution(sine_quad, np.array([[math.pi]])) == pytest.approx([math.pi])


def test_distance_not_available(lasso_toy):
    with pytest.raises(ProxlabError):
        distances_to_solution(lasso_toy, np.zeros((1, 2)))


def test_point_coercion_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_point([1.0, math.nan])
    with pytest.raises(ValueError):
        as_point([math.inf])
    with pytest.raises(ValueError):  # a float64 vector, which is returned as it is
        as_point(np.array([0.0, -math.inf]))


def test_point_coercion_returns_a_float64_vector_as_it_is():
    v = np.array([1.0, -0.0])
    assert as_point(v) is v
    swapped = np.array([1.5, -2.0], dtype=">f8")
    for x in (swapped, v[::-1], v.astype(np.float32), 2.0, [[1.0, 2.0]]):
        w = as_point(x)
        assert type(w) is np.ndarray and w.dtype == np.float64 and w.ndim >= 1
        assert w.tolist() == np.atleast_1d(np.asarray(x, dtype=float)).tolist()


# Entries whose squares overflow, whose squares underflow, subnormals, and the
# non-finite values, besides any float.
EXTREME = st.sampled_from([1.7e308, -1.3e154, 1.4e154, 1e-160, -2.2e-308, 5e-324,
                           math.inf, -math.inf, math.nan])


@settings(max_examples=300, deadline=None)
@given(v=arrays(np.float64, st.integers(1, 60), elements=st.floats() | EXTREME))
def test_vector_norm_is_np_linalg_norm_bitwise(v):
    with np.errstate(over="ignore", invalid="ignore"):  # squares past 1.8e308
        norm, want = vector_norm(v), np.linalg.norm(v)
    assert type(norm) is float
    assert np.float64(norm).tobytes() == np.float64(want).tobytes()


@settings(max_examples=300, deadline=None)
@given(ab=arrays(np.float64, (8, 2), elements=st.floats() | EXTREME | st.just(-0.0)))
def test_row_dots_of_one_column_is_the_matmul_bitwise(ab):
    # One column takes the product path; the matmul is what every wider row takes.
    a, b = ab[:, :1], ab[:, 1:]
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = row_dots(a, b), np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("size", [1, 2, SHORT_VECTOR - 1, SHORT_VECTOR, SHORT_VECTOR + 1,
                                  3 * SHORT_VECTOR])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_all_finite_is_np_isfinite_all(size, bad):
    v = np.linspace(-1e307, 1e307, size)
    assert all_finite(v) is True and np.isfinite(v).all()
    for i in range(size):
        w = v.copy()
        w[i] = bad
        assert all_finite(w) is False and not np.isfinite(w).all()
        assert all_finite(w[None]) is False  # the same entries as one row
    assert all_finite(v[None]) is True


@pytest.mark.parametrize("lo,hi,want", [
    (2.0, 3.0, 2.0), (-3.0, -2.0, -2.0), (-1.0, 1.0, 0.0), (-0.0, -0.0, 0.0),
    (1.0, math.nan, 1.0), (math.nan, -1.0, -1.0),  # the NaN end is not the nearest
    (math.nan, math.nan, math.nan), (math.nan, 1.0, math.nan), (-1.0, math.nan, math.nan),
    (-math.inf, math.inf, 0.0), (math.inf, math.inf, math.inf)])
def test_nearest_zero_is_nan_when_it_depends_on_a_nan_end(lo, hi, want):
    assert np.float64(nearest_zero(lo, hi, 0.0)).tobytes() == np.float64(want).tobytes()


def constant_slope(v):
    """A piece with value 0 and slope v, on a float and on an array."""
    return (lambda x: 0.0 * x, lambda x: np.full(np.shape(x), v))


@settings(max_examples=300, deadline=None)
@given(lo=st.floats() | EXTREME | st.just(-0.0), hi=st.floats() | EXTREME | st.just(-0.0))
def test_1d_min_norm_batch_is_the_scalar_bitwise_nan_included(lo, hi):
    # At the breakpoint 0 the subdifferential is the hull of the slopes lo and
    # hi, on either side one of them; an interval with a NaN end is not swapped.
    p = problem_from_1d(Piecewise1D([0.0], [constant_slope(lo), constant_slope(hi)]),
                        name="slopes")
    xs = np.array([[-1.0], [0.0], [1.0]])
    want = np.array([p.min_norm_subgradient(x) for x in xs])
    assert p.min_norm_subgradients(xs).tobytes() == want.tobytes()
    assert math.isnan(want[1, 0]) == (math.isnan(lo) and not hi < 0.0
                                      or math.isnan(hi) and not lo > 0.0)


def test_projection_value_is_optimal():
    rng = np.random.default_rng(0)
    for name in BENCHMARKS:
        p = make_benchmark(name)
        for _ in range(20):
            x = rng.uniform(-2, 2, size=p.dimension)
            proj = as_point(p.project_solution(x))
            assert abs(float(p.value(proj)) - p.f_star) <= 1e-12, name


def test_min_norm_zero_on_solution_set():
    for name in BENCHMARKS:
        p = make_benchmark(name)
        sol = as_point(p.project_solution(np.zeros(p.dimension)))
        assert min_norm_subgradient(p, sol)[1] <= 1e-12, name


def test_subgradient_inequality_weakly_convex():
    # f(y) >= f(x) + <v, y-x> - (rho/2)|y-x|^2 for sampled pairs.
    rng = np.random.default_rng(1)
    for name in BENCHMARKS:
        p = make_benchmark(name)
        lo, hi = p.metadata.get("bracket", (-2.0, 2.0))
        for _ in range(200):
            x = rng.uniform(lo, hi, size=p.dimension)
            y = rng.uniform(lo, hi, size=p.dimension)
            v = np.asarray(p.subgradient(x), dtype=float)
            lhs = float(p.value(x)) + float(np.dot(v, y - x)) \
                - 0.5 * p.weak_convexity * float(np.dot(y - x, y - x))
            assert float(p.value(y)) >= lhs - 1e-9, name


def test_secant_inequality_on_triples():
    rng = np.random.default_rng(2)
    for name in BENCHMARKS:
        p = make_benchmark(name)
        lo, hi = p.metadata.get("bracket", (-2.0, 2.0))
        for _ in range(200):
            x = rng.uniform(lo, hi, size=p.dimension)
            y = rng.uniform(lo, hi, size=p.dimension)
            lam = float(rng.random())
            mid = lam * x + (1 - lam) * y
            bound = (lam * float(p.value(x)) + (1 - lam) * float(p.value(y))
                     + 0.5 * p.weak_convexity * lam * (1 - lam)
                     * float(np.dot(x - y, x - y)))
            assert float(p.value(mid)) <= bound + 1e-9, name


def test_piecewise_requires_matching_pieces():
    with pytest.raises(ValueError):
        Piecewise1D([0.0], [(lambda x: x, lambda x: 1.0)])


def test_install_reference_copies(quad1d, quad_quartic):
    q = install_reference(quad1d, 0.5, [2.0], 1e-13, 7)
    assert q is not quad1d and (q.f_star, quad1d.f_star) == (0.5, 0.0)
    assert q.metadata == {**quad1d.metadata, "reference_point": (2.0,),
                          "reference_residual": 1e-13, "reference_iterations": 7}
    assert "reference_point" not in quad1d.metadata
    # Strongly convex: the point is the solution set, in both oracle forms.
    assert q.project_solution(np.zeros(1)).tolist() == [2.0]
    assert batch_oracle(q, "project_solutions", np.zeros((2, 1))).tolist() == [[2.0]] * 2
    # Not strongly convex: the solution oracles stay as they were.
    r = install_reference(quad_quartic, 0.0, [2.0], 0.0, 1)
    assert (r.project_solution, r.project_solutions) == \
        (quad_quartic.project_solution, quad_quartic.project_solutions)


BATCH_FIELDS = ("values", "min_norm_subgradients", "project_solutions")


def probe_points(p, n, rng):
    """n random rows of p's dimension, with zeros, signed zeros and p's breakpoints."""
    xs = rng.uniform(-3.0, 3.0, (n, p.dimension))
    xs[:40] = 0.0
    xs[40:80, ::2] = -0.0
    xs[80:80 + len(p.breakpoints_1d), 0] = p.breakpoints_1d
    return xs


def oracle_fields(p):
    return [f for f in BATCH_FIELDS if f != "project_solutions" or p.project_solution is not None]


@pytest.mark.parametrize("name", [*BENCHMARKS, "en_f20", "lasso_f20"])
def test_batch_oracles_equal_the_scalar_oracles_bitwise(request, name):
    # Every row, signed zeros included, on random points, zeros and breakpoints;
    # the row fallback maps the scalar oracles, so it is the reference.
    p = make_benchmark(name) if name in BENCHMARKS else request.getfixturevalue(name)
    xs = probe_points(p, 1101, np.random.default_rng(5))
    scalar = replace(p, **dict.fromkeys(BATCH_FIELDS))
    for field in oracle_fields(p):
        assert getattr(p, field) is not None, field
        got, want = batch_oracle(p, field, xs), batch_oracle(scalar, field, xs)
        assert got.tobytes() == want.tobytes(), field


@pytest.mark.parametrize("name", [*BENCHMARKS, "en_f20", "lasso_f20", "svm_blobs"])
def test_batch_oracle_is_bitwise_independent_of_its_blocks(request, monkeypatch, name):
    # Blocks of 1 row, 7 rows and one block for all, taken over every row, a
    # run of rows starting at an odd row and every third row, give the bytes
    # of one call on every row (the SVM has no batch value or min-norm form and
    # maps its scalar oracles).
    p = make_benchmark(name) if name in BENCHMARKS else request.getfixturevalue(name)
    xs = probe_points(p, 120, np.random.default_rng(6))
    for field in oracle_fields(p):
        whole = batch_oracle(p, field, xs)
        for budget in (p.dimension, 7 * p.dimension, sys.maxsize):
            monkeypatch.setattr(problem, "BATCH_ELEMENTS", budget)
            for rows in (slice(None), slice(13, 111), slice(1, None, 3)):
                got = batch_oracle(p, field, xs[rows])
                assert got.tobytes() == whole[rows].tobytes(), (field, budget, rows)
            monkeypatch.undo()


def test_batch_oracle_calls_blocks_of_xs_into_a_fresh_array(monkeypatch, aniso_quad):
    # A budget of 9 elements is 4 rows at d = 2.  The blocks are views of xs;
    # the result is a fresh array.
    monkeypatch.setattr(problem, "BATCH_ELEMENTS", 9)
    xs = np.linspace(-1.0, 1.0, 22).reshape(11, 2)
    for rows, sizes in [(slice(None), [4, 4, 3]), (slice(3, None), [4, 4])]:
        blocks = []

        def values(block):
            blocks.append(block)
            return aniso_quad.values(block)

        out = batch_oracle(replace(aniso_quad, values=values), "values", xs[rows])
        assert [len(b) for b in blocks] == sizes
        assert all(np.shares_memory(b, xs) for b in blocks)
        assert not np.shares_memory(out, xs)
        assert out.tobytes() == aniso_quad.values(xs[rows]).tobytes()


def test_batch_oracle_copies_a_read_only_projection(svm_blobs):
    # The reference projection is a read-only broadcast view of one point;
    # distances_to_solution writes into what batch_oracle returns.
    xs = np.zeros((3, svm_blobs.dimension))
    assert not svm_blobs.project_solutions(xs).flags.writeable
    out = batch_oracle(svm_blobs, "project_solutions", xs)
    assert out.flags.writeable and out.tobytes() == svm_blobs.project_solutions(xs).tobytes()


def test_a_projection_without_its_batch_form_maps_the_rows(quad1d):
    # A replaced solution oracle drops the batch form, which would disagree.
    q = replace(quad1d, project_solution=lambda x: np.ones(1), project_solutions=None)
    assert batch_oracle(q, "project_solutions", np.zeros((3, 1))).tolist() == [[1.0]] * 3
