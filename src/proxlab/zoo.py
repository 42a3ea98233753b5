"""Benchmark functions and machine-learning problems with known constants.

Every benchmark ships with its optimal value, a solution oracle and the
regularity constants that hold for it, attached as metadata so tests can
assert against them.  ML problems (hinge-loss SVM, l1 least squares,
l1+l2 least squares) are assembled from data; their reference values get
installed later by a high-accuracy solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ProxlabError
from .problem import (CompositeParts, Piecewise1D, ProblemSpec, SvmParts, default_rng,
                      problem_from_1d, row_dots, row_matvecs)


def make_benchmark(name: str) -> ProblemSpec:
    """Construct a benchmark problem by name (see BENCHMARKS)."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown benchmark {name!r}")
    return _BUILDERS[name]()


# The pieces below take a float (the scalar oracles and the 1-d prox) or an
# array of points (the batch oracles of Piecewise1D) and must give the same
# values on both.  ``x ** n`` on an array is not the libm pow that ``**`` on a
# float calls and can differ in the last digit, so powers use np.float_power,
# which is the same function on both.

def _quad1d() -> ProblemSpec:
    pw = Piecewise1D([], [(lambda x: x * x, lambda x: 2.0 * x)])
    return problem_from_1d(
        pw,
        smoothness=2.0,
        strong_convexity=2.0,
        f_star=0.0,
        project_solution=lambda x: np.zeros(1),
        project_solutions=np.zeros_like,
        prox_closed_form=lambda z, c: z / (1.0 + 2.0 * c),
        name="quad1d",
        metadata={"mu_s": 1.0, "mu_r": 2.0, "mu_e": 0.5, "mu_p": 4.0, "mu_q": 1.0,
                  "bracket": (-1.0, 1.0), "nu": 1.0},
    )


def _quad_quartic() -> ProblemSpec:
    quart = (lambda x: 0.5 * np.float_power(x, 4) + 0.5,
             lambda x: 2.0 * np.float_power(x, 3))
    quad = (lambda x: x * x, lambda x: 2.0 * x)
    pw = Piecewise1D([-1.0, 1.0], [quart, quad, quart])
    return problem_from_1d(
        pw,
        f_star=0.0,
        project_solution=lambda x: np.zeros(1),
        project_solutions=np.zeros_like,
        name="quad_quartic",
        metadata={"mu_s": 1.0, "mu_r": 2.0, "mu_e": 0.5, "mu_p": 4.0, "mu_q": 1.0,
                  "bracket": (-1.8, 1.8), "nu": math.inf},
    )


def _sine_quad() -> ProblemSpec:
    # f'' = 2 + 12 cos(2x) ranges over [-10, 14]: 10-weakly convex, 14-smooth.
    pw = Piecewise1D([], [(lambda x: x * x + 6.0 * np.float_power(np.sin(x), 2),
                           lambda x: 2.0 * x + 6.0 * np.sin(2.0 * x))])
    return problem_from_1d(
        pw,
        weak_convexity=10.0,
        smoothness=14.0,
        f_star=0.0,
        project_solution=lambda x: np.zeros(1),
        project_solutions=np.zeros_like,
        name="sine_quad",
        metadata={"mu_q": 1.0, "bracket": (-10.0, 10.0), "nu": math.inf},
    )


def _wc_piecewise() -> ProblemSpec:
    outer = (lambda x: 3.0 * np.float_power(x + 1.0, 2), lambda x: 6.0 * (x + 1.0))
    cap = (lambda x: -x * x + 1.0, lambda x: -2.0 * x)
    pw = Piecewise1D([-1.0, -0.5], [outer, cap, outer])
    return problem_from_1d(
        pw,
        weak_convexity=2.0,
        f_star=0.0,
        project_solution=lambda x: -np.ones(1),
        project_solutions=lambda xs: np.full_like(xs, -1.0),
        name="wc_piecewise",
        metadata={"mu_q": 3.0, "mu_e": 0.5, "mu_p": 4.0 / 3.0, "mu_r": 2.0,
                  "bracket": (-2.0, 0.5), "nu": 1.0},
    )


def _aniso_quad() -> ProblemSpec:
    diag = np.array([1.0, 9.0])  # f(x) = (x_1^2 + 9 x_2^2) / 2

    def gradient(x, shift=0.0):  # one point, or one row per point
        return diag * np.asarray(x, dtype=float) + shift

    def values(xs):
        return 0.5 * row_dots(np.broadcast_to(diag, xs.shape), xs ** 2)

    return ProblemSpec(
        dimension=2,
        value=lambda x: float(0.5 * diag.dot(np.asarray(x, dtype=float) ** 2)),
        subgradient=gradient,
        min_norm_subgradient=gradient,
        smoothness=9.0,
        strong_convexity=1.0,
        f_star=0.0,
        project_solution=lambda x: np.zeros(2),
        values=values,
        min_norm_subgradients=gradient,
        project_solutions=np.zeros_like,
        prox_closed_form=lambda z, c: np.asarray(z) / (1.0 + c * diag),
        name="aniso_quad(9)",
        metadata={"mu_q": 0.5, "mu_p": 2.0, "mu_e": 1.0, "mu_r": 1.0, "mu_s": 0.5,
                  "bracket": (-1.0, 1.0), "nu": math.inf},
    )


_BUILDERS = {"quad1d": _quad1d, "quad_quartic": _quad_quartic, "sine_quad": _sine_quad,
             "wc_piecewise": _wc_piecewise, "aniso_quad": _aniso_quad}
BENCHMARKS = tuple(_BUILDERS)


# ---------------------------------------------------------------------------
# Data
# ---------------------------------------------------------------------------

def make_blob_dataset(n: int, d: int, seed: int, separation: float = 2.0):
    """(features, labels): two Gaussian blobs at +/- separation/2 along the all-ones
    direction, the first n // 2 rows labelled +1 and the rest -1."""
    if min(n, d) < 1:
        raise ProxlabError(f"blobs need n >= 1 samples and d >= 1 features, got n={n}, d={d}")
    rng = default_rng(seed)
    center = np.full(d, separation / 2.0 / math.sqrt(d))
    n_pos = n // 2
    pos = center + rng.standard_normal((n_pos, d))
    neg = -center + rng.standard_normal((n - n_pos, d))
    return np.vstack([pos, neg]), np.concatenate([np.ones(n_pos), -np.ones(n - n_pos)])


def generate_lasso_data(n: int, m: int, s: int, seed: int):
    """Random sensing matrix and s-sparse-complement target with exact y = A xhat.

    Entries of A and the nonzero entries of xhat are i.i.d. standard normal
    from the seeded generator; exactly s entries of xhat are zero.
    """
    if min(n, m) < 1:
        raise ProxlabError(f"lasso data need n >= 1 samples and m >= 1 features, got n={n}, m={m}")
    if s >= m:
        raise ProxlabError(f"need s < m, got s={s}, m={m}")
    rng = default_rng(seed)
    a_mat = rng.standard_normal((n, m))
    xhat = rng.standard_normal(m)
    zero_idx = rng.choice(m, size=s, replace=False)
    xhat[zero_idx] = 0.0
    y = a_mat @ xhat
    return a_mat, y, xhat


# ---------------------------------------------------------------------------
# ML problems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MLProblemParams:
    kind: str  # "svm" | "lasso" | "elastic_net"
    svm_reg: float = 1.0  # quadratic weight in the SVM objective
    lam: float = 10.0  # l1 weight in lasso / elastic net
    en_reg: float = 1.0  # quadratic weight in elastic net

    def __post_init__(self):
        if self.kind not in ("svm", "lasso", "elastic_net"):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        for name in ("svm_reg", "lam", "en_reg"):
            weight = getattr(self, name)
            if not 0.0 < weight < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be positive and finite, got {weight}")


def make_ml_problem(data, params: MLProblemParams) -> ProblemSpec:
    """Assemble the ``params.kind`` problem from data and parameters.

    ``data`` is (features, targets), or the (A, y, xhat) triple of
    ``generate_lasso_data``, for every kind.  Features that are not an (n, d)
    array with one target per row, a non-finite entry and an SVM target other
    than -1 or +1 raise ProxlabError.  The problem keeps read-only copies, so
    later writes to the caller's arrays change nothing.  All three problems are
    convex; the reference value is installed later by a high-accuracy solve.
    """
    feats, targets = (np.array(a, dtype=float) for a in data[:2])
    if feats.ndim != 2 or targets.shape != (feats.shape[0],):
        raise ProxlabError(f"features {feats.shape} vs labels {targets.shape}")
    if not (np.isfinite(feats).all() and np.isfinite(targets).all()):
        raise ProxlabError("non-finite entries in dataset")
    if params.kind == "svm" and not np.isin(targets, (-1.0, 1.0)).all():
        raise ProxlabError("labels must be -1 or +1")
    feats.flags.writeable = targets.flags.writeable = False
    if params.kind == "svm":
        return _svm_problem(feats, targets, params.svm_reg)
    en_reg = params.en_reg if params.kind == "elastic_net" else 0.0
    return _least_squares_l1_problem(feats, targets, params.lam, en_reg, params.kind)


def _svm_problem(feats, labels, reg: float) -> ProblemSpec:
    ba = labels[:, None] * feats  # row i is b_i a_i, the only array the problem keeps
    ba.flags.writeable = False
    n, d = ba.shape
    parts = SvmParts(signed_rows=ba, reg=reg)
    min_norm = parts.min_norm_element  # one bound method for both oracles
    overflow = np.flatnonzero(parts.squared_norms == math.inf)
    if overflow.size:  # the dual solver divides by them and would spin to no end
        raise ValueError(f"squared row norms of the features overflow (row {overflow[0]}); "
                         f"rescale the data")

    def value(x):
        margins = 1.0 - ba @ x
        return float(np.mean(np.maximum(margins, 0.0)) + 0.5 * reg * np.dot(x, x))

    return ProblemSpec(
        dimension=d,
        value=value,
        subgradient=min_norm,
        min_norm_subgradient=min_norm,
        strong_convexity=reg,
        svm=parts,
        name=f"svm(n={n},d={d},reg={reg:g})",
    )


def _least_squares_l1_problem(a_mat, y, lam, en_reg, kind) -> ProblemSpec:
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        hessian = a_mat.T @ a_mat + en_reg * np.eye(a_mat.shape[1])
    if not np.isfinite(hessian).all():  # eigvalsh and the support solves would fail
        raise ValueError("the Hessian A^T A of the data overflows; rescale the data")
    hessian.setflags(write=False)

    def grad_smooth(x):
        return a_mat.T @ (a_mat @ x - y) + en_reg * np.asarray(x, dtype=float)

    parts = CompositeParts(grad_smooth=grad_smooth, hessian=hessian, l1_weight=lam)

    # The batch oracles make one matrix-vector product and one dot per row, as
    # the scalar oracles make them for their one point, so the two agree
    # bitwise; the scalar forms skip the batch calls' per-call overhead.
    def values(xs):
        r = row_matvecs(a_mat, xs) - y
        return (0.5 * row_dots(r, r) + 0.5 * en_reg * row_dots(xs, xs)
                + lam * np.abs(xs).sum(axis=1))

    def min_norms(xs):
        base = row_matvecs(a_mat.T, row_matvecs(a_mat, xs) - y) + en_reg * xs
        return base + parts.min_norm_h(base, xs)

    def value(x):
        x = np.asarray(x, dtype=float)
        r = a_mat @ x - y
        return float(0.5 * r.dot(r) + 0.5 * en_reg * x.dot(x) + lam * np.abs(x).sum())

    def min_norm(x, shift=0.0):
        x = np.asarray(x, dtype=float)
        base = grad_smooth(x) + shift
        return base + parts.min_norm_h(base, x)

    return ProblemSpec(
        dimension=a_mat.shape[1],
        value=value,
        subgradient=min_norm,
        min_norm_subgradient=min_norm,
        values=values,
        min_norm_subgradients=min_norms,
        strong_convexity=en_reg,
        composite=parts,
        name=f"{kind}(n={a_mat.shape[0]},m={a_mat.shape[1]},lam={lam:g})",
    )


# ---------------------------------------------------------------------------
# LIBSVM text format
# ---------------------------------------------------------------------------

def load_libsvm(path):
    """Read a LIBSVM sparse text file into dense (features, labels) arrays.

    Lines look like ``label idx:val idx:val ...`` with 1-based indices;
    missing indices are zero.  Raw labels must be -1, 0 or +1; 0 maps to -1
    (the {0,1} convention), anything else raises ProxlabError naming its line, as
    does a non-finite feature value.
    """
    rows: list[dict[int, float]] = []
    labels: list[float] = []
    max_idx = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                raw = float(parts[0])
            except ValueError:
                raise ProxlabError(f"line {lineno}: bad label {parts[0]!r}") from None
            if raw not in (-1.0, 0.0, 1.0):
                raise ProxlabError(f"line {lineno}: label {parts[0]!r} not coercible to -1/+1")
            labels.append(1.0 if raw > 0 else -1.0)
            entries: dict[int, float] = {}
            for tok in parts[1:]:
                idx_s, _, val_s = tok.partition(":")
                try:
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError:
                    raise ProxlabError(f"line {lineno}: bad feature token {tok!r}") from None
                if idx < 1:
                    raise ProxlabError(f"line {lineno}: feature index {idx} must be >= 1")
                if not math.isfinite(val):
                    raise ProxlabError(f"line {lineno}: non-finite feature value {tok!r}")
                entries[idx] = val
                max_idx = max(max_idx, idx)
            rows.append(entries)
    if not rows:
        raise ProxlabError("empty file")
    feats = np.zeros((len(rows), max_idx))
    for i, entries in enumerate(rows):
        for idx, val in entries.items():
            feats[i, idx - 1] = val
    return feats, np.asarray(labels)
