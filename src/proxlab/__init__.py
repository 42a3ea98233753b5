"""Proximal point and gradient solvers with regularity-constant auditing."""

from .checks import (BoundCheck, RateBounds, check_inexact_one_step, check_ippm_linear,
                     check_ippm_sublinear, check_linear_rates, check_one_step,
                     check_sublinear_bound, verify_gd_rates)
from .errors import InnerBudgetExhausted, ProxlabError
from .gd import GDParams, run_gd
from .ippm import InexactCriterion, run_ippm
from .ppm import IterationTrace, StepSchedule, reference_solution, run_ppm
from .problem import (CompositeParts, Piecewise1D, ProblemSpec, SvmParts,
                      distances_to_solution, min_norm_subgradient, problem_from_1d)
from .prox import ProxResult, prox
from .regularity import (ConstantEstimate, EstimationPlan, ImplicationCheck,
                         RegularityReport, audit_implications, estimate_constants,
                         find_suboptimal_stationary_points, plan_for)
from .traceio import ParsedTrace, emit_trace_csv, read_trace_csv
from .zoo import (BENCHMARKS, MLProblemParams, generate_lasso_data, load_libsvm,
                  make_benchmark, make_blob_dataset, make_ml_problem)

__version__ = "0.1.0"
