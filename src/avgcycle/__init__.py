"""Higher-order averaging and Lyapunov-Schmidt reduction for periodic orbits
of T-periodic perturbed ODE systems, with direct verification by Newton
refinement and Floquet analysis."""

__version__ = "0.1.0"

from .expr import Declarations, VectorFieldSeries, parse, evaluate, derivative_tensor
from .flow import IntegratorConfig, integrate_unperturbed, fundamental_matrix, integrate_full
from .averaging import AveragedSeries, averaged_functions, y_functions
from .lyapschmidt import (
    AveragedGSeries, ExprGSeries, ManifoldChart, ShiftedGSeries,
    bifurcation_functions, delta_alpha, gamma_functions, reduce_chart,
)
from .solver import (
    brouwer_degree, check_hypotheses, degree_preservation_check,
    expand_branch, find_branch, nested_reduction,
)
from .verify import (
    displacement, jacobian_series, refine_periodic, stability_classify,
)
from .problems import load_problem, load_fixture, fixture_path

__all__ = [
    "Declarations", "VectorFieldSeries", "parse", "evaluate", "derivative_tensor",
    "IntegratorConfig", "integrate_unperturbed", "fundamental_matrix", "integrate_full",
    "AveragedSeries", "averaged_functions", "y_functions",
    "AveragedGSeries", "ExprGSeries", "ManifoldChart", "ShiftedGSeries",
    "bifurcation_functions", "delta_alpha", "gamma_functions", "reduce_chart",
    "brouwer_degree", "check_hypotheses", "degree_preservation_check",
    "expand_branch", "find_branch", "nested_reduction",
    "displacement", "jacobian_series", "refine_periodic",
    "stability_classify", "load_problem", "load_fixture", "fixture_path",
]
