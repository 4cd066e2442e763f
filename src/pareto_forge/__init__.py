"""Response-surface fitting and bi-objective machining parameter optimization.

Fits polynomial models of surface roughness (Ra, minimized) and material
removal rate (MRR, maximized) from face-milling experiments, then generates
Pareto fronts with five routines: a relative-deviation criterion, the
lexicographic sequence, the normalized weighted sum, the epsilon-constraint
method, and an elitist genetic algorithm.
"""

from .dataset import (
    CASE_STUDY_BOUNDS,
    Bounds,
    DatasetError,
    ExperimentRecord,
    builtin_case_study,
    load_experiments,
    save_experiments,
    validate_records,
)
from .evolve import GaConfig, run_ga
from .nlsolver import (
    NonFiniteEvaluationError,
    RunCounters,
    SmoothFunction,
    SolveOutcome,
    SolverConfig,
    grouped_multistart,
    minimize_starts,
    stratified_starts,
)
from .pareto import (
    Front,
    ParetoPoint,
    Sense,
    dominated_mask,
    dominates,
    filter_nondominated,
    merge_fronts,
    read_front_csv,
)
from .polymodel import (
    ModelStack,
    PolyBasis,
    PolynomialModel,
    basis_eval,
    evaluate,
    published_model,
    published_pair,
    value_jacobian_hessian,
)
from .regression import (
    FitDiagnostics,
    ModelComparison,
    RegressionError,
    apd,
    compare_models,
    fit_model,
    fit_ols,
    mapd,
)
from .scalarize import (
    DEFAULT_P_VALUES,
    InfeasibleEpsilonError,
    LexicographicResult,
    MethodResult,
    MooProblem,
    Objective,
    RoutineResult,
    StageInfeasibleError,
    UtopiaRecord,
    epsilon_constraint,
    epsilon_sweep,
    global_criterion_sweep,
    individual_optima,
    lexicographic,
    weighted_sum,
    weighted_sum_sweep,
)
from .svgplot import front_svg

__version__ = "0.1.0"
