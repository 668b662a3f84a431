"""Worst-group robust training with per-group latent perturbation budgets.

The package trains small classifiers against two layers of distributional
uncertainty at once: shifts in the group mixture (worst-group reweighting on
the simplex) and shifts within each group (adversarial perturbations of the
latent representation inside per-group balls whose radii shrink with group
size).  It ships the training algorithm with ERM and plain worst-group
baselines, synthetic spurious-correlation benchmarks with controllable
minority-group test shifts, a data-driven radius tuning procedure, exact
small-instance transport oracles, and convergence diagnostics.
"""

from .ambiguity import (
    DiscreteDist,
    inner_maximize,
    project_ball,
    radius,
    robust_risk_check,
    taylor_gap,
    w_infty_exact,
)
from .datagen import (
    GroupedDataset,
    ShiftSpec,
    apply_shift,
    load_csv,
    make_spurious,
    save_csv,
)
from .errors import (
    ConfigError,
    CsvParseError,
    CsvSchemaError,
    DivergenceError,
    HierdroError,
    InvalidDatasetError,
    ParameterError,
    TuningInfeasibleError,
    UnsupportedDiagnosticError,
    UnsupportedInstanceError,
)
from .evaluation import EvalReport, evaluate
from .model import (
    ModelParams,
    ModelSpec,
    grad_wrt_latent,
    init_params,
    load_params,
    save_params,
)
from .solver import (
    SolverConfig,
    TrainResult,
    train,
    train_lockstep,
    train_step,
    update_beta,
)
from .tuning import TuneConfig, TuneResult, order_1d, quantile_splits, tune_epsilon
from .convergence import (
    BoundConstants,
    ConvergenceReport,
    bound_constants,
    objective_value,
    rate_study,
    reference_optimum,
)

__version__ = "0.1.0"
