"""Reduced-order modeling of 1-D advection-diffusion problems.

High-fidelity Eulerian and semi-Lagrangian solvers, POD- and DMD-based
reduced models in both frames, a-posteriori error bounds, a level-set
embedding for conservation laws, and a benchmark CLI around preset
experiments.
"""

from .core import (
    DIRICHLET_ZERO,
    PERIODIC,
    Grid1D,
    ProblemSpec,
    SnapshotMatrix,
    StateVector,
    linear_interpolate,
    split_stacked,
    uniform_grid,
)
from .dmd_rom import (
    DmdModel,
    fit_dmd,
    fit_lagrangian_dmd,
    load_dmd_model,
    predict,
    predict_series,
    prediction_blocks,
    save_dmd_model,
    split_pairs,
)
from .error_analysis import (
    ErrorReport,
    error_bound_series,
    estimate_eps_m,
    relative_l2,
    truncation_error,
)
from .hfm_eulerian import (
    EulerianRun,
    EulerianStep,
    eulerian_steps,
    run_eulerian_hfm,
)
from .hfm_lagrangian import (
    LagrangianRun,
    lagrangian_steps,
    run_lagrangian_hfm,
)
from .levelset import (
    LevelSetField,
    contour_blocks,
    embed_initial,
    extract_zero_contour,
    levelset_dmd,
    levelset_grids,
    levelset_steps,
    predict_contours,
    predicted_contour,
    run_levelset_hfm,
)
from .pod_rom import (
    PodBasis,
    fit_pod,
    pod_steps,
    run_pod_rom,
)
from .presets import ExperimentConfig, parse_config_file, resolve
from .bench import run_experiment
from .rundir import RunRecord, timing_table, validate_run_dir, write_error_csv
from .svd_core import TruncatedSvd, WindowFactor, reduced_svd, select_rank, truncate, truncation_rank
from . import errors

__version__ = "0.1.0"
