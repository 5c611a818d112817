"""Normalized Ricci flow on closed triangulated surfaces with spectral audits.

``RICCIFLOW_THREADS``, when set, overrides ``OMP_NUM_THREADS``,
``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS`` here, before the package
imports numpy; it has no effect if numpy was imported first.
"""

import os as _os

if _os.environ.get("RICCIFLOW_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ[_var] = _os.environ["RICCIFLOW_THREADS"]

from .bounds import (
    BoundCheck,
    BoundReport,
    buser_comparison_check,
    distortion_upper_bound,
    envelope_check,
    log_derivative_corridor_check,
    main_theorem_check,
    main_theorem_factor,
    ratio_bound_check,
    rmax_ode_check,
)
from .errors import (
    BoundaryEdgeError,
    BranchCrossingError,
    ConfigError,
    DisconnectedError,
    EigensolverError,
    FlowAbortError,
    GeometryError,
    HypothesisError,
    MeshError,
    MeshFormatError,
    MeshInvariantError,
    NonManifoldError,
    NonOrientableError,
    PerturbationError,
    RicciFlowError,
    TriangleInequalityError,
)
from .experiment import (
    ExperimentConfig,
    PerturbationSpec,
    run_flow_experiment,
    run_pair_experiment,
)
from .flow import (
    FlowConfig,
    FlowSample,
    FlowTrace,
    curvature_pde_residual,
    monotonicity_violations,
    nrf_velocity,
    rf_nrf_time_map,
    run_flow,
    solve_snapshots,
    step,
)
from .geometry import (
    ConformalMetric,
    CurvatureField,
    current_lengths,
    curvature_window,
    measure_curvature,
    metric_area,
    normalize_area,
    perturb_metric,
    scale_metric,
)
from .mesh import TriangleMesh, euler_genus, generate_genus2, load_off
from .spectrum import (
    SpectrumSnapshot,
    assemble_operators,
    dense_eigenpairs,
    rayleigh_quotient,
    smallest_eigenpairs,
)
from .tracking import (
    BranchSet,
    branch_log_derivative,
    evolution_formula_residual,
    track_branches,
)

__version__ = "0.1.0"

__all__ = [
    "TriangleMesh",
    "euler_genus",
    "generate_genus2",
    "load_off",
    "ConformalMetric",
    "CurvatureField",
    "current_lengths",
    "measure_curvature",
    "metric_area",
    "normalize_area",
    "scale_metric",
    "perturb_metric",
    "curvature_window",
    "SpectrumSnapshot",
    "assemble_operators",
    "smallest_eigenpairs",
    "dense_eigenpairs",
    "rayleigh_quotient",
    "FlowConfig",
    "FlowSample",
    "FlowTrace",
    "nrf_velocity",
    "step",
    "run_flow",
    "solve_snapshots",
    "rf_nrf_time_map",
    "curvature_pde_residual",
    "monotonicity_violations",
    "BranchSet",
    "track_branches",
    "branch_log_derivative",
    "evolution_formula_residual",
    "BoundCheck",
    "BoundReport",
    "envelope_check",
    "rmax_ode_check",
    "log_derivative_corridor_check",
    "ratio_bound_check",
    "distortion_upper_bound",
    "buser_comparison_check",
    "main_theorem_check",
    "main_theorem_factor",
    "ExperimentConfig",
    "PerturbationSpec",
    "run_flow_experiment",
    "run_pair_experiment",
    "RicciFlowError",
    "MeshError",
    "MeshFormatError",
    "BoundaryEdgeError",
    "NonManifoldError",
    "NonOrientableError",
    "DisconnectedError",
    "MeshInvariantError",
    "GeometryError",
    "TriangleInequalityError",
    "PerturbationError",
    "BranchCrossingError",
    "EigensolverError",
    "FlowAbortError",
    "HypothesisError",
    "ConfigError",
    "__version__",
]
