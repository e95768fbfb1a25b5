"""Hard-edge sample covariance laboratory.

Analytic Marchenko-Pastur machinery for the square (d=1) case together with
Monte Carlo harnesses that check the local spectral statements at desk scale:
window eigenvalue counts, local Stieltjes-transform convergence, eigenvector
delocalization, near-zero eigenvalue repulsion, and the concentration
inequalities behind them.
"""

from ._version import __version__
from .concentration import hw_tail_curve, projection_mass_probe, wilson_interval
from .ensemble import (
    KINDS,
    EnsembleSpec,
    EntryDistribution,
    MatrixSample,
    check_entry_statistics,
    derive_trial_seed,
    read_sample,
    sample_matrix,
    write_sample,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    TheoremReport,
    derived_windows,
    run_apriori,
    run_delocalization,
    run_hard_edge_scaling,
    run_hw_experiment,
    run_identity_suite,
    run_local_law,
    run_projection_mass_experiment,
    run_wegner,
)
from .mp import (
    DeltaBoundsReport,
    SpectralPoint,
    Window,
    check_delta_bounds,
    fixed_point_residual,
    mp_cdf,
    mp_density,
    mp_moment_quadrature,
    mp_stieltjes,
    mp_window_mass,
)
from .reports import file_digest, render_csv, render_json, write_report
from .resolvent import empirical_stieltjes, resolvent_diag_leave_one_out, resolvent_diag_schur
from .spectral import (
    DecompositionError,
    MinorBasis,
    SpectralDecomposition,
    counting_bound,
    decompose,
    eigenvalue_count,
    eigenvalues_only,
    eigenvector_identity_scan,
    gram_decompose,
    interlacing_check,
    minor_basis,
)

__all__ = [
    "__version__",
    # mp
    "SpectralPoint", "Window", "DeltaBoundsReport",
    "mp_density", "mp_cdf", "mp_window_mass", "mp_stieltjes",
    "fixed_point_residual", "check_delta_bounds", "mp_moment_quadrature",
    # ensemble
    "KINDS", "EntryDistribution", "EnsembleSpec", "MatrixSample",
    "derive_trial_seed", "sample_matrix", "check_entry_statistics",
    "write_sample", "read_sample",
    # spectral
    "SpectralDecomposition", "DecompositionError", "MinorBasis",
    "decompose", "gram_decompose", "eigenvalues_only", "minor_basis", "eigenvalue_count",
    "counting_bound", "interlacing_check",
    "eigenvector_identity_scan",
    # resolvent
    "empirical_stieltjes", "resolvent_diag_leave_one_out",
    "resolvent_diag_schur",
    # concentration
    "wilson_interval", "hw_tail_curve", "projection_mass_probe",
    # experiments
    "ConfigError", "ExperimentConfig", "TheoremReport", "derived_windows",
    "run_apriori", "run_local_law", "run_delocalization", "run_wegner",
    "run_hard_edge_scaling", "run_identity_suite", "run_hw_experiment",
    "run_projection_mass_experiment",
    # reports
    "render_csv", "render_json", "write_report", "file_digest",
]
