"""Pseudo-spectral laboratory for viscous-vs-ideal flow comparisons on a torus."""

from .errors import (
    ConfigError,
    FormatError,
    InvlabError,
    NumericsError,
    QuadratureError,
    ResolutionError,
    SolverDivergenceError,
)
from .littlewood_paley import (
    BesovParams,
    DyadicPartition,
    besov_norm,
    block_lp_norms,
    build_partition,
    dyadic_block,
    low_pass,
)
from .constructions import (
    ProfileBump,
    ShellDatum,
    background_field,
    build_profile_bump,
    shell_velocity,
    taylor_green,
    taylor_green_two_mode,
)
from .solvers import (
    Trajectory,
    evolve,
    first_order_remainders,
    trajectory_gap,
    u2_duhamel,
)
from .spectral import (
    Grid,
    SpectralField,
    advect,
    divergence,
    divergence_defect,
    gradient,
    heat_propagate,
    l2_norm_spectral,
    leray_complement,
    leray_project,
    lp_norm,
    perp_gradient,
    translate,
)
from .experiments import (
    ExperimentConfig,
    ExperimentContext,
    ResultRecord,
    run_expansion_residuals,
    run_family_gap,
    run_fixed_datum_limit,
    run_heat_law,
    run_nonlinear_drift,
    run_perturbed_gap,
    run_validation_suite,
)

__version__ = "0.1.0"
