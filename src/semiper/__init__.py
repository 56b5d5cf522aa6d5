"""Periodic responses and decay diagnostics for damped evolution models.

Finite-dimensional laboratory for time-periodic solutions of
u' = A u + f: state spaces with energy Grams, semigroup propagators and
resolvents, the one-period Duhamel response, three periodic solvers,
decay/resolvent scans with power-law fits, and the resonant-growth
experiment on spherical-harmonic blocks.
"""

__version__ = "0.1.0"

from .errors import *  # noqa: F401,F403
from .operator_core import (  # noqa: F401
    Block,
    Model,
    SpectrumReport,
    StateSpace,
    build_model,
    contour_spectral_projector,
    fractional_power,
    make_state_space,
    propagate,
    propagator_matrix,
    resolvent_norm,
    spectrum_report,
)
from .models import (  # noqa: F401
    DampingProfile,
    SphereBlockModel,
    build_boundary_forced_wave,
    build_damped_wave_circle,
    build_damped_wave_interval,
    build_diagonal_model,
    build_heat_wave_1d,
    build_scalar_model,
    build_sphere_schrodinger,
    build_synthetic_resolvent_model,
    equatorial_harmonic,
    normalized_legendre_block,
)
from .forcing import (  # noqa: F401
    ForcingNormReport,
    FourierForcing,
    PeriodicForcing,
    SemigroupPullbackForcing,
    admissibility_constant,
    check_class,
    control_duhamel,
    duhamel_FT,
    duhamel_quadrature,
    endpoint_defect,
    fourier_from_samples,
    make_fourier_forcing,
    per0_bump_forcing,
)
from .periodic_solver import (  # noqa: F401
    ConvergenceReport,
    NonlinearSolveReport,
    PeriodicSolveReport,
    boundary_periodic_solve,
    convergence_gap,
    periodic_w0_direct,
    periodic_w0_harmonic_balance,
    periodic_w0_series,
    picard_divergence_threshold,
    picard_nonlinear,
    verify_orbit,
)
from .stability_lab import (  # noqa: F401
    BTReport,
    FitResult,
    MlogReport,
    ScanResult,
    bt_crosscheck,
    decay_envelope,
    fit_decay_exponent,
    fit_power_law,
    interpolation_check,
    mlog_bound_curve,
    resolvent_scan,
)
from .resonance_lab import (  # noqa: F401
    ConcentrationScan,
    GrowthExperiment,
    concentration_scan,
    growth_experiment,
    measured_propagation_bound,
    orbit_norms,
    resonant_forcing,
    resonant_horizon,
    truncation_tail,
)
