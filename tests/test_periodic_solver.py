"""Periodic orbit solvers: linear, boundary-driven and Picard.

The scalar problem u' = -u + 1 with any period has the constant orbit
u = 1, which pins all three linear methods. The boundary solver is
checked against the static steady state, and the nonlinear solver
against direct time integration with scipy's adaptive stepper and against
the direct linear solver on its converged frozen source.
"""

import json
import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from semiper import cli, periodic_solver
from semiper.errors import (
    Diverged,
    KernelObstruction,
    ResonantHarmonic,
    SingularMonodromy,
    SlowConvergence,
)
from semiper.forcing import (
    FourierForcing,
    check_class,
    fourier_from_samples,
    make_fourier_forcing,
    per0_bump_forcing,
)
from semiper.models import (
    DampingProfile,
    build_boundary_forced_wave,
    build_damped_wave_circle,
    build_damped_wave_interval,
    build_diagonal_model,
    build_heat_wave_1d,
    build_scalar_model,
)
from semiper.operator_core import Block, build_model
from semiper.periodic_solver import (
    PICARD_NODES,
    _nonlinear_source,
    boundary_periodic_solve,
    convergence_gap,
    periodic_w0_direct,
    periodic_w0_harmonic_balance,
    periodic_w0_series,
    picard_divergence_threshold,
    picard_nonlinear,
    verify_orbit,
)

ALL_METHODS = [periodic_w0_series, periodic_w0_direct, periodic_w0_harmonic_balance]


@pytest.fixture(scope="module")
def wave16():
    damping = DampingProfile("constant", amplitude=1.0)
    return build_damped_wave_interval(16, 1.0, damping)


def bump_on_velocity(model, T=1.0, order=2):
    n = model.dim // 2
    vec = np.zeros(model.dim)
    vec[n:] = np.sin(np.pi * np.arange(1, n + 1) / (n + 1))
    return per0_bump_forcing(T, order, vec, model.space)


# ---------------------------------------------------------------------------
# linear solvers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("solver", ALL_METHODS)
def test_scalar_constant_orbit(solver):
    """u' = -u + 1 has the constant periodic orbit u = 1."""
    model = build_scalar_model(-1.0)
    f = make_fourier_forcing(2 * math.pi, {0: [1.0]}, model.space)
    rep = solver(model, f)
    assert abs(rep.w0[0] - 1.0) <= 1e-10
    assert max(rep.residual_per_period) <= 1e-10


def test_series_reports_truncation():
    model = build_scalar_model(-1.0)
    f = make_fourier_forcing(2 * math.pi, {0: [1.0]}, model.space)
    rep = periodic_w0_series(model, f)
    assert rep.method.startswith("series(N=")
    assert rep.tail_estimate is not None
    assert rep.tail_estimate <= 1e-11


def test_methods_agree_on_wave(wave16):
    f = bump_on_velocity(wave16)
    reports = [solver(wave16, f) for solver in ALL_METHODS]
    direct = next(r for r in reports if r.method == "direct")
    gate = 1e-8 * (1.0 + direct.condition)
    for ra in reports:
        for rb in reports:
            assert wave16.space.norm(ra.w0 - rb.w0) <= gate
        assert max(ra.residual_per_period) <= 1e-8
        assert ra.crosscheck_gap <= 1e-8


def test_direct_condition_is_two_norm_condition(wave16):
    from semiper.operator_core import propagator_matrix

    f = bump_on_velocity(wave16)
    rep = periodic_w0_direct(wave16, f)
    fixed = np.eye(wave16.dim) - propagator_matrix(wave16, f.period)
    assert rep.condition == pytest.approx(np.linalg.cond(fixed, 2), rel=1e-10)


def test_norm_ratio_denominator_follows_class(wave16):
    f = bump_on_velocity(wave16, order=2)
    rep = periodic_w0_direct(wave16, f)
    wk1 = check_class(f, 4).wk1_norm
    assert rep.norm_ratio == pytest.approx(wave16.space.norm(rep.w0) / wk1,
                                           rel=1e-12)

    n = wave16.dim // 2
    vec = np.zeros(wave16.dim)
    vec[n:] = 1.0
    cos = make_fourier_forcing(1.0, {1: 0.5 * vec, -1: 0.5 * vec}, wave16.space)
    rep2 = periodic_w0_direct(wave16, cos)
    l1 = check_class(cos, 0).l1_norm
    assert rep2.norm_ratio == pytest.approx(wave16.space.norm(rep2.w0) / l1,
                                            rel=1e-12)


def test_verify_orbit_flags_wrong_candidate(wave16):
    f = bump_on_velocity(wave16)
    rep = periodic_w0_direct(wave16, f)
    residuals, _ = verify_orbit(wave16, f, rep.w0, n_periods=3)
    assert max(residuals) <= 1e-9
    wrong = rep.w0 + 0.1
    bad_res, _ = verify_orbit(wave16, f, wrong, n_periods=1)
    assert bad_res[0] > 1e-3


def test_singular_monodromy_refused():
    """The singularity check runs before I - e^{TA} is LU-factored, so the
    singular matrix never reaches the LU and raises no LinAlgWarning."""
    model = build_diagonal_model([0.0])
    f = make_fourier_forcing(1.0, {1: [1.0]}, model.space)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMonodromy):
            periodic_w0_direct(model, f)


def test_direct_solver_factors_once_per_period(monkeypatch):
    """One LU factorization per direct solve; equal periods give equal
    fixed-point matrices and so equal condition numbers. The direct
    solve factors I - e^{TA} inside ``np.linalg.solve``, so the calls
    counted are those on a square matrix of the deflated block's size."""
    model = build_damped_wave_interval(16, 1.0, DampingProfile("constant", amplitude=1.0))
    fixed_shape = model.deflated[0].shape
    calls = []
    original = np.linalg.solve

    def counting(a, *args, **kwargs):
        if np.shape(a) == fixed_shape:
            calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counting)
    first = periodic_w0_direct(model, bump_on_velocity(model))
    assert len(calls) == 1
    second = periodic_w0_direct(model, bump_on_velocity(model, order=3))
    assert len(calls) == 2
    assert second.condition == first.condition
    third = periodic_w0_direct(model, bump_on_velocity(model, T=2.0))
    assert len(calls) == 3
    assert third.condition != first.condition


def test_direct_solver_factors_real_arrays_on_a_real_model(config_dir, monkeypatch):
    """On interval_periodic's real model the SVD and the LU of I - e^{TA}
    are real: F_T enters the solve as two real columns."""
    cfg = json.loads((config_dir / "interval_periodic.json").read_text())
    bundle = cli.build_bundle(cfg)
    f = cli.build_forcing(bundle, cfg["forcing"])
    seen = []
    for name in ("svd", "solve"):
        original = getattr(np.linalg, name)

        def recording(a, *args, _name=name, _original=original, **kwargs):
            seen.append((_name, np.asarray(a).dtype, np.asarray(args[0]).dtype
                         if args else None))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    report = periodic_w0_direct(bundle.model, f)
    assert sorted(name for name, *_ in seen) == ["solve", "svd"]
    for name, a_dtype, b_dtype in seen:
        assert a_dtype == np.float64, name
        assert b_dtype in (None, np.float64), name
    assert np.iscomplexobj(report.w0)


@pytest.mark.parametrize("name", ["interval_periodic", "circle_kernel",
                                  "heatwave_periodic_k7"])
def test_w0_imaginary_part_is_round_off(config_dir, tmp_path, name):
    """A real model under a real forcing has a real orbit: the imaginary
    part of w0 is bounded by the solve's conditioning,
    10 * condition * eps * max|w0_real|, with condition from the report."""
    cli.run(config_dir / f"{name}.json", out_dir=tmp_path)
    report = json.loads((tmp_path / "periodic_report.json").read_text())
    bound = 10 * report["condition"] * np.finfo(float).eps * np.max(np.abs(report["w0_real"]))
    assert np.max(np.abs(report["w0_imag"])) <= bound


def circle_w0_exact(model, a, f):
    """The exact semi-discrete w0 of a constantly damped circle wave, with
    the kernel component zero.

    The 3-point periodic Laplacian has the real Fourier modes cos(m x) and
    sin(m x) of the nodes x_j = j h, h = 2 pi / n, with the eigenvalue
    mu_m = -(4/h^2) sin^2(m h/2) (LeVeque, Finite Difference Methods for
    ODEs and PDEs, SIAM 2007, section 2.10), n of them, orthogonal on
    the nodes. Each harmonic row of f is projected on these modes (u and
    v alike), and must carry nothing on the kernel mode m = 0, since its
    w0 has no kernel component; then each (mode, harmonic) takes one 2 x 2
    solve (i omega_k - [[0, 1], [mu_m, -a]]) [p; q] = [alpha_u; alpha_v],
    by its adjugate, and w0 = sum over harmonics of the modes times (p, q).
    """
    n = model.dim // 2
    h = 2 * math.pi / n
    m = np.r_[np.arange(n // 2 + 1), np.arange(1, (n + 1) // 2)]
    F = np.hstack([np.cos(np.outer(h * np.arange(n), m[:n // 2 + 1])),
                   np.sin(np.outer(h * np.arange(n), m[n // 2 + 1:]))])
    mu = -(4 / h**2) * np.sin(m * h / 2) ** 2
    C = f.coefficients
    alpha_u, alpha_v = (C[:, blk] @ F / np.sum(F * F, axis=0)
                        for blk in (slice(0, n), slice(n, 2 * n)))
    assert np.abs(np.hstack([alpha_u[:, 0], alpha_v[:, 0]])).max() <= 1e-13 * np.abs(C).max()
    s = 1j * f.omega[:, None]
    det = s * (s + a) - mu[1:]
    p = ((s + a) * alpha_u[:, 1:] + alpha_v[:, 1:]) / det
    q = (mu[1:] * alpha_u[:, 1:] + s * alpha_v[:, 1:]) / det
    return np.concatenate([p.sum(axis=0) @ F[:, 1:].T, q.sum(axis=0) @ F[:, 1:].T])


# the Gram-norm error of w0, at most C_KAPPA * kappa * eps, kappa the
# report's condition; fixed at twice the largest ratio (5.2) measured over
# n = 24 to 384 before this test was written
C_KAPPA = 10.0


def test_circle_kernel_w0_matches_the_exact_semi_discrete_solution(config_dir):
    cfg = json.loads((config_dir / "circle_kernel.json").read_text())
    bundle = cli.build_bundle(cfg)
    model = bundle.model
    f = cli.build_forcing(bundle, cfg["forcing"])
    exact = circle_w0_exact(model, cfg["model"]["damping"]["amplitude"], f)
    rep = periodic_w0_direct(model, f)
    err = model.space.norm(rep.w0 - exact) / model.space.norm(exact)
    assert err <= C_KAPPA * rep.condition * np.finfo(float).eps


def test_heatwave_k7_w0_norm_converges_at_second_order(config_dir):
    """heatwave_periodic_k7's w0 norm at n_heat = n_wave = 24, 48, 96: the
    observed order log2((w24 - w48) / (w48 - w96)) is within 0.2 of the
    scheme's 2. A velocity profile sampled off the wave nodes drops it to
    first order."""
    cfg = json.loads((config_dir / "heatwave_periodic_k7.json").read_text())
    norms = []
    for n in (24, 48, 96):
        cfg["model"]["params"] = {"n_heat": n, "n_wave": n}
        bundle = cli.build_bundle(cfg)
        f = cli.build_forcing(bundle, cfg["forcing"])
        norms.append(bundle.model.space.norm(periodic_w0_direct(bundle.model, f).w0))
    order = math.log2((norms[0] - norms[1]) / (norms[1] - norms[2]))
    assert abs(order - 2.0) <= 0.2


# ---------------------------------------------------------------------------
# kernel conventions on the circle
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def circle24():
    return build_damped_wave_circle(24, DampingProfile("constant", amplitude=1.0))


def test_circle_zero_mean_forcing_solves(circle24):
    n = circle24.dim // 2
    x = 2 * math.pi * np.arange(n) / n
    vec = np.zeros(circle24.dim)
    vec[n:] = np.sin(x)           # exactly zero mean on the grid
    f = make_fourier_forcing(1.0, {0: vec}, circle24.space)
    reports = [solver(circle24, f) for solver in ALL_METHODS]
    for rep in reports:
        assert max(rep.residual_per_period) <= 1e-8
        assert circle24.space.norm(circle24.pi0 @ rep.w0) <= 1e-9
    for ra in reports:
        for rb in reports:
            assert circle24.space.norm(ra.w0 - rb.w0) <= 1e-7


def test_circle_mean_forcing_obstructed(circle24):
    n = circle24.dim // 2
    vec = np.zeros(circle24.dim)
    vec[n:] = 1.0                 # pumps the conserved mean
    f = make_fourier_forcing(1.0, {0: vec}, circle24.space)
    for solver in ALL_METHODS:
        with pytest.raises(KernelObstruction):
            solver(circle24, f)


# ---------------------------------------------------------------------------
# convergence toward the orbit
# ---------------------------------------------------------------------------

def test_convergence_ratio_approaches_deflated_radius(wave16, rng):
    f = bump_on_velocity(wave16)
    v0 = rng.standard_normal(wave16.dim)
    rep = convergence_gap(wave16, f, v0, n_periods=40)
    oracle = float(np.max(np.abs(np.exp(np.linalg.eigvals(wave16.A)))))
    assert rep.spectral_radius == pytest.approx(oracle, rel=1e-10)
    assert rep.ratios[-1] == pytest.approx(rep.spectral_radius, rel=0.05)
    assert rep.gaps[-1] < rep.gaps[0]


# ---------------------------------------------------------------------------
# boundary-driven solves
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def boundary12():
    return build_boundary_forced_wave(12, 1.0,
                                      DampingProfile("constant", amplitude=1.0))


def test_boundary_constant_signal_gives_steady_state(boundary12):
    """A constant boundary value drives the orbit to -A^{-1} B."""
    g = make_fourier_forcing(1.0, {0: [1.0]})
    rep = boundary_periodic_solve(boundary12, g)
    steady = -np.linalg.solve(boundary12.A, boundary12.B[:, 0])
    gap = boundary12.space.norm(rep.w0 - steady)
    assert gap <= 1e-8 * (1 + boundary12.space.norm(steady))
    assert max(rep.residual_per_period) <= 1e-9


def test_boundary_sin_squared_signal(boundary12):
    g = make_fourier_forcing(1.0, {0: [0.5], 1: [-0.25], -1: [-0.25]})
    rep = boundary_periodic_solve(boundary12, g, n_periods=2)
    assert max(rep.residual_per_period) <= 1e-8
    assert rep.method == "boundary_direct"
    assert rep.admissibility > 0
    assert rep.norm_ratio > 0


# ---------------------------------------------------------------------------
# Picard iteration
# ---------------------------------------------------------------------------

def scalar_picard_model(lam=-1.0):
    """u' = lam u with its one coordinate as both the displacement and the
    velocity block, so that g(u) acts on u itself."""
    base = build_scalar_model(lam)
    one = Block(slice(0, 1))
    return build_model(base.space, base.A, label=base.label,
                       blocks={"displacement": one, "velocity": one})


def test_picard_scalar_matches_time_integration():
    """The Picard orbit is periodic under adaptive time stepping."""
    model = scalar_picard_model()
    T = 2.0
    f = make_fourier_forcing(T, {1: [0.2], -1: [0.2]}, model.space)
    rep = picard_nonlinear(model, f, {3: -0.05}, tol=1e-12)
    assert rep.converged
    assert rep.ode_residual <= 1e-10
    assert all(r < 0.5 for r in rep.contraction_ratios)

    def rhs(t, u):
        return -u + 0.4 * np.cos(2 * np.pi * t / T) - 0.05 * u**3

    sol = solve_ivp(rhs, (0.0, T), [rep.w0[0].real], rtol=1e-11, atol=1e-13)
    assert abs(sol.y[0, -1] - rep.w0[0].real) <= 1e-9


def test_picard_wave_structure_converges():
    model = build_damped_wave_interval(8, 1.0,
                                       DampingProfile("constant", amplitude=1.0))
    f = bump_on_velocity(model)
    rep = picard_nonlinear(model, f, {3: -1e-3}, tol=1e-12)
    assert rep.converged
    assert rep.iterations <= 30
    assert rep.ode_residual <= 1e-6
    assert rep.trajectory.shape == (64, model.dim)


def test_picard_rejects_linear_powers():
    model = scalar_picard_model()
    f = make_fourier_forcing(1.0, {0: [0.1]}, model.space)
    with pytest.raises(ValueError):
        picard_nonlinear(model, f, {1: 1.0})


def test_picard_diverges_for_large_data():
    model = scalar_picard_model()
    f = make_fourier_forcing(2.0, {1: [30.0], -1: [30.0]}, model.space)
    with pytest.raises(Diverged):
        picard_nonlinear(model, f, {3: -0.05})


@pytest.mark.parametrize("lam", [-1.0, -1.0 + 0.5j], ids=["real", "complex"])
def test_picard_overflow_raises_diverged(lam):
    """States that overflow within three sweeps end either sweep as
    Diverged, which the divergence threshold counts, not as an error of
    building a forcing from non-finite samples."""
    model = scalar_picard_model(lam)
    f = make_fourier_forcing(2.0, {1: [1e6], -1: [1e6]}, model.space)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(Diverged, match="non-finite states"):
            picard_nonlinear(model, f, {3: -0.05})


def test_picard_slow_convergence_raises():
    model = scalar_picard_model()
    f = make_fourier_forcing(2.0, {1: [0.2], -1: [0.2]}, model.space)
    with pytest.raises(SlowConvergence):
        picard_nonlinear(model, f, {3: -0.05}, max_iter=1, tol=1e-14)


def test_divergence_threshold_brackets():
    model = scalar_picard_model()
    f = make_fourier_forcing(2.0, {1: [0.2], -1: [0.2]}, model.space)
    th = picard_divergence_threshold(model, f, {3: -0.05},
                                     amplitudes=[1.0, 10.0, 100.0])
    assert th["last_converged"] == 10.0
    assert th["first_diverged"] == 100.0


@pytest.fixture(scope="module")
def picard_cubic(config_dir):
    """Model, unscaled forcing and cubic term of configs/picard_cubic.json."""
    cfg = json.loads((config_dir / "picard_cubic.json").read_text())
    bundle = cli.build_bundle(cfg)
    f = cli.build_forcing(bundle, cfg["forcing"])
    return bundle.model, f, {3: -1.0}


def scaled(f, amp):
    return FourierForcing(f.period, f.harmonics, amp * f.coefficients, f.space)


@pytest.mark.parametrize("amp", [1e-3, 1e-1, 1.0])
def test_picard_w0_matches_direct_solve_of_frozen_source(picard_cubic, amp):
    """The harmonic-balance sweep is exact for the interpolated source: the
    direct fixed-point solver on the converged frozen source f + g(u)
    reproduces w0."""
    model, f, poly = picard_cubic
    g = scaled(f, amp)
    rep = picard_nonlinear(model, g, poly, tol=1e-12)
    # a real problem sweeps in real arithmetic and returns a real orbit
    assert rep.trajectory.dtype == rep.w0.dtype == np.float64
    n = model.dim // 2
    src = g.eval_many(rep.times)
    src[:, n:] -= rep.trajectory[:, :n] ** 3
    w0 = periodic_w0_direct(model, fourier_from_samples(g.period, src,
                                                         model.space)).w0
    assert model.space.norm(w0 - rep.w0) <= 1e-10 * model.space.norm(rep.w0)


@pytest.mark.parametrize("lam, rows", [(-1.0, PICARD_NODES // 2 + 1),
                                       (-1.0 + 0.5j, PICARD_NODES + 1)],
                         ids=["real", "complex"])
def test_picard_sweep_solves_half_the_harmonics_of_a_real_problem(monkeypatch,
                                                                  lam, rows):
    """A real problem solves the harmonics 0..n/2 per sweep; a complex A
    keeps all n + 1, the Nyquist bin split between -n/2 and n/2."""
    model = scalar_picard_model(lam)
    f = make_fourier_forcing(2.0, {1: [0.2], -1: [0.2]}, model.space)
    sizes = []
    original = periodic_solver.harmonic_solve

    def counted(model, harmonics, period, rhs):
        sizes.append(len(harmonics))
        return original(model, harmonics, period, rhs)
    monkeypatch.setattr(periodic_solver, "harmonic_solve", counted)
    rep = picard_nonlinear(model, f, {3: -0.05}, tol=1e-12)
    assert sizes == [rows] * (rep.iterations + 1)
    assert rep.trajectory.dtype == (np.float64 if rows < PICARD_NODES else np.complex128)


def test_picard_real_path_needs_every_input_real():
    """Complex coefficients of g or forcing data that is not real-valued
    keep the complex sweep, though A is real."""
    model = scalar_picard_model()
    real_f = make_fourier_forcing(2.0, {1: [0.2], -1: [0.2]}, model.space)
    not_real = make_fourier_forcing(2.0, {1: [0.2], -1: [0.2j]}, model.space)
    assert real_f.real_valued and not not_real.real_valued
    assert picard_nonlinear(model, real_f, {3: -0.05}).w0.dtype == np.float64
    for f, poly in ((real_f, {3: -0.05 + 0j}), (not_real, {3: -0.05})):
        assert picard_nonlinear(model, f, poly).w0.dtype == np.complex128


def test_picard_on_kernel_model_keeps_zero_kernel_component():
    """Each harmonic drives the kernel mode, so the orbit swings along the
    kernel while w0 keeps a zero kernel component. The forcing has odd
    harmonics only; the cubic then pumps the kernel only through the
    constant shift of the orbit, which at this amplitude stays near 3e-13,
    far below the KernelObstruction guard."""
    model = build_damped_wave_circle(32, DampingProfile("constant", amplitude=1.0))
    n = model.dim // 2
    x = 2 * np.pi * np.arange(n) / n
    vec = np.zeros(model.dim)
    vec[n:] = 1.0 + np.sin(x)
    f = make_fourier_forcing(1.0, {1: 0.1 * vec, -1: 0.1 * vec}, model.space)
    rep = picard_nonlinear(model, f, {3: -0.5}, tol=1e-12)
    assert rep.converged and rep.trajectory.dtype == np.float64
    w0_norm = model.space.norm(rep.w0)
    swing = model.space.row_norms(rep.trajectory @ model.pi0.T).max()
    assert swing >= 1e-2 * w0_norm
    assert model.space.norm(model.pi0 @ rep.w0) <= 1e-14 * w0_norm
    assert rep.ode_residual <= 1e-10


@pytest.mark.parametrize("harmonic, error", [(1, ResonantHarmonic),
                                             (40, SingularMonodromy)])
def test_picard_resonant_model_raises(harmonic, error):
    """A grid harmonic on the spectrum fails in the harmonic solve; an
    eigenvalue 2 pi i k / T beyond the grid's harmonics makes I - e^{TA}
    singular."""
    T = 1.0
    model = scalar_picard_model(2j * np.pi * harmonic / T)
    f = make_fourier_forcing(T, {1: [0.1], -1: [0.1]}, model.space)
    with pytest.raises(error):
        picard_nonlinear(model, f, {3: -0.05})


def test_heat_wave_source_reads_displacement_and_drives_velocity():
    """g reads the wave displacements and enters the wave velocities only,
    wherever the heat block puts them in the state."""
    model = build_heat_wave_1d(9, 8)
    blocks = model.blocks
    heat_only = np.zeros(model.dim)
    heat_only[blocks["heat"].slice] = 1.0
    assert not np.any(_nonlinear_source(model, {3: 1.0}, heat_only))
    displacement_only = np.zeros(model.dim)
    displacement_only[blocks["displacement"].slice] = 0.5
    expected = np.zeros(model.dim)
    expected[blocks["velocity"].slice] = 0.125
    assert_allclose(_nonlinear_source(model, {3: 1.0}, displacement_only),
                    expected, rtol=0, atol=0)


def test_picard_converges_on_heat_wave():
    """n_heat = n_wave gives an odd state dimension, which no half split fits."""
    model = build_heat_wave_1d(8, 8)
    vec = np.zeros(model.dim)
    vec[model.blocks["velocity"].slice] = 1.0
    f = make_fourier_forcing(1.0, {1: 0.1 * vec, -1: 0.1 * vec}, model.space)
    rep = picard_nonlinear(model, f, {3: -1.0}, tol=1e-12)
    assert rep.converged and rep.trajectory.dtype == np.float64
    assert rep.ode_residual <= 1e-10


def test_picard_wave_structure_needs_wave_blocks():
    model = build_diagonal_model([-1.0, -2.0])
    f = make_fourier_forcing(1.0, {1: [0.1, 0.1], -1: [0.1, 0.1]}, model.space)
    with pytest.raises(ValueError, match="displacement and velocity"):
        picard_nonlinear(model, f, {3: -0.05})


def test_divergence_threshold_checks_the_monodromy_once(picard_cubic, config_dir,
                                                       monkeypatch):
    """The amplitude probes share one model and period, so the singularity
    check of I - e^{TA} (one SVD) runs once per sweep, not once per probe."""
    model, f, poly = picard_cubic
    pspec = json.loads((config_dir / "picard_cubic.json").read_text())["picard"]
    calls = []
    original = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **k: calls.append(a) or original(*a, **k))
    th = picard_divergence_threshold(model, f, poly,
                                     amplitudes=pspec["amplitudes"],
                                     tol=pspec["tol"])
    assert th == {"last_converged": 1.0, "first_diverged": 3.0}
    probes = pspec["amplitudes"].index(th["first_diverged"]) + 1
    assert probes > 1
    assert len(calls) == 1


def test_picard_stagnation_diverges_at_a_stable_sweep(picard_cubic):
    """At amplitude 3 the gap stalls with ratios within 1e-6 of 1; a 1e-13
    change of the forcing must not move the sweep that raises."""
    model, f, poly = picard_cubic
    sweeps = []
    for amp in (3.0, 3.0 * (1.0 + 1e-13)):
        with pytest.raises(Diverged, match="did not contract") as info:
            picard_nonlinear(model, scaled(f, amp), poly,
                             tol=1e-12)
        sweeps.append(re.search(r"sweep (\d+)", str(info.value)).group(1))
    assert sweeps[0] == sweeps[1]
