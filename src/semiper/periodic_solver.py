"""Periodic orbits of forced linear systems and a nonlinear fixed point.

For a stable generator A and a T-periodic forcing f, the unique periodic
orbit starts at the state w0 obtained from the one-period response
F_T(f) in any of three ways:

* series: w0 = sum_{n >= 0} e^{n T A} F_T, summed until the term norm
  drops below tolerance,
* direct: solve (I - e^{TA}) w0 = F_T,
* harmonic balance: w0 = sum_k (i omega_k I - A)^{-1} f_k over the
  Fourier harmonics of f.

On models with a kernel all three work on the deflated block and return
a w0 with zero kernel component by convention (any kernel offset yields
another periodic orbit; this pins the representative). A forcing whose
one-period response has a kernel component cannot have a periodic orbit
at all and raises KernelObstruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import Diverged, KernelObstruction, SlowConvergence
from .forcing import (
    FourierForcing,
    PeriodicForcing,
    admissibility_constant,
    check_class,
    control_duhamel,
    duhamel_FT,
    fourier_from_samples,
    gauss_panels,
)
from .models import gauss_legendre_rule
from .operator_core import (
    Model,
    deflated_eigs,
    from_block,
    harmonic_solve,
    propagator_matrix,
    to_block,
)

_KERNEL_TOL = 1e-10


@dataclass
class PeriodicSolveReport:
    w0: np.ndarray
    method: str
    residual_per_period: list
    norm_ratio: float
    tail_estimate: float | None = None
    condition: float | None = None
    crosscheck_gap: float | None = None
    admissibility: float | None = None


def _kernel_guard(model: Model, FT: np.ndarray):
    if model.has_kernel:
        bad = model.space.norm(model.pi0 @ FT)
        if bad > _KERNEL_TOL * (1.0 + model.space.norm(FT)):
            raise KernelObstruction(
                f"one-period response has kernel component {bad:.3e}; "
                "the forcing pumps the conserved mode and no periodic orbit exists")


def _strip_kernel(model: Model, x: np.ndarray) -> np.ndarray:
    if model.has_kernel:
        return x - model.pi0 @ x
    return x


def _finish_report(model: Model, f: PeriodicForcing, w0, method, n_periods,
                   FT=None, tail=None, condition=None,
                   quad=None) -> PeriodicSolveReport:
    residuals, gap = verify_orbit(model, f, w0, n_periods, FT=FT, **(quad or {}))
    # W^{k,1} norm at the detected class index k (the L^1 norm at k = 0)
    denom = check_class(f, f.per0_order).wk1_norm
    ratio = model.space.norm(w0) / denom if denom > 0 else np.inf
    return PeriodicSolveReport(w0=w0, method=method,
                               residual_per_period=residuals,
                               norm_ratio=ratio, tail_estimate=tail,
                               condition=condition, crosscheck_gap=gap)


def periodic_w0_series(model: Model, f: PeriodicForcing, tol: float = 1e-12,
                       max_terms: int = 100000, n_periods: int = 1,
                       **quad) -> PeriodicSolveReport:
    """Sum the propagated one-period responses until they are negligible.

    Stops when the current term e^{N T A} F_T has norm at most
    tol * (1 + |F_T|); raises SlowConvergence past ``max_terms`` terms.
    The tail estimate extrapolates the last term geometrically.
    """
    FT = duhamel_FT(model, f, **quad)
    _kernel_guard(model, FT)
    M = propagator_matrix(model, f.period)
    scale = 1.0 + model.space.norm(FT)
    acc = FT.copy()
    term = FT.copy()
    prev_norm = model.space.norm(term)
    n_terms = 1
    tail = None
    while True:
        term = M @ term
        cur = model.space.norm(term)
        if cur <= tol * scale:
            rho = cur / prev_norm if prev_norm > 0 else 0.0
            tail = cur / (1.0 - rho) if rho < 1 else np.inf
            break
        acc += term
        n_terms += 1
        prev_norm = cur
        if n_terms > max_terms:
            raise SlowConvergence(
                f"series did not reach tol {tol:.1e} within {max_terms} terms "
                f"(last term {cur:.3e}); the monodromy contracts too slowly")
    w0 = _strip_kernel(model, acc)
    return _finish_report(model, f, w0, f"series(N={n_terms})", n_periods,
                          FT=FT, tail=tail, quad=quad)


def periodic_w0_direct(model: Model, f: PeriodicForcing, n_periods: int = 1,
                       **quad) -> PeriodicSolveReport:
    """Solve the fixed-point system (I - e^{TA}) w0 = F_T.

    On kernel models the system is solved on the deflated block. The
    report's ``condition`` is the 2-norm condition number of the
    deflated fixed-point matrix. The matrix is checked and LU-factored
    once per (model, period); later solves reuse the factors. Raises
    SingularMonodromy when the matrix is numerically singular.
    """
    FT = duhamel_FT(model, f, **quad)
    _kernel_guard(model, FT)
    lu_piv, condition = model.fixed_point_lu(f.period)
    w0 = from_block(model, sla.lu_solve(lu_piv, to_block(model, FT)))
    w0 = _strip_kernel(model, w0)
    return _finish_report(model, f, w0, "direct", n_periods, FT=FT,
                          condition=condition, quad=quad)


def periodic_w0_harmonic_balance(model: Model, f: FourierForcing,
                                 n_periods: int = 1, **quad) -> PeriodicSolveReport:
    """Resolvent solves for all harmonics, summed at t = 0.

    Needs Fourier data. Raises KernelObstruction when the mean harmonic
    pumps the kernel, and ResonantHarmonic when a harmonic frequency
    hits the spectrum of the deflated block. On kernel models the
    oscillating kernel components of the nonzero harmonics are dropped:
    the zero-mean convention on the returned state removes them.
    """
    if not isinstance(f, FourierForcing):
        raise ValueError("harmonic balance needs Fourier data")
    if model.has_kernel:
        for c in f.coefficients[f.harmonics == 0]:
            bad = model.space.norm(model.pi0 @ c)
            if bad > _KERNEL_TOL * (1.0 + model.space.norm(c)):
                raise KernelObstruction(
                    f"mean harmonic has kernel component {bad:.3e}")
    X_r = harmonic_solve(model, f.harmonics, f.period,
                         to_block(model, f.coefficients))
    w0 = _strip_kernel(model, from_block(model, X_r.sum(axis=0)))
    return _finish_report(model, f, w0,
                          f"harmonic_balance(K={f.harmonics.size})",
                          n_periods, quad=quad)


# ---------------------------------------------------------------------------
# orbit verification and convergence to the orbit
# ---------------------------------------------------------------------------

def verify_orbit(model: Model, f: PeriodicForcing, w0, n_periods: int = 1,
                 FT=None, **quad):
    """Propagate the candidate orbit and measure the per-period residual.

    Returns (residuals, crosscheck_gap): residuals[n-1] = |u(nT) - w0|
    from per-period stepping u <- e^{TA} u + F_T, and the largest
    discrepancy against the independent closed form
    u(nT) = e^{nTA} w0 + sum_m e^{mTA} F_T evaluated at whole times.
    A solver that already holds F_T passes it as ``FT``; otherwise it is
    computed with the ``quad`` options.
    """
    w0 = np.asarray(w0, dtype=complex)
    if FT is None:
        FT = duhamel_FT(model, f, **quad)
    M = propagator_matrix(model, f.period)
    T = f.period
    residuals = []
    gap = 0.0
    u = w0.copy()
    for n in range(1, n_periods + 1):
        u = M @ u + FT
        residuals.append(model.space.norm(u - w0))
        direct = propagator_matrix(model, n * T) @ w0
        for m in range(n):
            direct = direct + propagator_matrix(model, m * T) @ FT
        gap = max(gap, model.space.norm(u - direct))
    return residuals, gap


@dataclass
class ConvergenceReport:
    gaps: list
    ratios: list
    spectral_radius: float


def convergence_gap(model: Model, f: PeriodicForcing, v0, n_periods: int,
                    w0=None, **quad) -> ConvergenceReport:
    """Distance to the periodic orbit along a trajectory from v0.

    gap(n) = |u_{v0}(nT) - w0| contracts like the deflated monodromy;
    the report carries the gap ratios and the deflated spectral radius
    of e^{TA} for comparison.
    """
    if w0 is None:
        w0 = periodic_w0_direct(model, f, **quad).w0
    FT = duhamel_FT(model, f, **quad)
    M = propagator_matrix(model, f.period)
    rho = float(np.max(np.exp(f.period * deflated_eigs(model).real)))
    u = np.asarray(v0, dtype=complex).copy()
    gaps = [model.space.norm(u - w0)]
    for _ in range(n_periods):
        u = M @ u + FT
        gaps.append(model.space.norm(u - w0))
    ratios = [gaps[i + 1] / gaps[i] if gaps[i] > 0 else np.nan
              for i in range(len(gaps) - 1)]
    return ConvergenceReport(gaps=gaps, ratios=ratios, spectral_radius=rho)


# ---------------------------------------------------------------------------
# boundary-forced periodic solve
# ---------------------------------------------------------------------------

def boundary_periodic_solve(model: Model, g: PeriodicForcing,
                            n_periods: int = 1, panels: int | None = None,
                            order: int = 8) -> PeriodicSolveReport:
    """Periodic orbit of a boundary-driven model.

    The one-period response Phi_T(g) replaces the distributed F_T;
    afterwards the fixed-point solve and verification proceed exactly as
    in the distributed case. The report's ``norm_ratio`` is measured
    against the L^2(0, T) norm of the boundary signal and the realized
    admissibility constant of the input map is attached.
    """
    T = g.period
    FT = control_duhamel(model, g, T, panels=panels, order=order)
    M = propagator_matrix(model, T)
    lu_piv, condition = model.fixed_point_lu(T)
    w0 = from_block(model, sla.lu_solve(lu_piv, to_block(model, FT)))

    residuals = []
    u = w0.copy()
    for _ in range(n_periods):
        u = M @ u + FT
        residuals.append(model.space.norm(u - w0))

    nodes, weights = gauss_panels(T, 32, 8)
    gvals = g.eval_many(nodes)[:, 0]
    g_l2 = float(np.sqrt(np.dot(weights, np.abs(gvals) ** 2)))
    ratio = model.space.norm(w0) / g_l2 if g_l2 > 0 else np.inf
    return PeriodicSolveReport(w0=w0, method="boundary_direct",
                               residual_per_period=residuals,
                               norm_ratio=ratio,
                               condition=condition,
                               admissibility=admissibility_constant(model, T))


# ---------------------------------------------------------------------------
# nonlinear periodic solve by Picard iteration
# ---------------------------------------------------------------------------

@dataclass
class NonlinearSolveReport:
    converged: bool
    iterations: int
    contraction_ratios: list
    times: np.ndarray
    trajectory: np.ndarray
    w0: np.ndarray
    ode_residual: float
    gap_history: list = field(default_factory=list)


def _poly_eval(poly: dict, x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    for p, c in poly.items():
        out += c * x ** p
    return out


def _nonlinear_source(model: Model, poly: dict, state: np.ndarray,
                      structure: str) -> np.ndarray:
    if structure == "identity":
        return _poly_eval(poly, state)
    if structure == "wave":
        n = model.dim // 2
        src = np.zeros_like(state)
        src[n:] = _poly_eval(poly, state[:n])
        return src
    raise ValueError(f"unknown nonlinear structure {structure!r}")


def picard_nonlinear(model: Model, f: PeriodicForcing, poly: dict,
                     structure: str = "wave", n_nodes: int = 64,
                     gauss_order: int = 8, max_iter: int = 30,
                     tol: float = 1e-10) -> NonlinearSolveReport:
    """Periodic orbit of u' = A u + f + g(u) by Picard iteration.

    ``poly`` maps powers (>= 2) to coefficients of the superlinear
    nonlinearity g; it is applied nodewise to the displacement block for
    wave-type models (``structure="wave"``) or to the whole state
    (``structure="identity"``). Each sweep solves the linear periodic
    problem with the frozen source f + g(u_m) represented on a uniform
    time grid, advancing the trajectory panel by panel with
    Gauss-Legendre quadrature of its trigonometric interpolant.

    Raises Diverged after three consecutive expanding sweeps and
    SlowConvergence when ``max_iter`` sweeps do not reach ``tol``.
    """
    for p in poly:
        if not (isinstance(p, int) and p >= 2):
            raise ValueError("nonlinearity must be superlinear: powers >= 2")
    T = f.period
    times = T * np.arange(n_nodes) / n_nodes
    dt = T / n_nodes
    xi, wq = gauss_legendre_rule(gauss_order)
    xi = 0.5 * (xi + 1.0)
    wq = 0.5 * wq * dt
    step_mat = propagator_matrix(model, dt)
    lag_mats = [propagator_matrix(model, dt * (1.0 - x)) for x in xi]
    quad_times = (times[:-1, None] + dt * xi).ravel()

    def advance(w0_loc, source: FourierForcing) -> np.ndarray:
        svals = source.eval_many(quad_times).reshape(n_nodes - 1, gauss_order, model.dim)
        inc = sum(wq[q] * (svals[:, q] @ lag_mats[q].T) for q in range(gauss_order))
        traj = np.empty((n_nodes, model.dim), dtype=complex)
        traj[0] = w0_loc
        u = w0_loc
        for i in range(n_nodes - 1):
            u = step_mat @ u + inc[i]
            traj[i + 1] = u
        return traj

    def linear_periodic(source_samples: np.ndarray):
        four = fourier_from_samples(T, source_samples, model.space)
        rep = periodic_w0_direct(model, four, n_periods=1)
        return advance(rep.w0, four), four

    f_samples = f.eval_many(times)
    traj, _ = linear_periodic(f_samples)
    gaps = []
    ratios = []
    expanding = 0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        src = f_samples + np.array(
            [_nonlinear_source(model, poly, traj[i], structure)
             for i in range(n_nodes)])
        new_traj, source_fourier = linear_periodic(src)
        gap = float(model.space.row_norms(new_traj - traj).max())
        if not np.isfinite(gap):
            raise Diverged(f"iteration produced non-finite states at sweep {it}")
        gaps.append(gap)
        if len(gaps) >= 2 and gaps[-2] > 0:
            r = gaps[-1] / gaps[-2]
            ratios.append(r)
            expanding = expanding + 1 if r >= 1.0 else 0
            if expanding >= 3:
                raise Diverged(
                    f"gap grew for three consecutive sweeps (last ratio {r:.3f})")
        traj = new_traj
        scale = float(model.space.row_norms(traj).max())
        if gap <= tol * (1.0 + scale):
            converged = True
            break
    if not converged:
        raise SlowConvergence(
            f"Picard iteration did not contract to {tol:.1e} in {max_iter} sweeps")

    residual = _ode_residual(model, f, poly, structure, times, traj)
    return NonlinearSolveReport(converged=converged, iterations=it,
                                contraction_ratios=ratios, times=times,
                                trajectory=traj, w0=traj[0],
                                ode_residual=residual, gap_history=gaps)


def _ode_residual(model, f, poly, structure, times, traj) -> float:
    n = times.size
    T = f.period
    coeff = np.fft.fft(traj, axis=0) / n
    ks = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        ks[n // 2] = 0.0       # drop the unmatched Nyquist bin from d/dt
    dcoeff = coeff * (1j * 2 * np.pi * ks / T)[:, None]
    dtraj = np.fft.ifft(dcoeff * n, axis=0)
    fvals = f.eval_many(times)
    worst = 0.0
    for i in range(n):
        rhs = model.A @ traj[i] + fvals[i] + _nonlinear_source(
            model, poly, traj[i], structure)
        worst = max(worst, model.space.norm(dtraj[i] - rhs))
    return worst


def picard_divergence_threshold(model: Model, f: PeriodicForcing, poly: dict,
                                structure: str = "wave",
                                amplitudes=None, **kwargs) -> dict:
    """Scale the forcing until the Picard iteration stops converging.

    Returns the largest amplitude that converged and the first that
    failed (None when every probe converged).
    """
    if amplitudes is None:
        amplitudes = [10.0 ** e for e in range(-3, 4)]
    last_ok = None
    first_bad = None
    for amp in amplitudes:
        scaled = FourierForcing(f.period, f.harmonics, amp * f.coefficients,
                                f.space) if isinstance(f, FourierForcing) else None
        if scaled is None:
            raise ValueError("amplitude sweep needs Fourier data")
        try:
            picard_nonlinear(model, scaled, poly, structure, **kwargs)
            last_ok = amp
        except (Diverged, SlowConvergence):
            first_bad = amp
            break
    return {"last_converged": last_ok, "first_diverged": first_bad}
