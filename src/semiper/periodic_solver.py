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

The nonlinear orbit of u' = A u + f + g(u) is a Picard iteration of
harmonic-balance sweeps on a uniform time grid (:func:`picard_nonlinear`).
A real problem (real A, real coefficients of g, real-valued Fourier data
f) has a real orbit, and its sweeps run in real arithmetic on the
harmonics 0..n/2 of ``rfft``; any other problem sweeps all harmonics in
complex arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import Diverged, KernelObstruction, SingularMonodromy, SlowConvergence
from .forcing import (
    FourierForcing,
    PeriodicForcing,
    admissibility_constant,
    check_class,
    control_duhamel,
    duhamel_FT,
)
from .operator_core import (
    Model,
    apply_real,
    from_block,
    harmonic_solve,
    propagate,
    propagated_columns,
    propagator_matrix,
    to_block,
)

_KERNEL_TOL = 1e-10
# periodic_w0_series stops at a term of norm SERIES_TOL * (1 + |F_T|)
SERIES_TOL = 1e-12
# a Picard gap ratio at or above this counts as a sweep that did not contract
_STALL_RATIO = 1.0 - 1e-6


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


def _kernel_guard(model: Model, x: np.ndarray, what: str = "one-period response"):
    if model.has_kernel:
        bad = model.space.norm(model.pi0 @ x)
        if bad > _KERNEL_TOL * (1.0 + model.space.norm(x)):
            raise KernelObstruction(
                f"{what} has kernel component {bad:.3e}; "
                "the forcing pumps the conserved mode and no periodic orbit exists")


def _mean_harmonic(f: FourierForcing) -> np.ndarray:
    return f.coefficients[f.harmonics == 0].sum(axis=0)


def _strip_kernel(model: Model, x: np.ndarray) -> np.ndarray:
    if model.has_kernel:
        return x - model.pi0 @ x
    return x


def _fixed_point_matrix(model: Model, T: float):
    """I - e^{TA} on the deflated block and its 2-norm condition number.

    Raises SingularMonodromy when the matrix is numerically singular.
    """
    M = propagator_matrix(model, T)
    _, Q = model.deflated
    M_r = M if Q is None else Q.conj().T @ M @ Q
    fixed = np.eye(M_r.shape[0]) - M_r
    svals = np.linalg.svd(fixed, compute_uv=False)
    smin = float(svals[-1])
    if smin < 1e-13 * max(1.0, float(svals[0])):
        raise SingularMonodromy(
            f"I - e(TA) is numerically singular on the deflated block "
            f"(sigma_min = {smin:.3e})")
    return fixed, float(svals[0]) / smin


def _direct_w0(model: Model, T: float, FT: np.ndarray):
    """w0 solving (I - e^{TA}) w0 = F_T on the deflated block, and the
    condition number of that system. The singularity check runs before
    the matrix is factored; ``np.linalg.solve`` then takes one LU
    factorization (getrf, then getrs) per call, a real one with F_T's
    real and imaginary parts as two columns when the model is real."""
    _kernel_guard(model, FT)
    fixed, condition = _fixed_point_matrix(model, T)
    w0 = from_block(model, apply_real(np.linalg.solve, fixed, to_block(model, FT)))
    return _strip_kernel(model, w0), condition


def _finish_report(model: Model, f: PeriodicForcing, w0, method, n_periods,
                   FT=None, tail=None, condition=None) -> PeriodicSolveReport:
    residuals, gap = verify_orbit(model, f, w0, n_periods, FT=FT)
    # W^{k,1} norm at the detected class index k (the L^1 norm at k = 0)
    denom = check_class(f, f.per0_order).wk1_norm
    ratio = model.space.norm(w0) / denom if denom > 0 else np.inf
    return PeriodicSolveReport(w0=w0, method=method,
                               residual_per_period=residuals,
                               norm_ratio=ratio, tail_estimate=tail,
                               condition=condition, crosscheck_gap=gap)


def periodic_w0_series(model: Model, f: PeriodicForcing,
                       n_periods: int = 1) -> PeriodicSolveReport:
    """Sum the propagated one-period responses until they are negligible.

    Stops when the current term e^{N T A} F_T has norm at most
    SERIES_TOL * (1 + |F_T|); raises SlowConvergence past 100000 terms.
    The tail estimate extrapolates the last term geometrically.
    """
    FT = duhamel_FT(model, f)
    _kernel_guard(model, FT)
    M = propagator_matrix(model, f.period)
    scale = 1.0 + model.space.norm(FT)
    acc = FT.copy()
    term = FT.copy()
    prev_norm = model.space.norm(term)
    n_terms = 1
    tail = None
    while True:
        term = apply_real(np.matmul, M, term)
        cur = model.space.norm(term)
        if cur <= SERIES_TOL * scale:
            rho = cur / prev_norm if prev_norm > 0 else 0.0
            tail = cur / (1.0 - rho) if rho < 1 else np.inf
            break
        acc += term
        n_terms += 1
        prev_norm = cur
        if n_terms > 100000:
            raise SlowConvergence(
                f"series did not reach tol {SERIES_TOL:.1e} within 100000 terms "
                f"(last term {cur:.3e}); the monodromy contracts too slowly")
    w0 = _strip_kernel(model, acc)
    return _finish_report(model, f, w0, f"series(N={n_terms})", n_periods,
                          FT=FT, tail=tail)


def periodic_w0_direct(model: Model, f: PeriodicForcing,
                       n_periods: int = 1) -> PeriodicSolveReport:
    """Solve the fixed-point system (I - e^{TA}) w0 = F_T.

    On kernel models the system is solved on the deflated block. The
    report's ``condition`` is the 2-norm condition number of the
    deflated fixed-point matrix. Raises SingularMonodromy when the
    matrix is numerically singular.
    """
    FT = duhamel_FT(model, f)
    w0, condition = _direct_w0(model, f.period, FT)
    return _finish_report(model, f, w0, "direct", n_periods, FT=FT,
                          condition=condition)


def periodic_w0_harmonic_balance(model: Model, f: FourierForcing,
                                 n_periods: int = 1) -> PeriodicSolveReport:
    """Resolvent solves for all harmonics, summed at t = 0.

    Needs Fourier data. Raises KernelObstruction when the mean harmonic
    pumps the kernel, and ResonantHarmonic when a harmonic frequency
    hits the spectrum of the deflated block. On kernel models the
    oscillating kernel components of the nonzero harmonics are dropped:
    the zero-mean convention on the returned state removes them.
    """
    if not isinstance(f, FourierForcing):
        raise ValueError("harmonic balance needs Fourier data")
    _kernel_guard(model, _mean_harmonic(f), "mean harmonic")
    X = harmonic_solve(model, f.harmonics, f.period, f.coefficients)
    w0 = _strip_kernel(model, X.sum(axis=0))
    return _finish_report(model, f, w0,
                          f"harmonic_balance(K={f.harmonics.size})",
                          n_periods)


# ---------------------------------------------------------------------------
# orbit verification and convergence to the orbit
# ---------------------------------------------------------------------------

def verify_orbit(model: Model, f: PeriodicForcing, w0, n_periods: int = 1,
                 FT=None):
    """Propagate the candidate orbit and measure the per-period residual.

    Returns (residuals, crosscheck_gap): residuals[n-1] = |u(nT) - w0|
    from per-period stepping u <- e^{TA} u + F_T, and the largest
    discrepancy against the independent closed form
    u(nT) = e^{nTA} w0 + sum_m e^{mTA} F_T evaluated at whole times, as
    one :func:`propagated_columns` sum per n. A solver that already
    holds F_T passes it as ``FT``; otherwise it is computed from ``f``.
    """
    w0 = np.asarray(w0, dtype=complex)
    if FT is None:
        FT = duhamel_FT(model, f)
    T = f.period
    residuals = []
    gap = 0.0
    u = w0.copy()
    for n in range(1, n_periods + 1):
        u = propagate(model, T, u) + FT
        residuals.append(model.space.norm(u - w0))
        offsets = [n * T] + [m * T for m in range(n)]
        direct = propagated_columns(model, offsets, [w0] + [FT] * n,
                                    np.ones(n + 1), summed=True)
        gap = max(gap, model.space.norm(u - direct))
    return residuals, gap


@dataclass
class ConvergenceReport:
    gaps: list
    ratios: list
    spectral_radius: float


def convergence_gap(model: Model, f: PeriodicForcing, v0, n_periods: int,
                    w0=None) -> ConvergenceReport:
    """Distance to the periodic orbit along a trajectory from v0.

    gap(n) = |u_{v0}(nT) - w0| contracts like the deflated monodromy;
    the report carries the gap ratios and the deflated spectral radius
    of e^{TA} for comparison.
    """
    if w0 is None:
        w0 = periodic_w0_direct(model, f).w0
    FT = duhamel_FT(model, f)
    M = propagator_matrix(model, f.period)
    rho = float(np.max(np.exp(f.period * model.deflated_eig[0].real)))
    u = np.asarray(v0, dtype=complex).copy()
    gaps = [model.space.norm(u - w0)]
    for _ in range(n_periods):
        u = apply_real(np.matmul, M, u) + FT
        gaps.append(model.space.norm(u - w0))
    ratios = [gaps[i + 1] / gaps[i] if gaps[i] > 0 else np.nan
              for i in range(len(gaps) - 1)]
    return ConvergenceReport(gaps=gaps, ratios=ratios, spectral_radius=rho)


# ---------------------------------------------------------------------------
# boundary-forced periodic solve
# ---------------------------------------------------------------------------

def boundary_periodic_solve(model: Model, g: FourierForcing,
                            n_periods: int = 1) -> PeriodicSolveReport:
    """Periodic orbit of a boundary-driven model.

    The one-period response Phi_T(g) (:func:`control_duhamel`) replaces
    the distributed F_T; the fixed-point solve and the verification are
    those of :func:`periodic_w0_direct`. The report's ``norm_ratio`` is
    measured against the L^2(0, T) norm of the boundary signal,
    sqrt(T sum_k |c_k|^2) by Parseval, and the realized admissibility
    constant of the input map is attached.
    """
    T = g.period
    FT = control_duhamel(model, g)
    w0, condition = _direct_w0(model, T, FT)
    residuals, gap = verify_orbit(model, g, w0, n_periods, FT=FT)
    g_l2 = math.sqrt(T * float(np.sum(np.abs(g.coefficients) ** 2)))
    ratio = model.space.norm(w0) / g_l2 if g_l2 > 0 else np.inf
    return PeriodicSolveReport(w0=w0, method="boundary_direct",
                               residual_per_period=residuals,
                               norm_ratio=ratio,
                               condition=condition, crosscheck_gap=gap,
                               admissibility=admissibility_constant(model, T))


# ---------------------------------------------------------------------------
# nonlinear periodic solve by Picard iteration
# ---------------------------------------------------------------------------

@dataclass
class NonlinearSolveReport:
    """A converged Picard solve: ``trajectory`` holds the orbit at
    ``times``, one state per row, and ``w0`` is its first row. Both are
    float64 on a real problem and complex128 otherwise."""
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


def _nonlinear_source(model: Model, poly: dict, states: np.ndarray) -> np.ndarray:
    """g(u) for one state or a stack of states along the last axis.

    g reads the model's ``displacement`` block and drives its
    ``velocity`` block; a model without both raises ValueError.
    """
    blocks = model.blocks
    if "displacement" not in blocks or "velocity" not in blocks:
        raise ValueError(f"g needs displacement and velocity blocks; "
                         f"{model.label!r} has {sorted(blocks)}")
    src = np.zeros_like(states)
    src[..., blocks["velocity"].slice] = _poly_eval(
        poly, states[..., blocks["displacement"].slice])
    return src


# defaults of picard_nonlinear and picard_divergence_threshold, and the
# number of uniform time nodes every Picard solve samples
PICARD_NODES = 64
PICARD_MAX_ITER = 30
PICARD_TOL = 1e-10


def picard_nonlinear(model: Model, f: PeriodicForcing, poly: dict,
                     max_iter: int = PICARD_MAX_ITER,
                     tol: float = PICARD_TOL) -> NonlinearSolveReport:
    """Periodic orbit of u' = A u + f + g(u) by Picard iteration.

    ``poly`` maps powers (>= 2) to coefficients of the superlinear
    nonlinearity g. It is applied nodewise to the model's ``displacement``
    block and enters the ``velocity`` block; a model without those two
    blocks raises ValueError before any solve.

    Each sweep is one step of alternating frequency-time (AFT) harmonic
    balance: the frozen source f + g(u_m) on the uniform grid of
    n = PICARD_NODES times becomes its trigonometric interpolant
    sum_k c_k e^{i omega_k t} (one FFT), whose periodic response
    sum_k (i omega_k - A)^{-1} c_k e^{i omega_k t} is exact: one
    :func:`harmonic_solve` (ResonantHarmonic) and one inverse transform
    back to the grid. When A is real, every coefficient of g is real and
    f is real-valued Fourier data (``FourierForcing.real_valued``), the
    orbit is real and the sweep solves only the harmonics 0..n/2 of
    ``rfft``, returning to the grid by ``irfft``. Otherwise it solves all
    n + 1 harmonics of ``fft``, the Nyquist bin split evenly between -n/2
    and n/2, and returns to the grid by ``ifft``. On kernel models the mean
    harmonic must not pump the kernel (KernelObstruction), the others add
    pi0 c_k / (i omega_k), and w0 is shifted to zero kernel component.
    I - e^{TA} is checked once (SingularMonodromy).

    Raises Diverged when the gap ratio stays at or above 1 - 1e-6 for
    three consecutive sweeps, and SlowConvergence when ``max_iter``
    sweeps do not reach ``tol``.
    """
    return _picard(model, f, poly, True, max_iter, tol)


def _picard(model: Model, f: PeriodicForcing, poly: dict, check_monodromy: bool,
            max_iter: int, tol: float) -> NonlinearSolveReport:
    """:func:`picard_nonlinear`, with the SingularMonodromy check of
    I - e^{TA} taken only when ``check_monodromy`` is set; an amplitude
    sweep on one model and period needs it once.

    The path is chosen from the inputs alone. On a real problem ``rfft``
    gives the rows k = 0..n/2 and ``irfft`` keeps only the real part of
    the mean and Nyquist rows: exact for a real orbit, and on the Nyquist
    row equal to the complex path's split of that bin between +-n/2."""
    for p in poly:
        if not (isinstance(p, int) and p >= 2):
            raise ValueError("nonlinearity must be superlinear: powers >= 2")
    # a model without the blocks g acts on is a config error: raise its
    # ValueError before any solve (a complex probe, as g may be complex)
    _nonlinear_source(model, poly, np.zeros(model.dim, dtype=complex))
    T = f.period
    n = PICARD_NODES
    times = T * np.arange(n) / n
    f_samples = f.eval_many(times)
    if (not np.iscomplexobj(model.A) and isinstance(f, FourierForcing)
            and f.real_valued and not any(map(np.iscomplexobj, poly.values()))):
        # the samples of real-valued data are real up to round-off
        f_samples = f_samples.real
        ks = np.arange(n // 2 + 1)

        def to_rows(samples):
            return np.fft.rfft(samples, axis=0) / n

        def to_grid(X):
            return np.fft.irfft(n * X, n=n, axis=0)
    else:
        # fft's harmonics 0..n/2-1, -n/2..-1 and a last row n/2: the
        # Nyquist bin is split evenly between -n/2 and n/2
        ks = np.append(np.fft.fftfreq(n, d=1.0 / n).astype(int), n // 2)

        def to_rows(samples):
            C = np.fft.fft(samples, axis=0) / n
            C[n // 2] *= 0.5
            return np.vstack([C, C[n // 2]])

        def to_grid(X):
            # e^{+-i pi j} agree at the nodes: both halves land in bin n/2
            X[n // 2] += X[n]
            return np.fft.ifft(n * X[:n], axis=0)
    # row 0 is the mean harmonic on both paths
    omega = 2.0 * np.pi * ks[1:] / T

    def linear_periodic(samples: np.ndarray) -> np.ndarray:
        C = to_rows(samples)
        X = harmonic_solve(model, ks, T, C)
        if model.has_kernel:
            _kernel_guard(model, C[0], "mean harmonic")
            # A pi0 = 0: the kernel part of (i omega_k - A)^{-1} c_k
            X[1:] += (C[1:] @ model.pi0.T) / (1j * omega[:, None])
        traj = to_grid(X)
        # shift along the kernel so that w0 has zero kernel component
        return traj - traj[0] @ model.pi0.T if model.has_kernel else traj

    traj = linear_periodic(f_samples)
    if check_monodromy:
        _fixed_point_matrix(model, T)       # raises SingularMonodromy
    gaps, ratios, stalled = [], [], 0
    for it in range(1, max_iter + 1):
        new_traj = linear_periodic(
            f_samples + _nonlinear_source(model, poly, traj))
        gap = float(model.space.row_norms(new_traj - traj).max())
        if not np.isfinite(gap):
            raise Diverged(f"iteration produced non-finite states at sweep {it}")
        gaps.append(gap)
        if len(gaps) >= 2 and gaps[-2] > 0:
            r = gaps[-1] / gaps[-2]
            ratios.append(r)
            stalled = stalled + 1 if r >= _STALL_RATIO else 0
            if stalled >= 3:
                raise Diverged(
                    f"gap did not contract for three consecutive sweeps "
                    f"(sweep {it}, last ratio {r:.3f})")
        traj = new_traj
        if gap <= tol * (1.0 + float(model.space.row_norms(traj).max())):
            break
    else:
        raise SlowConvergence(
            f"Picard iteration did not contract to {tol:.1e} in {max_iter} sweeps")

    residual = _ode_residual(model, poly, T, f_samples, traj)
    return NonlinearSolveReport(converged=True, iterations=it,
                                contraction_ratios=ratios, times=times,
                                trajectory=traj, w0=traj[0],
                                ode_residual=residual, gap_history=gaps)


def _ode_residual(model, poly, T, f_samples, traj) -> float:
    """max_t |u' - A u - f - g(u)| on the grid, u' by spectral differentiation."""
    n = traj.shape[0]
    ks = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        ks[n // 2] = 0.0       # drop the unmatched Nyquist bin from d/dt
    dtraj = np.fft.ifft(np.fft.fft(traj, axis=0) * (2j * np.pi / T * ks)[:, None],
                        axis=0)
    rhs = (apply_real(np.matmul, model.A, traj.T).T + f_samples
           + _nonlinear_source(model, poly, traj))
    return float(model.space.row_norms(dtraj - rhs).max())


def picard_divergence_threshold(model: Model, f: PeriodicForcing, poly: dict,
                                amplitudes=None,
                                tol: float = PICARD_TOL) -> dict:
    """Scale the forcing until the Picard iteration stops converging.

    Each probe is a :func:`picard_nonlinear` solve with ``tol``, at most
    PICARD_MAX_ITER sweeps. Returns the largest amplitude that converged
    and the first that failed (None when every probe converged). The
    probes share one model and period, so I - e^{TA} is checked for
    singularity once, in the first probe.
    """
    if amplitudes is None:
        amplitudes = [10.0 ** e for e in range(-3, 4)]
    last_ok = None
    first_bad = None
    for i, amp in enumerate(amplitudes):
        scaled = FourierForcing(f.period, f.harmonics, amp * f.coefficients,
                                f.space) if isinstance(f, FourierForcing) else None
        if scaled is None:
            raise ValueError("amplitude sweep needs Fourier data")
        try:
            _picard(model, scaled, poly, i == 0, PICARD_MAX_ITER, tol)
            last_ok = amp
        except (Diverged, SlowConvergence):
            first_bad = amp
            break
    return {"last_converged": last_ok, "first_diverged": first_bad}
