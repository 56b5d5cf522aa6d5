"""Resonant growth driven by weakly damped equatorial modes.

With damping supported on two polar caps, the equatorial harmonic of
order j feels only an exponentially small piece of it: the multiplier
norm |M_a Phi_j| decays like exp(-c sqrt(lambda_j)). Driving the block
with the pullback forcing f(s) = C_j e^{(s-T)A} Phi_j / T makes the
one-period response exactly C_j Phi_j, and as long as the accumulated
deviation n T |M_a Phi_j| stays small the orbit norm grows linearly,
|u(nT)| >= C_j n (1 - n T |M_a Phi_j|). The experiment here measures
all three ingredients: the concentration norms across j, the
propagation constant used to normalize the forcing, and the growth
curve with its lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BackwardGrowthExcessive
from .forcing import SemigroupPullbackForcing, check_class, duhamel_FT
from .models import (
    DampingProfile,
    SphereBlockModel,
    build_sphere_schrodinger,
    equatorial_harmonic,
)
from .operator_core import propagate, propagator_matrix


DEFAULT_PERIOD = 2.0 * math.pi
# concentration_scan truncates the block of order j at degree j + EXTRA_DEGREES
EXTRA_DEGREES = 60


def truncation_tail(block: SphereBlockModel) -> float:
    """Relative mass of M_a Phi_j carried by the top ten retained degrees.

    Diagnostic for how far the damping scatters the equatorial harmonic
    across degrees; the adequacy invariant for the truncation itself is
    the state-energy leakage tracked by growth_experiment.
    """
    col = block.multiplier[:, 0]
    total = float(np.linalg.norm(col))
    if total == 0:
        return 0.0
    return float(np.linalg.norm(col[-10:])) / total


@dataclass
class ConcentrationScan:
    js: np.ndarray
    concentration_norms: np.ndarray
    sqrt_eigenvalues: np.ndarray
    fitted_c: float
    slope_vs_j: float
    intercept: float
    r2: float
    tails: np.ndarray


def concentration_scan(j_values, damping: DampingProfile,
                       quad_nodes: int | None = None) -> ConcentrationScan:
    """Concentration norms |M_a Phi_j| across block orders.

    One azimuthal block m = j per entry, truncated at
    Jmax = j + EXTRA_DEGREES.
    The exponential rate c is fitted from log |M_a Phi_j| against
    sqrt(j (j + 1)); the slope against j itself is also reported since
    it is the quantity to compare with log sin(r) for cap damping of
    aperture r.
    """
    js = np.asarray(sorted(j_values), dtype=int)
    norms = np.empty(js.size)
    tails = np.empty(js.size)
    for i, j in enumerate(js):
        block = build_sphere_schrodinger(j + EXTRA_DEGREES, int(j), damping,
                                         quad_nodes=quad_nodes)
        norms[i] = float(np.linalg.norm(block.multiplier[:, 0]))
        tails[i] = truncation_tail(block)
    lam = js * (js + 1.0)
    sq = np.sqrt(lam)
    ly = np.log(np.maximum(norms, 1e-300))
    slope_sq, intercept = np.polyfit(sq, ly, 1)
    slope_j = float(np.polyfit(js.astype(float), ly, 1)[0])
    pred = slope_sq * sq + intercept
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(np.sum((ly - pred) ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return ConcentrationScan(js=js, concentration_norms=norms,
                             sqrt_eigenvalues=sq, fitted_c=float(-slope_sq),
                             slope_vs_j=slope_j, intercept=float(np.exp(intercept)),
                             r2=r2, tails=tails)


def measured_propagation_bound(block: SphereBlockModel, k: int,
                               period: float = DEFAULT_PERIOD) -> float:
    """sup over s in [0, T] of |e^{(s-T)A} Phi_j|_{H^k} / |Phi_j|_{H^k},
    sampled at 33 equispaced times.

    The 33 states come from one array-valued :func:`propagate`, and the
    H^k weights are applied to its columns. The backward orbit of the
    equatorial harmonic is nearly isometric; values far above 1 mean the
    block is being driven through strongly damped directions and the
    pullback normalization would be meaningless, so growth beyond 1e6
    raises BackwardGrowthExcessive.
    """
    phi = equatorial_harmonic(block)
    ref = block.hk_norm(phi, k)
    states = propagate(block.model, np.linspace(0.0, period, 33) - period, phi)
    hk = np.linalg.norm(block.hk_weights(k)[:, None] * states, axis=0)
    worst = float(hk.max()) / ref
    if worst > 1e6:
        raise BackwardGrowthExcessive(
            f"backward orbit grew by {worst:.3e}; pullback normalization refused")
    return worst


def resonant_forcing(block: SphereBlockModel, k: int,
                     period: float = DEFAULT_PERIOD) -> SemigroupPullbackForcing:
    """Pullback forcing tuned to the equatorial harmonic Phi_j of the block,
    j = block.m.

    The scale C_j = 1 / (C * |Phi_j|_{H^k}) uses the measured
    propagation bound C, which keeps the forcing's L^1(H^k) norm inside
    (0, 1]. The one-period response of the returned forcing is exactly
    C_j Phi_j.
    """
    phi = equatorial_harmonic(block)
    C = measured_propagation_bound(block, k, period)
    scale = 1.0 / (C * block.hk_norm(phi, k))
    return SemigroupPullbackForcing(block.model, phi, scale, period)


def resonant_horizon(block: SphereBlockModel, k: int) -> int:
    """Number of periods ceil(lambda_j^{k/2 + 1}) the growth regime covers."""
    lam = float(block.eigenvalues[0])
    return int(math.ceil(lam ** (k / 2.0 + 1.0)))


@dataclass
class GrowthExperiment:
    j: int
    Jmax: int
    k: int
    C_j: float
    period: float
    n_grid: np.ndarray
    norms: np.ndarray
    lower_bound_curve: np.ndarray
    deviation_norms: np.ndarray
    concentration_norm: float
    fitted_c: float
    propagation_bound: float
    single_period_response: float
    forcing_l1_norm: float = float("nan")
    truncation_leakage: float = 0.0


def orbit_norms(M: np.ndarray, FT: np.ndarray, n_max: int):
    """|u(nT)| for n = 1..n_max of u(nT) = M u((n-1)T) + FT from u(0) = 0.

    ``M`` is the one-period propagator and ``FT`` the one-period response.
    Also returns the truncation leakage: the largest share of |u(nT)|^2
    carried by the last ten coordinates, the top degrees of a sphere block.
    The states are stepped by the recurrence and stored, and the norms and
    the leakage are then taken over all of them at once; a closed-form
    geometric sum would move the ill-conditioned outputs of detuned runs.
    """
    U = np.empty((n_max, M.shape[0]), dtype=complex)
    u = np.zeros(M.shape[0], dtype=complex)
    for n in range(n_max):
        u = M @ u + FT
        U[n] = u
    norms = np.linalg.norm(U, axis=1)
    top = np.sum(np.abs(U[:, -10:]) ** 2, axis=1)
    leakage = float(np.max(top / np.maximum(norms ** 2, 1e-300), initial=0.0))
    return norms, leakage


def growth_experiment(block: SphereBlockModel, k: int,
                      n_max: int | None = None,
                      period: float = DEFAULT_PERIOD,
                      forcing: SemigroupPullbackForcing | None = None,
                      deviation_checks: int = 200) -> GrowthExperiment:
    """Drive the block resonantly at j = block.m and record the orbit norms
    per period.

    ``forcing`` defaults to the block's own resonant pullback; passing
    the forcing built on another block runs a cross-driving control
    (e.g. the fully damped contrast). The lower bound curve is
    C_j n (1 - n T c_hat) with c_hat the measured concentration norm,
    clipped at zero; deviation_norms[m-1] = |(e^{mTA} - e^{mTA_0}) Phi_j|
    against the undamped reference A_0 = -i Lambda.
    """
    if forcing is None:
        forcing = resonant_forcing(block, k, period)
    lam = float(block.eigenvalues[0])
    if n_max is None:
        n_max = min(200, resonant_horizon(block, k))
    phi = equatorial_harmonic(block)
    c_hat = float(np.linalg.norm(block.multiplier @ phi))
    C = measured_propagation_bound(block, k, period)
    C_j = float(abs(forcing.scale))

    FT = duhamel_FT(block.model, forcing)
    M = propagator_matrix(block.model, period)
    norms, leakage = orbit_norms(M, FT, n_max)
    n_grid = np.arange(1, n_max + 1)
    lower = C_j * n_grid * np.clip(1.0 - n_grid * period * c_hat, 0.0, None)

    m_checks = min(deviation_checks, n_max)
    dev = np.empty(m_checks)
    y = phi.astype(complex)
    for m in range(1, m_checks + 1):
        y = M @ y
        dev[m - 1] = float(np.linalg.norm(y - np.exp(-1j * lam * m * period) * phi))

    l1 = check_class(forcing, 0).l1_norm
    fitted_c = float(-math.log(max(c_hat, 1e-300)) / math.sqrt(lam))
    return GrowthExperiment(j=block.m, Jmax=block.Jmax, k=k, C_j=C_j, period=period,
                            n_grid=n_grid, norms=norms,
                            lower_bound_curve=lower, deviation_norms=dev,
                            concentration_norm=c_hat, fitted_c=fitted_c,
                            propagation_bound=C,
                            single_period_response=float(np.linalg.norm(FT)),
                            forcing_l1_norm=l1,
                            truncation_leakage=leakage)
