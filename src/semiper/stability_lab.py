"""Decay envelopes, resolvent scans and the bounds connecting them.

The envelope h_alpha(t) is the best constant in
|e^{tA} x|_X <= h_alpha(t) |x|_{alpha} over the deflated block, where
|.|_alpha is the Hilbertian domain norm induced by
G + ((-A)^alpha)* G (-A)^alpha; both norms are read through triangular
factors (``Model.reduced_gram_factor``, :func:`domain_inv_factor`),
never through a formed Gram. It is taken in the cached eigenbasis of
the deflated block, in real arithmetic on real models: the modes are
sorted slowest first and the two factors compressed to triangular form
once, and each time keeps only the leading modes that have not decayed
below round-off, a leading block product checked against the dropped
tail and recomputed over all modes when the check fails. The largest
singular value is read from the top eigenvalue of the product's Gram.
An ill-conditioned eigenbasis falls back to expm, the only use of
scipy.linalg here, which is imported on that branch. Scans are plain
grids of such values; fits extract power laws from running extrema on
log-log axes.

Two quantitative cross-checks are provided: the product of the fitted
resolvent growth exponent and the fitted decay exponent of the smoothed
envelope (equal to 1 for polynomial resolvent families on Hilbert
spaces), and an inverted log-corrected resolvent bound overlaid on the
measured decay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonMonotone, PoorFit
from .operator_core import (
    EIG_COND_LIMIT,
    Model,
    _real_columns,
    _real_inverse,
    _sigma_max,
    domain_inv_factor,
    resolvent_norm,
)

# An envelope keeps, at each time, the slowest modes whose discarded tail
# bound is at most _TAIL_KEPT of the largest mode's bound; a value whose
# tail exceeds _TAIL_CHECKED of it is recomputed over all modes.
_TAIL_KEPT = 2.0 ** -60
_TAIL_CHECKED = 2.0 ** -53


@dataclass
class FitResult:
    exponent: float
    constant: float
    window: tuple
    r2: float


@dataclass
class ScanResult:
    abscissae: np.ndarray
    values: np.ndarray
    fit: FitResult | None = None
    extras: dict = field(default_factory=dict)


def _is_normal(model: Model) -> bool:
    W = model.weighted_generator
    comm = W @ W.conj().T - W.conj().T @ W
    scale = max(np.linalg.norm(W) ** 2, 1e-300)
    return bool(np.linalg.norm(comm) <= 1e-10 * scale)


def _envelope_values(model: Model, alphas, t_grid) -> np.ndarray:
    """Row a holds h_alpha on t_grid for alphas[a].

    h_alpha(t) is sigma_max of S e^{tA_r} D_alpha on the deflated block,
    S = ``Model.reduced_gram_factor`` (|S x| is the Gram norm of x) and
    D_alpha = :func:`domain_inv_factor`. In the cached
    eigenbasis this is L e^{t Lambda} R_alpha with L = S V and
    R_alpha = V^{-1} D_alpha; no e^{tA} is built. On a real model (A_r and
    S real, eigenvalues in exact conjugate pairs j, j + 1) both factors
    are real: L = S times the real basis of V and R_alpha = X D_alpha with
    X from :func:`operator_core._real_inverse`, and e^{t Lambda} acts on a
    pair's two columns as a rotation scaled by e^{t Re lambda}.

    A mode group (a conjugate pair or one eigenvalue) is sorted slowest
    first, by a stable sort on Re lambda that keeps the pairs adjacent.
    With the triangular factors L = Q_1 T_1 and R_alpha* = Q_2 T_2, once
    per model and alpha, sigma(L E R_alpha) = sigma(T_1 E T_2*), and the
    leading k x k blocks hold exactly the first k modes. At each time the
    group bounds c_g e^{t Re lambda_g}, c_g = |L's columns|_F
    |R_alpha's rows|_F, keep the shortest prefix whose tail sums to at
    most 2^-60 of the largest bound; e^{t Lambda} is applied to that
    block of T_1 in O(k^2), and one k x k product goes to
    :func:`_sigma_max`. The tail bounds |sigma - sigma_k|, so when it
    exceeds 2^-53 sigma_k (a cancelling, non-normal envelope) the value
    is recomputed over all modes.

    When cond(V) exceeds EIG_COND_LIMIT each time takes S expm(t A_r)
    D_alpha instead, which on kernel models equals S Q* e^{tA} Q D_alpha;
    scipy.linalg is imported on that branch only.
    """
    A_r, _ = model.deflated
    S = model.reduced_gram_factor
    Dis = [domain_inv_factor(model, a) for a in alphas]
    t_grid = np.asarray(t_grid, dtype=float)
    values = np.empty((len(Dis), t_grid.size))
    w, V, Vinv, cond = model.deflated_eig
    if cond > EIG_COND_LIMIT:
        import scipy.linalg
        for i, t in enumerate(t_grid):
            SP = S @ scipy.linalg.expm(t * A_r)
            for a, Di in enumerate(Dis):
                values[a, i] = _sigma_max(SP @ Di)
        return values
    real = (_real_inverse(w, Vinv)
            if np.isrealobj(A_r) and np.isrealobj(S) else None)
    if real is None:
        first, L, X = np.empty(0, dtype=int), S @ V, Vinv
    else:
        first, X = real
        L = S @ _real_columns(V, first)
    order = np.argsort(-w.real, kind="stable")
    lead = np.ones(w.size, dtype=bool)
    lead[first + 1] = False
    w, lead = w[order], lead[order]
    L = L[:, order]
    Rs = [(X @ Di)[order] for Di in Dis]
    n = w.size
    starts = np.flatnonzero(lead)
    ends = np.append(starts[1:], n)
    pairs = starts[ends - starts == 2]
    rates = w.real if real is not None else w
    # kept[a, i] columns are kept for alphas[a] at t_grid[i]; rest[a, i]
    # bounds the norm of the dropped tail
    kept = np.empty(values.shape, dtype=int)
    rest = np.empty(values.shape)
    col_sq = np.add.reduceat(np.sum(np.abs(L) ** 2, axis=0), starts)
    for a, R in enumerate(Rs):
        c = np.sqrt(col_sq * np.add.reduceat(np.sum(np.abs(R) ** 2, axis=1), starts))
        with np.errstate(divide="ignore"):
            log_terms = np.log(c)[:, None] + np.outer(w.real[starts], t_grid)
        top = log_terms.max(axis=0)
        tail = np.cumsum(np.exp(log_terms - top)[::-1], axis=0)[::-1]
        tail = np.vstack([tail, np.zeros(t_grid.size)])
        groups = np.count_nonzero(tail > _TAIL_KEPT, axis=0)
        kept[a] = ends[groups - 1]
        rest[a] = tail[groups, np.arange(t_grid.size)] * np.exp(top)
    L = np.linalg.qr(L, mode="r")
    Rs = [np.linalg.qr(R.conj().T, mode="r").conj().T for R in Rs]

    def propagated(k, t):
        """The leading k x k block of T_1 e^{t Lambda}."""
        Le = L[:k, :k] * np.exp(rates[:k] * t)
        p = pairs[pairs < k]
        if p.size:
            cos, sin = np.cos(w.imag[p] * t), np.sin(w.imag[p] * t)
            P, Q = Le[:, p], Le[:, p + 1]
            Le[:, p], Le[:, p + 1] = P * cos - Q * sin, P * sin + Q * cos
        return Le

    for i, t in enumerate(t_grid):
        Le = propagated(kept[:, i].max(), t)
        for a, R in enumerate(Rs):
            k = kept[a, i]
            s = _sigma_max(Le[:k, :k] @ R[:k, :k])
            if k < n and rest[a, i] > _TAIL_CHECKED * s:
                s = _sigma_max(propagated(n, t) @ R)
            values[a, i] = s
    return values


def decay_envelope(model: Model, alpha: float, t_grid) -> ScanResult:
    """Measured envelope h_alpha on a time grid.

    Each value is the largest generalized singular value of e^{tA} from
    the domain norm of order alpha to the state norm, on the deflated
    block. The extras record the running minimum (used by fits on
    non-normal models, where raw values may wiggle) and whether the raw
    curve was nonincreasing to within 1e-10.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    values, = _envelope_values(model, (alpha,), t_grid)
    running = np.minimum.accumulate(values)
    rises = np.diff(values)
    monotone = bool(np.all(rises <= 1e-10 * np.maximum(values[:-1], 1e-300)))
    return ScanResult(abscissae=t_grid, values=values,
                      extras={"running_min": running, "monotone": monotone,
                              "normal": _is_normal(model), "alpha": alpha})


def resolvent_scan(model: Model, eta_grid) -> ScanResult:
    """Pointwise |R(i eta)| on the deflated block, with its running max.

    The running maximum realizes eta -> max over |s| <= eta of the
    resolvent norm when the grid starts near zero (the models here have
    resolvents symmetric in eta up to conjugation). Resolvent peaks sit
    at the spectral frequencies, which an evenly spaced grid straddles;
    the grid is therefore augmented with the imaginary parts
    of the eigenvalues falling inside its range. Abscissae that agree to
    1e-12 relative, such as the two members of a conjugate pair, are
    merged into the smallest of them.
    """
    eta_grid = np.asarray(eta_grid, dtype=float)
    freqs = np.abs(model.deflated_eig[0].imag)
    freqs = freqs[(freqs >= eta_grid.min()) & (freqs <= eta_grid.max())]
    # np.sort, not np.unique: the merge below drops exact duplicates too,
    # and np.unique would import numpy.ma on first use
    eta_grid = np.sort(np.concatenate([eta_grid, freqs]))
    apart = np.diff(eta_grid) > 1e-12 * np.abs(eta_grid[1:])
    eta_grid = eta_grid[np.concatenate([[True], apart])]
    values = np.array([resolvent_norm(model, e) for e in eta_grid])
    return ScanResult(abscissae=eta_grid, values=values,
                      extras={"running_max": np.maximum.accumulate(values)})


def _window_mask(x: np.ndarray, window) -> tuple[np.ndarray, tuple]:
    if window is None:
        hi = x.max()
        lo = hi / 10.0 ** 0.5
        window = (lo, hi)
    return (x >= window[0]) & (x <= window[1]), window


def fit_power_law(scan: ScanResult, window=None, use: str = "values",
                  min_r2: float = 0.9) -> FitResult:
    """Least-squares line through log values against log abscissae.

    ``use`` selects the raw values or a running extremum from the scan
    extras. The default window is the last half decade of abscissae.
    Raises ValueError when ``use`` names neither "values" nor an array
    in the extras, and PoorFit when r^2 falls below ``min_r2``.
    """
    curves = {k: v for k, v in scan.extras.items() if isinstance(v, np.ndarray)}
    curves["values"] = scan.values
    if use not in curves:
        raise ValueError(f"use={use!r} is not one of {sorted(curves)}")
    x, y = scan.abscissae, curves[use]
    mask, window = _window_mask(x, window)
    mask &= (x > 0) & (y > 0)
    if mask.sum() < 3:
        raise PoorFit(f"window {window} leaves {int(mask.sum())} usable points")
    lx, ly = np.log(x[mask]), np.log(y[mask])
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    if r2 < min_r2:
        raise PoorFit(f"power-law fit r^2 = {r2:.3f} below {min_r2}")
    fit = FitResult(exponent=float(slope), constant=float(np.exp(intercept)),
                    window=tuple(window), r2=r2)
    scan.fit = fit
    return fit


def fit_decay_exponent(scan: ScanResult, window=None, min_r2: float = 0.9) -> FitResult:
    """Power-law fit of a decay scan.

    Normal models use the raw envelope; non-normal ones fit the running
    minimum, which removes transient overshoots without changing the
    asymptotic slope.
    """
    use = "values" if scan.extras.get("normal", False) else "running_min"
    return fit_power_law(scan, window=window, use=use, min_r2=min_r2)


@dataclass
class BTReport:
    alpha_hat: float
    beta_hat: float
    product: float
    decay: ScanResult
    resolvent: ScanResult


def bt_crosscheck(model: Model, t_grid, eta_grid, t_window=None,
                  eta_window=None) -> BTReport:
    """Fitted resolvent growth against fitted smoothed decay.

    alpha_hat is the log-log slope of the running max of |R(i eta)|;
    beta_hat is minus the slope of the alpha = 1 envelope (the decay of
    the semigroup through the graph norm of A). For polynomially growing
    resolvent families on Hilbert spaces the two are reciprocal, so the
    reported product is the quantity to compare with 1.
    """
    dscan = decay_envelope(model, 1.0, t_grid)
    dfit = fit_decay_exponent(dscan, window=t_window)
    rscan = resolvent_scan(model, eta_grid)
    rfit = fit_power_law(rscan, window=eta_window, use="running_max")
    alpha_hat = rfit.exponent
    beta_hat = -dfit.exponent
    return BTReport(alpha_hat=alpha_hat, beta_hat=beta_hat,
                    product=alpha_hat * beta_hat, decay=dscan, resolvent=rscan)


def interpolation_check(model: Model, alpha: float, t_grid) -> ScanResult:
    """Ratio of h_alpha(t) to h_1(t / ceil(alpha))^alpha.

    Boundedness of this ratio is the quantitative form of the
    interpolated decay estimate; the extras carry the sup of the ratio
    and where it is attained.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    ceil_a = int(np.ceil(alpha))
    if ceil_a == 1:
        # both envelopes at the same times: one column scaling per time
        h_alpha, h_one = _envelope_values(model, (alpha, 1.0), t_grid)
    else:
        h_alpha, = _envelope_values(model, (alpha,), t_grid)
        h_one, = _envelope_values(model, (1.0,), t_grid / ceil_a)
    ratio = h_alpha / np.maximum(h_one ** alpha, 1e-300)
    sup_idx = int(np.argmax(ratio))
    return ScanResult(abscissae=t_grid, values=ratio,
                      extras={"sup": float(ratio[sup_idx]),
                              "arg_sup": float(t_grid[sup_idx]),
                              "h_alpha": h_alpha, "h_one": h_one})


@dataclass
class MlogReport:
    eta_grid: np.ndarray
    resolvent_max: np.ndarray
    m_log: np.ndarray
    t_grid: np.ndarray
    decay: np.ndarray
    bound: np.ndarray
    constant: float
    fraction_satisfied: float


def mlog_bound_curve(model: Model, eta_grid, t_grid) -> MlogReport:
    """Inverted log-corrected resolvent bound against the measured decay.

    Builds M(eta) as the running max of the resolvent scan and
    M_log(eta) = M(eta) (log(1 + M(eta)) + log(1 + eta)), checks
    monotonicity, numerically inverts M_log, and overlays
    t -> C / M_log^{-1}(t / C) on the measured alpha = 1 envelope with
    the scalar C fitted by least squares on log axes. Also reports at
    which fraction of the time grid the bound lies above the
    measurement.
    """
    rscan = resolvent_scan(model, eta_grid)
    M = rscan.extras["running_max"]
    eta = rscan.abscissae
    m_log = M * (np.log1p(M) + np.log1p(eta))
    drops = np.diff(m_log)
    if np.any(drops < -1e-9 * np.maximum(m_log[:-1], 1e-300)):
        raise NonMonotone("log-corrected resolvent majorant is not monotone; "
                          "refine the frequency grid")
    m_log = np.maximum.accumulate(m_log)

    dscan = decay_envelope(model, 1.0, t_grid)
    d = dscan.extras["running_min"]
    t = dscan.abscissae

    def bound_for(c: float):
        x = t / c
        valid = (x >= m_log[0]) & (x <= m_log[-1])
        inv = np.interp(x, m_log, eta)
        with np.errstate(divide="ignore"):
            b = np.where(valid & (inv > 0), c / np.maximum(inv, 1e-300), np.nan)
        return b, valid

    def objective(log_c: float):
        b, valid = bound_for(float(np.exp(log_c)))
        ok = valid & (d > 0) & np.isfinite(b)
        if ok.sum() < 3:
            return 1e6
        return float(np.sum((np.log(b[ok]) - np.log(d[ok])) ** 2))

    # imported here, its only user, to keep scipy.optimize out of startup
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(objective, bounds=(-10.0, 10.0), method="bounded")
    c_fit = float(np.exp(res.x))
    bound, valid = bound_for(c_fit)
    ok = valid & np.isfinite(bound)
    frac = float(np.mean(bound[ok] >= d[ok])) if ok.any() else 0.0
    return MlogReport(eta_grid=eta, resolvent_max=M, m_log=m_log,
                      t_grid=t, decay=d, bound=bound, constant=c_fit,
                      fraction_satisfied=frac)
