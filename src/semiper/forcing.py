"""Time-periodic forcings and one-period Duhamel responses.

A forcing is a T-periodic map t -> f(t) into a model's state space with
one of two representations:

* Fourier: finitely many harmonics exp(i 2 pi k t / T), with exact
  derivatives of every order; samples on a uniform grid enter through
  their discrete Fourier transform (:func:`fourier_from_samples`),
* semigroup pullback: f(s) = scale * e^{(s-T)A} phi / T, the profile
  used to drive a mode resonantly; derivatives are again exact since
  d/ds maps the profile to the pullback of A phi.

The central quantity is the one-period response
F_T(f) = integral_0^T e^{A(T-s)} f(s) ds. The forcing's type alone picks
how it is computed: Fourier data in closed form, with all harmonics in
one :func:`harmonic_solve` on the deflated block, and any other forcing
by panelwise Gauss-Legendre quadrature with a refinement guard. A
boundary signal g enters as the Fourier forcing B g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# loaded with the package, not on first use: the Fourier coefficients
# here and Picard's spectral derivative both need it
import numpy.fft

from .errors import NonFiniteInput, QuadratureUnderResolved
from .models import gauss_legendre_rule
from .operator_core import (
    Model,
    StateSpace,
    _sigma_max,
    harmonic_solve,
    propagate,
    propagated_columns,
)

_PER0_DETECT_MAX = 12
# the composite rule check_class takes its time norms on
_CLASS_PANELS = 48
_CLASS_ORDER = 8


def gauss_panels(T: float, panels: int, order: int):
    """Composite Gauss-Legendre nodes and weights on [0, T]."""
    x, w = gauss_legendre_rule(order)
    edges = np.linspace(0.0, T, panels + 1)
    mid = 0.5 * (edges[:-1, None] + edges[1:, None])
    half = 0.5 * (edges[1:, None] - edges[:-1, None])
    nodes = (mid + half * x).ravel()
    weights = (half * np.broadcast_to(w, (panels, order))).ravel()
    return nodes, weights


# ---------------------------------------------------------------------------
# forcing representations
# ---------------------------------------------------------------------------

class PeriodicForcing:
    """Base class; subclasses provide ``eval_many``."""

    period: float
    space: StateSpace | None
    dim: int

    def eval(self, t: float, deriv: int = 0) -> np.ndarray:
        return self.eval_many(np.array([t]), deriv)[0]

    def eval_many(self, ts, deriv: int = 0) -> np.ndarray:
        raise NotImplementedError

    def derivative_forcing(self, order: int) -> "PeriodicForcing":
        raise NotImplementedError

    @property
    def per0_order(self) -> int:
        return 0

    @property
    def tag(self) -> str:
        k = self.per0_order
        return f"Wk1_per0({k})" if k >= 1 else "Wk1_per"

    def norms_at(self, ts, deriv: int = 0) -> np.ndarray:
        """Norms of f^(deriv) at the times ts."""
        vals = self.eval_many(ts, deriv)
        if self.space is not None:
            return self.space.row_norms(vals)
        return np.linalg.norm(vals, axis=1)


class FourierForcing(PeriodicForcing):
    """f(t) = sum_k c_k exp(i 2 pi k t / T) with finitely many harmonics."""

    def __init__(self, period: float, harmonics, coefficients, space=None):
        if period <= 0:
            raise ValueError("period must be positive")
        self.period = float(period)
        self.harmonics = np.asarray(harmonics, dtype=int)
        C = np.asarray(coefficients, dtype=complex)
        if C.ndim == 1:
            C = C[:, None]
        if C.shape[0] != self.harmonics.size:
            raise ValueError("one coefficient row per harmonic required")
        if not np.all(np.isfinite(C)):
            raise NonFiniteInput("fourier coefficients must be finite")
        self.coefficients = C
        self.space = space
        self.dim = C.shape[1]
        self._per0 = None
        self._span = None
        self._class_norms = {}

    @property
    def omega(self) -> np.ndarray:
        return 2.0 * np.pi * self.harmonics / self.period

    def eval_many(self, ts, deriv: int = 0) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        factors = (1j * self.omega) ** deriv
        phases = np.exp(1j * np.outer(ts, self.omega))
        return (phases * factors) @ self.coefficients

    def norms_at(self, ts, deriv: int = 0) -> np.ndarray:
        """Norms of f^(deriv)(ts) = P C, C the coefficient rows, taken in
        their span: the row norms of P C R^T, where R* R is the Gram."""
        P = np.exp(1j * np.outer(ts, self.omega)) * (1j * self.omega) ** deriv
        if self._span is None:
            C = self.coefficients
            self._span = C if self.space is None else C @ self.space.gram_factor.T
        return np.linalg.norm(P @ self._span, axis=1)

    def derivative_forcing(self, order: int) -> "FourierForcing":
        factors = (1j * self.omega) ** order
        return FourierForcing(self.period, self.harmonics,
                              self.coefficients * factors[:, None], self.space)

    @property
    def per0_order(self) -> int:
        if self._per0 is None:
            amp = np.max(np.abs(self.coefficients), initial=0.0)
            order = 0
            for j in range(_PER0_DETECT_MAX):
                endpoint = ((1j * self.omega) ** j) @ self.coefficients
                scale = max(amp * np.max(np.abs(self.omega), initial=1.0) ** j, 1e-300)
                if np.max(np.abs(endpoint)) > 1e-10 * scale:
                    break
                order = j + 1
            self._per0 = order
        return self._per0


def make_fourier_forcing(period: float, coefficients: dict, space=None) -> FourierForcing:
    """Build a Fourier forcing from a mapping {harmonic k: vector}."""
    ks = sorted(coefficients)
    C = np.array([np.atleast_1d(np.asarray(coefficients[k], dtype=complex)) for k in ks])
    return FourierForcing(period, np.array(ks, dtype=int), C, space)


def per0_bump_forcing(period: float, order: int, vector, space=None) -> FourierForcing:
    """sin(pi t / T)^{2 order} times a fixed vector, as exact Fourier data.

    The profile vanishes together with its first 2*order - 1 derivatives
    at the period endpoints, so the result lies in the vanishing-trace
    class of every index up to 2*order.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    v = np.atleast_1d(np.asarray(vector, dtype=complex))
    scale = 4.0 ** (-order)
    coeffs = {0: scale * math.comb(2 * order, order) * v}
    for m in range(1, order + 1):
        c = scale * ((-1) ** m) * math.comb(2 * order, order - m)
        coeffs[m] = c * v
        coeffs[-m] = c * v
    return make_fourier_forcing(period, coeffs, space)


def fourier_from_samples(period: float, samples, space=None) -> FourierForcing:
    """Trigonometric interpolant of values on the uniform grid T j / n.

    ``samples`` has one row per grid time (a 1-d array is one scalar
    channel). For even n the Nyquist bin is split evenly between the
    harmonics -n/2 and n/2, so real samples interpolate to a real
    forcing.
    """
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim == 1:
        samples = samples[:, None]
    n = samples.shape[0]
    coeff = np.fft.fft(samples, axis=0) / n
    ks = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    if n % 2 == 0:
        # split the Nyquist bin symmetrically so real samples stay real
        ny = np.where(ks == -n // 2)[0][0]
        ks = np.concatenate([ks, [n // 2]])
        coeff = np.vstack([coeff, 0.5 * coeff[ny][None, :]])
        coeff[ny] *= 0.5
    order = np.argsort(ks)
    return FourierForcing(period, ks[order], coeff[order], space)


class SemigroupPullbackForcing(PeriodicForcing):
    """f(s) = scale * e^{(s - T) A} phi / T on [0, T), extended periodically.

    Driving a model with the pullback of one of its own states makes the
    Duhamel integrand constant, so the one-period response is exactly
    scale * phi. Generally discontinuous at period multiples (class
    L1_per).
    """

    def __init__(self, model: Model, phi, scale: float, period: float):
        self.model = model
        self.phi = np.asarray(phi, dtype=complex)
        self.scale = complex(scale)
        self.period = float(period)
        self.space = model.space
        self.dim = model.dim

    def eval_many(self, ts, deriv: int = 0) -> np.ndarray:
        """Rows f^(deriv)(t) = scale e^{(s - T)A} A^deriv phi / T, s = t mod T,
        for all ts from one array-valued :func:`propagate`."""
        s = np.mod(np.asarray(ts, dtype=float), self.period)
        base = self.phi
        for _ in range(deriv):
            base = self.model.A @ base
        return (self.scale / self.period) * propagate(self.model, s - self.period, base).T

    @property
    def tag(self) -> str:
        return "L1_per"


# ---------------------------------------------------------------------------
# class membership and norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ForcingNormReport:
    l1_norm: float
    wk1_norm: float


def check_class(f: PeriodicForcing, k: int) -> ForcingNormReport:
    """The L^1 and W^{k,1} norms of f in time (state-space norm in space).

    Both are taken by composite quadrature. Fourier data takes its norms
    in the span of its coefficient rows (``FourierForcing.norms_at``),
    with no nodes x dim x dim product, once per order k: each solver's
    report asks for them again. Whether f has vanishing traces is decided
    by ``per0_order`` alone.
    """
    cache = f._class_norms if isinstance(f, FourierForcing) else {}
    if k not in cache:
        nodes, weights = gauss_panels(f.period, _CLASS_PANELS, _CLASS_ORDER)
        l1 = 0.0
        wk1 = 0.0
        for j in range(k + 1):
            contrib = float(np.dot(weights, f.norms_at(nodes, j)))
            if j == 0:
                l1 = contrib
            wk1 += contrib
        cache[k] = ForcingNormReport(l1_norm=l1, wk1_norm=wk1)
    return cache[k]


# ---------------------------------------------------------------------------
# Duhamel responses
# ---------------------------------------------------------------------------

def duhamel_FT(model: Model, f: PeriodicForcing) -> np.ndarray:
    """One-period response F_T(f) = integral_0^T e^{A(T-s)} f(s) ds.

    Fourier data takes the closed form: the harmonic terms
    (i omega_k - A)^{-1} (I - e^{TA}) c_k, all solved in one
    :func:`harmonic_solve` on the deflated block. Any other forcing goes
    to :func:`duhamel_quadrature` with its default panels.
    """
    if isinstance(f, FourierForcing):
        return _duhamel_closed_form(model, f)
    return duhamel_quadrature(model, f)[0]


def duhamel_quadrature(model: Model, f: PeriodicForcing, panels: int | None = None,
                       order: int = 8):
    """F_T(f) by composite Gauss-Legendre quadrature, and its refinement gap.

    The integral is assembled on ``panels`` panels of ``order`` nodes and
    again on twice as many; unless the two agree to 1e-9 relative to the
    size of the finer one, QuadratureUnderResolved is raised. The default
    panel count resolves the highest harmonic of Fourier data. Returns
    (F_T, gap).
    """
    T = f.period
    if panels is None:
        kmax = np.max(np.abs(f.harmonics), initial=0) if isinstance(f, FourierForcing) else 0
        panels = max(8, int(kmax))

    def assemble(p):
        nodes, weights = gauss_panels(T, p, order)
        vals = f.eval_many(nodes)
        if not np.all(np.isfinite(vals)):
            raise NonFiniteInput("forcing evaluated to non-finite values")
        return propagated_columns(model, T - nodes, vals, weights, summed=True)

    coarse = assemble(panels)
    fine = assemble(2 * panels)
    gap = model.space.norm(fine - coarse)
    if gap > 1e-9 * (1.0 + model.space.norm(fine)):
        raise QuadratureUnderResolved(
            f"Duhamel quadrature moved by {gap:.3e} when doubling "
            f"{panels} panels (tol 1e-9)")
    return fine, gap


def _duhamel_closed_form(model: Model, f: FourierForcing) -> np.ndarray:
    T = f.period
    C = f.coefficients
    # e^{TA} commutes with pi0, so (I - e^{TA}) c_k is projected after the product
    K = len(C)
    rhs = C - propagated_columns(model, np.full(K, T), C, np.ones(K)).T
    acc = harmonic_solve(model, f.harmonics, T, rhs).sum(axis=0)
    if model.has_kernel:
        # the mean harmonic grows linearly along the kernel
        acc = acc + T * (model.pi0 @ C[f.harmonics == 0].sum(axis=0))
    return acc


def endpoint_defect(model: Model, f: PeriodicForcing, k: int) -> np.ndarray:
    """The boundary sum A^k F_T(f) - F_T(f^{(k)}) from integration by parts.

    Equals sum_j A^{k-1-j} (e^{TA} f^(j)(0) - f^(j)(T)), so it vanishes
    exactly on the vanishing-trace class and otherwise restores the
    gain-of-derivatives identity for merely periodic forcings.
    """
    acc = np.zeros(model.dim, dtype=complex)
    for j in range(k):
        v0 = f.eval(0.0, j)
        vT = v0          # periodic representative: same endpoint value
        term = propagate(model, f.period, v0) - vT
        acc += np.linalg.matrix_power(model.A, k - 1 - j) @ term
    return acc


def control_duhamel(model: Model, g: FourierForcing) -> np.ndarray:
    """Boundary response Phi_T(g) = integral_0^T e^{A(T-s)} B g(s) ds.

    ``g`` is Fourier data on the input space (one value per column of
    the model's input matrix B); Phi_T(g) is the closed-form F_T of the
    lifted forcing B g.
    """
    if model.B is None:
        raise ValueError("model has no input matrix")
    if g.dim != model.B.shape[1]:
        raise ValueError("boundary signal dimension does not match B")
    lifted = FourierForcing(g.period, g.harmonics, g.coefficients @ model.B.T,
                            model.space)
    return duhamel_FT(model, lifted)


def admissibility_constant(model: Model, T: float, panels: int = 24,
                           order: int = 8) -> float:
    """Operator norm of g -> Phi_T(g) from L^2(0, T) to the state space.

    Realized on the quadrature grid: the columns sqrt(w_i) e^{A(T-s_i)} b_j,
    one for every node s_i and every column b_j of B, assemble the map
    from weighted samples, whose largest singular value in the Gram
    geometry, that of R cols for R = ``StateSpace.gram_factor``, is
    returned by :func:`operator_core._sigma_max`.
    Each column b_j takes one array-valued :func:`propagate` over all
    nodes.
    """
    if model.B is None:
        raise ValueError("model has no input matrix")
    nodes, weights = gauss_panels(T, panels, order)
    root_w = np.sqrt(weights)
    cols = np.concatenate([propagate(model, T - nodes, b) * root_w for b in model.B.T],
                          axis=1)
    return _sigma_max(model.space.gram_factor @ cols)
