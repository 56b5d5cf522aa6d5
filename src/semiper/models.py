"""Concrete model builders.

Each builder discretizes one of the study systems into a dense generator
on a Gram-normed state space:

* damped wave on an interval (Dirichlet ends) and on a circle (periodic,
  with a one-dimensional kernel),
* Schrodinger on the sphere restricted to a single azimuthal block, with
  axisymmetric damping assembled by Gauss-Legendre quadrature,
* a 1D heat-wave transmission system (heat on (-1,0), wave on (0,1)),
* a boundary-forced damped wave whose Dirichlet input enters through a
  ghost-node elimination,
* small synthetic models used by the scan modules.

Wave-type Grams are discrete energy forms, so the free semigroups are
contractive for the exact reason the continuous ones are: the discrete
energy identity holds without remainder terms.

Each builder records its state layout as named blocks on the model
(``Model.blocks``): wave models have ``displacement`` and ``velocity``,
the heat-wave system has ``heat`` before them, and every other model is
one modal block ``all``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    InvalidGrid,
    NonAxisymmetricDamping,
    QuadratureUnderResolved,
    SlowConvergence,
    ZeroDamping,
)
from .operator_core import Block, Model, build_model, make_state_space


# ---------------------------------------------------------------------------
# damping profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DampingProfile:
    """Pointwise damping coefficient a(x) >= 0.

    Kinds
    -----
    constant : a = amplitude everywhere
    bump : smooth compactly supported bump of the given width around
        ``center`` (amplitude at the center, vanishing to all orders at
        the support edge)
    cap : axisymmetric polar-cap profile as a function of s = x3,
        amplitude * exp(-width / (|s| - cutoff)) for |s| > cutoff and
        zero on the equatorial band |s| <= cutoff
    """

    kind: str
    amplitude: float = 1.0
    center: float = 0.0
    width: float = 1.0
    cutoff: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "bump", "cap"):
            raise ValueError(f"unknown damping kind {self.kind!r}")
        if self.amplitude < 0:
            raise ValueError("damping amplitude must be nonnegative")
        if self.kind == "cap" and not (0 <= self.cutoff < 1):
            raise ValueError("cap cutoff must lie in [0, 1)")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.full_like(x, self.amplitude)
        if self.kind == "bump":
            xi = 2.0 * (x - self.center) / self.width
            out = np.zeros_like(x)
            inside = np.abs(xi) < 1
            z = xi[inside]
            out[inside] = self.amplitude * np.exp(1.0 - 1.0 / (1.0 - z * z))
            return out
        # cap
        s = np.abs(x)
        out = np.zeros_like(x)
        inside = s > self.cutoff
        gap = s[inside] - self.cutoff
        out[inside] = self.amplitude * np.exp(-self.width / gap)
        return out

    @property
    def is_axisymmetric(self) -> bool:
        return self.kind in ("constant", "cap")


# ---------------------------------------------------------------------------
# damped wave on an interval
# ---------------------------------------------------------------------------

def _check_grid(n: int, minimum: int = 2):
    if not isinstance(n, int) or n < minimum:
        raise InvalidGrid(f"need at least {minimum} grid nodes, got {n}")


def _wave_blocks(xi: np.ndarray, topology: str, start: int = 0) -> dict:
    """Displacement and velocity blocks of len(xi) nodes each, from ``start``."""
    n = xi.size
    return {"displacement": Block(slice(start, start + n), xi, topology),
            "velocity": Block(slice(start + n, start + 2 * n), xi, topology)}


def build_damped_wave_interval(n: int, length: float, damping: DampingProfile) -> Model:
    """Damped wave on (0, length) with Dirichlet ends.

    State (u, v) on the n interior nodes; A = [[0, I], [L_h, -diag(a)]]
    with L_h the standard 3-point Laplacian. The Gram is the discrete
    energy form |grad_h u|^2 + |v|^2 with trapezoid weights, under which
    the free semigroup dissipates exactly 2 * sum h a_i v_i^2.
    """
    _check_grid(n)
    if length <= 0:
        raise InvalidGrid("length must be positive")
    h = length / (n + 1)
    x = h * np.arange(1, n + 1)
    a = damping(x)
    if np.any(a < 0):
        raise ValueError("damping must be nonnegative")

    lap = (np.diag(-2.0 * np.ones(n)) + np.diag(np.ones(n - 1), 1)
           + np.diag(np.ones(n - 1), -1)) / h**2
    A = np.zeros((2 * n, 2 * n))
    A[:n, n:] = np.eye(n)
    A[n:, :n] = lap
    A[n:, n:] = -np.diag(a)

    stiff = -h * lap            # grad-form matrix, u* S u = |grad_h u|^2
    gram = np.zeros((2 * n, 2 * n))
    gram[:n, :n] = stiff
    gram[n:, n:] = h * np.eye(n)
    space = make_state_space(2 * n, gram)
    return build_model(space, A, label=f"damped_wave_interval(n={n})",
                       blocks=_wave_blocks(np.arange(1, n + 1) / (n + 1), "interval"))


def build_damped_wave_circle(n: int, damping: DampingProfile) -> Model:
    """Damped wave on a circle of circumference 2 pi.

    Periodic finite differences on n nodes. The generator kernel is the
    constant-displacement state; ``pi0`` is the closed-form spectral
    projector (u, v) -> (mean of a*u + v with respect to the damping
    weight) * (1, 0), and the Gram augments the energy seminorm with the
    squared mean of u so that it is positive definite on the whole space.
    """
    _check_grid(n, 3)
    length = 2 * math.pi
    h = length / n
    x = h * np.arange(n)
    a = damping(x)
    if np.any(a < 0):
        raise ValueError("damping must be nonnegative")
    integral_a = h * float(np.sum(a))
    if integral_a <= 0:
        raise ZeroDamping("circle model needs damping with positive integral")

    lap = np.diag(-2.0 * np.ones(n))
    for i in range(n):
        lap[i, (i + 1) % n] += 1.0
        lap[i, (i - 1) % n] += 1.0
    lap /= h**2

    A = np.zeros((2 * n, 2 * n))
    A[:n, n:] = np.eye(n)
    A[n:, :n] = lap
    A[n:, n:] = -np.diag(a)

    # projector onto the kernel span{(1, 0)}
    e_k = np.zeros(2 * n)
    e_k[:n] = 1.0
    row = np.concatenate([a, np.ones(n)]) * h / integral_a
    pi0 = np.outer(e_k, row)

    stiff = -h * lap
    gram = np.zeros((2 * n, 2 * n))
    gram[:n, :n] = stiff + (h**2 / length) * np.ones((n, n))
    gram[n:, n:] = h * np.eye(n)
    space = make_state_space(2 * n, gram)
    return build_model(space, A, kernel_basis=(e_k,), pi0=pi0,
                       label=f"damped_wave_circle(n={n})",
                       blocks=_wave_blocks(np.arange(n) / n, "circle"))


# ---------------------------------------------------------------------------
# Schrodinger on the sphere, one azimuthal block
# ---------------------------------------------------------------------------

def normalized_legendre_block(m: int, lmax: int, s) -> np.ndarray:
    """Orthonormalized associated Legendre values X_l^m(s), rows l=m..lmax.

    Normalization: integral of X_l^m(s)^2 over s in (-1, 1) equals 1, so
    that X_l^m(cos theta) e^{i m phi} / sqrt(2 pi) is an orthonormal
    spherical harmonic. Uses the standard stable three-term recurrence.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    rows = lmax - m + 1
    out = np.zeros((rows, s.size))
    x = np.full(s.size, 1.0 / math.sqrt(2.0))
    sq = np.sqrt(np.maximum(1.0 - s * s, 0.0))
    for mm in range(1, m + 1):
        x = -math.sqrt((2 * mm + 1) / (2.0 * mm)) * sq * x
    out[0] = x
    if lmax > m:
        out[1] = math.sqrt(2 * m + 3) * s * x
    for l in range(m + 2, lmax + 1):
        c1 = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        c2 = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
        out[l - m] = c1 * (s * out[l - m - 1] - c2 * out[l - m - 2])
    return out


@dataclass
class SphereBlockModel:
    """One azimuthal block of the damped Schrodinger equation on S^2.

    The block of azimuthal order m keeps the spherical-harmonic degrees
    l = m..Jmax; in that orthonormal basis the generator is
    A = -i diag(l(l+1)) - M_a with M_a the (Hermitian PSD) matrix of
    multiplication by the axisymmetric damping a(x3).
    """

    model: Model
    m: int
    Jmax: int
    degrees: np.ndarray
    eigenvalues: np.ndarray        # l(l+1) for each retained degree
    multiplier: np.ndarray         # M_a
    quad_nodes: int

    @property
    def dim(self) -> int:
        return self.model.dim

    def hk_weights(self, k: int) -> np.ndarray:
        """The H^k weight (1 + l(l+1))^{k/2} of each retained degree."""
        return (1.0 + self.eigenvalues) ** (k / 2.0)

    def hk_norm(self, x, k: int) -> float:
        """H^k norm: the coefficients weighted by :meth:`hk_weights`."""
        return float(np.linalg.norm(self.hk_weights(k) * np.asarray(x, dtype=complex)))


# Newton passes allowed per Gauss-Legendre rule. From the asymptotic starts
# below, every count from 25 to 4000 nodes stops after 2 passes (one that
# converges, one that confirms it), counts from 2 to 24 after 3 and one node
# after 1, so reaching the cap means the iteration has stalled.
LEGENDRE_MAX_PASSES = 10
_STIELTJES_TERMS = 20                                # M in gauss_legendre_rule

# the first ten positive zeros j_{0,k} of the Bessel function J_0
_J0_ZEROS = np.array([2.404825557695773, 5.520078110286311, 8.653727912911013,
                      11.79153443901428, 14.93091770848779, 18.07106396791092,
                      21.21163662987926, 24.35247153074930, 27.49347913204025,
                      30.63460646843198])
_QUARTER_COS = np.array([1.0, 0.0, -1.0, 0.0])      # cos(r pi/2), r = 0..3


def _legendre_starts(n: int) -> np.ndarray:
    """Asymptotic zeros of P_n on the nonnegative half, as phi = arcsin x
    from pi/2 down to 0 (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013).

    With t_k = pi (4k - 1) / (4n + 2), rho = n + 1/2 and psi_k = j_{0,k} / rho:
    where psi_k < 1, Gatteschi's Bessel-zero formula
    pi/2 - phi_k = psi_k + (psi_k cot psi_k - 1) / (8 psi_k rho^2); elsewhere
    Tricomi's x_k = (1 - (n-1)/(8n^3) - (39 - 28/sin^2 t_k)/(384 n^4)) cos t_k.
    The zeros j_{0,k} past the tenth come from McMahon's expansion, which
    is within 5e-13 of them there.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    t = np.pi * (4 * k - 1) / (4 * n + 2)
    phi = np.arcsin((1.0 - (n - 1) / (8.0 * n**3)
                     - (39.0 - 28.0 / np.sin(t) ** 2) / (384.0 * n**4)) * np.cos(t))
    beta = (k - 0.25) * np.pi
    e = 1.0 / (8.0 * beta)
    j0 = (beta + e - 124.0 / 3.0 * e**3 + 120928.0 / 15.0 * e**5
          - 401743168.0 / 105.0 * e**7)
    j0[:10] = _J0_ZEROS[:j0.size]
    rho = n + 0.5
    psi = j0 / rho
    near = psi < 1.0
    p = psi[near]
    phi[near] = np.pi / 2 - (p + (p / np.tan(p) - 1.0) / (8.0 * p * rho**2))
    if n % 2:
        phi[-1] = 0.0                        # P_n is odd: 0 is a node
    return phi


def _phase(q, c, phi):
    """cos and sin of q pi/2 - c phi, with c phi exact as hi + lo by Dekker's
    two-product for 2c an integer below 2**26; rounded, it kept Newton's step
    above 2e-16."""
    hi = c * phi
    t = 134217729.0 * phi
    head = t - (t - phi)
    lo = (c * head - hi) + c * (phi - head)
    cos_hi, sin_hi = np.cos(hi), np.sin(hi)
    cos_b, sin_b = cos_hi - lo * sin_hi, sin_hi + lo * cos_hi
    a, b = _QUARTER_COS[q % 4], _QUARTER_COS[(q - 1) % 4]
    return a * cos_b + b * sin_b, b * cos_b - a * sin_b


def _stieltjes_h(n: int) -> np.ndarray:
    m = np.arange(1, _STIELTJES_TERMS + 1)
    return np.cumprod(np.concatenate(([1.0], (m - 0.5) ** 2 / (m * (n + m + 0.5)))))


def _near_end(n: int, phi: np.ndarray) -> np.ndarray:
    bound = 2.0 * _stieltjes_h(n)[-1] / (2.0 * np.cos(phi)) ** (_STIELTJES_TERMS + 0.5)
    return bound >= 1e-17


def _stieltjes(n: int, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n and dP_n/dtheta by Stieltjes' series. C_n is summed in logs by
    fsum: an lgamma difference put the end weights 4e-13 off at 2000 nodes."""
    m = np.arange(_STIELTJES_TERMS)[:, None]
    u, tan = 0.5 / np.cos(phi), np.tan(phi)
    cos_a, sin_a = _phase(n, n + 0.5, phi)
    # term m is term 0 times (u e^{-i phi})^m = ((1 - i tan phi) / 2)^m
    t = np.empty((_STIELTJES_TERMS, phi.size), dtype=complex)
    t[0] = np.sqrt(u) * (cos_a + 1j * sin_a)
    t[1:] = 0.5 - 0.5j * tan
    np.cumprod(t, axis=0, out=t)             # in place: t is 20 x nodes/2
    t *= _stieltjes_h(n)[:-1, None]
    f = t.real.sum(axis=0)
    df = ((n + m + 0.5) * t.imag + (m + 0.5) * tan * t.real).sum(axis=0)
    c_n = 4.0 / math.pi * math.exp(-math.fsum(np.log1p(0.5 / np.arange(1, n + 1))))
    return c_n * f, -c_n * df


def _cosine_series(n: int, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n and dP_n/dtheta by the cosine series, in elementwise sums (no BLAS)."""
    k = np.arange(1, n + 1)
    g = np.cumprod(np.concatenate(([1.0], (2 * k - 1) / (2.0 * k))))
    k = np.arange(n // 2 + 1)
    j = (n - 2 * k)[:, None]
    coef = (g[k] * g[n - k] * np.where(2 * k < n, 2.0, 1.0))[:, None]
    cos_a, sin_a = _phase(j, j, phi)
    return (coef * cos_a).sum(axis=0), -(coef * j * sin_a).sum(axis=0)


@lru_cache(maxsize=8)
def gauss_legendre_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], cached by count.

    Newton's method on P_n, n = nodes, runs in phi = arcsin x = pi/2 - theta
    from ``_legendre_starts``, on the nonnegative half (the rule is
    symmetric). Each pass evaluates P_n and dP_n/dtheta at all half-nodes in
    closed form. Inside, Stieltjes' series P_n(cos theta) = C_n sum_{m<M}
    h_m cos(n pi/2 - (n+m+1/2) phi) / (2 cos phi)^(m+1/2), with M = 20, h_0
    = 1, h_m = h_{m-1} (m-1/2)^2 / (m (n+m+1/2)) and C_n = (4/pi)
    prod_{k<=n} k/(k+1/2), costs O(1) per node. Where its remainder bound
    2 h_M / (2 cos phi)^(M+1/2) reaches 1e-17 (8 nodes per end from 360 to
    4000 nodes, every node below 15), the exact P_n(cos theta) = sum_{k<=n}
    g_k g_{n-k} cos((n-2k) theta), g_0 = 1, g_k = g_{k-1} (2k-1)/(2k),
    costs O(n). So a rule costs O(n), against O(n^2) for the three-term
    recurrence or Golub-Welsch and O(n^3) for numpy's ``leggauss``. Every
    count from 25 to 4000 takes 2 passes, smaller ones 3. Newton stops once
    no node moves by more than 2e-16 in x (dx = cos phi dphi), and raises
    SlowConvergence after ``LEGENDRE_MAX_PASSES`` passes.

    The weights 2 / (dP_n/dtheta)^2 of the last pass are carried to the node
    its step points to by Legendre's equation (P'' = -cot theta P' at a
    zero). Against 50-digit Newton, nodes are within 6.3e-17 and weights
    within 1.2e-14 relative up to 4000 nodes; the recurrence's Christoffel
    weights were 1.7e-11 off at the end node of 2000, so the derivative
    formula, once taken to lose 1e-13 there, does not in this evaluation.
    The frozen arrays are shared by every caller.
    """
    if nodes < 1:
        raise InvalidGrid(f"need at least one quadrature node, got {nodes}")
    n = nodes
    phi = _legendre_starts(n)
    end = _near_end(n, phi)
    p, dp = np.empty_like(phi), np.empty_like(phi)
    for _ in range(LEGENDRE_MAX_PASSES):
        p[end], dp[end] = _cosine_series(n, phi[end])
        if not end.all():               # below 15 nodes every node is an end node
            p[~end], dp[~end] = _stieltjes(n, phi[~end])
        dphi = p / dp                        # dP/dphi = -dP/dtheta
        phi += dphi
        step = float(np.max(np.abs(np.cos(phi) * dphi)))
        if step <= 2e-16:
            break
    else:
        raise SlowConvergence(
            f"Gauss-Legendre Newton iteration at {n} nodes: last max|dx| "
            f"{step:.3e} after {LEGENDRE_MAX_PASSES} passes")
    x = np.sin(phi)                          # x and w_half run from s = 1 inward
    w_half = 2.0 / (dp * (1.0 + np.tan(phi) * dphi)) ** 2
    s = np.concatenate((-x[:n // 2], x[::-1]))
    w = np.concatenate((w_half[:n // 2], w_half[::-1]))
    s.setflags(write=False)
    w.setflags(write=False)
    return s, w


def _sphere_multiplier(m: int, Jmax: int, damping: DampingProfile, nodes: int) -> np.ndarray:
    """M_a = sum over the nodes s_i of w_i a(s_i) X(s_i) X(s_i)^T, X the
    ``normalized_legendre_block`` column, on a ``nodes``-point rule.

    Only the nodes with w_i a(s_i) != 0 are evaluated: a cap leaves its
    equatorial band undamped (71% of the nodes for the shipped caps), and
    each term dropped there is exactly 0.0.
    """
    s, w = gauss_legendre_rule(nodes)
    wa = w * damping(s)
    damped = wa != 0.0
    X = normalized_legendre_block(m, Jmax, s[damped])
    return (X * wa[damped]) @ X.T


def build_sphere_schrodinger(Jmax: int, m: int, damping: DampingProfile,
                             quad_nodes: int | None = None) -> SphereBlockModel:
    """Assemble the azimuthal block m with degrees up to Jmax.

    The damping must be axisymmetric (constant or cap profile). M_a is
    assembled by Gauss-Legendre quadrature in s = cos theta; the builder
    re-assembles with 1.5x the nodes and raises QuadratureUnderResolved
    if any entry moves by more than 1e-10.
    """
    if m < 0 or Jmax < m:
        raise InvalidGrid(f"need 0 <= m <= Jmax, got m={m}, Jmax={Jmax}")
    if not damping.is_axisymmetric:
        raise NonAxisymmetricDamping(
            f"sphere blocks need an axisymmetric profile, got kind {damping.kind!r}")
    if quad_nodes is None:
        quad_nodes = max(2 * Jmax + 16, 360)
    if quad_nodes < 2 * Jmax + 16:
        raise InvalidGrid(f"need at least {2 * Jmax + 16} quadrature nodes")

    M_a = _sphere_multiplier(m, Jmax, damping, quad_nodes)
    M_fine = _sphere_multiplier(m, Jmax, damping, int(math.ceil(1.5 * quad_nodes)))
    drift = float(np.max(np.abs(M_a - M_fine)))
    if drift > 1e-10:
        raise QuadratureUnderResolved(
            f"multiplier entries moved by {drift:.3e} under node refinement")
    M_a = 0.5 * (M_fine + M_fine.T)

    degrees = np.arange(m, Jmax + 1)
    lam = degrees * (degrees + 1.0)
    A = -1j * np.diag(lam) - M_a
    dim = degrees.size
    space = make_state_space(dim, np.eye(dim, dtype=complex))
    model = build_model(space, A, label=f"sphere_schrodinger(m={m}, Jmax={Jmax})")
    return SphereBlockModel(model=model, m=m, Jmax=Jmax, degrees=degrees,
                            eigenvalues=lam, multiplier=M_a, quad_nodes=quad_nodes)


def equatorial_harmonic(block: SphereBlockModel) -> np.ndarray:
    """Unit coefficient vector of the degree l = m harmonic of the block.

    For m = j this is the normalized equatorial Gaussian beam
    (x1 + i x2)^j restricted to the sphere.
    """
    phi = np.zeros(block.dim, dtype=complex)
    phi[0] = 1.0
    return phi


# ---------------------------------------------------------------------------
# 1D heat-wave transmission system
# ---------------------------------------------------------------------------

def build_heat_wave_1d(n_heat: int, n_wave: int) -> Model:
    """Heat on (-1, 0) coupled to a wave on (0, 1) through x = 0.

    Boundary conditions u(-1) = 0 and w(1) = 0; at the interface the
    heat trace equals the wave velocity (enforced strongly: they share
    one state coordinate) and the heat flux matches the elastic flux
    through one-sided difference quotients, which are second-order
    accurate at the half-node. State layout: blocks ``heat`` (interior
    heat values u at x = -1 + i h_H, coordinates i / n_heat),
    ``displacement`` (wave displacements w at x = i h_W, coordinates
    i / n_wave, with the interface at i = 0) and ``velocity`` (wave
    velocities v at the same nodes; v[0] is the shared interface
    coordinate). The Gram is
    (1/2)(|u|^2 + |grad_h w|^2 + |v|^2); with the flux closure used here
    the discrete energy identity is exact, so the free semigroup is
    contractive.
    """
    _check_grid(n_heat)
    _check_grid(n_wave)
    hH = 1.0 / n_heat
    hW = 1.0 / n_wave
    nu = n_heat - 1
    dim = nu + 2 * n_wave
    iu = lambda i: i - 1                    # heat node i = 1..n_heat-1
    iw = lambda i: nu + i                   # wave node i = 0..n_wave-1
    iv = lambda i: nu + n_wave + i

    A = np.zeros((dim, dim))
    # heat interior, ghost values u_0 = 0 and u_{n_heat} = v_0
    for i in range(1, n_heat):
        A[iu(i), iu(i)] = -2.0 / hH**2
        if i > 1:
            A[iu(i), iu(i - 1)] = 1.0 / hH**2
        if i < n_heat - 1:
            A[iu(i), iu(i + 1)] = 1.0 / hH**2
        else:
            A[iu(i), iv(0)] = 1.0 / hH**2
    # wave displacements
    for i in range(n_wave):
        A[iw(i), iv(i)] = 1.0
    # wave interior velocities, w_{n_wave} = 0
    for i in range(1, n_wave):
        A[iv(i), iw(i)] = -2.0 / hW**2
        A[iv(i), iw(i - 1)] = 1.0 / hW**2
        if i < n_wave - 1:
            A[iv(i), iw(i + 1)] = 1.0 / hW**2
    # interface momentum balance: flux mismatch drives the shared value
    c = 2.0 / (hH + hW)
    A[iv(0), iw(1)] = c / hW
    A[iv(0), iw(0)] = -c / hW
    A[iv(0), iv(0)] = -c / hH
    A[iv(0), iu(n_heat - 1)] = c / hH

    gram = np.zeros((dim, dim))
    for i in range(1, n_heat):
        gram[iu(i), iu(i)] = 0.5 * hH
    # gradient form over w with w_{n_wave} = 0
    SW = np.zeros((n_wave, n_wave))
    for i in range(n_wave):
        SW[i, i] = 2.0 / hW
        if i > 0:
            SW[i, i - 1] = -1.0 / hW
            SW[i - 1, i] = -1.0 / hW
    SW[0, 0] = 1.0 / hW
    gram[nu:nu + n_wave, nu:nu + n_wave] = 0.5 * SW
    gram[iv(0), iv(0)] = 0.25 * (hH + hW)
    for i in range(1, n_wave):
        gram[iv(i), iv(i)] = 0.5 * hW

    heat = Block(slice(0, nu), np.arange(1, n_heat) / n_heat, "interval")
    space = make_state_space(dim, gram)
    return build_model(space, A,
                       label=f"heat_wave_1d(nH={n_heat}, nW={n_wave})",
                       blocks={"heat": heat, **_wave_blocks(
                           np.arange(n_wave) / n_wave, "interval", nu)})


# ---------------------------------------------------------------------------
# boundary-forced damped wave
# ---------------------------------------------------------------------------

def build_boundary_forced_wave(n: int, length: float, damping: DampingProfile) -> Model:
    """Interval damped wave driven through its left Dirichlet value.

    Ghost-node elimination of the inhomogeneous boundary condition
    u(t, 0) = g(t) yields an input matrix B injecting g(t)/h^2 into the
    velocity equation of the first interior node. The free part must be
    exponentially stable, so identically vanishing damping is rejected.
    """
    if damping(np.linspace(0, length, 257)).max() <= 0:
        raise ZeroDamping("boundary-forced model needs nontrivial damping")
    base = build_damped_wave_interval(n, length, damping)
    h = length / (n + 1)
    B = np.zeros(2 * n)
    B[n] = 1.0 / h**2
    return build_model(base.space, base.A, B=B, blocks=base.blocks,
                       label=f"boundary_forced_wave(n={n})")


# ---------------------------------------------------------------------------
# small synthetic models
# ---------------------------------------------------------------------------

def build_scalar_model(lam: complex = -1.0) -> Model:
    """One-dimensional model u' = lam u with the trivial Gram, real for real lam."""
    A = np.array([[lam if np.iscomplex(lam) else np.real(lam)]])
    return build_model(make_state_space(1, np.eye(1, dtype=A.dtype)), A,
                       label=f"scalar(lam={lam})")


def build_synthetic_resolvent_model(n_modes: int, alpha: float) -> Model:
    """Normal diagonal model with resolvent growth |R(i eta)| ~ eta^alpha.

    Eigenvalues -k^{-alpha} + i k for k = 1..n_modes: the resolvent peak
    at height k^alpha sits at eta = k, and |e^{tA} A^{-1}| decays like
    t^{-1/alpha}, the rate matched by the resolvent-to-decay equivalence
    on Hilbert spaces.
    """
    k = np.arange(1, n_modes + 1, dtype=float)
    eigs = -(k ** (-alpha)) + 1j * k
    space = make_state_space(n_modes, np.eye(n_modes, dtype=complex))
    return build_model(space, np.diag(eigs),
                       label=f"synthetic_resolvent(alpha={alpha})")


def build_diagonal_model(eigenvalues) -> Model:
    """Diagonal model from an explicit eigenvalue list with the identity Gram."""
    eigs = np.asarray(eigenvalues, dtype=complex)
    n = eigs.size
    space = make_state_space(n, np.eye(n, dtype=complex))
    return build_model(space, np.diag(eigs), label="diagonal")
