"""Model builders: discrete energy identities and quadrature oracles.

The sphere multiplier is checked against a 2D quadrature of scipy's
spherical harmonics, the interval wave against its exact algebraic
dissipation identity, and the heat-wave system against an integrated
energy balance along a propagated trajectory.
"""

import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from numpy.testing import assert_allclose

from semiper.errors import (
    InvalidGrid,
    NonAxisymmetricDamping,
    QuadratureUnderResolved,
    SlowConvergence,
    ZeroDamping,
)
from semiper import models
from semiper.models import (
    DampingProfile,
    build_boundary_forced_wave,
    build_damped_wave_circle,
    build_damped_wave_interval,
    build_diagonal_model,
    build_heat_wave_1d,
    build_scalar_model,
    build_sphere_schrodinger,
    build_synthetic_resolvent_model,
    equatorial_harmonic,
    gauss_legendre_rule,
    normalized_legendre_block,
)
from semiper.operator_core import (
    contour_spectral_projector,
    propagate,
    propagator_matrix,
    spectrum_report,
)


# ---------------------------------------------------------------------------
# state layout
# ---------------------------------------------------------------------------

_CAP = DampingProfile("cap", amplitude=1.0, width=0.05, cutoff=0.85)
_UNIT = DampingProfile("constant", amplitude=1.0)
BUILDS = {
    "scalar": lambda: build_scalar_model(-1.0),
    "interval": lambda: build_damped_wave_interval(7, math.pi, _UNIT),
    "boundary": lambda: build_boundary_forced_wave(7, math.pi, _UNIT),
    "circle": lambda: build_damped_wave_circle(8, _UNIT),
    "heat_wave": lambda: build_heat_wave_1d(9, 8),
    "sphere": lambda: build_sphere_schrodinger(12, 2, _CAP, quad_nodes=1200).model,
    "synthetic": lambda: build_synthetic_resolvent_model(6, 1.0),
    "diagonal": lambda: build_diagonal_model([-1.0, -4.0]),
}
WAVES = {"interval", "boundary", "circle", "heat_wave"}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_blocks_are_disjoint_and_cover_the_state(name):
    model = BUILDS[name]()
    rows = np.concatenate([np.arange(model.dim)[b.slice]
                           for b in model.blocks.values()])
    assert sorted(rows) == list(range(model.dim))
    for b in model.blocks.values():
        width = b.slice.stop - b.slice.start
        if b.topology == "modal":
            assert b.xi is None
        else:
            assert b.xi.shape == (width,)
            assert np.all((b.xi >= 0) & (b.xi < 1)) and np.all(np.diff(b.xi) > 0)
    wave_blocks = [k for k in model.blocks if k in ("displacement", "velocity")]
    assert wave_blocks == (["displacement", "velocity"] if name in WAVES else [])
    if name not in WAVES:
        assert list(model.blocks) == ["all"]


# A spatial block's node at coordinate xi sits at x = origin + length * xi of
# the block's domain. The operator fixes those positions independently of
# the coordinates: the damping is sampled there, and the three-point second
# difference there is exact on a quadratic that vanishes at the Dirichlet ends.
_BUMP = DampingProfile("bump", amplitude=1.0, center=1.0, width=2.0)


@pytest.mark.parametrize("build, length", [
    (lambda: build_damped_wave_interval(7, math.pi, _BUMP), math.pi),
    (lambda: build_boundary_forced_wave(7, math.pi, _BUMP), math.pi),
    (lambda: build_damped_wave_circle(8, _BUMP), 2 * math.pi),
], ids=["interval", "boundary", "circle"])
def test_block_coordinates_are_where_the_damping_is_sampled(build, length):
    model = build()
    disp, vel = model.blocks["displacement"], model.blocks["velocity"]
    assert_allclose(-np.diag(model.A[vel.slice, vel.slice]), _BUMP(length * vel.xi),
                    rtol=1e-12, atol=1e-15)
    assert np.array_equal(disp.xi, vel.xi)


@pytest.mark.parametrize("build, rows, first, cols, origin, length, phi, phi2", [
    (lambda: build_damped_wave_interval(7, math.pi, _UNIT), "velocity", 0,
     "displacement", 0.0, math.pi, lambda x: x * (math.pi - x), -2.0),
    (lambda: build_boundary_forced_wave(7, math.pi, _UNIT), "velocity", 0,
     "displacement", 0.0, math.pi, lambda x: x * (math.pi - x), -2.0),
    (lambda: build_heat_wave_1d(9, 8), "heat", 0, "heat", -1.0, 1.0,
     lambda x: x * (x + 1.0), 2.0),
    # v[0] is the interface node, where the flux balance replaces the stencil
    (lambda: build_heat_wave_1d(9, 8), "velocity", 1, "displacement", 0.0, 1.0,
     lambda x: 1.0 - x * x, -2.0),
], ids=["interval", "boundary", "heat", "wave"])
def test_block_coordinates_make_second_differences_exact(build, rows, first, cols,
                                                        origin, length, phi, phi2):
    model = build()
    r, c = model.blocks[rows], model.blocks[cols]
    lap = model.A[r.slice, c.slice][first:]
    assert_allclose(lap @ phi(origin + length * c.xi), phi2, rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# damping profiles
# ---------------------------------------------------------------------------

def test_constant_profile():
    a = DampingProfile("constant", amplitude=2.5)
    assert_allclose(a(np.linspace(0, 1, 7)), 2.5)


def test_bump_profile_support_and_peak():
    a = DampingProfile("bump", amplitude=3.0, center=0.5, width=0.4)
    x = np.array([0.3, 0.35, 0.5, 0.65, 0.7])
    vals = a(x)
    assert vals[0] == 0.0 and vals[4] == 0.0
    assert vals[2] == pytest.approx(3.0)
    assert 0 < vals[1] < vals[2]


def test_cap_profile_vanishes_on_band():
    a = DampingProfile("cap", amplitude=1.0, width=0.1, cutoff=0.6)
    s = np.array([-0.9, -0.5, 0.0, 0.5, 0.9])
    vals = a(s)
    assert_allclose(vals[1:4], 0.0)
    assert vals[0] > 0 and vals[4] > 0
    assert vals[0] == pytest.approx(vals[4])


def test_profile_validation():
    with pytest.raises(ValueError):
        DampingProfile("triangle")
    with pytest.raises(ValueError):
        DampingProfile("constant", amplitude=-1.0)
    with pytest.raises(ValueError):
        DampingProfile("cap", cutoff=1.0)


# ---------------------------------------------------------------------------
# damped wave on an interval
# ---------------------------------------------------------------------------

def test_interval_wave_exact_dissipation_identity():
    """G A + A^T G = -2 h diag(0, a), the discrete energy balance."""
    n = 17
    length = 2.0
    damping = DampingProfile("bump", amplitude=1.3, center=1.0, width=1.2)
    model = build_damped_wave_interval(n, length, damping)
    h = length / (n + 1)
    a = damping(h * np.arange(1, n + 1))
    S = model.space.gram @ model.A + model.A.conj().T @ model.space.gram
    expected = np.zeros((2 * n, 2 * n))
    expected[n:, n:] = -2.0 * h * np.diag(a)
    assert_allclose(S, expected, atol=1e-12)


def test_undamped_interval_wave_conserves_energy(rng):
    model = build_damped_wave_interval(24, math.pi,
                                       DampingProfile("constant", amplitude=0.0))
    x = rng.standard_normal(model.dim)
    e0 = model.space.norm(x)
    for t in (0.7, 3.7, 11.0):
        assert model.space.norm(propagate(model, t, x)) == pytest.approx(e0, rel=1e-9)


def test_damped_interval_wave_decays(rng):
    model = build_damped_wave_interval(24, math.pi,
                                       DampingProfile("constant", amplitude=1.0))
    x = rng.standard_normal(model.dim)
    n0 = model.space.norm(x)
    n1 = model.space.norm(propagate(model, 5.0, x))
    assert n1 < 0.2 * n0


def test_interval_frequency_second_order_convergence():
    """Fundamental frequency error drops ~4x per mesh halving."""
    length = math.pi
    errs = []
    for n in (32, 64):
        model = build_damped_wave_interval(n, length,
                                           DampingProfile("constant", amplitude=0.0))
        w = np.linalg.eigvals(model.A)
        omega1 = np.min(np.abs(w.imag[w.imag > 0]))
        errs.append(abs(omega1 - 1.0))
    assert errs[0] / errs[1] > 2 ** 1.8


def test_interval_grid_validation():
    with pytest.raises(InvalidGrid):
        build_damped_wave_interval(1, 1.0, DampingProfile("constant"))
    with pytest.raises(InvalidGrid):
        build_damped_wave_interval(8, -1.0, DampingProfile("constant"))


# ---------------------------------------------------------------------------
# damped wave on a circle
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def circle_model():
    damping = DampingProfile("bump", amplitude=1.0, center=2.0, width=2.5)
    return build_damped_wave_circle(48, damping)


def test_circle_kernel_is_constant_displacement(circle_model):
    ek = circle_model.kernel_basis[0]
    assert_allclose(circle_model.A @ ek, np.zeros(circle_model.dim), atol=1e-12)
    n = circle_model.dim // 2
    assert_allclose(ek[:n], ek[0])
    assert_allclose(ek[n:], 0.0)


def test_circle_projector_matches_contour_integral(circle_model):
    P = contour_spectral_projector(circle_model)
    assert_allclose(P, circle_model.pi0, atol=1e-8)


def test_circle_projector_idempotent_and_rank_one(circle_model):
    P = circle_model.pi0
    assert_allclose(P @ P, P, atol=1e-12)
    assert np.trace(P).real == pytest.approx(1.0, abs=1e-12)


def test_circle_conserved_functional(circle_model):
    """pi0 e^{tA} = pi0: the weighted mean is a conserved quantity."""
    for t in (0.5, 4.0):
        M = propagator_matrix(circle_model, t)
        assert_allclose(circle_model.pi0 @ M, circle_model.pi0, atol=1e-9)


def test_circle_deflated_part_decays(rng):
    model = build_damped_wave_circle(32, DampingProfile("constant", amplitude=1.0))
    x = rng.standard_normal(model.dim)
    x = x - (model.pi0 @ x).real
    n1 = model.space.norm(propagate(model, 20.0, x))
    assert n1 < 1e-3 * model.space.norm(x)


def test_circle_rejects_zero_damping():
    with pytest.raises(ZeroDamping):
        build_damped_wave_circle(16, DampingProfile("constant", amplitude=0.0))


# ---------------------------------------------------------------------------
# sphere blocks
# ---------------------------------------------------------------------------

def test_legendre_block_matches_scipy_harmonics():
    """X_l^m(cos theta) = sqrt(2 pi) Y_l^m(theta, 0), scipy convention."""
    theta = np.array([0.3, 0.7, 1.3, 2.1])
    m, lmax = 3, 8
    X = normalized_legendre_block(m, lmax, np.cos(theta))
    for l in range(m, lmax + 1):
        ref = np.array([scipy.special.sph_harm_y(l, m, th, 0.0).real
                        for th in theta])
        assert_allclose(X[l - m], np.sqrt(2 * np.pi) * ref, rtol=1e-11)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 80, 360])
def test_gauss_legendre_rule_matches_leggauss(n):
    s, w = gauss_legendre_rule(n)
    s_ref, w_ref = np.polynomial.legendre.leggauss(n)
    assert_allclose(s, s_ref, rtol=0, atol=1e-15)
    assert_allclose(w, w_ref, rtol=0, atol=1e-13)


def _christoffel_weights(s):
    """1 / sum_{k<n} q_k(s)^2 over the orthonormal Legendre polynomials."""
    k = np.arange(1, s.size)
    b = np.concatenate(([0.0], k / np.sqrt(4.0 * k * k - 1.0)))
    q_prev, q = np.zeros_like(s), np.full_like(s, math.sqrt(0.5))
    total = q * q
    for i in range(1, s.size):
        q_prev, q = q, (s * q - b[i - 1] * q_prev) / b[i]
        total += q * q
    return 1.0 / total


@pytest.mark.parametrize("n", [1200, 1800, 2000, 3000, 3001])
def test_gauss_legendre_rule_matches_roots_legendre(n):
    """Nodes against scipy's Golub-Welsch nodes; weights against the
    Christoffel function at those nodes (scipy's own weights are off by up
    to 1.6e-13 at these counts)."""
    s, w = gauss_legendre_rule(n)
    s_ref, _ = scipy.special.roots_legendre(n)
    assert_allclose(s, s_ref, rtol=0, atol=4.4e-16)
    assert_allclose(w, _christoffel_weights(s_ref), rtol=0, atol=1e-15)
    assert np.array_equal(s, -s[::-1])
    assert np.array_equal(w, w[::-1])
    assert np.all(w > 0)


def test_gauss_legendre_rule_rejects_empty_rule():
    with pytest.raises(InvalidGrid):
        gauss_legendre_rule(0)


def test_gauss_legendre_rule_raises_when_newton_stalls(monkeypatch):
    monkeypatch.setattr(models, "LEGENDRE_MAX_PASSES", 1)
    gauss_legendre_rule.cache_clear()
    with pytest.raises(SlowConvergence, match=r"2000 nodes: last max\|dx\|"):
        gauss_legendre_rule(2000)


# a deterministic spread of counts from 1 to 4000, plus a few small and
# mid-range ones
_SAMPLE_COUNTS = sorted({*range(1, 4001, 97), 11, 14, 261, 276, 320, 4000})


@pytest.mark.parametrize("n", sorted({27, 80, 360, 540, 1200, 1800, 2000, 3000, 3001}
                                     | {n for n in _SAMPLE_COUNTS if n >= 27}))
def test_gauss_legendre_rule_converges_in_two_passes(monkeypatch, n):
    """The asymptotic starts are close enough that one Newton pass converges
    and a second confirms it, at every count the package builds."""
    monkeypatch.setattr(models, "LEGENDRE_MAX_PASSES", 2)
    gauss_legendre_rule.cache_clear()
    s, w = gauss_legendre_rule(n)
    assert s.size == w.size == n


@pytest.mark.parametrize("n", _SAMPLE_COUNTS)
def test_gauss_legendre_rule_is_symmetric_and_positive(n):
    s, w = gauss_legendre_rule(n)
    assert np.all(np.diff(s) > 0)
    assert np.array_equal(s, -s[::-1]) and np.array_equal(w, w[::-1])
    assert np.all(w > 0)
    assert math.fsum(w) == pytest.approx(2.0, rel=0, abs=4e-15)


@pytest.mark.parametrize("n", [360, 2000, 3000])
def test_stieltjes_and_cosine_series_agree_at_the_split(n):
    """Both evaluations at the two nodes on each side of the split between
    them; P_n, which vanishes there, against its local amplitude
    |dP_n/dtheta| / (n + 1/2)."""
    s, _ = gauss_legendre_rule(n)
    phi = np.arcsin(s[::-1][:(n + 1) // 2])
    ends = int(np.sum(models._near_end(n, phi)))
    phi = phi[ends - 2:ends + 2]
    p_s, dp_s = models._stieltjes(n, phi)
    p_c, dp_c = models._cosine_series(n, phi)
    assert np.all(np.abs(p_s - p_c) <= 1e-14 * np.abs(dp_c) / (n + 0.5))
    assert np.all(np.abs(dp_s - dp_c) <= 1e-14 * np.abs(dp_c))


def _mp_legendre(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence, in x's precision."""
    p_prev, p = 1, x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, n * (x * p - p_prev) / (x * x - 1)


@pytest.mark.parametrize("n", [80, 2000])
def test_gauss_legendre_rule_against_50_digit_newton(n):
    """Three 50-digit Newton steps from each returned node give the node
    and its weight 2 / ((1 - x^2) P_n'(x)^2)."""
    mpmath = pytest.importorskip("mpmath")
    s, w = gauss_legendre_rule(n)
    with mpmath.workdps(50):
        for i in (0, 1, 9, n // 2 - 1):
            x = mpmath.mpf(float(s[i]))
            for _ in range(3):
                p, dp = _mp_legendre(n, x)
                x -= p / dp
            _, dp = _mp_legendre(n, x)
            weight = 2 / ((1 - x * x) * dp * dp)
            assert abs(float(s[i]) - x) <= 1e-16, (n, i)
            assert abs(float(w[i]) - weight) <= 1e-12 * weight, (n, i)


def test_gauss_legendre_rule_bytes_do_not_depend_on_blas_threads():
    code = ("import hashlib; from semiper.models import gauss_legendre_rule; "
            "s, w = gauss_legendre_rule(3000); "
            "print(hashlib.sha256(s.tobytes() + w.tobytes()).hexdigest())")
    digests = {subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True,
                              env=os.environ | {"PYTHONPATH": os.pathsep.join(sys.path),
                                                "OPENBLAS_NUM_THREADS": threads}).stdout
               for threads in ("1", "2")}
    assert len(digests) == 1
    s, w = gauss_legendre_rule(3000)
    assert digests == {hashlib.sha256(s.tobytes() + w.tobytes()).hexdigest() + "\n"}


def test_gauss_legendre_rule_exact_to_degree_2n_minus_1():
    for n in (2000, 3000, 3001):
        s, w = gauss_legendre_rule(n)
        for k in (0, 1, 2, 3, 10, 101, 500, 1000, n - 1, n, 3 * n // 2 + 1,
                  2 * n - 2, 2 * n - 1):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert math.fsum(w * s**k) == pytest.approx(exact, rel=0, abs=1e-13), (n, k)


def test_gauss_legendre_rule_cached_read_only():
    s, w = gauss_legendre_rule(80)
    for arr in (s, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    s2, w2 = gauss_legendre_rule(80)
    assert s2 is s and w2 is w


def test_sphere_multiplier_matches_leggauss_assembly():
    """The multiplier on the package rule against one built on numpy's rule."""
    from semiper.models import _sphere_multiplier

    m, Jmax, nodes = 10, 30, 360
    cap = DampingProfile("cap", amplitude=1.0, width=0.5, cutoff=0.3)
    s, w = np.polynomial.legendre.leggauss(nodes)
    X = normalized_legendre_block(m, Jmax, s)
    ref = (X * (w * cap(s))) @ X.T
    M = _sphere_multiplier(m, Jmax, cap, nodes)
    assert np.max(np.abs(M - ref)) <= 1e-12 * np.max(np.abs(ref))


def _full_node_multiplier(m, Jmax, damping, nodes):
    s, w = gauss_legendre_rule(nodes)
    X = normalized_legendre_block(m, Jmax, s)
    return (X * (w * damping(s))) @ X.T


def test_sphere_multiplier_on_constant_damping_is_the_full_node_product():
    """Constant damping leaves no node out, so nothing moves by a bit."""
    from semiper.models import _sphere_multiplier

    const = DampingProfile("constant", amplitude=0.7)
    M = _sphere_multiplier(3, 40, const, 360)
    assert np.array_equal(M, _full_node_multiplier(3, 40, const, 360))


def test_sphere_multiplier_drops_only_undamped_nodes():
    """A cap's undamped band contributes exact zeros: leaving it out moves the
    entries by summation order only, and a zero-amplitude cap is exactly 0."""
    from semiper.models import _sphere_multiplier

    cap = DampingProfile("cap", amplitude=1.0, width=0.02, cutoff=0.9)
    M = _sphere_multiplier(10, 70, cap, 360)
    ref = _full_node_multiplier(10, 70, cap, 360)
    assert np.max(np.abs(M - ref)) <= 1e-15 * np.max(np.abs(ref))
    silent = DampingProfile("cap", amplitude=0.0, width=0.02, cutoff=0.9)
    assert np.array_equal(_sphere_multiplier(10, 70, silent, 360),
                          np.zeros((61, 61)))


def test_legendre_block_orthonormal():
    s, w = np.polynomial.legendre.leggauss(80)
    X = normalized_legendre_block(2, 10, s)
    gram = (X * w) @ X.T
    assert_allclose(gram, np.eye(9), atol=1e-12)


def test_sphere_multiplier_matches_2d_quadrature():
    """M_a entries against adaptive quadrature of a Y_l Y_l' over S^2."""
    damping = DampingProfile("cap", amplitude=1.0, width=0.5, cutoff=0.3)
    block = build_sphere_schrodinger(6, 2, damping)

    def oracle(l1, l2):
        def integrand(theta):
            y1 = scipy.special.sph_harm_y(l1, 2, theta, 0.0).real
            y2 = scipy.special.sph_harm_y(l2, 2, theta, 0.0).real
            return damping(np.cos(theta)) * y1 * y2 * np.sin(theta)
        val, _ = scipy.integrate.quad(integrand, 0.0, np.pi, limit=200)
        return 2 * np.pi * val

    for i, l1 in enumerate(block.degrees):
        for j, l2 in enumerate(block.degrees):
            if j < i:
                continue
            assert block.multiplier[i, j] == pytest.approx(oracle(l1, l2), abs=1e-8)


def test_sphere_multiplier_hermitian_psd():
    damping = DampingProfile("cap", amplitude=2.0, width=0.3, cutoff=0.4)
    block = build_sphere_schrodinger(10, 1, damping)
    M = block.multiplier
    assert_allclose(M, M.conj().T, atol=1e-13)
    assert np.linalg.eigvalsh(M).min() >= -1e-12


def test_constant_damping_gives_identity_multiplier():
    block = build_sphere_schrodinger(8, 3, DampingProfile("constant", amplitude=0.7))
    assert_allclose(block.multiplier, 0.7 * np.eye(block.dim), atol=1e-12)


def test_sphere_generator_structure():
    damping = DampingProfile("cap", amplitude=1.0, width=0.5, cutoff=0.3)
    block = build_sphere_schrodinger(6, 2, damping)
    lam = block.degrees * (block.degrees + 1.0)
    assert_allclose(block.eigenvalues, lam)
    assert_allclose(block.model.A, -1j * np.diag(lam) - block.multiplier, atol=1e-13)
    rep = spectrum_report(block.model)
    assert rep.abscissa < 0


def test_hk_norm_weights():
    damping = DampingProfile("constant", amplitude=0.5)
    block = build_sphere_schrodinger(7, 4, damping)
    phi = equatorial_harmonic(block)
    assert block.hk_norm(phi, 0) == pytest.approx(1.0)
    assert block.hk_norm(phi, 2) == pytest.approx(1.0 + 4 * 5)


def test_sphere_block_validation():
    cap = DampingProfile("cap", width=0.5, cutoff=0.3)
    with pytest.raises(InvalidGrid):
        build_sphere_schrodinger(3, 5, cap)
    with pytest.raises(NonAxisymmetricDamping):
        build_sphere_schrodinger(6, 2, DampingProfile("bump"))
    with pytest.raises(InvalidGrid):
        build_sphere_schrodinger(6, 2, cap, quad_nodes=10)


def test_sharp_cap_rejected_when_under_resolved():
    sharp = DampingProfile("cap", amplitude=1.0, width=0.005, cutoff=0.3)
    with pytest.raises(QuadratureUnderResolved):
        build_sphere_schrodinger(40, 2, sharp, quad_nodes=96)


# ---------------------------------------------------------------------------
# heat-wave transmission
# ---------------------------------------------------------------------------

def test_heat_wave_layout_consistent():
    model = build_heat_wave_1d(12, 10)
    assert list(model.blocks) == ["heat", "displacement", "velocity"]
    heat, disp, vel = model.blocks.values()
    assert heat.slice == slice(0, 11)
    assert (disp.slice, vel.slice) == (slice(11, 21), slice(21, 31))
    assert vel.slice.stop == model.dim
    # the last heat node's ghost value is the shared interface coordinate v[0]
    assert model.A[heat.slice.stop - 1, vel.slice.start] != 0
    assert_allclose(model.A[disp.slice, vel.slice].real, np.eye(10))     # w' = v


def test_heat_wave_dissipative():
    model = build_heat_wave_1d(12, 10)
    S = model.space.gram @ model.A + model.A.conj().T @ model.space.gram
    assert_allclose(S, S.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(S).max() <= 1e-10


def test_heat_wave_energy_balance(rng):
    """E(t1) - E(0) equals the time integral of the dissipation form.

    Composite panels are needed because the fast heat modes dissipate
    almost all of their energy in the first few grid diffusion times.
    """
    from semiper.forcing import gauss_panels

    model = build_heat_wave_1d(10, 8)
    S = model.space.gram @ model.A + model.A.conj().T @ model.space.gram
    x0 = rng.standard_normal(model.dim)
    t1 = 0.8
    ts, ws = gauss_panels(t1, 80, 10)
    integral = 0.0
    for t, w in zip(ts, ws):
        xt = propagate(model, t, x0)
        integral += w * np.real(xt.conj() @ S @ xt)
    e0 = model.space.norm(x0) ** 2
    e1 = model.space.norm(propagate(model, t1, x0)) ** 2
    assert e1 - e0 == pytest.approx(integral, rel=1e-8)


def test_heat_wave_stable_without_kernel():
    model = build_heat_wave_1d(12, 10)
    rep = spectrum_report(model)
    assert rep.kernel_dim == 0
    assert rep.assumptions_ok
    assert rep.abscissa < 0


# ---------------------------------------------------------------------------
# boundary-forced wave and synthetic models
# ---------------------------------------------------------------------------

def test_boundary_wave_input_matrix():
    n, length = 14, 1.0
    damping = DampingProfile("constant", amplitude=0.8)
    model = build_boundary_forced_wave(n, length, damping)
    h = length / (n + 1)
    assert model.B.shape == (2 * n, 1)
    expected = np.zeros(2 * n)
    expected[n] = 1.0 / h**2
    assert_allclose(model.B[:, 0], expected)
    base = build_damped_wave_interval(n, length, damping)
    assert_allclose(model.A, base.A)


def test_boundary_wave_needs_damping():
    with pytest.raises(ZeroDamping):
        build_boundary_forced_wave(14, 1.0, DampingProfile("constant", amplitude=0.0))


def test_synthetic_resolvent_eigenvalues():
    model = build_synthetic_resolvent_model(6, 2.0)
    k = np.arange(1, 7, dtype=float)
    assert_allclose(np.diag(model.A), -(k ** -2.0) + 1j * k)
