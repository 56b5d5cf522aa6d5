"""Forcing classes and one-period responses.

Scalar Duhamel integrals are checked against closed forms, composite
quadrature against scipy's adaptive quadrature, and the derivative
shift identity against its integration-by-parts boundary sum.
"""

import json
import math

import numpy as np
import pytest
import scipy.integrate
from numpy.testing import assert_allclose

from semiper import cli
from semiper.errors import QuadratureUnderResolved, ResonantHarmonic
from semiper.forcing import (
    FourierForcing,
    SemigroupPullbackForcing,
    admissibility_constant,
    check_class,
    control_duhamel,
    duhamel_FT,
    duhamel_quadrature,
    endpoint_defect,
    fourier_from_samples,
    gauss_panels,
    make_fourier_forcing,
    per0_bump_forcing,
)
from semiper.models import (
    DampingProfile,
    build_boundary_forced_wave,
    build_damped_wave_circle,
    build_damped_wave_interval,
    build_scalar_model,
)
from semiper.operator_core import build_model, make_state_space


@pytest.fixture(scope="module")
def wave8():
    return build_damped_wave_interval(8, 1.0, DampingProfile("constant", amplitude=0.6))


def velocity_profile(model):
    n = model.dim // 2
    vec = np.zeros(model.dim)
    vec[n:] = np.sin(np.pi * np.arange(1, n + 1) / (n + 1))
    return vec


# ---------------------------------------------------------------------------
# quadrature grid
# ---------------------------------------------------------------------------

def test_gauss_panels_weights_sum_to_period():
    _, w = gauss_panels(3.7, 5, 6)
    assert np.sum(w) == pytest.approx(3.7, rel=1e-14)


def test_gauss_panels_integrates_sin_squared():
    nodes, w = gauss_panels(2 * math.pi, 8, 8)
    assert np.dot(w, np.sin(nodes) ** 2) == pytest.approx(math.pi, rel=1e-13)


# ---------------------------------------------------------------------------
# Fourier forcings
# ---------------------------------------------------------------------------

def test_fourier_eval_matches_cosine():
    T = 2.0
    f = make_fourier_forcing(T, {1: [0.5], -1: [0.5]})
    ts = np.array([0.0, 0.3, 1.1, 1.9])
    assert_allclose(f.eval_many(ts)[:, 0], np.cos(2 * np.pi * ts / T), atol=1e-14)


def test_fourier_derivative_is_analytic():
    T = 2.0
    om = 2 * np.pi / T
    f = make_fourier_forcing(T, {1: [0.5], -1: [0.5]})
    ts = np.array([0.1, 0.7, 1.3])
    assert_allclose(f.eval_many(ts, deriv=1)[:, 0], -om * np.sin(om * ts),
                    atol=1e-13)
    g = f.derivative_forcing(2)
    assert_allclose(g.eval_many(ts)[:, 0], -om**2 * np.cos(om * ts), atol=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_bump_profile_is_sin_power(order):
    T = 1.5
    f = per0_bump_forcing(T, order, [2.0])
    ts = np.linspace(0, T, 17)
    assert_allclose(f.eval_many(ts)[:, 0].real,
                    2.0 * np.sin(np.pi * ts / T) ** (2 * order), atol=1e-12)


def test_bump_fourier_coefficients_order_two():
    f = per0_bump_forcing(1.0, 2, [1.0])
    coeffs = dict(zip(f.harmonics.tolist(), f.coefficients[:, 0]))
    assert coeffs[0] == pytest.approx(6.0 / 16.0)
    assert coeffs[1] == pytest.approx(-4.0 / 16.0)
    assert coeffs[-1] == pytest.approx(-4.0 / 16.0)
    assert coeffs[2] == pytest.approx(1.0 / 16.0)


@pytest.mark.parametrize("order,expected", [(1, 2), (2, 4), (3, 6)])
def test_per0_detection_on_bumps(order, expected):
    f = per0_bump_forcing(1.0, order, [1.0])
    assert f.per0_order == expected
    assert f.tag == f"Wk1_per0({expected})"


def test_per0_detection_caps_at_twelve():
    f = per0_bump_forcing(1.0, 7, [1.0])
    assert f.per0_order == 12


def test_per0_zero_for_plain_cosine():
    f = make_fourier_forcing(1.0, {1: [0.5], -1: [0.5]})
    assert f.per0_order == 0
    assert f.tag == "Wk1_per"


# ---------------------------------------------------------------------------
# class membership and norms
# ---------------------------------------------------------------------------

def test_l1_norm_against_adaptive_quadrature():
    T = 2.0
    f = make_fourier_forcing(T, {1: [0.5], -1: [0.5]})
    rep = check_class(f, 0)
    oracle, _ = scipy.integrate.quad(lambda t: abs(math.cos(2 * math.pi * t / T)),
                                     0.0, T, limit=100)
    assert rep.l1_norm == pytest.approx(oracle, rel=1e-9)


def test_wk1_norm_adds_derivative_mass():
    f = per0_bump_forcing(1.0, 2, [1.0])
    rep = check_class(f, 2)
    r0 = check_class(f, 0)
    assert rep.wk1_norm > rep.l1_norm
    assert rep.l1_norm == pytest.approx(r0.l1_norm)

    oracle = 0.0
    for j in range(3):
        g = f.derivative_forcing(j)
        val, _ = scipy.integrate.quad(lambda t: abs(g.eval(t)[0]), 0.0, 1.0,
                                      limit=200)
        oracle += val
    assert rep.wk1_norm == pytest.approx(oracle, rel=1e-8)


def _assert_span_norms_match_dense(f, ts, deriv):
    """Span norms against the Gram norms of the evaluated values: 1e-13
    relative, or 1e-15 of the coefficients' norm where f^(deriv) cancels."""
    dense = f.space.row_norms(f.eval_many(ts, deriv))
    scale = np.linalg.norm(f.space.row_norms(f.derivative_forcing(deriv).coefficients))
    gap = np.abs(f.norms_at(ts, deriv) - dense)
    assert np.all(gap <= np.maximum(1e-13 * dense, 1e-15 * scale))
    return dense, scale


def test_fourier_norms_in_the_coefficient_span_match_dense_row_norms(config_dir):
    """check_class's norms of the interval_periodic forcing, which vanishes
    to fourth order at the period ends, at every node and order it reads."""
    cfg = json.loads((config_dir / "interval_periodic.json").read_text())
    f = cli.build_forcing(cli.build_bundle(cfg), cfg["forcing"])
    nodes, _ = gauss_panels(f.period, 48, 8)
    assert f.per0_order == 4
    for j in range(f.per0_order + 1):
        dense, _ = _assert_span_norms_match_dense(f, nodes, j)
        if j == 0:                          # f ~ t^4 at the first node
            assert dense.min() < 1e-10 * dense.max()


def test_fourier_norms_in_the_coefficient_span_at_a_cancelling_node(rng):
    """c e^{i w t} + d e^{-i w t} with d chosen so that the value at t0 is
    1e-12 of c: the span norm keeps the dense norm's absolute accuracy."""
    model = build_damped_wave_interval(40, math.pi, DampingProfile("constant", amplitude=1.0))
    c = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
    t0, T = 0.37, 1.0
    phase = np.exp(2j * np.pi * t0 / T)
    f = make_fourier_forcing(T, {1: c, -1: -(1 - 1e-12) * phase ** 2 * c}, model.space)
    ts = np.concatenate([[t0], np.linspace(0.0, T, 17)])
    for j in range(3):
        dense, scale = _assert_span_norms_match_dense(f, ts, j)
        if j % 2 == 0:                    # odd orders flip the sign of d
            assert dense[0] < 1e-11 * scale


# ---------------------------------------------------------------------------
# Duhamel responses
# ---------------------------------------------------------------------------

def test_scalar_constant_forcing_closed_form():
    model = build_scalar_model(-1.0)
    f = make_fourier_forcing(2 * math.pi, {0: [1.0]})
    expected = 1.0 - math.exp(-2 * math.pi)
    for FT in (duhamel_FT(model, f), duhamel_quadrature(model, f)[0]):
        assert FT[0].real == pytest.approx(expected, rel=1e-11)
        assert abs(FT[0].imag) < 1e-12


def test_scalar_harmonic_closed_form():
    model = build_scalar_model(-1.0)
    f = make_fourier_forcing(2 * math.pi, {1: [1.0]})
    FT = duhamel_FT(model, f)
    expected = (1.0 - math.exp(-2 * math.pi)) / (1.0 + 1.0j)
    assert FT[0] == pytest.approx(expected, rel=1e-11)


def test_closed_form_agrees_with_quadrature(wave8):
    f = per0_bump_forcing(1.0, 2, velocity_profile(wave8), wave8.space)
    closed = duhamel_FT(wave8, f)
    quad, _ = duhamel_quadrature(wave8, f)
    assert wave8.space.norm(closed - quad) <= 1e-10 * wave8.space.norm(closed)


def test_resonant_harmonic_refused():
    model = build_scalar_model(1.0j)
    f = make_fourier_forcing(2 * math.pi, {1: [1.0]})
    with pytest.raises(ResonantHarmonic):
        duhamel_FT(model, f)


def test_kernel_component_of_mean_forcing():
    """On the circle, the harmonic-0 kernel part of F_T is T pi0 c."""
    model = build_damped_wave_circle(24, DampingProfile("constant", amplitude=1.0))
    n = model.dim // 2
    c = np.zeros(model.dim)
    c[n:] = 1.0
    T = 1.0
    f = make_fourier_forcing(T, {0: c}, model.space)
    FT = duhamel_FT(model, f)
    assert_allclose(model.pi0 @ FT, T * (model.pi0 @ c), atol=1e-10)


def test_quadrature_refinement_guard(wave8):
    f = per0_bump_forcing(1.0, 4, velocity_profile(wave8), wave8.space)
    with pytest.raises(QuadratureUnderResolved):
        duhamel_quadrature(wave8, f, panels=1, order=2)
    _, gap = duhamel_quadrature(wave8, f)
    assert gap <= 1e-9


def test_pullback_response_is_exact_multiple(wave8, rng):
    phi = rng.standard_normal(wave8.dim)
    f = SemigroupPullbackForcing(wave8, phi, 0.35, 1.0)
    FT = duhamel_FT(wave8, f)
    assert wave8.space.norm(FT - 0.35 * phi) <= 1e-9 * wave8.space.norm(phi)
    assert f.tag == "L1_per"


# ---------------------------------------------------------------------------
# sampled forcings
# ---------------------------------------------------------------------------

def test_sampled_band_limited_round_trip(rng):
    T = 2.0
    n = 32
    tgrid = T * np.arange(n) / n
    vals = np.cos(3 * 2 * np.pi * tgrid / T)
    f = fourier_from_samples(T, vals)
    ts = rng.uniform(0, T, 20)
    assert_allclose(f.eval_many(ts)[:, 0].real,
                    np.cos(3 * 2 * np.pi * ts / T), atol=1e-12)
    assert np.max(np.abs(f.eval_many(ts)[:, 0].imag)) < 1e-12


def test_sampled_nyquist_mode_stays_real():
    T = 1.0
    n = 8
    tgrid = T * np.arange(n) / n
    vals = np.cos(2 * np.pi * (n // 2) * tgrid / T)
    f = fourier_from_samples(T, vals)
    ts = np.linspace(0, T, 33)
    out = f.eval_many(ts)[:, 0]
    assert_allclose(out.real, np.cos(2 * np.pi * (n // 2) * ts / T), atol=1e-12)
    assert np.max(np.abs(out.imag)) < 1e-12


def test_sampled_duhamel_matches_fourier(wave8):
    T = 1.0
    n = 32
    tgrid = T * np.arange(n) / n
    profile = np.sin(np.pi * tgrid / T) ** 4
    vals = np.outer(profile, velocity_profile(wave8))
    f = fourier_from_samples(T, vals, wave8.space)
    ref = per0_bump_forcing(T, 2, velocity_profile(wave8), wave8.space)
    FT_s, _ = duhamel_quadrature(wave8, f)
    FT_r = duhamel_FT(wave8, ref)
    assert wave8.space.norm(FT_s - FT_r) <= 1e-9 * wave8.space.norm(FT_r)


# ---------------------------------------------------------------------------
# derivative shift identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2])
def test_derivative_shift_identity(wave8, k):
    f = per0_bump_forcing(1.0, 3, velocity_profile(wave8), wave8.space)
    FT = duhamel_FT(wave8, f)
    lhs = np.linalg.matrix_power(wave8.A, k) @ FT
    rhs = duhamel_FT(wave8, f.derivative_forcing(k))
    assert wave8.space.norm(lhs - rhs) <= 1e-8 * wave8.space.norm(lhs)


def test_endpoint_defect_restores_identity(wave8):
    """For merely periodic forcing, A F_T(f) = F_T(f') + boundary sum."""
    cos = make_fourier_forcing(1.0, {1: 0.5 * velocity_profile(wave8),
                                     -1: 0.5 * velocity_profile(wave8)},
                               wave8.space)
    FT = duhamel_FT(wave8, cos)
    FT1 = duhamel_FT(wave8, cos.derivative_forcing(1))
    lhs = wave8.A @ FT
    rhs = FT1 + endpoint_defect(wave8, cos, 1)
    assert wave8.space.norm(lhs - rhs) <= 1e-10 * wave8.space.norm(lhs)


def test_endpoint_defect_vanishes_in_class(wave8):
    bump = per0_bump_forcing(1.0, 2, velocity_profile(wave8), wave8.space)
    defect = endpoint_defect(wave8, bump, 2)
    assert wave8.space.norm(defect) < 1e-10


# ---------------------------------------------------------------------------
# boundary input maps
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def boundary10():
    return build_boundary_forced_wave(10, 1.0,
                                      DampingProfile("constant", amplitude=1.0))


def test_control_duhamel_matches_distributed(boundary10):
    """The closed-form Phi_T(g) equals the quadrature F_T of B g(t)."""
    T = 1.0
    g = make_fourier_forcing(T, {1: [0.25], -1: [0.25], 0: [0.5]})
    via_control = control_duhamel(boundary10, g)
    coeffs = {int(k): c[0] * boundary10.B[:, 0]
              for k, c in zip(g.harmonics, g.coefficients)}
    f = FourierForcing(T, list(coeffs), np.array([coeffs[k] for k in coeffs]),
                       boundary10.space)
    via_distributed, _ = duhamel_quadrature(boundary10, f)
    gap = boundary10.space.norm(via_control - via_distributed)
    assert gap <= 1e-8 * (1 + boundary10.space.norm(via_distributed))


def test_control_duhamel_needs_input_matrix(wave8):
    g = make_fourier_forcing(1.0, {0: [1.0]})
    with pytest.raises(ValueError):
        control_duhamel(wave8, g)


def test_admissibility_constant_stable_under_refinement(boundary10):
    c1 = admissibility_constant(boundary10, 1.0, panels=24)
    c2 = admissibility_constant(boundary10, 1.0, panels=48)
    assert c1 > 0
    assert abs(c1 - c2) <= 0.01 * c1


def test_admissibility_constant_reads_every_input_column():
    """Each input drives its own mode of diag(-1, -2, -3), so the norm is
    the larger of the two one-mode gains |b| sqrt((1 - e^{-2 lam T}) / (2 lam))."""
    space = make_state_space(3, np.eye(3))
    model = build_model(space, np.diag([-1.0, -2.0, -3.0]),
                        B=np.array([[1.0, 0.0], [0.0, 5.0], [0.0, 0.0]]))
    expected = max(math.sqrt((1 - math.exp(-2)) / 2),
                   5 * math.sqrt((1 - math.exp(-4)) / 4))
    assert admissibility_constant(model, 1.0) == pytest.approx(expected, rel=1e-10)
