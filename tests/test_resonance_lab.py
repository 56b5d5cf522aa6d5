"""Resonant growth on sphere blocks with polar-cap damping.

The equatorial harmonic of order j carries exponentially little of a
polar cap, so the resonantly driven orbit grows linearly until the
accumulated damping deviation catches up. These tests check the scan
of concentration norms against the geometric band prediction and the
growth experiment against its own lower bound, plus the detuned and
fully damped contrasts that kill the growth.
"""

import json
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from semiper import cli, forcing, operator_core, resonance_lab
from semiper.errors import BackwardGrowthExcessive
from semiper.forcing import duhamel_FT
from semiper.models import (
    DampingProfile,
    build_sphere_schrodinger,
    equatorial_harmonic,
)
from semiper.resonance_lab import (
    concentration_scan,
    growth_experiment,
    measured_propagation_bound,
    orbit_norms,
    resonant_forcing,
    resonant_horizon,
    truncation_tail,
)

CAP = DampingProfile("cap", amplitude=1.0, width=0.05, cutoff=0.85)


@pytest.fixture(scope="module")
def cap_block():
    return build_sphere_schrodinger(50, 10, CAP, quad_nodes=1200)


# ---------------------------------------------------------------------------
# concentration scan
# ---------------------------------------------------------------------------

def test_concentration_slope_matches_band_prediction():
    """log |M_a Phi_j| decreases ~ j log sin(r) for a cap of aperture r."""
    scan = concentration_scan([8, 11, 14, 17, 20], CAP, quad_nodes=1200)
    ref = math.log(math.sqrt(1.0 - CAP.cutoff**2))
    assert scan.slope_vs_j < 0
    assert abs(scan.slope_vs_j - ref) <= 0.3 * abs(ref)
    assert scan.r2 >= 0.999
    assert np.all(np.diff(scan.concentration_norms) < 0)
    assert scan.fitted_c > 0


def test_concentration_scan_sorts_orders():
    scan = concentration_scan([14, 8, 11], CAP, quad_nodes=1200)
    assert_allclose(scan.js, [8, 11, 14])
    assert_allclose(scan.sqrt_eigenvalues,
                    np.sqrt(scan.js * (scan.js + 1.0)))
    assert scan.tails.shape == scan.js.shape


def test_truncation_tail_bounds(cap_block):
    tail = truncation_tail(cap_block)
    assert 0.0 <= tail <= 1.0
    undamped = build_sphere_schrodinger(20, 5,
                                        DampingProfile("constant", amplitude=0.0))
    assert truncation_tail(undamped) == 0.0


# ---------------------------------------------------------------------------
# pullback normalization
# ---------------------------------------------------------------------------

def test_propagation_bound_near_isometry(cap_block):
    C = measured_propagation_bound(cap_block, 0)
    assert 1.0 <= C <= 1.001


@pytest.mark.filterwarnings("ignore:backward propagation amplified")
def test_propagation_bound_refuses_strong_damping():
    block = build_sphere_schrodinger(20, 5,
                                     DampingProfile("constant", amplitude=5.0))
    with pytest.raises(BackwardGrowthExcessive):
        measured_propagation_bound(block, 0)


def test_resonant_forcing_normalization(cap_block):
    f = resonant_forcing(cap_block, 0)
    C = measured_propagation_bound(cap_block, 0)
    assert f.scale == pytest.approx(1.0 / C, rel=1e-12)
    phi = equatorial_harmonic(cap_block)
    FT = duhamel_FT(cap_block.model, f)
    err = np.linalg.norm(FT - f.scale * phi)
    assert err <= 1e-9


def test_resonant_horizon_scaling(cap_block):
    lam = 10 * 11
    assert resonant_horizon(cap_block, 0) == lam
    assert resonant_horizon(cap_block, 2) == lam**2


# ---------------------------------------------------------------------------
# growth experiments
# ---------------------------------------------------------------------------

def test_growth_is_linear_within_horizon(cap_block):
    exp = growth_experiment(cap_block, 0, n_max=30)
    ratio = exp.norms / (exp.C_j * exp.n_grid)
    assert np.min(ratio) >= 0.9
    assert exp.single_period_response == pytest.approx(exp.C_j, rel=1e-6)
    assert np.all(exp.norms >= exp.lower_bound_curve - 1e-12)
    assert exp.forcing_l1_norm <= 1.0 + 1e-9
    assert exp.truncation_leakage <= 1e-12


def test_growth_deviations_obey_submultiplicative_bound(cap_block):
    exp = growth_experiment(cap_block, 0, n_max=30, deviation_checks=30)
    m = np.arange(1, exp.deviation_norms.size + 1)
    gate = 1.1 * m * exp.period * exp.concentration_norm
    assert np.all(exp.deviation_norms <= gate)


def test_detuned_period_cancels_growth(cap_block):
    """Shifting the period by pi / lambda flips alternate periods."""
    lam = float(cap_block.eigenvalues[0])
    T_det = 2 * math.pi * (1.0 + 1.0 / (2.0 * lam))
    exp = growth_experiment(cap_block, 0, n_max=30, period=T_det)
    assert exp.norms[-1] <= 1e-6 * exp.C_j * 30
    assert np.max(exp.norms) <= 1.05 * exp.C_j


def test_damped_control_shows_no_growth():
    block = build_sphere_schrodinger(50, 10,
                                     DampingProfile("constant", amplitude=1.0))
    exp = growth_experiment(block, 0, n_max=30)
    per_period = exp.norms / exp.n_grid
    assert per_period[-1] <= 0.05 * per_period[0]
    assert np.max(exp.norms) <= 1.0


def test_orbit_norms_match_the_sequential_recurrence(rng):
    n, n_max = 12, 40
    M = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / (2 * n ** 0.5)
    FT = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    norms, leakage = orbit_norms(M, FT, n_max)
    u = np.zeros(n, dtype=complex)
    ref, ref_leak = [], 0.0
    for _ in range(n_max):
        u = M @ u + FT
        ref.append(np.linalg.norm(u))
        ref_leak = max(ref_leak, np.sum(np.abs(u[-10:]) ** 2) / ref[-1] ** 2)
    assert_allclose(norms, ref, rtol=1e-14)
    assert leakage == pytest.approx(ref_leak, rel=1e-14)


def test_growth_experiment_propagates_in_few_batched_calls(config_dir, monkeypatch):
    """One growth experiment on the shipped resonance_growth block asks
    propagate for whole arrays of times, not once per quadrature node, and
    its backward orbits never trip the growth warning."""
    cfg = json.loads((config_dir / "resonance_growth.json").read_text())
    block = cli.build_bundle(cfg).sphere
    calls = []
    original = operator_core.propagate

    def counting(model, t, x):
        calls.append(np.size(t))
        return original(model, t, x)

    for module in (operator_core, forcing, resonance_lab):
        monkeypatch.setattr(module, "propagate", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        growth_experiment(block, cfg["growth"]["k"], n_max=cfg["growth"]["n_max"])
    assert 0 < len(calls) < 30
    assert sum(calls) > 500
