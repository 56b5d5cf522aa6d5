"""Decay envelopes, resolvent scans and the crosscheck fits.

On normal diagonal models with the identity Gram every scanned
quantity has a closed form, which pins the envelope and resolvent
machinery before the fits are exercised on the synthetic resolvent
family with its designed growth rate.
"""

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose

from semiper import operator_core, stability_lab
from semiper.errors import NonMonotone, PoorFit
from semiper.models import (
    DampingProfile,
    build_damped_wave_circle,
    build_damped_wave_interval,
    build_diagonal_model,
    build_heat_wave_1d,
    build_synthetic_resolvent_model,
)
from semiper.operator_core import (
    build_model,
    domain_inv_factor,
    fractional_power,
    make_state_space,
    propagator_matrix,
)
from semiper.stability_lab import (
    ScanResult,
    bt_crosscheck,
    decay_envelope,
    fit_decay_exponent,
    fit_power_law,
    interpolation_check,
    mlog_bound_curve,
    resolvent_scan,
)

from conftest import gram_sqrt, reduced_gram


def envelope_oracle(eigs, alpha, t):
    """max_k e^{t Re lam} / sqrt(1 + |(-lam)^alpha|^2), identity Gram."""
    weights = np.sqrt(1.0 + np.abs((-eigs) ** alpha) ** 2)
    return np.max(np.exp(t * eigs.real) / weights)


# ---------------------------------------------------------------------------
# scans against closed forms
# ---------------------------------------------------------------------------

def test_decay_envelope_diagonal_closed_form():
    eigs = np.array([-0.2 + 1.0j, -1.0 + 4.0j, -3.0 - 2.0j])
    model = build_diagonal_model(eigs)
    t_grid = np.linspace(0.1, 20.0, 25)
    scan = decay_envelope(model, 1.0, t_grid)
    oracle = [envelope_oracle(eigs, 1.0, t) for t in t_grid]
    assert_allclose(scan.values, oracle, rtol=1e-10)
    assert scan.extras["normal"]
    assert scan.extras["monotone"]


@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_decay_envelope_fractional_orders(alpha):
    eigs = np.array([-0.3 + 2.0j, -1.5 + 0.5j])
    model = build_diagonal_model(eigs)
    t_grid = np.array([0.5, 2.0, 8.0])
    scan = decay_envelope(model, alpha, t_grid)
    oracle = [envelope_oracle(eigs, alpha, t) for t in t_grid]
    assert_allclose(scan.values, oracle, rtol=1e-9)


def test_resolvent_scan_diagonal_closed_form():
    eigs = np.array([-0.5 + 1.0j, -0.1 + 3.0j])
    model = build_diagonal_model(eigs)
    scan = resolvent_scan(model, np.linspace(0.2, 5.0, 30))
    oracle = [1.0 / np.min(np.abs(1j * e - eigs)) for e in scan.abscissae]
    assert_allclose(scan.values, oracle, rtol=1e-10)
    assert_allclose(scan.extras["running_max"],
                    np.maximum.accumulate(scan.values))


def test_resolvent_scan_augments_grid_with_spectrum():
    eigs = np.array([-0.5 + 1.37j, -0.1 + 3.91j])
    model = build_diagonal_model(eigs)
    scan = resolvent_scan(model, np.linspace(0.5, 5.0, 10))
    for freq in (1.37, 3.91):
        assert np.min(np.abs(scan.abscissae - freq)) < 1e-12


def test_resolvent_scan_merges_nearly_equal_frequencies():
    """A conjugate pair whose imaginary parts differ in the last digits,
    as a Schur diagonal returns them, adds one abscissa, not two."""
    eigs = np.array([-0.3 + 2.2j, -0.3 - 2.2j * (1 + 4e-15), -0.2 + 3.0j * (1 + 3e-13)])
    model = build_diagonal_model(eigs)
    grid = np.linspace(0.5, 5.0, 10)            # holds the grid point 3.0
    scan = resolvent_scan(model, grid)
    eta = scan.abscissae
    assert np.all(np.diff(eta) > 1e-12 * eta[1:])
    assert eta.size == grid.size + 1
    for freq in np.abs(eigs.imag):
        assert np.min(np.abs(eta - freq)) <= 1e-12 * freq


def test_resolvent_scan_frequencies_distinct_on_heat_wave():
    model = build_heat_wave_1d(48, 48)
    eta = resolvent_scan(model, np.geomspace(0.5, 90.0, 140)).abscissae
    assert np.all(np.diff(eta) > 1e-12 * eta[1:])


def test_wave_envelope_not_normal_uses_running_min():
    model = build_damped_wave_interval(12, 1.0,
                                       DampingProfile("constant", amplitude=1.5))
    t_grid = np.geomspace(0.2, 30.0, 40)
    scan = decay_envelope(model, 1.0, t_grid)
    assert not scan.extras["normal"]
    run = scan.extras["running_min"]
    assert np.all(np.diff(run) <= 1e-15)
    assert np.all(run <= scan.values + 1e-15)


# ---------------------------------------------------------------------------
# power-law fits
# ---------------------------------------------------------------------------

def test_fit_recovers_planted_power_law():
    x = np.geomspace(1.0, 100.0, 60)
    scan = ScanResult(abscissae=x, values=3.0 * x ** -1.7)
    fit = fit_power_law(scan, window=(1.0, 100.0))
    assert fit.exponent == pytest.approx(-1.7, abs=1e-12)
    assert fit.constant == pytest.approx(3.0, rel=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert scan.fit is fit


def test_fit_rejects_exponential_data():
    x = np.geomspace(1.0, 100.0, 60)
    scan = ScanResult(abscissae=x, values=np.exp(-x))
    with pytest.raises(PoorFit):
        fit_power_law(scan, window=(1.0, 100.0))


def test_fit_needs_enough_points():
    x = np.geomspace(1.0, 100.0, 60)
    scan = ScanResult(abscissae=x, values=x ** -1.0)
    with pytest.raises(PoorFit):
        fit_power_law(scan, window=(200.0, 300.0))


def test_fit_rejects_unknown_curve_name():
    x = np.geomspace(1.0, 100.0, 60)
    scan = ScanResult(abscissae=x, values=x ** -1.0,
                      extras={"running_max": np.maximum.accumulate(x ** -1.0),
                              "monotone": True})
    with pytest.raises(ValueError, match=r"'running_maxx'.*\['running_max', 'values'\]"):
        fit_power_law(scan, window=(1.0, 100.0), use="running_maxx")
    with pytest.raises(ValueError):
        fit_power_law(scan, window=(1.0, 100.0), use="monotone")


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_synthetic_resolvent_growth_exponent(alpha):
    model = build_synthetic_resolvent_model(40, alpha)
    scan = resolvent_scan(model, np.geomspace(0.5, 40.0, 120))
    fit = fit_power_law(scan, window=(4.0, 40.0), use="running_max")
    assert fit.exponent == pytest.approx(alpha, rel=0.1)


def test_synthetic_decay_exponent():
    model = build_synthetic_resolvent_model(40, 1.0)
    t_grid = np.geomspace(0.5, 60.0, 120)
    scan = decay_envelope(model, 1.0, t_grid)
    fit = fit_decay_exponent(scan, window=(8.0, 40.0))
    assert fit.exponent == pytest.approx(-1.0, rel=0.1)
    assert fit.r2 >= 0.95


# ---------------------------------------------------------------------------
# crosschecks
# ---------------------------------------------------------------------------

def test_bt_product_on_synthetic_family():
    model = build_synthetic_resolvent_model(40, 1.0)
    rep = bt_crosscheck(model,
                        t_grid=np.geomspace(0.5, 60.0, 120),
                        eta_grid=np.geomspace(0.5, 45.0, 120),
                        t_window=(8.0, 40.0), eta_window=(4.0, 40.0))
    assert 0.8 <= rep.product <= 1.25
    assert rep.alpha_hat > 0
    assert rep.beta_hat > 0


def test_interpolation_ratio_bounded():
    model = build_synthetic_resolvent_model(30, 1.0)
    t_grid = np.linspace(0.5, 50.0, 40)
    scan = interpolation_check(model, 2.0, t_grid)
    assert scan.extras["sup"] == pytest.approx(np.max(scan.values))
    assert scan.extras["arg_sup"] in t_grid
    assert np.all(scan.values > 0)
    assert np.isfinite(scan.extras["sup"])
    assert scan.extras["h_alpha"].shape == t_grid.shape
    den = scan.extras["h_one"]
    num = scan.extras["h_alpha"]
    assert_allclose(scan.values, num / den ** 2.0, rtol=1e-12)


def test_interpolation_sup_stable_under_grid_extension():
    model = build_synthetic_resolvent_model(30, 1.0)
    base = interpolation_check(model, 0.5, np.linspace(0.5, 50.0, 40))
    extended = interpolation_check(model, 0.5, np.linspace(0.5, 75.0, 60))
    rel_change = abs(extended.extras["sup"] - base.extras["sup"]) / base.extras["sup"]
    assert rel_change <= 0.1


def test_envelope_builds_no_propagator(monkeypatch):
    """Envelopes read the cached eigenbasis and never build an e^{tA}."""
    def build():
        return build_damped_wave_interval(12, np.pi, DampingProfile("constant", amplitude=1.0))

    builds = []

    def counted(fn):
        return lambda *a, **k: builds.append(a) or fn(*a, **k)

    model = build()
    t_grid = np.linspace(0.0, 50.0, 60)
    monkeypatch.setattr(operator_core, "propagator_matrix",
                        counted(operator_core.propagator_matrix))
    monkeypatch.setattr(sla, "expm", counted(sla.expm))
    scan = interpolation_check(model, 0.5, t_grid)
    decay_envelope(model, 1.0, t_grid)
    assert builds == []
    ref = build()
    assert np.array_equal(scan.extras["h_alpha"], decay_envelope(ref, 0.5, t_grid).values)
    assert np.array_equal(scan.extras["h_one"], decay_envelope(ref, 1.0, t_grid).values)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_decay_envelope_expm_fallback_matches_dense(near_defective, alpha, monkeypatch):
    """cond(V) > 1e8: one expm per time, against the dense norm."""
    assert near_defective.deflated_eig[3] > 1e8
    D = domain_inv_factor(near_defective, alpha)
    expm_calls = []
    original = sla.expm
    monkeypatch.setattr(sla, "expm", lambda *a, **k: expm_calls.append(a) or original(*a, **k))
    t_grid = np.array([0.0, 0.5, 2.0, 6.0])
    scan = decay_envelope(near_defective, alpha, t_grid)
    assert len(expm_calls) == t_grid.size
    S = np.diag(np.sqrt([1.0, 2.0, 0.5]))     # G_r^{1/2} of the fixture's Gram
    ref = [np.linalg.norm(S @ original(t * near_defective.A) @ D, 2) for t in t_grid]
    assert_allclose(scan.values, ref, rtol=1e-10)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_decay_envelope_on_kernel_model_matches_dense(alpha):
    """On a model with a kernel the envelope is the norm of Q* e^{tA} Q."""
    model = build_damped_wave_circle(16, DampingProfile("constant", amplitude=0.7))
    assert model.has_kernel
    _, Q = model.deflated
    S = gram_sqrt(reduced_gram(model))
    D = domain_inv_factor(model, alpha)
    t_grid = np.linspace(0.0, 20.0, 9)
    scan = decay_envelope(model, alpha, t_grid)
    ref = [np.linalg.norm(S @ Q.conj().T @ sla.expm(t * model.A) @ Q @ D, 2)
           for t in t_grid]
    assert_allclose(scan.values, ref, rtol=1e-10)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_decay_envelope_real_model_matches_dense(alpha):
    """A real generator and Gram take the real-arithmetic product."""
    model = build_heat_wave_1d(8, 8)
    A_r, _ = model.deflated
    G_r = reduced_gram(model)
    assert not (np.any(A_r.imag) or np.any(G_r.imag))
    S = gram_sqrt(G_r)
    D = domain_inv_factor(model, alpha)
    t_grid = np.array([0.0, 0.3, 1.0, 4.0, 10.0])
    scan = decay_envelope(model, alpha, t_grid)
    ref = [np.linalg.norm(S @ sla.expm(t * A_r) @ D, 2) for t in t_grid]
    assert_allclose(scan.values, ref, rtol=1e-11)


def test_domain_factor_matches_a_40_digit_reference():
    """sigma_max(S E D_alpha) on heat_wave_1d(8, 8) at alpha = 1 and 2,
    against D = L^{-*} from a 40-digit Cholesky L L* of the domain Gram
    G_d = S*S + (S F)*(S F), formed in mpmath from the float64 S and F.
    Both sides share the float64 propagator E = e^{tA}. Through the eigh
    of the formed G_d this read 1.1e-8 at alpha = 2."""
    mpmath = pytest.importorskip("mpmath")
    model = build_heat_wave_1d(8, 8)
    S = model.reduced_gram_factor
    SEs = [S @ propagator_matrix(model, t) for t in (0.5, 2.0, 10.0, 40.0)]
    for alpha in (1.0, 2.0):
        D = domain_inv_factor(model, alpha)
        with mpmath.workdps(40):
            Sm = mpmath.matrix(S.tolist())
            SF = Sm * mpmath.matrix(fractional_power(model, alpha).tolist())
            D_ref = mpmath.inverse(mpmath.cholesky(Sm.T * Sm + SF.T * SF)).T
            refs = [np.array((mpmath.matrix(SE.tolist()) * D_ref).tolist(), dtype=float)
                    for SE in SEs]
        for SE, ref in zip(SEs, refs):
            assert np.linalg.norm(SE @ D, 2) == pytest.approx(np.linalg.norm(ref, 2),
                                                              rel=1e-11)


def test_no_gram_is_formed_to_be_factored(monkeypatch):
    """make_state_space validates a Gram by its Cholesky factor, with no
    eigvalsh, and a model that takes LAPACK's eig (heat_wave_1d), built
    and run through decay_envelope at alpha = 2, calls no eigh: its
    state, reduced and domain Grams are read through triangular factors.
    Only _sigma_max's eigvalsh of a product's Gram remains."""
    calls = []

    def spy(name):
        original = getattr(np.linalg, name)
        return lambda *a, **k: calls.append(name) or original(*a, **k)

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, spy(name))
    make_state_space(3, np.diag([1.0, 2.0, 0.5]))
    model = build_heat_wave_1d(8, 8)
    assert calls == []
    decay_envelope(model, 2.0, np.linspace(0.0, 10.0, 6))
    assert set(calls) == {"eigvalsh"}


def _bump_interval():
    return build_damped_wave_interval(
        60, np.pi, DampingProfile("bump", amplitude=1.0, center=np.pi / 2, width=2.0))


def full_product_envelope(model, alpha, t_grid):
    """sigma_max of S V e^{t Lambda} V^{-1} D_alpha over all modes, the real
    part on a real model, as the uncompressed product takes it. On a real
    model the second row of each conjugate pair of V^{-1} is set to the
    conjugate of the first, which is what the real basis reads: LAPACK's
    inverse has them conjugate only to round-off, and that alone moves
    sigma by up to 9.4e-14 on heat_wave_1d(48, 48)."""
    S = gram_sqrt(reduced_gram(model))
    w, V, Vinv, _ = model.deflated_eig
    real = not np.iscomplexobj(model.deflated[0])
    if real:
        first = operator_core._conjugate_pairs(w)
        Vinv = Vinv.copy()
        Vinv[first + 1] = Vinv[first].conj()
    L, R = S @ V, Vinv @ domain_inv_factor(model, alpha)
    out = []
    for t in t_grid:
        M = (L * np.exp(w * t)) @ R
        out.append(np.linalg.norm(M.real if real else M, 2))
    return np.array(out)


@pytest.mark.parametrize("make, alpha, t_grid", [
    (lambda: build_heat_wave_1d(48, 48), 1.0, np.geomspace(0.5, 80.0, 120)),
    (lambda: build_heat_wave_1d(24, 24), 0.5, np.linspace(0.0, 50.0, 60)),
    (lambda: build_heat_wave_1d(24, 24), 2.0, np.linspace(0.0, 50.0, 60)),
    (_bump_interval, 0.5, np.linspace(0.0, 50.0, 60)),
    (lambda: build_synthetic_resolvent_model(40, 1.0), 1.0, np.geomspace(0.5, 60.0, 120)),
], ids=["heat_wave_48", "heat_wave_24_half", "heat_wave_24_two", "bump_interval",
        "synthetic"])
def test_compressed_envelope_matches_full_product(make, alpha, t_grid):
    """Dropping the decayed modes and compressing the factors keeps every
    value within round-off of the product over all modes."""
    model = make()
    scan = decay_envelope(model, alpha, t_grid)
    assert_allclose(scan.values, full_product_envelope(model, alpha, t_grid),
                    rtol=1e-13, atol=0)


def test_compressed_envelope_drops_decayed_heat_modes(monkeypatch):
    """The fast heat modes are below round-off from t = 0.5 on, so every
    time takes a product over fewer than all 143 modes, and none falls
    back to the full size."""
    model = build_heat_wave_1d(48, 48)
    n = model.deflated_eig[0].size
    assert n == 143
    sizes = []
    original = stability_lab._sigma_max
    monkeypatch.setattr(stability_lab, "_sigma_max",
                        lambda M: sizes.append(M.shape[0]) or original(M))
    t_grid = np.geomspace(0.5, 80.0, 120)
    decay_envelope(model, 1.0, t_grid)
    assert len(sizes) == t_grid.size
    assert max(sizes) < n


def test_compressed_envelope_full_size_fallback(monkeypatch):
    """A nearly defective pair (cond(V) = 2e4) whose envelope cancels to
    below 2^-7 of its mode bounds, beside a fast mode that drops below
    2^-60 of them: where the dropped tail exceeds 2^-53 of the truncated
    value, the value is recomputed over all three modes."""
    A = np.array([[-1.0, 1.0, 0.0],
                  [0.0, -1.0 - 1e-4, 0.0],
                  [0.0, 0.0, -10.0]])
    model = build_model(make_state_space(3, np.eye(3)), A)
    assert model.deflated_eig[3] < operator_core.EIG_COND_LIMIT
    sizes = []
    original = stability_lab._sigma_max
    monkeypatch.setattr(stability_lab, "_sigma_max",
                        lambda M: sizes.append(M.shape[0]) or original(M))
    t_grid = np.linspace(0.0, 6.0, 61)
    scan = decay_envelope(model, 1.0, t_grid)
    recomputed = [b for a, b in zip(sizes, sizes[1:]) if a == 2 and b == 3]
    assert recomputed and len(sizes) == t_grid.size + len(recomputed)
    D = domain_inv_factor(model, 1.0)
    ref = [np.linalg.norm(sla.expm(t * A) @ D, 2) for t in t_grid]
    assert_allclose(scan.values, ref, rtol=1e-11)


@pytest.mark.parametrize("make", [lambda: build_heat_wave_1d(24, 24), _bump_interval],
                         ids=["heat_wave_24", "bump_interval"])
def test_real_pair_path_matches_complex_path(make, monkeypatch):
    """The rotations on the conjugate pairs' real columns give what the
    complex diagonal path gives on the same eigenbasis, so the sort
    keeps each pair's two columns together and in order."""
    model = make()
    t_grid = np.linspace(0.0, 50.0, 60)
    real = interpolation_check(model, 0.5, t_grid).extras
    monkeypatch.setattr(stability_lab, "_real_inverse", lambda w, Vinv: None)
    cplx = interpolation_check(model, 0.5, t_grid).extras
    for key in ("h_alpha", "h_one"):
        assert_allclose(real[key], cplx[key], rtol=1e-13, atol=0)


def test_mlog_bound_tracks_decay_shape():
    """The inverted log-corrected bound stays within a small factor of
    the measured envelope once its free constant is fitted."""
    model = build_synthetic_resolvent_model(30, 1.0)
    rep = mlog_bound_curve(model,
                           eta_grid=np.geomspace(0.3, 40.0, 100),
                           t_grid=np.geomspace(1.0, 80.0, 60))
    assert rep.constant > 0
    assert 0.0 < rep.fraction_satisfied <= 1.0
    assert np.all(np.diff(rep.m_log) >= 0)
    ok = np.isfinite(rep.bound) & (rep.decay > 0)
    assert ok.sum() >= 20
    gap = np.abs(np.log(rep.bound[ok]) - np.log(rep.decay[ok]))
    assert gap.max() <= 1.5
