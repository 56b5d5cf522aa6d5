"""End-to-end acceptance gates, one test per criterion.

Each test runs one or more shipped configs through the public entry point
``semiper.cli.run`` and checks the emitted artifacts against fixed
tolerances, so ``pytest -v tests/test_acceptance.py`` prints one pass/fail
line per criterion.  Tolerances are pinned here on purpose: loosening them
to make a test pass defeats the point of the gate.
"""

import json
import time

import numpy as np
import pytest

from semiper import cli, errors, forcing


def run_config(config_dir, name, out_dir):
    t0 = time.perf_counter()
    manifest = cli.run(config_dir / name, out_dir=out_dir)
    return manifest, time.perf_counter() - t0


def load_json(out_dir, name):
    with open(out_dir / name, encoding="utf-8") as fh:
        return json.load(fh)


def test_criterion_01_scalar_oracle(config_dir, tmp_path):
    """u' = -u + 1 with period 2*pi: every solver returns w0 = 1 instantly."""
    manifest, _ = run_config(config_dir, "scalar_oracle.json", tmp_path)
    report = load_json(tmp_path, "periodic_report.json")
    w0 = complex(report["w0_real"][0], report["w0_imag"][0])
    assert abs(w0 - 1.0) <= 1e-10
    assert max(report["residual_per_period"]) <= 1e-10
    for gap in report["pairwise_gaps"].values():
        assert gap <= 1e-10
    assert manifest.wall_clock["solve"] < 0.1


def test_criterion_02_interval_wave_solvers_agree(config_dir, tmp_path):
    """Damped wave on the interval, n=200: all three solvers, one answer."""
    _, elapsed = run_config(config_dir, "interval_periodic.json", tmp_path)
    report = load_json(tmp_path, "periodic_report.json")

    cfg = json.loads((config_dir / "interval_periodic.json").read_text())
    bundle = cli.build_bundle(cfg)
    f = cli.build_forcing(bundle, cfg["forcing"])
    forcing_l1 = forcing.check_class(f, 0).l1_norm

    assert max(report["residual_per_period"]) <= 1e-8 * forcing_l1
    gap_gate = 1e-8 * (1.0 + report["condition"])
    for gap in report["pairwise_gaps"].values():
        assert gap <= gap_gate
    assert elapsed < 10.0


def test_criterion_03_convergence_ratio_estimates_radius(config_dir, tmp_path):
    """Per-period contraction ratios reach the deflated spectral radius."""
    run_config(config_dir, "convergence.json", tmp_path)
    payload = load_json(tmp_path, "convergence.json")
    assert payload["n_periods"] <= 50
    errs = payload["final_ratio_rel_errors"]
    assert len(errs) == 5
    assert max(errs) <= 0.05
    assert 0.0 < payload["spectral_radius"] < 1.0


def test_criterion_04_circle_kernel_handling(config_dir, tmp_path):
    """Kernel-aware solve on the circle, projector agreement, obstruction."""
    run_config(config_dir, "circle_kernel.json", tmp_path / "solve")
    report = load_json(tmp_path / "solve", "periodic_report.json")
    assert max(report["residual_per_period"]) <= 1e-8
    for gap in report["pairwise_gaps"].values():
        assert gap <= 1e-8 * (1.0 + report["condition"])

    run_config(config_dir, "circle_spectrum.json", tmp_path / "spectrum")
    spectrum = load_json(tmp_path / "spectrum", "spectrum.json")
    assert spectrum["kernel_dim"] == 1
    assert spectrum["projector_gap"] <= 1e-8
    assert spectrum["deflated_abscissa"] < 0.0
    assert spectrum["assumptions_ok"] is True

    with pytest.raises(errors.KernelObstruction):
        cli.run(config_dir / "circle_obstruction.json",
                out_dir=tmp_path / "obstructed")


@pytest.mark.parametrize("name", ["gain_interval.json", "gain_heatwave.json"])
def test_criterion_05_gain_identity(config_dir, tmp_path, name):
    """Derivative-shift gain identity holds for k=1..3, control breaks it."""
    run_config(config_dir, name, tmp_path)
    payload = load_json(tmp_path, "gain.json")
    assert payload["orders"] == [1, 2, 3]
    for k in ("1", "2", "3"):
        assert payload["errors"][k] <= 1e-6
        assert payload["corrected_errors"][k] <= 1e-6
    assert payload["control_error"] >= 1e-3
    assert payload["control_corrected_error"] <= 1e-6


@pytest.mark.parametrize("name, lo, hi", [
    ("bt_synthetic_alpha1.json", 0.8, 1.25),
    ("bt_synthetic_alpha2.json", 0.8, 1.25),
    ("bt_heatwave.json", 0.7, 1.4),
])
def test_criterion_06_bt_product(config_dir, tmp_path, name, lo, hi):
    """Decay exponent times resolvent-growth exponent lands near one."""
    _, elapsed = run_config(config_dir, name, tmp_path)
    payload = load_json(tmp_path, "bt.json")
    assert lo <= payload["product"] <= hi
    assert payload["decay_fit"]["r2"] >= 0.95
    assert payload["resolvent_fit"]["r2"] >= 0.95
    assert elapsed < 60.0


def test_criterion_07_heatwave_decay_and_smooth_forcing(config_dir, tmp_path):
    """Coupled heat-wave: decay rate beats 1/6, k=7 forcing solves cleanly."""
    run_config(config_dir, "heatwave_decay.json", tmp_path / "decay")
    decay = load_json(tmp_path / "decay", "decay.json")
    assert decay["beta_hat"] >= 1.0 / 6.0
    assert decay["r2"] >= 0.9
    assert decay["monotone"] is True

    run_config(config_dir, "heatwave_periodic_k7.json", tmp_path / "k7")
    report = load_json(tmp_path / "k7", "periodic_report.json")
    assert max(report["residual_per_period"]) <= 1e-7
    assert report["forcing_tag"].startswith("Wk1_per0")


@pytest.mark.parametrize("name", [
    "interp_interval_half.json",
    "interp_interval_two.json",
    "interp_heatwave_half.json",
    "interp_heatwave_two.json",
])
def test_criterion_08_interpolation_ratio_bounded(config_dir, tmp_path, name):
    """Fractional-power norm ratio stays O(1) and stable under refinement."""
    run_config(config_dir, name, tmp_path)
    payload = load_json(tmp_path, "interpolation.json")
    assert np.isfinite(payload["sup_ratio"])
    assert 0.1 <= payload["sup_ratio"] <= 5.0
    assert payload["relative_change"] <= 0.10


def test_criterion_09_resonant_growth_on_sphere(config_dir, tmp_path):
    """Undamped resonance grows linearly; detuning or damping kills it."""
    _, t_growth = run_config(config_dir, "resonance_growth.json",
                             tmp_path / "growth")
    payload = load_json(tmp_path / "growth", "growth.json")
    c_j = payload["C_j"]
    horizon = min(200, payload["resonant_horizon"])

    names, rows = cli.read_csv(tmp_path / "growth" / "growth.csv")
    cols = {name: rows[:, i] for i, name in enumerate(names)}
    within = cols["n"] <= horizon
    assert within.sum() >= 100
    assert np.all(cols["norm"][within] >= 0.8 * c_j * cols["n"][within])

    names, rows = cli.read_csv(tmp_path / "growth" / "deviations.csv")
    cols = {name: rows[:, i] for i, name in enumerate(names)}
    assert np.all(cols["deviation"] <= 1.1 * cols["bound"])

    assert payload["forcing_l1_norm"] <= 1.0 + 1e-6
    assert payload["truncation_leakage"] <= 1e-12
    assert payload["propagation_bound"] <= 1.001
    assert payload["control_sup"] <= 1.0
    assert payload["control_final_over_n"] <= 0.01

    _, t_detuned = run_config(config_dir, "resonance_detuned.json",
                              tmp_path / "detuned")
    detuned = load_json(tmp_path / "detuned", "growth.json")
    assert detuned["final_over_Cjn"] <= 1e-6

    _, t_conc = run_config(config_dir, "resonance_concentration.json",
                           tmp_path / "conc")
    conc = load_json(tmp_path / "conc", "concentration.json")
    slope, ref = conc["slope_vs_j"], conc["reference_slope"]
    assert abs(slope - ref) <= 0.20 * abs(ref)
    assert conc["r2"] >= 0.99

    assert t_growth + t_detuned + t_conc < 120.0


def test_criterion_10_picard_cubic(config_dir, tmp_path):
    """Weak cubic term: Picard contracts fast; threshold amplitude found."""
    run_config(config_dir, "picard_cubic.json", tmp_path)
    payload = load_json(tmp_path, "picard.json")
    assert payload["converged"] is True
    assert payload["iterations"] <= 30
    assert payload["max_ratio"] < 0.5
    assert payload["ode_residual"] <= 1e-6

    threshold = load_json(tmp_path, "picard_threshold.json")
    assert threshold["last_converged"] == pytest.approx(1.0)
    assert threshold["first_diverged"] == pytest.approx(3.0)
    assert threshold["first_diverged"] > threshold["last_converged"]


def test_criterion_11_boundary_forced_wave(config_dir, tmp_path):
    """Boundary-forced interval wave solves across three period scales."""
    run_config(config_dir, "boundary_wave.json", tmp_path)
    payload = load_json(tmp_path, "boundary.json")
    assert payload["periods"] == [0.1, 1.0, 10.0]
    for T in payload["periods"]:
        run = payload["runs"][f"T={T:g}"]
        assert max(run["residuals"]) <= 1e-8
        assert np.isfinite(run["admissibility"])
        assert run["admissibility"] > 0.0


def test_criterion_12_invariant_suite(config_dir, tmp_path):
    """Structural identities hold across every shipped model family."""
    run_config(config_dir, "invariants.json", tmp_path)
    payload = load_json(tmp_path, "invariants.json")
    checks = payload["checks"]
    expected_tols = {
        "semigroup_law": 1e-9,
        "fractional_power_law": 1e-8,
        "kernel_projector": 1e-8,
        "duhamel_linearity": 1e-10,
        "uniform_bound": 4.0,
    }
    assert set(checks) == set(expected_tols)
    for name, tol in expected_tols.items():
        assert checks[name]["tol"] == tol
        assert checks[name]["max_error"] <= tol
        assert checks[name]["pass"] is True
    assert payload["all_pass"] is True
