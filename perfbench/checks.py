"""Correctness checks on one child run's artifacts.

Every run must exit cleanly, emit only finite numbers and meet the
invariants that hold for any valid input: per-period residuals and solver
agreement within the acceptance tolerances, a converged Picard iteration
with a small ODE residual, passing structural invariants, and
``circle_obstruction`` raising ``KernelObstruction``. On seed 0, where the
inputs are the shipped configs, each criterion's pinned gate values from
``tests/test_acceptance.py`` are asserted as well.

``check_run`` returns the list of failed checks; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import EXPECTED_ERRORS

# (file, column, row) cells that are NaN by design: the first Picard sweep
# has no previous gap to form a ratio with.
_NAN_CELLS = {("picard.csv", "ratio", 0)}

_GAIN_ORDERS = ("1", "2", "3")
_BT_PRODUCT = {"bt_synthetic_alpha1": (0.8, 1.25),
               "bt_synthetic_alpha2": (0.8, 1.25),
               "bt_heatwave": (0.7, 1.4)}
_INVARIANT_TOLS = {"semigroup_law": 1e-9, "fractional_power_law": 1e-8,
                   "kernel_projector": 1e-8, "duhamel_linearity": 1e-10,
                   "uniform_bound": 4.0}
_RESONANCE_CONFIGS = ("resonance_growth", "resonance_detuned",
                      "resonance_concentration")


class _Checks:
    def __init__(self, name: str, out_dir: Path):
        self.name = name
        self.out_dir = out_dir
        self.failed: list[str] = []

    def need(self, cond, what: str):
        if not cond:
            self.failed.append(what)

    def json(self, name: str) -> dict:
        with open(self.out_dir / name, encoding="utf-8") as fh:
            return json.load(fh)

    def csv(self, name: str) -> dict:
        """Column name -> list of values of a CSV written by emit_csv."""
        lines = (self.out_dir / name).read_text(encoding="utf-8").splitlines()
        names = [h.split(" [")[0] for h in lines[0].split(",")]
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        return {n: [r[i] for r in rows] for i, n in enumerate(names)}


def _nonfinite(value) -> bool:
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, dict):
        return any(_nonfinite(v) for v in value.values())
    if isinstance(value, list):
        return any(_nonfinite(v) for v in value)
    return False


def _check_finite(c: _Checks):
    for path in sorted(c.out_dir.iterdir()):
        if path.suffix == ".csv":
            for col, values in c.csv(path.name).items():
                for row, v in enumerate(values):
                    c.need(math.isfinite(v)
                           or (path.name, col, row) in _NAN_CELLS,
                           f"{path.name}: non-finite {col} in row {row}")
        elif path.suffix == ".json":
            c.need(not _nonfinite(c.json(path.name)),
                   f"{path.name}: non-finite value")


# ---------------------------------------------------------------------------
# invariants, checked on every seed
# ---------------------------------------------------------------------------

def _periodic(c: _Checks, residual_tol: float, gap_tol=None):
    rep = c.json("periodic_report.json")
    c.need(max(rep["residual_per_period"]) <= residual_tol,
           f"residual_per_period above {residual_tol:.1e}")
    if "pairwise_gaps" in rep:
        tol = gap_tol if gap_tol is not None else 1e-8 * (1.0 + rep["condition"])
        for pair, gap in rep["pairwise_gaps"].items():
            c.need(gap <= tol, f"pairwise gap {pair} above {tol:.1e}")


def _inv_picard(c: _Checks, result: dict):
    rep = c.json("picard.json")
    c.need(rep["converged"] is True, "Picard did not converge")
    c.need(rep["ode_residual"] <= 1e-6, "Picard ODE residual above 1e-6")


def _inv_boundary(c: _Checks, result: dict):
    for key, run in c.json("boundary.json")["runs"].items():
        c.need(max(run["residuals"]) <= 1e-8, f"{key}: residual above 1e-8")


def _inv_invariants(c: _Checks, result: dict):
    c.need(c.json("invariants.json")["all_pass"] is True,
           "structural invariants fail")


_INVARIANTS = {
    "scalar_oracle": lambda c, r: _periodic(c, 1e-10, 1e-10),
    "interval_periodic": lambda c, r: _periodic(c, 1e-8 * r["forcing_l1"]),
    "circle_kernel": lambda c, r: _periodic(c, 1e-8),
    "heatwave_periodic_k7": lambda c, r: _periodic(c, 1e-7),
    "picard_cubic": _inv_picard,
    "boundary_wave": _inv_boundary,
    "invariants": _inv_invariants,
}


# ---------------------------------------------------------------------------
# pinned acceptance gates, checked on seed 0 only
# ---------------------------------------------------------------------------

def _gate_scalar(c: _Checks, result: dict, times: dict):
    rep = c.json("periodic_report.json")
    w0 = complex(rep["w0_real"][0], rep["w0_imag"][0])
    c.need(abs(w0 - 1.0) <= 1e-10, "scalar oracle w0 != 1")
    c.need(c.json("manifest.json")["wall_clock"]["solve"] < 0.1,
           "scalar oracle solve took 0.1 s or more")


def _gate_interval(c: _Checks, result: dict, times: dict):
    c.need(result["run_s"] < 10.0, "interval_periodic took 10 s or more")


def _gate_convergence(c: _Checks, result: dict, times: dict):
    p = c.json("convergence.json")
    c.need(p["n_periods"] <= 50, "convergence used more than 50 periods")
    errs = p["final_ratio_rel_errors"]
    c.need(len(errs) == 5 and max(errs) <= 0.05,
           "contraction ratios miss the spectral radius by more than 5%")
    c.need(0.0 < p["spectral_radius"] < 1.0, "spectral radius outside (0, 1)")


def _gate_spectrum(c: _Checks, result: dict, times: dict):
    s = c.json("spectrum.json")
    c.need(s["kernel_dim"] == 1, "kernel_dim != 1")
    c.need(s["projector_gap"] <= 1e-8, "projector gap above 1e-8")
    c.need(s["deflated_abscissa"] < 0.0, "deflated abscissa not negative")
    c.need(s["assumptions_ok"] is True, "spectrum assumptions fail")


def _gate_gain(c: _Checks, result: dict, times: dict):
    p = c.json("gain.json")
    c.need(p["orders"] == [1, 2, 3], "gain orders != [1, 2, 3]")
    for k in _GAIN_ORDERS:
        c.need(p["errors"][k] <= 1e-6, f"gain error order {k} above 1e-6")
        c.need(p["corrected_errors"][k] <= 1e-6,
               f"corrected gain error order {k} above 1e-6")
    c.need(p["control_error"] >= 1e-3, "negative control below 1e-3")
    c.need(p["control_corrected_error"] <= 1e-6,
           "corrected control above 1e-6")


def _gate_bt(c: _Checks, result: dict, times: dict):
    lo, hi = _BT_PRODUCT[c.name]
    p = c.json("bt.json")
    c.need(lo <= p["product"] <= hi, f"bt product outside [{lo}, {hi}]")
    c.need(p["decay_fit"]["r2"] >= 0.95, "decay fit r2 below 0.95")
    c.need(p["resolvent_fit"]["r2"] >= 0.95, "resolvent fit r2 below 0.95")
    c.need(result["run_s"] < 60.0, f"{c.name} took 60 s or more")


def _gate_decay(c: _Checks, result: dict, times: dict):
    d = c.json("decay.json")
    c.need(d["beta_hat"] >= 1.0 / 6.0, "decay rate below 1/6")
    c.need(d["r2"] >= 0.9, "decay fit r2 below 0.9")
    c.need(d["monotone"] is True, "decay envelope not monotone")


def _gate_k7(c: _Checks, result: dict, times: dict):
    c.need(c.json("periodic_report.json")["forcing_tag"].startswith("Wk1_per0"),
           "k7 forcing tag is not Wk1_per0")


def _gate_interp(c: _Checks, result: dict, times: dict):
    p = c.json("interpolation.json")
    c.need(0.1 <= p["sup_ratio"] <= 5.0, "interpolation sup ratio not O(1)")
    c.need(p["relative_change"] <= 0.10,
           "interpolation sup moved by more than 10%")


def _gate_growth(c: _Checks, result: dict, times: dict):
    p = c.json("growth.json")
    horizon = min(200, p["resonant_horizon"])
    g = c.csv("growth.csv")
    within = [(n, v) for n, v in zip(g["n"], g["norm"]) if n <= horizon]
    c.need(len(within) >= 100, "fewer than 100 periods inside the horizon")
    c.need(all(v >= 0.8 * p["C_j"] * n for n, v in within),
           "growth below 0.8 of the predicted line")
    d = c.csv("deviations.csv")
    c.need(all(dev <= 1.1 * b for dev, b in zip(d["deviation"], d["bound"])),
           "deviation above the drift bound")
    c.need(p["forcing_l1_norm"] <= 1.0 + 1e-6, "forcing L1 norm above 1")
    c.need(p["truncation_leakage"] <= 1e-12, "truncation leakage above 1e-12")
    c.need(p["propagation_bound"] <= 1.001, "propagation bound above 1.001")
    c.need(p["control_sup"] <= 1.0, "damped control sup above 1")
    c.need(p["control_final_over_n"] <= 0.01, "damped control grows")


def _gate_detuned(c: _Checks, result: dict, times: dict):
    c.need(c.json("growth.json")["final_over_Cjn"] <= 1e-6,
           "detuned run grows")


def _gate_concentration(c: _Checks, result: dict, times: dict):
    p = c.json("concentration.json")
    ref = p["reference_slope"]
    c.need(abs(p["slope_vs_j"] - ref) <= 0.20 * abs(ref),
           "concentration slope off the cap prediction by more than 20%")
    c.need(p["r2"] >= 0.99, "concentration fit r2 below 0.99")
    total = sum(times.get(n, math.inf) for n in _RESONANCE_CONFIGS)
    c.need(total < 120.0, "criterion 9 configs took 120 s or more")


def _gate_picard(c: _Checks, result: dict, times: dict):
    p = c.json("picard.json")
    c.need(p["iterations"] <= 30, "Picard needed more than 30 sweeps")
    c.need(p["max_ratio"] < 0.5, "Picard contraction ratio 0.5 or more")
    t = c.json("picard_threshold.json")
    c.need(math.isclose(t["last_converged"], 1.0, rel_tol=1e-6)
           and math.isclose(t["first_diverged"], 3.0, rel_tol=1e-6),
           "divergence threshold not bracketed by (1, 3]")


def _gate_boundary(c: _Checks, result: dict, times: dict):
    p = c.json("boundary.json")
    c.need(p["periods"] == [0.1, 1.0, 10.0], "boundary periods changed")
    for key, run in p["runs"].items():
        adm = run["admissibility"]
        c.need(math.isfinite(adm) and adm > 0.0,
               f"{key}: admissibility not positive")


def _gate_invariants(c: _Checks, result: dict, times: dict):
    checks = c.json("invariants.json")["checks"]
    c.need(set(checks) == set(_INVARIANT_TOLS), "invariant checks changed")
    for name, tol in _INVARIANT_TOLS.items():
        rec = checks.get(name, {})
        c.need(rec.get("tol") == tol and rec.get("max_error", math.inf) <= tol
               and rec.get("pass") is True, f"invariant {name} fails")


_GATES = {
    "scalar_oracle": _gate_scalar,
    "interval_periodic": _gate_interval,
    "convergence": _gate_convergence,
    "circle_spectrum": _gate_spectrum,
    "gain_interval": _gate_gain,
    "gain_heatwave": _gate_gain,
    "heatwave_decay": _gate_decay,
    "heatwave_periodic_k7": _gate_k7,
    "interp_interval_half": _gate_interp,
    "interp_interval_two": _gate_interp,
    "interp_heatwave_half": _gate_interp,
    "interp_heatwave_two": _gate_interp,
    "resonance_growth": _gate_growth,
    "resonance_detuned": _gate_detuned,
    "resonance_concentration": _gate_concentration,
    "picard_cubic": _gate_picard,
    "boundary_wave": _gate_boundary,
    "invariants": _gate_invariants,
    **{name: _gate_bt for name in _BT_PRODUCT},
}


def check_run(name: str, out_dir: Path, result: dict, seed: int,
              times: dict) -> list[str]:
    """Failed checks of one run; ``times`` maps the configs run so far in
    this pass to their ``run()`` seconds."""
    expected = EXPECTED_ERRORS.get(name)
    error = result.get("error")
    if expected is not None or error is not None:
        if error == expected:
            return []
        return [f"expected {expected or 'success'}, got {error or 'success'}"]
    c = _Checks(name, out_dir)
    try:
        _check_finite(c)
        if name in _INVARIANTS:
            _INVARIANTS[name](c, result)
        if seed == 0 and name in _GATES:
            _GATES[name](c, result, times)
    except (OSError, KeyError, ValueError, TypeError, IndexError) as e:
        c.failed.append(f"missing or malformed artifact: {e!r}")
    return c.failed
