#!/usr/bin/env python3
"""Scan fit windows for the decay-exponent and resolvent-growth fits.

The power-law fits behind the resolvent/decay cross-check are sensitive
to the fit window: finite grids pollute the small-t end with the initial
transient and the large-t end with the slowest resolved mode (the decay
envelope of a finite model eventually plateaus near 1/omega_max). This
script sweeps candidate windows on one model and prints the fitted
exponent and r^2 of each, so a stable window can be chosen by hand.
Every window prints, however poor its fit: the sweep is there to show
where r^2 drops.

Example:
    python3 scripts/fit_window_scan.py --config configs/bt_heatwave.json
"""

import argparse
import itertools
import json

import numpy as np

from semiper.cli import build_bundle, _grid
from semiper.stability_lab import (
    decay_envelope,
    fit_decay_exponent,
    fit_power_law,
    resolvent_scan,
)


def candidate_windows(grid, n_lo=4, n_hi=4):
    lo_values = np.geomspace(grid[0], grid[-1] ** 0.5, n_lo)
    hi_values = np.geomspace(grid[-1] ** 0.5 * 2, grid[-1], n_hi)
    return [(lo, hi) for lo, hi in itertools.product(lo_values, hi_values)
            if hi / lo > 3]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True,
                    help="a bt_crosscheck or decay_scan config to take the "
                         "model and grids from")
    ap.add_argument("--alpha", type=float, default=1.0,
                    help="envelope regularity for the decay scan")
    args = ap.parse_args()

    cfg = json.loads(open(args.config).read())
    bundle = build_bundle(cfg)
    scan_spec = cfg["scan"]

    t = _grid(scan_spec["t_grid"])
    decay = decay_envelope(bundle.model, args.alpha, t)
    print(f"# decay windows on {bundle.name}")
    print(f"{'lo':>8} {'hi':>8} {'beta_hat':>9} {'r2':>7}")
    for lo, hi in candidate_windows(t):
        fit = fit_decay_exponent(decay, window=(lo, hi), min_r2=-np.inf)
        print(f"{lo:8.2f} {hi:8.2f} {-fit.exponent:9.4f} {fit.r2:7.4f}")

    if "eta_grid" not in scan_spec:
        return
    eta = _grid(scan_spec["eta_grid"])
    resolvent = resolvent_scan(bundle.model, eta)
    print(f"\n# resolvent windows on {bundle.name}")
    print(f"{'lo':>8} {'hi':>8} {'alpha_hat':>9} {'r2':>7}")
    for lo, hi in candidate_windows(eta):
        fit = fit_power_law(resolvent, window=(lo, hi), use="running_max",
                            min_r2=-np.inf)
        print(f"{lo:8.2f} {hi:8.2f} {fit.exponent:9.4f} {fit.r2:7.4f}")


if __name__ == "__main__":
    main()
