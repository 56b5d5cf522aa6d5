"""The benchmark's workloads and how a seed turns them into inputs.

Each workload is a list of shipped configs, all run through the CLI entry
point. Seed 0 runs the shipped files unchanged. Any other seed scales one
input amplitude (or scan length) of each config by a factor in
[1 - SPREAD, 1 + SPREAD] drawn from the seed and the config name. Each
run gets the config's own RNG seed plus the benchmark seed as ``seed``.
No perturbation changes a matrix size, a grid size or a solver setting,
so the work per config stays the same and only the numbers differ.
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

WORKLOADS = {
    # forcing.duhamel_FT closed form, the three periodic solvers and Picard;
    # propagators are requested for few distinct times, many times over
    "orbits": ["picard_cubic", "interval_periodic", "boundary_wave",
               "circle_kernel", "circle_obstruction", "heatwave_periodic_k7",
               "convergence", "gain_interval", "gain_heatwave",
               "scalar_oracle"],
    # stability_lab scans and resolvent_norm; two in three propagator
    # requests are for a new time
    "scans": ["bt_heatwave", "heatwave_decay", "interp_interval_half",
              "interp_interval_two", "interp_heatwave_half",
              "interp_heatwave_two", "bt_synthetic_alpha1",
              "bt_synthetic_alpha2", "circle_spectrum"],
    # models' sphere build, resonance_lab and the quadrature Duhamel path;
    # the only workload that builds sphere blocks
    "sphere": ["resonance_growth", "resonance_detuned",
               "resonance_concentration", "invariants"],
}

# Configs whose success is a bug: the forcing pumps the conserved mode.
EXPECTED_ERRORS = {"circle_obstruction": "semiper.errors.KernelObstruction"}

SPREAD = 0.02

# Config name -> (path to the perturbed value, value when the key is absent).
_PERTURBED = {
    "picard_cubic": (("picard", "epsilon"), None),
    "interval_periodic": (("forcing", "amplitude"), 1.0),
    "boundary_wave": (("forcing", "amplitude"), None),
    "circle_kernel": (("forcing", "components", 1, "amplitude"), None),
    "circle_obstruction": (("forcing", "components", 0, "amplitude"), None),
    "heatwave_periodic_k7": (("forcing", "amplitude"), 1.0),
    "convergence": (("forcing", "amplitude"), 1.0),
    "gain_interval": (("forcing", "amplitude"), 1.0),
    "gain_heatwave": (("forcing", "amplitude"), 1.0),
    "scalar_oracle": (("forcing", "components", 0, "amplitude"), None),
    "bt_heatwave": (("scan", "t_grid", "stop"), None),
    "heatwave_decay": (("scan", "t_grid", "stop"), None),
    "interp_interval_half": (("scan", "t_grid", "stop"), None),
    "interp_interval_two": (("scan", "t_grid", "stop"), None),
    "interp_heatwave_half": (("scan", "t_grid", "stop"), None),
    "interp_heatwave_two": (("scan", "t_grid", "stop"), None),
    "bt_synthetic_alpha1": (("scan", "t_grid", "stop"), None),
    "bt_synthetic_alpha2": (("scan", "t_grid", "stop"), None),
    "circle_spectrum": (("model", "damping", "amplitude"), None),
    "resonance_growth": (("model", "damping", "amplitude"), None),
    "resonance_detuned": (("model", "damping", "amplitude"), None),
    "resonance_concentration": (("model", "damping", "amplitude"), None),
    "invariants": (None, None),          # the RNG seed is its only input
}


def perturbed_config(cfg: dict, name: str, seed: int) -> dict:
    """The config run for ``seed``; seed 0 returns ``cfg`` unchanged."""
    if seed == 0:
        return cfg
    out = copy.deepcopy(cfg)
    path, default = _PERTURBED[name]
    if path is not None:
        factor = 1.0 + SPREAD * random.Random(f"{seed}:{name}").uniform(-1, 1)
        node = out
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = factor * node.get(path[-1], default)
    return out


def prepare_configs(root: Path, workload: str, seed: int,
                    out_dir: Path) -> dict:
    """Config name -> (config path, run seed).

    Seed 0 points at the shipped file and its own seed; other seeds write
    the perturbed config under ``out_dir``.
    """
    runs = {}
    for name in WORKLOADS[workload]:
        shipped = root / "configs" / f"{name}.json"
        cfg = json.loads(shipped.read_text(encoding="utf-8"))
        run_seed = int(cfg.get("seed", 0)) + seed
        if seed == 0:
            runs[name] = (shipped, run_seed)
            continue
        target = out_dir / f"{name}.json"
        target.write_text(json.dumps(perturbed_config(cfg, name, seed),
                                     indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
        runs[name] = (target, run_seed)
    return runs
