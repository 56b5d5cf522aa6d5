"""Gates on the models the shipped configs build.

Each property holds exactly in the continuum and, by construction of the
discretizations, up to round-off in the lab, so each is gated at a fixed
multiple of the machine epsilon:

* the generator is dissipative in its Gram (Lumer & Phillips, Pacific
  J. Math. 11, 1961; Pazy 1983, section 1.4): the Hermitian part of the
  weighted generator W has no eigenvalue above 1e3 eps |W|_2,
* so every decay envelope is a contraction, h_alpha(t) <= 1 + 64 eps,
* on the normal diagonal synthetic models the scans have closed forms:
  h_1(t) = max_k e^{-k^-alpha t} / sqrt(1 + |lambda_k|^2) and
  |R(i eta)| = 1 / min_k |i eta - lambda_k|, lambda_k = -k^-alpha + i k.
"""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from semiper import cli
from semiper.stability_lab import decay_envelope, resolvent_scan

from conftest import CONFIG_DIR

EPS = np.finfo(float).eps
CONFIGS = {path.stem: json.loads(path.read_text())
           for path in sorted(CONFIG_DIR.glob("*.json"))}
MODEL_CONFIGS = sorted(name for name, cfg in CONFIGS.items()
                       if cfg["task"] not in cli._NO_MODEL_TASKS)
SCAN_CONFIGS = sorted(name for name, cfg in CONFIGS.items()
                      if "t_grid" in cfg.get("scan", {}))


def _config_model(name):
    return cli.build_bundle(CONFIGS[name]).model


def _assert_dissipative(model):
    W = model.weighted_generator
    top = np.linalg.eigvalsh(0.5 * (W + W.conj().T))[-1]
    assert top <= 1e3 * EPS * np.linalg.norm(W, 2)


@pytest.mark.parametrize("name", MODEL_CONFIGS)
def test_config_model_is_dissipative(name):
    _assert_dissipative(_config_model(name))


def test_invariant_models_are_dissipative():
    for _, model in cli._invariant_models():
        _assert_dissipative(model)


@pytest.mark.parametrize("name", SCAN_CONFIGS)
def test_decay_envelope_is_a_contraction(name):
    scan = CONFIGS[name]["scan"]
    h = decay_envelope(_config_model(name), scan.get("alpha", 1.0),
                       cli._grid(scan["t_grid"]))
    assert h.values.max() <= 1.0 + 64 * EPS


@pytest.mark.parametrize("name", ["bt_synthetic_alpha1", "bt_synthetic_alpha2"])
def test_synthetic_scans_match_their_closed_forms(name):
    cfg = CONFIGS[name]
    params = cfg["model"]["params"]
    k = np.arange(1, params["n_modes"] + 1)
    lam = -(k ** -float(params["alpha"])) + 1j * k
    model = _config_model(name)

    t = cli._grid(cfg["scan"]["t_grid"])
    h = decay_envelope(model, 1.0, t).values
    exact = np.max(np.exp(np.outer(t, lam.real)) / np.sqrt(1.0 + np.abs(lam) ** 2),
                   axis=1)
    assert_allclose(h, exact, rtol=64 * EPS, atol=0)

    r = resolvent_scan(model, cli._grid(cfg["scan"]["eta_grid"]))
    exact = 1.0 / np.min(np.abs(1j * r.abscissae[:, None] - lam), axis=1)
    assert_allclose(r.values, exact, rtol=64 * EPS, atol=0)
