"""Config-driven runs: artifacts, determinism, exit codes, the version and the
acceptance script."""

import dataclasses
import hashlib
import importlib.util
import inspect
import json
import math
import os
import re
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import semiper
from semiper import cli
from semiper.errors import ConfigError, KernelObstruction, SingularMonodromy
from semiper.forcing import FourierForcing
from semiper.models import DampingProfile


def run_config(name, out_dir, config_dir, **kwargs):
    return cli.run(config_dir / name, out_dir=out_dir, **kwargs)


def tiny_decay_config(tmp_path):
    cfg = {
        "task": "decay_scan",
        "label": "small decay scan",
        "model": {"builder": "damped_wave_interval",
                  "params": {"n": 12, "length": 1.0},
                  "damping": {"kind": "constant", "amplitude": 1.0}},
        "scan": {"alpha": 1.0,
                 "t_grid": {"start": 0.5, "stop": 20.0, "num": 12,
                            "spacing": "log"},
                 "t_window": [2.0, 20.0]},
    }
    path = tmp_path / "tiny_decay.json"
    path.write_text(json.dumps(cfg))
    return path


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def test_run_writes_manifest_and_hashed_outputs(tmp_path, config_dir):
    manifest = run_config("scalar_oracle.json", tmp_path, config_dir)
    assert (tmp_path / "manifest.json").exists()
    assert manifest.outputs
    for entry in manifest.outputs:
        path = tmp_path / entry["name"]
        data = path.read_bytes()
        assert len(data) == entry["bytes"]
        assert hashlib.sha256(data).hexdigest() == entry["sha256"]
    on_disk = json.loads((tmp_path / "manifest.json").read_text())
    assert on_disk["task"] == manifest.task
    assert on_disk["config_sha256"] == manifest.config_sha256


def test_csv_header_units_and_full_precision(tmp_path, config_dir):
    run_config("convergence.json", tmp_path, config_dir)
    csvs = sorted(tmp_path.glob("*.csv"))
    assert csvs
    for path in csvs:
        lines = path.read_text().strip().splitlines()
        assert all("[" in col and col.endswith("]")
                   for col in lines[0].split(","))
        for line in lines[1:3]:
            for tok in line.split(","):
                # .17g formatting is idempotent, so full precision survives
                assert format(float(tok), ".17g") == tok


def test_read_csv_inverts_emit(tmp_path):
    ctx = cli.RunContext(tmp_path, seed=0)
    rows = [[1.0, np.pi], [2.0, np.exp(1) * 1e-7]]
    ctx.emit_csv("table.csv", [("t", "s"), ("value", "1")], rows)
    names, data = cli.read_csv(tmp_path / "table.csv")
    assert names == ["t", "value"]
    assert_allclose(data, rows, rtol=0, atol=0)


def test_json_outputs_have_stable_key_order(tmp_path, config_dir):
    run_config("scalar_oracle.json", tmp_path, config_dir)
    for path in tmp_path.glob("*.json"):
        text = path.read_text()
        payload = json.loads(text)
        assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == text


def test_plot_script_emitted(tmp_path):
    cfg = tiny_decay_config(tmp_path)
    out = tmp_path / "out"
    cli.run(cfg, out_dir=out)
    scripts = list(out.glob("*.gp"))
    assert len(scripts) == 1
    text = scripts[0].read_text()
    assert text.startswith("# gnuplot script generated by semiper run")
    assert "plot '" in text
    assert "set datafile separator" in text


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_same_config_and_seed_byte_identical(tmp_path, config_dir):
    m1 = run_config("convergence.json", tmp_path / "a", config_dir)
    m2 = run_config("convergence.json", tmp_path / "b", config_dir)
    names = [e["name"] for e in m1.outputs]
    assert names == [e["name"] for e in m2.outputs]
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    assert [e["sha256"] for e in m1.outputs] == \
        [e["sha256"] for e in m2.outputs]


def test_seed_override_changes_sampled_outputs(tmp_path, config_dir):
    m1 = run_config("convergence.json", tmp_path / "a", config_dir)
    m2 = run_config("convergence.json", tmp_path / "b", config_dir, seed=99)
    assert m2.seed == 99
    h1 = {e["name"]: e["sha256"] for e in m1.outputs}
    h2 = {e["name"]: e["sha256"] for e in m2.outputs}
    assert any(h1[name] != h2[name] for name in h1)


def test_all_methods_take_the_class_norms_once(tmp_path, config_dir, monkeypatch):
    """Each solver's report reads the forcing's W^{k,1} norm; with
    ``"method": "all"`` the three reports share one quadrature of it, so the
    run evaluates as many norms as a single direct solve does."""
    calls = []
    norms_at = FourierForcing.norms_at

    def counted(self, ts, deriv=0):
        calls.append(deriv)
        return norms_at(self, ts, deriv)
    monkeypatch.setattr(FourierForcing, "norms_at", counted)
    counts = {}
    for method in ("all", "direct"):
        calls.clear()
        assert run_edited(tmp_path, config_dir, "interval_periodic.json",
                          _set("solver", "method", method)) == 0
        counts[method] = list(calls)
    assert counts["all"] == counts["direct"] == list(range(len(counts["all"])))
    assert len(counts["all"]) >= 2


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_cross_field_checks():
    cfg = {
        "task": "decay_scan",
        "model": {"builder": "damped_wave_interval",
                  "params": {"n": 12, "length": 1.0},
                  "damping": {"kind": "constant", "amplitude": 1.0}},
        "scan": {"alpha": 1.0},
    }
    with pytest.raises(ValueError, match="t_grid"):
        cli.validate_config(cfg)


def test_schema_rejects_unknown_fields():
    cfg = {"task": "decay_scan", "mystery": 1}
    with pytest.raises(ConfigError):
        cli.validate_config(cfg)
    # every forcing a config can build is Fourier data, so no quadrature knobs
    cfg = {"task": "boundary_solve", "solver": {"n_periods": 2, "panels": 64}}
    with pytest.raises(ConfigError, match="panels"):
        cli.validate_config(cfg)


def _schema_properties(node):
    """Every property name the schema declares, at any depth."""
    if isinstance(node, dict):
        for name, sub in node.items():
            if name == "properties":
                yield from sub
            yield from _schema_properties(sub)
    elif isinstance(node, list):
        for sub in node:
            yield from _schema_properties(sub)


def test_every_schema_property_is_read():
    """A key the schema accepts is read by the CLI (as a quoted key) or is a
    damping profile field; a key nothing reads would be silently ignored."""
    source = inspect.getsource(cli)
    fields = {f.name for f in dataclasses.fields(DampingProfile)}
    unread = sorted(name for name in set(_schema_properties(cli.load_schema()))
                    if f'"{name}"' not in source and name not in fields)
    assert unread == []


def _enum_values(schema):
    """(field, value) for every value of the tasks, solver methods, kinds and
    builders the schema declares."""
    defs = schema["definitions"]
    enums = {"task": schema["properties"]["task"],
             "solver.method": defs["solver"]["properties"]["method"],
             "profile.kind": defs["profile"]["properties"]["kind"],
             "forcing.kind": defs["forcing"]["properties"]["kind"],
             "damping.kind": defs["damping"]["properties"]["kind"],
             "model.builder": defs["model"]["properties"]["builder"]}
    return {(name, value) for name, node in enums.items() for value in node["enum"]}


# config section -> the schema enum its "kind" is drawn from
_KIND_FIELDS = {"profile": "profile.kind", "forcing": "forcing.kind",
                "damping": "damping.kind", "control_damping": "damping.kind"}
# key -> the schema enum its value is drawn from, wherever it is set
_ENUM_KEYS = {"task": "task", "method": "solver.method", "builder": "model.builder"}


def _config_values(node, field=None):
    """(field, value) for every task, solver method, kind and builder a
    config sets."""
    if isinstance(node, list):
        for sub in node:
            yield from _config_values(sub, field)
    elif isinstance(node, dict):
        for key in _ENUM_KEYS.keys() & node.keys():
            yield (_ENUM_KEYS[key], node[key])
        if "kind" in node and field is not None:
            yield (field, node["kind"])
        for key, sub in node.items():
            yield from _config_values(sub, _KIND_FIELDS.get(key, field))


# enum values that no shipped config sets, each with the test that runs it
# (none today)
ENUM_VALUES_RUN_BY_TESTS = {}


def test_every_enum_value_is_run(config_dir):
    """Each task, solver method, profile, forcing and damping kind and
    model builder the schema accepts is set by a shipped config or run by a
    named test, so a value with no user cannot be added back unnoticed."""
    used = {pair for path in config_dir.glob("*.json")
            for pair in _config_values(json.loads(path.read_text()))}
    assert all(name in globals() for name in ENUM_VALUES_RUN_BY_TESTS.values())
    unused = sorted(_enum_values(cli.load_schema()) - used
                    - set(ENUM_VALUES_RUN_BY_TESTS))
    assert unused == []


def test_schema_is_valid_draft07():
    """Runs validate configs without checking the schema itself, so check it
    here, once."""
    import jsonschema

    jsonschema.Draft7Validator.check_schema(cli.load_schema())


@pytest.mark.parametrize("harmonic", [0, 2])
def test_fourier_component_samples_its_signal(harmonic):
    """A component of harmonic k and amplitude a samples to a cos(w t)."""
    T, a = 1.5, 2.0
    bundle = cli.build_bundle({"model": {"builder": "scalar", "params": {"lam": -1.0}}})
    fspec = {"kind": "fourier", "period": T,
             "components": [{"harmonic": harmonic, "amplitude": a,
                             "profile": {"kind": "ones"}}]}
    f = cli.build_forcing(bundle, fspec)
    ts = np.linspace(0.0, T, 13)
    got = f.eval_many(ts)[:, 0]
    assert_allclose(got, a * np.cos(2 * np.pi * harmonic / T * ts), rtol=0, atol=1e-14)
    assert np.max(np.abs(got.imag)) <= 1e-14


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_main_success_exit_zero(tmp_path, config_dir, capsys):
    code = cli.main(["run", "--config", str(config_dir / "scalar_oracle.json"),
                     "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "wrote" in captured.out
    assert captured.err == ""


def test_main_missing_config_exit_two(tmp_path, capsys):
    code = cli.main(["run", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_main_malformed_json_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code = cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_main_schema_violation_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"label": "no task field"}))
    code = cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("value, literal", [(math.nan, "NaN"), (math.inf, "Infinity"),
                                            (-math.inf, "-Infinity")])
@pytest.mark.parametrize("config, path", [
    ("interp_interval_half.json", ("model", "damping", "width")),
    ("interval_periodic.json", ("forcing", "period")),
    ("picard_cubic.json", ("model", "params", "length")),
], ids=["damping_width", "forcing_period", "free_params"])
def test_main_non_finite_number_exit_two(tmp_path, config_dir, capsys, config, path,
                                         value, literal):
    """Python's json reads NaN, Infinity and -Infinity, which JSON does not
    have and which pass every schema bound (NaN < 0 is False) or no bound at
    all (model.params); the run refuses them and names the literal."""
    def edit(cfg):
        _walk(cfg, path[:-1])[path[-1]] = value
    assert run_edited(tmp_path, config_dir, config, edit) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"holds {literal}," in err


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("config, path, where", [
    ("interp_interval_half.json", ("model", "damping", "width"),
     "config.model.damping.width"),
    ("interval_periodic.json", ("forcing", "period"), "config.forcing.period"),
    ("picard_cubic.json", ("picard", "amplitudes", 2), "config.picard.amplitudes[2]"),
], ids=["damping_width", "forcing_period", "list_item"])
def test_validate_config_refuses_non_finite_numbers(config_dir, config, path, where,
                                                   value):
    """A config built in memory skips run's parse hook; validate_config
    itself refuses a non-finite number and names where it sits."""
    cfg = json.loads((config_dir / config).read_text())
    _walk(cfg, path[:-1])[path[-1]] = value
    with pytest.raises(ConfigError, match=re.escape(f"{where}: {value!r} is not finite")):
        cli.validate_config(cfg)


def test_main_picard_gauss_order_exit_two(tmp_path, config_dir, capsys):
    """Picard no longer steps with a Gauss rule, so its order is an unknown key."""
    cfg = json.loads((config_dir / "picard_cubic.json").read_text())
    cfg["picard"]["gauss_order"] = 8
    bad = tmp_path / "picard_gauss.json"
    bad.write_text(json.dumps(cfg))
    code = cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "gauss_order" in err


@pytest.mark.parametrize("config, section, key, value, unexpected", [
    ("scalar_oracle.json", None, "outputs", {}, "outputs"),
    ("scalar_oracle.json", "outputs", "prefix", "run_", "outputs"),
    ("interval_periodic.json", "solver", "tol", 1e-12, "tol"),
    ("interval_periodic.json", "solver", "max_terms", 100000, "max_terms"),
    ("convergence.json", "solver", "n_vectors", 5, "n_vectors"),
    ("interp_interval_half.json", "scan", "extension_factor", 1.5, "extension_factor"),
    ("gain_interval.json", "scan", "gain_orders", [1, 2, 3], "gain_orders"),
    ("resonance_concentration.json", "concentration", "extra_degrees", 60,
     "extra_degrees"),
    ("picard_cubic.json", "picard", "n_nodes", 64, "n_nodes"),
    ("picard_cubic.json", "picard", "max_iter", 30, "max_iter"),
])
def test_main_removed_key_exit_two(tmp_path, config_dir, capsys, config, section,
                                   key, value, unexpected):
    """Keys that only ever held one value are fixed in the code now, so a
    config that sets one, even to that value, is refused with the key named."""
    cfg = json.loads((config_dir / config).read_text())
    (cfg if section is None else cfg.setdefault(section, {}))[key] = value
    bad = tmp_path / f"removed_{key}.json"
    bad.write_text(json.dumps(cfg))
    code = cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"'{unexpected}' was unexpected" in err


def run_edited(tmp_path, config_dir, config, edit):
    """Exit code of ``main`` on a shipped config changed by ``edit(cfg)``."""
    cfg = json.loads((config_dir / config).read_text())
    edit(cfg)
    path = tmp_path / f"edited_{config}"
    path.write_text(json.dumps(cfg))
    return cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])


def _walk(cfg, path):
    for step in path:
        cfg = cfg[step]
    return cfg


def _set(*path_and_value):
    """An edit that sets the value at a key path."""
    *path, key, value = path_and_value

    def edit(cfg):
        _walk(cfg, path)[key] = value
    return edit


def _drop(*path):
    """An edit that deletes the key at a key path."""
    def edit(cfg):
        del _walk(cfg, path[:-1])[path[-1]]
    return edit


def _add(*path_and_values):
    """An edit that sets several keys of the section at a key path."""
    *path, values = path_and_values

    def edit(cfg):
        _walk(cfg, path).update(values)
    return edit


def names_key(err, key):
    """The message quotes ``key`` or ends a dotted path with it."""
    return re.search(rf"['.]{re.escape(key)}\b", err) is not None


def cases(*rows):
    """Parameter sets (config, edit, named), each with the id config-named."""
    return [pytest.param(*row, id=f"{row[0][:-5]}-{row[2]}") for row in rows]


@pytest.mark.parametrize("config, edit, named", cases(
    *[("convergence.json", _set("forcing", "profile", "kind", kind), kind)
      for kind in ("zeros", "basis", "values", "cosine_mode", "equatorial",
                   "random", "sum")],
    *[("interval_periodic.json", _set("forcing", "profile", key, value), key)
      for key, value in (("amplitude", 2.0), ("index", 1), ("values", [1.0]),
                         ("terms", []))],
    ("circle_kernel.json", _set("forcing", "components", 1, "form", "cosine"), "form"),
    ("circle_kernel.json", _set("forcing", "components", 1, "phase", 0.0), "phase"),
    ("boundary_wave.json", _set("forcing", "signal", "sin_squared"), "signal"),
    ("boundary_wave.json", _set("forcing", "harmonic", 0), "harmonic"),
    ("interp_interval_half.json", _set("model", "damping", "kind", "power"), "power"),
    ("interp_interval_half.json", _set("model", "damping", "exponent", 2.0), "exponent"),
    ("scalar_oracle.json", _set("model", "builder", "diagonal"), "diagonal"),
    ("circle_spectrum.json", _set("model", "params", "length", 6.0), "length"),
    ("picard_cubic.json", _set("picard", "structure", "wave"), "structure"),
    *[("bt_heatwave.json", _set("task", task), task)
      for task in ("resolvent_scan", "mlog_bound")],
    *[("interval_periodic.json", _set("solver", "method", method), method)
      for method in ("series", "harmonic_balance")],
    ("resonance_growth.json", _set("growth", "j", 10), "j"),
))
def test_main_removed_kind_or_key_exit_two(tmp_path, config_dir, capsys, config,
                                           edit, named):
    """Tasks, methods, kinds and keys that no config used are gone; a config
    that sets one, even to its old default, is refused and it is named."""
    assert run_edited(tmp_path, config_dir, config, edit) == 2
    err = capsys.readouterr().err
    assert "config error" in err and names_key(err, named)


@pytest.mark.parametrize("config, edit, named", cases(
    ("picard_cubic.json", _drop("picard"), "picard"),
    ("interp_interval_half.json", _drop("scan", "alpha"), "alpha"),
    ("heatwave_decay.json", _drop("scan", "t_grid"), "t_grid"),
    ("bt_heatwave.json", _drop("scan", "eta_grid"), "eta_grid"),
    ("resonance_growth.json", _drop("model", "params", "m"), "m"),
    ("heatwave_decay.json", _drop("model", "params", "n_heat"), "n_heat"),
    ("interval_periodic.json", _drop("forcing", "period"), "period"),
    ("interval_periodic.json", _drop("forcing", "profile"), "profile"),
    ("interval_periodic.json", _set("model", "params", "lenght", 2.0), "lenght"),
    ("scalar_oracle.json", _set("model", "params", "n", 3), "n"),
    *[(config, _set("model", "damping", {"kind": "constant", "amplitude": 5.0}),
       "damping")
      for config in ("scalar_oracle.json", "heatwave_decay.json",
                     "bt_synthetic_alpha1.json")],
    ("resonance_growth.json", _drop("model", "damping"), "damping"),
    ("resonance_concentration.json", _set("model", "builder", "scalar"), "builder"),
    ("resonance_concentration.json", _set("model", "params", {"m": 10}), "params"),
    ("boundary_wave.json", _drop("forcing", "periods"), "periods"),
    ("boundary_wave.json", _set("forcing", "period", 1.0), "period"),
    ("interval_periodic.json", _add("forcing", {"periods": [5.0], "components": []}),
     "periods"),
    ("bt_synthetic_alpha1.json", _set("forcing", {"kind": "fourier", "period": 1.0}),
     "forcing"),
    ("invariants.json", _set("model", {"builder": "scalar", "params": {"lam": 3.0}}),
     "model"),
    ("gain_interval.json", _set("solver", {"n_periods": 2}), "solver"),
    ("scalar_oracle.json", _set("forcing", "amplitude", 2.0), "amplitude"),
    ("boundary_wave.json", _set("forcing", "order", 2), "order"),
    ("convergence.json", _set("solver", "method", "all"), "method"),
    ("heatwave_decay.json", _set("scan", "eta_window", [1.0, 10.0]), "eta_window"),
))
def test_main_missing_or_misspelt_key_exit_two(tmp_path, config_dir, capsys, config,
                                               edit, named):
    """A required key left out, or a section or key that the task, builder
    or forcing kind does not read (damping on an undamped builder, params
    on the concentration model, a single period on a boundary signal,
    periods on a bump forcing, a forcing on a scan), is a config error that
    names it, not a KeyError or a silent default."""
    assert run_edited(tmp_path, config_dir, config, edit) == 2
    err = capsys.readouterr().err
    assert "config error" in err and names_key(err, named)


@pytest.mark.parametrize("edit, message", [
    (_set("scan", "t_grid", "num", 1), "is less than the minimum of 2"),
    (_set("scan", "eta_grid", "start", 0.0), "log-spaced scan.eta_grid needs start > 0"),
    (_set("scan", "t_grid", "stop", 0.5), "scan.t_grid needs stop > start"),
], ids=["num", "log_start", "stop"])
def test_main_bad_scan_grid_exit_two(tmp_path, config_dir, capsys, edit, message):
    """A grid of fewer than 2 points is refused by the schema; the log start
    and the order of start and stop by validate_config."""
    assert run_edited(tmp_path, config_dir, "bt_synthetic_alpha1.json", edit) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err


def test_main_boundary_signal_outside_boundary_solve_exit_two(tmp_path, config_dir,
                                                              capsys):
    """A boundary signal drives the boundary inputs, which only
    boundary_solve reads."""
    assert run_edited(tmp_path, config_dir, "boundary_wave.json",
                      _set("task", "periodic_solve")) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "boundary_signal forcing drives the boundary_solve task only" in err


def test_main_growth_control_needs_no_backward_bound(tmp_path, config_dir):
    """The control block is only driven forward, so a strongly damped control,
    whose backward orbit grows far past 1e6, still runs."""
    assert run_edited(tmp_path, config_dir, "resonance_growth.json",
                      _set("growth", "control_damping", "amplitude", 3.0)) == 0


def test_main_picard_wave_structure_on_modal_model_exit_two(tmp_path, capsys):
    """A scalar model has no displacement or velocity block for g to act on."""
    cfg = {"task": "picard",
           "model": {"builder": "scalar", "params": {"lam": -1.0}},
           "forcing": {"kind": "fourier", "period": 1.0,
                       "components": [{"harmonic": 1, "amplitude": 0.1,
                                       "profile": {"kind": "ones"}}]},
           "picard": {"powers": [3], "coefficients": [-0.05]}}
    bad = tmp_path / "picard_modal.json"
    bad.write_text(json.dumps(cfg))
    code = cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "displacement and velocity" in err


def test_main_kernel_obstruction_exit_three(tmp_path, config_dir, capsys):
    code = cli.main(["run",
                     "--config", str(config_dir / "circle_obstruction.json"),
                     "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 3
    assert "error: semiper.errors.KernelObstruction" in captured.err


# ---------------------------------------------------------------------------
# version and the acceptance script
# ---------------------------------------------------------------------------

def test_one_version(config_dir):
    tomllib = pytest.importorskip("tomllib")
    with open(config_dir.parent / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert semiper.__version__ == cli.__version__ == project["version"]


def load_script(repo_root, stem="run_all_acceptance"):
    path = repo_root / "scripts" / f"{stem}.py"
    spec = importlib.util.spec_from_file_location(stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("obstruction_error, unexpected", [
    (KernelObstruction, 1),       # only the crash
    (SingularMonodromy, 2),       # the crash and the wrong kind of failure
])
def test_acceptance_script_reports_every_config(tmp_path, config_dir, monkeypatch,
                                                capsys, obstruction_error, unexpected):
    """A crash in one config is a table row; only KernelObstruction is expected."""
    script = load_script(config_dir.parent)
    for stem in ("a_crashes", "b_passes", "circle_obstruction"):
        (tmp_path / f"{stem}.json").write_text("{}")

    def fake_run(cfg, out_dir):
        if cfg.stem == "a_crashes":
            raise RuntimeError("boom")
        if cfg.stem == "circle_obstruction":
            raise obstruction_error("pumped")
        return SimpleNamespace(outputs=["x.csv"])

    monkeypatch.setattr(script, "run", fake_run)
    monkeypatch.setattr(sys, "argv", ["run_all_acceptance.py", "--configs",
                                      str(tmp_path), "--out", str(tmp_path / "out")])
    assert script.main() == 1
    rows = capsys.readouterr().out.splitlines()
    assert "FAIL    RuntimeError: boom" in rows[0]
    assert "ok       1 files" in rows[1]
    if obstruction_error is KernelObstruction:
        assert "ok (expected failure: KernelObstruction)" in rows[2]
    else:
        assert "FAIL    SingularMonodromy: pumped" in rows[2]
    assert rows[-1] == f"3 configs, {unexpected} unexpected outcomes"


@pytest.mark.parametrize("lazy", [None, "scipy._lazy_in_run", "numpy._lazy_in_run"])
def test_acceptance_script_refuses_modules_loaded_by_runs(tmp_path, config_dir, monkeypatch,
                                                          capsys, lazy):
    """A numpy or scipy module that first loads inside a run fails the script
    and is named; runs that load nothing new pass."""
    script = load_script(config_dir.parent)
    (tmp_path / "only.json").write_text("{}")

    def fake_run(cfg, out_dir):
        if lazy is not None:
            monkeypatch.setitem(sys.modules, lazy, SimpleNamespace())
        return SimpleNamespace(outputs=["x.csv"])

    monkeypatch.setattr(script, "run", fake_run)
    monkeypatch.setattr(sys, "argv", ["run_all_acceptance.py", "--configs",
                                      str(tmp_path), "--out", str(tmp_path / "out")])
    assert script.main() == (0 if lazy is None else 1)
    last = capsys.readouterr().out.splitlines()[-1]
    if lazy is None:
        assert last == "1 configs, 0 unexpected outcomes"
    else:
        assert last == f"runs loaded modules the imports did not: {lazy}"


def _artifact_tree(root, csv_x, json_w, flag, extra=()):
    """A small run_all_acceptance-style output tree."""
    run = root / "cfg"
    run.mkdir(parents=True)
    (run / "data.csv").write_text(f"n [1],x [X]\n1,1\n2,{csv_x!r}\n")
    (run / "same.csv").write_text("n [1]\n1\n")
    (run / "out.json").write_text(json.dumps(
        {"w": [[1.0, 0.0], [json_w, float("nan")]], "flag": flag, "label": "x"}))
    (run / "manifest.json").write_text(json.dumps({"wall_clock": str(root)}))
    for name in extra:
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text("{}")
    return root


def test_compare_artifacts_reports_each_changed_column(tmp_path, config_dir,
                                                       monkeypatch, capsys):
    """Each changed CSV column and JSON array is one line with its change
    relative to the array's largest entry; identical files, manifests and
    matching NaNs are quiet, and a file in one tree only is named."""
    script = load_script(config_dir.parent, "compare_artifacts")
    a = _artifact_tree(tmp_path / "a", 2.0, -4.0, True, extra=["other/only.json"])
    b = _artifact_tree(tmp_path / "b", 2.002, -4.004, False)
    monkeypatch.setattr(sys, "argv", ["compare_artifacts.py", str(a), str(b)])
    assert script.main() == 1
    assert capsys.readouterr().out.splitlines() == [
        "cfg/data.csv  x [X]  rel 1.00e-03  abs 2.00e-03",
        "cfg/out.json  flag  changed",
        "cfg/out.json  w  rel 1.00e-03  abs 4.00e-03",
        "other/only.json  only in A",
        "3 files differ",
    ]
    monkeypatch.setattr(sys, "argv", ["compare_artifacts.py", str(a), str(a)])
    assert script.main() == 0
    assert capsys.readouterr().out.splitlines() == ["no differences"]


def test_fit_window_scan_prints_every_window(config_dir, monkeypatch, capsys):
    """Windows whose fit falls below the default r^2 floor print their r^2
    instead of stopping the sweep."""
    script = load_script(config_dir.parent, "fit_window_scan")
    monkeypatch.setattr(sys, "argv", ["fit_window_scan.py", "--config",
                                      str(config_dir / "bt_heatwave.json")])
    script.main()
    decay, resolvent = capsys.readouterr().out.split("# resolvent windows")
    for table in (decay, resolvent):
        rows = [line.split() for line in table.splitlines()[2:] if line]
        assert len(rows) == 15
        assert all(len(row) == 4 for row in rows)


def test_bench_configs_writes_a_ledger_row_per_config(config_dir, tmp_path, monkeypatch):
    """Each config's median over fresh children, its outcome (an expected
    failure names its error), the total of each round (a drift of the
    machine shows there) and the environment the times belong to."""
    configs = tmp_path / "configs"
    configs.mkdir()
    for name in ("scalar_oracle", "circle_obstruction"):
        shutil.copy(config_dir / f"{name}.json", configs)
    out = tmp_path / "BENCH_configs.json"
    script_path = config_dir.parent / "scripts" / "bench_configs.py"
    stdout = subprocess.run([sys.executable, str(script_path),
                             "--configs", str(configs), "--out", str(out)],
                            capture_output=True, text=True, check=True).stdout
    ledger = json.loads(out.read_text())
    rows = ledger["configs"]
    assert sorted(rows) == ["circle_obstruction", "scalar_oracle"]
    assert rows["scalar_oracle"]["outcome"] == "ok"
    assert rows["circle_obstruction"]["outcome"] == "KernelObstruction"
    for row in rows.values():
        assert 0 < row["min_s"] <= row["median_s"] <= row["max_s"]
    totals = ledger["round_totals_s"]
    assert len(totals) == ledger["runs_per_config"] == 5
    for total in totals:
        assert sum(r["min_s"] for r in rows.values()) <= total + 2e-6
        assert total <= sum(r["max_s"] for r in rows.values()) + 2e-6
    assert "round totals" in stdout
    # each round's total is the sum of that round's run_s over the configs
    monkeypatch.setattr(sys, "path", list(sys.path))    # the script adds perfbench/
    try:
        script = load_script(config_dir.parent, "bench_configs")
        runs = {"a": [{"run_s": 0.25}, {"run_s": 0.5}], "b": [{"run_s": 0.125}, {"run_s": 1.0}]}
        assert script.ledger(runs, {})["round_totals_s"] == [0.375, 1.5]
    finally:
        sys.modules.pop("run", None)                     # perfbench/run.py
    env = ledger["environment"]
    assert env["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    for key in ("machine", "cpu", "nproc", "blas_name", "blas_version", "numpy"):
        assert env[key]


def test_bench_configs_refuses_runs_that_end_differently(config_dir, monkeypatch):
    """A median over a full run and an early exit on an error means nothing."""
    monkeypatch.setattr(sys, "path", list(sys.path))    # the script adds perfbench/
    try:
        script = load_script(config_dir.parent, "bench_configs")
        runs = [{"run_s": 0.2}, {"run_s": 0.01, "error": "semiper.errors.KernelObstruction"}]
        with pytest.raises(RuntimeError, match="ended differently"):
            script.ledger({"circle_kernel": runs}, {})
    finally:
        sys.modules.pop("run", None)                     # perfbench/run.py


def fresh_python(code, *args):
    """Stdout of ``code`` run in a new interpreter that sees this suite's path."""
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                         capture_output=True, text=True, check=True,
                         env=os.environ | {"PYTHONPATH": os.pathsep.join(sys.path)})
    return out.stdout.strip()


def test_cli_import_leaves_scipy_optimize_out(config_dir):
    """A run starts by importing the CLI, loading the schema and checking
    its config; none of that loads jsonschema or scipy's optimize, special
    and linalg."""
    code = ("import json, sys, semiper.cli as cli; cli.load_schema(); "
            "cli.validate_config(json.loads(open(sys.argv[1]).read())); "
            "print(*(name in sys.modules for name in "
            "('jsonschema', 'scipy.optimize', 'scipy.special', 'scipy.linalg')))")
    assert (fresh_python(code, config_dir / "interval_periodic.json")
            == "False False False False")


def test_runs_load_no_module_beyond_the_import(config_dir, tmp_path):
    """Configs covering every layer (scalar periodic solve, resolvent and
    decay scans, kernel deflation, Picard, resonance) import nothing that
    ``import semiper.cli`` did not, so no lazy import lands in a run."""
    code = """
import sys
from pathlib import Path
import semiper.cli
config_dir, out = Path(sys.argv[1]), Path(sys.argv[2])
before = set(sys.modules)
for name in ("scalar_oracle", "bt_synthetic_alpha1", "circle_kernel",
             "picard_cubic", "resonance_detuned"):
    semiper.cli.run(config_dir / f"{name}.json", out_dir=out / name)
print(sorted(set(sys.modules) - before))
"""
    assert fresh_python(code, config_dir, tmp_path) == "[]"


def test_expm_fallback_loads_scipy_linalg_on_demand():
    """propagator_matrix on a generator with cond(V) > 1e8 imports
    scipy.linalg only when it takes the fallback, and returns expm's matrix."""
    code = """
import sys
import numpy as np
from semiper.operator_core import EIG_COND_LIMIT, build_model, make_state_space, propagator_matrix
A = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0 - 1e-10, 0.5], [0.0, 0.0, -2.0]])
model = build_model(make_state_space(3, np.diag([1.0, 2.0, 0.5])), A)
assert model.eig[3] > EIG_COND_LIMIT
before = 'scipy.linalg' in sys.modules
P = propagator_matrix(model, 0.7)
after = 'scipy.linalg' in sys.modules
import scipy.linalg
print(before, after, np.array_equal(P, scipy.linalg.expm(model.A * 0.7)))
"""
    assert fresh_python(code) == "False True True"
