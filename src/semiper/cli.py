"""Command-line front end: JSON experiment configs in, CSV/JSON artifacts out.

``semiper run --config cfg.json [--out DIR] [--seed N]``
validates the config against the shipped JSON schema, builds the model,
runs the requested task and writes its results as CSV tables (17
significant digits, header row with units), JSON reports (stable key
order) and gnuplot scripts, plus a manifest listing every emitted file
with size and content hash. Identical config + seed gives byte-identical
result files.

Exit codes: 0 success, 2 config validation failure, 3 a named solver
error (the module-qualified error name is echoed on stderr).
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import sys
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np
# numpy loads submodules on first attribute access; every run draws a
# Generator, so load numpy.random with the package rather than mid-run
import numpy.random
import scipy

from . import __version__
from .errors import ConfigError, IoError, SemiperError
from .forcing import (
    FourierForcing,
    duhamel_FT,
    endpoint_defect,
    make_fourier_forcing,
    per0_bump_forcing,
)
from .models import (
    DampingProfile,
    SphereBlockModel,
    build_boundary_forced_wave,
    build_damped_wave_circle,
    build_damped_wave_interval,
    build_diagonal_model,
    build_heat_wave_1d,
    build_scalar_model,
    build_sphere_schrodinger,
    build_synthetic_resolvent_model,
)
from .operator_core import (
    contour_spectral_projector,
    fractional_power,
    propagator_matrix,
    spectrum_report,
)
from .periodic_solver import (
    boundary_periodic_solve,
    convergence_gap,
    periodic_w0_direct,
    periodic_w0_harmonic_balance,
    periodic_w0_series,
    picard_divergence_threshold,
    picard_nonlinear,
)
from .resonance_lab import (
    concentration_scan,
    growth_experiment,
    orbit_norms,
    resonant_forcing,
    resonant_horizon,
    truncation_tail,
)
from .stability_lab import (
    bt_crosscheck,
    decay_envelope,
    fit_decay_exponent,
    interpolation_check,
)

_NO_MODEL_TASKS = {"concentration", "invariants"}

# The config sections each task reads besides task, label and seed, each
# with the keys it reads, True where it needs one (None: every key the
# schema allows). Every section is required but ``solver``, whose keys all
# have defaults. A section or key a task does not read is refused.
_TASK_READS = {
    "spectrum": {"model": None},
    "periodic_solve": {"model": None, "forcing": None,
                       "solver": {"method": False, "n_periods": False}},
    "convergence": {"model": None, "forcing": None, "solver": {"n_periods": False}},
    "decay_scan": {"model": None,
                   "scan": {"alpha": False, "t_grid": True, "t_window": False}},
    "bt_crosscheck": {"model": None,
                      "scan": {"t_grid": True, "eta_grid": True, "t_window": False,
                               "eta_window": False}},
    "interpolation_check": {"model": None, "scan": {"alpha": True, "t_grid": True}},
    "gain_identity": {"model": None, "forcing": None},
    "growth": {"model": None, "growth": None},
    "concentration": {"model": None, "concentration": None},
    "picard": {"model": None, "forcing": None, "picard": None},
    "boundary_solve": {"model": None, "forcing": None, "solver": {"n_periods": False}},
    "invariants": {},
}

# the keys each forcing kind reads besides ``kind``, True where it needs one
_FORCING_KEYS = {
    "fourier": {"period": True, "components": False},
    "bump": {"period": True, "profile": True, "order": False, "amplitude": False},
    "boundary_signal": {"periods": True, "amplitude": False},
}

# fixed task settings: random starts of ``convergence``, the grid stretch of
# ``interpolation_check`` and the derivative orders of ``gain_identity``
CONVERGENCE_VECTORS = 5
EXTENSION_FACTOR = 1.5
GAIN_ORDERS = (1, 2, 3)


# ---------------------------------------------------------------------------
# config loading and validation
# ---------------------------------------------------------------------------

def load_schema() -> dict:
    with resources.files("semiper").joinpath("config_schema.json").open() as fh:
        return json.load(fh)


def _refuse_constant(name: str):
    """``json.loads`` hook for the non-JSON literals NaN, Infinity and
    -Infinity, which Python's json would otherwise read as floats."""
    raise ConfigError(f"config holds {name}, which is not a JSON number; "
                      f"every number in a config must be finite")


# draft-07 type names, as tests on a JSON value; bool is neither a number
# nor an integer, and an integral float is an integer
_SCHEMA_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: ((isinstance(v, int) and not isinstance(v, bool))
                          or (isinstance(v, float) and v.is_integer())),
}


def check_schema(value, schema: dict, root: dict | None = None,
                 path: str = "config") -> None:
    """Raise ConfigError unless ``value`` meets the draft-07 ``schema``,
    which is a node of ``root`` when ``root`` is given.

    Only the keywords config_schema.json uses are read (``$schema`` and
    ``title`` are annotations): type, enum, minimum, exclusiveMinimum,
    items, minItems, maxItems, properties, required, additionalProperties
    false and ``$ref`` to ``#/definitions/<name>``. A node's own keywords
    are checked before its items and properties, and the message, after
    the path of the value in the config, is jsonschema's wording.
    """
    def fail(message):
        raise ConfigError(f"{path}: {message}")

    root = schema if root is None else root
    if "$ref" in schema:
        name = schema["$ref"].removeprefix("#/definitions/")
        return check_schema(value, root["definitions"][name], root, path)
    if "type" in schema and not _SCHEMA_TYPES[schema["type"]](value):
        fail(f"{value!r} is not of type {schema['type']!r}")
    if "enum" in schema and value not in schema["enum"]:
        fail(f"{value!r} is not one of {schema['enum']!r}")
    if _SCHEMA_TYPES["number"](value):
        if "minimum" in schema and value < schema["minimum"]:
            fail(f"{value!r} is less than the minimum of {schema['minimum']!r}")
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            fail(f"{value!r} is less than or equal to the minimum of "
                 f"{schema['exclusiveMinimum']!r}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            fail(f"{value!r} " + ("should be non-empty" if schema["minItems"] == 1
                                  else "is too short"))
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            fail(f"{value!r} is too long")
        for i, item in enumerate(value):
            check_schema(item, schema.get("items", {}), root, f"{path}[{i}]")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                fail(f"{key!r} is a required property")
        props = schema.get("properties", {})
        extra = sorted(value.keys() - props.keys())
        if extra and schema.get("additionalProperties", True) is False:
            verb = "was" if len(extra) == 1 else "were"
            fail(f"Additional properties are not allowed "
                 f"({', '.join(map(repr, extra))} {verb} unexpected)")
        for key, sub in props.items():
            if key in value:
                check_schema(value[key], sub, root, f"{path}.{key}")


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _check_keys(reader: str, section: str, given: dict, keys: dict) -> None:
    """Refuse keys that ``keys`` does not list; require those marked True."""
    unread = sorted(given.keys() - keys.keys())
    _require(not unread, f"{reader} does not read "
             + ", ".join(f"{section}.{key}" for key in unread))
    for key in sorted(k for k, needed in keys.items() if needed):
        _require(key in given, f"{reader} needs {section}.{key}")


def validate_config(cfg: dict) -> None:
    """Schema validation plus the cross-field checks the schema cannot say.

    The schema itself is checked against the draft-07 meta-schema by the
    test suite, not on every run.
    """
    check_schema(cfg, load_schema())
    task = cfg["task"]
    reads = _TASK_READS[task]
    for section in sorted(cfg.keys() - {"task", "label", "seed"}):
        _require(section in reads, f"task {task!r} does not read a {section!r} section")
        if reads[section] is not None:
            _check_keys(f"task {task!r}", section, cfg[section], reads[section])
    for section in sorted(reads.keys() - {"solver"}):
        _require(section in cfg, f"task {task!r} needs a {section!r} section")
    if task not in _NO_MODEL_TASKS:
        _check_params(cfg["model"])
    fkind = cfg.get("forcing", {}).get("kind")
    if task == "boundary_solve":
        _require(fkind == "boundary_signal",
                 "boundary_solve needs a boundary_signal forcing")
    elif fkind == "boundary_signal":
        raise ConfigError(f"a boundary_signal forcing drives the boundary_solve "
                          f"task only, not {task!r}")
    if fkind is not None:
        _check_keys(f"a {fkind} forcing", "forcing", cfg["forcing"],
                    {"kind": True, **_FORCING_KEYS[fkind]})
    if task == "growth":
        _require(cfg["model"]["builder"] == "sphere_block",
                 "growth task needs a sphere_block model")
    if task == "concentration":
        spec = cfg["model"]
        _require(spec.get("builder") == "sphere_block",
                 "concentration task needs model.builder 'sphere_block'")
        _require("params" not in spec, "concentration task builds one block per "
                 "concentration.js and takes no model.params")
        _require("damping" in spec, "concentration task needs model.damping")
    if task == "picard":
        p = cfg["picard"]
        _require(len(p["powers"]) == len(p["coefficients"]),
                 "picard powers and coefficients must have equal length")
    for key in ("t_grid", "eta_grid"):
        g = cfg.get("scan", {}).get(key)
        if g is None:
            continue
        if g.get("spacing", "linear") == "log":
            _require(g["start"] > 0, f"log-spaced scan.{key} needs start > 0")
        _require(g["stop"] > g["start"], f"scan.{key} needs stop > start")


def _grid(spec: dict) -> np.ndarray:
    if spec.get("spacing", "linear") == "log":
        return np.geomspace(spec["start"], spec["stop"], spec["num"])
    return np.linspace(spec["start"], spec["stop"], spec["num"])


# ---------------------------------------------------------------------------
# model bundles: builder dispatch
# ---------------------------------------------------------------------------

@dataclass
class ModelBundle:
    name: str
    model: object
    sphere: object = None        # SphereBlockModel when applicable


def _sphere_block(m, damping, Jmax=None, quad_nodes=None):
    m = int(m)
    return build_sphere_schrodinger(int(m + 60 if Jmax is None else Jmax), m,
                                    damping, quad_nodes=quad_nodes)


_UNIT_DAMPING = DampingProfile("constant", amplitude=1.0)

# builder name -> f(**model.params, damping=model.damping). A builder's
# keyword arguments are the params it takes, required where they have no
# default; only the builders with a ``damping`` argument take model.damping,
# and the wave builders default it to unit constant damping
_BUILDERS = {
    "scalar": lambda lam=-1.0: build_scalar_model(lam),
    "damped_wave_interval": lambda n, length=math.pi, damping=_UNIT_DAMPING:
        build_damped_wave_interval(int(n), float(length), damping),
    "boundary_wave": lambda n, length=math.pi, damping=_UNIT_DAMPING:
        build_boundary_forced_wave(int(n), float(length), damping),
    "damped_wave_circle": lambda n, damping=_UNIT_DAMPING: build_damped_wave_circle(
        int(n), damping),
    "heat_wave_1d": lambda n_heat, n_wave: build_heat_wave_1d(int(n_heat),
                                                              int(n_wave)),
    "sphere_block": _sphere_block,
    "synthetic_resolvent": lambda n_modes, alpha: build_synthetic_resolvent_model(
        int(n_modes), float(alpha)),
}


def _check_params(spec: dict) -> None:
    """model.damping is set only on a builder that takes it and always on
    one that needs it; every required param is set, and no other key is."""
    name = spec["builder"]
    declared = dict(inspect.signature(_BUILDERS[name]).parameters)
    damping = declared.pop("damping", None)
    if "damping" in spec:
        _require(damping is not None, f"builder {name!r} takes no model.damping")
    else:
        _require(damping is None or damping.default is not damping.empty,
                 f"builder {name!r} needs model.damping")
    given = spec.get("params", {})
    for p in declared.values():
        _require(p.name in given or p.default is not p.empty,
                 f"builder {name!r} needs model.params {p.name!r}")
    unknown = sorted(set(given) - set(declared))
    _require(not unknown, f"builder {name!r} takes no model.params "
                          f"{', '.join(map(repr, unknown))}; it takes "
                          f"{list(declared)}")


def build_bundle(cfg: dict) -> ModelBundle:
    spec = cfg["model"]
    name = spec["builder"]
    kwargs = dict(spec.get("params", {}))
    if "damping" in spec:
        kwargs["damping"] = DampingProfile(**spec["damping"])
    built = _BUILDERS[name](**kwargs)
    if isinstance(built, SphereBlockModel):
        return ModelBundle(name, built.model, sphere=built)
    return ModelBundle(name, built)


def _random_state(rng: np.random.Generator, n: int, complex_: bool) -> np.ndarray:
    """n standard normal draws, plus i times n more when ``complex_``."""
    x = rng.standard_normal(n)
    return x + 1j * rng.standard_normal(n) if complex_ else x


def vector_from_profile(bundle: ModelBundle, spec: dict) -> np.ndarray:
    """Build a state-space vector from a profile record in the config."""
    model = bundle.model
    out = np.zeros(model.dim, dtype=model.A.dtype)
    block_name = spec.get("block", next(iter(model.blocks)))
    _require(block_name in model.blocks,
             f"model {bundle.name!r} has no block {block_name!r}")
    sl, xi, topology = model.blocks[block_name]
    kind = spec["kind"]
    if kind == "ones":
        out[sl] = 1.0
        return out
    _require(xi is not None, f"{kind} needs a spatial block")
    if kind == "sine_mode":
        factor = 2.0 * np.pi if topology == "circle" else np.pi
        out[sl] = np.sin(factor * spec.get("mode", 1) * xi)
    elif kind == "gaussian":
        c = spec.get("center", 0.5)
        w = spec.get("width", 0.1)
        out[sl] = np.exp(-(((xi - c) / w) ** 2))
    else:
        raise ValueError(f"unknown profile kind {kind!r}")
    return out


def build_forcing(bundle: ModelBundle, fspec: dict, rng=None):
    """The ``fourier`` or ``bump`` forcing of a config.

    A Fourier component of harmonic k and amplitude a is a cos(2 pi k t / T)
    times its profile. ``rng`` is not used: no forcing a config builds
    draws random numbers. It stays for callers that still pass one.
    """
    kind = fspec["kind"]
    model = bundle.model
    if kind == "bump":
        vec = vector_from_profile(bundle, fspec["profile"])
        return per0_bump_forcing(fspec["period"], fspec.get("order", 1),
                                 fspec.get("amplitude", 1.0) * vec,
                                 space=model.space)
    if kind == "fourier":
        coeffs: dict = {}

        def add(k, v):
            coeffs[k] = coeffs.get(k, 0) + v

        for comp in fspec.get("components", []):
            k = comp["harmonic"]
            a = comp.get("amplitude", 1.0)
            vec = vector_from_profile(bundle, comp["profile"])
            if k == 0:
                add(0, a * vec)
            else:
                add(k, 0.5 * a * vec)
                add(-k, 0.5 * a * vec)
        return make_fourier_forcing(fspec["period"], coeffs, space=model.space)
    raise ValueError(f"unknown forcing kind {kind!r}")


def boundary_signal_forcing(model, amplitude: float, period: float) -> FourierForcing:
    """The boundary signal a sin^2(pi t / T) on every input, as a Fourier
    forcing on the input space."""
    _require(model.B is not None, "boundary_signal needs a model with B")
    a = amplitude * np.ones(model.B.shape[1])
    # sin^2(pi t / T) = 1/2 - cos(2 pi t / T)/2
    return make_fourier_forcing(period, {0: 0.5 * a, 1: -0.25 * a, -1: -0.25 * a})


# ---------------------------------------------------------------------------
# emission: CSV / JSON / plot scripts, with hashing for the manifest
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def _jsonable(o):
    if isinstance(o, dict):
        return {str(k): _jsonable(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [_jsonable(v) for v in o]
    if isinstance(o, np.ndarray):
        return _jsonable(o.tolist())
    if isinstance(o, (bool, np.bool_)):
        return bool(o)
    if isinstance(o, (int, np.integer)):
        return int(o)
    if isinstance(o, (float, np.floating)):
        return float(o)
    if isinstance(o, (complex, np.complexfloating)):
        return [float(o.real), float(o.imag)]
    return o


class RunContext:
    """Holds the output directory and the text of each file written so far,
    which the manifest hashes."""

    def __init__(self, out_dir: Path, seed: int):
        self.out_dir = out_dir
        self.rng = np.random.default_rng(seed)
        self.files: dict[str, str] = {}

    def _write(self, name: str, text: str) -> Path:
        path = self.out_dir / name
        try:
            path.write_text(text, encoding="utf-8")
        except OSError as e:
            raise IoError(f"cannot write {path}: {e}") from e
        self.files[name] = text
        return path

    def emit_csv(self, name: str, columns, rows):
        header = ",".join(f"{cname} [{unit}]" for cname, unit in columns)
        body = "\n".join(",".join(_fmt(v) for v in row) for row in rows)
        text = header + "\n" + (body + "\n" if body else "")
        return self._write(name, text)

    def emit_json(self, name: str, payload: dict):
        text = json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"
        return self._write(name, text)

    def emit_plot(self, name: str, lines):
        return self._write(name, "\n".join(lines) + "\n")


def read_csv(path):
    """Parse a CSV emitted by emit_csv back into (column names, array)."""
    text = Path(path).read_text().strip().splitlines()
    names = [h.split(" [")[0] for h in text[0].split(",")]
    if len(text) == 1:
        return names, np.empty((0, len(names)))
    data = np.array([[float(v) for v in line.split(",")]
                     for line in text[1:]])
    return names, data


def _gp_header(title: str) -> list:
    return [
        "# gnuplot script generated by semiper run",
        "set datafile separator ','",
        f"set title '{title}'",
        "set key left bottom",
    ]


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

def _task_spectrum(cfg, bundle, ctx):
    model = bundle.model
    rep = spectrum_report(model)
    payload = {
        "label": rep.label,
        "dim": model.dim,
        "abscissa": rep.abscissa,
        "deflated_abscissa": rep.deflated_abscissa,
        "distance_to_imaginary_axis": rep.distance_to_imaginary_axis,
        "kernel_dim": rep.kernel_dim,
        "assumptions_ok": rep.assumptions_ok,
    }
    if model.has_kernel:
        proj = contour_spectral_projector(model)
        payload["projector_gap"] = float(
            np.linalg.norm(proj - model.pi0, 2))
    ctx.emit_json("spectrum.json", payload)
    ctx.emit_csv("eigenvalues.csv",
                 [("index", "1"), ("real", "1/t"), ("imag", "1/t")],
                 [(i, ev.real, ev.imag) for i, ev in enumerate(rep.eigenvalues)])


# the solvers ``"method": "all"`` runs, as each other's oracles
_METHODS = {
    "series": periodic_w0_series,
    "direct": periodic_w0_direct,
    "harmonic_balance": periodic_w0_harmonic_balance,
}


def _task_periodic_solve(cfg, bundle, ctx):
    model = bundle.model
    sspec = cfg.get("solver", {})
    f = build_forcing(bundle, cfg["forcing"])
    method = sspec.get("method", "direct")
    n_periods = sspec.get("n_periods", 1)

    if method == "all":
        reports = {name: fn(model, f, n_periods=n_periods)
                   for name, fn in _METHODS.items()}
        rep = reports["direct"]
        names = sorted(reports)
        pairwise = {}
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                gap = model.space.norm(reports[a].w0 - reports[b].w0)
                pairwise[f"{a}_vs_{b}"] = gap
    else:
        rep = periodic_w0_direct(model, f, n_periods=n_periods)
        pairwise = None

    payload = {
        "method": rep.method,
        "w0_real": rep.w0.real,
        "w0_imag": rep.w0.imag,
        "w0_norm": model.space.norm(rep.w0),
        "norm_ratio": rep.norm_ratio,
        "residual_per_period": rep.residual_per_period,
        "tail_estimate": rep.tail_estimate,
        "condition": rep.condition,
        "crosscheck_gap": rep.crosscheck_gap,
        "forcing_tag": f.tag,
    }
    if pairwise is not None:
        payload["pairwise_gaps"] = pairwise
    ctx.emit_json("periodic_report.json", payload)
    ctx.emit_csv("residuals.csv", [("period", "1"), ("residual", "X")],
                 list(enumerate(rep.residual_per_period, start=1)))
    ctx.emit_csv("w0.csv", [("index", "1"), ("real", "X"), ("imag", "X")],
                 [(i, rep.w0[i].real, rep.w0[i].imag)
                  for i in range(model.dim)])


def _task_convergence(cfg, bundle, ctx):
    model = bundle.model
    sspec = cfg.get("solver", {})
    f = build_forcing(bundle, cfg["forcing"])
    n_periods = sspec.get("n_periods", 60)
    w0 = periodic_w0_direct(model, f).w0
    complex_ = np.iscomplexobj(model.A)
    reports = [convergence_gap(model, f,
                               _random_state(ctx.rng, model.dim, complex_),
                               n_periods, w0=w0)
               for _ in range(CONVERGENCE_VECTORS)]
    rho = reports[0].spectral_radius
    tail = min(5, n_periods)
    final = [float(np.mean(r.ratios[-tail:])) for r in reports]
    payload = {
        "spectral_radius": rho,
        "n_periods": n_periods,
        "final_ratios": final,
        "final_ratio_rel_errors": [abs(x - rho) / rho for x in final],
    }
    ctx.emit_json("convergence.json", payload)
    gcols = [("n", "1")] + [(f"gap_{i}", "X") for i in range(CONVERGENCE_VECTORS)]
    grows = [(n, *[r.gaps[n] for r in reports])
             for n in range(n_periods + 1)]
    ctx.emit_csv("convergence.csv", gcols, grows)
    rcols = [("n", "1")] + [(f"ratio_{i}", "1") for i in range(CONVERGENCE_VECTORS)]
    rrows = [(n + 1, *[r.ratios[n] for r in reports])
             for n in range(n_periods)]
    ctx.emit_csv("ratios.csv", rcols, rrows)


def _task_decay_scan(cfg, bundle, ctx):
    scan_spec = cfg["scan"]
    alpha = scan_spec.get("alpha", 1.0)
    t = _grid(scan_spec["t_grid"])
    scan = decay_envelope(bundle.model, alpha, t)
    fit = fit_decay_exponent(scan, window=scan_spec.get("t_window"))
    ctx.emit_csv("decay.csv",
                 [("t", "t"), ("h_alpha", "1"), ("running_min", "1")],
                 zip(t, scan.values, scan.extras["running_min"]))
    ctx.emit_json("decay.json", {
        "alpha": alpha,
        "slope": fit.exponent,
        "beta_hat": -fit.exponent,
        "constant": fit.constant,
        "r2": fit.r2,
        "window": list(fit.window),
        "normal": scan.extras["normal"],
        "monotone": scan.extras["monotone"],
    })
    ctx.emit_plot("decay_plot.gp", _gp_header("decay envelope") + [
        "set logscale xy",
        "set xlabel 't'",
        f"set ylabel 'h_{alpha}(t)'",
        f"C = {fit.constant!r}",
        f"p = {-fit.exponent!r}",
        "plot 'decay.csv' skip 1 using 1:2 with lines"
        " title 'envelope', \\",
        "     C * x**(-p) title sprintf('fit t^{-%.3f}', p)",
    ])


def _task_bt_crosscheck(cfg, bundle, ctx):
    scan_spec = cfg["scan"]
    rep = bt_crosscheck(bundle.model,
                        _grid(scan_spec["t_grid"]),
                        _grid(scan_spec["eta_grid"]),
                        t_window=scan_spec.get("t_window"),
                        eta_window=scan_spec.get("eta_window"))
    ctx.emit_csv("decay.csv",
                 [("t", "t"), ("h_1", "1"), ("running_min", "1")],
                 zip(rep.decay.abscissae, rep.decay.values,
                     rep.decay.extras["running_min"]))
    ctx.emit_csv("resolvent.csv",
                 [("eta", "1/t"), ("norm", "1"), ("running_max", "1")],
                 zip(rep.resolvent.abscissae, rep.resolvent.values,
                     rep.resolvent.extras["running_max"]))
    ctx.emit_json("bt.json", {
        "alpha_hat": rep.alpha_hat,
        "beta_hat": rep.beta_hat,
        "product": rep.product,
        "decay_fit": {"r2": rep.decay.fit.r2,
                      "window": list(rep.decay.fit.window)},
        "resolvent_fit": {"r2": rep.resolvent.fit.r2,
                          "window": list(rep.resolvent.fit.window)},
    })
    ctx.emit_plot("bt_plot.gp", _gp_header("resolvent vs decay") + [
        "set logscale xy",
        "set xlabel 't  (decay) / eta  (resolvent)'",
        "plot 'decay.csv' skip 1 using 1:3 with lines"
        " title 'decay running min', \\",
        "     'resolvent.csv' skip 1 using 1:3 with lines"
        f" title 'resolvent running max (alpha*beta = {rep.product:.3f})'",
    ])


def _task_interpolation_check(cfg, bundle, ctx):
    scan_spec = cfg["scan"]
    alpha = scan_spec["alpha"]
    g = scan_spec["t_grid"]
    t = _grid(g)
    base = interpolation_check(bundle.model, alpha, t)
    ext_spec = dict(g)
    ext_spec["stop"] = g["stop"] * EXTENSION_FACTOR
    ext_spec["num"] = 2 * g["num"] - 1
    ext = interpolation_check(bundle.model, alpha, _grid(ext_spec))
    sup0, sup1 = base.extras["sup"], ext.extras["sup"]
    ctx.emit_csv("interpolation.csv",
                 [("t", "t"), ("ratio", "1"), ("h_alpha", "1"), ("h_one", "1")],
                 zip(t, base.values, base.extras["h_alpha"],
                     base.extras["h_one"]))
    ctx.emit_json("interpolation.json", {
        "alpha": alpha,
        "sup_ratio": sup0,
        "arg_sup": base.extras["arg_sup"],
        "sup_ratio_extended": sup1,
        "relative_change": abs(sup1 - sup0) / sup0,
    })


def _task_gain_identity(cfg, bundle, ctx):
    model = bundle.model
    f = build_forcing(bundle, cfg["forcing"])
    FT = duhamel_FT(model, f)

    def raw_and_corrected(forcing, k):
        lhs = np.linalg.matrix_power(model.A, k) @ duhamel_FT(model, forcing)
        rhs = duhamel_FT(model, forcing.derivative_forcing(k))
        defect = endpoint_defect(model, forcing, k)
        scale = max(model.space.norm(lhs), 1e-300)
        return (model.space.norm(lhs - rhs) / scale,
                model.space.norm(lhs - rhs - defect) / scale)

    rows = []
    errors = {}
    corrected = {}
    for k in GAIN_ORDERS:
        raw, corr = raw_and_corrected(f, k)
        errors[str(k)] = raw
        corrected[str(k)] = corr
        rows.append((k, raw, corr))

    # negative control: same spatial profile but a plain cosine in time,
    # whose derivatives do not vanish at the period endpoints
    vec = f.coefficients[int(np.argmin(np.abs(f.harmonics)))]
    control = make_fourier_forcing(f.period, {1: vec, -1: np.conj(vec)},
                                   space=model.space)
    ctl_raw, ctl_corr = raw_and_corrected(control, GAIN_ORDERS[0])
    ctx.emit_csv("gain.csv",
                 [("k", "1"), ("relative_error", "1"),
                  ("corrected_error", "1")], rows)
    ctx.emit_json("gain.json", {
        "orders": list(GAIN_ORDERS),
        "errors": errors,
        "corrected_errors": corrected,
        "control_error": ctl_raw,
        "control_corrected_error": ctl_corr,
        "forcing_order": f.per0_order,
        "ft_norm": model.space.norm(FT),
    })


def _task_growth(cfg, bundle, ctx):
    gspec = cfg["growth"]
    block = bundle.sphere
    k = gspec["k"]
    lam = block.m * (block.m + 1.0)
    period = 2.0 * math.pi
    if gspec.get("period_mode", "resonant") == "detuned":
        period *= 1.0 + 1.0 / (2.0 * lam)
    f = resonant_forcing(block, k, period)
    exp = growth_experiment(block, k, n_max=gspec.get("n_max"),
                            period=period, forcing=f,
                            deviation_checks=gspec.get("deviation_checks", 200))
    ctx.emit_csv("growth.csv",
                 [("n", "1"), ("norm", "X"), ("lower_bound", "X")],
                 zip(exp.n_grid, exp.norms, exp.lower_bound_curve))
    ctx.emit_csv("deviations.csv",
                 [("m", "1"), ("deviation", "X"), ("bound", "X")],
                 [(m + 1, exp.deviation_norms[m],
                   (m + 1) * period * exp.concentration_norm)
                  for m in range(exp.deviation_norms.size)])
    payload = {
        "j": block.m, "k": k, "Jmax": exp.Jmax,
        "period": period,
        "period_mode": gspec.get("period_mode", "resonant"),
        "C_j": exp.C_j,
        "concentration_norm": exp.concentration_norm,
        "fitted_c": exp.fitted_c,
        "propagation_bound": exp.propagation_bound,
        "forcing_l1_norm": exp.forcing_l1_norm,
        "single_period_response": exp.single_period_response,
        "n_max": int(exp.n_grid[-1]),
        "resonant_horizon": resonant_horizon(block, k),
        "final_norm": float(exp.norms[-1]),
        "final_over_Cjn": float(exp.norms[-1] / (exp.C_j * exp.n_grid[-1])),
        "truncation_leakage": exp.truncation_leakage,
        "multiplier_tail": truncation_tail(block),
    }
    plot = _gp_header("resonant growth") + [
        "set xlabel 'n (periods)'",
        "set ylabel '|u(nT)|'",
        "plot 'growth.csv' skip 1 using 1:2 with lines"
        " title 'measured', \\",
        "     'growth.csv' skip 1 using 1:3 with lines"
        " title 'lower bound'",
    ]
    if "control_damping" in gspec:
        # the same forcing drives the block under the control damping; only
        # the orbit norms are read
        ctrl_damping = DampingProfile(**gspec["control_damping"])
        control = build_sphere_schrodinger(block.Jmax, block.m, ctrl_damping,
                                           quad_nodes=block.quad_nodes).model
        norms, _ = orbit_norms(propagator_matrix(control, period),
                               duhamel_FT(control, f), exp.n_grid.size)
        ctx.emit_csv("growth_control.csv",
                     [("n", "1"), ("norm", "X"), ("norm_over_n", "X")],
                     zip(exp.n_grid, norms, norms / exp.n_grid))
        payload["control_sup"] = float(np.max(norms))
        payload["control_final_over_n"] = float(norms[-1] / exp.n_grid[-1])
        plot[-1] += ", \\"
        plot.append("     'growth_control.csv' skip 1 using 1:2"
                    " with lines title 'fully damped control'")
    ctx.emit_json("growth.json", payload)
    ctx.emit_plot("growth_plot.gp", plot)


def _task_concentration(cfg, bundle, ctx):
    cspec = cfg["concentration"]
    damping = DampingProfile(**cfg["model"]["damping"])
    scan = concentration_scan(cspec["js"], damping,
                              quad_nodes=cspec.get("quad_nodes"))
    payload = {
        "js": scan.js,
        "fitted_c": scan.fitted_c,
        "slope_vs_j": scan.slope_vs_j,
        "intercept": scan.intercept,
        "r2": scan.r2,
    }
    if damping.kind == "cap":
        aperture = math.acos(damping.cutoff)
        payload["aperture"] = aperture
        payload["reference_slope"] = math.log(math.sin(aperture))
    ctx.emit_csv("concentration.csv",
                 [("j", "1"), ("sqrt_eigenvalue", "1"), ("norm", "1"),
                  ("multiplier_tail", "1")],
                 zip(scan.js, scan.sqrt_eigenvalues,
                     scan.concentration_norms, scan.tails))
    ctx.emit_json("concentration.json", payload)
    ctx.emit_plot("concentration_plot.gp",
                  _gp_header("damping seen by equatorial modes") + [
                      "set logscale y",
                      "set xlabel 'j'",
                      "set ylabel '|M_a Phi_j|'",
                      f"C = {scan.intercept!r}",
                      f"c = {scan.fitted_c!r}",
                      "plot 'concentration.csv' skip 1 using 1:3"
                      " with points title 'measured', \\",
                      "     C * exp(-c * sqrt(x*(x+1)))"
                      " title sprintf('fit c=%.3f', c)",
                  ])


def _task_picard(cfg, bundle, ctx):
    model = bundle.model
    pspec = cfg["picard"]
    f = build_forcing(bundle, cfg["forcing"])
    eps = pspec.get("epsilon", 1.0)
    f_eps = FourierForcing(f.period, f.harmonics, eps * f.coefficients,
                           space=model.space)
    poly = {int(p): c for p, c in zip(pspec["powers"], pspec["coefficients"])}
    kwargs = {"tol": pspec["tol"]} if "tol" in pspec else {}
    rep = picard_nonlinear(model, f_eps, poly, **kwargs)
    ctx.emit_json("picard.json", {
        "converged": rep.converged,
        "iterations": rep.iterations,
        "contraction_ratios": rep.contraction_ratios,
        "max_ratio": max(rep.contraction_ratios) if rep.contraction_ratios
        else None,
        "ode_residual": rep.ode_residual,
        "w0_norm": model.space.norm(rep.w0),
        "epsilon": eps,
    })
    rows = [(i + 1, g, rep.contraction_ratios[i - 1] if i >= 1 else float("nan"))
            for i, g in enumerate(rep.gap_history)]
    ctx.emit_csv("picard.csv",
                 [("sweep", "1"), ("gap", "X"), ("ratio", "1")], rows)
    if "amplitudes" in pspec:
        thresh = picard_divergence_threshold(model, f, poly,
                                             amplitudes=pspec["amplitudes"],
                                             **kwargs)
        ctx.emit_json("picard_threshold.json", thresh)


def _task_boundary_solve(cfg, bundle, ctx):
    model = bundle.model
    fspec = cfg["forcing"]
    sspec = cfg.get("solver", {})
    periods = fspec["periods"]
    rows = []
    details = {}
    for T in periods:
        g = boundary_signal_forcing(model, fspec.get("amplitude", 1.0), T)
        rep = boundary_periodic_solve(model, g,
                                      n_periods=sspec.get("n_periods", 1))
        worst = max(rep.residual_per_period)
        rows.append((T, worst, rep.norm_ratio, rep.admissibility))
        details[f"T={T:g}"] = {
            "residuals": rep.residual_per_period,
            "norm_ratio": rep.norm_ratio,
            "admissibility": rep.admissibility,
            "w0_norm": model.space.norm(rep.w0),
        }
    ctx.emit_csv("boundary.csv",
                 [("period", "t"), ("residual", "X"), ("norm_ratio", "1"),
                  ("admissibility", "1")], rows)
    ctx.emit_json("boundary.json", {"periods": periods, "runs": details})


def _invariant_models():
    bump = DampingProfile("bump", amplitude=1.0, center=0.5 * math.pi,
                          width=2.0)
    cap = DampingProfile("cap", amplitude=1.0, width=0.05, cutoff=0.85)
    return [
        ("scalar", build_scalar_model(-1.0)),
        ("interval", build_damped_wave_interval(24, math.pi, bump)),
        ("circle", build_damped_wave_circle(24,
                                            DampingProfile("constant",
                                                           amplitude=1.0))),
        ("heat_wave", build_heat_wave_1d(8, 8)),
        ("sphere", build_sphere_schrodinger(12, 2, cap,
                                            quad_nodes=1200).model),
        ("synthetic", build_synthetic_resolvent_model(12, 1.0)),
        ("diagonal", build_diagonal_model([-1.0, -4.0])),
    ]


def _task_invariants(cfg, bundle, ctx):
    models = _invariant_models()
    checks = {}

    worst = 0.0
    for _, model in models:
        x = _random_state(ctx.rng, model.dim, np.iscomplexobj(model.A))
        for t, s in ((0.3, 0.7), (1.1, 0.4)):
            lhs = propagator_matrix(model, t + s) @ x
            rhs = propagator_matrix(model, t) @ (propagator_matrix(model, s) @ x)
            worst = max(worst, model.space.norm(lhs - rhs)
                        / max(model.space.norm(x), 1e-300))
    checks["semigroup_law"] = {"max_error": worst, "tol": 1e-9}

    worst = 0.0
    for _, model in models:
        for a, b in ((0.5, 0.5), (1.0, 0.5)):
            fa = fractional_power(model, a)
            fb = fractional_power(model, b)
            fab = fractional_power(model, a + b)
            scale = max(float(np.linalg.norm(fab, 2)), 1e-300)
            worst = max(worst,
                        float(np.linalg.norm(fab - fa @ fb, 2)) / scale)
    checks["fractional_power_law"] = {"max_error": worst, "tol": 1e-8}

    worst = 0.0
    for _, model in models:
        if not model.has_kernel:
            continue
        p = model.pi0
        worst = max(worst, float(np.linalg.norm(p @ p - p, 2)))
        scale = float(np.linalg.norm(model.A, 2))
        worst = max(worst, float(np.linalg.norm(p @ model.A, 2)) / scale)
        worst = max(worst, float(np.linalg.norm(model.A @ p, 2)) / scale)
        worst = max(worst,
                    float(np.linalg.norm(contour_spectral_projector(model) - p,
                                         2)))
    checks["kernel_projector"] = {"max_error": worst, "tol": 1e-8}

    worst = 0.0
    for name, model in models:
        if name in ("synthetic", "diagonal", "scalar"):
            continue
        T = 1.0
        xi = np.arange(1, model.dim + 1) / (model.dim + 1)
        va = np.sin(np.pi * xi)
        vb = np.cos(3 * np.pi * xi) * xi
        fa = per0_bump_forcing(T, 1, va, space=model.space)
        fb = make_fourier_forcing(T, {1: vb / 2, -1: vb / 2},
                                  space=model.space)
        double = _sum_fourier(fa, fa, 1.0, 1.0, model.space)
        lhs = duhamel_FT(model, double)
        rhs = 2.0 * duhamel_FT(model, fa)
        worst = max(worst, model.space.norm(lhs - rhs)
                    / max(model.space.norm(rhs), 1e-300))
        sum_f = _sum_fourier(fa, fb, 0.5, -1.5, model.space)
        lhs2 = duhamel_FT(model, sum_f)
        rhs2 = 0.5 * duhamel_FT(model, fa) - 1.5 * duhamel_FT(model, fb)
        worst = max(worst, model.space.norm(lhs2 - rhs2)
                    / max(model.space.norm(rhs2), 1e-300))
    checks["duhamel_linearity"] = {"max_error": worst, "tol": 1e-10}

    # uniform boundedness, not contraction: the circle Gram carries the
    # conserved mean separately, so transient gains up to sqrt(2) are real
    worst = 0.0
    for name, model in models:
        if name == "synthetic":
            continue
        for t in (0.0, 0.5, 2.0, 10.0, 40.0):
            gain = model.space.op_norm(propagator_matrix(model, t))
            worst = max(worst, gain)
    checks["uniform_bound"] = {"max_error": worst, "tol": 4.0}

    for rec in checks.values():
        rec["pass"] = bool(rec["max_error"] <= rec["tol"])
    ctx.emit_json("invariants.json", {
        "checks": checks,
        "all_pass": all(rec["pass"] for rec in checks.values()),
    })


def _sum_fourier(fa: FourierForcing, fb: FourierForcing, ca, cb, space):
    coeffs = {}
    for h, c in zip(fa.harmonics, fa.coefficients):
        coeffs[int(h)] = coeffs.get(int(h), 0) + ca * c
    for h, c in zip(fb.harmonics, fb.coefficients):
        coeffs[int(h)] = coeffs.get(int(h), 0) + cb * c
    return make_fourier_forcing(fa.period, coeffs, space=space)


_TASKS = {
    "spectrum": _task_spectrum,
    "periodic_solve": _task_periodic_solve,
    "convergence": _task_convergence,
    "decay_scan": _task_decay_scan,
    "bt_crosscheck": _task_bt_crosscheck,
    "interpolation_check": _task_interpolation_check,
    "gain_identity": _task_gain_identity,
    "growth": _task_growth,
    "concentration": _task_concentration,
    "picard": _task_picard,
    "boundary_solve": _task_boundary_solve,
    "invariants": _task_invariants,
}


# ---------------------------------------------------------------------------
# manifest and the run driver
# ---------------------------------------------------------------------------

@dataclass
class RunManifest:
    task: str
    label: str
    config_path: str
    config_sha256: str
    seed: int
    package_version: str
    numpy_version: str
    scipy_version: str
    wall_clock: dict
    outputs: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return _jsonable(self.__dict__)


def run(config_path, out_dir=None, seed=None) -> RunManifest:
    config_path = Path(config_path)
    raw = config_path.read_bytes()
    cfg = json.loads(raw, parse_constant=_refuse_constant)
    validate_config(cfg)

    task = cfg["task"]
    if seed is None:
        seed = cfg.get("seed", 0)
    out_dir = Path(out_dir) if out_dir is not None else Path("out") / config_path.stem
    out_dir.mkdir(parents=True, exist_ok=True)
    ctx = RunContext(out_dir, int(seed))

    clock = {}
    t0 = time.perf_counter()
    bundle = None if task in _NO_MODEL_TASKS else build_bundle(cfg)
    clock["build"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    _TASKS[task](cfg, bundle, ctx)
    clock["solve"] = time.perf_counter() - t0

    # hashed from the kept text, not read back, and only once the task has
    # returned: a process's first OpenSSL digest allocates about 1 MB, which
    # inside a task adds to its peak RSS
    t0 = time.perf_counter()
    outputs = []
    for name, text in sorted(ctx.files.items()):
        data = text.encode()
        outputs.append({"name": name, "bytes": len(data),
                        "sha256": hashlib.sha256(data).hexdigest()})
    manifest = RunManifest(
        task=task,
        label=cfg.get("label", ""),
        config_path=str(config_path),
        config_sha256=hashlib.sha256(raw).hexdigest(),
        seed=int(seed),
        package_version=__version__,
        numpy_version=np.__version__,
        scipy_version=scipy.__version__,
        wall_clock=clock,
        outputs=outputs,
    )
    clock["emit"] = time.perf_counter() - t0
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest.to_dict(), sort_keys=True, indent=2) + "\n")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="semiper",
        description="periodic responses and decay diagnostics for damped "
                    "evolution models")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment config")
    runp.add_argument("--config", required=True, help="JSON config path")
    runp.add_argument("--out", default=None, help="output directory")
    runp.add_argument("--seed", type=int, default=None,
                      help="override the config seed")
    args = parser.parse_args(argv)

    try:
        manifest = run(args.config, out_dir=args.out, seed=args.seed)
    except ValueError as e:     # ConfigError and json.JSONDecodeError too
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (SemiperError, np.linalg.LinAlgError) as e:
        name = f"{type(e).__module__}.{type(e).__name__}"
        print(f"error: {name}: {e}", file=sys.stderr)
        return 3
    n = len(manifest.outputs)
    print(f"{manifest.task}: wrote {n} files (+ manifest.json), "
          f"config {manifest.config_sha256[:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
