"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the ``semiper`` modules from the
outside: the package itself is not modified. Each wrapped call records one
span ``(id, parent id, name, start, end)`` in memory; the child process
writes the spans out when its run ends. Counters that need a call's
arguments or result (harmonics solved, Picard sweeps, scan points,
distinct propagator requests, bytes emitted) are taken by small hooks that
run after the wrapped call returns, outside the span's timed interval.

Only public names are wrapped. Private helpers are implementation details
that later refactors are free to delete, so a benchmark keyed on them would
break when they go.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter


class Recorder:
    """In-memory span list, counters and the stack of open spans.

    Spans nest strictly because the child runs every config on one
    thread (scans use ``threads=1``), so a plain stack gives each span
    its parent.
    """

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.enabled = True
        self._stack: list = []
        self._models: list = []     # keeps models alive so ids stay unique
        self._model_ids: dict = {}
        self._prop_keys: set = set()

    def span(self, name: str, fn, after=None):
        """Return ``fn`` wrapped so that each call records a span."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            sid = len(rec.spans)
            rec.spans.append(None)
            parent = rec._stack[-1] if rec._stack else -1
            rec._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec._stack.pop()
                rec.spans[sid] = (sid, parent, name, start, end)
            if after is not None:
                after(rec, args, kwargs, result)
            return result

        return wrapper

    def model_index(self, model) -> int:
        idx = self._model_ids.get(id(model))
        if idx is None:
            idx = len(self._models)
            self._models.append(model)
            self._model_ids[id(model)] = idx
        return idx

    def to_dict(self) -> dict:
        return {"spans": [list(s) for s in self.spans],
                "counters": dict(self.counters)}


# ---------------------------------------------------------------------------
# counters taken after a call returns
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_propagator(rec, args, kwargs, result):
    key = (rec.model_index(_arg(args, kwargs, 0, "model")),
           float(_arg(args, kwargs, 1, "t")))
    if key not in rec._prop_keys:
        rec._prop_keys.add(key)
        rec.counters["operator_core.propagator_matrix.distinct"] += 1


def _count_harmonics(rec, args, kwargs, result):
    from semiper.forcing import FourierForcing
    f = _arg(args, kwargs, 1, "f")
    method = _arg(args, kwargs, 5, "method", "auto")
    if isinstance(f, FourierForcing) and method in ("auto", "closed_form"):
        rec.counters["forcing.harmonic_solves"] += int(f.harmonics.size)


def _count_sweeps(rec, args, kwargs, result):
    rec.counters["periodic_solver.picard.sweeps"] += int(result.iterations)


def _count_scan_points(rec, args, kwargs, result):
    rec.counters["stability_lab.scan_points"] += int(result.abscissae.size)


def _count_emitted(rec, args, kwargs, result):
    rec.counters["cli.emit_bytes"] += os.path.getsize(result)


# Public functions wrapped in each module. A span is named
# "<module>.<function>"; the module is the layer that owns the call.
TARGETS = {
    "cli": ("validate_config", "build_bundle"),
    "models": ("build_scalar_model", "build_damped_wave_interval",
               "build_damped_wave_circle", "build_boundary_forced_wave",
               "build_heat_wave_1d", "build_sphere_schrodinger",
               "build_synthetic_resolvent_model", "build_diagonal_model"),
    "operator_core": ("propagator_matrix", "propagate", "resolvent_norm",
                      "fractional_power", "spectrum_report",
                      "contour_spectral_projector"),
    "forcing": ("duhamel_FT", "check_class", "control_duhamel",
                "admissibility_constant", "endpoint_defect"),
    "periodic_solver": ("periodic_w0_direct", "periodic_w0_harmonic_balance",
                        "periodic_w0_series", "verify_orbit",
                        "convergence_gap", "boundary_periodic_solve",
                        "picard_nonlinear", "picard_divergence_threshold"),
    "stability_lab": ("decay_envelope", "resolvent_scan", "bt_crosscheck",
                      "interpolation_check", "mlog_bound_curve"),
    "resonance_lab": ("resonant_forcing", "measured_propagation_bound",
                      "growth_experiment", "concentration_scan"),
}
EMIT_METHODS = ("emit_csv", "emit_json", "emit_plot")
HOOKS = {
    "operator_core.propagator_matrix": _count_propagator,
    "forcing.duhamel_FT": _count_harmonics,
    "periodic_solver.picard_nonlinear": _count_sweeps,
    "stability_lab.decay_envelope": _count_scan_points,
    "stability_lab.resolvent_scan": _count_scan_points,
    **{f"cli.{attr}": _count_emitted for attr in EMIT_METHODS},
}


def install(rec: Recorder) -> None:
    """Wrap every target and rebind it in each ``semiper`` module.

    A module that did ``from .operator_core import propagator_matrix``
    holds its own reference, so the wrapper replaces every module-level
    name bound to the original function, not only the defining one. A
    module-level dict that holds the function as a value (a dispatch
    table) gets the wrapper too.
    """
    import semiper.cli  # noqa: F401  (imports every layer)

    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "semiper"
                                     or name.startswith("semiper."))]
    for layer, attrs in TARGETS.items():
        for attr in attrs:
            name = f"{layer}.{attr}"
            original = getattr(sys.modules[f"semiper.{layer}"], attr)
            wrapper = rec.span(name, original, HOOKS.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapper
    ctx_cls = sys.modules["semiper.cli"].RunContext
    for attr in EMIT_METHODS:
        name = f"cli.{attr}"
        setattr(ctx_cls, attr, rec.span(name, getattr(ctx_cls, attr),
                                        HOOKS[name]))
