"""The package still provides every name the benchmark in perfbench/ calls.

perfbench/ is only read here. Its span recorder wraps public functions
and the RunContext emit methods by name, and its child process calls
``cli.load_schema``, ``cli.build_forcing`` with a random generator and
``check_class``. A cut that removes or reshapes one of them would
otherwise show only in the traced benchmark run.
"""

import importlib
import importlib.util
import json

from semiper import cli

from conftest import CONFIG_DIR, REPO_ROOT


def _perfbench_module(name):
    path = REPO_ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_targets_and_emit_methods_resolve():
    spans = _perfbench_module("spans")
    for layer, attrs in spans.TARGETS.items():
        module = importlib.import_module(f"semiper.{layer}")
        for attr in attrs:
            assert callable(getattr(module, attr, None)), f"semiper.{layer}.{attr}"
    for attr in spans.EMIT_METHODS:
        assert callable(getattr(cli.RunContext, attr, None)), f"RunContext.{attr}"


def test_child_calls_resolve():
    """The child loads the schema, then takes a periodic_solve config's
    forcing L1 norm through build_forcing(bundle, fspec, rng) and
    check_class(f, 0).l1_norm."""
    child = _perfbench_module("child")
    cli.load_schema()
    cfg = json.loads((CONFIG_DIR / "interval_periodic.json").read_text())
    assert child._forcing_l1(cli, cfg, 0) > 0.0
