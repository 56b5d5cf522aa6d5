"""Benchmark of the ``semiper run`` CLI: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload orbits|scans|sphere --seed N \\
        --seconds S --trace 0|1

Run from the repository root. Each config of the workload runs in a fresh
child process, one child at a time, with BLAS pinned to one thread. The
children are forked by a server (``child.py serve``) that has imported
``semiper.cli`` and run nothing, so each one starts with cold
process-level caches, as a user's ``semiper run`` does. The interpreter
start and the imports, which such a run also pays, are measured apart by
``SETUP_PROBES`` fresh interpreters (``setup_s``), spread over the run
between configs. A pass runs every config
of the workload once. Passes repeat while another one fits in
``--seconds``, and at least two run, so that the artifact hashes of the
same seed can be compared between passes.

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace
1`` alternates untraced and traced passes: the traced passes give the
per-layer metrics (``spans.py``) and the pair gives the tracing overhead.
Every run's outputs are checked (``checks.py``) in both modes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``attempted`` counts
child runs (configs times passes) and ``failed`` the runs that crashed,
missed a check or hashed differently from the first pass; their ratio is
the workload's fail ratio. The lines above it give the environment, the
per-config times and every metric by name with its unit. The same report
is written to ``.perfbench_out/<workload>-seed<N>-trace<T>/report.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from checks import check_run
from workloads import WORKLOADS, prepare_configs

HERE = Path(__file__).resolve().parent
OUT_ROOT = ".perfbench_out"
BLAS_PIN = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                   "NUMEXPR_NUM_THREADS")}
WAIT_S = 60.0       # longest wait for a set-up probe, or for the server to stop
SETUP_PROBES = 10    # set-up probes of one trace-0 run

END_TO_END_UNITS = {"wall_s": "s", "slowest_config_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.validate_s": "s", "cli.build_bundle_s": "s", "cli.emit_s": "s",
    "cli.emit_bytes": "bytes",
    "models.self_s": "s", "models.calls": "count", "models.sphere_build_s": "s",
    "operator_core.self_s": "s",
    "operator_core.propagator_matrix.calls": "count",
    "operator_core.propagator_matrix.s": "s",
    "operator_core.propagator_matrix.distinct_ratio": "ratio",
    "operator_core.resolvent_norm.calls": "count",
    "operator_core.resolvent_norm.s": "s",
    "operator_core.propagate.calls": "count",
    "forcing.self_s": "s", "forcing.duhamel_FT.calls": "count",
    "forcing.duhamel_FT.s": "s", "forcing.harmonic_solves": "count",
    "forcing.check_class.s": "s", "forcing.admissibility_constant.s": "s",
    "periodic_solver.self_s": "s", "periodic_solver.solves": "count",
    "periodic_solver.verify_orbit.s": "s",
    "periodic_solver.picard.sweeps": "count", "periodic_solver.picard.s": "s",
    "periodic_solver.boundary.s": "s",
    "stability_lab.self_s": "s", "stability_lab.scan_points": "count",
    "stability_lab.s_per_point": "s", "stability_lab.decay_envelope.s": "s",
    "stability_lab.resolvent_scan.s": "s",
    "resonance_lab.self_s": "s", "resonance_lab.growth_experiment.s": "s",
    "resonance_lab.concentration_scan.s": "s",
    "trace.overhead_ratio": "ratio",
}
LAYERS = ("models", "operator_core", "forcing", "periodic_solver",
          "stability_lab", "resonance_lab")
SOLVERS = ("periodic_solver.periodic_w0_direct",
           "periodic_solver.periodic_w0_harmonic_balance",
           "periodic_solver.periodic_w0_series",
           "periodic_solver.boundary_periodic_solve")


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------

def child_env(root: Path) -> dict:
    env = dict(os.environ, **BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


class SetupProbes:
    """Set-up seconds of ``n`` fresh interpreters, one at a time.

    The machine's speed drifts over seconds, so a burst of probes samples
    one moment of it. ``due()``, called between configs, takes a probe
    every ``seconds / n`` seconds instead; ``finish()`` takes the ones a
    run that ended early still owes.
    """

    def __init__(self, root: Path, seconds: float, n: int):
        self._root = root
        self._env = child_env(root)
        self._n = n
        self._interval = seconds / n
        self._next = time.monotonic()
        self.attempts = 0
        self.samples: list = []

    def _take(self) -> None:
        self.attempts += 1
        self._env["PERFBENCH_SPAWN_T"] = repr(time.monotonic())
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), "probe"],
                              env=self._env, cwd=self._root,
                              capture_output=True, text=True, timeout=WAIT_S)
        if proc.returncode == 0:
            self.samples.append(float(proc.stdout))

    def due(self) -> None:
        if self.attempts < self._n and time.monotonic() >= self._next:
            self._take()
            self._next += self._interval

    def finish(self) -> None:
        while self.attempts < self._n:
            self._take()


class ForkServer:
    """The ``child.py serve`` process of one run; a context manager that
    stops the server and waits for it on exit."""

    def __init__(self, root: Path, log_path: Path):
        self._log = open(log_path, "w", encoding="utf-8")
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log,
            text=True, env=child_env(root), cwd=root, start_new_session=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        try:
            self._proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self._proc.wait(timeout=WAIT_S)
        except subprocess.TimeoutExpired:
            # the server's session also holds a child it may be waiting for
            os.killpg(self._proc.pid, signal.SIGKILL)
            self._proc.wait()
        self._log.close()

    def run(self, job: dict):
        """(result or None, error text) of one job."""
        try:
            self._proc.stdin.write(json.dumps(job) + "\n")
            self._proc.stdin.flush()
        except BrokenPipeError:
            return None, "fork server ended"
        line = self._proc.stdout.readline()
        if not line:
            return None, "fork server ended"
        reply = json.loads(line)
        path = Path(job["result"])
        if not path.is_file():
            return None, f"child exit {reply['exit']} without a result"
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        if "crash" in result:
            return None, result["crash"].strip().splitlines()[-1]
        result["maxrss_kb"] = reply["maxrss_kb"]
        return result, ""


def output_hashes(out_dir: Path) -> dict | None:
    manifest = out_dir / "manifest.json"
    if not manifest.is_file():
        return None
    with open(manifest, encoding="utf-8") as fh:
        return {o["name"]: o["sha256"] for o in json.load(fh)["outputs"]}


def run_pass(server: ForkServer, configs: dict, seed: int, pass_dir: Path,
             traced: bool, first_hashes: dict, want_env: bool,
             probes: SetupProbes | None) -> list:
    """Run every config once; one record per child run."""
    pass_dir.mkdir()
    records = []
    times = {}
    for name, (config, run_seed) in configs.items():
        if probes is not None:
            probes.due()
        out_dir = pass_dir / name
        result, error = server.run({
            "config": str(config), "out_dir": str(out_dir), "seed": run_seed,
            "result": str(pass_dir / f"{name}.result.json"), "trace": traced,
            "env": want_env and not records})
        if result is None:
            failures = [error]
        else:
            times[name] = result["run_s"]
            failures = check_run(name, out_dir, result, seed, times)
            hashes = output_hashes(out_dir)
            if first_hashes.setdefault(name, hashes) != hashes:
                failures.append("artifact sha256 differs from the first pass")
        records.append({"name": name, "traced": traced, "result": result,
                        "failures": failures})
    return records


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _ok_results(records, traced: bool) -> list:
    return [r for r in records if r["traced"] == traced and r["result"]]


def pass_times(records, traced: bool) -> dict:
    """Config name -> run() seconds of each pass."""
    by_name = defaultdict(list)
    for r in _ok_results(records, traced):
        by_name[r["name"]].append(r["result"]["run_s"])
    return by_name


def median_pass_sum(passes: list, traced: bool) -> float:
    """Median over the passes of the summed run() seconds of a pass."""
    return statistics.median(
        sum(r["result"]["run_s"] for r in _ok_results(recs, traced))
        for recs in passes if recs[0]["traced"] == traced)


def end_to_end(passes: list, setup: list) -> dict:
    records = [r for recs in passes for r in recs]
    per_config = pass_times(records, traced=False)
    return {
        "wall_s": median_pass_sum(passes, traced=False),
        "slowest_config_s": max(statistics.median(v)
                                for v in per_config.values()),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r["result"]["maxrss_kb"] for r in
                           _ok_results(records, traced=False)) / 1024.0,
    }


def _pass_layer_sums(results) -> dict:
    """Inclusive seconds and calls per span name, self seconds per layer and
    counters, summed over the configs of one traced pass."""
    incl, calls, self_s, counters = Counter(), Counter(), Counter(), Counter()
    for res in results:
        spans = res["trace"]["spans"]
        covered = Counter()
        for _, parent, _, start, end in spans:
            if parent >= 0:
                covered[parent] += end - start
        for sid, _, name, start, end in spans:
            incl[name] += end - start
            calls[name] += 1
            self_s[name.split(".")[0]] += end - start - covered[sid]
        counters.update(res["trace"]["counters"])
    return {"incl": incl, "calls": calls, "self": self_s, "counters": counters}


def _layer_metrics(s: dict) -> dict:
    incl, calls, cnt = s["incl"], s["calls"], s["counters"]
    prop_calls = calls["operator_core.propagator_matrix"]
    scan_s = incl["stability_lab.decay_envelope"] + \
        incl["stability_lab.resolvent_scan"]
    points = cnt["stability_lab.scan_points"]
    m = {f"{layer}.self_s": s["self"][layer] for layer in LAYERS}
    m.update({
        "cli.validate_s": incl["cli.validate_config"],
        "cli.build_bundle_s": incl["cli.build_bundle"],
        "cli.emit_s": sum(incl[f"cli.{a}"]
                          for a in ("emit_csv", "emit_json", "emit_plot")),
        "cli.emit_bytes": cnt["cli.emit_bytes"],
        "models.calls": sum(v for k, v in calls.items()
                            if k.startswith("models.")),
        "models.sphere_build_s": incl["models.build_sphere_schrodinger"],
        "operator_core.propagator_matrix.calls": prop_calls,
        "operator_core.propagator_matrix.s": incl["operator_core.propagator_matrix"],
        "operator_core.propagator_matrix.distinct_ratio":
            cnt["operator_core.propagator_matrix.distinct"] / prop_calls
            if prop_calls else 0.0,
        "operator_core.resolvent_norm.calls": calls["operator_core.resolvent_norm"],
        "operator_core.resolvent_norm.s": incl["operator_core.resolvent_norm"],
        "operator_core.propagate.calls": calls["operator_core.propagate"],
        "forcing.duhamel_FT.calls": calls["forcing.duhamel_FT"],
        "forcing.duhamel_FT.s": incl["forcing.duhamel_FT"],
        "forcing.harmonic_solves": cnt["forcing.harmonic_solves"],
        "forcing.check_class.s": incl["forcing.check_class"],
        "forcing.admissibility_constant.s": incl["forcing.admissibility_constant"],
        "periodic_solver.solves": sum(calls[n] for n in SOLVERS),
        "periodic_solver.verify_orbit.s": incl["periodic_solver.verify_orbit"],
        "periodic_solver.picard.sweeps": cnt["periodic_solver.picard.sweeps"],
        "periodic_solver.picard.s": incl["periodic_solver.picard_nonlinear"],
        "periodic_solver.boundary.s": incl["periodic_solver.boundary_periodic_solve"],
        "stability_lab.scan_points": points,
        "stability_lab.s_per_point": scan_s / points if points else 0.0,
        "stability_lab.decay_envelope.s": incl["stability_lab.decay_envelope"],
        "stability_lab.resolvent_scan.s": incl["stability_lab.resolvent_scan"],
        "resonance_lab.growth_experiment.s": incl["resonance_lab.growth_experiment"],
        "resonance_lab.concentration_scan.s":
            incl["resonance_lab.concentration_scan"],
    })
    return m


def per_layer(passes: list) -> dict:
    """Per-layer metrics: the median over traced passes of each pass's sum."""
    per_pass = [_layer_metrics(_pass_layer_sums(
        [r["result"] for r in _ok_results(recs, traced=True)]))
        for recs in passes if recs[0]["traced"]]
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics["trace.overhead_ratio"] = (median_pass_sum(passes, traced=True)
                                       / median_pass_sum(passes, traced=False))
    return metrics


# ---------------------------------------------------------------------------
# environment and report
# ---------------------------------------------------------------------------

def git_commit(root: Path) -> str:
    """HEAD of the checkout; git is kept from looking above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=WAIT_S)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(root: Path, seed: int, records) -> dict:
    env = {"nproc": os.cpu_count(),
           "usable_cpus": len(os.sched_getaffinity(0)),
           "machine": platform.machine(), "blas_threads": BLAS_PIN,
           "git_commit": git_commit(root), "seed": seed}
    for r in records:
        if r["result"] and "env" in r["result"]:
            env.update(r["result"]["env"])
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in ("src/semiper/cli.py", "configs")
               if not (root / p).exists()]
    if missing:
        print(f"perfbench: run from the repository root; missing {missing}",
              file=sys.stderr)
        return 2

    run_dir = root / OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    configs = prepare_configs(root, args.workload, args.seed, run_dir)

    start = time.monotonic()
    probes = (SetupProbes(root, args.seconds, SETUP_PROBES)
              if args.trace == 0 else None)
    passes, first_hashes = [], {}
    with ForkServer(root, run_dir / "server.log") as server:
        while True:
            traced = args.trace == 1 and len(passes) % 2 == 1
            pass_start = time.monotonic()
            passes.append(run_pass(server, configs, args.seed,
                                   run_dir / f"pass{len(passes)}", traced,
                                   first_hashes, want_env=not passes,
                                   probes=probes))
            now = time.monotonic()
            if not any(r["result"] for r in passes[-1]):
                break
            # stop once another pass as long as this one would end past --seconds
            if len(passes) >= 2 and now - start + (now - pass_start) > args.seconds:
                break
    if probes is not None:
        probes.finish()
    setup = probes.samples if probes is not None else []
    if not any(r["result"] for r in passes[-1]):
        error = passes[-1][0]["failures"][0]
    elif args.trace == 0 and not setup:
        error = "every set-up probe failed"
    else:
        error = None
    if error:
        print(f"perfbench: the package could not run: {error}", file=sys.stderr)
        return 1

    records = [r for recs in passes for r in recs]
    attempted = len(records)
    failed = sum(1 for r in records if r["failures"])
    if args.trace:
        metrics, units = per_layer(passes), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(passes, setup), END_TO_END_UNITS
    table = {name: {"run_s": statistics.median(t), "passes_s": t}
             for name, t in pass_times(records, traced=False).items()}
    for name, t in pass_times(records, traced=True).items():
        table[name].update(traced_run_s=statistics.median(t),
                           traced_passes_s=t)
    report = {"workload": args.workload, "passes": len(passes),
              "setup_probes_s": setup,
              "environment": environment(root, args.seed, records),
              "per_config": table, "metrics": metrics,
              "failures": {f"{r['name']}#{i}": r["failures"]
                           for i, r in enumerate(records) if r["failures"]}}
    (run_dir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{len(passes)} passes")
    for key, value in report["environment"].items():
        print(f"env {key} = {value}")
    for name, row in table.items():
        cells = "  ".join(f"{k} {v:.4f}" for k, v in row.items()
                          if not k.endswith("passes_s"))
        print(f"config {name:28s} {cells}")
    for key, failures in report["failures"].items():
        print(f"FAILED {key}: {'; '.join(failures)}")
    print(f"fail_ratio = {failed}/{attempted} = {failed / attempted:.4f} "
          "(failed child runs over attempted child runs)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
