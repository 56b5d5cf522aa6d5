#!/usr/bin/env python3
"""Per-config timing ledger: the median run() seconds of every shipped config.

    python3 scripts/bench_configs.py [--configs DIR] [--out BENCH_configs.json]

Each config runs RUNS times through ``semiper.cli.run``, every time in a fresh
child forked by the benchmark's fork server (``perfbench/child.py serve``),
with BLAS pinned to one thread. So every run starts from cold process-level
caches, as a ``semiper run`` does; interpreter start and imports are left
out, as in the benchmark's ``wall_s``. Round r runs every config once, so a
drift in the machine's speed spreads over all configs alike and shows in the
round totals (``round_totals_s``, also printed). The ledger
(default ``BENCH_configs.json`` at the repository root) holds each config's
median, fastest and slowest seconds and its outcome (``ok`` or the
``SemiperError`` it raised, as ``circle_obstruction`` must; runs of one
config that end differently are an error), plus the machine and its
processor, Python, numpy, scipy, BLAS and the BLAS thread pins. The package
is taken from ``src/``; run from anywhere.
"""

import argparse
import json
import platform
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import ForkServer, environment  # noqa: E402  (perfbench/run.py)

RUNS = 5                                     # fresh child runs per config


def cpu_model() -> str:
    """The processor's model name from /proc/cpuinfo, where there is one."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure(configs: list, work: Path) -> tuple:
    """(config name -> list of results, the first run's environment)."""
    results = {c.stem: [] for c in configs}
    env = {}
    with ForkServer(ROOT, work / "server.log") as server:
        for r in range(RUNS):
            for config in configs:
                name = config.stem
                result, error = server.run({
                    "config": str(config), "out_dir": str(work / f"{name}-{r}"),
                    "seed": json.loads(config.read_text(encoding="utf-8")).get("seed", 0),
                    "result": str(work / f"{name}-{r}.result.json"),
                    "trace": False, "env": not env})
                if result is None:
                    raise RuntimeError(f"{name}: {error}")
                env = env or result.pop("env")
                results[name].append(result)
    return results, env


def ledger(results: dict, env: dict) -> dict:
    configs = {}
    for name, rs in sorted(results.items()):
        times = [r["run_s"] for r in rs]
        outcomes = {r.get("error", "ok").rsplit(".", 1)[-1] for r in rs}
        if len(outcomes) > 1:
            raise RuntimeError(f"{name}: runs ended differently: {sorted(outcomes)}")
        configs[name] = {"median_s": round(statistics.median(times), 6),
                         "min_s": round(min(times), 6), "max_s": round(max(times), 6),
                         "outcome": outcomes.pop()}
    machine = environment(ROOT, 0, [{"result": {"env": env}}])
    for key in ("seed", "git_commit"):
        machine.pop(key)
    machine["cpu"] = cpu_model()
    rounds = [round(sum(r["run_s"] for r in runs), 6) for runs in zip(*results.values())]
    return {"about": __doc__.strip().splitlines()[0],
            "runs_per_config": RUNS,
            "environment": machine,
            "total_median_s": round(sum(c["median_s"] for c in configs.values()), 6),
            "round_totals_s": rounds,
            "configs": configs}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--configs", default=str(ROOT / "configs"),
                    help="config directory (default: the shipped configs)")
    ap.add_argument("--out", default=str(ROOT / "BENCH_configs.json"),
                    help="ledger path (default: BENCH_configs.json at the root)")
    args = ap.parse_args()
    configs = sorted(Path(args.configs).glob("*.json"))
    with tempfile.TemporaryDirectory() as work:
        results, env = measure(configs, Path(work))
    report = ledger(results, env)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for name, c in report["configs"].items():
        print(f"{name:<28}{c['median_s']:8.3f} s  {c['outcome']}")
    print(f"{'total':<28}{report['total_median_s']:8.3f} s  "
          f"({RUNS} runs per config)")
    print(f"{'round totals':<28}" + "  ".join(f"{t:.3f}" for t in report["round_totals_s"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
