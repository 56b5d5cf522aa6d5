"""Child processes of the benchmark.

    python3 perfbench/child.py serve
    python3 perfbench/child.py probe

``serve`` is a fork server. It imports ``semiper.cli`` once, in a fresh
interpreter, then reads one JSON job per line on stdin. For each job it
forks a child that runs the config through ``semiper.cli.run`` and writes
the job's result file. It waits for that child and replies with one JSON
line: the child's exit code and peak RSS. The server itself never runs a
config, so every child starts from a freshly imported package with cold
process-level caches (such as the Gauss-Legendre rule cache in
``models``), as a fresh ``semiper run`` does, without paying the
interpreter start and the imports once per config.

``probe`` measures set-up the way a user pays it: from interpreter start
to ``import semiper.cli`` plus the schema load. The start is
``PERFBENCH_SPAWN_T``, the parent's ``time.monotonic()`` just before it
started the probe. The probe prints the seconds.
"""

import json
import os
import signal
import sys
import time
import traceback

# A forked child that runs longer than this is killed by SIGALRM.
CHILD_TIMEOUT_S = 120


def _library_env() -> dict:
    import numpy as np
    import scipy

    env = {"python": sys.version.split()[0], "numpy": np.__version__,
           "scipy": scipy.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas_name"] = blas.get("name", "unknown")
        env["blas_version"] = blas.get("version", "unknown")
    except (TypeError, KeyError):
        env["blas_name"] = env["blas_version"] = "unknown"
    return env


def _forcing_l1(cli, cfg: dict, seed: int) -> float:
    """L1 norm in time of the config's forcing, as criterion 2 gates on it."""
    import numpy as np
    from semiper.forcing import check_class

    bundle = cli.build_bundle(cfg)
    f = cli.build_forcing(bundle, cfg["forcing"], np.random.default_rng(seed))
    return check_class(f, 0).l1_norm


def run_job(cli, job: dict) -> dict:
    """Run one config in this (forked) process; the result record.

    With ``trace`` the spans of ``spans.py`` are installed first. The
    forcing norm and the environment are computed after the timed run,
    with the recorder off.
    """
    from semiper.errors import SemiperError

    result = {}
    rec = None
    run = cli.run
    if job["trace"]:
        import spans
        rec = spans.Recorder()
        spans.install(rec)
        run = rec.span("cli.run", cli.run)

    start = time.perf_counter()
    try:
        run(job["config"], out_dir=job["out_dir"], seed=job["seed"])
    except SemiperError as e:
        result["error"] = f"{type(e).__module__}.{type(e).__name__}"
    result["run_s"] = time.perf_counter() - start

    if rec is not None:
        rec.enabled = False
        result["trace"] = rec.to_dict()
    with open(job["config"], encoding="utf-8") as fh:
        cfg = json.load(fh)
    if cfg["task"] == "periodic_solve" and "error" not in result:
        result["forcing_l1"] = _forcing_l1(cli, cfg, job["seed"])
    if job["env"]:
        result["env"] = _library_env()
    return result


def _child(cli, job: dict):
    """Body of a forked child; never returns."""
    code = 1
    try:
        os.dup2(2, 1)           # stdout carries the server's replies
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            result = run_job(cli, job)
            code = 0
        except Exception:
            result = {"crash": traceback.format_exc()}
        with open(job["result"], "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    finally:
        os._exit(code)


def serve() -> int:
    import semiper.cli as cli

    cli.load_schema()
    while line := sys.stdin.readline():
        job = json.loads(line)
        pid = os.fork()
        if pid == 0:
            _child(cli, job)
        _, status, usage = os.wait4(pid, 0)
        print(json.dumps({"exit": os.waitstatus_to_exitcode(status),
                          "maxrss_kb": usage.ru_maxrss}), flush=True)
    return 0


def probe() -> int:
    import semiper.cli as cli

    cli.load_schema()
    print(repr(time.monotonic() - float(os.environ["PERFBENCH_SPAWN_T"])))
    return 0


if __name__ == "__main__":
    sys.exit({"serve": serve, "probe": probe}[sys.argv[1]]())
