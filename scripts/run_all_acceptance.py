#!/usr/bin/env python3
"""Run every shipped config through the CLI driver and tabulate the results.

One config (circle_obstruction) deliberately pumps the conserved mode
and is expected to fail with KernelObstruction; its success, or a failure
of any other kind, would be a bug. Everything else must exit 0. A run that
raises anything is reported as a row of the table (traceback on stderr)
and the next config still runs. The script exits nonzero if any run lands
outside its expectation, or if the runs load a numpy or scipy module that
importing the package did not (such a lazy import is paid inside a run's
time; scipy.linalg, for one, should load only on an ill-conditioned
eigenbasis, which no shipped config has).
"""

import argparse
import sys
import time
import traceback
from pathlib import Path

from semiper.cli import run
from semiper.errors import KernelObstruction

EXPECTED_FAILURES = {"circle_obstruction": KernelObstruction}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--configs", default=None,
                    help="config directory (default: ../configs next to this script)")
    ap.add_argument("--out", default="out/acceptance",
                    help="root output directory")
    ap.add_argument("--only", nargs="*", default=None,
                    help="run only the named configs (stem names)")
    args = ap.parse_args()

    cfg_dir = Path(args.configs) if args.configs else \
        Path(__file__).resolve().parent.parent / "configs"
    configs = sorted(cfg_dir.glob("*.json"))
    if args.only:
        configs = [c for c in configs if c.stem in set(args.only)]
    if not configs:
        print(f"no configs found under {cfg_dir}", file=sys.stderr)
        return 2

    imported = set(sys.modules)
    failures = 0
    for cfg in configs:
        expected = EXPECTED_FAILURES.get(cfg.stem)
        t0 = time.perf_counter()
        try:
            manifest = run(cfg, out_dir=Path(args.out) / cfg.stem)
            elapsed = time.perf_counter() - t0
            if expected is not None:
                failures += 1
                status = f"UNEXPECTED PASS (expected {expected.__name__})"
            else:
                status = f"ok      {len(manifest.outputs):2d} files"
        except Exception as e:  # one config's fault must not hide the rest
            elapsed = time.perf_counter() - t0
            if expected is not None and isinstance(e, expected):
                status = f"ok (expected failure: {type(e).__name__})"
            else:
                failures += 1
                status = f"FAIL    {type(e).__name__}: {e}"
                traceback.print_exc()
        print(f"{cfg.stem:28s} {elapsed:7.2f}s  {status}")

    print(f"\n{len(configs)} configs, {failures} unexpected outcomes")
    loaded = sorted(m for m in set(sys.modules) - imported
                    if m.split(".")[0] in ("numpy", "scipy"))
    if loaded:
        print(f"runs loaded modules the imports did not: {', '.join(loaded)}")
    return 1 if failures or loaded else 0


if __name__ == "__main__":
    sys.exit(main())
