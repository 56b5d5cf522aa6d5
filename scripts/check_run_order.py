#!/usr/bin/env python3
"""Rerun every shipped config in reverse order and compare artifact hashes.

Artifacts must not depend on the order in which configs run in one
process. The script reads the manifest.json files that a forward run of
run_all_acceptance.py left under FORWARD, reruns every config in reverse
name order into OUT, and exits 1 if any artifact's sha256 differs from
its forward manifest, or if a config fails in only one of the two runs.

Example:
    PYTHONPATH=src python scripts/run_all_acceptance.py --out out/acceptance
    PYTHONPATH=src python scripts/check_run_order.py out/acceptance out/reverse
"""

import argparse
import json
import sys
from pathlib import Path

from semiper.cli import run
from semiper.errors import SemiperError


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("forward", help="output root of a forward acceptance run")
    ap.add_argument("out", help="output root for the reverse run")
    args = ap.parse_args()

    cfg_dir = Path(__file__).resolve().parent.parent / "configs"
    configs = sorted(cfg_dir.glob("*.json"), reverse=True)
    differ = []
    for cfg in configs:
        manifest = Path(args.forward) / cfg.stem / "manifest.json"
        try:
            outputs = run(cfg, out_dir=Path(args.out) / cfg.stem).outputs
        except SemiperError as e:
            # a config that fails by design (circle_obstruction) left no manifest
            if manifest.exists():
                differ.append(f"{cfg.stem}: {type(e).__name__} in the reverse run only")
            continue
        if not manifest.exists():
            differ.append(f"{cfg.stem}: no forward manifest")
            continue
        expected = {o["name"]: o["sha256"]
                    for o in json.loads(manifest.read_text())["outputs"]}
        got = {o["name"]: o["sha256"] for o in outputs}
        differ += [f"{cfg.stem}/{name}" for name in sorted(expected.keys() | got.keys())
                   if expected.get(name) != got.get(name)]

    for line in differ:
        print(f"differs: {line}")
    print(f"{len(configs)} configs in reverse order, {len(differ)} differences")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
