#!/usr/bin/env python3
"""Compare two artifact trees written by run_all_acceptance.py, number by number.

For each file that differs between the trees, the script prints one line
per CSV column or JSON key that differs: the largest change, relative to
the largest magnitude of that column or array in A, then the largest
absolute change. A JSON list of numbers (nested or not) is one array; a
JSON scalar is an array of one. Two NaNs read as equal. Text that is not
a number (plot scripts, strings, flags) is reported as changed when it
differs. The manifests are skipped: they record wall-clock times and hash
the other files. Exits 0 when nothing differs and 1 otherwise.

Example:
    PYTHONPATH=src python scripts/run_all_acceptance.py --out out/a
    ... change something ...
    PYTHONPATH=src python scripts/run_all_acceptance.py --out out/b
    python scripts/compare_artifacts.py out/a out/b
"""

import argparse
import json
import math
import sys
from pathlib import Path

SKIPPED = {"manifest.json"}


def _number(v):
    """``v`` as a float, or None when it is not a number."""
    if isinstance(v, bool):
        return None
    try:
        return float(v)
    except (TypeError, ValueError):
        return None


def _flatten(node, key=""):
    """(key path, list of leaves) for every array or scalar in a JSON value."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _flatten(v, f"{key}.{k}" if key else k)
    elif isinstance(node, list) and any(isinstance(v, dict) for v in node):
        for i, v in enumerate(node):
            yield from _flatten(v, f"{key}[{i}]")
    elif isinstance(node, list):
        leaves = []
        for v in node:
            leaves.extend(leaf for _, sub in _flatten(v) for leaf in sub)
        yield key, leaves
    else:
        yield key, [node]


def _columns(path: Path) -> dict:
    """Key -> list of values: CSV columns by header, JSON arrays by key path."""
    if path.suffix == ".csv":
        header, *rows = path.read_text().strip().splitlines()
        cells = [row.split(",") for row in rows]
        return {name: [row[i] for row in cells]
                for i, name in enumerate(header.split(","))}
    if path.suffix == ".json":
        return dict(_flatten(json.loads(path.read_text())))
    return {"text": [path.read_text()]}


def _change(a: list, b: list) -> str | None:
    """How far ``b`` moved from ``a``, or None when they agree."""
    if len(a) != len(b):
        return f"length {len(a)} -> {len(b)}"
    worst = scale = 0.0
    for x, y in zip(a, b):
        fx, fy = _number(x), _number(y)
        if fx is None or fy is None:
            if x != y:
                return "changed"
            continue
        if math.isfinite(fx):
            scale = max(scale, abs(fx))
        if fx == fy or (math.isnan(fx) and math.isnan(fy)):
            continue
        d = abs(fx - fy)
        worst = max(worst, d if not math.isnan(d) else math.inf)
    if worst == 0.0:
        return None
    rel = worst / scale if scale > 0 else math.inf
    return f"rel {rel:.2e}  abs {worst:.2e}"


def compare(root_a: Path, root_b: Path) -> list[str]:
    """One line per differing key, and per file found in one tree only."""
    names = {p.relative_to(root).as_posix()
             for root in (root_a, root_b) for p in root.rglob("*")
             if p.is_file() and p.name not in SKIPPED}
    lines = []
    for name in sorted(names):
        pa, pb = root_a / name, root_b / name
        if not (pa.is_file() and pb.is_file()):
            lines.append(f"{name}  only in {'A' if pa.is_file() else 'B'}")
            continue
        if pa.read_bytes() == pb.read_bytes():
            continue
        ca, cb = _columns(pa), _columns(pb)
        for key in sorted(ca.keys() | cb.keys()):
            if key not in ca or key not in cb:
                lines.append(f"{name}  {key}  only in {'A' if key in ca else 'B'}")
                continue
            moved = _change(ca[key], cb[key])
            if moved is not None:
                lines.append(f"{name}  {key}  {moved}")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path, help="output root of the first run")
    ap.add_argument("b", type=Path, help="output root of the second run")
    args = ap.parse_args()
    lines = compare(args.a, args.b)
    for line in lines:
        print(line)
    files = len({line.split("  ")[0] for line in lines})
    print(f"{files} files differ" if files else "no differences")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
