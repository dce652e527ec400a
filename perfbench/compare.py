"""Per-workload, per-metric deltas between two sets of benchmark results.

Each side is a result file written by ``run.py`` or a directory of them.
Results are grouped by workload and trace mode; a side with several runs
of one group is summarised by the median of each metric.
"""

from __future__ import annotations

import glob
import json
import os
import statistics


def load(path) -> dict:
    files = sorted(glob.glob(os.path.join(path, "result-*.json"))) if os.path.isdir(path) else [path]
    groups: dict = {}
    for name in files:
        with open(name, encoding="utf-8") as fh:
            result = json.load(fh)
        key = (result["workload"], result["trace"])
        for metric, entry in result["metrics"].items():
            groups.setdefault(key, {}).setdefault(metric, (entry["unit"], []))[1].append(
                entry["value"])
    return groups


def main(old_path, new_path) -> int:
    old, new = load(old_path), load(new_path)
    for key in sorted(set(old) | set(new)):
        workload, trace = key
        print(f"{workload} (trace {trace})")
        print(f"  {'metric':44s} {'old':>12s} {'new':>12s} {'delta':>9s}  runs")
        a, b = old.get(key, {}), new.get(key, {})
        for metric in sorted(set(a) | set(b)):
            unit = (a.get(metric) or b.get(metric))[0]
            va = statistics.median(a[metric][1]) if metric in a else None
            vb = statistics.median(b[metric][1]) if metric in b else None
            delta = f"{(vb - va) / va:+9.1%}" if va and vb is not None else f"{'n/a':>9s}"
            runs = f"{len(a.get(metric, (0, []))[1])}/{len(b.get(metric, (0, []))[1])}"
            fa = f"{va:12.5g}" if va is not None else f"{'-':>12s}"
            fb = f"{vb:12.5g}" if vb is not None else f"{'-':>12s}"
            print(f"  {metric:44s} {fa} {fb} {delta}  {runs}  {unit}")
    return 0
