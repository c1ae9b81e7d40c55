"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE NEW [--benchmark BENCHMARK.json]

``BASE`` and ``NEW`` are directories (or lists of files, comma-separated)
holding the records ``perfbench/run.py`` writes to ``perfbench/results``.
For each workload and metric the report gives each side's median and
quartiles, the pair win-rate of NEW over BASE (runs paired by seed, else
by order; ties count for neither), and for end-to-end metrics a verdict
against the metric's bound in ``BENCHMARK.json``:

* ``better``: NEW wins at least nine pairs in ten and the medians differ
  by more than BASE's quartile spread;
* ``unresolved``: either side's quartile spread, as a share of its
  median, is wider than the bound, and not every NEW run beats every
  BASE run;
* ``worse``: NEW's median is worse than BASE's by more than the bound;
* ``no worse``: otherwise.

Exits 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys


def load(spec: str) -> dict:
    """``{(workload, trace): {seed: metrics}}`` from a directory or a
    comma-separated list of record files."""
    if os.path.isdir(spec):
        paths = sorted(glob.glob(os.path.join(spec, "*-trace[01].json")))
    else:
        paths = spec.split(",")
    runs: dict = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        if "result" not in record:
            continue
        trace = 1 if "trace.makespan_s" in record["result"]["metrics"] else 0
        key = (record["workload"], trace)
        runs.setdefault(key, {})[record["seed"]] = {
            name: item["value"] for name, item in record["result"]["metrics"].items()}
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new, better: str, bound: float | None) -> tuple[float, str]:
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    win_rate = wins / len(pairs) if pairs else 0.0
    if bound is None:
        return win_rate, "-"
    b1, bmed, b3 = quartiles(base)
    n1, nmed, n3 = quartiles(new)
    spread = max((b3 - b1) / abs(bmed) if bmed else 0.0,
                 (n3 - n1) / abs(nmed) if nmed else 0.0)
    all_better = all(sign * (n - b) > 0 for n in new for b in base)
    worsening = -sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
    if spread > bound and not all_better:
        return win_rate, "unresolved"
    if win_rate >= 0.9 and sign * (nmed - bmed) > (b3 - b1):
        return win_rate, "better"
    if worsening > bound:
        return win_rate, "worse"
    return win_rate, "no worse"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(args.base), load(args.new)
    worse = False
    header = (f"{'workload':<13} {'metric':<24} {'base q1/median/q3':<34} "
              f"{'new q1/median/q3':<34} {'win':>5}  verdict")
    print(header)
    print("-" * len(header))
    for key in sorted(set(base) & set(new)):
        workload, _ = key
        seeds = sorted(set(base[key]) & set(new[key]))
        if seeds:
            base_runs = [base[key][s] for s in seeds]
            new_runs = [new[key][s] for s in seeds]
        else:
            base_runs = [base[key][s] for s in sorted(base[key])]
            new_runs = [new[key][s] for s in sorted(new[key])]
        for metric in base_runs[0]:
            if metric not in better or metric not in new_runs[0]:
                continue
            b = [run[metric] for run in base_runs]
            n = [run[metric] for run in new_runs]
            win_rate, result = verdict(b, n, better[metric], bounds.get(metric))
            worse |= result == "worse"
            bq, nq = quartiles(b), quartiles(n)
            print(f"{workload:<13} {metric:<24} "
                  f"{'/'.join(f'{v:.4g}' for v in bq):<34} "
                  f"{'/'.join(f'{v:.4g}' for v in nq):<34} {win_rate:>5.2f}  {result}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
