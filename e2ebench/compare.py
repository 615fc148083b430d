#!/usr/bin/env python3
"""Compares benchmark runs of a base commit and a change, metric by metric.

    python3 e2ebench/compare.py base.jsonl change.jsonl

Each file holds one run.py result per line (its last stdout line), in the
order the runs were made; line k of both files forms pair k, so make the
runs alternately (base, change, change, base, ...) on the same seeds.

A metric is flagged as a regression when both hold (Kalibera & Jones,
"Rigorous Benchmarking in Reasonable Time", ISMM 2013, applied as paired
runs):
  * the change is worse in at least nine tenths of the pairs (ties count
    for neither side), and
  * the medians differ by more than the base runs' own spread, the distance
    between their first and third quartiles.
It is also reported when the change's median is worse than the base's by
more than the metric's bound in BENCHMARK.json.  Exit status 1 when any
metric is flagged.
"""

import json
import statistics
import sys
from pathlib import Path

WIN_SHARE = 0.9


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def compare_metric(base, change, better):
    """Compares paired samples of one metric; returns a dict with the
    verdict ("regression", "improvement" or "unchanged") and its evidence."""
    if len(base) != len(change) or not base:
        raise ValueError("base and change need the same, non-zero run count")
    sign = 1.0 if better == "lower" else -1.0
    worse = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    better_count = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
    med_b, med_c = statistics.median(base), statistics.median(change)
    spread = quartile_spread(base)
    distinct = abs(med_c - med_b) > spread
    verdict = "unchanged"
    if worse >= WIN_SHARE * len(base) and distinct:
        verdict = "regression"
    elif better_count >= WIN_SHARE * len(base) and distinct:
        verdict = "improvement"
    return {"verdict": verdict, "pairs": len(base), "worse_pairs": worse,
            "better_pairs": better_count, "base_median": med_b,
            "change_median": med_c, "base_spread": spread,
            "relative_change": (med_c - med_b) / med_b if med_b else 0.0}


def load_runs(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent /
                       "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load_runs(argv[1]), load_runs(argv[2])
    flagged = False
    for name in base[0]["metrics"]:
        info = metrics.get(name)
        if info is None:
            continue
        r = compare_metric([run["metrics"][name]["value"] for run in base],
                           [run["metrics"][name]["value"] for run in change],
                           info["better"])
        bound = info.get("bound")
        over_bound = bound is not None and r["base_median"] and (
            (r["change_median"] - r["base_median"]) / r["base_median"] *
            (1 if info["better"] == "lower" else -1) > bound)
        flagged = flagged or r["verdict"] == "regression" or over_bound
        note = " (beyond bound)" if over_bound else ""
        print(f"{name}: {r['verdict']}{note}  base {r['base_median']:.6g}"
              f" -> change {r['change_median']:.6g} {info['unit']}"
              f" ({100 * r['relative_change']:+.2f}%), worse in "
              f"{r['worse_pairs']}/{r['pairs']} pairs, base spread "
              f"{r['base_spread']:.3g}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
