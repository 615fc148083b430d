#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's median and
spread (interquartile range as a share of the median).

    python3 e2ebench/spread.py --runs 10 [--first-seed 1] [--trace 0]
                               [--workload NAME ...]

Runs are made one after another from the root of a checkout, on seeds
first-seed, first-seed+1, ...  Every result line is appended to
.bench_build/e2ebench/runs/<workload>-trace<t>.jsonl, the input format of
compare.py.  A spread above a third of the metric's bound is marked "!".
Each run's host calibration (a fixed Python loop timed by run.py) and the
share of CPU time stolen by the hypervisor during the run, both kept in
the run's record, are summarised the same way: they move with the host
only, so they tell a drift of the host from a change of the program.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    out_dir = ROOT / ".bench_build" / "e2ebench" / "runs"
    ok = True
    for workload in args.workload:
        runs = []
        calibration = []
        steal = []
        for k in range(args.runs):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
                   workload, "--seed", str(args.first_seed + k), "--seconds",
                   str(spec["run_seconds"]), "--trace", str(args.trace)]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                print(out.stderr, file=sys.stderr)
                raise SystemExit(f"{workload}: run.py exited {out.returncode}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            record = json.loads((ROOT / ".bench_build" / "e2ebench" /
                                 "results" / f"{workload}-seed"
                                 f"{args.first_seed + k}-trace{args.trace}"
                                 ".json").read_text())
            calibration.append(record["fingerprint"]["host_calibration_s"])
            steal.append(record["fingerprint"]["host_steal_share"])
            ok = ok and result["correct"]
            runs.append(result)
            out_dir.mkdir(parents=True, exist_ok=True)
            jsonl = out_dir / f"{workload}-trace{args.trace}.jsonl"
            with open(jsonl, "a") as f:
                f.write(json.dumps(result) + "\n")
        print(f"{workload}: {args.runs} runs, all correct: "
              f"{all(r['correct'] for r in runs)}")
        series = {name: ([r["metrics"][name]["value"] for r in runs],
                         runs[0]["metrics"][name]["unit"])
                  for name in runs[0]["metrics"]}
        series["host calibration"] = (calibration, "s")
        series["host steal share"] = (steal, "ratio")
        for name, (values, unit) in series.items():
            med = statistics.median(values)
            q = (statistics.quantiles(values, n=4) if len(values) > 1
                 else [med] * 3)
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = bounds.get(name)
            mark = "!" if bound is not None and spread > bound / 3 else " "
            print(f"  {mark} {name:32s} median {med:.6g} "
                  f"{unit:6s} spread {spread:.4f}"
                  + (f" (bound {bound})" if bound is not None else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
