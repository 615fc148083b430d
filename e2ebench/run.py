#!/usr/bin/env python3
"""End-to-end sampling benchmark for lsample.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload dense-coloring --seed 1 \
        --seconds 10 --trace 0

It builds the library and the e2ebench program from the checkout's sources
(Release, into .bench_build/e2ebench), runs the workload in fresh processes
and prints every metric with its unit.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.  A full
record (hardware fingerprint, every metric, raw samples) goes to
.bench_build/e2ebench/results/, and the traced run's spans to
.bench_build/e2ebench/traces/ (Chrome Trace Event Format).
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "e2ebench"
BENCH_BIN = BUILD_DIR / "e2ebench"
CLI = BUILD_DIR / "lsample" / "examples" / "sampler_cli"
COUNTS_LEDGER = BUILD_DIR / "exact_counts.json"

# Fresh processes per end-to-end run.  Each one's first facade call is a
# setup_s sample, and each measures an equal share of the run's seconds;
# pooling them averages out per-process state (page placement, the cores the
# threads land on).  csp-batch pools more: its process medians spread most
# (its calls start two short-lived thread pools each), and its processes are
# the cheapest to start.  Process p draws inputs from p * INPUTS_PER_PROCESS
# on, so a run samples distinct inputs.
WARM_PROCESSES = {"csp-batch": 6}
DEFAULT_WARM_PROCESSES = 3
INPUTS_PER_PROCESS = 100000
THREADS = 4
# Exact counts of the traced run that must repeat exactly across runs of one
# build, workload and seed.
TRACE_EXACT_COUNTS = ("mrf.tables", "local.messages_per_round",
                      "local.bits_per_round", "chains.stop.rounds_used",
                      "chains.stop.budget_rounds")
MODULES = ("mrf", "chains", "csp", "local")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures once and builds e2ebench and sampler_cli (a no-op when up
    to date).  Build output goes to stderr."""
    if not (ROOT / "src" / "core" / "sampler.hpp").is_file():
        raise RuntimeError(f"no lsample sources under {ROOT}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", str(THREADS),
                    "--target", "e2ebench", "sampler_cli"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def die_with_parent():
    """Runs in each child before exec: SIGTERM it when run.py dies, so no
    measurement process outlives the run."""
    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


def run_e2ebench(mode, workload, seed, *extra, timeout=150):
    """Runs the e2ebench program in a fresh process; returns its JSON line."""
    cmd = [str(BENCH_BIN), mode, "--workload", workload, "--seed", str(seed),
           *map(str, extra)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                         timeout=timeout, preexec_fn=die_with_parent)
    if out.stderr:
        log(out.stderr.rstrip())
    return json.loads(out.stdout.strip().splitlines()[-1])


def read_first(path, default="unknown"):
    try:
        return Path(path).read_text().strip().splitlines()[0]
    except (OSError, IndexError):
        return default


def fingerprint_commit():
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True,
                timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return commit


def host_calibration_s():
    """Median time of a fixed single-threaded Python loop.  It does not
    touch the library, so a change in it between runs is a change in the
    host's speed, not in the program."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def cpu_ticks():
    """(steal, total) CPU ticks of the whole machine, from /proc/stat."""
    fields = [int(x) for x in
              Path("/proc/stat").read_text().splitlines()[0].split()[1:]]
    return fields[7], sum(fields[:8])


def fingerprint(seed):
    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache_dir.glob("index*")):
        level = read_first(idx / "level")
        kind = read_first(idx / "type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = read_first(idx / "size")
    ram_kb = 0
    for line in Path("/proc/meminfo").read_text().splitlines():
        if line.startswith("MemTotal:"):
            ram_kb = int(line.split()[1])
    cache_vars = {}
    for line in (BUILD_DIR / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            cache_vars[key.split(":", 1)[0]] = value
    compiler = cache_vars.get("CMAKE_CXX_COMPILER", "c++")
    try:
        compiler_version = subprocess.run(
            [compiler, "--version"], capture_output=True, text=True,
            timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        compiler_version = compiler
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "ram_mb": round(ram_kb / 1024),
        "compiler": compiler_version,
        "build_type": cache_vars.get("CMAKE_BUILD_TYPE", "unknown"),
        "git_commit": fingerprint_commit(),
        "kernel": platform.release(),
        "workload_seed": seed,
        "host_calibration_s": host_calibration_s(),
    }


def build_id():
    """Identifies the program under test: the commit, when the checkout is a
    git repository, and a hash of the two binaries run.py runs."""
    digest = hashlib.sha256()
    for binary in (BENCH_BIN, CLI):
        digest.update(binary.read_bytes())
    return f"{fingerprint_commit()}/{digest.hexdigest()[:16]}"


def check_exact_counts(key, counts):
    """Compares this run's exact counts with earlier runs of the same build,
    workload, seed and mode; returns the names that differ."""
    ledger = {}
    if COUNTS_LEDGER.is_file():
        ledger = json.loads(COUNTS_LEDGER.read_text())
    seen = ledger.setdefault(f"{build_id()}/{key}", {})
    mismatched = [name for name, value in counts.items()
                  if name in seen and seen[name] != value]
    for name, value in counts.items():
        seen.setdefault(name, value)
    COUNTS_LEDGER.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    return mismatched


def run_cli(seed):
    """Times sampler_cli as a whole process on a 200x200 torus, q=14
    coloring, LocalMetropolis through the LOCAL network backend; returns
    (wall seconds, peak RSS in MB)."""
    cmd = [str(CLI), "torus", "200", "coloring", "14", "lm", str(seed),
           str(THREADS), "1", "network"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL,
                            preexec_fn=die_with_parent)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"sampler_cli exited {proc.returncode}")
    return wall, usage.ru_maxrss / 1024.0


def end_to_end(args):
    attempted = failed = samples = 0
    setups, latencies, loop_s = [], [], 0.0
    raw = []
    processes = WARM_PROCESSES.get(args.workload, DEFAULT_WARM_PROCESSES)
    for p in range(processes):
        extra = ["--seconds", args.seconds / processes,
                 "--first-input", p * INPUTS_PER_PROCESS]
        if p > 0:
            extra += ["--skip-recheck", 1]
        warm = run_e2ebench("warm", args.workload, args.seed, *extra)
        raw.append(warm)
        attempted += warm["attempted"]
        failed += warm["failed"]
        samples += warm["samples"]
        setups.append(warm["first_call_s"])
        latencies += warm["latencies_s"]
        loop_s += warm["loop_s"]
        counts = dict(warm["counts"])
        counts.update({f"rounds_used[{i}]": r
                       for i, r in enumerate(warm["rounds_used"])})
        mismatched = check_exact_counts(
            f"{args.workload}/seed{args.seed}/warm{p}", counts)
        for name in mismatched:
            log(f"exact count {name} differs from an earlier run of this seed")
        attempted += len(counts)
        failed += len(mismatched)
    metrics = {
        "samples_per_s": samples / loop_s,
        "call_p50_s": statistics.median(latencies),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(w["peak_rss_mb"] for w in raw),
    }
    return attempted, failed, metrics, {"warm_processes": raw}


def per_layer(args):
    attempted = failed = 0
    cold = run_e2ebench("cold", args.workload, args.seed)
    attempted += 1
    failed += 0 if cold["ok"] else 1
    trace_dir = BUILD_DIR / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = trace_dir / f"{args.workload}-seed{args.seed}.trace.json"
    traced = run_e2ebench("trace", args.workload, args.seed, "--seconds",
                          args.seconds, "--trace-out", trace_path)
    attempted += traced["attempted"]
    failed += traced["failed"]
    m = dict(traced["metrics"])

    # Call 0 ran twice, in the cold process and as the traced cold replay:
    # its exact counts must agree.
    for name, value in cold["counts"].items():
        attempted += 1
        if traced["cold_counts"][name] != value:
            log(f"exact count {name} of call 0: cold process {value}, "
                f"traced replay {traced['cold_counts'][name]}")
            failed += 1

    # Cold start: the excess of the cold facade call over the warm one, the
    # part the cold traced replay shows in each module (as a share of the
    # warm call), and the rest.
    excess = cold["call_s"] - m["core.call_s"]
    m["core.cold_excess_s"] = excess
    m["core.cold_unattributed_s"] = (excess - m["core.cold_replay_layers_s"]
                                     - m["core.cold_replay_self_s"])
    for mod in MODULES:
        m[f"{mod}.cold_share"] = m[f"{mod}.cold_s"] / m["core.call_s"]

    cli = [run_cli(args.seed) for _ in range(3)]
    attempted += len(cli)
    m["cli.wall_s"] = statistics.median(w for w, _ in cli)
    m["cli.peak_rss_mb"] = statistics.median(r for _, r in cli)

    counts = {name: m[name] for name in TRACE_EXACT_COUNTS}
    mismatched = check_exact_counts(f"{args.workload}/seed{args.seed}/trace",
                                    counts)
    for name in mismatched:
        log(f"exact count {name} differs from an earlier run of this seed")
    attempted += len(counts)
    failed += len(mismatched)
    raw = {"cold_call_s": cold["call_s"], "untraced_s": traced["untraced_s"],
           "trace_file": str(trace_path.relative_to(ROOT))}
    return attempted, failed, m, raw


def print_breakdown(workload, m):
    """The traced run's accounting, with the figures that are kept in the
    record only (they can be 0 or negative, so they are not metrics)."""
    print(f"{workload} shares of the warm call: " + ", ".join(
        f"{mod} {m[f'{mod}.share']:.3f}" for mod in (*MODULES, "core")))
    print(f"{workload} layer self times + core.self_s = "
          f"{m['core.accounted_s']:.6g} s; traced call "
          f"{m['core.traced_call_s']:.6g} s; untraced call "
          f"{m['core.call_s']:.6g} s; tracing overhead "
          f"{m['trace.overhead_s']:+.6g} s")
    print(f"{workload} cold start: excess {m['core.cold_excess_s']:+.6g} s "
          "over the warm call; by module, as a share of the warm call: " +
          ", ".join(f"{mod} {m[f'{mod}.cold_share']:+.3f}" for mod in MODULES)
          + f"; unattributed {m['core.cold_unattributed_s']:+.6g} s")
    print(f"{workload} core.call_tail_s is the "
          f"{m['core.call_tail_pct']:.0f}th percentile of "
          f"{m['core.calls']:.0f} untraced calls")


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
        fp = fingerprint(args.seed)
        steal0, total0 = cpu_ticks()
        measure = per_layer if args.trace else end_to_end
        attempted, failed, all_metrics, raw = measure(args)
        steal1, total1 = cpu_ticks()
        # The share of CPU time the hypervisor gave to other guests while
        # this run measured: wall times grow with it, the program's work
        # does not.
        fp["host_steal_share"] = (steal1 - steal0) / max(total1 - total0, 1)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"e2ebench: {e}")
        return 2

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [w["name"] for w in wanted if w["name"] not in all_metrics]
    if missing:
        log(f"e2ebench: metrics not measured: {missing}")
        return 2
    metrics = {w["name"]: {"value": all_metrics[w["name"]], "unit": w["unit"]}
               for w in wanted}
    correct = failed == 0

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "fingerprint": fp, "correct": correct, "attempted": attempted,
              "failed": failed, "failed_frac": failed / attempted,
              "metrics": all_metrics, "raw": raw}
    results = BUILD_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))

    print("fingerprint: " + json.dumps(fp))
    for name, mv in metrics.items():
        print(f"{args.workload} {name} = {mv['value']:.6g} {mv['unit']}")
    if args.trace:
        print_breakdown(args.workload, all_metrics)
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} "
          f"(failed {failed} of {attempted} attempted)")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
