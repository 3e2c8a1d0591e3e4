#!/usr/bin/env python3
"""Build and run the repository's benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload

Builds perfbench/ (and with it the gpulibdb libraries from src/) into
.bench_build/perfbench, runs the unit test of the metric math, runs the
perfbench binary, and prints its report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 its per_layer metrics. Simulated figures are also checked against
the figures an earlier run of the same code recorded at the same seed (the
exactness ledger in .bench_build/perfbench/exact/<code hash>): any
difference is drift and fails the run. See perfbench/BENCH.md.
"""

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("serve_mix", "oneshot_libs", "scaleout")
RUN_TIMEOUT_S = 170
# The code whose simulated figures the exactness ledger holds.
HASHED_DIRS = ("src", "perfbench")

LIB_SIMS = tuple(f"sim_geomean_ms.{lib}" for lib in
                 ("thrust", "boost", "arrayfire", "handwritten", "hybrid"))
# Per-layer metrics of layers a workload never calls; they read 0 there.
# Every other per-layer metric must be reported by every workload.
BYPASSED = {
    "serve_mix": ("plan.sharded.", "plan.spill.", "backend.",
                  "sim_geomean_ms.", "gpusim.roofline_frac.hybrid_"),
    "oneshot_libs": ("serve.", "core.", "plan.sharded.", "plan.spill.",
                     "sim_geomean_ms.sharded4", "sim_geomean_ms.spill"),
    "scaleout": ("serve.", "core.", "backend.",
                 "gpusim.roofline_frac.hybrid_") + LIB_SIMS,
}

# The summary table `--workload all` prints: (metric, workload).
TABLE = [
    ("qps", "serve_mix"),
    ("latency_p50_ms", "serve_mix"),
    ("latency_p99_ms", "serve_mix"),
    ("latency_samples", "serve_mix"),
    ("interactive_latency_p99_ms", "serve_mix"),
    ("interactive_samples", "serve_mix"),
] + [(name, "oneshot_libs") for name in LIB_SIMS] + [
    ("sim_geomean_ms.sharded4", "scaleout"),
    ("sim_geomean_ms.spill", "scaleout"),
]
PER_WORKLOAD = ["wall_geomean_ms", "failed_share", "device_peak_mib", "setup_s"]


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then builds incrementally; output goes to a log."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no gpulibdb sources under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    with open(log_path, "w") as log:
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                          str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j4"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (see {log_path})")
    test = subprocess.run([str(BUILD / "perfbench_metrics_test")],
                          capture_output=True, text=True)
    if test.returncode != 0:
        print(test.stdout + test.stderr, file=sys.stderr)
        fail("metric-math unit test failed")


def run_binary(workload, seed, seconds, trace):
    rundir = BUILD / "run"
    rundir.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "perfbench"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", str(rundir / f"trace-{workload}-{seed}.json")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=rundir,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 3) or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail(f"{workload} exited with status {proc.returncode}", 1)
    sys.stderr.write(proc.stderr)
    return lines[:-1], json.loads(lines[-1])


def code_hash():
    """Content hash of every file under HASHED_DIRS, so that a ledger only
    ever compares runs of the same code."""
    h = hashlib.sha256()
    for top in HASHED_DIRS:
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode() + b"\0")
                h.update(path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def check_ledger(workload, seed, exact):
    """Compares simulated figures with an earlier run of the same code at the
    same seed; records figures not seen before. Returns the list of drifts."""
    path = BUILD / "exact" / code_hash() / f"{workload}-{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    ledger = json.loads(path.read_text()) if path.is_file() else {}
    drift = [f"{k}: {ledger[k]} earlier, {v} now"
             for k, v in sorted(exact.items()) if k in ledger and ledger[k] != v]
    if not drift:
        merged = {**exact, **ledger}
        if merged != ledger:
            path.write_text(json.dumps(merged, indent=0, sort_keys=True))
    return drift


def run_workload(spec, workload, seed, seconds, trace):
    report, raw = run_binary(workload, seed, seconds, trace)
    for line in report:
        print(line)
    drift = raw["drift"] + check_ledger(workload, seed, raw["exact"])
    for d in drift:
        print(f"  DRIFT {d}")
    correct = bool(raw["correct"]) and not drift
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics, missing = {}, []
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name in raw["metrics"]:
            metrics[name] = raw["metrics"][name]
            if metrics[name]["unit"] != unit:
                fail(f"{workload} reports {name} in "
                     f"{metrics[name]['unit']}, BENCHMARK.json in {unit}", 1)
        elif trace and name.startswith(BYPASSED[workload]):
            metrics[name] = {"value": 0, "unit": unit}
        else:
            missing.append(name)
    if missing and correct:
        fail(f"{workload} did not report {', '.join(missing)}", 1)
    if raw["first_error"]:
        print(f"perfbench: {workload}: {raw['first_error']}", file=sys.stderr)
    return {
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]) + len(drift),
        "metrics": metrics,
        "measured": raw["metrics"],
        "failed_share": raw["failed_share"],
    }


def print_table(results):
    print("perfbench: summary table (workload, metric, value, unit)")
    for name, workload in TABLE:
        m = results[workload]["measured"].get(name)
        if m is not None:
            print(f"  {workload:13s} {name:28s} {m['value']:16.6f} {m['unit']}")
    for workload in WORKLOADS:
        for name in PER_WORKLOAD:
            if name == "failed_share":
                value, unit = results[workload]["failed_share"], "ratio"
                attempted = results[workload]["attempted"]
                name = f"failed_share (of {attempted})"
            elif name in results[workload]["metrics"]:
                m = results[workload]["metrics"][name]
                value, unit = m["value"], m["unit"]
            else:
                continue
            print(f"  {workload:13s} {name:28s} {value:16.6f} {unit}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    build()

    if args.workload != "all":
        out = run_workload(spec, args.workload, args.seed, seconds, args.trace)
        del out["measured"], out["failed_share"]
        print(json.dumps(out))
        sys.exit(0 if out["correct"] else 3)

    results = {w: run_workload(spec, w, args.seed, seconds, args.trace)
               for w in WORKLOADS}
    if not args.trace:
        print_table(results)
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{n}": m for w, r in results.items()
                    for n, m in r["metrics"].items()},
    }
    print(json.dumps(combined))
    sys.exit(0 if combined["correct"] else 3)


if __name__ == "__main__":
    main()
