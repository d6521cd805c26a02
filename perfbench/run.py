#!/usr/bin/env python3
"""End-to-end benchmark of the saga library's stream front end: the work
every window of a live IMU stream passes before inference (stream::Session
push and poll, data::preprocess_window), for 16 and for 256 sessions, with
the set-up of the paper model's fp32 artifact and the sessions' traces.

    python3 perfbench/run.py --workload paper|fleet --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Builds the library and the benchmark (Release) under .bench_build/, then runs
rounds of saga_perf, each in a fresh process that sets up from scratch and
runs the stream ingest phase. A round that dies loses the windows it had not
finished: they count as attempted and failed, and nothing is retried.
Samples are pooled across rounds; the last line printed is one JSON object
with "correct", "attempted", "failed" and "metrics".

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones. The
inputs depend only on --seed. --seconds sets the number of rounds, so every
run with the same --seconds attempts the same work.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(CMAKE_DIR, "saga_perf")
RUNS_DIR = os.path.join(BUILD_ROOT, "runs")
WORKLOADS = ("paper", "fleet")

# Nominal wall time of one round (process start, set-up, stream ingest);
# --seconds becomes a whole number of rounds with it.
ROUND_S = 7.0
MIN_ROUNDS = 5
RUN_DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "rss_mb": "MB",
    "stream.ingest_us": "us",
}

# Per-layer metrics that are the median of the same-named samples.
MEDIAN_LAYERS = {
    "models.build_s": "s",
    "serve.export_s": "s",
    "util.artifact_io_s": "s",
    "stream.trace_s": "s",
    "data.offline_s": "s",
    "stream.push_ns": "ns",
    "stream.poll_us": "us",
    "data.preprocess_us": "us",
    "trace.stream.ingest_us": "us",
    "cover.setup_pct": "%",
    "cover.stream.ingest_pct": "%",
}

# Tracing overhead: traced minus untraced rounds' medians in the same run.
OVERHEADS = {
    "trace.stream.overhead_us": ("trace.stream.ingest_us", "stream.ingest_us", "us"),
}

PER_LAYER = {**MEDIAN_LAYERS, **{name: unit for name, (_, _, unit) in OVERHEADS.items()}}


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures once and builds incrementally; a no-op build is ~1 s."""
    os.makedirs(CMAKE_DIR, exist_ok=True)
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", CMAKE_DIR, "--target", "saga_perf", "-j", jobs],
                   check=True, stdout=sys.stderr)


def run_round(workload, seed, trace, round_index, smoke, deadline):
    """Runs one round in a fresh process.

    Returns (records, lost): the phases' end records, and [attempted, failed]
    for each planned phase the process did not finish (all its operations
    count as failed).
    """
    out_dir = os.path.join(RUNS_DIR, f"{workload}-s{seed}-t{trace}-r{round_index}")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--trace", str(trace),
           "--out", out_dir]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, _ = proc.communicate()
    plan, records = None, []
    for line in stdout.splitlines():
        if not line.startswith("{"):
            continue
        event = json.loads(line)
        if event["event"] == "plan":
            plan = event["phases"]
        elif event["event"] == "end":
            records.append(event)
    if plan is None:
        raise RuntimeError(f"saga_perf exited {proc.returncode} before planning")
    ended = {r["phase"] for r in records}
    lost = [[attempts, attempts] for phase, attempts in plan if phase not in ended]
    if proc.returncode != 0:
        log(f"round {round_index}: saga_perf exited {proc.returncode}; lost "
            + ", ".join(p for p, _ in plan if p not in ended))
    return records, lost


def median(values):
    return statistics.median(values) if values else None


def aggregate(records, trace):
    pooled = {}
    for record in records:
        for name, values in record["samples"].items():
            pooled.setdefault(name, []).extend(values)
    if not trace:
        values = {name: median(pooled.get(name, [])) for name in END_TO_END}
        units = END_TO_END
    else:
        values = {name: median(pooled.get(name, [])) for name in MEDIAN_LAYERS}
        for name, (traced, plain, _) in OVERHEADS.items():
            if pooled.get(traced) and pooled.get(plain):
                values[name] = median(pooled[traced]) - median(pooled[plain])
        units = PER_LAYER
    return {name: {"value": values.get(name), "unit": unit} for name, unit in units.items()}


def run(workload, seed, seconds, trace, smoke):
    build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    rounds = max(MIN_ROUNDS, round(seconds / ROUND_S))
    if smoke:
        rounds = 2 if trace else 1
    elif trace:
        rounds = max(2 * MIN_ROUNDS, rounds)
    records, attempted, failed = [], 0, 0
    for round_index in range(rounds):
        # A traced run alternates untraced and traced rounds: the untraced
        # ones give the baseline its tracing overhead is measured against.
        traced = trace and round_index % 2 == 1
        round_records, lost = run_round(workload, seed, int(traced), round_index, smoke,
                                        deadline)
        records += round_records
        for record in round_records:
            attempted += record["attempted"]
            failed += record["failed"]
        for phase_attempted, phase_failed in lost:
            attempted += phase_attempted
            failed += phase_failed
    # A failed check already counts its phase's operations as failed;
    # "correct" speaks of the operations that did not fail, plus the
    # set-up checks, which have no operations of their own.
    correct = all(ok for r in records if r["failed"] == 0 for ok in r["checks"].values())
    for record in records:
        if record["notes"]:
            log(f"{record['phase']}: " + "; ".join(record["notes"]))
    metrics = aggregate(records, trace)
    missing = [name for name, m in metrics.items() if m["value"] is None]
    if missing:
        raise RuntimeError("no samples for " + ", ".join(missing))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def smoke():
    """Every phase of every workload at a tiny budget, in both modes; fails
    when a printed name or unit disagrees with BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    workloads = [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in workloads:
        for trace in (0, 1):
            result = run(workload, 1, 1.0, trace, smoke=True)
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != expected[trace]:
                ok = False
                for name in sorted(set(printed) | set(expected[trace])):
                    if printed.get(name) != expected[trace].get(name):
                        log(f"{workload} trace {trace}: {name} printed "
                            f"{printed.get(name)!r}, BENCHMARK.json {expected[trace].get(name)!r}")
            if not result["correct"] or result["failed"]:
                ok = False
                log(f"{workload} trace {trace}: correct={result['correct']} "
                    f"failed={result['failed']}/{result['attempted']}")
            log(f"smoke {workload} trace {trace}: {len(printed)} metrics")
    print(json.dumps({"smoke": "ok" if ok else "mismatch"}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, args.trace, smoke=False)
    except (subprocess.CalledProcessError, RuntimeError, OSError) as error:
        log(f"failed: {error}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
