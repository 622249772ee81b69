#!/usr/bin/env python3
"""Run one dbpc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `dbpc-perfbench` binary from source (release, offline; the
target directory is `$CARGO_TARGET_DIR`, default `.bench_build`), then runs
repetitions of the workload for about `--seconds` (it starts no repetition
expected to end later, but makes at least a few), each in a fresh process
so the program's process-wide memos start cold. A repetition's
set-up time runs from launching it to its `READY` line.

With `--trace 0` it prints every end-to-end metric named in BENCHMARK.json,
as the median over the repetitions, with spans off. With `--trace 1` it
alternates untraced and traced repetitions of the same seed and prints
every per-layer metric (median over the traced ones, 0 for a layer the
workload does not reach), `trace.overhead_pct` (traced vs untraced wall
time of the measured work) and `trace.unattributed_pct`. Every other
metric a repetition measured is printed on its own line before the
result as `metric <name> <value> <unit>`. The last line is the JSON result;
the exit code is non-zero when the build or any repetition's correctness
check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench"

# Fewest repetitions a run makes, however long they take: a median of one
# is no median. A traced run makes this many untraced/traced pairs.
MIN_REPS = 3
MIN_PAIRS = 2
# Stop starting repetitions after this long, so a run ends in bounded
# time even on a slow machine.
HARD_STOP_S = 100.0
# A single repetition that runs longer than this is killed.
REP_TIMEOUT_S = 60.0


def load_spec():
    spec = json.loads(SPEC.read_text())
    return (
        [w["name"] for w in spec["workloads"]],
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def build():
    """Build the benchmark binary; return its path, or None on failure."""
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return None
    binary = target / "release" / "dbpc-perfbench"
    if done.returncode != 0 or not binary.exists():
        print("run.py: build failed", file=sys.stderr)
        return None
    return binary


def run_rep(binary, workload, seed, traced):
    """One repetition in a fresh process: (setup_s, result dict, exit code)."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    if traced:
        cmd += ["--trace-out", str(OUT / "trace" / f"{workload}.tsv")]
    env = dict(os.environ, TMPDIR=str(tmp))
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(REP_TIMEOUT_S, proc.kill)
    timer.start()
    setup_s, result = None, None
    try:
        for line in proc.stdout:
            if setup_s is None and line.strip() == "READY":
                setup_s = time.perf_counter() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    finally:
        code = proc.wait()
        timer.cancel()
    return setup_s, result, code


def median(values):
    return statistics.median(values) if values else 0.0


def aggregate(reps, names):
    """Median over repetitions of each named metric (0 where absent)."""
    return {
        name: median([r["metrics"][name][0] for r in reps if name in r["metrics"]])
        for name in names
    }


def details(reps, skip):
    """Every other metric the repetitions measured: name -> (median, unit)."""
    units = {}
    for r in reps:
        for name, (_, unit) in r["metrics"].items():
            if name not in skip:
                units.setdefault(name, unit)
    return {name: (aggregate(reps, [name])[name], unit) for name, unit in units.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        workloads, e2e, layer = load_spec()
    except (OSError, ValueError, KeyError) as e:
        print(f"run.py: cannot read {SPEC}: {e}", file=sys.stderr)
        return 2
    if args.workload not in workloads:
        print(f"run.py: unknown workload {args.workload}", file=sys.stderr)
        return 2
    binary = build()
    if binary is None:
        return 1

    traced = bool(args.trace)
    begin = time.perf_counter()
    reps = []  # (traced, setup_s, result)
    durations = []
    while True:
        rep_traced = traced and len(reps) % 2 == 1
        started = time.perf_counter()
        setup_s, result, code = run_rep(binary, args.workload, args.seed, rep_traced)
        durations.append(time.perf_counter() - started)
        if result is None or setup_s is None:
            print(f"run.py: repetition exited {code} without a result", file=sys.stderr)
            return 1
        reps.append((rep_traced, setup_s, result))
        if code != 0 or not result["correct"]:
            result["correct"] = False
            break
        elapsed = time.perf_counter() - begin
        enough = len(reps) >= (2 * MIN_PAIRS if traced else MIN_REPS)
        # Start another repetition (a traced run: another pair) only if it
        # should end within --seconds, so a run lasts about that long.
        step = median(durations) * (2 if traced else 1)
        if (enough and elapsed + step > args.seconds) or elapsed >= HARD_STOP_S:
            if not traced or len(reps) % 2 == 0:
                break

    results = [r for _, _, r in reps]
    plain = [r for t, _, r in reps if not t]
    if traced:
        spans = [r for t, _, r in reps if t]
        metrics = aggregate(spans, layer)
        metrics["trace.overhead_pct"] = 100.0 * (
            median([r["work_s"] for r in spans]) / median([r["work_s"] for r in plain]) - 1.0)
        units = layer
    else:
        metrics = aggregate(plain, e2e)
        metrics["setup_s"] = median([s for t, s, _ in reps if not t])
        units = e2e
    for name, (value, unit) in sorted(details(results, set(units)).items()):
        print(f"metric {name} {value!r} {unit}")
    correct = all(r["correct"] for r in results)
    for r in results:
        for p in r.get("problems", []):
            print(f"run.py: check failed: {p}", file=sys.stderr)
    out = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(out))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
