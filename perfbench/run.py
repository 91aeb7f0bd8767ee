"""Cold-start benchmark of frobgraph: one workload, one run.

    python3 perfbench/run.py --workload scan-simple --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workloads, their operations, expected
answers and the layer each per-layer metric belongs to are in
perfbench/workloads.json.

The run starts harness.py once to measure: that single-threaded interpreter
repeats passes over the workload until --seconds is spent.  Before and after
it, harness.py starts a few more times with --setup-only to time start-up
(spawn, interpreter, import, input generation); setup_s is the median of
those times at the reference speed (see probe_setup), in seconds.  The
result is the last line of standard output, one JSON object:

    --trace 0   wall_ref, cpu_ref (medians over passes of the pass time in
                reference units, see harness.SpeedSampler), setup_s,
                peak_rss_mb; raw seconds are printed above it
    --trace 1   per-layer self times and counts of traced passes, and the
                tracing overhead; spans are written to .bench_out/

An operation that raises or answers wrongly counts in "failed"; the run then
reports "correct": false and exits with 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
HARNESS = BENCH_DIR / "harness.py"
SETUP_PROBES = 8  # before and again after the measuring worker
# The reference speed: harness.reference_chunk takes this long (about its
# time on the 2-vCPU Xeon host the benchmark was sized on).  It only turns
# the ratio start-up / chunk time into seconds; comparisons do not depend on it.
REF_CHUNK_S = 0.0005
WORKER_GRACE_S = 120  # past --seconds: the last pass and the process exit


def declared_metrics(kind):
    """Metric name -> unit, for BENCHMARK.json's "end_to_end" or "per_layer"."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def spawn(args):
    """Start the worker and wait for its "ready"; returns (process, seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HARNESS), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker failed to start (exit code {proc.returncode})")
    return proc, elapsed


def probe_setup(common):
    """Start-up of SETUP_PROBES workers: (raw seconds, seconds at reference speed).

    The host's speed swings up to 2x with other tenants' load.  Each probe
    times harness.reference_chunk (CPU time) once ready; its start-up time
    scaled by REF_CHUNK_S / that chunk time is the start-up at the reference
    speed.
    """
    times = []
    for _ in range(SETUP_PROBES):
        proc, elapsed = spawn([*common, "--seconds", "0", "--setup-only"])
        out, _ = proc.communicate()
        if proc.returncode != 0:
            raise SystemExit(f"setup probe exited with {proc.returncode}")
        times.append((elapsed, elapsed * REF_CHUNK_S / float(out)))
    return times


def machine_facts():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description="frobgraph cold-start benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "frobgraph" / "__init__.py").is_file():
        print(f"error: no frobgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    facts = machine_facts()
    print(f"machine: {json.dumps(facts)}", flush=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = probe_setup(common)

    proc, _ = spawn([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)])
    try:
        out, _ = proc.communicate(timeout=args.seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("worker overran its time budget")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    setups += probe_setup(common)

    for line in result["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    passes = result["passes"]
    print(f"passes: {len(passes)}  wall_s each: {[round(p['wall_s'], 4) for p in passes]}")
    print("raw medians: wall_s {:.4f}  cpu_s {:.4f}  reference chunk {:.6f} CPU s".format(
        *(statistics.median(p[k] for p in passes) for k in ("wall_s", "cpu_s", "chunk_cpu_s"))),
        f" setup {statistics.median(raw for raw, _ in setups):.4f} s")
    if args.trace:
        for name, t in sorted(result["trace"]["layers"].items(), key=lambda kv: -kv[1]):
            print(f"  {name:28s} {t:9.4f} s self")
        print(f"spans: {harness.spans_file(args.workload, args.seed).relative_to(ROOT)}")
    report = summarize(result, setups, args.trace)
    print(f"error_rate: {report['failed'] / report['attempted']:.6f} "
          f"({report['failed']} of {report['attempted']} operations)")
    print(json.dumps(report))
    return 0 if report["correct"] else 1


def summarize(result, setups, trace):
    """The result line: every metric BENCHMARK.json declares for this mode."""
    passes = result["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    stable = True
    if trace:
        tr = result["trace"]
        attempted += tr["attempted"]
        failed += tr["failed"]
        stable = tr["counts_stable"]
        if not stable:
            print("FAILED traced counts differ between passes", file=sys.stderr)
        # a layer the workload never enters measured no time and no work
        values = {**tr["layers"], **tr["counts"]}
        values["trace.total_s"] = tr["traced_total_s"]
        values["trace.overhead_s"] = tr["overhead_s"]
        declared = declared_metrics("per_layer")
    else:
        values = {
            "wall_ref": statistics.median(p["wall_ref"] for p in passes),
            "cpu_ref": statistics.median(p["cpu_ref"] for p in passes),
            "setup_s": statistics.median(scaled for _, scaled in setups),
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
        }
        declared = declared_metrics("end_to_end")
    return {
        "correct": failed == 0 and stable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in declared.items()
        },
    }


if __name__ == "__main__":
    sys.exit(main())
