"""Run one workload of the xmodp benchmark and print its metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; it imports xmodp from src/ and writes
its files under .bench_work/.  Workloads (see mix.py and README.md):
sweep, embedding and ingest.

With --trace 0 it launches the workload process several times up to the
point where the first command is ready, to measure set-up, and then once
to drive the mix for --seconds through xmodp.cli.main.  It prints

  setup_s      seconds from launching the workload process until the first
               command is ready (interpreter start, import xmodp, generating
               and writing the seeded session files), the least of all
               launches of the run
  cmds_per_s   commands completed per second, one client in a closed
               loop, derived from the latencies: the number of commands in
               the mix over the sum of their latencies
  cmd_p50_ms   median latency of one cli.main call over the mix
  cmd_p90_ms   90th percentile latency over the mix (nearest rank)
  peak_rss_mb  peak resident memory of the workload process

A command's latency is the best of its calls over the run's timed passes,
since load from other jobs on the machine only ever adds time.  Each timed
pass runs on session files relabelled afresh for it, so a call never reads
an input seen before and memoisation keyed on the input gains nothing.
Each timed call and each set-up probe runs on whichever CPU is fastest
just before it (workload.pin_to_fastest_cpu).

and, outside the metrics, failed_ratio: commands whose answer was wrong
(exit code, exception, pass flag, invariants, or report bytes differing
between two calls on the same session file) over calls attempted.

With --trace 1 it runs the mix once to warm up and then runs each command
twice in a row, untraced and with every public xmodp function wrapped
(tracer.py).  It prints the per-layer metrics of the traced calls and
trace.overhead_s, their time in cli.main minus that of the untraced ones.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import mix
import workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD = BENCH / "workload.py"

# Set-up is measured this many times before the run, plus once in the run.
SETUP_PROBES = 9
# Every run, set-up included, has to end within this many seconds.
DEADLINE_S = 170


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="xmodp benchmark: one workload, one seed.")
    ap.add_argument("--workload", required=True, choices=list(mix.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def launch(args, workdir: Path, extra: list[str], deadline: float) -> tuple[dict, float]:
    """Run the workload process; return its JSON result and its launch time."""
    cmd = [
        sys.executable, str(WORKLOAD),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
        *extra,
    ]
    started = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - started),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "xmodp" / "__init__.py").is_file():
        print(f"error: no xmodp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setups = []
        if not args.trace:
            cpus = os.sched_getaffinity(0)
            for k in range(SETUP_PROBES):
                # A probe runs where it is launched, on the CPU that is fastest then.
                workload.pin_to_fastest_cpu(cpus)
                probe, started = launch(args, work / f"setup-{k}", ["--setup-only"], deadline)
                setups.append(probe["ready"] - started)
                shutil.rmtree(work / f"setup-{k}")
            os.sched_setaffinity(0, cpus)
        res, started = launch(args, work / "run", [], deadline)
        setups.append(res["ready"] - started)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    attempted, failed = res["attempted"], res["failed"]
    for problem in res["problems"]:
        print(f"wrong: {problem}")
    if args.trace:
        metrics = res["per_layer"]
        for line in res["unwrapped"]:
            print(f"not wrapped: {line}")
    else:
        # Each command's latency is its best over the run's passes, and
        # set-up the least of the launches: slow spells of the machine,
        # caused by other jobs, only add time, and they can last for much
        # of a run.
        per_cmd = res["latencies_s"]
        best = sorted(min(xs) for xs in per_cmd)
        p90 = nearest_rank(best, 0.9)
        metrics = {
            "setup_s": metric(min(setups), "s"),
            "cmds_per_s": metric(len(best) / sum(best), "1/s"),
            "cmd_p50_ms": metric(nearest_rank(best, 0.5) * 1e3, "ms"),
            "cmd_p90_ms": metric(p90 * 1e3, "ms"),
            "peak_rss_mb": metric(res["peak_rss_kb"] / 1024, "MB"),
        }
        above = sum(len(xs) for xs in per_cmd if min(xs) > p90)
        print(
            f"{args.workload}: {len(per_cmd)} commands x {res['passes']} passes = "
            f"{sum(map(len, per_cmd))} samples, {above} of them from commands above p90; "
            f"{len(setups)} set-up samples"
        )
    print(f"{'failed_ratio':>48} {failed / attempted:.6f} ({failed}/{attempted})")
    for name, m in metrics.items():
        print(f"{name:>48} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
