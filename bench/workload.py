"""The workload process: set up one workload, then drive its mix through cli.main.

Run by run.py, once per setup probe (--setup-only) and once for the
measured run.  It prints one JSON object on stdout when it ends.

One client, closed loop, single-threaded: each command is one
xmodp.cli.main(argv) call that reads a session file and writes its report
to a file, and the next starts only when it returns.  The mix is cycled in
whole passes, each in a fresh seeded order, so every run measures the
same proportions of commands.  Every timed pass runs on session files
relabelled afresh for it, so no timed call reads an input seen before and
memoisation keyed on the input cannot show up as speed.  The first pass's
files are run once more, untimed, to check that the same input gives the
same report bytes.  Every report is checked against the expected
invariants.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import sys
import time
from pathlib import Path

import mix

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


class Checker:
    """Checks each call's exit code and report invariants, and that calls
    on the same session file give the same report bytes."""

    def __init__(self):
        self.digests: dict[tuple[str, ...], str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.report_bytes = 0

    def check(self, entry: mix.Entry, code, error) -> None:
        self.attempted += 1
        why = self._wrong(entry, code, error)
        if why:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"[{entry.index}] {entry.cmd.session}: {entry.cmd.args}: {why}")

    def _wrong(self, entry: mix.Entry, code, error) -> str | None:
        data = entry.output.read_bytes() if entry.output.exists() else b""
        entry.output.unlink(missing_ok=True)
        self.report_bytes += len(data)
        if error is not None:
            return f"raised {error!r}"
        if code != entry.cmd.expect["exit"]:
            return f"exit code {code}"
        digest = hashlib.sha256(data).hexdigest()
        if self.digests.setdefault(entry.argv, digest) != digest:
            return "report bytes differ from an earlier call on the same session file"
        try:
            got = mix.invariants(code, json.loads(data))
        except (ValueError, TypeError, KeyError, AttributeError):
            got = {"exit": code, "report": "unreadable or of another shape"}
        return None if got == entry.cmd.expect else f"expected {entry.cmd.expect}, got {got}"


def _loop_seconds() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(8000):
        s += i * i
    return time.perf_counter() - t0


def pin_to_fastest_cpu(cpus) -> None:
    """Pin this process to whichever of `cpus` runs a short fixed loop fastest now.

    The machine's CPUs are shared with other jobs, and each runs up to 60%
    slower for spells of seconds, independently of the others.  Moving
    to the fastest one before a timed call keeps most of that out of the
    figures without changing the work that is timed.
    """
    speed = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(_loop_seconds(), _loop_seconds())
    os.sched_setaffinity(0, {min(speed, key=speed.get)})


def run_one(cli, entry, cpus):
    """One timed cli.main call; returns (seconds, exit code, exception or None)."""
    pin_to_fastest_cpu(cpus)
    t0 = time.perf_counter()
    try:
        code = cli.main(list(entry.argv))
        error = None
    except SystemExit as e:  # argparse rejected the arguments
        code, error = e.code, e
    except Exception as e:  # any crash of the program counts as a wrong answer
        code, error = None, e
    return time.perf_counter() - t0, code, error


def run_pass(cli, entries, rng, checker, cpus, latencies=None):
    """Run every command once in a seeded order; latencies[i] collects command i's seconds."""
    order = list(entries)
    rng.shuffle(order)
    for entry in order:
        dt, code, error = run_one(cli, entry, cpus)
        if latencies is not None:
            latencies[entry.index].append(dt)
        checker.check(entry, code, error)


def run_traced(cli, plain, fresh, rng, checker, recorder, cpus):
    """Run every command untraced and then at once traced, in a seeded order.

    The untraced call reads its session file from `plain` and the traced
    call its own relabelled copy from `fresh`, so neither reads an input
    seen before.  Running the two calls of a command back to back keeps
    slow spells of the machine out of the difference.  Returns the seconds
    spent in cli.main untraced and traced, and the report bytes of the
    traced calls.
    """
    order = list(range(len(plain)))
    rng.shuffle(order)
    untraced = traced = 0.0
    traced_bytes = 0
    for i in order:
        entry = plain[i]
        dt, code, error = run_one(cli, entry, cpus)
        untraced += dt
        checker.check(entry, code, error)
        entry = fresh[i]
        recorder.request = entry.index
        recorder.install()
        try:
            dt, code, error = run_one(cli, entry, cpus)
        finally:
            recorder.uninstall()
        traced += dt
        before = checker.report_bytes
        checker.check(entry, code, error)
        traced_bytes += checker.report_bytes - before
    return untraced, traced, traced_bytes


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import xmodp.cli  # the program under test; importing it is part of set-up

    entries = mix.build(args.workload, args.seed, args.workdir / "pass-0")
    ready = time.monotonic()
    result = {"ready": ready, "commands": len(entries)}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    cli = xmodp.cli
    cpus = sorted(os.sched_getaffinity(0))
    rng_key = f"order:{args.workload}:{args.seed}"
    checker = Checker()
    if args.trace:
        import tracer

        recorder = tracer.Recorder()
        run_pass(cli, entries, random.Random(rng_key), checker, cpus)
        plain, fresh = (mix.build(args.workload, args.seed, args.workdir / f"pass-{k}", k) for k in (1, 2))
        untraced, traced, traced_bytes = run_traced(cli, plain, fresh, random.Random(rng_key), checker, recorder, cpus)
        recorder.write(args.workdir / "spans.csv")
        result["per_layer"] = recorder.metrics(overhead_s=traced - untraced, report_bytes=traced_bytes)
        result["unwrapped"] = recorder.unwrapped
    else:
        rng = random.Random(rng_key)
        latencies = [[] for _ in entries]
        start = time.perf_counter()
        # The set-up files are run twice: timed, and again untimed to check
        # that the same input gives the same bytes.  Every later pass runs
        # on files relabelled afresh for it.
        run_pass(cli, entries, rng, checker, cpus, latencies)
        run_pass(cli, entries, rng, checker, cpus)
        passes = 1
        while passes < 2 or time.perf_counter() - start < args.seconds:
            workdir = args.workdir / f"pass-{passes}"
            run_pass(cli, mix.build(args.workload, args.seed, workdir, passes), rng, checker, cpus, latencies)
            shutil.rmtree(workdir)
            passes += 1
        (args.workdir / "latencies.json").write_text(json.dumps(
            [{"command": e.cmd.args, "session": e.cmd.session, "seconds": latencies[e.index]} for e in entries]
        ))
        result.update(
            passes=passes,
            latencies_s=latencies,
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
    result.update(attempted=checker.attempted, failed=checker.failed, problems=checker.problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
