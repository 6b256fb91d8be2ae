"""Check that the expected-answer table holds for two different seeds.

    python3 bench/check_seeds.py

Runs every command of each workload once for seeds 1 and 2, each seed with its own
relabelled session files, and compares the label-independent invariants of
every report across the seeds and against mix.py.  Also checks that no
expected answer is vacuous: every verify-embedding pair has a morphism and
every sweep a commuting cone.  Exits 1 on any failure.  Takes about 20 s.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import mix

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)


def run_mix(workload: str, seed: int, workdir: Path) -> list[dict]:
    from xmodp import cli

    out = []
    for entry in mix.build(workload, seed, workdir):
        code = cli.main(list(entry.argv))
        out.append(mix.invariants(code, json.loads(entry.output.read_text())))
    return out


def vacuous(cmd: mix.Cmd) -> bool:
    """An expected answer that a wrong program could meet by finding nothing."""
    e = cmd.expect
    if cmd.args.startswith("verify-embedding"):
        return e.get("hom_count", 0) < 1
    if "cones_checked" in e or "cocones_checked" in e:
        return e.get("commuting", 0) < 1
    return False


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    bad = 0
    for workload in mix.WORKLOADS:
        for cmd in mix.WORKLOADS[workload]:
            if vacuous(cmd):
                bad += 1
                print(f"{workload}: {cmd.session}: {cmd.args}: vacuous expected answer {cmd.expect}")
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for workload in mix.WORKLOADS:
            runs = [run_mix(workload, seed, Path(tmp) / f"{workload}-{seed}") for seed in SEEDS]
            for cmd, a, b in zip(mix.WORKLOADS[workload], *runs):
                if a != b or a != cmd.expect:
                    bad += 1
                    print(f"{workload}: {cmd.session}: {cmd.args}: seed {SEEDS[0]} {a}, "
                          f"seed {SEEDS[1]} {b}, expected {cmd.expect}")
            print(f"{workload}: {len(runs[0])} commands checked")
    print("ok" if not bad else f"{bad} commands differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
