"""The command mix of each workload, with the expected answer of every command.

A command is a session (a canonical document from sessions.py, relabelled
afresh for every command from the workload seed), the CLI arguments, the
expected invariants of its report and the reason it is in the mix.  An
argument written @k names base element k in canonical labels and is
rewritten through the session's relabelling.

The expected invariants do not depend on labels: the exit code and the
report fields listed in INVARIANT_KEYS, plus a few counts for commands
whose reports have none of them.  They were recorded at the seed commit
and agree across seeds (check_seeds.py checks that).  None is vacuous:
every verify-embedding pair has at least one morphism and every sweep
checks at least one commuting cone.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import sessions

INVARIANT_KEYS = (
    "pass",
    "hom_count",
    "nat_count",
    "cones_checked",
    "cocones_checked",
    "commuting",
    "squares_checked",
    "apex_order",
    "count",
    "effective",
)

SESSIONS = {
    "c2-o4": lambda: sessions.base_c2(4),
    "c2-o5": lambda: sessions.base_c2(5),
    "c2-o6": lambda: sessions.base_c2(6),
    "v4-o4": lambda: sessions.base_v4(4),
    "v4-o6": lambda: sessions.base_v4(6),
    "s3": sessions.base_s3,
    "s4": sessions.base_s4,
}

# The base-S4 crossed module whose action gets one wrong entry in a
# corrupted ingest session.
CORRUPTED_XMOD = "E96"


@dataclass(frozen=True)
class Cmd:
    session: str
    args: str
    expect: dict
    why: str
    corrupt: bool = False


def _up(kind_key: str, checked: int, commuting: int, apex_order: int, **extra) -> dict:
    return {"exit": 0, "pass": True, kind_key: checked, "commuting": commuting, "apex_order": apex_order, **extra}


def _emb(homs: int) -> dict:
    return {"exit": 0, "pass": True, "hom_count": homs, "nat_count": homs}


_REJECTED = {"exit": 1, "pass": False, "error": "ValidationError", "witness": True}
_PASS = {"exit": 0, "pass": True}

SWEEP = (
    Cmd("c2-o4", "product tV tV", _up("cones_checked", 611, 611, 16),
        "heavy: 4^16-map morphism filters into the order-16 apex, about 90% in enumerate_morphisms"),
    Cmd("c2-o6", "kernel-pair f", _up("cones_checked", 61, 61, 8),
        "heavy: catalogue up to order 6 (C5, C6, S3 structures) and the mediator loops"),
    Cmd("v4-o6", "kernel-pair ql", _up("cones_checked", 105, 105, 8),
        "heavy: base V4 at catalogue order 6, many catalogue structures and homs into V4"),
    Cmd("v4-o4", "kernel-pair ql", _up("cones_checked", 85, 85, 8),
        "medium: same diagram at order 4, so the catalogue share is smaller"),
    Cmd("c2-o5", "kernel-pair f", _up("cones_checked", 53, 53, 8),
        "medium: order-5 catalogue step between the order-4 and order-6 cases"),
    Cmd("c2-o4", "kernel-pair f", _up("cones_checked", 51, 51, 8), "light kernel pair"),
    Cmd("c2-o4", "product V V", _up("cones_checked", 119, 119, 8), "light product with an order-8 apex"),
    Cmd("c2-o4", "product A1 A2", _up("cones_checked", 23, 23, 4), "light product"),
    Cmd("c2-o4", "pullback f vf", _up("cones_checked", 51, 51, 8), "light pullback of two different sources"),
    Cmd("c2-o4", "equaliser id2 neg", _up("cones_checked", 23, 19, 2),
        "light equaliser with a proper apex and non-commuting test cones"),
    Cmd("c2-o6", "equaliser id2 neg", _up("cones_checked", 29, 25, 2), "light equaliser at order 6"),
    Cmd("c2-o4", "equaliser id6 neg6", _up("cones_checked", 20, 16, 2), "light equaliser on an order-6 source"),
    Cmd("c2-o4", "coequaliser id2 neg", _up("cocones_checked", 11, 7, 2), "light coequaliser"),
    Cmd("c2-o6", "coequaliser id2 neg", _up("cocones_checked", 12, 8, 2), "light coequaliser at order 6"),
    Cmd("c2-o4", "coequaliser id6 neg6", _up("cocones_checked", 10, 8, 2), "light coequaliser on an order-6 target"),
    Cmd("c2-o4", "quotient A2 K", _up("cocones_checked", 15, 7, 2, effective=True), "light quotient, effective"),
    Cmd("c2-o6", "quotient A2 K", _up("cocones_checked", 16, 8, 2, effective=True), "light quotient at order 6"),
    Cmd("v4-o4", "product L L", _up("cones_checked", 30, 30, 2), "light product over base V4"),
    Cmd("v4-o4", "product W L", _up("cones_checked", 30, 30, 2), "light product with the terminal object"),
    Cmd("v4-o4", "pullback l l", _up("cones_checked", 30, 30, 2), "light pullback over base V4"),
    Cmd("v4-o4", "equaliser q q", _up("cones_checked", 41, 41, 4), "light equaliser over base V4"),
    Cmd("v4-o4", "coequaliser q q", _up("cocones_checked", 7, 7, 4), "light coequaliser over base V4"),
    Cmd("v4-o4", "quotient Q KQ", _up("cocones_checked", 21, 13, 2, effective=True), "light quotient over base V4"),
    Cmd("v4-o6", "quotient Q KQ", _up("cocones_checked", 23, 15, 2, effective=True), "light quotient at order 6"),
    Cmd("v4-o6", "product L L", _up("cones_checked", 40, 40, 2), "light product at order 6"),
)

EMBEDDING = (
    Cmd("s3", "verify-exact product X T", {"exit": 0, "pass": True, "squares_checked": 188136},
        "heavy: order-216 apex built and validated by make_group, then 188136 squares"),
    Cmd("c2-o4", "verify-embedding T6 T4", _emb(2),
        "heavy: 4^6 natural-transformation candidates and 4^6 morphism maps"),
    Cmd("c2-o4", "verify-embedding T5 T5", _emb(5),
        "heavy: 5^5 candidates on both sides"),
    Cmd("c2-o4", "verify-embedding B6 B6", _emb(3),
        "C6 onto C2 squared: 729 transformation candidates, 6^6 morphism maps"),
    Cmd("c2-o4", "verify-embedding PV V", _emb(8), "prod(V,V) to V: 256 transformation candidates"),
    Cmd("c2-o4", "verify-embedding V PV", _emb(16), "light: V into prod(V,V)"),
    Cmd("c2-o4", "verify-embedding tV V", _emb(4), "light: trivial V4 into V"),
    Cmd("c2-o4", "verify-embedding V V", _emb(4), "light endomorphisms of V"),
    Cmd("c2-o4", "verify-embedding A2 A2", _emb(2), "light endomorphisms of A2"),
    Cmd("c2-o4", "verify-embedding A2 A1", _emb(1), "light: A2 onto A1"),
    Cmd("c2-o4", "verify-embedding A3 A2", _emb(2), "light: A3 into A2"),
    Cmd("v4-o4", "verify-embedding L W", _emb(1), "light, base V4: four singles and sixteen pairs in the site"),
    Cmd("v4-o4", "verify-embedding Q L", _emb(1), "light, base V4"),
    Cmd("c2-o4", "verify-exact product V V", {"exit": 0, "pass": True, "squares_checked": 280},
        "product preservation, order-8 apex"),
    Cmd("c2-o4", "verify-exact product tV tV", {"exit": 0, "pass": True, "squares_checked": 1072},
        "product preservation, order-16 apex"),
    Cmd("c2-o4", "verify-exact product B6 A2", {"exit": 0, "pass": True, "squares_checked": 612},
        "product preservation, order-12 apex"),
    Cmd("v4-o4", "verify-exact product Q L", {"exit": 0, "pass": True, "squares_checked": 84},
        "product preservation over base V4"),
    Cmd("c2-o4", "verify-exact equaliser id2 neg", {"exit": 0, "pass": True, "squares_checked": 22},
        "equaliser preservation with a proper apex"),
    Cmd("c2-o4", "verify-exact equaliser id6 neg6", {"exit": 0, "pass": True, "squares_checked": 22},
        "equaliser preservation on an order-6 source"),
    Cmd("c2-o4", "verify-exact equaliser pv1 pv1", {"exit": 0, "pass": True, "squares_checked": 280},
        "equaliser preservation of a parallel pair out of prod(V,V)"),
    Cmd("c2-o4", "verify-exact coequaliser id2 neg", {"exit": 0, "pass": True, "squares_checked": 76},
        "coequaliser preservation, a regular epi onto A1"),
    Cmd("c2-o4", "verify-exact coequaliser id6 neg6", {"exit": 0, "pass": True, "squares_checked": 162},
        "coequaliser preservation on an order-6 target"),
    Cmd("c2-o4", "verify-exact coequaliser f f", {"exit": 0, "pass": True, "squares_checked": 22},
        "coequaliser preservation of an identical pair"),
    Cmd("c2-o4", "witness-generators a3v", {"exit": 0, "pass": True, "candidates_checked": 2},
        "generator witness that has to rule out two candidate assignments"),
    Cmd("v4-o4", "witness-generators l", {"exit": 0, "pass": True, "candidates_checked": 0},
        "generator witness with an empty fiber"),
)

INGEST = (
    Cmd("s4", "validate", dict(_PASS, violations=0), "full revalidation of every table in the session"),
    Cmd("s4", "validate", dict(_PASS, violations=0), "full revalidation, second relabelled copy"),
    Cmd("s4", "embed E96", dict(_PASS, objects=600, assignments=9312),
        "heavy: the order-96 presheaf, a 1.3 MB report"),
    Cmd("s4", "embed E48", dict(_PASS, objects=600, assignments=2352), "the order-48 presheaf"),
    Cmd("s4", "embed E48", dict(_PASS, objects=600, assignments=2352),
        "the order-48 presheaf, second relabelled copy: p90 is the middle of three"),
    Cmd("s4", "embed E48", dict(_PASS, objects=600, assignments=2352), "the order-48 presheaf, third copy"),
    Cmd("s4", "embed Z2", dict(_PASS, objects=600, assignments=6),
        "presheaf of a small module over S4: the site's 600 objects, mostly empty sets"),
    Cmd("s4", "homset E96 @1 @2", dict(_PASS, count=16), "two fibers of the order-96 module"),
    Cmd("s4", "homset E96 @3 @5 @7", dict(_PASS, count=64), "three fibers of the order-96 module"),
    Cmd("s4", "homset E48 @3 @5 @7 @9", dict(_PASS, count=16), "four fibers of the order-48 module"),
    Cmd("s4", "homset E96 @0 @0 @4 @8", dict(_PASS, count=256), "four fibers including the kernel"),
    Cmd("s4", "witness-generators i48", dict(_PASS, candidates_checked=2), "witness for the order-48 inclusion"),
    Cmd("s4", "witness-generators z", dict(_PASS, candidates_checked=0), "witness for the centre inclusion"),
    Cmd("s4", "homset E48 @1 @2 @4", dict(_PASS, count=8), "three fibers of the order-48 module"),
    Cmd("s4", "witness-generators i48", dict(_PASS, candidates_checked=2),
        "witness for the order-48 inclusion, second relabelled copy"),
    Cmd("s4", "validate", _REJECTED, "corrupted action entry: exit 1 with a witness", corrupt=True),
    Cmd("s4", "embed E96", _REJECTED, "corrupted session, rejected before any presheaf work", corrupt=True),
    Cmd("s4", "homset E48 @3 @5", _REJECTED, "corrupted session, rejected at parse", corrupt=True),
    Cmd("s4", "witness-generators z", _REJECTED, "corrupted session, rejected at parse", corrupt=True),
    Cmd("s4", "homset E96 @1 @2", _REJECTED, "corrupted session, rejected at parse", corrupt=True),
)

WORKLOADS = {"sweep": SWEEP, "embedding": EMBEDDING, "ingest": INGEST}


@dataclass(frozen=True)
class Entry:
    """One command of a generated mix, ready to pass to cli.main."""

    index: int
    cmd: Cmd
    argv: tuple[str, ...]
    output: Path


def build(workload: str, seed: int, workdir: Path, variant: int = 0) -> list[Entry]:
    """Write the workload's relabelled session files and return its commands.

    Each variant of a seed relabels every session afresh, so a command
    never reads the same input twice across variants.
    """
    rng = random.Random(f"{workload}:{seed}:{variant}")
    workdir.mkdir(parents=True, exist_ok=True)
    canonical = {}
    entries = []
    for i, cmd in enumerate(WORKLOADS[workload]):
        if cmd.session not in canonical:
            canonical[cmd.session] = SESSIONS[cmd.session]()
        doc = canonical[cmd.session]
        if cmd.corrupt:
            doc = sessions.corrupt_action(doc, CORRUPTED_XMOD, rng)
        doc, sigma = sessions.relabel(doc, rng)
        base = sigma[doc["base"]]
        words = [str(base[int(w[1:])]) if w.startswith("@") else w for w in cmd.args.split()]
        path = workdir / f"session-{i:02d}.json"
        path.write_text(json.dumps(doc))
        out = workdir / f"report-{i:02d}.json"
        argv = (words[0], "--input", str(path), "--output", str(out), *words[1:])
        entries.append(Entry(index=i, cmd=cmd, argv=argv, output=out))
    return entries


def invariants(code: int, report: dict) -> dict:
    """The label-independent facts of one report, as compared with Cmd.expect."""
    src = dict(report)
    src.update(report.get("universal_property", {}))
    out = {"exit": code}
    out.update({k: src[k] for k in INVARIANT_KEYS if k in src})
    if "error" in report:
        out["error"] = report["error"].split(":", 1)[0]
        out["witness"] = " at (" in report["error"]
    if "violation_counts" in report:
        out["violations"] = sum(report["violation_counts"].values())
    if "objects" in report and "actions" in report:
        out["objects"] = len(report["objects"])
        out["assignments"] = sum(o["size"] for o in report["objects"])
    if "candidates_checked" in report:
        out["candidates_checked"] = report["candidates_checked"]
    return out
