"""A sweep that stops at an empty end reports what searching everything did.

limits._sweep searches a catalogue object's ends in turn and stops at the
first one with no map: that object has no test cone, so its other ends
and the apex are not searched.  The oracle below is the loop as it was
before, searching every distinct end and the apex for every catalogue
object.  Put in place of _sweep, it must write every sweep golden report
byte for byte, and give the verifiers' reports for the product, pullback,
equaliser and coequaliser of every ordered pair of catalogue objects of
order at most 4 over C2, V4 and S3, while the searches of the real sweep
follow its rule.  Those sweeps run over the catalogue of order at most
SWEEP_ORDER and the pair's diagram, as the 53 objects of order at most 4
over V4 would give 2,809 pairs of sweeps over 53 objects each.
"""

import itertools
from collections import Counter

import pytest

from test_forced_search import assert_searches_stop_at_an_empty_end, count_searches
from test_golden_reports import CASES, GOLDEN, _argv
from xmodp import limits
from xmodp.cli import main
from xmodp.groups import cyclic_group, klein_four_group, symmetric_group_3
from xmodp.groups import _meter
from xmodp.limits import Cocone, _after, coequaliser, default_catalogue, equaliser, extend_catalogue
from xmodp.limits import product_over_P, pullback, verify_coequaliser, verify_equaliser
from xmodp.limits import verify_product, verify_pullback
from xmodp.xmod import enumerate_morphisms, identity_xmod_morphism


def _every_search_sweep(kind, cone, ends, diagram, commutes, max_order, budget):
    """_sweep as it was before it stopped early: every distinct end and the
    apex searched for every catalogue object."""
    cat = extend_catalogue(default_catalogue(ends[0].base, max_order), diagram)
    work = _meter(budget)
    colimit = isinstance(cone, Cocone)
    legs = [leg.mapping for leg in cone.legs]
    failures = []
    checked = commuting = 0
    distinct = list(dict.fromkeys(ends))
    which = [distinct.index(X) for X in ends]
    for T in cat:
        if colimit:
            searched = [enumerate_morphisms(X, T, budget=work) for X in distinct]
            through = enumerate_morphisms(cone.apex, T, budget=work)
            found = Counter(tuple(_after(h.mapping, leg) for leg in legs) for h in through)
        else:
            searched = [enumerate_morphisms(T, X, budget=work) for X in distinct]
            through = enumerate_morphisms(T, cone.apex, budget=work)
            found = Counter(tuple(_after(leg, h.mapping) for leg in legs) for h in through)
        for test in itertools.product(*(searched[i] for i in which)):
            work.charge(1, f"{kind} sweep test cone")
            maps = tuple(t.mapping for t in test)
            checked += 1
            expected = int(commutes(*maps))
            commuting += expected
            if found[maps] != expected:
                shown = {"map": list(maps[0])} if len(maps) == 1 else {"maps": [list(m) for m in maps]}
                failures.append({"test_object": T.name, **shown, "expected": expected, "found": found[maps]})
    return {
        "kind": kind,
        "pass": not failures,
        "apex": cone.apex.name,
        "apex_order": cone.apex.group.order,
        "cocones_checked" if colimit else "cones_checked": checked,
        "commuting": commuting,
        "failures": failures,
        "catalogue": [{"name": T.name, "order": T.group.order} for T in cat],
    }


SWEEP_COMMANDS = {"equaliser", "coequaliser", "pullback", "product", "kernel-pair", "quotient"}
SWEEP_CASES = [c for c in CASES if c["argv"][0] in SWEEP_COMMANDS and c["exit"] == 0]


def test_every_sweep_command_has_golden_cases():
    assert {c["argv"][0] for c in SWEEP_CASES} == SWEEP_COMMANDS


@pytest.mark.parametrize("case", SWEEP_CASES, ids=[c["name"] for c in SWEEP_CASES])
def test_oracle_sweep_writes_each_sweep_golden_report(case, monkeypatch, capsys):
    sweeps = []

    def oracle(*args):
        sweeps.append(args[0])
        return _every_search_sweep(*args)

    monkeypatch.setattr(limits, "_sweep", oracle)
    assert main(_argv(case)) == case["exit"]
    out, err = capsys.readouterr()
    assert len(sweeps) == 1
    assert out == (GOLDEN / f"{case['name']}.out").read_text()
    assert err == (GOLDEN / f"{case['name']}.err").read_text()


BASES = {"C2": cyclic_group(2), "V4": klein_four_group(), "S3": symmetric_group_3()}
SWEEP_ORDER = 3


def _sweeps(kind, A, B):
    """(verify call, ends, cone) for the sweeps of kind on the pair A, B: the
    product of A and B, the equaliser or coequaliser of the first and last
    morphisms A -> B, or the pullback of the first along the identity of
    B (none when there is no morphism A -> B)."""
    if kind == "product":
        cone = product_over_P(A, B)
        return [(lambda: verify_product(A, B, cone, SWEEP_ORDER), (A, B), cone)]
    maps = enumerate_morphisms(A, B)
    if not maps:
        return []
    f, g = maps[0], maps[-1]
    if kind == "equaliser":
        cone = equaliser(f, g)
        return [(lambda: verify_equaliser(f, g, cone, SWEEP_ORDER), (A,), cone)]
    if kind == "coequaliser":
        cocone = coequaliser(f, g)
        return [(lambda: verify_coequaliser(f, g, cocone, SWEEP_ORDER), (B,), cocone)]
    # The pullback of f along the identity of B has two distinct ends.
    ident = identity_xmod_morphism(B)
    cone = pullback(f, ident)
    return [(lambda: verify_pullback(f, ident, cone, SWEEP_ORDER), (A, B), cone)]


@pytest.mark.parametrize("kind", ["product", "pullback", "equaliser", "coequaliser"])
@pytest.mark.parametrize("base", sorted(BASES))
def test_oracle_sweep_gives_each_verifiers_report_on_catalogue_pairs(kind, base, monkeypatch):
    catalogue = default_catalogue(BASES[base], 4)
    stopped = swept = 0
    for A, B in itertools.product(catalogue, repeat=2):
        for verify, ends, cone in _sweeps(kind, A, B):
            with monkeypatch.context() as m:
                calls = count_searches(m)
                report = verify()
            stopped += assert_searches_stop_at_an_empty_end(calls, report, ends, cone.apex, kind == "coequaliser")
            with monkeypatch.context() as m:
                m.setattr(limits, "_sweep", _every_search_sweep)
                assert verify() == report
            swept += 1
    assert swept > 0 and stopped > 0
