"""The morphism search is set up once per crossed module, and finds and
charges what the search filing every condition per call did.

enumerate_morphisms(A, B) runs A's plan (CrossedModule._plan: the
products of A's group merged with the moves of A's action rows, filed
once) on B's cached fibers (CrossedModule._fibers) and B's action rows.
Against a flat oracle that files every product and the rows of every p
in P, and scans every candidate of every node (test_forced_search's
unforced engine, whose charges are those of the per-call filing), the
maps, their order and Work.used must agree on every ordered pair of the
catalogues over C2, V4 and S3 at order 6 and over S4 at order 4, and on
the crossed modules of the golden sessions.  A plan that drops the moves
of the last generator of P must fail that comparison.  A sweep command
files moves once per crossed module it searches from, never per search,
and splits each module by boundary once.
"""

import hashlib
import itertools
import json
from functools import cached_property
from pathlib import Path

import pytest

from test_forced_search import _sessions, _unforced_search
from test_exact_on_generators import _symmetric
from xmodp import groups, limits, xmod
from xmodp.cli import main
from xmodp.groups import DEFAULT_BUDGET, Work, cyclic_group, klein_four_group, symmetric_group_3
from xmodp.limits import default_catalogue
from xmodp.session import parse_session
from xmodp.xmod import CrossedModule, enumerate_morphisms, trivial_xmod

GOLDEN = Path(__file__).parent / "golden"
CATALOGUES = {P.name: default_catalogue(P, 6) for P in (cyclic_group(2), klein_four_group(), symmetric_group_3())}


def _flat(A, B):
    """(maps, Work.used) of the unforced search over every product of A's
    group and the action rows of every p in P, with candidates the target
    boundary fibers read off B's boundary here."""
    nB = B.group.order
    candidates = [[b for b in range(nB) if B.boundary.image[b] == x] for x in A.boundary.image]
    T = B.group.table
    products = [(a, b, c, T) for a, row in enumerate(A.group.table) for b, c in enumerate(row)]
    moves = [(x, y, t) for s, t in zip(A.action.table, B.action.table) for x, y in enumerate(s)]
    work = Work(DEFAULT_BUDGET)
    return _unforced_search(candidates, products, moves, work, "search"), work.used


def _assert_plan_matches_flat(A, B):
    work = Work(DEFAULT_BUDGET)
    maps = [f.mapping for f in enumerate_morphisms(A, B, budget=work)]
    assert (maps, work.used) == _flat(A, B), (A.name, B.name)


@pytest.mark.parametrize("base", sorted(CATALOGUES))
def test_plan_matches_the_flat_filter_on_catalogue_pairs(base):
    for A, B in itertools.product(CATALOGUES[base], repeat=2):
        _assert_plan_matches_flat(A, B)


def test_plan_matches_the_flat_filter_over_s4():
    catalogue = default_catalogue(_symmetric(4), 4)
    assert len(catalogue) == 22
    for A, B in itertools.product(catalogue, repeat=2):
        _assert_plan_matches_flat(A, B)


@pytest.mark.parametrize("name", ["c2.json", "point.json", "s3.json"])
def test_plan_matches_the_flat_filter_on_golden_sessions(name):
    modules = parse_session((GOLDEN / name).read_text()).xmods.values()
    for A, B in itertools.product(modules, repeat=2):
        _assert_plan_matches_flat(A, B)


def test_catalogue_charges_are_those_of_the_per_call_filing():
    # Searches, units and outputs over the catalogue pairs of C2, V4 and
    # S3, as recorded when every search filed its moves itself.
    searches, used, digest = 0, 0, hashlib.sha256()
    for base in ("C2", "V4", "S3"):
        for A, B in itertools.product(CATALOGUES[base], repeat=2):
            work = Work(DEFAULT_BUDGET)
            digest.update(repr([f.mapping for f in enumerate_morphisms(A, B, budget=work)]).encode())
            searches, used = searches + 1, used + work.used
    assert (searches, used) == (5789, 69342)
    assert digest.hexdigest() == "daec42bd242b3596492ebf636f2513e07a09635fec8dd082ea1cdcfa714f60c7"


def _differ_at_the_last_generator():
    """A pair over V4, whose generators are 1 and 2, with actions that
    differ only at the last generator, 2, and at 3 = 1 * 2: there A swaps
    1 and 2 in M = V4, and B acts trivially; both boundaries are trivial."""
    V4 = klein_four_group()
    assert V4._gens == (1, 2)
    swap, ident = (0, 2, 1, 3), (0, 1, 2, 3)
    A = trivial_xmod(klein_four_group("M"), V4, [ident, ident, swap, swap], name="A")
    B = trivial_xmod(klein_four_group("M"), V4, name="B")
    return A, B


def _plan_without_the_last_generator(A):
    """The mutant plan: moves for the rows of every generator of P but the
    last, and of no other element."""
    moves = [(x, y, p + 1) for p in A.base._gens[:-1] for x, y in enumerate(A.action.table[p])]
    return groups._merge(A.group._steps, groups._file(A.group.order, moves, 1))


def test_a_plan_missing_the_last_generator_fails_the_comparison(monkeypatch):
    A, B = _differ_at_the_last_generator()
    _assert_plan_matches_flat(A, B)
    assert len(enumerate_morphisms(A, B)) == 4
    monkeypatch.setattr(CrossedModule, "_plan", property(_plan_without_the_last_generator))
    A, B = _differ_at_the_last_generator()
    assert len(enumerate_morphisms(A, B)) == 16
    with pytest.raises(AssertionError):
        _assert_plan_matches_flat(A, B)


def _record_filings(monkeypatch):
    """The move lists _file is given (target 1), as they are filed, in
    groups and in xmod, which files the plans."""
    filed = []

    def recording(n, conditions, target, _real=groups._file):
        conditions = list(conditions)
        if target == 1:
            filed.append(conditions)
        return _real(n, conditions, target)

    monkeypatch.setattr(groups, "_file", recording)
    monkeypatch.setattr(xmod, "_file", recording)
    return filed


def test_a_sweep_files_moves_once_per_domain_and_splits_each_module_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "base_c2_6.json"
    path.write_text(json.dumps(_sessions().base_c2(6)))
    filed = _record_filings(monkeypatch)
    # Both lists hold the modules they record, so no id is reused.
    searches, split = [], []
    search = limits.enumerate_morphisms

    def spy(A, B, budget):
        searches.append((A, B))
        return search(A, B, budget=budget)

    def splitting(A, _real=CrossedModule._fibers.func):
        split.append(A)
        return _real(A)

    fibers = cached_property(splitting)
    fibers.__set_name__(CrossedModule, "_fibers")
    monkeypatch.setattr(limits, "enumerate_morphisms", spy)
    monkeypatch.setattr(CrossedModule, "_fibers", fibers)
    assert main(["kernel-pair", "f", "--input", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] and report["universal_property"]["cones_checked"] > 0
    domains = {id(A) for A, _ in searches}
    assert len(searches) > len(domains) > 0
    assert len(filed) == len(domains) and all(filed)
    assert split and len({id(A) for A in split}) == len(split)
    assert {id(B) for _, B in searches} <= {id(A) for A in split}


def test_a_second_search_files_nothing(monkeypatch):
    # Fresh modules, whose plans no earlier test has built.
    A, B = default_catalogue(klein_four_group(), 4)[5:7]
    filed = _record_filings(monkeypatch)
    first = enumerate_morphisms(A, B)
    assert first and len(filed) == 1
    assert enumerate_morphisms(A, B) == first and enumerate_morphisms(B, B)
    assert len(filed) == 2
    assert B._fibers is B._fibers
