"""The catalogue groups are built once per process, and their automorphisms
searched once per group.

The eight catalogue groups depend on no input, so limits builds them on
first use (not at import) and keeps them, with what is cached on each
Group: its generators, hom-search filing, conjugation table and
automorphism group.  So a sweep after the first, on another session,
builds no catalogue table and searches no automorphisms.  An automorphism
search or table that passes the budget is refused on every call, and the
refusal is not kept.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from test_forced_search import _sessions
from xmodp import groups, session
from xmodp.cli import main
from xmodp.errors import BudgetExceededError
from xmodp.groups import automorphism_group, cyclic_group, make_group
from xmodp.limits import _CATALOGUE_GROUPS, _catalogue_groups

ROOT = Path(__file__).resolve().parent.parent
SESSIONS = _sessions()
CATALOGUE_TABLES = {build().table for build in _CATALOGUE_GROUPS}


def _relabelled_session(tmp_path, seed):
    doc, _ = SESSIONS.relabel(SESSIONS.base_c2(6), random.Random(seed))
    path = tmp_path / f"base_c2_{seed}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _kernel_pair_sweep(path, capsys):
    assert main(["kernel-pair", "f", "--input", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] and report["universal_property"]["cones_checked"] == 61


def test_a_second_sweep_builds_no_catalogue_group_and_searches_no_automorphisms(tmp_path, monkeypatch, capsys):
    _kernel_pair_sweep(_relabelled_session(tmp_path, 1), capsys)
    tables, searches = [], []
    make_group, search_homs = groups.make_group, groups._search_homs

    def make_group_spy(table, name="G"):
        tables.append(tuple(map(tuple, table)))
        return make_group(table, name)

    def search_spy(domain, codomain, candidates, work, what):
        searches.append(what)
        return search_homs(domain, codomain, candidates, work, what)

    monkeypatch.setattr(groups, "make_group", make_group_spy)
    monkeypatch.setattr(session, "make_group", make_group_spy)
    monkeypatch.setattr(groups, "_search_homs", search_spy)
    _kernel_pair_sweep(_relabelled_session(tmp_path, 2), capsys)
    # The session's own six tables are built; no catalogue table is.
    assert len(tables) == 6
    assert [t for t in tables if t in CATALOGUE_TABLES] == []
    assert [what for what in searches if what.startswith("automorphism search")] == []


def test_catalogue_groups_are_built_on_first_use_not_at_import():
    code = (
        "import xmodp.limits as limits\n"
        "print(limits._catalogue_groups.cache_info().currsize)\n"
        "limits.default_catalogue(limits.cyclic_group(2))\n"
        "print(limits._catalogue_groups.cache_info().currsize)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["0", "1"]


def test_catalogue_groups_are_one_tuple_of_the_constructors_groups():
    built = _catalogue_groups()
    assert _catalogue_groups() is built
    assert [G.table for G in built] == [build().table for build in _CATALOGUE_GROUPS]
    assert all(automorphism_group(G) is automorphism_group(G) for G in built)


def test_automorphism_group_is_searched_once_per_group():
    M = cyclic_group(12)
    assert automorphism_group(M) is automorphism_group(M)
    assert automorphism_group(cyclic_group(12)) == automorphism_group(M)


def test_an_automorphism_search_above_the_bound_is_refused_every_time():
    # C2^4 has 20,160 automorphisms, so its |Aut|^2 table passes the budget.
    M = make_group([[a ^ b for b in range(16)] for a in range(16)], "C2^4")
    for _ in range(3):
        with pytest.raises(BudgetExceededError, match="^automorphism table C2\\^4 passes the budget"):
            automorphism_group(M)
    assert "_automorphisms" not in vars(M)
