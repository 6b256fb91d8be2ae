"""The forced search finds and charges exactly what the unforced one did.

groups._search tries the one value a forced step can take (a product
(a, b, k, T) with a, b < k, or a move (x, k, t) with x < k, fixes img[k])
instead of scanning that step's candidates, and _search_homs reads its
product conditions from the filing each domain group keeps
(Group._steps).  Neither may change a search: the nodes, the tuples,
their order and every Work charge stay those of the engine that scanned
every candidate, kept below as the oracle.  A universal-property sweep
searches an end that occurs twice only once per catalogue object, and
stops at the first end with no map, searching no apex there; so of all
the meter readings only a sweep's drops, by the charges of the searches
it no longer makes.
"""

import importlib.util
import itertools
import json
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from test_groups import search_problems
from xmodp import groups, limits
from xmodp.groups import DEFAULT_BUDGET, Work, _search, _search_homs, make_group
from xmodp.limits import _CATALOGUE_GROUPS, default_catalogue, kernel_pair, product_over_P
from xmodp.limits import verify_kernel_pair, verify_product
from xmodp.presheaf import verify_full_faithful
from xmodp.session import parse_session
from xmodp.xmod import enumerate_morphisms

CATALOGUE_GROUPS = [build() for build in _CATALOGUE_GROUPS]
C2_CATALOGUE = default_catalogue(groups.cyclic_group(2), 4)
C2_MODULES = {A.name: A for A in C2_CATALOGUE}


def _unforced_search(candidates, products, moves, work, what):
    """The search as it was before forced steps: every condition filed
    under its largest variable and every candidate of every node tried."""
    n = len(candidates)
    by_product = [[] for _ in range(n)]
    for a, b, c, T in products:
        by_product[max(a, b, c)].append((a, b, c, T))
    by_move = [[] for _ in range(n)]
    for x, y, t in moves:
        by_move[max(x, y)].append((x, y, t))
    img = [0] * n
    out = []

    def assign(k):
        if k == n:
            out.append(tuple(img))
            return
        work.charge(len(candidates[k]), what)
        for v in candidates[k]:
            img[k] = v
            if all(T[img[a]][img[b]] == img[c] for a, b, c, T in by_product[k]) and all(
                img[y] == t[img[x]] for x, y, t in by_move[k]
            ):
                assign(k + 1)

    assign(0)
    return out


def _both(candidates, products, moves):
    """(output, Work.used) of the forced search and of the oracle."""
    runs = []
    for search in (_search, _unforced_search):
        work = Work(DEFAULT_BUDGET)
        runs.append((search(candidates, products, moves, work, "search"), work.used))
    return runs


ADD3 = [[(u + v) % 3 for v in range(3)] for u in range(3)]
SUCC3 = [1, 2, 0]


@settings(max_examples=500, deadline=None)
@given(search_problems())
# Step 2 forced by the product, step 1 by the move, each value repeated.
@example(([[0, 1, 2], [2, 2, 0, 1], [1, 0, 1]], [(0, 1, 2, ADD3)], [(0, 1, SUCC3)]))
# Unordered candidates, and a forced step whose value is missing.
@example(([[2, 0, 1], [1, 2], [0]], [(0, 1, 2, ADD3)], [(0, 1, SUCC3)]))
# An empty candidate list at a forced step and at a free one.
@example(([[0, 1], [], [0, 1, 2]], [(0, 1, 2, ADD3)], []))
@example(([[0, 1], [0], []], [], [(0, 1, SUCC3)]))
# A step forced by both a product and a move, and one forced twice.
@example(([[0, 1, 2], [0, 1, 2], [0, 1, 2]], [(0, 1, 2, ADD3), (1, 0, 2, ADD3)], [(1, 2, SUCC3)]))
def test_search_matches_the_unforced_engine(problem):
    forced, unforced = _both(*problem)
    assert forced == unforced


def _flat_products(domain, codomain):
    T = codomain.table
    return [(a, b, c, T) for a, row in enumerate(domain.table) for b, c in enumerate(row)]


def _assert_prefiled_equals_flat(domain, codomain, candidates, actions=()):
    moves = [(x, y, t) for s, t in actions for x, y in enumerate(s)]
    flat = _both(candidates, _flat_products(domain, codomain), moves)
    work = Work(DEFAULT_BUDGET)
    prefiled = _search_homs(domain, codomain, candidates, work, "search", actions)
    assert [(prefiled, work.used)] * 2 == flat


def test_prefiled_hom_search_equals_flat_products_on_catalogue_groups():
    for G, H in itertools.product(CATALOGUE_GROUPS, repeat=2):
        _assert_prefiled_equals_flat(G, H, [range(H.order)] * G.order)
        # Candidates in descending order, with the identity listed twice.
        backwards = [*range(H.order - 1, -1, -1), H.identity]
        _assert_prefiled_equals_flat(G, H, [backwards] * G.order)


def test_prefiled_morphism_search_equals_flat_conditions():
    for A, B in itertools.product(C2_CATALOGUE, repeat=2):
        candidates = [[b for b in range(B.group.order) if B.boundary.image[b] == x] for x in A.boundary.image]
        _assert_prefiled_equals_flat(A.group, B.group, candidates, list(zip(A.action.table, B.action.table)))


@st.composite
def relabelled_group_pairs(draw):
    def relabelled():
        G = draw(st.sampled_from(CATALOGUE_GROUPS))
        perm = draw(st.permutations(range(G.order)))
        inv = sorted(range(G.order), key=perm.__getitem__)
        table = [[perm[G.table[inv[a]][inv[b]]] for b in range(G.order)] for a in range(G.order)]
        return make_group(table, G.name)

    return relabelled(), relabelled()


@settings(max_examples=60, deadline=None)
@given(relabelled_group_pairs())
def test_prefiled_hom_search_equals_flat_products_on_relabelled_tables(pair):
    G, H = pair
    _assert_prefiled_equals_flat(G, H, [range(H.order)] * G.order)


def test_each_group_files_its_products_once():
    G = groups.symmetric_group_3()
    steps = G._steps
    assert G._steps is steps and len(steps) == G.order
    # Every entry is filed under its largest index, and each step whose
    # element is the product of two smaller ones is forced by one of them.
    filed = [rest if force is None else (force, *rest) for force, rest in steps]
    assert sorted(entry[:3] for entries in filed for entry in entries) == sorted(
        (a, b, G.table[a][b]) for a in range(G.order) for b in range(G.order)
    )
    for k, ((force, _), entries) in enumerate(zip(steps, filed)):
        assert all(max(a, b, c) == k for a, b, c, _ in entries)
        smaller = [(a, b) for a in range(k) for b in range(k) if G.table[a][b] == k]
        assert (force is not None) == bool(smaller)
        assert force is None or (force[2] == k and force[:2] in smaller)


def _sessions():
    spec = importlib.util.spec_from_file_location("sessions", Path(__file__).parent.parent / "bench" / "sessions.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_full_faithful_charges_what_the_unforced_search_charged():
    # The meter reading of verify_full_faithful(PV, PV) on the benchmark's
    # base-C2 session before forced steps: every search charges the same.
    session = parse_session(json.dumps(_sessions().base_c2(4)))
    PV = session.xmods["PV"]
    work = Work(DEFAULT_BUDGET)
    report = verify_full_faithful(PV, PV, budget=work)
    assert report["pass"] and report["hom_count"] == report["nat_count"] == 64
    assert work.used == 1840


def count_searches(monkeypatch):
    """Spy on the morphism searches of limits: each call as (A, B, found)."""
    calls = []

    def spy(A, B, budget):
        found = enumerate_morphisms(A, B, budget=budget)
        calls.append((A, B, found))
        return found

    monkeypatch.setattr(limits, "enumerate_morphisms", spy)
    return calls


def assert_searches_stop_at_an_empty_end(calls, report, ends, apex, colimit=False):
    """The searches of one sweep follow its rule, and the number of
    catalogue objects it stopped at an empty end is returned.

    Per catalogue object, in the report's order: the distinct ends in
    turn, each once, up to the first with no map, after which nothing is
    searched; the apex exactly once, last, when every end has a map.
    """
    distinct = list(dict.fromkeys(ends))
    runs = []
    for A, B, found in calls:
        T, other = (B, A) if colimit else (A, B)
        if not runs or runs[-1][0] is not T:
            runs.append((T, []))
        runs[-1][1].append((other, found))
    assert [T.name for T, _ in runs] == [entry["name"] for entry in report["catalogue"]]
    stopped = 0
    for _, searches in runs:
        if searches[-1][0] is apex:
            ends_searched = searches[:-1]
            assert len(ends_searched) == len(distinct) and all(found for _, found in ends_searched)
        else:
            ends_searched = searches
            stopped += 1
            assert len(ends_searched) <= len(distinct) and not searches[-1][1]
            assert all(found for _, found in searches[:-1])
        assert all(X is Y for (X, _), Y in zip(ends_searched, distinct))
    return stopped


def test_product_sweep_over_a_square_searches_each_end_once(monkeypatch):
    V = C2_MODULES["cat:C4.2"]
    cone = product_over_P(V, V)
    calls = count_searches(monkeypatch)
    report = verify_product(V, V, cone)
    assert report["pass"] and report["commuting"] > 0
    # 4 of the 15 objects have no map into V, and stop after one search.
    assert assert_searches_stop_at_an_empty_end(calls, report, (V, V), cone.apex) == 4
    assert len(calls) == 4 + 2 * 11


def test_kernel_pair_sweep_searches_each_end_once(monkeypatch):
    f = enumerate_morphisms(C2_MODULES["cat:C4.2"], C2_MODULES["cat:C2.1"])[-1]
    assert len(set(f.mapping)) == 2
    cone = kernel_pair(f)
    calls = count_searches(monkeypatch)
    report = verify_kernel_pair(f, cone)
    assert report["pass"] and report["commuting"] > 0
    source = f.source
    assert assert_searches_stop_at_an_empty_end(calls, report, (source, source), cone.apex) == 4
    assert len(calls) == 4 + 2 * 11
