"""Conjugation as one table per group, and products built without the
terminal object.

Group._conjugation[p][x] is p x p^-1.  Every bulk reader of conjugation
reads it: conjugation_action (so the terminal object), the normality and
closure helpers, the crossed-module constructions and checks, the site
and the natural-transformation search.  Group.conj stays a point read.
Here the table and its readers are compared with the definitions, on the
catalogue groups and on relabelled base-S4 and GL(2,3) tables from the
benchmark's sessions; base-S5 comparisons are pinned to make (almost) no
Group.conj call; and product_over_P and kernel_pair are checked to build
no terminal object.
"""

import importlib.util
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import unique_to_terminal
from test_exact_on_generators import _symmetric
from test_presheaf_from_fibers import _relabel_group
from xmodp import limits
from xmodp.groups import (
    Group,
    conjugacy_class,
    cyclic_group,
    is_normal,
    make_group,
    normal_closure,
    normal_subgroups,
    subgroup_closure,
)
from xmodp.limits import (
    _CATALOGUE_GROUPS,
    kernel_pair,
    product_over_P,
    pullback,
    terminal_object,
)
from xmodp.presheaf import verify_full_faithful, verify_product_preserved
from xmodp.xmod import conjugation_action, conjugation_xmod, enumerate_morphisms, trivial_xmod


def _sessions():
    spec = importlib.util.spec_from_file_location("sessions", Path(__file__).parent.parent / "bench" / "sessions.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SESSIONS = _sessions()
CATALOGUE = [build() for build in _CATALOGUE_GROUPS]
S4 = make_group(SESSIONS.symmetric(4), "S4")
GL23 = make_group(SESSIONS.gl23(), "GL23")


def _conj(G, p, a):
    return G.table[G.table[p][a]][G.inverse[p]]


def _normal_by_definition(G, elems):
    return all(_conj(G, g, a) in elems for g in range(G.order) for a in elems)


def _normal_closure_by_definition(G, seed):
    """The least set holding the seed and the identity that is closed
    under products and under conjugation, grown to a fixed point."""
    cur = set(seed) | {G.identity}
    while True:
        grown = cur | {G.table[a][b] for a in cur for b in cur} | {_conj(G, g, a) for g in range(G.order) for a in cur}
        if grown == cur:
            return tuple(sorted(cur))
        cur = grown


def _check_readers(G, seeds):
    n = G.order
    table = G._conjugation
    assert table == tuple(tuple(_conj(G, p, a) for a in range(n)) for p in range(n))
    assert conjugation_action(G).table is table
    for x in range(n):
        assert conjugacy_class(G, x) == tuple(sorted({_conj(G, p, x) for p in range(n)}))
    for seed in seeds:
        assert is_normal(G, seed) == _normal_by_definition(G, set(seed))
        H = subgroup_closure(G, seed)
        assert is_normal(G, H) == _normal_by_definition(G, set(H))
        assert normal_closure(G, seed) == _normal_closure_by_definition(G, seed)


@pytest.mark.parametrize("G", CATALOGUE + [S4], ids=lambda G: G.name)
def test_conjugation_table_and_readers_on_the_catalogue(G):
    seeds = [s for k in range(3) for s in itertools.combinations(range(G.order), k)]
    _check_readers(G, seeds)


@settings(max_examples=6, deadline=None)
@given(st.sampled_from([S4, GL23]).flatmap(lambda G: st.tuples(
    st.just(G),
    st.permutations(range(G.order)),
    st.lists(st.lists(st.integers(0, G.order - 1), max_size=3), min_size=1, max_size=4),
)))
def test_conjugation_table_and_readers_on_relabelled_tables(drawn):
    G, perm, seeds = drawn
    _check_readers(_relabel_group(G, perm), seeds)


def _counting_conj(monkeypatch):
    calls = [0]

    def counting(self, p, a, _real=Group.conj):
        calls[0] += 1
        return _real(self, p, a)

    monkeypatch.setattr(Group, "conj", counting)
    return calls


def test_base_s5_comparisons_build_no_conjugation_through_conj(monkeypatch):
    # Building the |P|^2 conjugation table through Group.conj took 14,400
    # calls per table on S5, and the product comparison built two.
    S5 = _symmetric(5)
    Z = trivial_xmod(cyclic_group(2), S5, name="Z")
    calls = _counting_conj(monkeypatch)
    assert verify_product_preserved(Z, Z)["pass"]
    assert calls[0] <= S5.order
    calls[0] = 0
    assert verify_full_faithful(Z, Z)["pass"]
    assert calls[0] <= S5.order


def test_terminal_object_shares_the_base_conjugation_table():
    for P in CATALOGUE:
        assert terminal_object(P).action.table is P._conjugation


def _structure(cone):
    """A cone without its kind and names: pairs, apex tables and legs."""
    apex = cone.apex
    legs = [(leg.target, leg.mapping) for leg in cone.legs]
    return cone.elements, apex.group.table, apex.boundary.image, apex.action.table, legs


def test_product_and_kernel_pair_build_no_terminal_object(monkeypatch):
    S3 = CATALOGUE[-1]
    (A3,) = [N for N in normal_subgroups(S3) if len(N) == 3]
    A = conjugation_xmod(S3, range(6), name="A")
    B = conjugation_xmod(S3, A3, name="B")
    Z = trivial_xmod(cyclic_group(2), S3, name="Z")
    over_terminal = pullback(unique_to_terminal(A), unique_to_terminal(B))
    f = unique_to_terminal(Z)
    f_with_f = pullback(f, f)

    def refuse(P):
        raise AssertionError(f"terminal object of {P.name} built")

    monkeypatch.setattr(limits, "terminal_object", refuse)
    cone = product_over_P(A, B)
    assert (cone.kind, cone.apex.name) == ("product", "prod(A,B)")
    assert len(cone.elements) == 3
    assert _structure(cone) == _structure(over_terminal)
    kp = kernel_pair(f)
    assert (kp.kind, kp.apex.name) == ("kernel-pair", "kp(Z)")
    assert _structure(kp) == _structure(f_with_f)


def test_pullback_takes_only_its_two_maps():
    A = trivial_xmod(cyclic_group(2), cyclic_group(2), name="A")
    f = enumerate_morphisms(A, A)[0]
    with pytest.raises(TypeError):
        pullback(f, f, name="x")
