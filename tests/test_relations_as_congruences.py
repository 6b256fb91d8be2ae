"""Equivalence sub-crossed-modules are the congruences of normal subgroups.

An equivalence relation E on M that is a sub-crossed-module of A x A is
the congruence {(a, an) : n in N} of N = {b : (1, b) in E}, where N is a
normal subgroup of M inside ker d that P keeps; limits._equivalence_holds
accepts by that characterisation.  The oracle here needs none of it: it
tries every reflexive subset of the equal-boundary square and keeps those
is_equivalence_relation accepts.
"""

import itertools

from xmodp.groups import cyclic_group, klein_four_group, normal_subgroups, symmetric_group_3
from xmodp.limits import EquivalenceRelation, default_catalogue, is_equivalence_relation, product_over_P

OBJECTS = [
    A
    for P, max_order in ((cyclic_group(2), 4), (klein_four_group(), 4), (symmetric_group_3(), 3))
    for A in default_catalogue(P, max_order)
]


def _accepted(A):
    """The reflexive subsets of the equal-boundary square that are accepted."""
    diagonal = {(m, m) for m in range(A.group.order)}
    rest = [x for x in product_over_P(A, A).elements if x not in diagonal]
    return {
        E.pairs
        for r in range(len(rest) + 1)
        for extra in itertools.combinations(rest, r)
        if is_equivalence_relation(E := EquivalenceRelation(A, frozenset(diagonal | set(extra))))
    }


def _congruences(A):
    """The congruences of the normal subgroups inside ker d that P keeps."""
    M = A.group
    e = A.boundary.image[M.identity]
    return {
        frozenset((a, M.table[a][n]) for a in range(M.order) for n in N)
        for N in normal_subgroups(M)
        if all(A.boundary.image[n] == e for n in N)
        and all(A.act(p, n) in N for p in range(A.base.order) for n in N)
    }


def test_accepted_relations_are_the_congruences_of_kept_normal_subgroups():
    relations = 0
    for A in OBJECTS:
        accepted = _accepted(A)
        assert accepted == _congruences(A), A.name
        relations += len(accepted)
    assert (len(OBJECTS), relations) == (74, 157)
