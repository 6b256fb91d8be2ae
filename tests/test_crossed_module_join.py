"""all_crossed_modules joins CM2 first and keeps what the full filter kept.

all_crossed_modules rejects a (boundary, action) pair unless the action
hom sends the boundary of each generator of M to the index of its inner
automorphism, and only then builds the action rows and runs
_crossed_holds.  The oracle below is the filter as it was before: action
rows built and _crossed_holds run for every pair.  Both must give the
same structures, with the same names, boundaries and actions, in the same
order: on every catalogue group over every catalogue group and over S4,
on the order-8 groups C2^3, C4 x C2 and C3^2 over V4, S3 and C2^3, on A4,
and over relabelled bases.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from test_forced_search import _sessions
from test_presheaf_from_fibers import _relabel_group
from xmodp.groups import automorphism_group, enumerate_homs, make_group
from xmodp.limits import _catalogue_groups
from xmodp.xmod import _crossed_holds, _trusted_xmod, all_crossed_modules


def _every_pair_filter(M, P, name_prefix=""):
    """all_crossed_modules as it was before the join: every (boundary,
    action) pair built into action rows and checked by _crossed_holds."""
    aut = automorphism_group(M)
    act_homs = enumerate_homs(P, aut.group)
    out = []
    for bnd in enumerate_homs(M, P):
        for act_hom in act_homs:
            action = tuple(aut.perms[act_hom.image[p]] for p in range(P.order))
            if _crossed_holds(M, P, bnd.image, action):
                out.append(_trusted_xmod(f"{name_prefix}{M.name}.{len(out)}", M, P, bnd.image, action))
    return tuple(out)


def _assert_join_keeps_the_filter(M, P):
    joined, expected = all_crossed_modules(M, P, "cat:"), _every_pair_filter(M, P, "cat:")
    assert [A.name for A in joined] == [A.name for A in expected]
    assert [(A.boundary.image, A.action.table) for A in joined] == [
        (A.boundary.image, A.action.table) for A in expected
    ]
    assert joined == expected
    return len(joined)


SESSIONS = _sessions()
CATALOGUE = list(_catalogue_groups())
S4 = make_group(SESSIONS.symmetric(4), "S4")
V4, S3 = CATALOGUE[4], CATALOGUE[7]
C2_3 = make_group(SESSIONS.direct(SESSIONS.klein(), SESSIONS.cyclic(2)), "C2^3")
C4_C2 = make_group(SESSIONS.direct(SESSIONS.cyclic(4), SESSIONS.cyclic(2)), "C4xC2")
C3_2 = make_group(SESSIONS.direct(SESSIONS.cyclic(3), SESSIONS.cyclic(3)), "C3^2")
EVEN = [p for p in itertools.permutations(range(4)) if sum(p[i] > p[j] for i in range(4) for j in range(i)) % 2 == 0]
A4 = make_group([[EVEN.index(tuple(p[q[x]] for x in range(4))) for q in EVEN] for p in EVEN], "A4")


@pytest.mark.parametrize("P", CATALOGUE + [S4], ids=lambda P: P.name)
def test_join_keeps_the_filter_on_catalogue_groups(P):
    assert sum(_assert_join_keeps_the_filter(M, P) for M in CATALOGUE) > 0


def test_join_keeps_the_filter_on_order_8_groups():
    counts = {
        (M.name, P.name): _assert_join_keeps_the_filter(M, P)
        for M, P in itertools.product([C2_3, C4_C2, C3_2], [V4, S3, C2_3])
    }
    assert sum(counts.values()) == 6522
    assert counts["C2^3", "C2^3"] == 4628


def test_join_keeps_the_filter_on_a4():
    # In every group above, conjugation by a generator m equals conjugation
    # by m^-1, so a join that looked up the wrong one would go unseen; in
    # A4 the generator 1, a 3-cycle, tells them apart.
    M = A4
    assert M._conjugation[1] != M._conjugation[M.inverse[1]] and 1 in M._gens
    counts = {P.name: _assert_join_keeps_the_filter(M, P) for P in CATALOGUE + [S4, A4]}
    # A4 has a trivial centre, so only an injective boundary gives structures.
    assert counts == {**{P.name: 0 for P in CATALOGUE}, "S4": 24, "A4": 24}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CATALOGUE + [S4]).flatmap(lambda P: st.tuples(
    st.sampled_from(CATALOGUE), st.just(P), st.permutations(range(P.order))
)))
def test_join_keeps_the_filter_over_relabelled_bases(drawn):
    M, P, perm = drawn
    _assert_join_keeps_the_filter(M, _relabel_group(P, perm))
