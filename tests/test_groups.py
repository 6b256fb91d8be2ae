"""Tests for the table-based group engine."""

import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from xmodp.errors import (
    IndexOutOfRangeError,
    NoIdentityError,
    NoInverseError,
    NotAssociativeError,
    NotHomomorphismError,
    NotNormalError,
    NotSubgroupError,
    OrderTooLargeError,
)
from xmodp.groups import (
    DEFAULT_BUDGET,
    Work,
    _search,
    all_subgroups,
    automorphism_group,
    center,
    conjugacy_class,
    cyclic_group,
    element_order,
    enumerate_homs,
    is_normal,
    is_subgroup,
    klein_four_group,
    make_group,
    make_hom,
    normal_closure,
    normal_subgroups,
    quotient_group,
    subgroup_closure,
    subgroup_group,
    symmetric_group_3,
    trivial_group,
)


def test_catalogue_groups_validate():
    for G, order in [
        (trivial_group(), 1),
        (cyclic_group(2), 2),
        (cyclic_group(3), 3),
        (cyclic_group(4), 4),
        (klein_four_group(), 4),
        (symmetric_group_3(), 6),
    ]:
        assert G.order == order
        assert G.identity == 0
        assert G.mul(G.identity, order - 1) == order - 1


def test_s3_center_is_trivial():
    S3 = symmetric_group_3()
    # Oracle: scan for central elements directly on the table.
    central = [
        z for z in range(6)
        if all(S3.table[z][a] == S3.table[a][z] for a in range(6))
    ]
    assert central == [0]
    assert center(S3) == (0,)


def test_s3_conjugacy_classes():
    S3 = symmetric_group_3()
    by_order = {}
    for g in range(6):
        by_order.setdefault(element_order(S3, g), []).append(g)
    assert sorted(map(len, by_order.values())) == [1, 2, 3]
    transpositions = by_order[2]
    three_cycles = by_order[3]
    assert conjugacy_class(S3, transpositions[0]) == tuple(transpositions)
    assert conjugacy_class(S3, three_cycles[0]) == tuple(three_cycles)


@pytest.mark.parametrize("read", [conjugacy_class, element_order])
@pytest.mark.parametrize("x", [-1, 6, True])
def test_element_readers_check_their_index(read, x):
    with pytest.raises(IndexOutOfRangeError, match=f"S3: element {re.escape(repr(x))} out of range"):
        read(symmetric_group_3(), x)


@pytest.mark.parametrize("build", [subgroup_group, quotient_group])
@pytest.mark.parametrize("x", [-1, 4, True])
def test_element_lists_check_their_indices(build, x):
    # Read as an index, -1 would be element 3 and True element 1, which
    # would make [0, True, 2, 3] the whole of C4.
    with pytest.raises(IndexOutOfRangeError, match=f"C4: element {re.escape(repr(x))} out of range"):
        build(cyclic_group(4), [0, x, 2, 3])


def test_make_group_of_the_empty_table():
    with pytest.raises(NoIdentityError, match="empty table has no identity"):
        make_group([])


@pytest.mark.parametrize("n", [0, -3])
def test_cyclic_group_refuses_an_order_below_1(n):
    with pytest.raises(IndexOutOfRangeError, match=f"cyclic order must be positive, got {n}"):
        cyclic_group(n)


def test_make_hom_refuses_an_image_of_the_wrong_length():
    with pytest.raises(IndexOutOfRangeError, match="hom image has length 1, expected 2"):
        make_hom(cyclic_group(2), cyclic_group(2), [0])


def test_make_group_not_associative():
    with pytest.raises(NotAssociativeError) as err:
        make_group([[1, 0], [0, 0]])
    assert "(" in str(err.value)


def test_make_group_no_identity():
    with pytest.raises(NoIdentityError):
        make_group([[1, 1], [1, 1]])


def test_make_group_no_inverse():
    with pytest.raises(NoInverseError) as err:
        make_group([[0, 1], [1, 1]])
    assert "1" in str(err.value)


def _identity_and_inverses_by_loops(t, name):
    """make_group's derivation before it packaged the table by
    _trusted_group: the first two-sided identity, then for each element
    the first two-sided inverse."""
    n = len(t)
    identity = None
    for e in range(n):
        if all(t[e][a] == a and t[a][e] == a for a in range(n)):
            identity = e
            break
    if identity is None:
        raise NoIdentityError(f"{name}: no two-sided identity")
    inverse = []
    for a in range(n):
        inv = None
        for b in range(n):
            if t[a][b] == identity and t[b][a] == identity:
                inv = b
                break
        if inv is None:
            raise NoInverseError(f"{name}: element {a} has no inverse")
        inverse.append(inv)
    return identity, tuple(inverse)


def test_make_group_derives_identity_and_inverses_as_the_loops_did():
    # Every table of order <= 3: the associativity verdict is the
    # brute-force one, and on associative tables the identity, inverses,
    # error types and messages are those of the two-sided loops.
    outcomes = {NotAssociativeError: 0, NoIdentityError: 0, NoInverseError: 0, "group": 0}
    for n in (1, 2, 3):
        for flat in itertools.product(range(n), repeat=n * n):
            t = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
            associative = all(
                t[t[a][b]][c] == t[a][t[b][c]] for a in range(n) for b in range(n) for c in range(n)
            )
            try:
                want = _identity_and_inverses_by_loops(t, "T") if associative else NotAssociativeError
            except (NoIdentityError, NoInverseError) as exc:
                want = (type(exc), str(exc))
            try:
                G = make_group(t, "T")
                got = (G.identity, G.inverse)
            except NotAssociativeError:
                got = NotAssociativeError
            except (NoIdentityError, NoInverseError) as exc:
                got = (type(exc), str(exc))
            assert got == want, t
            if got is NotAssociativeError:
                outcomes[got] += 1
            else:
                outcomes[got[0] if isinstance(got[0], type) else "group"] += 1
    assert all(outcomes.values()), outcomes


def test_make_group_bad_entries():
    with pytest.raises(IndexOutOfRangeError):
        make_group([[0, 2], [1, 0]])
    with pytest.raises(IndexOutOfRangeError):
        make_group([[0, 1], [1]])


@pytest.mark.parametrize("n", [True, False, 2.0, "3", None, 3 + 0j], ids=repr)
def test_cyclic_group_refuses_an_order_that_is_not_an_int(n):
    # True once built "CTrue" of order 1; 2.0 and "3" raised a bare TypeError.
    with pytest.raises(IndexOutOfRangeError, match=f"cyclic order must be int, got {re.escape(repr(n))}"):
        cyclic_group(n)


def test_make_hom_mod2():
    C4, C2 = cyclic_group(4), cyclic_group(2)
    f = make_hom(C4, C2, [0, 1, 0, 1])
    assert f(3) == 1 and f.is_surjective() and not f.is_injective()
    with pytest.raises(NotHomomorphismError):
        make_hom(C4, C2, [0, 1, 1, 0])
    with pytest.raises(IndexOutOfRangeError):
        make_hom(C4, C2, [0, 1, 0, 2])


def test_enumerate_homs_against_filter_oracle():
    cases = [
        (cyclic_group(4), cyclic_group(2)),
        (klein_four_group(), cyclic_group(2)),
        (symmetric_group_3(), cyclic_group(2)),
        (cyclic_group(2), cyclic_group(4)),
        (symmetric_group_3(), symmetric_group_3()),
    ]
    for G, H in cases:
        fast = {f.image for f in enumerate_homs(G, H)}
        # Oracle: filter every map for multiplicativity.
        slow = {
            img
            for img in itertools.product(range(H.order), repeat=G.order)
            if all(
                img[G.table[a][b]] == H.table[img[a]][img[b]]
                for a in range(G.order)
                for b in range(G.order)
            )
        }
        assert fast == slow
    assert len(enumerate_homs(symmetric_group_3(), cyclic_group(2))) == 2
    assert len(enumerate_homs(symmetric_group_3(), symmetric_group_3())) == 10


def test_subgroup_closure_and_membership():
    S3 = symmetric_group_3()
    transposition = next(g for g in range(6) if element_order(S3, g) == 2)
    assert subgroup_closure(S3, [transposition]) == (0, transposition)
    assert is_subgroup(S3, (0, transposition))
    assert not is_subgroup(S3, (0, 1, 2))
    with pytest.raises(IndexOutOfRangeError):
        subgroup_closure(S3, [9])


@pytest.mark.parametrize("check", [is_subgroup, is_normal])
@pytest.mark.parametrize("elems", [[0, 9], [0, 4], [0, -1], [0, True, 2, 3]])
def test_subgroup_and_normality_checks_take_elements_only(check, elems):
    # Out of range, negative and bool entries are refused, not read as an
    # element (-1 as the last, True as 1) or left to raise IndexError.
    with pytest.raises(IndexOutOfRangeError):
        check(cyclic_group(4), elems)


def test_all_subgroups_against_subset_oracle():
    for G in [cyclic_group(4), klein_four_group(), symmetric_group_3()]:
        fast = set(all_subgroups(G))
        # Oracle: test every subset containing the identity for closure.
        slow = set()
        rest = [g for g in range(G.order) if g != G.identity]
        for r in range(len(rest) + 1):
            for extra in itertools.combinations(rest, r):
                candidate = (G.identity,) + extra
                if is_subgroup(G, candidate):
                    slow.add(tuple(sorted(candidate)))
        assert fast == slow
    assert len(all_subgroups(symmetric_group_3())) == 6
    assert len(normal_subgroups(symmetric_group_3())) == 3


def test_normal_closure_examples():
    C4 = cyclic_group(4)
    assert normal_closure(C4, [2]) == (0, 2)
    S3 = symmetric_group_3()
    transposition = next(g for g in range(6) if element_order(S3, g) == 2)
    assert normal_closure(S3, [transposition]) == tuple(range(6))


def test_normal_closure_is_smallest_normal_oversubgroup():
    for G in [cyclic_group(4), klein_four_group(), symmetric_group_3()]:
        normals = normal_subgroups(G)
        for s in range(G.order):
            closed = normal_closure(G, [s])
            # Oracle: intersect every normal subgroup containing s.
            containing = [set(N) for N in normals if s in N]
            expected = set.intersection(*containing)
            assert set(closed) == expected


def test_closures_are_the_least_subgroups_containing_the_seed():
    # Oracle: every subset that is a subgroup, found by testing closure.
    for G in [cyclic_group(4), klein_four_group(), symmetric_group_3(), cyclic_group(6)]:
        subgroups = [
            set(H)
            for r in range(1, G.order + 1)
            for H in itertools.combinations(range(G.order), r)
            if is_subgroup(G, H)
        ]
        normals = [H for H in subgroups if is_normal(G, H)]
        for k in range(3):
            for seed in itertools.combinations(range(G.order), k):
                assert set(subgroup_closure(G, seed)) == set.intersection(*(H for H in subgroups if H >= set(seed)))
                assert set(normal_closure(G, seed)) == set.intersection(*(H for H in normals if H >= set(seed)))


def test_quotient_examples():
    C4 = cyclic_group(4)
    q = quotient_group(C4, [0, 2])
    assert q.group.order == 2
    assert q.representatives == (0, 1)
    assert q.projection.image == (0, 1, 0, 1)

    S3 = symmetric_group_3()
    a3 = next(N for N in normal_subgroups(S3) if len(N) == 3)
    q = quotient_group(S3, a3)
    assert q.group.order == 2
    assert q.projection.image[0] == 0


def test_quotient_errors():
    C4 = cyclic_group(4)
    with pytest.raises(NotSubgroupError):
        quotient_group(C4, [0, 1])
    S3 = symmetric_group_3()
    transposition = next(g for g in range(6) if element_order(S3, g) == 2)
    assert not is_normal(S3, (0, transposition))
    with pytest.raises(NotNormalError):
        quotient_group(S3, (0, transposition))


def test_subgroup_group_reindexes():
    C4 = cyclic_group(4)
    H, incl = subgroup_group(C4, [0, 2])
    assert H.order == 2 and incl.image == (0, 2)
    assert incl.codomain is C4
    with pytest.raises(NotSubgroupError):
        subgroup_group(C4, [0, 1, 2])


def test_automorphism_groups_against_permutation_oracle():
    expected = {
        "C2": 1,
        "C3": 2,
        "C4": 2,
        "V4": 6,
        "S3": 6,
    }
    for G in [cyclic_group(2), cyclic_group(3), cyclic_group(4), klein_four_group(), symmetric_group_3()]:
        aut = automorphism_group(G)
        assert aut.group.order == expected[G.name]
        # Oracle: filter every permutation for multiplicativity.
        slow = {
            perm
            for perm in itertools.permutations(range(G.order))
            if perm[G.identity] == G.identity
            and all(
                perm[G.table[a][b]] == G.table[perm[a]][perm[b]]
                for a in range(G.order)
                for b in range(G.order)
            )
        }
        assert set(aut.perms) == slow
    assert not automorphism_group(klein_four_group()).group.is_abelian()


def test_automorphism_bound():
    with pytest.raises(OrderTooLargeError):
        automorphism_group(cyclic_group(13))


@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
def test_s3_group_laws(a, b, c):
    S3 = symmetric_group_3()
    assert S3.mul(S3.mul(a, b), c) == S3.mul(a, S3.mul(b, c))
    assert S3.inv(S3.mul(a, b)) == S3.mul(S3.inv(b), S3.inv(a))
    assert S3.conj(a, S3.conj(S3.inv(a), b)) == b


@given(st.integers(0, 5), st.integers(0, 5))
def test_s3_conjugation_is_automorphism(p, a):
    S3 = symmetric_group_3()
    for b in range(6):
        assert S3.conj(p, S3.mul(a, b)) == S3.mul(S3.conj(p, a), S3.conj(p, b))


@st.composite
def search_problems(draw):
    """Up to six variables over values 0..m-1: candidate lists (possibly
    empty, in any order), products each with its own m x m table, and
    moves each with its own map; a condition may repeat a variable."""
    m = draw(st.integers(1, 3))
    k = draw(st.integers(0, 6))
    values = st.integers(0, m - 1)
    candidates = draw(st.lists(st.lists(values, max_size=3), min_size=k, max_size=k))
    if k == 0:
        return candidates, [], []
    var = st.integers(0, k - 1)
    table = st.lists(st.lists(values, min_size=m, max_size=m), min_size=m, max_size=m)
    products = draw(st.lists(st.tuples(var, var, var, table), max_size=4))
    moves = draw(st.lists(st.tuples(var, var, st.lists(values, min_size=m, max_size=m)), max_size=4))
    return candidates, products, moves


@settings(max_examples=300, deadline=None)
@given(search_problems())
def test_search_matches_filtering_every_assignment(problem):
    candidates, products, moves = problem
    oracle = [
        img
        for img in itertools.product(*candidates)
        if all(img[c] == T[img[a]][img[b]] for a, b, c, T in products)
        and all(img[y] == t[img[x]] for x, y, t in moves)
    ]
    assert _search(candidates, products, moves, Work(DEFAULT_BUDGET), "search") == oracle


def test_search_keeps_only_assignments_that_meet_the_moves():
    # img[1] must be the successor of img[0] mod 3, and img[2] must equal
    # img[0] + img[1] mod 3; both kinds of condition cut the 27 assignments.
    add3 = [[(u + v) % 3 for v in range(3)] for u in range(3)]
    work = Work(DEFAULT_BUDGET)
    assert _search([range(3)] * 2, [], [(0, 1, (1, 2, 0))], work, "search") == [(0, 1), (1, 2), (2, 0)]
    assert _search([range(3)] * 3, [(0, 1, 2, add3)], [(0, 1, (1, 2, 0))], work, "search") == [
        (0, 1, 1), (1, 2, 0), (2, 0, 2)
    ]
    assert _search([range(3), [], range(3)], [], [], work, "search") == []
