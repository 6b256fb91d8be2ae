"""One enumeration of the squares that can fail, read by two consumers.

presheaf._squares lists the move squares m[p,x] and the sigma-square
columns at each b, over the nonempty fibers only; the transformation
search (_natural_singles) and the comparison check (_square_failures)
both read it.  So the search builds no map over an empty fiber, and the
maps it does read come in one build call per move row or sigma fiber,
through _Actions.read.
"""

import pytest

from test_forced_search import _sessions
from xmodp import presheaf
from xmodp.groups import Work, cyclic_group, make_group, subgroup_closure, symmetric_group_3
from xmodp.presheaf import _Actions, _natural_singles, _square_failures, _squares, compute_presheaf
from xmodp.xmod import conjugation_xmod, trivial_xmod

S4 = make_group(_sessions().symmetric(4), "S4")
S3 = symmetric_group_3()


def _built(F):
    return sum(image is not None for image in F.actions._maps)


def test_search_builds_only_the_maps_over_nonempty_fibers():
    # Only the fiber over the identity is nonempty: the 24 moves m[p,0]
    # and the one sigma[0,0] carry squares, out of 2 * 24^2 move and sigma
    # maps.
    F = compute_presheaf(trivial_xmod(cyclic_group(2), S4))
    work = Work(10**6)
    found = _natural_singles(F, F, work)
    assert found == [[(0, 0), *[()] * 23], [(0, 1), *[()] * 23]]
    assert work.used == 4
    assert _built(F) == 25
    built = {k for k, image in enumerate(F.actions._maps) if image is not None}
    assert built == {F.site.move(p, 0) for p in range(24)} | {F.site.sigma(0, 0)}


def test_read_builds_missing_maps_once_in_one_call():
    calls = []

    def build(ks):
        calls.append(list(ks))
        return iter([(k,) for k in ks])

    actions = _Actions(build, 8)
    assert actions.read([5, 2, 5]) == [(5,), (2,), (5,)]
    assert calls == [[5, 2]]
    assert actions.read([2, 7, 5, 7]) == [(2,), (7,), (5,), (7,)]
    assert calls == [[5, 2], [7]]
    assert actions.read([5, 2]) == [(5,), (2,)] and len(calls) == 2
    assert actions[-3] == (5,) and actions[6:] == [(6,), (7,)]
    assert calls == [[5, 2], [7], [6]]
    with pytest.raises(IndexError):
        actions[8]


def test_read_refuses_a_position_out_of_range_before_building():
    # On C4 over C1 the last generator is inc2[0,0], which sends each
    # assignment of pair(0, 0) to its second coordinate.  A negative
    # position read as it stands would decode to an identity and be kept
    # at the last index.
    F = compute_presheaf(trivial_xmod(cyclic_group(4), cyclic_group(1)))
    n = len(F.actions)
    for ks in ([-1], [n], [0, -1]):
        with pytest.raises(IndexError):
            F.actions.read(ks)
    assert _built(F) == 0
    assert F.actions[-1] == (0, 1, 2, 3) * 4
    assert F.actions.read([n - 1]) == [(0, 1, 2, 3) * 4]


def test_both_consumers_read_the_one_enumeration(monkeypatch):
    A = conjugation_xmod(S3, range(6))
    F = compute_presheaf(A)
    read = []

    def recording(*args, _real=_squares):
        read.append(args[2:])
        return _real(*args)

    monkeypatch.setattr(presheaf, "_squares", recording)
    _natural_singles(F, F, Work(10**6))
    singles = [tuple(range(len(f))) for f in F.fibers]
    assert _square_failures(F, F, singles, S3._gens, A.group._gens) == []
    # The search reads the moves over all of P, then the sigma columns over
    # all of M; the check reads both halves at the generators.
    assert read == [(range(6), ()), ((), range(6)), (S3._gens, A.group._gens)]


def test_columns_cover_every_square_that_can_fail_once():
    # Over A3 in S3 half the fibers are empty.  Each move over a nonempty
    # fiber is one column, and the sigma columns at every b split each
    # sigma map over nonempty fibers into its entries, each once.
    A = conjugation_xmod(S3, subgroup_closure(S3, [S3.table[g][g] for g in range(6)]))
    F = compute_presheaf(A)
    n = S3.order
    moves, sigma = set(), []
    for k, s, x, col, act_G, y, ib in _squares(F, F, range(n), range(A.group.order)):
        ((family, a, b),) = F.site.decode((k,))
        assert F.sizes[x] and act_G == F.actions[k]
        if y is None:
            assert (family, b, ib, s) == ("m", x, 0, S3.conj(a, x)) and col == F.actions[k]
            moves.add(k)
        else:
            nf = F.sizes[y]
            assert (family, a, b, s) == ("sigma", x, y, S3.table[x][y]) and col == F.actions[k][ib::nf]
            sigma += [(k, ia * nf + ib) for ia in range(len(col))]
    nonempty = [x for x in range(n) if F.sizes[x]]
    assert len(nonempty) == 3
    assert moves == {F.site.move(p, x) for p in range(n) for x in nonempty}
    assert len(sigma) == len(set(sigma))
    assert set(sigma) == {
        (F.site.sigma(x, y), j) for x in nonempty for y in nonempty for j in range(F.sizes[x] * F.sizes[y])
    }
