"""The presheaf built from fibers against word evaluation, on relabelled inputs.

compute_presheaf reads each set off the boundary fibers and each
generator's index map off fiber positions, and words.Site builds its free
objects and words without the checks of make_free_object and make_word.
Here catalogue crossed modules over C2, V4 and S3, and the central
extension GL(2,3) -> S4 with central kernel {I, -I}, are relabelled so
that the identities of M and of the base leave index 0.  Every set must
then equal hom_set, every generator's map must equal presheaf_action's
evaluation of its words, and every word of the site must equal the word
rebuilt through make_free_object and make_word.
"""

import itertools

from hypothesis import given, settings, strategies as st

from xmodp.groups import cyclic_group, klein_four_group, make_group, make_hom, symmetric_group_3
from xmodp.limits import default_catalogue
from xmodp.presheaf import compute_presheaf, presheaf_action
from xmodp.words import build_site, hom_set, make_free_object, make_word
from xmodp.xmod import central_extension_xmod, make_crossed_module

BASES = [cyclic_group(2), klein_four_group(), symmetric_group_3()]
SMALL_XMODS = [A for P in BASES for A in default_catalogue(P, 6 if P.order != 4 else 4)]


def _gl23_over_s4():
    """GL(2,3) over S4 through its action on the four lines of F_3^2."""
    mats = [m for m in itertools.product(range(3), repeat=4) if (m[0] * m[3] - m[1] * m[2]) % 3]
    idx = {m: i for i, m in enumerate(mats)}

    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return ((a * e + b * g) % 3, (a * f + b * h) % 3, (c * e + d * g) % 3, (c * f + d * h) % 3)

    perms = list(itertools.permutations(range(4)))
    pos = {p: i for i, p in enumerate(perms)}
    S4 = make_group([[pos[tuple(p[q[x]] for x in range(4))] for q in perms] for p in perms], "S4")
    GL = make_group([[idx[mul(x, y)] for y in mats] for x in mats], "GL23")
    lines = [(0, 1), (1, 0), (1, 1), (1, 2)]

    def line_of(v):
        return next(i for i, (p, q) in enumerate(lines) if (v[0] * q - v[1] * p) % 3 == 0)

    image = [
        pos[tuple(line_of(((a * p + b * q) % 3, (c * p + d * q) % 3)) for p, q in lines)]
        for a, b, c, d in mats
    ]
    return central_extension_xmod(make_hom(GL, S4, image), "E48")


E48 = _gl23_over_s4()


def _inverse(perm):
    inv = [0] * len(perm)
    for old, new in enumerate(perm):
        inv[new] = old
    return inv


def _relabel_group(G, perm):
    inv = _inverse(perm)
    return make_group(
        [[perm[G.table[inv[a]][inv[b]]] for b in range(G.order)] for a in range(G.order)], G.name
    )


def _relabel_xmod(A, perm, base_perm):
    """A with element m of M renamed perm[m] and p of the base base_perm[p]."""
    inv, base_inv = _inverse(perm), _inverse(base_perm)
    n, k = A.group.order, A.base.order
    return make_crossed_module(
        A.name,
        _relabel_group(A.group, perm),
        _relabel_group(A.base, base_perm),
        [base_perm[A.boundary.image[inv[m]]] for m in range(n)],
        [[perm[A.action.table[base_inv[p]][inv[m]]] for m in range(n)] for p in range(k)],
    )


def _labels(draw, G):
    """A permutation of G's elements that moves the identity when it can."""
    return draw(
        st.permutations(range(G.order)).filter(lambda p: G.order == 1 or p[G.identity] != G.identity)
    )


@st.composite
def relabelled(draw, xmods):
    A = draw(st.sampled_from(xmods))
    return _relabel_xmod(A, _labels(draw, A.group), _labels(draw, A.base))


def _check_against_words(A):
    assert A.base.identity != 0 or A.base.order == 1
    site = build_site(A.base)
    F = compute_presheaf(A, site)
    for o in site.objects:
        free = site.free(o)
        assert free == make_free_object(A.base, free.labels, o.xs)
        assert F.sets[o] == hom_set(free, A)
        assert F.index[o] == {nu: i for i, nu in enumerate(F.sets[o])}
    assert list(F.actions) == [g.name for g in site.generators]
    for g, (family, *args) in zip(site.generators, site.families):
        assert F.actions[g.name] == presheaf_action(F, g)
        if family != "id":
            assert g.name == f"{family}[{','.join(map(str, args))}]"
        for w in g.words:
            rebuilt = make_free_object(w.free.base, w.free.labels, w.free.omega)
            assert w.free == rebuilt == site.free(g.target)
            assert w == make_word(rebuilt, [tuple(s) for s in w.syms])


@settings(max_examples=150, deadline=None)
@given(relabelled(SMALL_XMODS))
def test_presheaf_from_fibers_matches_word_evaluation(A):
    _check_against_words(A)


@settings(max_examples=5, deadline=None)
@given(relabelled([E48]))
def test_presheaf_from_fibers_matches_word_evaluation_over_s4(A):
    assert (A.group.order, A.base.order, len(build_site(A.base).generators)) == (48, 24, 2904)
    _check_against_words(A)
