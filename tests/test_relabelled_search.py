"""Differential tests of the map searches on relabelled groups and crossed modules.

Each catalogue group, and each crossed module over C2 on one, gets fresh
element labels that move the identity off index 0, as a session file from
an arbitrary source may.  enumerate_homs, automorphism_group and
enumerate_morphisms must then give exactly what filtering every map gives,
all_crossed_modules exactly what the full crossed-module validation keeps,
and enumerate_natural_transformations exactly what testing every candidate
family of components gives, in the same order.  functor_on_morphism, read
off fiber positions, must give what composing every assignment with the
morphism and looking it up in the target's index gives, on these pairs, on
the legs of their products and on the relabelled S3 modules of
tests/golden/s3.json.
"""

import itertools
from pathlib import Path

from hypothesis import given, settings, strategies as st

from oracles import assignment_sets
from xmodp import groups, limits, presheaf, words, xmod
from xmodp.groups import (
    automorphism_group,
    cyclic_group,
    enumerate_homs,
    klein_four_group,
    make_group,
    symmetric_group_3,
    trivial_group,
)
from xmodp.limits import default_catalogue, kernel_pair, product_over_P
from xmodp.presheaf import (
    NaturalTransformation,
    check_naturality,
    compute_presheaf,
    enumerate_natural_transformations,
    functor_on_morphism,
)
from xmodp.session import parse_session
from xmodp.words import SiteObject, build_site
from xmodp.xmod import (
    _fibers,
    all_crossed_modules,
    crossed_module_violations,
    enumerate_morphisms,
    make_crossed_module,
    structure_key,
    validate_morphism,
)

C2 = cyclic_group(2)
GROUPS = [trivial_group(), C2, cyclic_group(3), cyclic_group(4), klein_four_group(),
          cyclic_group(5), cyclic_group(6), symmetric_group_3()]
XMODS = default_catalogue(C2, 6)
# The base itself relabelled, so that its identity is element 1.
BASE = make_group([[1, 0], [0, 1]], "C2")
BASE_LABEL = (1, 0)
MAX_MORPHISM_SPACE = 4096
SITE = build_site(BASE)
# Pairs whose transformation candidates the oracle can test one by one.
MAX_NAT_SPACE = 1296
NAT_PAIRS = [
    (A, B)
    for A in XMODS
    for B in XMODS
    for (a0, a1), (b0, b1) in [(_fibers(A)[0], _fibers(B)[0])]
    if len(b0) ** len(a0) * len(b1) ** len(a1) <= MAX_NAT_SPACE
]


def _inverse(perm):
    inv = [0] * len(perm)
    for old, new in enumerate(perm):
        inv[new] = old
    return inv


def _relabel_group(G, perm):
    """G with element i renamed perm[i]."""
    inv = _inverse(perm)
    return make_group(
        [[perm[G.table[inv[a]][inv[b]]] for b in range(G.order)] for a in range(G.order)],
        G.name,
    )


def _relabel_xmod(A, perm):
    """A on its group relabelled by perm, over BASE."""
    inv, base_inv = _inverse(perm), _inverse(BASE_LABEL)
    n = A.group.order
    boundary = [BASE_LABEL[A.boundary.image[inv[m]]] for m in range(n)]
    action = [[perm[A.action.table[base_inv[p]][inv[m]]] for m in range(n)] for p in range(2)]
    return make_crossed_module(A.name, _relabel_group(A.group, perm), BASE, boundary, action)


def _labels(draw, G):
    """A permutation of G's elements that moves the identity when it can."""
    return draw(
        st.permutations(range(G.order)).filter(
            lambda p: G.order == 1 or p[G.identity] != G.identity
        )
    )


def _is_hom(G, H, img):
    return all(
        img[G.table[a][b]] == H.table[img[a]][img[b]]
        for a in range(G.order)
        for b in range(G.order)
    )


@st.composite
def relabelled_groups(draw):
    G = draw(st.sampled_from(GROUPS))
    return _relabel_group(G, _labels(draw, G))


@st.composite
def relabelled_xmod_pairs(draw):
    A, B = draw(
        st.tuples(st.sampled_from(XMODS), st.sampled_from(XMODS)).filter(
            lambda ab: ab[1].group.order ** ab[0].group.order <= MAX_MORPHISM_SPACE
        )
    )
    return (
        _relabel_xmod(A, _labels(draw, A.group)),
        _relabel_xmod(B, _labels(draw, B.group)),
    )


def test_relabelling_moves_the_identity():
    G = _relabel_group(cyclic_group(3), (2, 0, 1))
    assert G.identity == 2
    A = _relabel_xmod(XMODS[1], (1, 0))
    assert A.group.identity == 1 and A.base.identity == 1


@settings(max_examples=40, deadline=None)
@given(relabelled_groups(), relabelled_groups())
def test_enumerate_homs_relabelled_matches_filter_oracle(G, H):
    slow = [
        img
        for img in itertools.product(range(H.order), repeat=G.order)
        if _is_hom(G, H, img)
    ]
    assert [f.image for f in enumerate_homs(G, H)] == slow


@settings(max_examples=40, deadline=None)
@given(relabelled_groups())
def test_automorphism_group_relabelled_matches_permutation_oracle(G):
    slow = [perm for perm in itertools.permutations(range(G.order)) if _is_hom(G, G, perm)]
    assert list(automorphism_group(G).perms) == slow


@settings(max_examples=40, deadline=None)
@given(relabelled_xmod_pairs())
def test_enumerate_morphisms_relabelled_matches_filter_oracle(pair):
    A, B = pair
    slow = [
        mapping
        for mapping in itertools.product(range(B.group.order), repeat=A.group.order)
        if validate_morphism(A, B, mapping) == ()
    ]
    assert [f.mapping for f in enumerate_morphisms(A, B)] == slow


def _all_crossed_modules_oracle(M, P):
    """Structure keys of every (boundary, action) pair from the homomorphisms
    M -> P and P -> Aut(M) that passes the full crossed-module validation,
    in enumeration order."""
    aut = automorphism_group(M)
    out = []
    for bnd in enumerate_homs(M, P):
        for act_hom in enumerate_homs(P, aut.group):
            action = tuple(aut.perms[act_hom.image[p]] for p in range(P.order))
            if not crossed_module_violations(M, P, bnd.image, action):
                out.append((M.table, bnd.image, action))
    return out


@settings(max_examples=40, deadline=None)
@given(relabelled_groups(), st.one_of(st.just(BASE), relabelled_groups()))
def test_all_crossed_modules_relabelled_matches_full_validation_oracle(M, P):
    fast = [structure_key(A) for A in all_crossed_modules(M, P)]
    assert fast == _all_crossed_modules_oracle(M, P)


def _natural_transformations_oracle(F, G):
    """Every family of single components, extended coordinatewise to the
    pairs and kept when every naturality square commutes, in lexicographic
    order of the single components."""
    site = F.site
    sets_F, sets_G = assignment_sets(F), assignment_sets(G)
    singles = [i for i, o in enumerate(site.objects) if o.kind == "single"]
    choices = [
        list(itertools.product(range(len(sets_G[o])), repeat=len(sets_F[o])))
        for o in singles
    ]
    index_F = [{nu: i for i, nu in enumerate(elems)} for elems in sets_F]
    index_G = [{nu: i for i, nu in enumerate(elems)} for elems in sets_G]
    out = []
    for combo in itertools.product(*choices):
        components = dict(zip(singles, combo))
        for o, obj in enumerate(site.objects):
            if obj.kind == "pair":
                ox, oy = (site.position(SiteObject("single", (x,))) for x in obj.xs)
                components[o] = tuple(
                    index_G[o][
                        (
                            sets_G[ox][components[ox][index_F[ox][(a,)]]][0],
                            sets_G[oy][components[oy][index_F[oy][(b,)]]][0],
                        )
                    ]
                    for (a, b) in sets_F[o]
                )
        components = tuple(components[o] for o in range(len(site.objects)))
        phi = NaturalTransformation(source=F, target=G, components=components)
        if not check_naturality(phi):
            out.append(phi.components)
    return out


@st.composite
def relabelled_presheaf_pairs(draw):
    A, B = draw(st.sampled_from(NAT_PAIRS))
    return (
        compute_presheaf(_relabel_xmod(A, _labels(draw, A.group))),
        compute_presheaf(_relabel_xmod(B, _labels(draw, B.group))),
    )


@settings(max_examples=40, deadline=None)
@given(relabelled_presheaf_pairs())
def test_enumerate_natural_transformations_relabelled_matches_oracle(pair):
    F, G = pair
    fast = [phi.components for phi in enumerate_natural_transformations(F, G)]
    assert fast == _natural_transformations_oracle(F, G)


def test_natural_transformation_search_reads_only_the_presheaves(monkeypatch):
    # verify_full_faithful compares morphisms with transformations, so the
    # transformation side must not be computed by the morphism search.
    def refuse(*args, **kwargs):
        raise AssertionError("the morphism search was called")

    cases = [(compute_presheaf(A), compute_presheaf(B)) for A, B in NAT_PAIRS[::11]]
    for module in (groups, xmod, limits, words, presheaf):
        for name in ("enumerate_morphisms", "_search_homs"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    found = 0
    for F, G in cases:
        fast = [phi.components for phi in enumerate_natural_transformations(F, G)]
        assert fast == _natural_transformations_oracle(F, G)
        found += len(fast)
    assert found > 0


@settings(max_examples=40, deadline=None)
@given(relabelled_presheaf_pairs())
def test_searched_transformations_pass_check_naturality(pair):
    # The search checks each square at its last variable and does not
    # re-check its leaves, so every output must pass the full check.
    F, G = pair
    for phi in enumerate_natural_transformations(F, G):
        assert check_naturality(phi) == ()


def _postcomposition_oracle(f, F, G):
    """U(f) by its definition: each assignment of F composed with f, looked
    up in an index of G's set."""
    components = []
    for elems, targets in zip(assignment_sets(F), assignment_sets(G), strict=True):
        index = {nu: i for i, nu in enumerate(targets)}
        components.append(tuple(index[tuple(f.mapping[a] for a in nu)] for nu in elems))
    return tuple(components)


def _assert_postcomposition(f, F, G):
    assert functor_on_morphism(f, F, G).components == _postcomposition_oracle(f, F, G)


@settings(max_examples=40, deadline=None)
@given(relabelled_xmod_pairs())
def test_functor_on_morphism_relabelled_matches_postcomposition_oracle(pair):
    A, B = pair
    FA, FB = compute_presheaf(A), compute_presheaf(B)
    for f in enumerate_morphisms(A, B):
        _assert_postcomposition(f, FA, FB)
    cone = product_over_P(A, B)
    FX = compute_presheaf(cone.apex)
    for leg, target in zip(cone.legs, (FA, FB)):
        _assert_postcomposition(leg, FX, target)


def test_functor_on_morphism_on_s3_modules_matches_postcomposition_oracle():
    session = parse_session((Path(__file__).parent / "golden" / "s3.json").read_text())
    E, T = session.xmods["E"], session.xmods["T"]
    assert E.base.identity != 0
    presheaves = {A.name: compute_presheaf(A) for A in (E, T)}
    checked = 0
    for A, B in itertools.product((E, T), repeat=2):
        FA, FB = presheaves[A.name], presheaves[B.name]
        # The search is quick; only its a-priori gate would refuse E -> E.
        for f in enumerate_morphisms(A, B, budget=10**15):
            _assert_postcomposition(f, FA, FB)
            cone = kernel_pair(f)
            FK = compute_presheaf(cone.apex)
            for leg in cone.legs:
                _assert_postcomposition(leg, FK, FA)
            checked += 1
        cone = product_over_P(A, B)
        FX = compute_presheaf(cone.apex)
        for leg, target in zip(cone.legs, (FA, FB)):
            _assert_postcomposition(leg, FX, target)
    assert checked == 8
