"""Naturality, reconstruction and pair apexes against their definitions.

check_naturality checks a transformation's shape by one C-level pass per
component and its squares by comparing two gathers per generator; only
when the gathers differ are their entries compared one by one.
_pair_apex builds the tables of product, pullback and kernel-pair apexes
from flat codes c * |D| + d.  Each is compared here with its definition,
kept in this file as the oracle: the square-by-square loop after the
entry-by-entry shape scan, and the apex tables built through a dict keyed
by pairs.  The inputs include presheaves with empty sets (a C2 with
trivial boundary over S4) and with one-element sets (the terminal
object), on relabelled bases.
"""

import functools
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import assignment_sets
from xmodp import presheaf
from xmodp.errors import FiberMismatchError, ReconstructionInvalidError, ShapeMismatchError
from xmodp.groups import cyclic_group, is_index, klein_four_group, make_group
from xmodp.limits import default_catalogue, kernel_pair, product_over_P, pullback, terminal_object
from xmodp.presheaf import (
    NaturalTransformation,
    check_naturality,
    component_shape_violations,
    compute_presheaf,
    enumerate_natural_transformations,
    functor_on_morphism,
    presheaf_action,
    verify_full_faithful,
)
from xmodp.session import parse_session
from xmodp.words import evaluate_word
from xmodp.xmod import (
    XModMorphism,
    compose_xmod_morphisms,
    enumerate_morphisms,
    identity_xmod_morphism,
    make_crossed_module,
    trivial_action,
    trivial_xmod,
)

S3_SESSION = parse_session((Path(__file__).parent / "golden" / "s3.json").read_text())
E, T = S3_SESSION.xmods["E"], S3_SESSION.xmods["T"]
C2 = cyclic_group(2)
# The a-priori gate of enumerate_morphisms prices |M_B|^|M_A| maps; the
# search itself is quick on these modules of order at most 12.
UNGATED = 10**15


def _homs(A, B):
    return enumerate_morphisms(A, B, budget=UNGATED)


def _s4():
    """S4 from permutations, with its identity moved off index 0."""
    perms = list(itertools.permutations(range(4)))
    perms = perms[1:] + perms[:1]
    pos = {p: i for i, p in enumerate(perms)}
    return make_group([[pos[tuple(p[q[x]] for x in range(4))] for q in perms] for p in perms], "S4")


def _transformations():
    """Natural transformations with their presheaves: images of morphisms and
    searched transformations, over S3 (relabelled), C2 and S4."""
    terminal = terminal_object(E.base)
    s3 = {A.name: compute_presheaf(A) for A in (E, T, terminal)}
    cases = []
    for a, b in [("E", "E"), ("T", "E"), ("E", terminal.name), (terminal.name, terminal.name), ("T", "T")]:
        F, G = s3[a], s3[b]
        cases += [functor_on_morphism(f, F, G) for f in _homs(F.xmod, G.xmod)]
    c2 = [compute_presheaf(A) for A in default_catalogue(C2, 4)]
    for F, G in itertools.product(c2[:4], repeat=2):
        cases += enumerate_natural_transformations(F, G)
    for F in c2[4:]:
        cases += enumerate_natural_transformations(F, F)
    Z2 = trivial_xmod(C2, _s4(), name="Z2")
    FZ = compute_presheaf(Z2)
    cases += [functor_on_morphism(f, FZ, FZ) for f in _homs(Z2, Z2)]
    return cases


CASES = _transformations()
# The assignments of each presheaf of CASES, built once per presheaf.
_sets = functools.cache(assignment_sets)


def _shape_oracle(phi):
    """The definition of a component's shape, entry by entry."""
    F, G = phi.source, phi.target
    objects = list(map(F.site.object, range(F.site.object_count)))
    if len(phi.components) != len(objects):
        return (f"{len(phi.components)} components for {len(objects)} objects",)
    out = []
    for i, o in enumerate(objects):
        comp = phi.components[i]
        if len(comp) != len(_sets(F)[i]):
            out.append(f"component at {o.describe()} has length {len(comp)}")
            continue
        if not all(is_index(v, len(_sets(G)[i])) for v in comp):
            out.append(f"component at {o.describe()} has out-of-range values")
    return tuple(out)


def _naturality_oracle(phi):
    """The definition: the full shape scan, then every square in order."""
    shape = _shape_oracle(phi)
    if shape:
        raise ShapeMismatchError("; ".join(shape))
    F, G = phi.source, phi.target
    site = F.site
    bad = []
    for k, g in enumerate(map(site.morphism, range(site.generator_count))):
        act_F, act_G = F.actions[k], G.actions[k]
        comp_src = phi.components[site.position(g.source)]
        comp_tgt = phi.components[site.position(g.target)]
        for j in range(len(act_F)):
            if comp_src[act_F[j]] != act_G[comp_tgt[j]]:
                bad.append((g.name, j))
    return tuple(bad)


def _outcome(check, phi):
    try:
        return "returned", check(phi)
    except ShapeMismatchError as err:
        return "raised", str(err)


def test_cases_cover_empty_and_one_element_sets():
    sizes = {len(elems) for phi in CASES for elems in _sets(phi.source)}
    assert {0, 1} <= sizes and max(sizes) > 1
    assert any(phi.source.site.base.order == 24 for phi in CASES)
    assert all(check_naturality(phi) == () for phi in CASES)


PERTURBATIONS = ["none", "entry", "bool", "out-of-range", "negative", "missing", "longer", "shorter"]


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(CASES), st.sampled_from(PERTURBATIONS), st.data())
def test_check_naturality_matches_square_by_square_oracle(phi, kind, data):
    F, G = phi.source, phi.target
    components = list(phi.components)
    objects = [o for o, comp in enumerate(components) if comp]
    o = data.draw(st.sampled_from(objects if kind != "missing" else range(len(components))))
    comp = list(components[o])
    i = data.draw(st.integers(0, max(len(comp) - 1, 0)))
    limit = len(_sets(G)[o])
    if kind == "entry":
        comp[i] = (comp[i] + data.draw(st.integers(1, max(limit - 1, 1)))) % limit
    elif kind == "bool":
        comp[i] = True
    elif kind == "out-of-range":
        comp[i] = limit
    elif kind == "negative":
        comp[i] = -1
    elif kind == "longer":
        comp.append(0)
    elif kind == "shorter":
        comp.pop()
    components[o] = tuple(comp)
    if kind == "missing":
        del components[o]
    perturbed = NaturalTransformation(source=F, target=G, components=tuple(components))
    assert _outcome(check_naturality, perturbed) == _outcome(_naturality_oracle, perturbed)
    assert component_shape_violations(perturbed) == _shape_oracle(perturbed)


def test_check_naturality_lists_failures_in_generator_order():
    # Two components broken at once, on a presheaf with squares of one entry.
    phi = next(p for p in CASES if p.source.xmod is E and p.target.xmod is E)
    components = list(phi.components)
    for o in range(2):
        components[o] = tuple(reversed(components[o]))
    broken = NaturalTransformation(source=phi.source, target=phi.target, components=tuple(components))
    bad = check_naturality(broken)
    assert bad and bad == _naturality_oracle(broken)
    assert len({name for name, _ in bad}) > 1


def _apex_oracle(C, D, pairs):
    """Group and action tables of the pair apex, through a dict keyed by pairs."""
    pos = {cd: i for i, cd in enumerate(pairs)}
    table = tuple(
        tuple(pos[(C.group.table[c1][c2], D.group.table[d1][d2])] for (c2, d2) in pairs)
        for (c1, d1) in pairs
    )
    action = tuple(
        tuple(pos[(C.act(p, c), D.act(p, d))] for (c, d) in pairs) for p in range(C.base.order)
    )
    return table, action


def _assert_apex_matches(cone, C, D):
    pairs = list(cone.elements)
    table, action = _apex_oracle(C, D, pairs)
    apex = cone.apex
    assert apex.group.table == table
    assert apex.action.table == action
    assert apex.boundary.image == tuple(C.boundary.image[c] for c, _ in pairs)
    assert [leg.mapping for leg in cone.legs] == [tuple(c for c, _ in pairs), tuple(d for _, d in pairs)]


C2_XMODS = default_catalogue(C2, 6)
S3_XMODS = [E, T, terminal_object(E.base)]


@pytest.mark.parametrize("xmods", [C2_XMODS, S3_XMODS], ids=["C2", "S3"])
def test_pair_apex_tables_match_dict_construction(xmods):
    checked = omitted = 0
    for A, B in itertools.product(xmods, repeat=2):
        cone = product_over_P(A, B)
        _assert_apex_matches(cone, A, B)
        omitted += len(cone.elements) < A.group.order * B.group.order
        homs, endos = _homs(A, B)[-3:], _homs(B, B)[-2:]
        for f in homs:
            _assert_apex_matches(kernel_pair(f), A, A)
            for g, h in itertools.product(endos, homs):
                cone = pullback(compose_xmod_morphisms(g, f), compose_xmod_morphisms(g, h))
                _assert_apex_matches(cone, A, A)
                checked += 1
    # Some products leave pairs out, so their code lists hold -1 entries.
    assert checked > 0 and omitted > 0


def _mod2_xmod():
    return make_crossed_module("A2", cyclic_group(4), C2, [0, 1, 0, 1], trivial_action(C2, cyclic_group(4)).table)


def _swapped_identity(F):
    """U(id) with the component at single(0) reversed: the element map it
    reads, 0 <-> 2 on C4, moves the identity, so it is no morphism."""
    components = list(functor_on_morphism(identity_xmod_morphism(F.xmod), F, F).components)
    components[0] = tuple(reversed(components[0]))
    return NaturalTransformation(source=F, target=F, components=tuple(components))


def test_private_reconstruction_still_validates_the_morphism():
    F = compute_presheaf(_mod2_xmod())
    with pytest.raises(ReconstructionInvalidError):
        presheaf._reconstruct(F, F, _swapped_identity(F).components[: F.site.base.order])


def test_verify_full_faithful_validates_what_it_reconstructs(monkeypatch):
    A = _mod2_xmod()
    F = compute_presheaf(A)
    singles = list(_swapped_identity(F).components[: A.base.order])
    monkeypatch.setattr(presheaf, "_natural_singles", lambda *args: [singles])
    with pytest.raises(ReconstructionInvalidError):
        verify_full_faithful(A, A)


def test_verify_full_faithful_trusts_its_own_transformations(monkeypatch):
    # The searched transformations were checked square by square and the
    # images U(f) need no check, so no naturality pass runs at all.
    def refuse(phi):
        raise AssertionError("check_naturality was called")

    monkeypatch.setattr(presheaf, "check_naturality", refuse)
    for A, B in [(_mod2_xmod(), _mod2_xmod()), (T, E)]:
        report = verify_full_faithful(A, B)
        assert report["pass"] and report["hom_count"] == report["nat_count"] > 0


def test_transformation_search_checks_the_move_squares():
    # V4 over C2 with trivial boundary, C2 swapping 1 and 2 in the source
    # and acting trivially in the target.  The sigma squares alone admit
    # all 16 endomorphisms of V4; the m[1,0] squares keep the 4 with
    # f(1) == f(2), which are the morphisms.
    V4 = klein_four_group()
    swap = trivial_xmod(V4, C2, [[0, 1, 2, 3], [0, 2, 1, 3]], name="swap")
    fixed = trivial_xmod(V4, C2, name="fixed")
    F, G = compute_presheaf(swap), compute_presheaf(fixed)
    nats = enumerate_natural_transformations(F, G)
    homs = enumerate_morphisms(swap, fixed)
    assert [phi.components for phi in nats] == [functor_on_morphism(f, F, G).components for f in homs]
    assert [f.mapping for f in homs] == [(0, u, u, 0) for u in range(4)]


def test_functor_on_morphism_rejects_a_map_across_fibers():
    # Every element sent to 0: E's boundary is not constant, so some element
    # changes fiber, and the closed form would give wrong components.
    assert len(set(E.boundary.image)) > 1
    F = compute_presheaf(E)
    with pytest.raises(FiberMismatchError):
        functor_on_morphism(XModMorphism(E, E, (0,) * E.group.order), F, F)


def test_presheaf_action_indexes_images_by_fiber_position():
    # On a relabelled base, an image's index in its set is the mixed-radix
    # number of its entries' fiber positions, with no lookup table.
    F = compute_presheaf(E)
    site, sets = F.site, assignment_sets(F)
    for k, (s, t) in enumerate(site.ends()):
        g = site.morphism(k)
        source = {nu: i for i, nu in enumerate(sets[s])}
        expected = tuple(
            source[tuple(evaluate_word(w, E, nu) for w in g.words)] for nu in sets[t]
        )
        assert presheaf_action(F, g) == expected == F.actions[k]
