"""Tests for the presheaf embedding and its verification reports."""

from dataclasses import replace

import pytest

from oracles import assignment_sets, morphism_named, presheaf_composition_violations
from xmodp.errors import (
    BaseMismatchError,
    BudgetExceededError,
    FiberMismatchError,
    IsIsoError,
    NotMonoError,
    NotNaturalError,
    ShapeMismatchError,
)
from xmodp.groups import cyclic_group, klein_four_group, symmetric_group_3, trivial_group
from xmodp import presheaf
from xmodp.limits import Cocone, Cone, EquivalenceRelation, default_catalogue, equivalence_violations, terminal_object
from xmodp.presheaf import (
    NaturalTransformation,
    Presheaf,
    check_naturality,
    component_shape_violations,
    compute_presheaf,
    enumerate_natural_transformations,
    functor_on_morphism,
    generator_witness,
    presheaf_action,
    reconstruct_morphism,
    verify_coequaliser_preserved,
    verify_equaliser_preserved,
    verify_full_faithful,
    verify_product_preserved,
)
from xmodp.words import SiteObject, hom_set, make_free_object, symbol_word
from xmodp.xmod import (
    compose_xmod_morphisms,
    conjugation_xmod,
    identity_xmod_morphism,
    make_crossed_module,
    make_xmod_morphism,
    trivial_action,
    trivial_xmod,
)

C1 = trivial_group()
C2 = cyclic_group(2)
C3 = cyclic_group(3)
C4 = cyclic_group(4)


def _mod2_xmod():
    return make_crossed_module("A2", C4, C2, [0, 1, 0, 1], trivial_action(C2, C4).table)


def _id_xmod():
    return conjugation_xmod(C2, [0, 1])


def _flat_xmod():
    return trivial_xmod(C2, C2)


def _pair(F, x, y):
    """Position of pair(x, y); single(x) is at position x."""
    return F.site.position(SiteObject("pair", (x, y)))


def _action(F, name):
    """The index map of the generator called name."""
    (k,) = [k for k in range(len(F.actions)) if F.site.name(k) == name]
    return F.actions[k]


def test_presheaf_sets_are_fiber_products():
    F = compute_presheaf(_mod2_xmod())
    sets = assignment_sets(F)
    assert sets[0] == ((0,), (2,))
    assert sets[1] == ((1,), (3,))
    assert sets[_pair(F, 1, 1)] == ((1, 1), (1, 3), (3, 1), (3, 3))
    assert sets[_pair(F, 0, 1)] == ((0, 1), (0, 3), (2, 1), (2, 3))


def test_presheaf_identity_generators_act_as_identity():
    F = compute_presheaf(_mod2_xmod())
    for i, (o, elems) in enumerate(zip(map(F.site.object, range(F.site.object_count)), assignment_sets(F))):
        assert _action(F, f"id[{o.describe()}]") == F.actions[i] == tuple(range(len(elems)))


def test_conjugation_move_acts_through_the_action():
    twisted = trivial_xmod(C3, C2, action=[[0, 1, 2], [0, 2, 1]], name="B3i")
    F = compute_presheaf(twisted)
    # The move at p = 1 sends the assignment a to the action of 1 on a,
    # which here is inversion.
    assert _action(F, "m[1,0]") == (0, 2, 1)
    plain = compute_presheaf(_mod2_xmod())
    assert _action(plain, "m[1,1]") == (0, 1)


def test_multiplication_move_multiplies_components():
    F = compute_presheaf(_mod2_xmod())
    # Pair assignments in lexicographic order (1,1),(1,3),(3,1),(3,3) map to
    # the products 2, 0, 0, 2 inside single(0) = ((0,),(2,)).
    assert _action(F, "sigma[1,1]") == (1, 0, 0, 1)
    assert _action(F, "inc1[1,1]") == (0, 0, 1, 1)
    assert _action(F, "inc2[1,1]") == (0, 1, 0, 1)


def test_presheaf_respects_composition():
    # Two objects over C2, then every catalogue object of order <= 4 over
    # the non-abelian S3 and over V4.
    over_s3, over_v4 = default_catalogue(symmetric_group_3(), 4), default_catalogue(klein_four_group(), 4)
    assert (len(over_s3), len(over_v4)) == (18, 53)
    for A in [_mod2_xmod(), trivial_xmod(C3, C2, action=[[0, 1, 2], [0, 2, 1]]), *over_s3, *over_v4]:
        F = compute_presheaf(A)
        assert presheaf_composition_violations(F) == ()


def test_composition_violations_list_the_pairs_through_a_corrupted_map():
    # m[1,1] of A2 acts as the identity on the fiber {1, 3}; set to the
    # swap, it breaks every composite through it once, while m[1,1] after
    # itself still composes to the identity.
    F = compute_presheaf(_mod2_xmod())
    k = F.site.names.index("m[1,1]")
    actions = list(F.actions)
    assert actions[k] == (0, 1)
    actions[k] = (1, 0)
    corrupted = Presheaf(F.site, F.xmod, F.fibers, F.pos, F.sizes, tuple(actions))
    assert presheaf_composition_violations(corrupted) == (
        ("id[single(1)]", "m[1,1]"),
        ("m[0,1]", "m[1,1]"),
        ("m[1,1]", "id[single(1)]"),
        ("m[1,1]", "m[0,1]"),
        ("sigma[0,1]", "m[1,1]"),
        ("inc2[0,1]", "m[1,1]"),
        ("sigma[1,0]", "m[1,1]"),
        ("inc1[1,0]", "m[1,1]"),
        ("inc1[1,1]", "m[1,1]"),
        ("inc2[1,1]", "m[1,1]"),
    )


def test_presheaf_action_on_composite_morphism():
    from xmodp.words import compose_site_morphisms

    F = compute_presheaf(_mod2_xmod())
    site = F.site
    comp = compose_site_morphisms(morphism_named(site, "inc1[1,1]"), morphism_named(site, "m[1,1]"))
    direct = presheaf_action(F, comp)
    chained = tuple(
        _action(F, "m[1,1]")[_action(F, "inc1[1,1]")[j]]
        for j in range(len(hom_set(site.free(_pair(F, 1, 1)), F.xmod)))
    )
    assert direct == chained


def test_presheaf_action_rejects_malformed_morphisms():
    F = compute_presheaf(_mod2_xmod())
    sigma = morphism_named(F.site, "sigma[1,1]")
    with pytest.raises(ShapeMismatchError):
        presheaf_action(F, replace(sigma, words=sigma.words * 2))
    with pytest.raises(FiberMismatchError):
        presheaf_action(F, replace(sigma, words=morphism_named(F.site, "sigma[0,1]").words))
    with pytest.raises(BaseMismatchError):
        presheaf_action(F, replace(sigma, words=(symbol_word(make_free_object(C3, ("g0", "g1"), (1, 1)), "g0"),)))
    # inc1[0,1]'s word g0 lies over 0, not over the 1 of single(1): its
    # images are not assignments of single(1), so no index map exists.
    with pytest.raises(FiberMismatchError):
        presheaf_action(F, replace(morphism_named(F.site, "inc1[0,1]"), source=F.site.object(1)))


def test_functor_on_morphism_is_natural():
    A2, A1 = _mod2_xmod(), _id_xmod()
    F, G = compute_presheaf(A2), compute_presheaf(A1)
    f = make_xmod_morphism(A2, A1, [0, 1, 0, 1])
    phi = functor_on_morphism(f, F, G)
    assert check_naturality(phi) == ()
    assert phi.components[0] == (0, 0)

    ident = functor_on_morphism(identity_xmod_morphism(A2), F, F)
    assert len(ident.components) == F.site.object_count
    for comp, elems in zip(ident.components, assignment_sets(F)):
        assert comp == tuple(range(len(elems)))


def test_functor_respects_composition():
    A2, A1, A3 = _mod2_xmod(), _id_xmod(), _flat_xmod()
    F3, F2, F1 = compute_presheaf(A3), compute_presheaf(A2), compute_presheaf(A1)
    g = make_xmod_morphism(A3, A2, [0, 2])
    f = make_xmod_morphism(A2, A1, [0, 1, 0, 1])
    lhs = functor_on_morphism(compose_xmod_morphisms(f, g), F3, F1)
    uf = functor_on_morphism(f, F2, F1)
    ug = functor_on_morphism(g, F3, F2)
    for o, elems in enumerate(assignment_sets(F3)):
        chained = tuple(uf.components[o][ug.components[o][j]] for j in range(len(elems)))
        assert lhs.components[o] == chained


def test_functor_rejects_mismatched_presheaves():
    A2, A1 = _mod2_xmod(), _id_xmod()
    F, G = compute_presheaf(A2), compute_presheaf(A1)
    f = make_xmod_morphism(A2, A1, [0, 1, 0, 1])
    with pytest.raises(ShapeMismatchError):
        functor_on_morphism(f, G, F)


def _perturbed_identity(F):
    phi = functor_on_morphism(identity_xmod_morphism(F.xmod), F, F)
    components = list(phi.components)
    components[0] = tuple(reversed(components[0]))
    return NaturalTransformation(source=F, target=F, components=tuple(components))


def test_check_naturality_finds_broken_squares():
    F = compute_presheaf(_mod2_xmod())
    bad = _perturbed_identity(F)
    assert check_naturality(bad) != ()


def test_check_naturality_shape_errors():
    F = compute_presheaf(_mod2_xmod())
    phi = functor_on_morphism(identity_xmod_morphism(F.xmod), F, F)
    for components in (phi.components[1:], ((0,), *phi.components[1:])):
        with pytest.raises(ShapeMismatchError):
            check_naturality(NaturalTransformation(source=F, target=F, components=components))


def _relation_with_bool():
    pairs = frozenset({(0, 0), (True, 1), (2, 2), (3, 3), (0, 2), (2, 0), (1, 3), (3, 1)})
    return equivalence_violations(EquivalenceRelation(_mod2_xmod(), pairs))


def _relation_with(pair):
    """A2's kernel-pair relation with one malformed pair added."""
    pairs = frozenset({(0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (2, 0), (1, 3), (3, 1), pair})
    return lambda: equivalence_violations(EquivalenceRelation(_mod2_xmod(), pairs))


def _component_with_bool():
    F = compute_presheaf(_mod2_xmod())
    components = list(functor_on_morphism(identity_xmod_morphism(F.xmod), F, F).components)
    assert components[0] == (0, 1)
    components[0] = (0, True)
    return component_shape_violations(NaturalTransformation(source=F, target=F, components=tuple(components)))


@pytest.mark.parametrize(
    "report",
    [_relation_with_bool, _component_with_bool, _relation_with(("x", 1)), _relation_with((None, 1)), _relation_with((0, 0, 0))],
    ids=["relation", "component", "relation-str", "relation-none", "relation-triple"],
)
def test_bool_entry_is_reported_out_of_range(report):
    # True == 1 is in range in both, so only a type check reports it; a
    # pair that cannot be sorted with ints or unpacked is reported too.
    (reason,) = report()
    assert "out of range" in reason or "out-of-range" in reason


def test_malformed_pairs_are_reported_by_their_repr():
    assert _relation_with(("x", 1))() == ("pair ('x', 1) out of range",)
    assert _relation_with((None, 1))() == ("pair (None, 1) out of range",)
    assert _relation_with((0, 0, 0))() == ("pair (0, 0, 0) out of range",)
    assert _relation_with((1.0, 0))() == ("pair (1.0, 0) out of range",)
    # Int pairs: the least one out of range, as before.
    pairs = frozenset({(0, 0), (9, 0), (10, 0), (-1, 5)})
    assert equivalence_violations(EquivalenceRelation(_mod2_xmod(), pairs)) == ("pair (-1, 5) out of range",)


def test_enumerate_natural_transformations_counts():
    A2, A1, A3 = _mod2_xmod(), _id_xmod(), _flat_xmod()
    F2, F1, F3 = compute_presheaf(A2), compute_presheaf(A1), compute_presheaf(A3)
    assert len(enumerate_natural_transformations(F2, F2)) == 2
    assert len(enumerate_natural_transformations(F1, F2)) == 0
    assert len(enumerate_natural_transformations(F3, F2)) == 2
    assert len(enumerate_natural_transformations(F2, F1)) == 1
    with pytest.raises(BudgetExceededError):
        enumerate_natural_transformations(F2, F2, budget=1)


def test_reconstruct_round_trips():
    A2 = _mod2_xmod()
    F = compute_presheaf(A2)
    for phi in enumerate_natural_transformations(F, F):
        f = reconstruct_morphism(phi)
        assert functor_on_morphism(f, F, F).components == phi.components
    with pytest.raises(NotNaturalError):
        reconstruct_morphism(_perturbed_identity(F))


def test_verify_full_faithful_matrix():
    A2, A1, A3 = _mod2_xmod(), _id_xmod(), _flat_xmod()
    expected = {
        ("A1", "A1"): 1, ("A1", "A2"): 0, ("A1", "A3"): 0,
        ("A2", "A1"): 1, ("A2", "A2"): 2, ("A2", "A3"): 0,
        ("A3", "A1"): 1, ("A3", "A2"): 2, ("A3", "A3"): 2,
        # 6^6 = 46656 transformation candidates: slow unless the search prunes.
        ("T6", "T6"): 6,
    }
    named = {"A1": A1, "A2": A2, "A3": A3, "T6": trivial_xmod(cyclic_group(6), C2)}
    for (sa, sb), count in expected.items():
        report = verify_full_faithful(named[sa], named[sb])
        assert report["pass"], (sa, sb, report)
        assert report["hom_count"] == count == report["nat_count"]
        assert report["round_trip_hom"] and report["round_trip_nat"]
        assert report["functor_injective"]


def test_product_preservation():
    report = verify_product_preserved(_mod2_xmod(), _id_xmod())
    assert report["pass"]
    assert report["squares_checked"] > 0
    for entry in report["objects"]:
        assert entry["ok"]
        if entry["object"].startswith("single"):
            assert entry["lhs_size"] == 2


def test_equaliser_preservation():
    A2, A1 = _mod2_xmod(), _id_xmod()
    f = make_xmod_morphism(A2, A1, [0, 1, 0, 1])
    report = verify_equaliser_preserved(f, f)
    assert report["pass"]

    B = trivial_xmod(C3, C1)
    ident = identity_xmod_morphism(B)
    inversion = make_xmod_morphism(B, B, [0, 2, 1])
    report = verify_equaliser_preserved(ident, inversion)
    assert report["pass"]
    single = next(e for e in report["objects"] if e["object"] == "single(0)")
    assert single["lhs_size"] == 1


def test_coequaliser_preservation_collapses_to_a_point():
    B = trivial_xmod(C3, C1)
    ident = identity_xmod_morphism(B)
    inversion = make_xmod_morphism(B, B, [0, 2, 1])
    report = verify_coequaliser_preserved(ident, inversion)
    assert report["pass"]
    for entry in report["objects"]:
        assert entry["lhs_size"] == 1 and entry["rhs_size"] == 1


def test_coequaliser_preservation_with_empty_fibers():
    A3 = _flat_xmod()
    ident = identity_xmod_morphism(A3)
    zero = make_xmod_morphism(A3, A3, [0, 0])
    report = verify_coequaliser_preserved(ident, zero)
    assert report["pass"]
    empty = next(e for e in report["objects"] if e["object"] == "single(1)")
    assert empty["lhs_size"] == 0 and empty["rhs_size"] == 0


def test_generator_witness_empty_fiber():
    A3 = _flat_xmod()
    incl = make_xmod_morphism(A3, _mod2_xmod(), [0, 2])
    report = generator_witness(incl)
    assert report["pass"]
    assert report["missed_element"] == 1
    assert report["base_element"] == 1
    assert report["candidates_checked"] == 0


def test_generator_witness_with_candidates():
    V = trivial_xmod(klein_four_group(), C2)
    small = trivial_xmod(C2, C2)
    incl = make_xmod_morphism(small, V, [0, 1])
    report = generator_witness(incl)
    assert report["pass"]
    assert report["missed_element"] == 2
    assert report["candidates_checked"] == 2


def test_generator_witness_rejects_non_monos_and_isos():
    A2, A1 = _mod2_xmod(), _id_xmod()
    with pytest.raises(NotMonoError):
        generator_witness(make_xmod_morphism(A2, A1, [0, 1, 0, 1]))
    with pytest.raises(IsIsoError):
        generator_witness(identity_xmod_morphism(A2))
    with pytest.raises(IsIsoError):
        generator_witness(make_xmod_morphism(_id_xmod(), terminal_object(C2), [0, 1]))


def _assert_comparison_fails(report, kind, entry_keys):
    assert report["kind"] == kind
    assert report["pass"] is False
    assert report["failures"]
    assert not all(o["ok"] for o in report["objects"])
    for entry in report["failures"]:
        assert set(entry) == entry_keys


def test_product_comparison_catches_wrong_cone(monkeypatch):
    A = _mod2_xmod()
    ident = identity_xmod_morphism(A)
    diagonal = Cone(kind="product", apex=A, legs=(ident, ident), elements=tuple((a, a) for a in range(4)))
    monkeypatch.setattr(presheaf, "product_over_P", lambda X, Y: diagonal)
    report = verify_product_preserved(A, A)
    _assert_comparison_fails(report, "product", {"object", "reason"})


def test_equaliser_comparison_catches_wrong_cone(monkeypatch):
    f = make_xmod_morphism(_mod2_xmod(), _id_xmod(), [0, 1, 0, 1])
    incl = make_xmod_morphism(_flat_xmod(), f.source, [0, 2])
    too_small = Cone(kind="equaliser", apex=incl.source, legs=(incl,), elements=(0, 2))
    monkeypatch.setattr(presheaf, "equaliser", lambda u, v: too_small)
    report = verify_equaliser_preserved(f, f)
    _assert_comparison_fails(report, "equaliser", {"object", "reason"})


def test_coequaliser_comparison_catches_wrong_cocone(monkeypatch):
    B = _flat_xmod()
    ident = identity_xmod_morphism(B)
    incl = make_xmod_morphism(B, _mod2_xmod(), [0, 2])
    not_onto = Cocone(kind="coequaliser", apex=incl.target, legs=(incl,), classes=((0,), (1,)))
    monkeypatch.setattr(presheaf, "coequaliser", lambda u, v: not_onto)
    report = verify_coequaliser_preserved(ident, ident)
    _assert_comparison_fails(report, "coequaliser", {"object", "reason", "well_defined", "surjective"})
    assert any(not entry["surjective"] for entry in report["failures"])


@pytest.mark.parametrize(
    "verify, square_keys",
    [
        (verify_product_preserved, {"object", "generator", "index"}),
        (verify_equaliser_preserved, {"object", "generator", "index"}),
        (verify_coequaliser_preserved, {"generator", "index", "reason"}),
    ],
    # Each verifier is named by its construction: verify_<kind>_preserved.
    ids=lambda v: v.__name__.split("_")[1] if callable(v) else None,
)
def test_comparisons_report_failed_squares(monkeypatch, verify, square_keys):
    # The square check reports one failed square, generator 0 at index 0,
    # for every comparison map, on the generators and on the whole range
    # alike, so each comparison must read its squares and fail on them.
    monkeypatch.setattr(presheaf, "_square_failures", lambda F, G, singles, ps, bs: [(0, 0)])
    f = make_xmod_morphism(_mod2_xmod(), _id_xmod(), [0, 1, 0, 1])
    report = verify(f.source, f.target) if verify is verify_product_preserved else verify(f, f)
    assert report["pass"] is False
    assert all(o["ok"] for o in report["objects"])
    assert len(report["failures"]) == 1
    (entry,) = report["failures"]
    assert set(entry) == square_keys
    assert (entry["generator"], entry["index"]) == ("id[single(0)]", 0)
