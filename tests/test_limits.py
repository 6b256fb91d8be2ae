"""Tests for limits, colimits, quotients, and universal-property sweeps."""

import itertools

import pytest

from oracles import unique_to_terminal
from xmodp import limits
from xmodp.errors import (
    BaseMismatchError,
    DiagramMismatchError,
    IndexOutOfRangeError,
    NotEquivalenceRelationError,
    OrderTooLargeError,
)
from xmodp.groups import (
    _trusted_group,
    all_subgroups,
    automorphism_group,
    cyclic_group,
    enumerate_homs,
    klein_four_group,
    make_group,
    normal_subgroups,
    quotient_group,
    subgroup_group,
    symmetric_group_3,
    trivial_group,
)
from xmodp.limits import (
    _CATALOGUE_GROUPS,
    Cocone,
    Cone,
    EquivalenceRelation,
    coequaliser,
    default_catalogue,
    equaliser,
    extend_catalogue,
    image_factorization,
    is_effective,
    is_equivalence_relation,
    kernel_pair,
    kernel_pair_relation,
    product_over_P,
    pullback,
    quotient_by_equivalence,
    relation_xmod,
    terminal_object,
    verify_coequaliser,
    verify_equaliser,
    verify_kernel_pair,
    verify_product,
    verify_pullback,
    verify_quotient,
)
from xmodp.xmod import (
    all_crossed_modules,
    conjugation_xmod,
    crossed_module_violations,
    enumerate_morphisms,
    identity_xmod_morphism,
    make_crossed_module,
    make_xmod_morphism,
    structure_key,
    trivial_action,
    trivial_xmod,
    validate_crossed_module,
    validate_morphism,
)

C1 = trivial_group()
C2 = cyclic_group(2)
C3 = cyclic_group(3)
C4 = cyclic_group(4)


def _mod2_xmod():
    return make_crossed_module("A2", C4, C2, [0, 1, 0, 1], trivial_action(C2, C4).table)


def _id_xmod():
    return conjugation_xmod(C2, [0, 1])


def _c3_over_point():
    return trivial_xmod(C3, C1)


def _mod2_morphism():
    return make_xmod_morphism(_mod2_xmod(), _id_xmod(), [0, 1, 0, 1])


def test_equaliser_of_equal_maps_is_everything():
    f = _mod2_morphism()
    cone = equaliser(f, f)
    assert cone.elements == (0, 1, 2, 3)
    assert cone.apex.group.order == 4
    assert validate_morphism(cone.apex, f.source, cone.legs[0].mapping) == ()


def test_equaliser_identity_vs_inversion():
    A = _c3_over_point()
    ident = identity_xmod_morphism(A)
    inversion = make_xmod_morphism(A, A, [0, 2, 1])
    cone = equaliser(ident, inversion)
    assert cone.elements == (0,)
    assert cone.apex.group.order == 1


def test_equaliser_rejects_mismatched_shapes():
    f = _mod2_morphism()
    incl = make_xmod_morphism(trivial_xmod(C2, C2), _mod2_xmod(), [0, 2])
    with pytest.raises(DiagramMismatchError):
        equaliser(f, incl)


def test_coequaliser_identity_vs_inversion_collapses():
    A = _c3_over_point()
    ident = identity_xmod_morphism(A)
    inversion = make_xmod_morphism(A, A, [0, 2, 1])
    cocone = coequaliser(ident, inversion)
    # Identifying each element with its inverse forces 1 ~ 2, and the normal
    # closure of {1, 2} is everything.
    assert cocone.apex.group.order == 1
    assert cocone.classes == ((0, 1, 2),)


def test_coequaliser_identity_vs_zero():
    A = trivial_xmod(C2, C2)
    ident = identity_xmod_morphism(A)
    zero = make_xmod_morphism(A, A, [0, 0])
    cocone = coequaliser(ident, zero)
    assert cocone.apex.group.order == 1


def test_coequaliser_generators_stay_in_closure():
    f = _mod2_morphism()
    kp = kernel_pair(f)
    u = make_xmod_morphism(kp.apex, f.source, kp.legs[0].mapping)
    v = make_xmod_morphism(kp.apex, f.source, kp.legs[1].mapping)
    cocone = coequaliser(u, v)
    assert cocone.apex.group.order == 2
    # Oracle: every relator lands in the class of the identity, and the class
    # set is stable under the base action.
    B = f.source
    class_of = cocone.legs[0].mapping
    for c in range(kp.apex.group.order):
        relator = B.group.table[u.mapping[c]][B.group.inverse[v.mapping[c]]]
        assert class_of[relator] == 0
    for p in range(B.base.order):
        for b in range(B.group.order):
            assert class_of[B.act(p, b)] == class_of[b]


def test_pullback_of_mod2_with_itself():
    f = _mod2_morphism()
    cone = pullback(f, f)
    assert cone.elements == (
        (0, 0), (0, 2), (1, 1), (1, 3), (2, 0), (2, 2), (3, 1), (3, 3),
    )
    assert cone.apex.group.order == 8
    for i, (c, _) in enumerate(cone.elements):
        assert cone.apex.boundary.image[i] == f.source.boundary.image[c]
    assert validate_crossed_module(cone.apex) == ()


def test_pullback_along_identity_is_the_other_source():
    f = _mod2_morphism()
    cone = pullback(f, identity_xmod_morphism(f.target))
    # Pairs (c, f(c)): the first projection is a bijection onto the source.
    assert cone.apex.group.order == f.source.group.order
    assert sorted(cone.legs[0].mapping) == list(range(4))


def test_pullback_rejects_maps_without_a_common_target():
    f = _mod2_morphism()
    incl = make_xmod_morphism(trivial_xmod(C2, C2), _mod2_xmod(), [0, 2])
    with pytest.raises(DiagramMismatchError):
        pullback(f, incl)


def test_terminal_object_receives_exactly_one_morphism():
    T = terminal_object(C2)
    assert validate_crossed_module(T) == ()
    for A in default_catalogue(C2):
        arrows = enumerate_morphisms(A, T)
        assert len(arrows) == 1
        assert arrows[0].mapping == A.boundary.image
        assert arrows[0].mapping == unique_to_terminal(A).mapping


def test_product_orders():
    A2, A1 = _mod2_xmod(), _id_xmod()
    assert product_over_P(A2, A1).apex.group.order == 4
    A3 = trivial_xmod(C2, C2)
    square = product_over_P(A3, A3)
    assert square.apex.group.order == 4
    assert square.apex.group.is_abelian()


def test_product_refuses_modules_over_different_bases():
    # Over C2 and over V4: there is no product over one base to build.
    A = all_crossed_modules(C2, C2)[1]
    B = all_crossed_modules(C2, klein_four_group())[3]
    with pytest.raises(BaseMismatchError):
        product_over_P(A, B)


def test_product_with_terminal_is_identity():
    A = _mod2_xmod()
    cone = product_over_P(A, terminal_object(C2))
    leg = cone.legs[0]
    assert sorted(leg.mapping) == list(range(4))
    inverse = [leg.mapping.index(m) for m in range(4)]
    assert validate_morphism(A, cone.apex, inverse) == ()


def test_kernel_pair_of_mono_is_diagonal():
    incl = make_xmod_morphism(trivial_xmod(C2, C2), _mod2_xmod(), [0, 2])
    cone = kernel_pair(incl)
    assert cone.elements == ((0, 0), (1, 1))


def _internal_groups(kind):
    """Groups whose tables xmodp builds itself, packaged without re-validation."""
    cat = default_catalogue(C2, 4)
    groups = [cyclic_group(n) for n in range(1, 7)] + [klein_four_group(), symmetric_group_3()]
    if kind == "pullback":
        into_A2 = [f for A in cat for f in enumerate_morphisms(A, _mod2_xmod())]
        return [pullback(f, g).apex.group for f in into_A2[::2] for g in into_A2[1::3]]
    if kind == "product":
        return [product_over_P(A, B).apex.group for A in cat for B in cat[::2]]
    if kind == "kernel-pair":
        return [kernel_pair(f).apex.group for A in cat for B in cat[::3] for f in enumerate_morphisms(A, B)]
    if kind == "quotient":
        return [quotient_group(G, N).group for G in groups for N in normal_subgroups(G)]
    if kind == "subgroup":
        return [subgroup_group(G, H)[0] for G in groups for H in all_subgroups(G)]
    return [automorphism_group(G).group for G in groups]


@pytest.mark.parametrize("kind", ["pullback", "product", "kernel-pair", "quotient", "subgroup", "automorphism"])
def test_internal_tables_pass_full_validation(kind):
    built = _internal_groups(kind)
    assert len(built) > 5
    for G in built:
        assert make_group(G.table, G.name) == G
        assert _trusted_group(G.table, G.name) == G


def _internal_xmods(kind):
    """Crossed modules xmodp builds itself, each with its structure maps,
    packaged without re-validation."""
    cat = default_catalogue(C2, 4)
    into_A2 = [f for A in cat for f in enumerate_morphisms(A, _mod2_xmod())]
    maps = [f for A in cat for B in cat[::3] for f in enumerate_morphisms(A, B)]
    if kind == "pullback":
        cones = [pullback(f, g) for f in into_A2[::2] for g in into_A2[1::3]]
    elif kind == "product":
        cones = [product_over_P(A, B) for A in cat for B in cat[::2]]
    elif kind == "kernel-pair":
        cones = [kernel_pair(f) for f in maps]
    elif kind == "relation":
        return [(R, (u, v)) for R, u, v in (relation_xmod(kernel_pair_relation(f)) for f in maps)]
    elif kind == "equaliser":
        cones = [equaliser(f, g) for f in into_A2 for g in into_A2 if f.source == g.source]
    elif kind == "coequaliser":
        cones = [coequaliser(f, g) for f in maps for g in maps if (f.source, f.target) == (g.source, g.target)]
    elif kind == "quotient":
        cones = [quotient_by_equivalence(f.source, kernel_pair_relation(f)) for f in maps]
    elif kind == "image":
        facts = [image_factorization(f) for f in maps]
        return [(F.epi.apex, F.epi.legs + (F.mono,)) for F in facts]
    elif kind == "trivial":
        # trivial_xmod checks only its action, then packages the module.
        modules = []
        for P in (C2, symmetric_group_3()):
            for M in (build() for build in _CATALOGUE_GROUPS):
                if M.is_abelian():
                    aut = automorphism_group(M)
                    for phi in enumerate_homs(P, aut.group):
                        modules.append(trivial_xmod(M, P, [aut.perms[phi.image[p]] for p in range(P.order)]))
        return [(A, (unique_to_terminal(A),)) for A in modules]
    else:
        return [
            (A, (unique_to_terminal(A),))
            for P in (C2, klein_four_group(), symmetric_group_3())
            for A in default_catalogue(P, 6) + (terminal_object(P),)
        ]
    return [(cone.apex, cone.legs) for cone in cones]


@pytest.mark.parametrize(
    "kind",
    ["pullback", "product", "kernel-pair", "relation", "equaliser", "coequaliser", "quotient", "image", "catalogue", "trivial"],
)
def test_internal_xmods_pass_full_validation(kind):
    built = _internal_xmods(kind)
    assert len(built) > 5
    for A, structure_maps in built:
        assert crossed_module_violations(A.group, A.base, A.boundary.image, A.action.table) == ()
        assert make_crossed_module(A.name, A.group, A.base, A.boundary.image, A.action.table) == A
        for f in structure_maps:
            assert validate_morphism(f.source, f.target, f.mapping) == ()


def test_kernel_pair_relation_is_equivalence():
    E = kernel_pair_relation(_mod2_morphism())
    assert len(E.pairs) == 8
    assert is_equivalence_relation(E)
    assert is_effective(E)


def _equivalence_scan_sorting_every_loop(E):
    """limits._equivalence_scan as it was when each loop sorted the pairs
    again: the oracle for its reasons and their order."""
    A = E.carrier
    out = []
    for (a, b) in sorted(E.pairs):
        if A.boundary.image[a] != A.boundary.image[b]:
            out.append(f"pair ({a}, {b}) has unequal boundaries")
    e = A.group.identity
    if (e, e) not in E.pairs:
        out.append("identity pair missing")
    for (a, b) in sorted(E.pairs):
        if (A.group.inverse[a], A.group.inverse[b]) not in E.pairs:
            out.append(f"inverse of ({a}, {b}) missing")
        for (c, d) in sorted(E.pairs):
            if (A.group.table[a][c], A.group.table[b][d]) not in E.pairs:
                out.append(f"product of ({a}, {b}) and ({c}, {d}) missing")
                break
    for p in range(A.base.order):
        for (a, b) in sorted(E.pairs):
            if (A.act(p, a), A.act(p, b)) not in E.pairs:
                out.append(f"action of {p} leaves the set at ({a}, {b})")
                break
    for a in range(A.group.order):
        if (a, a) not in E.pairs:
            out.append(f"not reflexive at {a}")
    for (a, b) in sorted(E.pairs):
        if (b, a) not in E.pairs:
            out.append(f"not symmetric at ({a}, {b})")
    for (a, b) in sorted(E.pairs):
        for (b2, c) in sorted(E.pairs):
            if b2 == b and (a, c) not in E.pairs:
                out.append(f"not transitive at ({a}, {b}, {c})")
                break
    return tuple(out)


def test_equivalence_scan_sorts_once_and_keeps_its_reasons():
    # Every kernel-pair relation of the base-C2 catalogue, whole and with
    # each pair in turn left out.
    catalogue = default_catalogue(C2, 4)
    failing = 0
    for A, B in itertools.product(catalogue, repeat=2):
        for f in enumerate_morphisms(A, B):
            pairs = kernel_pair_relation(f).pairs
            for E in [EquivalenceRelation(A, pairs - {p}) for p in sorted(pairs)] + [kernel_pair_relation(f)]:
                reasons = limits._equivalence_scan(E)
                assert reasons == _equivalence_scan_sorting_every_loop(E)
                failing += bool(reasons)
    assert failing > 100


def test_relation_violations():
    A = _id_xmod()
    not_reflexive = EquivalenceRelation(A, frozenset({(0, 0)}))
    assert not is_equivalence_relation(not_reflexive)
    unequal_boundary = EquivalenceRelation(A, frozenset({(0, 0), (1, 1), (0, 1), (1, 0)}))
    assert not is_equivalence_relation(unequal_boundary)


def test_relation_must_be_a_subgroup():
    # Classes {0} and {1, 2} of C3 are closed, symmetric, and transitive as a
    # set of pairs, but the pair set is not a subgroup of the square:
    # (1,1)*(1,2) = (2,0) falls outside.
    A = _c3_over_point()
    pairs = frozenset({(0, 0), (1, 1), (2, 2), (1, 2), (2, 1)})
    assert not is_equivalence_relation(EquivalenceRelation(A, pairs))


def test_quotient_by_kernel_pair():
    f = _mod2_morphism()
    E = kernel_pair_relation(f)
    cocone = quotient_by_equivalence(f.source, E)
    assert cocone.apex.group.order == 2
    assert cocone.classes == ((0, 2), (1, 3))
    assert cocone.apex.boundary.image == (0, 1)


def test_quotient_rejects_non_relation():
    A = _id_xmod()
    bad = EquivalenceRelation(A, frozenset({(0, 0)}))
    with pytest.raises(NotEquivalenceRelationError):
        quotient_by_equivalence(A, bad)


def test_diagonal_is_effective():
    A = _mod2_xmod()
    diagonal = EquivalenceRelation(A, frozenset((m, m) for m in range(4)))
    assert is_equivalence_relation(diagonal)
    assert is_effective(diagonal)


def test_relation_xmod_projections():
    E = kernel_pair_relation(_mod2_morphism())
    R, u, v = relation_xmod(E)
    assert R.group.order == 8
    assert validate_morphism(R, E.carrier, u.mapping) == ()
    assert validate_morphism(R, E.carrier, v.mapping) == ()
    assert {(u.mapping[i], v.mapping[i]) for i in range(8)} == set(E.pairs)


def test_relation_xmod_rejects_non_relation():
    # Not an equivalence sub-crossed-module: 0 and 1 have unequal boundaries.
    E = EquivalenceRelation(_id_xmod(), frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}))
    with pytest.raises(NotEquivalenceRelationError):
        relation_xmod(E)


def test_image_factorization_of_mod2():
    f = _mod2_morphism()
    fact = image_factorization(f)
    assert fact.epi.apex.group.order == 2
    assert fact.mono.mapping == (0, 1)
    recomposed = tuple(fact.mono.mapping[fact.epi.legs[0].mapping[m]] for m in range(4))
    assert recomposed == f.mapping


def test_image_factorization_of_mono():
    incl = make_xmod_morphism(trivial_xmod(C2, C2), _mod2_xmod(), [0, 2])
    fact = image_factorization(incl)
    assert fact.epi.apex.group.order == 2
    assert sorted(fact.epi.legs[0].mapping) == [0, 1]
    assert fact.mono.mapping == (0, 2)


def test_default_catalogue_sizes():
    assert len(default_catalogue(C2)) == 15
    assert len(default_catalogue(C1)) == 5
    # Orders 5 and 6 add the two larger cyclic groups over the point; S3 has
    # no structure there because the forced trivial action breaks CM2.
    assert len(default_catalogue(C1, max_order=6)) == 7
    with pytest.raises(OrderTooLargeError):
        default_catalogue(C2, max_order=7)
    # A bound that is not an int, bools included, or is below 1 is refused
    # as cyclic_group refuses such an order.
    for bad in (0, -1, 2.5, True, "3", None):
        with pytest.raises(IndexOutOfRangeError):
            default_catalogue(C2, bad)


def test_catalogue_entries_validate_and_dedupe():
    cat = default_catalogue(C2)
    keys = {structure_key(A) for A in cat}
    assert len(keys) == len(cat)
    for A in cat:
        assert A.base is C2 or A.base == C2
        assert validate_crossed_module(A) == ()


def test_extend_catalogue_dedupes_by_structure():
    cat = default_catalogue(C2)
    same = extend_catalogue(cat, [_mod2_xmod()])
    assert len(same) == len(cat)
    bigger = extend_catalogue(cat, [pullback(_mod2_morphism(), _mod2_morphism()).apex])
    assert len(bigger) == len(cat) + 1


def test_verify_equaliser_sweep():
    f = _mod2_morphism()
    report = verify_equaliser(f, f, equaliser(f, f))
    assert report["pass"] and not report["failures"]
    assert report["cones_checked"] > 0
    assert report["commuting"] == report["cones_checked"]

    A = _c3_over_point()
    ident = identity_xmod_morphism(A)
    inversion = make_xmod_morphism(A, A, [0, 2, 1])
    report = verify_equaliser(ident, inversion, equaliser(ident, inversion))
    assert report["pass"]
    # Non-commuting test maps are exercised too.
    assert report["commuting"] < report["cones_checked"]


def test_verify_equaliser_catches_wrong_apex():
    f = _mod2_morphism()
    honest = equaliser(f, f)
    too_small = Cone(
        kind="equaliser",
        apex=trivial_xmod(C2, C2),
        legs=(make_xmod_morphism(trivial_xmod(C2, C2), f.source, [0, 2]),),
        elements=(0, 2),
    )
    report = verify_equaliser(f, f, too_small)
    assert not report["pass"]
    assert report["failures"]
    assert verify_equaliser(f, f, honest)["pass"]


def test_verify_coequaliser_sweep():
    A = _c3_over_point()
    ident = identity_xmod_morphism(A)
    inversion = make_xmod_morphism(A, A, [0, 2, 1])
    report = verify_coequaliser(ident, inversion, coequaliser(ident, inversion))
    assert report["pass"]
    assert report["cocones_checked"] > 0


def test_verify_pullback_and_kernel_pair_sweep():
    f = _mod2_morphism()
    report = verify_pullback(f, f, pullback(f, f))
    assert report["pass"]
    assert report["apex_order"] == 8
    report = verify_kernel_pair(f, kernel_pair(f))
    assert report["kind"] == "kernel-pair"
    assert report["pass"]


def test_verify_product_sweep():
    A2, A1 = _mod2_xmod(), _id_xmod()
    report = verify_product(A2, A1, product_over_P(A2, A1))
    assert report["kind"] == "product"
    assert report["pass"]


def test_verify_quotient_sweep():
    f = _mod2_morphism()
    E = kernel_pair_relation(f)
    report = verify_quotient(f.source, E, quotient_by_equivalence(f.source, E))
    assert report["kind"] == "quotient"
    assert report["pass"] and report["effective"]


def test_verify_quotient_refuses_a_relation_on_another_module():
    # E lives on the source A2 of f: A2 -> A1; naming A1 as its carrier
    # must be refused, as quotient_by_equivalence refuses it.
    f = _mod2_morphism()
    E = kernel_pair_relation(f)
    cocone = quotient_by_equivalence(f.source, E)
    with pytest.raises(DiagramMismatchError, match="relation carrier A2 is not"):
        verify_quotient(f.target, E, cocone)


def test_equivalence_relations_on_mod2_match_subgroup_oracle():
    # Congruences correspond to action-stable subgroups inside the boundary
    # kernel; on (C4, mod 2) that means {0} and {0, 2}.
    A = _mod2_xmod()
    cone = product_over_P(A, A)
    diagonal = {(m, m) for m in range(4)}
    others = [p for p in cone.elements if p not in diagonal]
    found = []
    for r in range(len(others) + 1):
        for extra in itertools.combinations(others, r):
            pairs = frozenset(diagonal | set(extra))
            E = EquivalenceRelation(A, pairs)
            if is_equivalence_relation(E):
                found.append(pairs)
    assert len(found) == 2
    kernels = sorted(
        sorted(b for (a, b) in pairs if a == 0) for pairs in found
    )
    assert kernels == [[0], [0, 2]]


SWEEP_FAILURE_KEYS = {"test_object", "expected", "found"}


def _assert_sweep_fails(report, kind, map_key):
    assert report["kind"] == kind
    assert report["pass"] is False
    assert report["failures"]
    for entry in report["failures"]:
        assert set(entry) == SWEEP_FAILURE_KEYS | {map_key}
        assert entry["expected"] in (0, 1)
        assert entry["found"] != entry["expected"]


def _diagonal(A, kind):
    ident = identity_xmod_morphism(A)
    return Cone(kind=kind, apex=A, legs=(ident, ident), elements=tuple((a, a) for a in range(A.group.order)))


def _negation():
    A = _mod2_xmod()
    return make_xmod_morphism(A, A, [0, 3, 2, 1])


def test_verify_coequaliser_catches_wrong_apex():
    A = _c3_over_point()
    ident = identity_xmod_morphism(A)
    inversion = make_xmod_morphism(A, A, [0, 2, 1])
    no_collapse = Cocone(kind="coequaliser", apex=A, legs=(ident,), classes=((0,), (1,), (2,)))
    _assert_sweep_fails(verify_coequaliser(ident, inversion, no_collapse), "coequaliser", "map")


def test_verify_pullback_catches_wrong_apex():
    neg = _negation()
    ident = identity_xmod_morphism(neg.source)
    report = verify_pullback(ident, neg, _diagonal(neg.source, "pullback"))
    _assert_sweep_fails(report, "pullback", "maps")
    assert verify_pullback(ident, neg, pullback(ident, neg))["pass"]


def test_verify_kernel_pair_catches_wrong_apex():
    f = _mod2_morphism()
    _assert_sweep_fails(verify_kernel_pair(f, _diagonal(f.source, "kernel-pair")), "kernel-pair", "maps")


def test_verify_product_catches_wrong_apex():
    A = _mod2_xmod()
    _assert_sweep_fails(verify_product(A, A, _diagonal(A, "product")), "product", "maps")


def test_verify_quotient_catches_wrong_apex():
    f = _mod2_morphism()
    A = f.source
    E = kernel_pair_relation(f)
    no_collapse = Cocone(
        kind="quotient", apex=A, legs=(identity_xmod_morphism(A),), classes=tuple((a,) for a in range(4))
    )
    report = verify_quotient(A, E, no_collapse)
    _assert_sweep_fails(report, "quotient", "map")
    assert report["effective"] is False
