"""verify-exact reads generators and single objects only.

A presheaf builds each generator map the first time it is read, and
iterating it builds the rest in one loop; the lazy maps are compared
here with a copy of the eager loop they replaced.  The comparison maps
U(f) are accepted by their move squares at the generators of P and their
sigma squares at the generators of M (presheaf._square_failures run on
the generators), which must find nothing exactly when the scan of every
square (presheaf._failed_squares, the oracle) finds nothing; run on all
of P and M it must list what the scan lists, also where a sigma
square's source xy and the product yx carry different components.
When every single object passes, each pair row of a comparison is
written from the set sizes; those rows must equal the per-object check,
written out below from the assignment tuples, on every catalogue pair
over C2 and S3 and on cones that fail at a single object beside an empty
fiber.  The search helpers the same code path touches are pinned too:
one-key gathers and the identity moves the hom search skips.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from oracles import assignment_sets
from test_presheaf_from_fibers import S3_SESSION, _labels, _relabel_xmod
from xmodp import groups, presheaf, xmod
from xmodp.groups import _gather, cyclic_group, klein_four_group, make_group, symmetric_group_3
from xmodp.limits import Cone, coequaliser, default_catalogue, equaliser, kernel_pair, product_over_P
from xmodp.presheaf import (
    NaturalTransformation,
    _failed_squares,
    _single_components,
    _square_failures,
    _with_pairs,
    compute_presheaf,
    functor_on_morphism,
    verify_coequaliser_preserved,
    verify_equaliser_preserved,
    verify_product_preserved,
)
from xmodp.words import build_site
from xmodp.xmod import (
    conjugation_xmod,
    enumerate_morphisms,
    identity_xmod_morphism,
    make_xmod_morphism,
    trivial_xmod,
)

UNGATED = 10**15
C2, V4, S3 = cyclic_group(2), klein_four_group(), symmetric_group_3()
CATALOGUES = {"C2": default_catalogue(C2, 4), "V4": default_catalogue(V4, 4), "S3": default_catalogue(S3, 6)}


def _homs(A, B):
    return enumerate_morphisms(A, B, budget=UNGATED)


def _eager_actions(F):
    """The generator maps as compute_presheaf built them all up front."""
    fibers, pos, sizes, site = F.fibers, F.pos, F.sizes, F.site
    act, tab = F.xmod.action.table, F.xmod.group.table
    out = []
    for (family, *args), (source, _) in zip(site.decode(range(site.generator_count)), site.ends()):
        if family == "id":
            image = tuple(range(sizes[source]))
        elif family == "m":
            p, x = args
            image = tuple(pos[act[p][a]] for a in fibers[x])
        else:
            x, y = args
            fx, fy = fibers[x], fibers[y]
            if family == "sigma":
                image = tuple(pos[tab[a][b]] for a in fx for b in fy)
            elif family == "inc1":
                image = tuple(i for i in range(len(fx)) for _ in fy)
            else:
                image = tuple(range(len(fy))) * len(fx)
        out.append(image)
    return out


def _built(F):
    """How many generator maps of F have been built."""
    return sum(image is not None for image in F.actions._maps)


def test_lazy_maps_equal_the_eager_loop_on_every_catalogue_object():
    for catalogue in CATALOGUES.values():
        for A in catalogue:
            eager = _eager_actions(compute_presheaf(A))
            assert list(compute_presheaf(A).actions) == eager
            # Read backwards by index, then all at once, then again: each
            # map is cached under its own position and built once.
            F = compute_presheaf(A)
            assert _built(F) == 0 and len(F.actions) == len(eager)
            assert [F.actions[k] for k in reversed(range(len(eager)))] == eager[::-1]
            assert F.actions[-1] == eager[-1] and list(F.actions) == eager == list(F.actions)
            # Some built by index, some by a slice, the rest by iteration.
            F = compute_presheaf(A)
            assert [F.actions[k] for k in range(1, len(eager), 4)] == eager[1::4]
            assert F.actions[2::3] == eager[2::3] and F.actions[-3:] == eager[-3:]
            assert list(F.actions) == eager and _built(F) == len(eager)


def test_generator_positions_follow_the_site_layout():
    for base in (C2, S3, _relabelled_s3()):
        site = build_site(base)
        n = base.order
        for p, x in itertools.product(range(n), repeat=2):
            assert list(site.decode((site.move(p, x),))) == [("m", p, x)]
            k = site.sigma(p, x)
            assert list(site.decode(range(k, k + 3))) == [("sigma", p, x), ("inc1", p, x), ("inc2", p, x)]


def _relabelled_s3():
    perm = [3, 5, 0, 4, 1, 2]
    inv = [perm.index(a) for a in range(6)]
    return make_group([[perm[S3.table[inv[a]][inv[b]]] for b in range(6)] for a in range(6)], "S3r")


# Ordered catalogue pairs with at least one morphism, over C2, V4 and S3.
HOM_PAIRS = [(A, B) for cat in CATALOGUES.values() for A in cat for B in cat if _homs(A, B)]


def _perturbed_case(data):
    A, B = data.draw(st.sampled_from(HOM_PAIRS))
    if data.draw(st.booleans()):
        base_perm = _labels(data.draw, A.base)
        A = _relabel_xmod(A, _labels(data.draw, A.group), base_perm)
        B = _relabel_xmod(B, _labels(data.draw, B.group), base_perm)
    F, G = compute_presheaf(A), compute_presheaf(B)
    singles = _single_components(data.draw(st.sampled_from(_homs(A, B))), F, G)
    if data.draw(st.booleans()):
        x = data.draw(st.sampled_from([x for x in range(A.base.order) if F.sizes[x]]))
        i = data.draw(st.integers(0, F.sizes[x] - 1))
        v = data.draw(st.integers(0, G.sizes[x] - 1))
        singles[x] = (*singles[x][:i], v, *singles[x][i + 1 :])
    return F, G, singles


def _agrees_with_the_scan(F, G, singles):
    """Assert that _square_failures lists, over all of P and M, each square
    the scan of every square finds, once, and finds nothing on the
    generators exactly when the scan finds nothing; return the scan's
    list."""
    bad = _failed_squares(NaturalTransformation(F, G, _with_pairs(singles, G)))
    every = _square_failures(F, G, singles, range(F.site.base.order), range(F.xmod.group.order))
    assert sorted(every) == sorted(set(every)) == sorted(bad)
    assert (not _square_failures(F, G, singles, F.site.base._gens, F.xmod.group._gens)) == (not bad)
    return bad


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fast_accept_holds_exactly_when_no_square_fails(data):
    _agrees_with_the_scan(*_perturbed_case(data))


def test_fast_accept_is_exact_on_every_one_entry_perturbation_over_s3():
    # Every U(f) between the S3 catalogue's objects, with each single entry
    # set to each value of its fiber in turn.
    checked = rejected = 0
    catalogue = CATALOGUES["S3"]
    for A, B in itertools.product(catalogue, repeat=2):
        F, G = compute_presheaf(A), compute_presheaf(B)
        for f in _homs(A, B)[:2]:
            singles = _single_components(f, F, G)
            for x in range(S3.order):
                for i, v in itertools.product(range(F.sizes[x]), range(G.sizes[x])):
                    moved = [*singles[:x], (*singles[x][:i], v, *singles[x][i + 1 :]), *singles[x + 1 :]]
                    bad = _agrees_with_the_scan(F, G, moved)
                    checked += 1
                    rejected += bool(bad)
    assert checked > 1000 and 0 < rejected < checked


def test_sigma_squares_read_their_source_at_xy():
    # E, of order 12 over S3, has fibers of size 2 over every element.
    # Moving one entry of U(id) at the single xy of a non-commuting pair x,
    # y makes the single components at xy and yx differ, so the squares
    # listed depend on sigma[x,y] reading its source at xy and not at yx.
    E = S3_SESSION.xmods["E"]
    F = compute_presheaf(E)
    identity = _single_components(identity_xmod_morphism(E), F, F)
    base, n = E.base, E.base.order
    grid = itertools.product(range(n), repeat=2)
    products = {base.table[x][y] for x, y in grid if base.table[x][y] != base.table[y][x]}
    assert products == set(range(n)) - {base.identity} and all(F.sizes[s] == 2 for s in products)
    for s, i in itertools.product(sorted(products), range(2)):
        moved = [*identity[:s], (*identity[s][:i], 1 - identity[s][i], *identity[s][i + 1 :]), *identity[s + 1 :]]
        bad = _agrees_with_the_scan(F, F, moved)
        assert "sigma" in {family for family, _, _ in F.site.decode(k for k, _ in bad)}


# Per-object rows of each comparison, written from the assignment tuples.


def _row(site, o, lhs, rhs, ok):
    return {"object": site.object(o).describe(), "lhs_size": lhs, "rhs_size": rhs, "ok": ok}


def _product_rows(cone, A, B, site):
    FX, FA, FB = (compute_presheaf(X) for X in (cone.apex, A, B))
    pA, pB = (functor_on_morphism(leg, FX, G) for leg, G in zip(cone.legs, (FA, FB)))
    rows = []
    for o in range(site.object_count):
        cells = set(zip(pA.components[o], pB.components[o]))
        full = FA.sizes[o] * FB.sizes[o]
        rows.append(_row(site, o, FX.sizes[o], full, FX.sizes[o] == full == len(cells)))
    return rows


def _equaliser_rows(cone, f, g, site):
    FE, FC = compute_presheaf(cone.apex), compute_presheaf(f.source)
    phi = functor_on_morphism(cone.legs[0], FE, FC)
    rows = []
    for o, elems in enumerate(assignment_sets(FC)):
        agree = [i for i, t in enumerate(elems) if all(f.mapping[a] == g.mapping[a] for a in t)]
        mapped = phi.components[o]
        rows.append(_row(site, o, len(mapped), len(agree), sorted(set(mapped)) == agree == sorted(mapped)))
    return rows


def _coequaliser_rows(cocone, f, site):
    kp = kernel_pair(cocone.legs[0])
    FB, FQ, FK = (compute_presheaf(X) for X in (f.target, cocone.apex, kp.apex))
    proj = functor_on_morphism(cocone.legs[0], FB, FQ)
    k1, k2 = (functor_on_morphism(leg, FK, FB) for leg in kp.legs)
    rows = []
    for o in range(site.object_count):
        # Classes of the equivalence generated by the kernel pair's pairs.
        label = list(range(FB.sizes[o]))
        for a, b in zip(k1.components[o], k2.components[o]):
            old, new = label[b], label[a]
            label = [new if c == old else c for c in label]
        images = {c: {q for j, q in enumerate(proj.components[o]) if label[j] == c} for c in set(label)}
        well_defined = all(len(v) == 1 for v in images.values())
        one_to_one = well_defined and len(set.union(set(), *images.values())) == len(images)
        onto = len(set(proj.components[o])) == FQ.sizes[o] == len(images)
        rows.append(_row(site, o, len(images), FQ.sizes[o], well_defined and one_to_one and onto))
    return rows


def test_pair_rows_by_formula_equal_the_per_object_check_on_catalogue_pairs():
    compared = 0
    for P in ("C2", "S3"):
        catalogue = CATALOGUES[P]
        site = build_site(catalogue[0].base)
        for A, B in itertools.product(catalogue, repeat=2):
            report = verify_product_preserved(A, B)
            assert report["pass"] and report["objects"] == _product_rows(product_over_P(A, B), A, B, site)
            for f, g in itertools.combinations_with_replacement(_homs(A, B)[:3], 2):
                report = verify_equaliser_preserved(f, g)
                assert report["pass"] and report["objects"] == _equaliser_rows(equaliser(f, g), f, g, site)
                report = verify_coequaliser_preserved(f, g)
                assert report["pass"] and report["objects"] == _coequaliser_rows(coequaliser(f, g), f, site)
                compared += 2
            compared += 1
    assert compared > 2000


def test_a_failing_single_beside_an_empty_fiber_gets_every_row_checked(monkeypatch):
    # A is C2 over C2 with the trivial boundary, so its fiber over 1 is
    # empty.  Each wrong cone below fails at single(0), while single(1)
    # and the pairs with an empty factor pass with both sides 0: a pair's
    # verdict is not that of its two singles, so every row is checked.
    site = build_site(C2)
    A = trivial_xmod(C2, C2)
    ident = identity_xmod_morphism(A)
    expected = [False, True, False, True, True, True]
    diagonal = Cone(kind="product", apex=A, legs=(ident, ident), elements=((0, 0), (1, 1)))
    monkeypatch.setattr(presheaf, "product_over_P", lambda X, Y: diagonal)
    report = verify_product_preserved(A, A)
    assert report["objects"] == _product_rows(diagonal, A, A, site)
    assert [row["ok"] for row in report["objects"]] == expected
    one = trivial_xmod(groups.trivial_group(), C2)
    too_small = Cone(kind="equaliser", apex=one, legs=(make_xmod_morphism(one, A, [0]),), elements=(0,))
    monkeypatch.setattr(presheaf, "equaliser", lambda u, v: too_small)
    report = verify_equaliser_preserved(ident, ident)
    assert report["objects"] == _equaliser_rows(too_small, ident, ident, site)
    assert [row["ok"] for row in report["objects"]] == expected


def _symmetric(k):
    perms = list(itertools.permutations(range(k)))
    pos = {p: i for i, p in enumerate(perms)}
    return make_group([[pos[tuple(p[q[x]] for x in range(k))] for q in perms] for p in perms], f"S{k}")


def test_base_s5_product_reads_generators_and_singles_only(monkeypatch):
    S5 = _symmetric(5)
    Z = trivial_xmod(C2, S5, name="Z")
    I = conjugation_xmod(S5, range(S5.order), name="I")
    built = []

    def recording(*args, _real=compute_presheaf, **kwargs):
        built.append(_real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(presheaf, "compute_presheaf", recording)
    report = verify_product_preserved(Z, I)
    assert report["pass"] and report["squares_checked"] == 258
    assert len(report["objects"]) == 14_520 and all(row["ok"] for row in report["objects"])
    (FX,) = [F for F in built if F.xmod.name == report["apex"]]
    n, gens_M = S5.order, FX.xmod.group._gens
    assert 0 < _built(FX) <= len(S5._gens) * n + len(gens_M) * n


def test_one_key_and_empty_gathers_make_tuples():
    assert _gather((2,))([5, 6, 7]) == (7,)
    assert _gather(())([5, 6, 7]) == ()
    assert _gather((2, 0))([5, 6, 7]) == (7, 5)


@pytest.mark.parametrize("trivial", [True, False])
def test_hom_search_files_no_identity_move_and_each_pair_once(monkeypatch, trivial):
    # A morphism search from A files the moves (x, s_p[x], p + 1) of each
    # action row s_p of A once, read through table p + 1 (B's row t_p),
    # and none of the identity's row, whose moves always hold.  The plan
    # is kept on A, so a second search files nothing and finds the same.
    filed = []

    def recording(n, conditions, target, _real=groups._file):
        conditions = list(conditions)
        if target == 1:
            filed.append(conditions)
        return _real(n, conditions, target)

    monkeypatch.setattr(groups, "_file", recording)
    monkeypatch.setattr(xmod, "_file", recording)
    ident, swap = (0, 1, 2, 3), (0, 1, 3, 2)
    rows = [ident] * 4 if trivial else [ident, swap, ident, swap]
    A = trivial_xmod(klein_four_group("M"), V4, rows, name="A")
    B = trivial_xmod(klein_four_group("M"), V4, name="B")
    runs = []
    for _ in range(2):
        work = groups.Work(UNGATED)
        runs.append(([f.mapping for f in enumerate_morphisms(A, B, budget=work)], work.used))
    assert filed == [[(x, rows[p][x], p + 1) for p in (1, 2, 3) for x in range(4)]]
    assert runs[0] == runs[1]
