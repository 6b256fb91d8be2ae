"""Inside presheaf a transformation is its single components.

verify_full_faithful searches the single components (_natural_singles),
reads U(f) as single components and reconstructs from them, and the
exactness comparisons check their legs the same way; pair components are
built, by _with_pairs, only by the public enumerate_natural_transformations
and functor_on_morphism and by a comparison that has failed at a single
object.  Each verify_full_faithful report is compared here with one built
from the public functions alone, on pair components, and the calls of
_with_pairs are counted.
"""

import itertools
from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings, strategies as st

from test_failing_reports import _case
from test_presheaf_from_fibers import _labels, _relabel_xmod
from xmodp import presheaf
from xmodp.groups import DEFAULT_BUDGET, Work, cyclic_group, klein_four_group, symmetric_group_3
from xmodp.limits import default_catalogue
from xmodp.presheaf import (
    _natural_singles,
    _with_pairs,
    compute_presheaf,
    enumerate_natural_transformations,
    functor_on_morphism,
    reconstruct_morphism,
    verify_coequaliser_preserved,
    verify_equaliser_preserved,
    verify_full_faithful,
    verify_product_preserved,
)
from xmodp.session import parse_session
from xmodp.xmod import enumerate_morphisms

UNGATED = 10**15
C2 = cyclic_group(2)
CATALOGUES = [default_catalogue(C2, 4), default_catalogue(klein_four_group(), 4), default_catalogue(symmetric_group_3(), 6)]
PAIRS = [pair for catalogue in CATALOGUES for pair in itertools.product(catalogue, repeat=2)]


def _public_report(A, B):
    """The report of verify_full_faithful, built from the public functions,
    with every transformation compared on all its components."""
    F, G = compute_presheaf(A), compute_presheaf(B)
    work = Work(UNGATED)
    homs = enumerate_morphisms(A, B, budget=work)
    nats = enumerate_natural_transformations(F, G, budget=work)
    images = [functor_on_morphism(f, F, G) for f in homs]
    round_trip_hom = all(reconstruct_morphism(phi).mapping == f.mapping for f, phi in zip(homs, images))
    round_trip_nat = all(
        functor_on_morphism(reconstruct_morphism(phi), F, G).components == phi.components for phi in nats
    )
    injective = len({phi.components for phi in images}) == len(homs)
    separated = 0
    for (f, phi), (g, psi) in itertools.combinations(zip(homs, images), 2):
        a = next(a for a in range(A.group.order) if f.mapping[a] != g.mapping[a])
        x = A.boundary.image[a]
        separated += phi.components[x][F.pos[a]] != psi.components[x][F.pos[a]]
    return {
        "pass": len(homs) == len(nats) and round_trip_hom and round_trip_nat and injective
        and separated == len(homs) * (len(homs) - 1) // 2,
        "source": A.name,
        "target": B.name,
        "hom_count": len(homs),
        "nat_count": len(nats),
        "round_trip_hom": round_trip_hom,
        "round_trip_nat": round_trip_nat,
        "functor_injective": injective,
        "separating_pairs": separated,
        "budget": UNGATED,
    }


def _check_pair(A, B):
    assert verify_full_faithful(A, B, budget=UNGATED) == _public_report(A, B)
    F, G = compute_presheaf(A), compute_presheaf(B)
    public = [phi.components for phi in enumerate_natural_transformations(F, G, budget=UNGATED)]
    assert public == [_with_pairs(s, G) for s in _natural_singles(F, G, Work(UNGATED))]


def test_singles_path_equals_the_public_path_on_every_catalogue_pair():
    for A, B in PAIRS:
        _check_pair(A, B)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_singles_path_equals_the_public_path_on_relabelled_pairs(data):
    A, B = data.draw(st.sampled_from(PAIRS))
    base_perm = _labels(data.draw, A.base)
    _check_pair(
        _relabel_xmod(A, _labels(data.draw, A.group), base_perm),
        _relabel_xmod(B, _labels(data.draw, B.group), base_perm),
    )


def test_pair_components_are_built_only_at_the_public_edge(monkeypatch):
    calls = []

    def counting(singles, G, _real=_with_pairs):
        calls.append(len(singles))
        return _real(singles, G)

    monkeypatch.setattr(presheaf, "_with_pairs", counting)
    catalogue = CATALOGUES[2]
    for A, B in itertools.product(catalogue[:8], repeat=2):
        assert verify_full_faithful(A, B, budget=UNGATED)["pass"]
        for f in enumerate_morphisms(A, B, budget=UNGATED)[:2]:
            for verify in (verify_equaliser_preserved, verify_coequaliser_preserved):
                assert verify(f, f)["pass"]
        assert verify_product_preserved(A, B)["pass"]
    assert calls == []
    # The counter sees the public edge and a comparison failing at a single.
    F = compute_presheaf(catalogue[1])
    enumerate_natural_transformations(F, F)
    assert calls
    calls.clear()
    with monkeypatch.context() as patched:
        verify, args = _case("product-beside-empty-fiber", patched)
        assert not verify(*args)["pass"]
    assert calls == [2, 2]


def test_a_non_injective_functor_fails_the_report(monkeypatch):
    """U made to send inv to the image of the identity on point.json's X:
    the report fails, and one of the three pairs of morphisms is no longer
    separated."""
    X = parse_session((Path(__file__).parent / "golden" / "point.json").read_text()).xmods["X"]
    real = presheaf._single_components

    def merged(f, F, G):
        return real(replace(f, mapping=(0, 1, 2)) if f.mapping == (0, 2, 1) else f, F, G)

    monkeypatch.setattr(presheaf, "_single_components", merged)
    assert verify_full_faithful(X, X) == {
        "pass": False,
        "source": "X",
        "target": "X",
        "hom_count": 3,
        "nat_count": 3,
        "round_trip_hom": False,
        "round_trip_nat": False,
        "functor_injective": False,
        "separating_pairs": 2,
        "budget": DEFAULT_BUDGET,
    }
