"""The site by formula against the site built as tuples, and its edges.

words.Site stores nothing when it is built and keeps no tuple per
generator beside its formula: decode(ks) gives each generator's family
and indices, ends() its source and target a family at a time, morphism(k)
its words and ends from the decoded family, the positions and names are
closed forms, and the report texts are written a family at a time.  Here
every one of them is compared with the tuple construction the site used
before (kept below as the oracle) on C1, C2, V4, S3 and S4 and on
relabelled bases; name(k) and morphism(k) must take exactly the positions
0..generator_count-1, and object(i) and free(i) exactly 0..object_count-1;
the sites that embed and the exactness comparisons build, one per
presheaf, must keep no per-generator tuple; and the lazy map sequence of
a presheaf must index from the end like a tuple.
"""

import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import unique_to_terminal
from test_exact_on_generators import _symmetric
from test_presheaf_from_fibers import E48, SMALL_XMODS, _labels, _relabel_group
from xmodp import presheaf
from xmodp.errors import IndexOutOfRangeError
from xmodp.groups import cyclic_group, klein_four_group, symmetric_group_3
from xmodp.limits import Cone, terminal_object
from xmodp.presheaf import (
    compute_presheaf,
    verify_coequaliser_preserved,
    verify_equaliser_preserved,
    verify_product_preserved,
)
from xmodp.session import parse_session, run_command
from xmodp.words import SiteObject, build_site
from xmodp.xmod import XModMorphism, conjugation_xmod, enumerate_morphisms, identity_xmod_morphism, trivial_xmod

C2, V4 = cyclic_group(2), klein_four_group()
BASES = [cyclic_group(1), C2, V4, symmetric_group_3(), E48.base]
S3_SESSION = parse_session((Path(__file__).parent / "golden" / "s3.json").read_text())
PER_GENERATOR = ("names", "generators", "by_name")


def _eager(base):
    """objects, families, sources, targets and names as the site built
    them up front, before it was a formula."""
    n = base.order
    grid = list(itertools.product(range(n), repeat=2))
    objects = tuple([SiteObject("single", (x,)) for x in range(n)] + [SiteObject("pair", xy) for xy in grid])
    ids = range(len(objects))
    families = (("id",),) * len(ids) + tuple(
        [("m", p, x) for p, x in grid] + [(f, x, y) for x, y in grid for f in ("sigma", "inc1", "inc2")]
    )
    sources = (
        *ids, *(base.conj(p, x) for p, x in grid), *(s for x, y in grid for s in (base.table[x][y], x, y))
    )
    targets = (*ids, *(x for _, x in grid), *(t for t in ids[n:] for _ in range(3)))
    names = tuple(
        f"id[{objects[k].describe()}]" if family == "id" else f"{family}[{','.join(map(str, args))}]"
        for k, (family, *args) in enumerate(families)
    )
    return objects, families, sources, targets, names


def _check_against_eager(base):
    objects, families, sources, targets, names = _eager(base)
    site = build_site(base)
    assert vars(site).keys() == {"base", "object_count", "generator_count"}
    assert (site.object_count, site.generator_count) == (len(objects), len(families))
    assert site.objects == objects and list(site.ends()) == list(zip(sources, targets))
    assert site.descriptions == tuple(o.describe() for o in objects)
    assert site.names == names == tuple(map(site.name, range(len(families))))
    assert [site.position(o) for o in objects] == list(range(len(objects)))
    assert list(site.decode(range(len(families)))) == [
        ("id", k, k) if family == ("id",) else family for k, family in enumerate(families)
    ]
    n = base.order
    for p, x in itertools.product(range(n), repeat=2):
        assert families[site.move(p, x)] == ("m", p, x)
        k = site.sigma(p, x)
        assert families[k : k + 3] == (("sigma", p, x), ("inc1", p, x), ("inc2", p, x))
    # The point reads: each generator's words lie between the ends the oracle gives.
    generators = list(map(site.morphism, range(len(families))))
    ends = [(objects[s], objects[t]) for s, t in zip(sources, targets)]
    assert [(g.source, g.target) for g in generators] == ends
    assert vars(site).keys() <= {"base", "object_count", "generator_count", "objects", "descriptions", "names"}


@pytest.mark.parametrize("base", BASES, ids=lambda G: f"order{G.order}")
def test_lazy_site_equals_the_eager_tuples(base):
    _check_against_eager(base)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_lazy_site_equals_the_eager_tuples_on_relabelled_bases(data):
    base = data.draw(st.sampled_from(BASES[1:]))
    _check_against_eager(_relabel_group(base, _labels(data.draw, base)))


def test_positions_are_taken_exactly_in_range():
    site = build_site(C2)
    count = site.generator_count
    assert count == 22 and site.name(count - 1) == "inc2[1,1]" and site.name(count - 17) == "id[pair(1,1)]"
    assert [site.morphism(k).name for k in range(count)] == list(site.names)
    # -1 and -17 once read the tuples from the end; -17 still raised a bare
    # IndexError from the objects tuple.
    for k in (-1, -17, -count, count, count + 5, True, 1.0, "0"):
        with pytest.raises(IndexOutOfRangeError):
            site.name(k)
        with pytest.raises(IndexOutOfRangeError):
            site.morphism(k)
    # Objects likewise: free(-1) once read the last object from the end.
    assert [site.free(i).omega for i in range(site.object_count)] == [o.xs for o in site.objects]
    for i in (-1, -6, 6, True, 1.0):
        with pytest.raises(IndexOutOfRangeError):
            site.object(i)
        with pytest.raises(IndexOutOfRangeError):
            site.free(i)


def _recorded_sites(monkeypatch):
    """The sites the presheaves build from now on, in order."""
    sites = []

    def recording(base, _real=build_site):
        sites.append(_real(base))
        return sites[-1]

    monkeypatch.setattr(presheaf, "build_site", recording)
    return sites


def test_embed_builds_no_generator_records(monkeypatch):
    sites = _recorded_sites(monkeypatch)
    report, code = run_command(S3_SESSION, "embed", ["E"])
    (site,) = sites
    assert code == 0 and len(report["actions"]) == site.generator_count == 186
    assert "generators" not in vars(site) and "objects" not in vars(site)


def _assert_no_per_generator_tuple(sites):
    assert sites and all(not set(PER_GENERATOR) & vars(site).keys() for site in sites)


def test_passing_comparisons_build_no_per_generator_tuple(monkeypatch):
    sites = _recorded_sites(monkeypatch)
    E, T = S3_SESSION.xmods["E"], S3_SESSION.xmods["T"]
    f, g = enumerate_morphisms(E, E, budget=10**15)[:2]
    cases = [
        (verify_product_preserved, (T, E)),
        (verify_equaliser_preserved, (f, g)),
        (verify_coequaliser_preserved, (f, g)),
    ]
    for verify, args in cases:
        assert verify(*args)["pass"]
    # Each presheaf builds the site of its base: the product and the
    # coequaliser build three presheaves, the equaliser two.
    assert len(sites) == 8
    _assert_no_per_generator_tuple(sites)
    sites.clear()
    S5 = _symmetric(5)
    Z, I = trivial_xmod(C2, S5, name="Z"), conjugation_xmod(S5, range(S5.order), name="I")
    report = verify_product_preserved(Z, I)
    assert report["pass"] and report["squares_checked"] == 258
    _assert_no_per_generator_tuple(sites)


def test_base_s5_morphism_and_comparisons_keep_nothing_per_generator(monkeypatch):
    # A point read of the word calculus, a passing comparison and two
    # failing ones on base S5 leave on every site nothing but its formula
    # and the texts of its objects.
    S5 = _symmetric(5)
    site = build_site(S5)
    assert site.morphism(0).name == "id[single(0)]"
    assert vars(site).keys() == {"base", "object_count", "generator_count"}
    sites = _recorded_sites(monkeypatch)
    Z, I = trivial_xmod(C2, S5, name="Z"), conjugation_xmod(S5, range(S5.order), name="I")
    assert verify_product_preserved(Z, I)["pass"]
    # The identity of V4 from S5 acting trivially to the odd permutations
    # swapping 1 and 2 respects the boundaries but not the action, so the
    # squares of m[p,0] fail at indices 1 and 2 for the 60 odd p.
    inversions = [
        sum(p[i] > p[j] for i, j in itertools.combinations(range(5), 2)) for p in itertools.permutations(range(5))
    ]
    fixed = trivial_xmod(V4, S5, name="fixed")
    swap = trivial_xmod(V4, S5, [[0, 2, 1, 3] if i % 2 else [0, 1, 2, 3] for i in inversions], name="swap")
    T = terminal_object(S5)
    legs = (XModMorphism(fixed, swap, (0, 1, 2, 3)), unique_to_terminal(fixed))
    cone = Cone("product", fixed, legs, (0, 1, 2, 3))
    monkeypatch.setattr(presheaf, "product_over_P", lambda X, Y: cone)
    report = verify_product_preserved(swap, T)
    assert all(row["ok"] for row in report["objects"])
    assert len(report["failures"]) == 120 and {f["object"] for f in report["failures"]} == {"single(0)"}
    # The diagonal of Z is no product cone of Z with itself: it fails at
    # single(0), so every pair row is checked on pair components.
    diagonal = Cone("product", Z, (identity_xmod_morphism(Z),) * 2, ((0, 0), (1, 1)))
    monkeypatch.setattr(presheaf, "product_over_P", lambda X, Y: diagonal)
    report = verify_product_preserved(Z, Z)
    assert [row["ok"] for row in report["objects"][:2]] == [False, True] and not report["pass"]
    assert len(sites) == 9
    for site in sites:
        assert vars(site).keys() <= {"base", "object_count", "generator_count", "descriptions"}


def _check_negative_indices(A):
    eager = list(compute_presheaf(A).actions)
    count = len(eager)
    # Each read on a fresh presheaf, so that the negative index builds its map.
    for k in range(1, count + 1):
        assert compute_presheaf(A).actions[-k] == eager[count - k]
    F = compute_presheaf(A)
    assert [F.actions[-k] for k in range(1, count + 1)] == eager[::-1]
    for k in (count, -count - 1):
        with pytest.raises(IndexError):
            compute_presheaf(A).actions[k]


def test_negative_indices_into_the_lazy_maps():
    _check_negative_indices(S3_SESSION.xmods["E"])
    wide = [A for A in SMALL_XMODS if max(map(len, compute_presheaf(A).fibers)) >= 2]
    assert len(wide) >= 10
    for A in wide:
        _check_negative_indices(A)
