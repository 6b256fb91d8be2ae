"""The presheaf built from fibers against word evaluation, on relabelled inputs.

compute_presheaf reads each set off the boundary fibers and each
generator's index map off fiber positions, and words.Site keys objects and
generators by position and builds their free objects and words, on demand,
without the checks of make_free_object and make_word.
Here catalogue crossed modules over C2, V4 and S3, and the central
extension GL(2,3) -> S4 with central kernel {I, -I}, are relabelled so
that the identities of M and of the base leave index 0.  The presheaf
must then keep the fibers of CrossedModule._fibers, every set must equal
hom_set and have its stored size, every generator's map must equal
presheaf_action's and carry each assignment to the evaluation of its
words, every position must follow single x = x and pair (x, y) =
n + x n + y, and every word of the site must equal the word rebuilt
through make_free_object and make_word.  The embed report, rendered from
the fibers, must be the bytes json.dumps writes for the records built
from the assignment tuples of hom_set, and its lists must index as those
records.
"""

import itertools
import json
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from oracles import assignment_sets
from xmodp.groups import cyclic_group, klein_four_group, make_group, make_hom, symmetric_group_3
from xmodp.limits import default_catalogue
from xmodp import presheaf, session, words
from xmodp.cli import _json_text
from xmodp.presheaf import (
    compute_presheaf,
    presheaf_action,
    verify_coequaliser_preserved,
    verify_equaliser_preserved,
    verify_full_faithful,
    verify_product_preserved,
)
from xmodp.session import Session, parse_session, run_command
from xmodp.words import build_site, evaluate_word, hom_set, hom_set_size, make_free_object, make_word
from xmodp.xmod import central_extension_xmod, enumerate_morphisms, make_crossed_module

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
    F = compute_presheaf(A)
    n = A.base.order
    assert (F.fibers, F.pos) == A._fibers
    assert len(F.sizes) == site.object_count == n + n * n
    sets = []
    for i, o in enumerate(map(site.object, range(site.object_count))):
        assert site.position(o) == i == (o.xs[0] if o.kind == "single" else n + o.xs[0] * n + o.xs[1])
        free = site.free(i)
        assert free == make_free_object(A.base, free.labels, o.xs)
        sets.append(hom_set(free, A))
        assert F.sizes[i] == len(sets[i]) == hom_set_size(free, A)
    ends = list(site.ends())
    assert len(F.actions) == site.generator_count == len(ends)
    for k, ((family, *args), (s, t)) in enumerate(zip(site.decode(range(site.generator_count)), ends)):
        g = site.morphism(k)
        assert site.object(s) == g.source and site.object(t) == g.target
        assert g.name == site.name(k)
        assert F.actions[k] == presheaf_action(F, g)
        images = [tuple(evaluate_word(w, A, nu) for w in g.words) for nu in sets[t]]
        assert [sets[s][i] for i in F.actions[k]] == images
        if family != "id":
            assert g.name == f"{family}[{','.join(map(str, args))}]"
        else:
            assert s == t == k
        for w in g.words:
            rebuilt = make_free_object(w.free.base, w.free.labels, w.free.omega)
            assert w.free == rebuilt == site.free(t)
            assert w == make_word(rebuilt, [tuple(s) for s in w.syms])


@settings(max_examples=150, deadline=None)
@given(relabelled(SMALL_XMODS))
def test_presheaf_from_fibers_matches_word_evaluation(A):
    _check_against_words(A)


@settings(max_examples=5, deadline=None)
@given(relabelled([E48]))
def test_presheaf_from_fibers_matches_word_evaluation_over_s4(A):
    assert (A.group.order, A.base.order, build_site(A.base).generator_count) == (48, 24, 2904)
    _check_against_words(A)


S3_SESSION = parse_session((Path(__file__).parent / "golden" / "s3.json").read_text())


def test_embedding_builds_no_words(monkeypatch):
    # Positions key the site inside the embedding: building it, embed,
    # verify-embedding and the three exactness comparisons make no site
    # morphism, word or free object, which exist only for the word calculus.
    made = []
    for name in ("SiteMorphism", "Word", "FreeObject"):
        cls = getattr(words, name)
        monkeypatch.setattr(words, name, lambda *args, _cls=cls, **kw: made.append(_cls) or _cls(*args, **kw))
    E, T = S3_SESSION.xmods["E"], S3_SESSION.xmods["T"]
    site = build_site(E.base)
    report, code = run_command(S3_SESSION, "embed", ["E"])
    assert code == 0 and len(report["actions"]) == site.generator_count
    assert verify_full_faithful(T, E)["pass"]
    f, g = enumerate_morphisms(E, E, budget=10**15)[:2]
    cases = [
        (verify_product_preserved, (T, E)),
        (verify_equaliser_preserved, (f, g)),
        (verify_coequaliser_preserved, (f, g)),
    ]
    for verify, args in cases:
        assert verify(*args)["pass"]
    assert made == []
    # The counter sees constructions: the identity of single(0) makes one of each.
    site.morphism(0)
    assert [cls.__name__ for cls in made] == ["FreeObject", "Word", "SiteMorphism"]


def test_searches_and_comparisons_build_no_assignment_tuples(monkeypatch):
    # embed, verify-embedding, presheaf_action and the three comparisons
    # read set sizes and fibers only, so none of them lists a hom-set;
    # verify-embedding of an object with itself builds one presheaf.
    built = []

    def recording(*args, _real=compute_presheaf, **kwargs):
        built.append(_real(*args, **kwargs))
        return built[-1]

    def refuse(*args):
        raise AssertionError("a hom-set was listed")

    monkeypatch.setattr(presheaf, "compute_presheaf", recording)
    monkeypatch.setattr(session, "compute_presheaf", recording)
    monkeypatch.setattr(presheaf, "hom_set", refuse)
    monkeypatch.setattr(session, "hom_set", refuse)
    E, T = S3_SESSION.xmods["E"], S3_SESSION.xmods["T"]
    site = build_site(E.base)
    for A, B in itertools.product([E, T], repeat=2):
        assert verify_full_faithful(A, B)["pass"]
        assert verify_product_preserved(A, B)["pass"]
    assert len(built) == 2 * 2 + 2 * 1 + 4 * 3
    report, code = run_command(S3_SESSION, "verify-embedding", ["E", "E"])
    assert code == 0 and report["pass"] and len(built) == 19
    pairs = [fg for X in (E, T) for fg in itertools.combinations(enumerate_morphisms(X, X), 2)]
    for f, g in pairs:
        assert verify_coequaliser_preserved(f, g)["pass"]
    assert len(pairs) == 6 + 3 and len(built) == 19 + 3 * len(pairs)
    for f, g in pairs:
        assert verify_equaliser_preserved(f, g)["pass"]
    assert len(built) == 19 + 5 * len(pairs)
    report, code = run_command(S3_SESSION, "embed", ["E"])
    assert code == 0 and len(report["objects"]) == site.object_count and len(built) == 65
    F = presheaf.compute_presheaf(E)
    assert presheaf_action(F, site.morphism(site.object_count)) == F.actions[site.object_count]
    assert len(built) == 66


def _embed_records_from_sets(F):
    """The objects and actions of an embed report as dicts, built from the
    assignment tuples of hom_set."""
    site = F.site
    names = [site.object(i).describe() for i in range(site.object_count)]
    objects = [
        {"object": name, "size": len(elems), "assignments": [list(t) for t in elems]}
        for name, elems in zip(names, assignment_sets(F))
    ]
    actions = [
        {"generator": site.name(k), "source": names[s], "target": names[t], "map": list(image)}
        for k, ((s, t), image) in enumerate(zip(site.ends(), F.actions))
    ]
    return objects, actions


def _check_embed_writer(A):
    report, code = run_command(Session(base=A.base, xmods={A.name: A}), "embed", [A.name])
    objects, actions = _embed_records_from_sets(compute_presheaf(A))
    oracle = {**report, "objects": objects, "actions": actions}
    assert code == 0 and list(oracle) == ["command", "options", "pass", "xmod", "objects", "actions"]
    assert _json_text(report) == json.dumps(oracle, indent=2)
    # The item texts are indented to the depth they are written at.
    assert _json_text({"nested": [report]}) == json.dumps({"nested": [oracle]}, indent=2)
    assert list(report["objects"]) == objects and list(report["actions"]) == actions
    assert report["objects"][1:3] == objects[1:3]


def test_an_empty_item_list_is_written_as_json_dumps_writes_it():
    for pad in ("", "    "):
        assert _json_text(session._ItemTexts([]), pad) == "[]" == json.dumps([], indent=2)


# A catalogue module whose boundary misses some base element, so that some
# objects have size 0 and some maps are empty.
WITH_EMPTY_FIBER = next(A for A in SMALL_XMODS if len(set(A.boundary.image)) < A.base.order)


@settings(max_examples=60, deadline=None)
@given(relabelled(SMALL_XMODS))
@example(WITH_EMPTY_FIBER)
def test_embed_report_is_json_dumps_of_the_records(A):
    _check_embed_writer(A)


@settings(max_examples=3, deadline=None)
@given(relabelled([E48]))
def test_embed_report_is_json_dumps_of_the_records_over_s4(A):
    _check_embed_writer(A)
