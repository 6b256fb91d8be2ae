"""Tests for the symbolic word calculus and the finite site."""

import itertools

import pytest
from hypothesis import given, strategies as st

from oracles import apply_peiffer_move, peiffer_word
from xmodp.errors import (
    BaseMismatchError,
    CompositionMismatchError,
    FiberMismatchError,
    IndexOutOfRangeError,
    PreconditionFailedError,
)
from xmodp.groups import cyclic_group, subgroup_closure, symmetric_group_3
from xmodp.limits import terminal_object
from xmodp.words import (
    SiteMorphism,
    SiteObject,
    build_site,
    compose_site_morphisms,
    concat_words,
    evaluate_word,
    hom_set,
    hom_set_size,
    invert_word,
    labelling,
    make_free_object,
    make_word,
    single_object,
    singly_generated_hom,
    substitute_word,
    symbol_word,
    translate_word,
    word_boundary,
)
from xmodp.xmod import conjugation_xmod, make_crossed_module, trivial_action

C2 = cyclic_group(2)
C4 = cyclic_group(4)
S3 = symmetric_group_3()
PAIR = make_free_object(S3, ("g0", "g1"), (1, 3))

_sym = st.tuples(
    st.integers(0, 5), st.sampled_from(["g0", "g1"]), st.sampled_from([1, -1])
)
_words = st.lists(_sym, max_size=6).map(lambda syms: make_word(PAIR, syms))


def _mod2_xmod():
    return make_crossed_module("A2", C4, C2, [0, 1, 0, 1], trivial_action(C2, C4).table)


def test_make_free_object_errors():
    with pytest.raises(IndexOutOfRangeError):
        make_free_object(C2, ["g0", "g0"], [0, 1])
    with pytest.raises(IndexOutOfRangeError):
        make_free_object(C2, ["g0", "g1"], [0])
    with pytest.raises(IndexOutOfRangeError):
        make_free_object(C2, ["g0"], [2])


def test_make_word_errors():
    free = single_object(C2, 1)
    with pytest.raises(IndexOutOfRangeError):
        make_word(free, [(2, "g0", 1)])
    with pytest.raises(IndexOutOfRangeError):
        make_word(free, [(0, "g7", 1)])
    with pytest.raises(IndexOutOfRangeError):
        make_word(free, [(0, "g0", 2)])


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: make_free_object(C2, ["g0"], [True]), IndexOutOfRangeError),
        (lambda: make_word(single_object(C2, 1), [(True, "g0", 1)]), IndexOutOfRangeError),
        (lambda: labelling(_mod2_xmod(), True), IndexOutOfRangeError),
        (
            lambda: evaluate_word(symbol_word(single_object(C2, 1), "g0"), _mod2_xmod(), [True]),
            FiberMismatchError,
        ),
        (lambda: subgroup_closure(C4, [True]), IndexOutOfRangeError),
    ],
    ids=["make_free_object", "make_word", "labelling", "assignment", "subgroup_closure"],
)
def test_bool_is_not_an_index(call, error):
    # True == 1 is in range for every one of these, so only a type check rejects it.
    with pytest.raises(error):
        call()


def test_word_boundary_single_symbol():
    free = single_object(S3, 1)
    for u in range(6):
        w = symbol_word(free, "g0", u=u)
        assert word_boundary(w) == S3.conj(u, 1)
        assert word_boundary(invert_word(w)) == S3.inv(S3.conj(u, 1))


def test_word_boundary_empty_word():
    assert word_boundary(make_word(PAIR, [])) == 0


def test_evaluate_labelling():
    A = _mod2_xmod()
    free, assignment = labelling(A, 3)
    assert free.omega == (1,)
    assert assignment == (3,)
    w = symbol_word(free, "g0", u=1)
    assert evaluate_word(w, A, assignment) == A.act(1, 3)


def test_evaluate_in_terminal_matches_boundary():
    # In the terminal object every fiber is a point and evaluation is the
    # boundary of the word itself.
    T = terminal_object(S3)
    for syms in [
        [(2, "g0", 1), (4, "g1", -1)],
        [(0, "g1", 1), (1, "g1", 1), (5, "g0", -1)],
    ]:
        w = make_word(PAIR, syms)
        assert evaluate_word(w, T, PAIR.omega) == word_boundary(w)


def test_evaluate_rejects_bad_assignments():
    A = _mod2_xmod()
    free = single_object(C2, 1)
    w = symbol_word(free, "g0")
    with pytest.raises(FiberMismatchError):
        evaluate_word(w, A, (0,))
    with pytest.raises(FiberMismatchError):
        evaluate_word(w, A, (1, 3))
    with pytest.raises(BaseMismatchError):
        evaluate_word(make_word(PAIR, []), A, ())


def test_hom_set_needs_a_module_over_the_free_object_s_base():
    # PAIR is over S3 and A over C2.
    A = _mod2_xmod()
    with pytest.raises(BaseMismatchError):
        hom_set(PAIR, A)
    with pytest.raises(BaseMismatchError):
        hom_set_size(PAIR, A)


def test_concat_words_needs_words_over_one_free_object():
    with pytest.raises(PreconditionFailedError):
        concat_words()
    with pytest.raises(CompositionMismatchError):
        concat_words(symbol_word(PAIR, "g0"), symbol_word(single_object(S3, 1), "g0"))


def test_hom_set_examples():
    A = _mod2_xmod()
    assert hom_set(single_object(C2, 1), A) == ((1,), (3,))
    assert hom_set(make_free_object(C2, ("g0", "g1"), (1, 1)), A) == ((1, 1), (1, 3), (3, 1), (3, 3))
    empty = make_free_object(C2, (), ())
    assert hom_set(empty, A) == ((),)
    assert hom_set_size(empty, A) == 1


def test_hom_set_matches_filter_oracle():
    A = _mod2_xmod()
    for omega in itertools.product(range(2), repeat=2):
        free = make_free_object(C2, ("g0", "g1"), omega)
        fast = set(hom_set(free, A))
        # Oracle: filter raw tuples by the fiber condition.
        slow = {
            t
            for t in itertools.product(range(4), repeat=2)
            if all(A.boundary.image[t[i]] == omega[i] for i in range(2))
        }
        assert fast == slow
        assert hom_set_size(free, A) == len(slow)


def test_singly_generated_hom():
    assert singly_generated_hom(C4, 1, 1).p == 0
    assert singly_generated_hom(C4, 1, 3) is None

    transpositions = [g for g in range(1, 6) if S3.mul(g, g) == 0]
    x, y = transpositions[0], transpositions[1]
    witness = singly_generated_hom(S3, x, y)
    assert witness is not None
    assert S3.conj(witness.p, y) == x
    assert word_boundary(witness.word) == x
    # Minimality of the witness index.
    assert all(S3.conj(q, y) != x for q in range(witness.p))

    three_cycle = next(g for g in range(1, 6) if g not in transpositions)
    assert singly_generated_hom(S3, x, three_cycle) is None


@pytest.mark.parametrize("x, y", [(-1, 5), (0, -1), (0, 6), (6, 0), (True, 1), (1, True)])
def test_singly_generated_hom_checks_its_elements(x, y):
    with pytest.raises(IndexOutOfRangeError):
        singly_generated_hom(S3, x, y)


def test_apply_peiffer_move_requires_pattern():
    u = make_word(PAIR, [(2, "g0", 1)])
    v = make_word(PAIR, [(0, "g1", 1)])
    w = concat_words(u, v, u)
    with pytest.raises(PreconditionFailedError):
        apply_peiffer_move(w, 0, 1, 1)
    with pytest.raises(PreconditionFailedError):
        apply_peiffer_move(w, 0, 2, 3)


def test_apply_peiffer_move_rewrites():
    u = make_word(PAIR, [(2, "g0", 1)])
    v = make_word(PAIR, [(0, "g1", 1)])
    w = concat_words(u, v, invert_word(u))
    moved = apply_peiffer_move(w, 0, 1, 1)
    theta = word_boundary(u)
    assert moved.syms == translate_word(v, theta).syms
    T = terminal_object(S3)
    assert evaluate_word(moved, T, PAIR.omega) == evaluate_word(w, T, PAIR.omega)


def test_site_shape_over_c2():
    site = build_site(C2)
    assert len(site.objects) == 6
    assert len(site.generators) == site.generator_count == 22
    assert site.by_name["m[1,0]"].source.describe() == "single(0)"
    assert site.by_name["sigma[1,1]"].source == site.objects[0]
    assert [site.position(o) for o in site.objects] == list(range(6))
    outside = [("single", (9,)), ("single", (-1,)), ("single", ()), ("pair", (-1, 3)), ("pair", (0, 2))]
    # A bool or a float equal to an index is no coordinate, in a pair as in a single.
    outside += [("pair", (0, True)), ("pair", (True, 0)), ("pair", (0, 1.0)), ("single", (True,))]
    for kind, xs in outside + [("triple", (0, 0, 0))]:
        with pytest.raises(IndexOutOfRangeError):
            site.position(SiteObject(kind, xs))


def test_site_shape_over_s3():
    site = build_site(S3)
    assert len(site.objects) == 42
    assert len(site.generators) == 186


def test_identity_translation_move_matches_identity():
    site = build_site(C2)
    for x in range(2):
        assert site.by_name[f"m[0,{x}]"].words == site.morphism(x).words == site.by_name[f"id[single({x})]"].words


def test_compose_injection_after_move():
    site = build_site(C2)
    composite = compose_site_morphisms(site.by_name["inc1[1,1]"], site.by_name["m[1,1]"])
    assert composite.source.describe() == "single(1)"
    assert composite.target.describe() == "pair(1,1)"
    assert [tuple(s) for s in composite.words[0].syms] == [(1, "g0", 1)]


def test_compose_multiplication_after_move():
    site = build_site(S3)
    x, y = 1, 3
    xy = S3.mul(x, y)
    p = 3
    m = site.by_name[f"m[{p},{xy}]"]
    sigma = site.by_name[f"sigma[{x},{y}]"]
    composite = compose_site_morphisms(sigma, m)
    assert composite.source.describe() == f"single({S3.conj(p, xy)})"
    assert [tuple(s) for s in composite.words[0].syms] == [(p, "g0", 1), (p, "g1", 1)]


def test_compose_with_identity_is_neutral():
    site = build_site(C2)
    f = site.by_name["sigma[0,1]"]
    left = compose_site_morphisms(site.morphism(site.position(f.target)), f)
    right = compose_site_morphisms(f, site.morphism(site.position(f.source)))
    assert left.words == f.words == right.words


def test_compose_associative_on_sample():
    site = build_site(C2)
    a = site.by_name["inc1[0,1]"]
    b = site.by_name["m[1,0]"]
    c = site.by_name["m[1,0]"]
    one = compose_site_morphisms(compose_site_morphisms(a, b), c)
    two = compose_site_morphisms(a, compose_site_morphisms(b, c))
    assert one.words == two.words


def test_compose_mismatch():
    site = build_site(C2)
    with pytest.raises(CompositionMismatchError):
        compose_site_morphisms(site.by_name["inc1[0,1]"], site.by_name["inc2[0,1]"])


def test_substitute_preserves_boundary_relation():
    # Pushing a word through a site map and taking boundaries agrees with
    # first taking the boundary and applying the map on base elements; for
    # the conjugation move that is conjugation by p.
    site = build_site(S3)
    m = site.by_name["m[2,1]"]
    w = symbol_word(site.free(site.position(m.source)), "g0", u=4)
    pushed = substitute_word(w, m)
    assert word_boundary(pushed) == S3.conj(4, word_boundary(m.words[0]))


def test_substitute_the_empty_word():
    # With no symbol to push, the result is the empty word over m's target.
    site = build_site(S3)
    m = site.by_name["sigma[1,3]"]
    pushed = substitute_word(make_word(site.free(site.position(m.source)), []), m)
    assert pushed.syms == ()
    assert pushed.free == site.free(site.position(m.target)) == m.words[0].free


def test_substitute_the_empty_word_into_a_map_with_no_words():
    # A map with no words names no target free object, so even the empty
    # word has nowhere to go.
    site = build_site(S3)
    m = SiteMorphism("none", site.object(0), site.object(1), ())
    with pytest.raises(CompositionMismatchError, match="no labels"):
        substitute_word(make_word(site.free(0), []), m)


def test_substitute_inverts_an_inverted_symbol():
    # An inverted symbol goes through sigma[1,3] as the inverse of the
    # translated word g0 * g1, and the pushed word evaluates as the word
    # does on the values the map's word takes.
    site = build_site(S3)
    sigma = site.by_name["sigma[1,3]"]
    w = make_word(site.free(site.position(sigma.source)), [(2, "g0", -1), (S3.identity, "g0", 1)])
    pushed = substitute_word(w, sigma)
    u = S3.table[2][S3.identity]
    assert [tuple(s) for s in pushed.syms] == [(u, "g1", -1), (u, "g0", -1), *map(tuple, sigma.words[0].syms)]
    A = conjugation_xmod(S3, range(S3.order))
    for nu in hom_set(PAIR, A):
        assert evaluate_word(pushed, A, nu) == evaluate_word(w, A, (evaluate_word(sigma.words[0], A, nu),))


@given(_words, _words)
def test_boundary_is_multiplicative(w1, w2):
    got = word_boundary(concat_words(w1, w2))
    assert got == S3.mul(word_boundary(w1), word_boundary(w2))


@given(_words)
def test_boundary_of_inverse(w):
    assert word_boundary(invert_word(w)) == S3.inv(word_boundary(w))


@given(_words, st.integers(0, 5))
def test_boundary_of_translate(w, v):
    assert word_boundary(translate_word(w, v)) == S3.conj(v, word_boundary(w))


@given(_words, st.integers(0, 5), st.integers(0, 5))
def test_translate_composes_by_left_multiplication(w, u, v):
    twice = translate_word(translate_word(w, u), v)
    assert twice.syms == translate_word(w, S3.mul(v, u)).syms


@given(_words, _words)
def test_peiffer_word_evaluates_to_identity(u, v):
    T = terminal_object(S3)
    w = peiffer_word(u, v)
    assert evaluate_word(w, T, PAIR.omega) == T.group.identity
    assert word_boundary(w) == S3.identity


@given(_words, _words, _words, _words)
def test_peiffer_move_preserves_evaluation(prefix, u, v, suffix):
    if len(u.syms) == 0:
        u = make_word(PAIR, [(0, "g0", 1)])
    w = concat_words(prefix, u, v, invert_word(u), suffix)
    moved = apply_peiffer_move(w, len(prefix.syms), len(u.syms), len(v.syms))
    T = terminal_object(S3)
    assert evaluate_word(moved, T, PAIR.omega) == evaluate_word(w, T, PAIR.omega)
    assert word_boundary(moved) == word_boundary(w)
