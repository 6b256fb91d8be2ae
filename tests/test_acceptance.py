"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with -s to see the lines; every test also asserts, so a plain pytest run
fails loudly if any criterion regresses.  Oracles here are built from nothing
but definitions: subset filters, orbit scans, and independent recounts.
"""

import itertools
import random
import time

from oracles import apply_peiffer_move
from xmodp.groups import (
    automorphism_group,
    center,
    conjugacy_class,
    cyclic_group,
    enumerate_homs,
    klein_four_group,
    normal_subgroups,
    symmetric_group_3,
    trivial_group,
)
from xmodp.limits import (
    EquivalenceRelation,
    coequaliser,
    default_catalogue,
    equaliser,
    is_effective,
    is_equivalence_relation,
    kernel_pair,
    kernel_pair_relation,
    product_over_P,
    pullback,
    quotient_by_equivalence,
    terminal_object,
    verify_coequaliser,
    verify_equaliser,
    verify_kernel_pair,
    verify_product,
    verify_pullback,
    verify_quotient,
)
from xmodp.presheaf import (
    verify_coequaliser_preserved,
    verify_equaliser_preserved,
    verify_full_faithful,
    verify_product_preserved,
)
from xmodp.words import (
    evaluate_word,
    hom_set,
    hom_set_size,
    make_free_object,
    make_word,
    singly_generated_hom,
    translate_word,
    word_boundary,
)
from xmodp.xmod import (
    automorphism_xmod,
    central_extension_xmod,
    central_image_xmod,
    conjugation_xmod,
    crossed_module_violations,
    identity_xmod_morphism,
    make_crossed_module,
    make_xmod_morphism,
    trivial_action,
    trivial_xmod,
    validate_crossed_module,
)

C1 = trivial_group()
C2 = cyclic_group(2)
C3 = cyclic_group(3)
C4 = cyclic_group(4)
V4 = klein_four_group()
S3 = symmetric_group_3()
GROUPS = (C1, C2, C3, C4, V4, S3)


def _mod2_xmod():
    return make_crossed_module("A2", C4, C2, [0, 1, 0, 1], trivial_action(C2, C4).table)


def _id_xmod():
    return conjugation_xmod(C2, [0, 1], name="A1")


def _flat_xmod():
    return trivial_xmod(C2, C2, name="A3")


def _mod2_morphism():
    return make_xmod_morphism(_mod2_xmod(), _id_xmod(), [0, 1, 0, 1])


def _report(number, name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status} ({elapsed:.2f}s){tail}")
    assert ok, f"criterion {number} ({name}) failed{tail}"


def _corrupted_violations(A):
    # One deterministic table-entry flip chosen to be provably detectable:
    # break the identity row of the action when the group has two elements
    # to swap, otherwise break the boundary of the identity.
    boundary = list(A.boundary.image)
    action = [list(row) for row in A.action.table]
    if A.group.order >= 2:
        e = A.base.identity
        action[e][0], action[e][1] = action[e][1], action[e][0]
    elif A.base.order >= 2:
        boundary[0] = 1 if boundary[0] != 1 else 0
    else:
        return None
    return crossed_module_violations(A.group, A.base, boundary, action)


def test_criterion_1_standard_constructions():
    start = time.perf_counter()
    built = []
    for G in GROUPS:
        for N in normal_subgroups(G):
            built.append(conjugation_xmod(G, N))
    for M in GROUPS:
        built.append(automorphism_xmod(M))
    for M in GROUPS:
        if not M.is_abelian():
            continue
        aut = automorphism_group(M)
        for P in GROUPS:
            for rho in enumerate_homs(P, aut.group):
                action = [aut.perms[rho.image[p]] for p in range(P.order)]
                built.append(trivial_xmod(M, P, action=action))
    for M in GROUPS:
        Z = set(center(M))
        for P in GROUPS:
            for mu in enumerate_homs(M, P):
                if not mu.is_surjective():
                    continue
                kernel_central = all(
                    m in Z for m in range(M.order) if mu.image[m] == P.identity
                )
                if kernel_central:
                    built.append(central_extension_xmod(mu))
    for M in GROUPS:
        if not M.is_abelian():
            continue
        for P in GROUPS:
            Z = set(center(P))
            for mu in enumerate_homs(M, P):
                if all(mu.image[m] in Z for m in range(M.order)):
                    built.append(central_image_xmod(mu))

    clean = sum(1 for A in built if validate_crossed_module(A) == ())
    corrupted = detected = 0
    for A in built:
        violations = _corrupted_violations(A)
        if violations is None:
            continue
        corrupted += 1
        detected += bool(violations)
    elapsed = time.perf_counter() - start
    ok = (
        len(built) > 100
        and clean == len(built)
        and corrupted > 0
        and detected == corrupted
        and elapsed < 5.0
    )
    _report(
        1,
        "standard constructions validate, corrupted variants do not",
        ok,
        elapsed,
        f"{clean}/{len(built)} clean, {detected}/{corrupted} corruptions detected",
    )


def test_criterion_2_universal_properties():
    start = time.perf_counter()
    f = _mod2_morphism()
    c3 = trivial_xmod(C3, C1)
    ident3 = identity_xmod_morphism(c3)
    inv3 = make_xmod_morphism(c3, c3, [0, 2, 1])
    flat = _flat_xmod()
    ident_flat = identity_xmod_morphism(flat)
    zero_flat = make_xmod_morphism(flat, flat, [0, 0])
    A2, A1 = _mod2_xmod(), _id_xmod()

    reports = [
        verify_equaliser(f, f, equaliser(f, f)),
        verify_equaliser(ident3, inv3, equaliser(ident3, inv3)),
        verify_coequaliser(ident3, inv3, coequaliser(ident3, inv3)),
        verify_coequaliser(ident_flat, zero_flat, coequaliser(ident_flat, zero_flat)),
        verify_pullback(f, f, pullback(f, f)),
        verify_product(A2, A1, product_over_P(A2, A1)),
        verify_product(flat, flat, product_over_P(flat, flat)),
        verify_kernel_pair(f, kernel_pair(f)),
    ]
    E = kernel_pair_relation(f)
    reports.append(verify_quotient(f.source, E, quotient_by_equivalence(f.source, E)))
    everything = kernel_pair_relation(
        make_xmod_morphism(f.source, terminal_object(C2), f.source.boundary.image)
    )
    reports.append(
        verify_quotient(
            f.source, everything, quotient_by_equivalence(f.source, everything)
        )
    )

    checked = sum(r.get("cones_checked", r.get("cocones_checked", 0)) for r in reports)
    commuting = sum(r["commuting"] for r in reports)
    elapsed = time.perf_counter() - start
    ok = (
        len(reports) >= 6
        and all(r["pass"] and not r["failures"] for r in reports)
        and checked > 100
        and commuting < checked
        and elapsed < 30.0
    )
    _report(
        2,
        "universal properties hold over the catalogue",
        ok,
        elapsed,
        f"{len(reports)} diagrams, {checked} test cones, {commuting} commuting",
    )


def test_criterion_3_every_equivalence_relation_is_effective():
    start = time.perf_counter()
    targets = [
        _mod2_xmod(),
        _id_xmod(),
        make_crossed_module("V", V4, C2, [0, 0, 1, 1], trivial_action(C2, V4).table),
    ]
    expected_counts = [2, 1, 2]
    found_counts = []
    effective = total = 0
    for A in targets:
        square = product_over_P(A, A)
        diagonal = {(m, m) for m in range(A.group.order)}
        rest = [p for p in square.elements if p not in diagonal]
        relations = []
        for r in range(len(rest) + 1):
            for extra in itertools.combinations(rest, r):
                E = EquivalenceRelation(A, frozenset(diagonal | set(extra)))
                if is_equivalence_relation(E):
                    relations.append(E)
        found_counts.append(len(relations))
        for E in relations:
            total += 1
            effective += is_effective(E)
    elapsed = time.perf_counter() - start
    ok = found_counts == expected_counts and effective == total and elapsed < 60.0
    _report(
        3,
        "every equivalence relation is a kernel pair",
        ok,
        elapsed,
        f"{effective}/{total} effective, counts {found_counts}",
    )


def test_criterion_4_hom_sets_are_fiber_products():
    start = time.perf_counter()
    checks = 0
    ok = True
    for P in (C2, S3):
        catalogue = default_catalogue(P)
        for k in range(4):
            for omega in itertools.product(range(P.order), repeat=k):
                free = make_free_object(P, tuple(f"g{i}" for i in range(k)), omega)
                for A in catalogue:
                    fast = hom_set(free, A)
                    # Oracle: filter raw tuples by the fiber condition alone.
                    slow = [
                        t
                        for t in itertools.product(range(A.group.order), repeat=k)
                        if all(A.boundary.image[t[i]] == omega[i] for i in range(k))
                    ]
                    product_of_fibers = 1
                    for x in omega:
                        product_of_fibers *= sum(
                            1 for m in range(A.group.order) if A.boundary.image[m] == x
                        )
                    checks += 1
                    if (
                        list(fast) != slow
                        or len(fast) != product_of_fibers
                        or hom_set_size(free, A) != product_of_fibers
                    ):
                        ok = False
    elapsed = time.perf_counter() - start
    _report(
        4,
        "hom sets match direct enumeration and fiber products",
        ok and checks > 1000,
        elapsed,
        f"{checks} free-object/module pairs",
    )


def test_criterion_5_conjugacy_criterion():
    start = time.perf_counter()
    ok = True
    existing = 0
    for P in (S3, C4):
        for x in range(P.order):
            for y in range(P.order):
                witness = singly_generated_hom(P, x, y)
                conjugate = x in conjugacy_class(P, y)
                if (witness is not None) != conjugate:
                    ok = False
                    continue
                if witness is None:
                    continue
                existing += 1
                if P.conj(witness.p, y) != x:
                    ok = False
                if any(P.conj(q, y) == x for q in range(witness.p)):
                    ok = False
                if word_boundary(witness.word) != x:
                    ok = False
                if witness.word.free.omega != (y,):
                    ok = False
    elapsed = time.perf_counter() - start
    ok = ok and existing == 14 + 4
    _report(
        5,
        "single-generator maps exist exactly for conjugate elements",
        ok,
        elapsed,
        f"{existing} witnessed pairs over S3 and C4",
    )


def test_criterion_6_embedding_is_full_and_faithful():
    start = time.perf_counter()
    objects = [_id_xmod(), _mod2_xmod(), _flat_xmod(), terminal_object(C2)]
    expected = [
        [1, 0, 0, 1],
        [1, 2, 0, 1],
        [1, 2, 2, 1],
        [1, 0, 0, 1],
    ]
    ok = True
    counts = []
    for i, A in enumerate(objects):
        row = []
        for j, B in enumerate(objects):
            report = verify_full_faithful(A, B)
            row.append(report["hom_count"])
            if not (
                report["pass"]
                and report["hom_count"] == expected[i][j] == report["nat_count"]
                and report["round_trip_hom"]
                and report["round_trip_nat"]
                and report["functor_injective"]
            ):
                ok = False
        counts.append(row)
    elapsed = time.perf_counter() - start
    ok = ok and counts == expected and elapsed < 60.0
    _report(
        6,
        "natural transformations count and round-trip as morphisms",
        ok,
        elapsed,
        f"matrix {counts}",
    )


def test_criterion_7_embedding_preserves_exactness():
    start = time.perf_counter()
    A2, A1, flat = _mod2_xmod(), _id_xmod(), _flat_xmod()
    f = make_xmod_morphism(A2, A1, [0, 1, 0, 1])
    c3 = trivial_xmod(C3, C1)
    ident3 = identity_xmod_morphism(c3)
    inv3 = make_xmod_morphism(c3, c3, [0, 2, 1])
    ident_flat = identity_xmod_morphism(flat)
    zero_flat = make_xmod_morphism(flat, flat, [0, 0])

    reports = [
        verify_product_preserved(A2, A1),
        verify_product_preserved(flat, flat),
        verify_equaliser_preserved(f, f),
        verify_equaliser_preserved(ident3, inv3),
        verify_coequaliser_preserved(ident3, inv3),
        verify_coequaliser_preserved(ident_flat, zero_flat),
    ]
    collapse = reports[4]
    one_point = all(
        entry["lhs_size"] == 1 and entry["rhs_size"] == 1 for entry in collapse["objects"]
    )
    squares = sum(r["squares_checked"] for r in reports)
    elapsed = time.perf_counter() - start
    ok = all(r["pass"] for r in reports) and one_point and squares > 100
    _report(
        7,
        "products, equalisers, and regular epis survive the embedding",
        ok,
        elapsed,
        f"{len(reports)} comparisons, {squares} squares",
    )


def _random_word(rng, free, length):
    syms = [
        (
            rng.randrange(free.base.order),
            f"g{rng.randrange(len(free.labels))}",
            rng.choice([1, -1]),
        )
        for _ in range(length)
    ]
    return make_word(free, syms)


def test_criterion_8_peiffer_moves_preserve_evaluation():
    start = time.perf_counter()
    rng = random.Random(20260823)
    catalogues = {P: default_catalogue(P) for P in (C2, S3)}
    shapes = [
        (ulen, vlen, plen, slen)
        for ulen in (1, 2)
        for vlen in (1, 2)
        for plen in (0, 1)
        for slen in (0, 1)
        if 2 * ulen + vlen + plen + slen <= 6
    ]
    moves = evaluations = 0
    ok = True
    for _ in range(100):
        P = rng.choice([C2, S3])
        k = rng.choice([1, 2])
        omega = tuple(rng.randrange(P.order) for _ in range(k))
        free = make_free_object(P, tuple(f"g{i}" for i in range(k)), omega)
        ulen, vlen, plen, slen = rng.choice(shapes)
        u = _random_word(rng, free, ulen)
        v = _random_word(rng, free, vlen)
        prefix = _random_word(rng, free, plen)
        suffix = _random_word(rng, free, slen)
        w = make_word(
            free,
            [tuple(s) for s in prefix.syms]
            + [tuple(s) for s in u.syms]
            + [tuple(s) for s in v.syms]
            + [(s.u, s.label, -s.exp) for s in reversed(u.syms)]
            + [tuple(s) for s in suffix.syms],
        )
        moved = apply_peiffer_move(w, plen, ulen, vlen)
        moves += 1
        if word_boundary(moved) != word_boundary(w):
            ok = False
        for A in catalogues[P]:
            for assignment in hom_set(free, A):
                evaluations += 1
                if evaluate_word(moved, A, assignment) != evaluate_word(w, A, assignment):
                    ok = False
    elapsed = time.perf_counter() - start
    ok = ok and moves == 100 and evaluations > 100 and elapsed < 30.0
    _report(
        8,
        "random elementary moves never change evaluation",
        ok,
        elapsed,
        f"{moves} moves, {evaluations} evaluations",
    )


def test_criterion_9_translation_law_is_equivariant():
    start = time.perf_counter()
    rng = random.Random(90210)
    ok = True
    words = 0
    for _ in range(200):
        P = rng.choice([C2, S3])
        k = rng.choice([1, 2])
        omega = tuple(rng.randrange(P.order) for _ in range(k))
        free = make_free_object(P, tuple(f"g{i}" for i in range(k)), omega)
        w = _random_word(rng, free, rng.randrange(0, 7))
        words += 1
        for v in range(P.order):
            if word_boundary(translate_word(w, v)) != P.conj(v, word_boundary(w)):
                ok = False
            for u in range(P.order):
                twice = translate_word(translate_word(w, u), v)
                if twice.syms != translate_word(w, P.table[v][u]).syms:
                    ok = False
    # The law composes by multiplying on the left; the alternative reading
    # (keeping the inner translate) is ruled out by a concrete pair.
    w = make_word(make_free_object(S3, ("g0",), (1,)), [(3, "g0", 1)])
    left = translate_word(w, 1).syms[0].u
    ok = ok and left == S3.table[1][3] and left != 3 and S3.table[1][3] != S3.table[3][1]
    elapsed = time.perf_counter() - start
    _report(
        9,
        "translation makes word boundaries conjugation-equivariant",
        ok and words == 200,
        elapsed,
        f"{words} random words",
    )
