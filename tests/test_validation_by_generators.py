"""Validation by generators: the fast accept is exact, and it is the path taken.

Each axiom is one function that lists its failures over an index set it is
given; each validator of outside data runs it on generating sets first
and accepts when it finds nothing, and otherwise runs it over the whole
range.  The Hypothesis tests here require, on valid data and on data with
one entry corrupted, that each axiom function finds nothing on the
generating set exactly when it finds nothing on the full range, and that
the public validators return what the per-entry loops (the oracles below)
return.  The GL(2,3) tests record the index sets every axiom function is
run on, so valid data must be accepted without a run over a range larger
than a generating set.  The JSON-writer test pins the CLI's JSON writer
to json.dumps(indent=2).

The checks compare whole rows in C and search entry by entry only the
rows that differ.  The differential tests at the end hold make_group,
action_violations and crossed_module_violations to the per-entry loops on
untrusted entries (bools, floats, strings, None, out-of-range ints, rows
of the wrong length), on order-1 groups and on a corrupted order-48
module, and the catalogue filter to the full CM1/CM2 scan.
"""

import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from xmodp import groups, limits, xmod
from xmodp.cli import _json_text
from xmodp.errors import (
    IndexOutOfRangeError,
    NoIdentityError,
    NoInverseError,
    NotAssociativeError,
    XmodError,
)
from xmodp.groups import (
    cyclic_group,
    enumerate_homs,
    hom_violation,
    klein_four_group,
    make_group,
    make_hom,
    symmetric_group_3,
    trivial_group,
)
from xmodp.limits import (
    EquivalenceRelation,
    default_catalogue,
    equivalence_violations,
    kernel_pair_relation,
)
from xmodp.xmod import (
    Violation,
    action_violations,
    _trusted_xmod,
    all_crossed_modules,
    central_extension_xmod,
    conjugation_xmod,
    crossed_module_violations,
    enumerate_morphisms,
    identity_xmod_morphism,
    make_crossed_module,
    make_xmod_morphism,
    morphism_violations,
    structure_key,
)


def _permutation_group(degree, name):
    """The symmetric group on range(degree); i * j applies j first."""
    perms = list(itertools.permutations(range(degree)))
    idx = {p: i for i, p in enumerate(perms)}
    table = [[idx[tuple(p[q[x]] for x in range(degree))] for q in perms] for p in perms]
    return make_group(table, name)


def _matrix_group_gl23():
    """GL(2,3) as 2x2 matrices over F3 in lexicographic order, with SL(2,3)."""
    mats = [
        m
        for m in itertools.product(range(3), repeat=4)
        if (m[0] * m[3] - m[1] * m[2]) % 3
    ]
    idx = {m: i for i, m in enumerate(mats)}

    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return ((a * e + b * g) % 3, (a * f + b * h) % 3, (c * e + d * g) % 3, (c * f + d * h) % 3)

    table = [[idx[mul(x, y)] for y in mats] for x in mats]
    special = [i for i, m in enumerate(mats) if (m[0] * m[3] - m[1] * m[2]) % 3 == 1]
    return table, special


GROUPS = [trivial_group(), cyclic_group(2), cyclic_group(3), cyclic_group(4), klein_four_group(),
          cyclic_group(6), symmetric_group_3(), _permutation_group(4, "S4")]
SMALL = GROUPS[:-1]
XMODS = (
    default_catalogue(cyclic_group(2), 6)
    + default_catalogue(klein_four_group(), 4)
    + default_catalogue(symmetric_group_3(), 6)
)
MORPHISMS = [
    f
    for A in XMODS[:20]
    for B in XMODS[:20]
    if B.group.order ** A.group.order <= 4096
    for f in enumerate_morphisms(A, B)
]


def _inverse(perm):
    inv = [0] * len(perm)
    for old, new in enumerate(perm):
        inv[new] = old
    return inv


@st.composite
def latin_squares(draw):
    """An isotope (x, y) -> gamma(alpha(x) * beta(y)) of a catalogue group.

    Half of them take alpha = beta = gamma^-1, a relabelled group, so both
    associative and non-associative squares are drawn.
    """
    G = draw(st.sampled_from(GROUPS))
    n = G.order
    gamma = draw(st.permutations(range(n)))
    if draw(st.booleans()):
        alpha = beta = _inverse(gamma)
    else:
        alpha, beta = draw(st.permutations(range(n))), draw(st.permutations(range(n)))
    return tuple(
        tuple(gamma[G.table[alpha[x]][beta[y]]] for y in range(n)) for x in range(n)
    )


@st.composite
def corrupted(draw, rows, width):
    """rows with at most one entry replaced by another value in range(width)."""
    rows = [list(r) for r in rows]
    if draw(st.booleans()) and width > 1:
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows[i]) - 1))
        rows[i][j] = draw(st.integers(0, width - 1).filter(lambda v: v != rows[i][j]))
    return rows


@st.composite
def corrupted_group_tables(draw):
    square = draw(latin_squares())
    return tuple(tuple(r) for r in draw(corrupted(square, len(square))))


def _associativity_oracle(table):
    """For each s, the least (x, s, y) with (xs)y != x(sy), by the full loops."""
    n = len(table)
    return [
        next(((x, s, y) for x in range(n) for y in range(n) if table[table[x][s]][y] != table[x][table[s][y]]), None)
        for s in range(n)
    ]


@settings(max_examples=300, deadline=None)
@given(st.one_of(latin_squares(), corrupted_group_tables()))
def test_light_test_accepts_exactly_when_the_full_scan_finds_nothing(table):
    full = groups._associativity_failures(table, range(len(table)))
    assert (not groups._associativity_failures(table, groups._generating_set(table))) == (not full)
    assert full == [w for w in _associativity_oracle(table) if w is not None]
    if full:
        with pytest.raises(NotAssociativeError) as info:
            make_group(table)
        assert str(info.value) == "G: (a, b, c) = (%d, %d, %d)" % min(full)


def test_generating_set_needs_no_group_structure():
    # Constant table: x * y = 0.  The idempotent 0 comes last and is reached
    # as 1 * 1, so 1 and 2 generate.
    assert groups._generating_set([[0, 0, 0]] * 3) == (1, 2)
    G = symmetric_group_3()
    gens = groups._generating_set(G.table)
    assert groups.subgroup_closure(G, gens) == tuple(range(6))


def test_generating_set_takes_the_identity_last():
    # The identity is idempotent, so it is a generator only of the trivial
    # group, wherever it sits in the table.
    assert groups._generating_set(cyclic_group(6).table) == (1,)
    assert groups._generating_set(trivial_group().table) == (0,)
    relabelled = [[(a + b + 1) % 6 for b in range(6)] for a in range(6)]  # identity 5
    assert 5 not in groups._generating_set(relabelled)
    for G in GROUPS[1:]:
        assert G.identity not in G._gens


HOMS = [f for D in SMALL for C in SMALL for f in enumerate_homs(D, C)]


@st.composite
def hom_images(draw):
    f = draw(st.sampled_from(HOMS))
    D, C, img = f.domain, f.codomain, f.image
    return D, C, draw(corrupted([img], C.order))[0]


@settings(max_examples=200, deadline=None)
@given(hom_images())
def test_hom_check_on_generators_is_exact(case):
    D, C, img = case
    full = groups._hom_failures(D, C, img, range(D.order))
    assert (not groups._hom_failures(D, C, img, D._gens)) == (not full)
    oracle = _hom_failures_oracle(D, C, img)
    assert tuple(sorted(full)) == oracle
    assert hom_violation(D, C, img) == (oracle[0] if oracle else None)


@st.composite
def corrupted_xmod_data(draw):
    A = draw(st.sampled_from(XMODS))
    boundary = list(A.boundary.image)
    action = [list(r) for r in A.action.table]
    part = draw(st.sampled_from(["action", "boundary", "none"]))
    if part == "action":
        action = draw(corrupted(action, A.group.order))
    elif part == "boundary":
        boundary = draw(corrupted([boundary], A.base.order))[0]
    return A, boundary, action


def _assert_action_checks_exact(actor, space, rows):
    """Composition and each row's product check: nothing on generators
    exactly when nothing over the whole range."""
    full = xmod._composition_failures(actor, rows, range(actor.order))
    assert (not xmod._composition_failures(actor, rows, actor._gens)) == (not full)
    for row in rows:
        full = groups._hom_failures(space, space, row, range(space.order))
        assert (not groups._hom_failures(space, space, row, space._gens)) == (not full)


@settings(max_examples=300, deadline=None)
@given(corrupted_xmod_data())
def test_crossed_module_checks_on_generators_are_exact(case):
    A, boundary, action = case
    M, P = A.group, A.base
    rows = [tuple(r) for r in action]
    _assert_action_checks_exact(P, M, rows)
    full = groups._hom_failures(M, P, boundary, range(M.order))
    assert (not groups._hom_failures(M, P, boundary, M._gens)) == (not full)
    assert action_violations(P, M, action) == _action_violations_oracle(P, M, action)
    assert crossed_module_violations(M, P, boundary, action) == _crossed_module_oracle(M, P, boundary, action)


def _action_scan_oracle(actor, space, rows):
    """Every action failure, from the full loops over every entry."""
    out = []
    for m in range(space.order):
        if rows[actor.identity][m] != m:
            out.append(Violation("action-identity", (m,)))
    for p in range(actor.order):
        for q in range(actor.order):
            pq = actor.table[p][q]
            for m in range(space.order):
                if rows[pq][m] != rows[p][rows[q][m]]:
                    out.append(Violation("action-composition", (p, q, m)))
    for p in range(actor.order):
        for m in range(space.order):
            for n in range(space.order):
                if rows[p][space.table[m][n]] != space.table[rows[p][m]][rows[p][n]]:
                    out.append(Violation("action-product", (p, m, n)))
    return tuple(out)


SYM = {n: (_permutation_group(n, f"S{n}"), list(itertools.permutations(range(n)))) for n in range(1, 5)}


@st.composite
def permutation_actions(draw):
    """Rows that compose but need not be an action by automorphisms: from a
    homomorphism P -> Sym(M), or one idempotent endomorphism of M in every
    row, which breaks only the identity row."""
    M = draw(st.sampled_from([G for G in SMALL if G.order <= 4]))
    P = draw(st.sampled_from(SMALL))
    if draw(st.booleans()):
        idempotents = [h.image for h in enumerate_homs(M, M) if all(h.image[x] == x for x in h.image)]
        return M, P, [draw(st.sampled_from(idempotents))] * P.order
    S, perms = SYM[M.order]
    phi = draw(st.sampled_from(enumerate_homs(P, S))).image
    return M, P, [perms[phi[p]] for p in range(P.order)]


@settings(max_examples=200, deadline=None)
@given(permutation_actions())
def test_action_product_check_on_generators_is_exact(case):
    M, P, rows = case
    _assert_action_checks_exact(P, M, [tuple(r) for r in rows])
    assert action_violations(P, M, rows) == _action_scan_oracle(P, M, rows)


def _xmod_rows(case):
    A, _, action = case
    return A.group, A.base, [tuple(r) for r in action]


@settings(max_examples=300, deadline=None)
@given(st.one_of(corrupted_xmod_data().map(_xmod_rows), permutation_actions()))
def test_action_scan_matches_the_full_loops(case):
    M, P, rows = case
    expected = _action_scan_oracle(P, M, rows)
    composition = [v.witness for v in expected if v.axiom == "action-composition"]
    assert sorted(xmod._composition_failures(P, rows, range(P.order))) == composition
    assert action_violations(P, M, rows) == expected


def test_action_scan_of_a_corrupted_gl23_action_matches_the_full_loops():
    gl, special = _matrix_group_gl23()
    A = conjugation_xmod(make_group(gl, "GL23"), special)
    for p, m in [(0, 0), (5, 7), (47, 23)]:
        rows = [list(r) for r in A.action.table]
        rows[p][m] = (rows[p][m] + 1) % A.group.order
        rows = [tuple(r) for r in rows]
        expected = _action_scan_oracle(A.base, A.group, rows)
        assert expected
        assert action_violations(A.base, A.group, rows) == expected


@st.composite
def valid_actions_any_boundary(draw):
    """A boundary hom and a P-action by automorphisms that need not satisfy
    CM1 or CM2, as all_crossed_modules tries them."""
    M = draw(st.sampled_from(SMALL))
    P = draw(st.sampled_from(SMALL))
    aut = groups.automorphism_group(M)
    bnd = draw(st.sampled_from(enumerate_homs(M, P))).image
    act = draw(st.sampled_from(enumerate_homs(P, aut.group))).image
    return M, P, bnd, tuple(aut.perms[act[p]] for p in range(P.order))


@settings(max_examples=200, deadline=None)
@given(valid_actions_any_boundary())
def test_cm1_cm2_checks_on_generators_are_exact(case):
    M, P, bnd, action = case
    structure = list(xmod._structure_violations(M, P, bnd, action))
    assert xmod._crossed_holds(M, P, bnd, action) == (not structure)
    assert crossed_module_violations(M, P, bnd, action) == tuple(structure)


def test_catalogue_filter_keeps_what_the_generator_check_accepts():
    for M in SMALL:
        for P in (cyclic_group(2), symmetric_group_3()):
            for A in all_crossed_modules(M, P):
                assert xmod._crossed_holds(M, P, A.boundary.image, A.action.table)


# Equivariant homomorphisms between catalogue entries on groups of the
# same order, whatever they do to the boundaries.
EQUIVARIANT_HOMS = [
    (A, B, img)
    for A in XMODS[:20]
    for B in XMODS[:20]
    if A.group.order == B.group.order
    for img in groups._search_homs(
        A.group, B.group, [range(B.group.order)] * A.group.order,
        groups.Work(groups.DEFAULT_BUDGET), "equivariant hom search", zip(A.action.table, B.action.table),
    )
]


@st.composite
def corrupted_maps(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(EQUIVARIANT_HOMS))
    f = draw(st.sampled_from(MORPHISMS))
    return f.source, f.target, draw(corrupted([f.mapping], f.target.group.order))[0]


@settings(max_examples=300, deadline=None)
@given(corrupted_maps())
def test_morphism_checks_on_generators_are_exact(case):
    A, B, mapping = case
    M, P = A.group, A.base
    full = groups._hom_failures(M, B.group, mapping, range(M.order))
    assert (not groups._hom_failures(M, B.group, mapping, M._gens)) == (not full)
    if not full:
        # The boundary and equivariance checks close under products only
        # for a homomorphism.
        full = xmod._morphism_failures(A, B, mapping, range(P.order), range(M.order))
        assert (not xmod._morphism_failures(A, B, mapping, P._gens, M._gens)) == (not full)
    assert morphism_violations(A, B, mapping) == _morphism_oracle(A, B, mapping)


def _morphism_oracle(A, B, mapping):
    """morphism_violations for an in-range map, from the full loops."""
    out = [Violation("map-hom", w) for w in _hom_failures_oracle(A.group, B.group, mapping)]
    for m in range(A.group.order):
        if B.boundary.image[mapping[m]] != A.boundary.image[m]:
            out.append(Violation("map-boundary", (m,)))
    for p in range(A.base.order):
        for m in range(A.group.order):
            if mapping[A.act(p, m)] != B.act(p, mapping[m]):
                out.append(Violation("map-equivariant", (p, m)))
    return tuple(out)


@st.composite
def edited_pair_sets(draw):
    """A kernel-pair relation with at most one pair added or removed."""
    f = draw(st.sampled_from(MORPHISMS))
    E = kernel_pair_relation(f)
    pairs = set(E.pairs)
    n = f.source.group.order
    edit = draw(st.sampled_from(["add", "remove", "none"]))
    if edit == "add" and len(pairs) < n * n:
        pairs.add(draw(st.sampled_from(sorted(set(itertools.product(range(n), repeat=2)) - pairs))))
    elif edit == "remove":
        pairs.discard(draw(st.sampled_from(sorted(pairs))))
    return EquivalenceRelation(E.carrier, frozenset(pairs))


def _pair_closure(A, seed):
    """The subgroup of M x M generated by the diagonal and seed."""
    t = A.group.table
    pairs = {(a, a) for a in range(A.group.order)} | set(seed)
    frontier = list(pairs)
    while frontier:
        a, b = frontier.pop()
        for c, d in list(pairs):
            for x in ((t[a][c], t[b][d]), (t[c][a], t[d][b])):
                if x not in pairs:
                    pairs.add(x)
                    frontier.append(x)
    return frozenset(pairs)


@st.composite
def generated_pair_sets(draw):
    """Reflexive subgroups of M x M inside the boundary fibers: equivalence
    relations that the P-action may move out of themselves."""
    A = draw(st.sampled_from([A for A in XMODS if A.group.order > 1]))
    fibres = [(a, b) for a in range(A.group.order) for b in range(A.group.order)
              if A.boundary.image[a] == A.boundary.image[b]]
    seed = draw(st.lists(st.sampled_from(fibres), max_size=2))
    return EquivalenceRelation(A, _pair_closure(A, seed))


@settings(max_examples=300, deadline=None)
@given(st.one_of(edited_pair_sets(), generated_pair_sets()))
def test_equivalence_checks_on_generators_are_exact(E):
    scan = limits._equivalence_scan(E)
    assert limits._equivalence_holds(E) == (not scan)
    assert equivalence_violations(E) == scan


def _raise(*args, **kwargs):
    raise AssertionError("full scan run on valid data")


# Each axiom function with the number of index sets it ends with, and the
# two full scans, which take none.
AXIOM_FUNCTIONS = [
    (groups, "_associativity_failures", 1),
    (groups, "_hom_failures", 1),
    (xmod, "_hom_failures", 1),
    (xmod, "_composition_failures", 1),
    (xmod, "_morphism_failures", 2),
    (xmod, "_structure_violations", 0),
    (limits, "_equivalence_scan", 0),
]


@pytest.fixture
def index_sets(monkeypatch):
    """Every call of an axiom function as (name, its index sets as tuples),
    with None for a full scan; each call runs the function itself."""
    calls = []

    def recorder(module, name, k):
        run = getattr(module, name)

        def record(*args):
            calls.append((name, tuple(tuple(s) for s in args[len(args) - k:]) if k else None))
            return run(*args)

        return record

    for module, name, k in AXIOM_FUNCTIONS:
        monkeypatch.setattr(module, name, recorder(module, name, k))
    return calls


def test_order_96_table_and_gl23_xmod_validate_without_full_scans(index_sets):
    gl, special = _matrix_group_gl23()
    n = len(gl)
    product = [
        [(i ^ j) * n + gl[a][b] for j in range(2) for b in range(n)]
        for i in range(2)
        for a in range(n)
    ]
    G = make_group(product, "C2xGL23")
    assert G.order == 96 and G.identity == gl.index(list(range(n)))
    GL = make_group(gl, "GL23")
    make_hom(G, GL, [x % n for x in range(96)])
    A = conjugation_xmod(GL, special)
    assert A.group.order == 24
    B = make_crossed_module("B", A.group, A.base, A.boundary.image, A.action.table)
    assert B.action == A.action
    make_xmod_morphism(A, B, list(range(24)))
    assert equivalence_violations(kernel_pair_relation(identity_xmod_morphism(A))) == ()
    generating_sets = {G._gens, GL._gens, A.group._gens}
    assert {name for name, _ in index_sets} == {name for _, name, k in AXIOM_FUNCTIONS if k}
    assert [(name, sets) for name, sets in index_sets if sets is None or not set(sets) <= generating_sets] == []


def test_rejections_still_run_the_full_scan(index_sets):
    with pytest.raises(NotAssociativeError):
        make_group([[1, 0], [0, 0]])
    assert ("_associativity_failures", ((0, 1),)) in index_sets


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.lists(st.integers())
    | st.dictionaries(st.text(), children)
    | st.dictionaries(st.integers() | st.booleans() | st.none(), children),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_json_writer_matches_json_dumps_indent_2(value):
    assert _json_text(value) == json.dumps(value, indent=2)


# Differential tests of validation by rows against the per-entry loops.
# The oracles below are the loops that validated every entry one by one
# before the checks compared whole rows: the same errors, messages and
# violation tuples, in the same order, are required on untrusted data.


def _entries(n):
    """Values an untrusted table may hold where an index in range(n) is due."""
    return st.one_of(st.integers(0, n - 1), st.sampled_from([-1, n, True, False, 1.0, "1", None]))


def _make_group_oracle(table, name="G"):
    """(error type, message) of make_group, or (None, (table, identity, inverse))."""
    n = len(table)
    if n == 0:
        return NoIdentityError, f"{name}: empty table has no identity"
    rows = []
    for i, row in enumerate(table):
        row = tuple(row)
        if len(row) != n:
            return IndexOutOfRangeError, f"{name}: row {i} has length {len(row)}, expected {n}"
        for j, v in enumerate(row):
            if not (type(v) is int and 0 <= v < n):
                return IndexOutOfRangeError, f"{name}: entry [{i}][{j}] = {v!r} not in 0..{n - 1}"
        rows.append(row)
    for a, b, c in itertools.product(range(n), repeat=3):
        if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
            return NotAssociativeError, f"{name}: (a, b, c) = ({a}, {b}, {c})"
    e = next((i for i, row in enumerate(rows) if row == tuple(range(n))), None)
    if e is None or any(row[e] != a for a, row in enumerate(rows)):
        return NoIdentityError, f"{name}: no two-sided identity"
    for a, row in enumerate(rows):
        if e not in row:
            return NoInverseError, f"{name}: element {a} has no inverse"
    return None, (tuple(rows), e, tuple(row.index(e) for row in rows))


def _make_group_outcome(table):
    try:
        G = make_group(table)
    except XmodError as exc:
        return type(exc), str(exc)
    return None, (G.table, G.identity, G.inverse)


@st.composite
def untrusted_tables(draw):
    """A catalogue table, relabelled or not, with up to two entries replaced
    by values in range or not, and at times one row of the wrong length."""
    rows = [list(r) for r in draw(latin_squares())]
    n = len(rows)
    for _ in range(draw(st.integers(0, 2))):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(_entries(n))
    if draw(st.integers(0, 4)) == 0:
        i = draw(st.integers(0, n - 1))
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + [0]
    return rows


@settings(max_examples=300, deadline=None)
@given(untrusted_tables())
def test_make_group_matches_the_per_entry_loops(table):
    assert _make_group_outcome(table) == _make_group_oracle(table)


def _in_range(v, n):
    return type(v) is int and 0 <= v < n


def _action_violations_oracle(actor, space, table):
    if len(table) != actor.order:
        return (Violation("action-shape", (len(table), actor.order)),)
    out = []
    for p, row in enumerate(table):
        if len(row) != space.order:
            return (Violation("action-shape", (p, len(row), space.order)),)
        for m, v in enumerate(row):
            if not _in_range(v, space.order):
                out.append(Violation("action-range", (p, m)))
    return tuple(out) or _action_scan_oracle(actor, space, table)


def _hom_failures_oracle(domain, codomain, image):
    return tuple(
        (a, b)
        for a in range(domain.order)
        for b in range(domain.order)
        if image[domain.table[a][b]] != codomain.table[image[a]][image[b]]
    )


def _structure_oracle(group, base, boundary, action):
    cm1 = [
        Violation("cm1", (p, m))
        for p in range(base.order)
        for m in range(group.order)
        if boundary[action[p][m]] != base.conj(p, boundary[m])
    ]
    cm2 = [
        Violation("cm2", (m, n))
        for m in range(group.order)
        for n in range(group.order)
        if action[boundary[m]][n] != group.conj(m, n)
    ]
    return tuple(cm1 + cm2)


def _crossed_module_oracle(group, base, boundary, action):
    """crossed_module_violations from the per-entry loops: when the entries
    are in range, every action, boundary-hom, CM1 and CM2 failure."""
    if len(boundary) != group.order:
        return (Violation("boundary-shape", (len(boundary), group.order)),)
    out = tuple(Violation("boundary-range", (m,)) for m, v in enumerate(boundary) if not _in_range(v, base.order))
    act_bad = _action_violations_oracle(base, group, action)
    shape_bad = tuple(v for v in act_bad if v.axiom in ("action-shape", "action-range"))
    if out or shape_bad:
        return out + shape_bad
    hom_bad = tuple(Violation("boundary-hom", w) for w in _hom_failures_oracle(group, base, boundary))
    return act_bad + hom_bad + _structure_oracle(group, base, boundary, action)


# Catalogue entries include order-1 spaces; those over the trivial base
# have an order-1 actor.
UNTRUSTED_XMODS = XMODS + default_catalogue(trivial_group(), 4)


@st.composite
def untrusted_xmod_data(draw):
    """A catalogue entry's boundary and action with up to two entries replaced
    by values in range or not, and at times a row or list of the wrong length."""
    A = draw(st.sampled_from(UNTRUSTED_XMODS))
    n, k = A.group.order, A.base.order
    boundary = list(A.boundary.image)
    action = [list(r) for r in A.action.table]
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            boundary[draw(st.integers(0, n - 1))] = draw(_entries(k))
        else:
            action[draw(st.integers(0, k - 1))][draw(st.integers(0, n - 1))] = draw(_entries(n))
    shape = draw(st.integers(0, 7))
    if shape == 0:
        action[draw(st.integers(0, k - 1))].append(0)
    elif shape == 1:
        action.pop()
    elif shape == 2:
        boundary.append(0)
    return A.group, A.base, boundary, action


@settings(max_examples=400, deadline=None)
@given(untrusted_xmod_data())
def test_action_and_crossed_module_violations_match_the_per_entry_loops(case):
    M, P, boundary, action = case
    assert action_violations(P, M, action) == _action_violations_oracle(P, M, action)
    assert crossed_module_violations(M, P, boundary, action) == _crossed_module_oracle(M, P, boundary, action)


@pytest.mark.parametrize(
    "M, P, boundary, action",
    [
        (trivial_group(), cyclic_group(2), [1], [[0], [0]]),
        (trivial_group(), cyclic_group(2), [0], [[0], [True]]),
        (cyclic_group(2), trivial_group(), [0, 0], [[0, 1]]),
        (cyclic_group(2), trivial_group(), [0, 0], [[1, 0]]),
        (cyclic_group(2), trivial_group(), [0, 0], [[1, 1]]),
        (trivial_group(), trivial_group(), [0], [[0]]),
        (trivial_group(), trivial_group(), [0.0], [[0]]),
    ],
    ids=["1-over-C2", "1-over-C2-bool", "C2-over-1", "C2-over-1-swap", "C2-over-1-repeat", "1-over-1", "1-over-1-float"],
)
def test_order_one_space_and_actor_match_the_per_entry_loops(M, P, boundary, action):
    # With one index, itemgetter returns an entry, not a 1-tuple.
    assert action_violations(P, M, action) == _action_violations_oracle(P, M, action)
    assert crossed_module_violations(M, P, boundary, action) == _crossed_module_oracle(M, P, boundary, action)
    assert _make_group_outcome(M.table) == _make_group_oracle(M.table)


def _relabel_xmod(A, rng):
    """A's tables, boundary and action rewritten under random permutations
    of M and P that move 0, as the benchmark relabels its sessions."""
    def perm(n):
        s = list(range(n))
        while s[0] == 0:
            rng.shuffle(s)
        return s

    def table(G, s):
        t = [[0] * G.order for _ in range(G.order)]
        for a, row in enumerate(G.table):
            for b, c in enumerate(row):
                t[s[a]][s[b]] = s[c]
        return t

    sm, sp = perm(A.group.order), perm(A.base.order)
    boundary = [0] * A.group.order
    for m, x in enumerate(A.boundary.image):
        boundary[sm[m]] = sp[x]
    action = [[0] * A.group.order for _ in range(A.base.order)]
    for p, row in enumerate(A.action.table):
        for m, v in enumerate(row):
            action[sp[p]][sm[m]] = sm[v]
    return table(A.group, sm), table(A.base, sp), boundary, action


def test_corrupted_gl23_central_extension_matches_the_per_entry_loops():
    # GL(2,3) over PGL(2,3), the order-48 central extension of S4, with one
    # action entry of a non-identity row made a repeat, then relabelled.
    GL = make_group(_matrix_group_gl23()[0], "GL23")
    E = central_extension_xmod(groups.quotient_group(GL, groups.center(GL)).projection)
    assert (E.group.order, E.base.order) == (48, 24)
    rng = random.Random(18)
    for _ in range(3):
        action = [list(r) for r in E.action.table]
        p = rng.choice([p for p in range(E.base.order) if p != E.base.identity])
        m = rng.randrange(E.group.order)
        action[p][m] = rng.choice([v for v in action[p] if v != action[p][m]])
        bad = _trusted_xmod("bad", E.group, E.base, E.boundary.image, action)
        m_table, p_table, boundary, action = _relabel_xmod(bad, rng)
        M, P = make_group(m_table, "M"), make_group(p_table, "P")
        expected = _crossed_module_oracle(M, P, boundary, action)
        assert expected
        assert crossed_module_violations(M, P, boundary, action) == expected


def test_catalogue_keeps_what_the_full_cm1_cm2_scan_keeps(monkeypatch):
    monkeypatch.setattr(xmod, "_structure_violations", _raise)
    for P, max_order in [(cyclic_group(2), 6), (klein_four_group(), 4), (symmetric_group_3(), 6)]:
        expected = []
        for build in limits._CATALOGUE_GROUPS:
            M = build()
            if M.order > max_order:
                continue
            aut = groups.automorphism_group(M)
            act_homs = enumerate_homs(P, aut.group)
            for bnd in enumerate_homs(M, P):
                for act in act_homs:
                    action = tuple(aut.perms[act.image[p]] for p in range(P.order))
                    if not _structure_oracle(M, P, bnd.image, action):
                        expected.append((M.table, bnd.image, action))
        assert [structure_key(A) for A in default_catalogue(P, max_order)] == expected


def test_make_group_computes_one_generating_set(monkeypatch):
    table = symmetric_group_3().table
    calls = []
    generating_set = groups._generating_set
    monkeypatch.setattr(groups, "_generating_set", lambda t: calls.append(t) or generating_set(t))
    G = make_group(table)
    assert G._gens == generating_set(G.table)
    assert len(calls) == 1
