"""Crossed modules over a fixed finite base group.

A crossed module here is a finite group M, a base group P, a boundary
homomorphism M -> P, and a left P-action on M by automorphisms, subject to

    CM1: boundary(p . m) = p * boundary(m) * p^-1
    CM2: (boundary(m)) . n = m * n * m^-1

Validation returns violations as data, so a caller can inspect every failed
axiom with its witnessing indices instead of stopping at the first.
Morphisms keep the base fixed: they are group maps M -> M' commuting with
the boundaries and with the action.

Data from outside is validated once, by the make_* constructors.  What
xmodp builds from valid crossed modules and morphisms (catalogue entries,
limit apexes) is packaged unchecked by _trusted_xmod; the terminal object
of limits.py is put together unchecked from its parts, so that its action
table stays the base's conjugation table itself.

One check per axiom: each axiom is written once, as a function that lists
its failures while one variable ranges over an index set it is given.  The
validator runs it first on generating sets of M and P, a proof when it
finds nothing, as the elements satisfying the axiom are closed under
products once the axioms checked before it hold; only a failure there
runs the same function over the whole range, sorted into the order of the
full loops over every entry.  The axioms and their closure arguments:

- action-composition, _composition_failures over q: the actor is
  associative, so the q with (pq).m = p.(q.m) for all p, m are closed
  under products;
- action-product, groups._hom_failures of each row: once the rows
  compose, the p whose row is an endomorphism are closed under products,
  and each row is a map of M, whose passing b are closed under products;
- boundary-hom and map-hom, groups._hom_failures;
- map-boundary and map-equivariant, _morphism_failures over (ps, ms): once
  the map is a homomorphism, the m sent into the right boundary fiber are
  closed under products, and so are the m with mapping(p.m) = p.mapping(m)
  for a given p, and the p with it for all m.

CM1 and CM2 keep two forms.  _crossed_holds checks entries on generators,
and it is also the filter of all_crossed_modules.  A row form on
generators costs the same per structure once the conjugation tables are
built (1.05 us against 1.12 us over the 117 catalogue structures of
order at most 6 over C2, V4 and S3, Python 3.11 on a shared 2-CPU host),
but it reads whole rows of Group._conjugation, so accepting a session's
crossed module would build the |M|^2 conjugation table of each of its
groups: with _crossed_holds itself in row form, parsing six relabelled
base-S4 sessions took 20.9-21.2 ms against 20.2-20.4 ms (best of 15,
three alternating processes each, same host).  all_crossed_modules joins
CM2 before it: a pair is built into action rows and checked only when
the action hom sends the boundary of each generator of M to the index of
that generator's inner automorphism, one gathered compare per pair (C2^3
over C2^3: 14,624 of 376,832 pairs checked, 0.13 s against 0.64 s for
the filter alone, same host).  _structure_violations is the full scan by
rows: an entry-level full scan would bring back the per-entry loops that
the row scan replaced, which took 0.088 s against 0.004 s over ten
corrupted base-S4 parses.

The action and CM1/CM2 checks compare whole rows, gathered as tuples in
C, and search entry by entry only the rows that differ; the map-boundary
and map-equivariant checks go entry by entry.

Conjugation in bulk is read from one table per group, Group._conjugation,
built once in C: conjugation_action returns it as its table, so the
terminal object of limits.py shares the base's, and the CM1/CM2 row scan,
conjugation_xmod, automorphism_xmod (whose boundary sends m to the
position of its row) and central_extension_xmod read its rows.  Only
_crossed_holds, which reads a few entries on generators, calls Group.conj.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    BaseMismatchError,
    CompositionMismatchError,
    PreconditionFailedError,
    ValidationError,
)
from .groups import (
    DEFAULT_BUDGET,
    AutGroup,
    Group,
    GroupHom,
    _differences,
    _elements,
    _gather,
    _hom_failures,
    _hom_witnesses,
    _indices,
    _meter,
    _search_homs,
    automorphism_group,
    center,
    enumerate_homs,
    is_index,
    is_normal,
    is_subgroup,
    subgroup_group,
)

__all__ = [
    "Violation",
    "Action",
    "CrossedModule",
    "XModMorphism",
    "action_violations",
    "trivial_action",
    "conjugation_action",
    "crossed_module_violations",
    "validate_crossed_module",
    "make_crossed_module",
    "conjugation_xmod",
    "automorphism_xmod",
    "trivial_xmod",
    "central_extension_xmod",
    "central_image_xmod",
    "morphism_violations",
    "validate_morphism",
    "make_xmod_morphism",
    "identity_xmod_morphism",
    "compose_xmod_morphisms",
    "enumerate_morphisms",
    "all_crossed_modules",
    "structure_key",
]

@dataclass(frozen=True)
class Violation:
    """One failed axiom with the indices that witness the failure."""

    axiom: str
    witness: tuple[int, ...]

    def describe(self) -> str:
        return f"{self.axiom} at {self.witness}"


@dataclass(frozen=True)
class Action:
    """A left action of actor on space, table[p][m] = p . m."""

    actor: Group
    space: Group
    table: tuple[tuple[int, ...], ...]


def action_violations(actor: Group, space: Group, table: Sequence[Sequence[int]]) -> tuple[Violation, ...]:
    """Check shape, identity row, compatibility with products on both sides.

    Codes: action-shape, action-range, action-identity (identity acts as the
    identity map), action-composition ((pq).m = p.(q.m)), action-product
    (p.(mn) = (p.m)(p.n)).  Bijectivity of each row follows from the first
    two axioms, so it is not checked separately.

    The identity row is compared whole.  Once the rows compose, the p
    whose row is an endomorphism are closed under products, so the accept
    asks _hom_failures only of the rows of generators of the actor, on
    generators of the space.  The report lists every failure in the order
    of the full loops over every entry: the composition failures over the
    whole actor, sorted, then each row's _hom_witnesses.
    """
    if len(table) != actor.order:
        return (Violation("action-shape", (len(table), actor.order)),)
    rows = [tuple(r) for r in table]
    n = space.order
    for p, row in enumerate(rows):
        if len(row) != n:
            return (Violation("action-shape", (p, len(row), n)),)
    out = [
        Violation("action-range", (p, m))
        for p, row in enumerate(rows)
        if not _indices(row, n)
        for m, v in enumerate(row)
        if not is_index(v, n)
    ]
    if out:
        return tuple(out)
    identity = tuple(range(n))
    if (
        rows[actor.identity] == identity
        and not _composition_failures(actor, rows, actor._gens)
        and not any(_hom_failures(space, space, rows[p], space._gens) for p in actor._gens)
    ):
        return ()
    out = [Violation("action-identity", (m,)) for m in _differences(rows[actor.identity], identity)]
    out.extend(Violation("action-composition", w) for w in sorted(_composition_failures(actor, rows, range(actor.order))))
    for p, row in enumerate(rows):
        out.extend(Violation("action-product", (p, m, k)) for m, k in _hom_witnesses(space, space, row))
    return tuple(out)


def _composition_failures(actor: Group, rows: Sequence[tuple[int, ...]], over: Iterable[int]) -> list[tuple[int, int, int]]:
    """Every (p, q, m) with q in over and (pq).m != p.(q.m), by q in the
    order of over, then by ascending p and m.

    The actor is associative, so the q passing for all p, m are closed
    under products, and no failure for q in a generating set of the actor
    proves that the rows compose.  For each q, the rows of pq, read down
    column q of the actor, are compared with each row p gathered by row q,
    and only a row that differs is searched.
    """
    out = []
    for q in over:
        left, right = _gather(actor._columns[q])(rows), tuple(map(_gather(rows[q]), rows))
        if left != right:
            for p in _differences(left, right):
                out.extend((p, q, m) for m in _differences(left[p], right[p]))
    return out


def trivial_action(actor: Group, space: Group) -> Action:
    row = tuple(range(space.order))
    return Action(actor=actor, space=space, table=tuple(row for _ in range(actor.order)))


def conjugation_action(G: Group) -> Action:
    """G acting on itself by conjugation; its table is G._conjugation."""
    return Action(actor=G, space=G, table=G._conjugation)


@dataclass(frozen=True)
class CrossedModule:
    """A validated crossed module (group, base, boundary, action)."""

    name: str
    group: Group
    base: Group
    boundary: GroupHom
    action: Action

    def act(self, p: int, m: int) -> int:
        return self.action.table[p][m]


def crossed_module_violations(
    group: Group,
    base: Group,
    boundary: Sequence[int],
    action: Sequence[Sequence[int]],
) -> tuple[Violation, ...]:
    """Full validation report for crossed-module shaped data.

    Includes component-level checks (boundary is a homomorphism, action
    axioms) and the two structure axioms.
    Codes: boundary-shape, boundary-range, boundary-hom, the action-* codes,
    cm1 with witness (p, m), cm2 with witness (m, n).
    """
    if len(boundary) != group.order:
        return (Violation("boundary-shape", (len(boundary), group.order)),)
    out = []
    if not _indices(boundary, base.order):
        out = [Violation("boundary-range", (m,)) for m, v in enumerate(boundary) if not is_index(v, base.order)]
    act_bad = action_violations(base, group, action)
    shape_bad = [v for v in act_bad if v.axiom in ("action-shape", "action-range")]
    if out or shape_bad:
        return tuple(out) + tuple(shape_bad)
    hom_bad = _hom_witnesses(group, base, boundary)
    if not act_bad and not hom_bad and _crossed_holds(group, base, boundary, action):
        return ()
    out.extend(act_bad)
    out.extend(Violation("boundary-hom", w) for w in hom_bad)
    out.extend(_structure_violations(group, base, boundary, action))
    return tuple(out)


def _crossed_holds(group: Group, base: Group, boundary: Sequence[int], action: Sequence[Sequence[int]]) -> bool:
    """CM1 and CM2, proved on generators for a boundary hom and a valid action.

    With the boundary a homomorphism and each row an automorphism, both
    sides of CM1 are homomorphisms in m, and the p satisfying it for all m
    are closed under products; likewise both sides of CM2 in n, and the m
    satisfying it for all n.  So p in a generating set of P and m, n in
    one of M suffice.
    """
    for p in base._gens:
        for m in group._gens:
            if boundary[action[p][m]] != base.conj(p, boundary[m]):
                return False
    for m in group._gens:
        row = action[boundary[m]]
        for n in group._gens:
            if row[n] != group.conj(m, n):
                return False
    return True


def _structure_violations(
    group: Group, base: Group, boundary: Sequence[int], action: Sequence[Sequence[int]]
) -> Iterator[Violation]:
    """CM1 then CM2 failures, by a full scan of P x M and M x M.

    crossed_module_violations runs it whenever some check fails, once the
    boundary and action entries are in range, so the boundary need not be
    a hom nor the action valid: each axiom is read off the tables as given.

    Row first: for each p, the row m -> boundary(p.m) is compared with
    m -> p boundary(m) p^-1, and for each m, the row n -> boundary(m).n
    with n -> m n m^-1, each side a tuple gathered in C or a row of a
    conjugation table (Group._conjugation).  Only a row that
    differs is searched entry by entry, by ascending m or n.  With p, and
    then m, ascending, the failures come in the order of the full loops
    over every pair.
    """
    rows = [tuple(r) for r in action]
    at_boundary = _gather(boundary)
    for p, conj_p in enumerate(base._conjugation):
        left, right = _gather(rows[p])(boundary), at_boundary(conj_p)
        if left != right:
            yield from (Violation("cm1", (p, m)) for m in _differences(left, right))
    for m, right in enumerate(group._conjugation):
        left = rows[boundary[m]]
        if left != right:
            yield from (Violation("cm2", (m, n)) for n in _differences(left, right))


def validate_crossed_module(A: CrossedModule) -> tuple[Violation, ...]:
    return crossed_module_violations(A.group, A.base, A.boundary.image, A.action.table)


def make_crossed_module(
    name: str,
    group: Group,
    base: Group,
    boundary: Sequence[int],
    action: Sequence[Sequence[int]],
) -> CrossedModule:
    """Validate and build; raises ValidationError carrying every violation."""
    bad = crossed_module_violations(group, base, boundary, action)
    if bad:
        raise ValidationError(
            f"{name}: " + "; ".join(v.describe() for v in bad[:5]),
            violations=bad,
        )
    return _trusted_xmod(name, group, base, boundary, action)


def _trusted_xmod(name: str, group: Group, base: Group, boundary: Sequence[int], action: Sequence[Sequence[int]]) -> CrossedModule:
    """Package, unchecked, data built from valid crossed modules and morphisms."""
    return CrossedModule(
        name=name,
        group=group,
        base=base,
        boundary=GroupHom(group, base, tuple(boundary)),
        action=Action(actor=base, space=group, table=tuple(tuple(r) for r in action)),
    )


def _fibers(A: CrossedModule) -> tuple[list[list[int]], list[int]]:
    """fibers[x], the elements of A over x in ascending order, and pos[a],
    the position of a in its fiber, by one pass over the boundary.

    This is the one place M is split by boundary.  The presheaf lists each
    set as the product of its fibers in lexicographic order, so the single
    assignment (a,) of x has index pos[a] and the pair assignment (a, b)
    of (x, y) has index pos[a] * len(fibers[y]) + pos[b].
    """
    fibers: list[list[int]] = [[] for _ in range(A.base.order)]
    pos = []
    for m, x in enumerate(A.boundary.image):
        pos.append(len(fibers[x]))
        fibers[x].append(m)
    return fibers, pos


# The five standard constructions.

def conjugation_xmod(G: Group, normal_elems: Sequence[int], name: str | None = None) -> CrossedModule:
    """Inclusion of a normal subgroup with the conjugation action of G."""
    sub = _elements(G, normal_elems)
    if not is_subgroup(G, sub):
        raise PreconditionFailedError(f"conjugation: {sub} is not a subgroup of {G.name}")
    if not is_normal(G, sub):
        raise PreconditionFailedError(f"conjugation: {sub} is not normal in {G.name}")
    N, incl = subgroup_group(G, sub, name=f"{G.name}|N{len(sub)}")
    pos = {g: i for i, g in enumerate(sub)}
    action = [[pos[row[g]] for g in sub] for row in G._conjugation]
    return make_crossed_module(
        name or f"conj({G.name},{len(sub)})", N, G, incl.image, action
    )


def automorphism_xmod(M: Group, name: str | None = None) -> CrossedModule:
    """M over its automorphism group, boundary sending m to conjugation by m."""
    aut: AutGroup = automorphism_group(M)
    pos = {p: i for i, p in enumerate(aut.perms)}
    boundary = [pos[row] for row in M._conjugation]
    action = [list(aut.perms[phi]) for phi in range(aut.group.order)]
    return make_crossed_module(name or f"aut({M.name})", M, aut.group, boundary, action)


def trivial_xmod(M: Group, P: Group, action: Sequence[Sequence[int]] | None = None, name: str | None = None) -> CrossedModule:
    """Abelian M with constant-identity boundary and a chosen P-action.

    Once the action is checked, the module is valid by construction: the
    boundary is a homomorphism, both sides of CM1 are the identity, and
    CM2 holds as M is abelian.
    """
    if not M.is_abelian():
        raise PreconditionFailedError(f"trivial module: {M.name} is not abelian")
    table = action if action is not None else trivial_action(P, M).table
    bad = action_violations(P, M, table)
    if bad:
        raise PreconditionFailedError(
            f"trivial module: given table is not an action ({bad[0].describe()})"
        )
    boundary = [P.identity] * M.order
    return _trusted_xmod(name or f"triv({M.name},{P.name})", M, P, boundary, table)


def central_extension_xmod(mu: GroupHom, name: str | None = None) -> CrossedModule:
    """Surjective mu: M -> P with central kernel; P acts through preimages.

    p . m is x0 m x0^-1 for the least preimage x0 of p.  Every preimage
    gives the same conjugation once the kernel is central: mu(x0^-1 x) is
    the identity for any preimage x of p, so x = x0 k with k central and
    x m x^-1 = x0 k m k^-1 x0^-1 = x0 m x0^-1.
    """
    M, P = mu.domain, mu.codomain
    if not mu.is_surjective():
        raise PreconditionFailedError(f"central extension: {M.name} -> {P.name} is not surjective")
    Z = set(center(M))
    kernel = [m for m in range(M.order) if mu.image[m] == P.identity]
    outside = [m for m in kernel if m not in Z]
    if outside:
        raise PreconditionFailedError(
            f"central extension: kernel element {outside[0]} is not central in {M.name}"
        )
    action = [M._conjugation[x0] for x0 in map(mu.image.index, range(P.order))]
    return make_crossed_module(name or f"cext({M.name},{P.name})", M, P, mu.image, action)


def central_image_xmod(mu: GroupHom, name: str | None = None) -> CrossedModule:
    """Abelian M mapping into the centre of P, with the trivial action."""
    M, P = mu.domain, mu.codomain
    if not M.is_abelian():
        raise PreconditionFailedError(f"central image: {M.name} is not abelian")
    Z = set(center(P))
    outside = [m for m in range(M.order) if mu.image[m] not in Z]
    if outside:
        raise PreconditionFailedError(
            f"central image: image of {outside[0]} is not central in {P.name}"
        )
    return make_crossed_module(
        name or f"cimg({M.name},{P.name})", M, P, mu.image, trivial_action(P, M).table
    )


# Morphisms over the shared base.

@dataclass(frozen=True)
class XModMorphism:
    """A base-fixing morphism stored as the element map on M."""

    source: CrossedModule
    target: CrossedModule
    mapping: tuple[int, ...]

    def __call__(self, m: int) -> int:
        return self.mapping[m]

    def is_injective(self) -> bool:
        return len(set(self.mapping)) == self.source.group.order


def morphism_violations(A: CrossedModule, B: CrossedModule, mapping: Sequence[int]) -> tuple[Violation, ...]:
    """Report for a candidate element map M_A -> M_B over the shared base.

    Codes: map-shape, map-range, map-hom (multiplicativity), map-boundary
    (target boundary after the map equals the source boundary), and
    map-equivariant (the map commutes with the P-action).
    """
    nA, nB = A.group.order, B.group.order
    if len(mapping) != nA:
        return (Violation("map-shape", (len(mapping), nA)),)
    if not _indices(mapping, nB):
        return tuple(Violation("map-range", (m,)) for m, v in enumerate(mapping) if not is_index(v, nB))
    hom_bad = _hom_witnesses(A.group, B.group, mapping)
    if not hom_bad and not _morphism_failures(A, B, mapping, A.base._gens, A.group._gens):
        return ()
    everywhere = _morphism_failures(A, B, mapping, range(A.base.order), range(nA))
    return tuple([Violation("map-hom", w) for w in hom_bad] + everywhere)


def _morphism_failures(
    A: CrossedModule, B: CrossedModule, mapping: Sequence[int], ps: Iterable[int], ms: Sequence[int]
) -> list[Violation]:
    """Every map-boundary failure m in ms, then every map-equivariant
    failure (p, m) in ps x ms, in the order of ps and ms.

    Once the map is a homomorphism, the m it sends into the right boundary
    fiber are closed under products, and so are the m with mapping(p.m) =
    p.mapping(m) for a given p, and the p with it for all m: so no failure
    for m in a generating set of M_A and p in one of P proves the map a
    morphism.
    """
    bnd_a, bnd_b = A.boundary.image, B.boundary.image
    act_a, act_b = A.action.table, B.action.table
    return [Violation("map-boundary", (m,)) for m in ms if bnd_b[mapping[m]] != bnd_a[m]] + [
        Violation("map-equivariant", (p, m)) for p in ps for m in ms if mapping[act_a[p][m]] != act_b[p][mapping[m]]
    ]


def _require_same_base(A: CrossedModule, B: CrossedModule) -> None:
    if A.base != B.base:
        raise BaseMismatchError(
            f"{A.name} is over {A.base.name} but {B.name} is over {B.base.name}"
        )


def validate_morphism(A: CrossedModule, B: CrossedModule, mapping: Sequence[int]) -> tuple[Violation, ...]:
    _require_same_base(A, B)
    return morphism_violations(A, B, mapping)


def make_xmod_morphism(A: CrossedModule, B: CrossedModule, mapping: Sequence[int]) -> XModMorphism:
    bad = validate_morphism(A, B, mapping)
    if bad:
        raise ValidationError(
            f"map {A.name} -> {B.name}: " + "; ".join(v.describe() for v in bad[:5]),
            violations=bad,
        )
    return XModMorphism(source=A, target=B, mapping=tuple(mapping))


def identity_xmod_morphism(A: CrossedModule) -> XModMorphism:
    return XModMorphism(A, A, tuple(range(A.group.order)))


def compose_xmod_morphisms(f: XModMorphism, g: XModMorphism) -> XModMorphism:
    """Return f after g."""
    if g.target != f.source:
        raise CompositionMismatchError(
            f"cannot compose: {g.target.name} is not {f.source.name}"
        )
    return XModMorphism(
        g.source, f.target, tuple(f.mapping[g.mapping[m]] for m in range(g.source.group.order))
    )


def enumerate_morphisms(A: CrossedModule, B: CrossedModule, budget: int = DEFAULT_BUDGET) -> tuple[XModMorphism, ...]:
    """All morphisms A -> B, in lexicographic order of their element maps.

    Each element a may only go to the target boundary fiber of its own
    boundary, and the search cuts a partial map as soon as it breaks a
    product or the P-action.  Every candidate a node of the search holds
    is charged to the budget, or to the Work meter of an enclosing call.
    """
    _require_same_base(A, B)
    fibers, _ = _fibers(B)
    candidates = [fibers[x] for x in A.boundary.image]
    what = f"morphism search {A.name} -> {B.name}"
    maps = _search_homs(A.group, B.group, candidates, _meter(budget), what, zip(A.action.table, B.action.table))
    return tuple(XModMorphism(A, B, mapping) for mapping in maps)


def structure_key(A: CrossedModule) -> tuple:
    """Name-independent identity of a crossed module over a fixed base."""
    return (A.group.table, A.boundary.image, A.action.table)


def all_crossed_modules(M: Group, P: Group, name_prefix: str = "") -> tuple[CrossedModule, ...]:
    """Every crossed module structure on M over P.

    Boundaries range over all homomorphisms M -> P, actions over all
    homomorphisms P -> Aut(M).  Those already satisfy the boundary and
    action axioms, so each combination is kept when CM1 and CM2 hold, and
    _crossed_holds, their proof on generators, decides that exactly.
    Order is deterministic in (boundary, action) enumeration order.

    CM2 is joined first: it asks that the action send boundary(m) to the
    inner automorphism of m, and on generators m of M that is one gathered
    compare of the action hom's images at their boundaries against the
    indices of their inner automorphisms.  As each action row is an
    automorphism, it holds exactly when _crossed_holds's CM2 part does, so
    only the pairs passing it are built into action rows and checked.
    """
    aut = automorphism_group(M)
    act_homs = enumerate_homs(P, aut.group)
    index = {perm: i for i, perm in enumerate(aut.perms)}
    inner = tuple(index[M._conjugation[m]] for m in M._gens)
    out = []
    for bnd in enumerate_homs(M, P):
        at_boundaries = _gather([bnd.image[m] for m in M._gens])
        for act_hom in act_homs:
            if at_boundaries(act_hom.image) != inner:
                continue
            action = tuple(aut.perms[act_hom.image[p]] for p in range(P.order))
            if _crossed_holds(M, P, bnd.image, action):
                out.append(_trusted_xmod(f"{name_prefix}{M.name}.{len(out)}", M, P, bnd.image, action))
    return tuple(out)
