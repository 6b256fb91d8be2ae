"""Limits, colimits, and quotients of crossed modules over a fixed base.

Every construction returns its apex together with the structure maps, and
each has a companion verifier that sweeps a catalogue of test objects and
counts mediating morphisms by exhaustive search: exactly one for every
commuting test cone or cocone, zero for every non-commuting one.  Each
verifier is one _sweep call, given its kind, its ends, its diagram and
when a test cone commutes; _sweep builds the catalogue: every crossed
module structure over the base on the groups of order at most max_order
(DEFAULT_CATALOGUE_ORDER unless set), plus the diagram's own objects.
A catalogue object with no map to (or from) one of the ends has no test
cone, so _sweep stops at that end and searches neither the other ends
nor the apex for it.

The eight catalogue groups depend on no input, so they are built once
per process, on first use (_catalogue_groups), and with them what each
Group caches: its generators, hom-search filing, conjugation table and
automorphism group.  Everything else, the crossed modules over a base
included, is built per call, so nothing derived from a session outlives
the command that read it: each catalogue object keeps its fibers and its
morphism-search plan (CrossedModule._fibers and _plan) for the searches
of one sweep, and they go with it.

Apexes and structure maps are built componentwise from valid crossed
modules and morphisms, so they are packaged without re-validation.  Pair
sets are not validated on entry, so they are checked before use.

The pullback, the product and the kernel pair are one _pullback over two
element maps into a common target.  The product is the pullback over the
terminal object, whose maps from A and B are their boundaries, so it pairs
the elements with equal boundaries and builds no terminal object.  The
terminal object, the base acting on itself by conjugation, takes the
base's conjugation table (Group._conjugation) as its action table.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from operator import add
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import (
    DiagramMismatchError,
    IndexOutOfRangeError,
    NotEquivalenceRelationError,
    OrderTooLargeError,
)
from .groups import (
    DEFAULT_BUDGET,
    Group,
    _gather,
    _meter,
    _trusted_group,
    cyclic_group,
    identity_hom,
    is_index,
    is_normal,
    is_subgroup,
    klein_four_group,
    normal_closure,
    quotient_group,
    subgroup_group,
    symmetric_group_3,
    trivial_group,
)
from .xmod import (
    CrossedModule,
    XModMorphism,
    _require_same_base,
    _trusted_xmod,
    all_crossed_modules,
    conjugation_action,
    enumerate_morphisms,
    structure_key,
)

__all__ = [
    "MAX_CATALOGUE_ORDER",
    "DEFAULT_CATALOGUE_ORDER",
    "Cone",
    "Cocone",
    "EquivalenceRelation",
    "ImageFactorization",
    "equaliser",
    "coequaliser",
    "pullback",
    "terminal_object",
    "product_over_P",
    "kernel_pair",
    "kernel_pair_relation",
    "relation_xmod",
    "is_equivalence_relation",
    "equivalence_violations",
    "quotient_by_equivalence",
    "is_effective",
    "image_factorization",
    "default_catalogue",
    "extend_catalogue",
    "verify_equaliser",
    "verify_coequaliser",
    "verify_pullback",
    "verify_product",
    "verify_kernel_pair",
    "verify_quotient",
]


@dataclass(frozen=True)
class Cone:
    """A limit apex with its projection legs.

    elements decodes the apex indices: for an equaliser these are element
    indices of the source, for a pullback they are (left, right) pairs.
    """

    kind: str
    apex: CrossedModule
    legs: tuple[XModMorphism, ...]
    elements: tuple


@dataclass(frozen=True)
class Cocone:
    """A colimit apex with its projection leg; classes[i] lists class i."""

    kind: str
    apex: CrossedModule
    legs: tuple[XModMorphism, ...]
    classes: tuple[tuple[int, ...], ...]


def _after(outer: Sequence[int], inner: Sequence[int]) -> tuple[int, ...]:
    """outer after inner, (outer[inner[0]], outer[inner[1]], ...), by one
    C-level gather."""
    return _gather(inner)(outer)


def _sub_xmod(A: CrossedModule, elems: Iterable[int], name: str) -> tuple[CrossedModule, XModMorphism]:
    """A subgroup of M closed under the base action, with the inclusion morphism."""
    sub = tuple(sorted(set(elems)))
    H, _ = subgroup_group(A.group, sub, name=f"{name}#grp")
    pos = {g: i for i, g in enumerate(sub)}
    boundary = [A.boundary.image[m] for m in sub]
    action = [[pos[A.act(p, m)] for m in sub] for p in range(A.base.order)]
    S = _trusted_xmod(name, H, A.base, boundary, action)
    return S, XModMorphism(S, A, sub)


def _check_parallel(f: XModMorphism, g: XModMorphism) -> None:
    if f.source != g.source or f.target != g.target:
        raise DiagramMismatchError(
            f"expected a parallel pair, got {f.source.name} -> {f.target.name} "
            f"and {g.source.name} -> {g.target.name}"
        )


def equaliser(f: XModMorphism, g: XModMorphism) -> Cone:
    """Elements of the common source where f and g agree, with its inclusion."""
    _check_parallel(f, g)
    C = f.source
    agree = [c for c in range(C.group.order) if f.mapping[c] == g.mapping[c]]
    E, incl = _sub_xmod(C, agree, name=f"eq({C.name})")
    return Cone(kind="equaliser", apex=E, legs=(incl,), elements=tuple(agree))


def _quotient(A: CrossedModule, N: Sequence[int], kind: str, name: str, group_name: str) -> Cocone:
    """A by the normal subgroup N, with boundary and action carried down to the classes.

    N must lie in the kernel of the boundary and be stable under the base
    action; then the boundary and the action are constant on every class,
    so each class is read through its least element.
    """
    quot = quotient_group(A.group, N, name=group_name)
    class_of = quot.projection.image
    classes = tuple(
        tuple(b for b in range(A.group.order) if class_of[b] == i)
        for i in range(quot.group.order)
    )
    boundary = [A.boundary.image[members[0]] for members in classes]
    action = [[class_of[A.act(p, members[0])] for members in classes] for p in range(A.base.order)]
    apex = _trusted_xmod(name, quot.group, A.base, boundary, action)
    proj = XModMorphism(A, apex, class_of)
    return Cocone(kind=kind, apex=apex, legs=(proj,), classes=classes)


def coequaliser(f: XModMorphism, g: XModMorphism) -> Cocone:
    """Quotient of the common target by the normal closure of f(c)g(c)^-1.

    f and g commute with the boundaries and the action, so the generators
    lie in ker(boundary) and are permuted by the action; their normal
    closure keeps both properties, as _quotient needs.
    """
    _check_parallel(f, g)
    B = f.target
    G = B.group
    gens = {G.table[f.mapping[c]][G.inverse[g.mapping[c]]] for c in range(f.source.group.order)}
    N = normal_closure(G, gens)
    return _quotient(B, N, "coequaliser", f"coeq({B.name})", f"{G.name}/{len(N)}")


def _pair_apex(
    C: CrossedModule, D: CrossedModule, pairs: Sequence[tuple[int, int]], name: str
) -> tuple[CrossedModule, XModMorphism, XModMorphism]:
    """Pairs of elements with componentwise structure, and the two projections.

    The pair (c, d) is coded as c * |D| + d, and pos[code] is its index,
    or -1 for a pair that is left out.  Multiplying every pair on the left
    by (c1, d1), or acting on it by p, sends each coordinate through one
    row of C's table (or action) and one of D's, so a row of the apex is
    the sum of two gathered rows, decoded through pos.  A table row needs
    the gathered rows of c1 and d1 only, and there are at most |C| and
    |D| distinct ones.  Each row is decoded into a tuple, which
    _trusted_group and _trusted_xmod keep without a copy.  pairs must be
    closed under the componentwise product and action, as the pairs of a
    pullback are: a product outside them would decode to -1, which is not
    checked.
    """
    nd = D.group.order
    pos = [-1] * (C.group.order * nd)
    for i, (c, d) in enumerate(pairs):
        pos[c * nd + d] = i
    cs = [c for c, _ in pairs]
    ds = [d for _, d in pairs]

    def left(c_row: Sequence[int]) -> list[int]:
        return [c_row[c] * nd for c in cs]

    def right(d_row: Sequence[int]) -> list[int]:
        return [d_row[d] for d in ds]

    def decode(lefts: list[int], rights: list[int]) -> tuple[int, ...]:
        return tuple(map(pos.__getitem__, map(add, lefts, rights)))

    lefts = {c: left(C.group.table[c]) for c in set(cs)}
    rights = {d: right(D.group.table[d]) for d in set(ds)}
    G = _trusted_group([decode(lefts[c], rights[d]) for c, d in pairs], f"{name}#grp")
    boundary = [C.boundary.image[c] for c in cs]
    action = [
        decode(left(C.action.table[p]), right(D.action.table[p])) for p in range(C.base.order)
    ]
    apex = _trusted_xmod(name, G, C.base, boundary, action)
    p1 = XModMorphism(apex, C, tuple(cs))
    p2 = XModMorphism(apex, D, tuple(ds))
    return apex, p1, p2


def _pullback(kind: str, name: str, C: CrossedModule, D: CrossedModule, f: Sequence[int], g: Sequence[int]) -> Cone:
    """The pairs (c, d) with f[c] == g[d], for element maps f of C and g
    of D into one common target, with componentwise structure, as a cone
    of the given kind."""
    pairs = [(c, d) for c in range(C.group.order) for d in range(D.group.order) if f[c] == g[d]]
    apex, p1, p2 = _pair_apex(C, D, pairs, name)
    return Cone(kind=kind, apex=apex, legs=(p1, p2), elements=tuple(pairs))


def pullback(f: XModMorphism, g: XModMorphism) -> Cone:
    """Pairs (c, d) with f(c) = g(d), with componentwise structure."""
    if f.target != g.target:
        raise DiagramMismatchError(
            f"pullback needs a common target: {f.target.name} vs {g.target.name}"
        )
    C, D = f.source, g.source
    return _pullback("pullback", f"pb({C.name},{D.name})", C, D, f.mapping, g.mapping)


def terminal_object(P: Group) -> CrossedModule:
    """The base over itself with identity boundary and conjugation action,
    whose table is the base's own conjugation table."""
    return CrossedModule(f"terminal({P.name})", P, P, identity_hom(P), conjugation_action(P))


def product_over_P(A: CrossedModule, B: CrossedModule) -> Cone:
    """Binary product, realised as the pullback over the terminal object:
    the pairs of elements with equal boundaries, as the maps into the
    terminal object are the boundaries; A and B must share their base."""
    _require_same_base(A, B)
    return _pullback("product", f"prod({A.name},{B.name})", A, B, A.boundary.image, B.boundary.image)


def kernel_pair(f: XModMorphism) -> Cone:
    """Pairs of source elements identified by f, as a pullback of f with itself."""
    return _pullback("kernel-pair", f"kp({f.source.name})", f.source, f.source, f.mapping, f.mapping)


@dataclass(frozen=True)
class EquivalenceRelation:
    """A set of element pairs of one crossed module, closed as a subobject."""

    carrier: CrossedModule
    pairs: frozenset[tuple[int, int]]


def kernel_pair_relation(f: XModMorphism) -> EquivalenceRelation:
    A = f.source
    pairs = frozenset(
        (a, b)
        for a in range(A.group.order)
        for b in range(A.group.order)
        if f.mapping[a] == f.mapping[b]
    )
    return EquivalenceRelation(carrier=A, pairs=pairs)


def equivalence_violations(E: EquivalenceRelation) -> tuple[str, ...]:
    """Reasons the pair set fails to be an equivalence sub-crossed-module."""
    n = E.carrier.group.order
    bad = [x for x in E.pairs if not (isinstance(x, tuple) and len(x) == 2 and is_index(x[0], n) and is_index(x[1], n))]
    if bad:
        return (f"pair {min(bad, key=_pair_order)!r} out of range",)
    if _equivalence_holds(E):
        return ()
    return _equivalence_scan(E)


def _pair_order(x: object) -> tuple:
    """Tuples of numbers in their own order, then anything else by repr,
    so that any pair set has a least malformed pair."""
    if isinstance(x, tuple) and all(isinstance(v, (int, float)) for v in x):
        return (0, x, "")
    return (1, (), repr(x))


def _equivalence_holds(E: EquivalenceRelation) -> bool:
    """E is an equivalence sub-crossed-module, read off its normal subgroup.

    With N = {b : (1, b) in E}, E holds exactly when it has |M| |N| pairs,
    each pair (a, b) has a^-1 b in N, N is a normal subgroup of M inside
    ker d, and the generators of P keep N.

    An equivalence sub-crossed-module contains (a^-1, a^-1)(a, b) =
    (1, a^-1 b), so it is the congruence {(a, an) : n in N} of N, with N
    normal (conjugate (1, n) by (g, g)), inside ker d (the pair (1, n) has
    equal boundaries) and kept by P.  Conversely the first two conditions
    make E that congruence, as E lies in it and has its size, and the
    congruence of such an N is a reflexive, P-stable subgroup of M x M
    inside the boundary fibers, so symmetric and transitive as well.  The
    p that keep N are closed under products, so the generators of P
    suffice.
    """
    A = E.carrier
    M = A.group
    pairs = E.pairs
    N = {b for a, b in pairs if a == M.identity}
    if len(pairs) != M.order * len(N) or any(M.table[M.inverse[a]][b] not in N for a, b in pairs):
        return False
    if not (is_subgroup(M, N) and is_normal(M, N)):
        return False
    bnd = A.boundary.image
    return all(bnd[b] == bnd[M.identity] for b in N) and all(A.act(p, b) in N for p in A.base._gens for b in N)


def _equivalence_scan(E: EquivalenceRelation) -> tuple[str, ...]:
    """Every reason E fails, for pairs in range."""
    A = E.carrier
    n = A.group.order
    pairs = sorted(E.pairs)
    out = []
    for (a, b) in pairs:
        if A.boundary.image[a] != A.boundary.image[b]:
            out.append(f"pair ({a}, {b}) has unequal boundaries")
    e = A.group.identity
    if (e, e) not in E.pairs:
        out.append("identity pair missing")
    for (a, b) in pairs:
        if (A.group.inverse[a], A.group.inverse[b]) not in E.pairs:
            out.append(f"inverse of ({a}, {b}) missing")
        for (c, d) in pairs:
            if (A.group.table[a][c], A.group.table[b][d]) not in E.pairs:
                out.append(f"product of ({a}, {b}) and ({c}, {d}) missing")
                break
    for p in range(A.base.order):
        for (a, b) in pairs:
            if (A.act(p, a), A.act(p, b)) not in E.pairs:
                out.append(f"action of {p} leaves the set at ({a}, {b})")
                break
    for a in range(n):
        if (a, a) not in E.pairs:
            out.append(f"not reflexive at {a}")
    for (a, b) in pairs:
        if (b, a) not in E.pairs:
            out.append(f"not symmetric at ({a}, {b})")
    for (a, b) in pairs:
        for (b2, c) in pairs:
            if b2 == b and (a, c) not in E.pairs:
                out.append(f"not transitive at ({a}, {b}, {c})")
                break
    return tuple(out)


def is_equivalence_relation(E: EquivalenceRelation) -> bool:
    return not equivalence_violations(E)


def _require_equivalence(E: EquivalenceRelation) -> None:
    reasons = equivalence_violations(E)
    if reasons:
        raise NotEquivalenceRelationError(f"{E.carrier.name}: " + "; ".join(reasons[:5]))


def relation_xmod(E: EquivalenceRelation) -> tuple[CrossedModule, XModMorphism, XModMorphism]:
    """The pair set, checked to be an equivalence relation, as a crossed module with its projections."""
    _require_equivalence(E)
    return _pair_apex(E.carrier, E.carrier, sorted(E.pairs), name=f"rel({E.carrier.name})")


def _require_carrier(A: CrossedModule, E: EquivalenceRelation) -> None:
    if E.carrier != A:
        raise DiagramMismatchError(f"relation carrier {E.carrier.name} is not {A.name}")


def quotient_by_equivalence(A: CrossedModule, E: EquivalenceRelation) -> Cocone:
    """The classes of E, as the quotient by the class of the identity.

    An equivalence sub-crossed-module is a congruence, so that class is a
    normal subgroup and the classes of E are its cosets.
    """
    _require_carrier(A, E)
    _require_equivalence(E)
    e = A.group.identity
    N = [b for b in range(A.group.order) if (e, b) in E.pairs]
    return _quotient(A, N, "quotient", f"{A.name}/E", f"{A.group.name}/E")


def is_effective(E: EquivalenceRelation) -> bool:
    """True when E is the kernel pair of its own quotient projection."""
    return _is_kernel_pair_of(E, quotient_by_equivalence(E.carrier, E).legs[0])


def _is_kernel_pair_of(E: EquivalenceRelation, proj: XModMorphism) -> bool:
    return kernel_pair_relation(proj).pairs == E.pairs


class ImageFactorization(NamedTuple):
    epi: Cocone
    mono: XModMorphism


def image_factorization(f: XModMorphism) -> ImageFactorization:
    """Coequalise the kernel pair of f, then include the quotient in the target."""
    kp = kernel_pair(f)
    epi = coequaliser(kp.legs[0], kp.legs[1])
    mono = XModMorphism(epi.apex, f.target, tuple(f.mapping[members[0]] for members in epi.classes))
    return ImageFactorization(epi=epi, mono=mono)


# Catalogue of test objects for universal property sweeps.

_CATALOGUE_GROUPS = (
    trivial_group,
    lambda: cyclic_group(2),
    lambda: cyclic_group(3),
    lambda: cyclic_group(4),
    klein_four_group,
    lambda: cyclic_group(5),
    lambda: cyclic_group(6),
    symmetric_group_3,
)


@functools.cache
def _catalogue_groups() -> tuple[Group, ...]:
    """The groups _CATALOGUE_GROUPS builds, built once per process on
    first use.  They depend on no input, so what is cached on them
    (Group._gens, _steps, _conjugation and _automorphisms)
    serves every later catalogue; the crossed modules built on them are
    new in each catalogue, with their own fibers and plans."""
    return tuple(build() for build in _CATALOGUE_GROUPS)


# _CATALOGUE_GROUPS holds every group of order at most this, up to isomorphism.
MAX_CATALOGUE_ORDER = 6

# The catalogue bound of a session, a command and a sweep unless one is set.
DEFAULT_CATALOGUE_ORDER = 4


def default_catalogue(P: Group, max_order: int = DEFAULT_CATALOGUE_ORDER) -> tuple[CrossedModule, ...]:
    """Every crossed module structure over P on the groups of order <= max_order.

    Complete up to isomorphism for max_order <= MAX_CATALOGUE_ORDER; larger
    bounds are refused rather than silently incomplete, and so is a bound
    that is not an int (bools included) or is below 1.
    """
    if type(max_order) is not int:
        raise IndexOutOfRangeError(f"catalogue bound must be int, got {max_order!r}")
    if max_order < 1:
        raise IndexOutOfRangeError(f"catalogue bound must be positive, got {max_order}")
    if max_order > MAX_CATALOGUE_ORDER:
        raise OrderTooLargeError(
            f"catalogue bound {max_order} exceeds the supported {MAX_CATALOGUE_ORDER}"
        )
    out: list[CrossedModule] = []
    for M in _catalogue_groups():
        if M.order <= max_order:
            out.extend(all_crossed_modules(M, P, name_prefix="cat:"))
    return tuple(out)


def extend_catalogue(catalogue: Sequence[CrossedModule], extra: Iterable[CrossedModule]) -> tuple[CrossedModule, ...]:
    """Append diagram objects that are not already present structurally."""
    seen = {structure_key(T) for T in catalogue}
    out = list(catalogue)
    for A in extra:
        key = structure_key(A)
        if key not in seen:
            seen.add(key)
            out.append(A)
    return tuple(out)


def _sweep(
    kind: str,
    cone: Cone | Cocone,
    ends: Sequence[CrossedModule],
    diagram: Iterable[CrossedModule],
    commutes: Callable[..., bool],
    max_order: int,
    budget: int,
) -> dict:
    """Count mediators through the apex for every test cone over the catalogue.

    The catalogue is the default one of order <= max_order over the ends'
    base, extended by the diagram's objects.  A test cone is one map per
    end: into it from a catalogue object for a limit, out of it to one for
    a colimit (cone is a Cocone).  Its mediators are the maps between the
    catalogue object and the apex whose composites with the legs give back
    the test cone, so they are counted from one Counter of leg composites
    per catalogue object.  Exactly one mediator must exist for a commuting
    test cone and none for any other.  An end that occurs twice, as in a
    kernel pair, is searched once per catalogue object.  The ends are
    searched in turn up to the first with no map: a catalogue object
    without one has no test cone, so its remaining ends and the apex are
    not searched, as nothing found there would be compared.  One meter is
    charged by every morphism search and by one unit per test cone.
    """
    work = _meter(budget)
    cat = extend_catalogue(default_catalogue(ends[0].base, max_order), diagram)
    colimit = isinstance(cone, Cocone)
    legs = [leg.mapping for leg in cone.legs]
    failures = []
    checked = commuting = 0
    distinct = list(dict.fromkeys(ends))
    which = [distinct.index(X) for X in ends]
    for T in cat:
        searched = []
        for X in distinct:
            searched.append(enumerate_morphisms(X, T, budget=work) if colimit else enumerate_morphisms(T, X, budget=work))
            if not searched[-1]:
                break
        if not searched[-1]:
            continue
        if colimit:
            through = enumerate_morphisms(cone.apex, T, budget=work)
            found = Counter(tuple(_after(h.mapping, leg) for leg in legs) for h in through)
        else:
            through = enumerate_morphisms(T, cone.apex, budget=work)
            found = Counter(tuple(_after(leg, h.mapping) for leg in legs) for h in through)
        for test in itertools.product(*(searched[i] for i in which)):
            work.charge(1, f"{kind} sweep test cone")
            maps = tuple(t.mapping for t in test)
            checked += 1
            expected = int(commutes(*maps))
            commuting += expected
            if found[maps] != expected:
                shown = {"map": list(maps[0])} if len(maps) == 1 else {"maps": [list(m) for m in maps]}
                failures.append({"test_object": T.name, **shown, "expected": expected, "found": found[maps]})
    return {
        "kind": kind,
        "pass": not failures,
        "apex": cone.apex.name,
        "apex_order": cone.apex.group.order,
        "cocones_checked" if colimit else "cones_checked": checked,
        "commuting": commuting,
        "failures": failures,
        "catalogue": [{"name": T.name, "order": T.group.order} for T in cat],
    }


def verify_equaliser(
    f: XModMorphism,
    g: XModMorphism,
    cone: Cone,
    max_order: int = DEFAULT_CATALOGUE_ORDER,
    budget: int = DEFAULT_BUDGET,
) -> dict:
    """Sweep the test maps t into the source; t commutes when f t = g t."""
    return _sweep(
        "equaliser", cone, (f.source,), (f.source, f.target),
        lambda t: _after(f.mapping, t) == _after(g.mapping, t), max_order, budget,
    )


def verify_coequaliser(
    f: XModMorphism,
    g: XModMorphism,
    cocone: Cocone,
    max_order: int = DEFAULT_CATALOGUE_ORDER,
    budget: int = DEFAULT_BUDGET,
) -> dict:
    """Sweep the test maps q out of the target; q commutes when q f = q g."""
    return _sweep(
        "coequaliser", cocone, (f.target,), (f.source, f.target),
        lambda q: _after(q, f.mapping) == _after(q, g.mapping), max_order, budget,
    )


def verify_pullback(
    f: XModMorphism,
    g: XModMorphism,
    cone: Cone,
    max_order: int = DEFAULT_CATALOGUE_ORDER,
    budget: int = DEFAULT_BUDGET,
) -> dict:
    """Sweep the pairs of test maps into the two sources, under the cone's
    kind; (tC, tD) commutes when f tC = g tD."""
    return _sweep(
        cone.kind, cone, (f.source, g.source), (f.source, g.source, f.target),
        lambda tC, tD: _after(f.mapping, tC) == _after(g.mapping, tD), max_order, budget,
    )


def verify_product(
    A: CrossedModule,
    B: CrossedModule,
    cone: Cone,
    max_order: int = DEFAULT_CATALOGUE_ORDER,
    budget: int = DEFAULT_BUDGET,
) -> dict:
    """Sweep the pairs of test maps into A and B, with the terminal object
    in the diagram; (tA, tB) commutes when the boundaries of A and B agree
    after them, as they do for every pair of morphisms over the base."""
    return _sweep(
        "product", cone, (A, B), (A, B, terminal_object(A.base)),
        lambda tA, tB: _after(A.boundary.image, tA) == _after(B.boundary.image, tB), max_order, budget,
    )


def verify_kernel_pair(
    f: XModMorphism,
    cone: Cone,
    max_order: int = DEFAULT_CATALOGUE_ORDER,
    budget: int = DEFAULT_BUDGET,
) -> dict:
    """Sweep the pairs of test maps into the source; (s, t) commutes when f s = f t."""
    return _sweep(
        "kernel-pair", cone, (f.source, f.source), (f.source, f.target),
        lambda s, t: _after(f.mapping, s) == _after(f.mapping, t), max_order, budget,
    )


def verify_quotient(
    A: CrossedModule,
    E: EquivalenceRelation,
    cocone: Cocone,
    max_order: int = DEFAULT_CATALOGUE_ORDER,
    budget: int = DEFAULT_BUDGET,
) -> dict:
    """Sweep the test maps q out of A, as for the coequaliser of the
    relation's projections u, v (q commutes when q u = q v), plus
    effectiveness; E must be a relation on A."""
    _require_carrier(A, E)
    R, u, v = relation_xmod(E)
    report = _sweep(
        "quotient", cocone, (A,), (R, A),
        lambda q: _after(q, u.mapping) == _after(q, v.mapping), max_order, budget,
    )
    effective = _is_kernel_pair_of(E, cocone.legs[0])
    return {**report, "effective": effective, "pass": report["pass"] and effective}
