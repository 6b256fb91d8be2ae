"""Finite groups as dense multiplication tables.

Elements of a group of order n are the indices 0..n-1.  A group is a
validated Cayley table plus the identity and inverse data derived from it.
Tables from outside (session files, the library constructors) are validated
by make_group; tables built from groups that are already valid (subgroups,
quotients, automorphism groups, the pair apexes of limits) are packaged by
_trusted_group with no associativity check at all.

One check per axiom: associativity and multiplicativity are each written
once, as a function that lists the failures of the axiom while one of its
variables ranges over an index set it is given (_associativity_failures,
_hom_failures).  The elements passing either axiom are closed under
products, so a generating set is enough to prove it: the fast accept runs
the function on the generating set and finds nothing, and the exact
reject runs the same function on the whole range, sorted into index order,
only for a table or map that fails.  For associativity this is Light's
test, (x*s)*y == x*(s*y) for s in _generating_set(table), in O(n^2 |S|)
instead of O(n^3): the s passing for all x, y are closed under products
without assuming associativity.  For a map between groups, the b with
image[ab] == image[a] image[b] for all a are closed under products, as
both groups are associative.  make_group, make_hom and hom_violation read
these; the validators of xmod.py use _hom_failures the same way.

Validation by rows: the checks compare whole rows or columns, as tuples
gathered in C (_gather, _column, _indices), and only a row that differs
is searched entry by entry, by _differences, for its witnesses in index
order.

Conjugation: Group._conjugation is the table of p x p^-1, row p being
column p^-1 read at row p, gathered in C once per group.  is_normal,
normal_closure, conjugacy_class and quotient_group's witness read its
rows, as do the bulk readers in xmod.py, words.py and presheaf.py;
Group.conj is the point read, three lookups that build no table.

One search engine: _search assigns variables in index order under
product and move conditions, each filed under its largest variable.  A
step that one earlier condition fixes (forward checking) tries that one
value instead of scanning its candidates, and still charges the Work
meter with the number of candidates it holds, so forcing changes no
node, output or charge.  The hom search files a domain's table entries
once per Group (Group._steps) rather than once per call.

What a Group caches lives as long as the Group: its generating set,
columns, conjugation table, hom-search filing and automorphism group
(Group._automorphisms, searched by the first automorphism_group call;
a group above MAX_AUTOMORPHISM_ORDER is refused on every call and
nothing is kept).  A group built from session data lives as long as its
session, so none of this outlives the command that made it; the
catalogue groups of limits.py, built once per process, keep theirs for
every later catalogue.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count
from operator import itemgetter, ne
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    BudgetExceededError,
    IndexOutOfRangeError,
    NoIdentityError,
    NoInverseError,
    NotAssociativeError,
    NotHomomorphismError,
    NotNormalError,
    NotSubgroupError,
    OrderTooLargeError,
)

__all__ = [
    "Group",
    "GroupHom",
    "Quotient",
    "AutGroup",
    "make_group",
    "trivial_group",
    "cyclic_group",
    "klein_four_group",
    "symmetric_group_3",
    "make_hom",
    "identity_hom",
    "enumerate_homs",
    "subgroup_closure",
    "is_subgroup",
    "is_normal",
    "all_subgroups",
    "normal_subgroups",
    "normal_closure",
    "subgroup_group",
    "quotient_group",
    "center",
    "conjugacy_class",
    "element_order",
    "automorphism_group",
    "MAX_AUTOMORPHISM_ORDER",
]


@dataclass(frozen=True)
class Group:
    """A finite group on the index set 0..order-1."""

    name: str
    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    @cached_property
    def _gens(self) -> tuple[int, ...]:
        """_generating_set(table), computed once per group; make_group
        stores the set its associativity test used."""
        return _generating_set(self.table)

    @cached_property
    def _columns(self) -> tuple[tuple[int, ...], ...]:
        """The columns of the table, _columns[b][a] == table[a][b]."""
        return tuple(zip(*self.table))

    @cached_property
    def _conjugation(self) -> tuple[tuple[int, ...], ...]:
        """The conjugation table, _conjugation[p][x] == conj(p, x): row p
        is column p^-1 of the table read at row p, gathered in C.  Every
        bulk reader of conjugation reads it, so it is built once per group."""
        return tuple(_gather(row)(self._columns[q]) for row, q in zip(self.table, self.inverse))

    @cached_property
    def _automorphisms(self) -> AutGroup:
        """automorphism_group(self), searched once per group; only
        automorphism_group reads it, after its order bound."""
        return _automorphism_search(self)

    @cached_property
    def _steps(self) -> tuple[tuple[tuple | None, tuple], ...]:
        """The hom search's product conditions, filed once per group: each
        entry (a, b, ab) as (a, b, ab, 0), table 0 being the codomain's,
        filed by _file under its largest index, the forcing entry first."""
        return _file(self.order, [(a, b, c, 0) for a, row in enumerate(self.table) for b, c in enumerate(row)], 2)

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, p: int, a: int) -> int:
        """Return p a p^-1 by three lookups, building no table; code that
        reads many entries reads _conjugation instead."""
        return self.table[self.table[p][a]][self.inverse[p]]

    def is_abelian(self) -> bool:
        return all(
            self.table[a][b] == self.table[b][a]
            for a in range(self.order)
            for b in range(a + 1, self.order)
        )


def is_index(v: object, n: int) -> bool:
    """True for an int in 0..n-1; bools are not element indices."""
    return type(v) is int and 0 <= v < n


def _indices(row: Sequence[object], n: int) -> bool:
    """is_index(v, n) for every entry of a non-empty row, in C.

    The entry types are compared, not the entries: True and 1.0 equal 1
    and hash like it, so a membership test would let them through.
    """
    return set(map(type, row)) == {int} and 0 <= min(row) and max(row) < n


def _gather(keys: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """The map seq -> tuple(seq[k] for k in keys), one C-level itemgetter
    call per seq (itemgetter of one key returns a scalar and of none
    raises, so those two are tuples made directly)."""
    if len(keys) > 1:
        return itemgetter(*keys)
    if keys:
        (k,) = keys
        return lambda seq: (seq[k],)
    return lambda seq: ()


def _column(table: Sequence[Sequence[int]], x: int) -> tuple[int, ...]:
    """Column x of a table: (table[0][x], table[1][x], ...)."""
    return tuple(map(itemgetter(x), table))


def _differences(xs: Iterable[int], ys: Iterable[int]) -> Iterator[int]:
    """The positions where xs and ys differ, ascending, found in C."""
    return compress(count(), map(ne, xs, ys))


def make_group(table: Sequence[Sequence[int]], name: str = "G") -> Group:
    """Validate a multiplication table and package it as a Group.

    Raises IndexOutOfRangeError for malformed entries, NotAssociativeError,
    NoIdentityError, or NoInverseError with the witnessing indices.

    Once the table is associative, _trusted_group derives the identity and
    inverses, after two checks.  The identity must be the first row equal
    to 0..n-1, with its column 0..n-1 too: a two-sided identity e is the
    only left identity, as e' = e'e = e, so when the first left identity is
    not two-sided there is none.  Every row must contain e: if ab = e, then
    x -> ax is onto (a(bx) = x), so one-to-one on a finite set, and
    a(ba) = (ab)a = ae gives ba = e.  So a right inverse is two-sided and
    unique, the first b with ab = e is a's inverse, and a row without e
    names an element with no inverse.
    """
    n = len(table)
    if n == 0:
        raise NoIdentityError(f"{name}: empty table has no identity")
    rows = []
    for i, row in enumerate(table):
        row = tuple(row)
        if len(row) != n:
            raise IndexOutOfRangeError(f"{name}: row {i} has length {len(row)}, expected {n}")
        if not _indices(row, n):
            j, v = next((j, v) for j, v in enumerate(row) if not is_index(v, n))
            raise IndexOutOfRangeError(f"{name}: entry [{i}][{j}] = {v!r} not in 0..{n - 1}")
        rows.append(row)
    t = tuple(rows)
    gens = _generating_set(t)
    if _associativity_failures(t, gens):
        a, b, c = min(_associativity_failures(t, range(n)))
        raise NotAssociativeError(f"{name}: (a, b, c) = ({a}, {b}, {c})")
    identity = tuple(range(n))
    e = next((i for i, row in enumerate(t) if row == identity), None)
    if e is None or _column(t, e) != identity:
        raise NoIdentityError(f"{name}: no two-sided identity")
    for a, row in enumerate(t):
        if e not in row:
            raise NoInverseError(f"{name}: element {a} has no inverse")
    G = _trusted_group(t, name)
    G.__dict__["_gens"] = gens  # the cached_property's slot: one generating set per table
    return G


def _generating_set(table: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Indices whose closure under right multiplication is the whole table.

    Greedy in index order, except that the idempotent indices (s * s == s,
    such as an identity) come last: one not yet reached becomes the next
    generator, and the reached set is then closed again under x -> x * s
    for every generator s.  So each index is a left-nested product
    (..(s1*s2)*..)*sk of generators, an idempotent is a generator only when
    no product of the others reaches it, and no associativity or identity
    is assumed: the table only needs entries in range.
    """
    gens: list[int] = []
    reached: set[int] = set()
    for g in sorted(range(len(table)), key=lambda g: table[g][g] == g):
        if g in reached:
            continue
        gens.append(g)
        stack = [g] + [table[x][g] for x in reached]
        while stack:
            y = stack.pop()
            if y not in reached:
                reached.add(y)
                stack.extend(table[y][s] for s in gens)
    return tuple(gens)


def _associativity_failures(t: tuple[tuple[int, ...], ...], over: Iterable[int]) -> list[tuple[int, int, int]]:
    """For each s in over with (x*s)*y != x*(s*y) for some x, y, the least
    such (x, s, y), in the order of over.

    On a generating set of the table this is Light's test: the s passing
    for all x, y are closed under products without assuming associativity,
    as for such s and u, (x*(su))*y = ((xs)u)y = (xs)(uy) = x(s(uy)) =
    x((su)y).  So when no generator fails, every left-nested product of
    generators, that is every element, passes.  Over the whole table the
    least entry is the least witness (a, b, c).  For each s, the rows of
    x*s, read down column s, are compared with the rows x*(s*y), each
    gathered from row x by row s, and only a row that differs is searched.
    """
    out = []
    for s in over:
        left, right = _gather(_column(t, s))(t), tuple(map(_gather(t[s]), t))
        if left != right:
            x = next(_differences(left, right))
            out.append((x, s, next(_differences(left[x], right[x]))))
    return out


def _trusted_group(table: Sequence[Sequence[int]], name: str) -> Group:
    """Package a table that is a group by construction, in O(n^2).

    Only for tables built from groups that are already valid, such as a
    subgroup, a quotient or a product-closed set of pairs: the identity is
    the row equal to 0..n-1 and each inverse is found in its element's row
    (a table without them breaks that invariant, and index raises).
    Tables from outside go through make_group.
    """
    t = tuple(tuple(row) for row in table)
    identity = t.index(tuple(range(len(t))))
    return Group(
        name=name,
        order=len(t),
        table=t,
        identity=identity,
        inverse=tuple(row.index(identity) for row in t),
    )


def trivial_group(name: str = "1") -> Group:
    return make_group([[0]], name)


def cyclic_group(n: int, name: str | None = None) -> Group:
    """Cyclic group of order n, written additively on 0..n-1."""
    if type(n) is not int:
        raise IndexOutOfRangeError(f"cyclic order must be int, got {n!r}")
    if n < 1:
        raise IndexOutOfRangeError(f"cyclic order must be positive, got {n}")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return make_group(table, name or f"C{n}")


def klein_four_group(name: str = "V4") -> Group:
    """Klein four group as bitwise xor on 0..3."""
    table = [[a ^ b for b in range(4)] for a in range(4)]
    return make_group(table, name)


_S3_PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def symmetric_group_3(name: str = "S3") -> Group:
    """Symmetric group on three letters.

    Element i is the i-th permutation of (0, 1, 2) in lexicographic order,
    and i * j is the permutation applying j first, then i.
    """
    idx = {p: i for i, p in enumerate(_S3_PERMS)}
    table = [
        [idx[tuple(p[q[x]] for x in range(3))] for q in _S3_PERMS]
        for p in _S3_PERMS
    ]
    return make_group(table, name)


@dataclass(frozen=True)
class GroupHom:
    """A homomorphism stored as the image tuple image[a] in the codomain."""

    domain: Group
    codomain: Group
    image: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.image[a]

    def is_surjective(self) -> bool:
        return len(set(self.image)) == self.codomain.order

    def is_injective(self) -> bool:
        return len(set(self.image)) == self.domain.order


def hom_violation(domain: Group, codomain: Group, image: Sequence[int]) -> tuple[int, int] | None:
    """Return the first pair (a, b) where multiplicativity fails, or None."""
    failures = _hom_witnesses(domain, codomain, image)
    return failures[0] if failures else None


def _hom_failures(domain: Group, codomain: Group, image: Sequence[int], over: Iterable[int]) -> list[tuple[int, int]]:
    """Every pair (a, b) with b in over and image[ab] != image[a] image[b],
    by b in the order of over, then by ascending a.

    Both groups are associative, so the b that pass for every a are closed
    under products, and no failure for b in a generating set of the domain
    proves image a homomorphism.  For each b, both sides are compared as
    columns over a: image read down column b of the domain, and column
    image[b] of the codomain read at image; only a column that differs is
    searched.
    """
    at_image = _gather(image)
    out = []
    for b in over:
        left, right = _gather(domain._columns[b])(image), at_image(codomain._columns[image[b]])
        if left != right:
            out.extend((a, b) for a in _differences(left, right))
    return out


def _hom_witnesses(domain: Group, codomain: Group, image: Sequence[int]) -> list[tuple[int, int]]:
    """Every pair where multiplicativity fails, in index order: none when
    _hom_failures finds none on the generators of the domain, and otherwise
    _hom_failures over the whole domain, sorted."""
    if not _hom_failures(domain, codomain, image, domain._gens):
        return []
    return sorted(_hom_failures(domain, codomain, image, range(domain.order)))


def make_hom(domain: Group, codomain: Group, image: Sequence[int]) -> GroupHom:
    if len(image) != domain.order:
        raise IndexOutOfRangeError(
            f"hom image has length {len(image)}, expected {domain.order}"
        )
    if not _indices(image, codomain.order):
        a, v = next((a, v) for a, v in enumerate(image) if not is_index(v, codomain.order))
        raise IndexOutOfRangeError(f"hom image[{a}] = {v} not in codomain range")
    witness = hom_violation(domain, codomain, image)
    if witness is not None:
        a, b = witness
        raise NotHomomorphismError(
            f"map {domain.name} -> {codomain.name} fails at ({a}, {b})"
        )
    return GroupHom(domain=domain, codomain=codomain, image=tuple(image))


def identity_hom(G: Group) -> GroupHom:
    return GroupHom(G, G, tuple(range(G.order)))


DEFAULT_BUDGET = 10_000_000


@dataclass
class Work:
    """The search budget of one command and the work charged against it.

    One meter is handed down through every search a command makes, so the
    budget bounds the command's total work, not that of each search.
    """

    budget: int
    used: int = 0

    def charge(self, units: int, what: str) -> None:
        """Add units of work; raise once the total passes the budget."""
        self.used += units
        if self.used > self.budget:
            raise BudgetExceededError(f"{what} passes the budget: {self.used} units used, budget {self.budget}")


def _meter(budget: int | Work) -> Work:
    """The meter of an enclosing call, or a fresh one for a plain budget,
    which must be an int (bools excluded) of at least 1."""
    if isinstance(budget, Work):
        return budget
    if type(budget) is not int or budget < 1:
        raise IndexOutOfRangeError(f"budget must be an int of at least 1, got {budget!r}")
    return Work(budget)


def _search(
    candidates: Sequence[Sequence[int]],
    products: Iterable[tuple[int, int, int, Sequence[Sequence[int]]]],
    moves: Iterable[tuple[int, int, Sequence[int]]],
    work: Work,
    what: str,
) -> list[tuple[int, ...]]:
    """Every tuple img with img[k] in candidates[k] that meets the conditions.

    A product (a, b, c, T) asks for img[c] == T[img[a]][img[b]] and a move
    (x, y, t) for img[y] == t[img[x]].  Variables are assigned in index
    order, each from its candidates in the order given, so the tuples come
    out in the lexicographic order of those candidate orders.  Each
    condition is filed under its largest variable and checked once, at the
    step that assigns it, so a partial assignment is cut as soon as it
    breaks one and every condition holds at the leaves.  A step k is
    forced when a product (a, b, k, T) with a, b < k or a move (x, k, t)
    with x < k is filed under it: that condition fixes the one value img[k]
    can take, which is tried once per occurrence in candidates[k] against
    the step's other conditions, with no scan of the candidates.  Each node
    charges work with the number of candidates it holds, forced or not;
    what names the search in the refusal.
    """
    products = list(products)
    n = len(candidates)
    by_product = _file(n, [(a, b, c, j) for j, (a, b, c, _) in enumerate(products)], 2)
    return _descend(candidates, by_product, _file(n, moves, 1), [T for *_, T in products], work, what)


def _file(n: int, conditions: Iterable[tuple], target: int) -> tuple[tuple[tuple | None, tuple], ...]:
    """Conditions filed under their largest variable, for n variables.

    A condition's variables are its target cond[target] and its sources,
    cond[0] and cond[target - 1] (one source for a move, two for a
    product).  Step k is (force, rest): force is the first condition whose
    target is k and whose sources are all below k, so that it fixes
    img[k], or None; rest are the other conditions filed under k.  The
    largest variable is found by comparisons, as a max() call per
    condition would double the cost of filing.
    """
    forcing: list[list[tuple]] = [[] for _ in range(n)]
    rest: list[list[tuple]] = [[] for _ in range(n)]
    for cond in conditions:
        k, a, b = cond[target], cond[0], cond[target - 1]
        top = a if a > b else b
        if top < k:
            forcing[k].append(cond)
        else:
            rest[top if top > k else k].append(cond)
    return tuple((f[0], (*f[1:], *r)) if f else (None, tuple(r)) for f, r in zip(forcing, rest))


def _descend(
    candidates: Sequence[Sequence[int]],
    by_product: Sequence[tuple[tuple | None, tuple]],
    by_move: Sequence[tuple[tuple | None, tuple]],
    tables: Sequence[Sequence[Sequence[int]]],
    work: Work,
    what: str,
) -> list[tuple[int, ...]]:
    """The recursion of _search, on conditions _file has filed.

    A product here is (a, b, c, j), read through tables[j].  When a step
    has both a forcing product and a forcing move, the product fixes the
    value and the move is checked with the rest.
    """
    steps = []
    for (pf, products), (mf, moves) in zip(by_product, by_move):
        if pf and mf:
            moves, mf = (mf, *moves), None
        steps.append((pf, mf, products, moves))
    n = len(candidates)
    img = [0] * n
    out: list[tuple[int, ...]] = []

    def assign(k: int) -> None:
        if k == n:
            out.append(tuple(img))
            return
        options = candidates[k]
        work.charge(len(options), what)
        pf, mf, products, moves = steps[k]
        if pf:
            a, b, _, j = pf
            v = tables[j][img[a]][img[b]]
            options = (v,) * options.count(v)
        elif mf:
            x, _, t = mf
            v = t[img[x]]
            options = (v,) * options.count(v)
        for v in options:
            img[k] = v
            if all(tables[j][img[a]][img[b]] == img[c] for a, b, c, j in products) and all(
                img[y] == t[img[x]] for x, y, t in moves
            ):
                assign(k + 1)

    assign(0)
    return out


def _search_homs(
    domain: Group,
    codomain: Group,
    candidates: Sequence[Sequence[int]],
    work: Work,
    what: str,
    actions: Iterable[tuple[Sequence[int], Sequence[int]]] = (),
) -> list[tuple[int, ...]]:
    """Every multiplicative image tuple img with img[x] in candidates[x] and
    img[s[x]] == t[img[x]] for each (s, t) in actions, by _search.

    The conditions are one product (a, b, ab) per entry of the domain
    table, read through the codomain table and filed once per domain
    (Group._steps), and one move (x, s[x]) per element and distinct
    action pair; ascending candidates give the tuples in lexicographic
    order.  A pair whose two rows are both identities gives the moves
    (x, x, id), which always hold, so it is skipped: such a move can
    never force a step (its source is its target) nor cut a node, so the
    nodes, outputs and charges are those of the search that files it.
    """
    ids = tuple(range(domain.order)), tuple(range(codomain.order))
    moves = [(x, y, t) for s, t in dict.fromkeys(actions) if (s, t) != ids for x, y in enumerate(s)]
    return _descend(candidates, domain._steps, _file(domain.order, moves, 1), (codomain.table,), work, what)


def enumerate_homs(domain: Group, codomain: Group) -> tuple[GroupHom, ...]:
    """All homomorphisms, in lexicographic order of their image tuples,
    found within DEFAULT_BUDGET."""
    what = f"hom search {domain.name} -> {codomain.name}"
    images = _search_homs(domain, codomain, [range(codomain.order)] * domain.order, Work(DEFAULT_BUDGET), what)
    return tuple(GroupHom(domain, codomain, img) for img in images)


def subgroup_closure(G: Group, seed: Iterable[int]) -> tuple[int, ...]:
    """Smallest subgroup of G containing the seed elements.

    The identity closed under right multiplication by the seed is the
    monoid the seed generates, which in a finite group holds each inverse
    s^-1 = s^(k-1) too, so it is that subgroup.
    """
    gens = list(seed)
    for s in gens:
        if not is_index(s, G.order):
            raise IndexOutOfRangeError(f"{G.name}: seed element {s} out of range")
    cur = frontier = {G.identity}
    while frontier:
        frontier = {G.table[a][s] for a in frontier for s in gens} - cur
        cur = cur | frontier
    return tuple(sorted(cur))


def is_subgroup(G: Group, elems: Iterable[int]) -> bool:
    """Whether elems, each an element of G, form a subgroup."""
    s = set(_elements(G, elems))
    if G.identity not in s:
        return False
    return all(G.inverse[a] in s and G.table[a][b] in s for a in s for b in s)


def is_normal(G: Group, elems: Iterable[int]) -> bool:
    """Whether the set of elems, each an element of G, is closed under
    conjugation."""
    elems = _elements(G, elems)
    s, conjugates = set(elems), _gather(elems)
    return all(s.issuperset(conjugates(row)) for row in G._conjugation)


def all_subgroups(G: Group) -> tuple[tuple[int, ...], ...]:
    """Every subgroup, found by growing known subgroups one generator at a time."""
    start = frozenset({G.identity})
    found = {start}
    frontier = [start]
    while frontier:
        H = frontier.pop()
        for g in range(G.order):
            if g not in H:
                K = frozenset(subgroup_closure(G, H | {g}))
                if K not in found:
                    found.add(K)
                    frontier.append(K)
    return tuple(sorted(tuple(sorted(H)) for H in found))


def normal_subgroups(G: Group) -> tuple[tuple[int, ...], ...]:
    return tuple(H for H in all_subgroups(G) if is_normal(G, H))


def normal_closure(G: Group, seed: Iterable[int]) -> tuple[int, ...]:
    """Smallest normal subgroup containing the seed: the subgroup generated
    by the conjugates of the subgroup the seed generates."""
    H = subgroup_closure(G, seed)
    return subgroup_closure(G, set().union(*map(_gather(H), G._conjugation)))


def _elements(G: Group, elems: Iterable[int]) -> tuple[int, ...]:
    """The distinct elems in index order, each checked to be an element of G
    (a bool would otherwise merge with 0 or 1 in the set)."""
    elems = list(elems)
    for x in elems:
        _require_element(G, x)
    return tuple(sorted(set(elems)))


def subgroup_group(G: Group, elems: Iterable[int], name: str | None = None) -> tuple[Group, GroupHom]:
    """Reindex a subgroup as a Group of its own, with the inclusion hom."""
    sub = _elements(G, elems)
    if not is_subgroup(G, sub):
        raise NotSubgroupError(f"{G.name}: {sub} is not a subgroup")
    pos = {g: i for i, g in enumerate(sub)}
    table = [[pos[G.table[a][b]] for b in sub] for a in sub]
    H = _trusted_group(table, name or f"{G.name}|{len(sub)}")
    return H, GroupHom(H, G, sub)


class Quotient(NamedTuple):
    group: Group
    projection: GroupHom
    representatives: tuple[int, ...]


def quotient_group(G: Group, normal: Iterable[int], name: str | None = None) -> Quotient:
    """Quotient by a normal subgroup; class i is named by its least element."""
    N = _elements(G, normal)
    if not is_subgroup(G, N):
        raise NotSubgroupError(f"{G.name}: {N} is not a subgroup")
    if not is_normal(G, N):
        bad = next((g, a) for g, row in enumerate(G._conjugation) for a in N if row[a] not in N)
        raise NotNormalError(f"{G.name}: conjugate of {bad[1]} by {bad[0]} leaves {N}")
    coset_of = {}
    reps = []
    for g in range(G.order):
        if g in coset_of:
            continue
        coset = sorted(G.table[g][n] for n in N)
        rep = len(reps)
        reps.append(coset[0])
        for h in coset:
            coset_of[h] = rep
    table = [
        [coset_of[G.table[reps[i]][reps[j]]] for j in range(len(reps))]
        for i in range(len(reps))
    ]
    Q = _trusted_group(table, name or f"{G.name}/{len(N)}")
    proj = GroupHom(G, Q, tuple(coset_of[g] for g in range(G.order)))
    return Quotient(group=Q, projection=proj, representatives=tuple(reps))


def center(G: Group) -> tuple[int, ...]:
    return tuple(
        z for z in range(G.order)
        if all(G.table[z][a] == G.table[a][z] for a in range(G.order))
    )


def _require_element(G: Group, x: object) -> None:
    if not is_index(x, G.order):
        raise IndexOutOfRangeError(f"{G.name}: element {x!r} out of range")


def conjugacy_class(G: Group, x: int) -> tuple[int, ...]:
    _require_element(G, x)
    return tuple(sorted(set(_column(G._conjugation, x))))


def element_order(G: Group, a: int) -> int:
    _require_element(G, a)
    k, cur = 1, a
    while cur != G.identity:
        cur = G.table[cur][a]
        k += 1
    return k


class AutGroup(NamedTuple):
    group: Group
    perms: tuple[tuple[int, ...], ...]


# Larger groups are refused: the search assigns every element in turn.
MAX_AUTOMORPHISM_ORDER = 12


def automorphism_group(M: Group) -> AutGroup:
    """Automorphism group: the bijective endomorphisms of M.

    perms[i] is the i-th automorphism as an image tuple, in lexicographic
    order, and group is the composition table (i * j applies j first).
    Groups of order above MAX_AUTOMORPHISM_ORDER are refused, on every
    call.  The search runs once per Group instance: later calls return
    the same AutGroup (Group._automorphisms).
    """
    if M.order > MAX_AUTOMORPHISM_ORDER:
        raise OrderTooLargeError(
            f"{M.name}: order {M.order} exceeds automorphism search bound {MAX_AUTOMORPHISM_ORDER}"
        )
    return M._automorphisms


def _automorphism_search(M: Group) -> AutGroup:
    """The automorphisms of M by one hom search, within DEFAULT_BUDGET.

    An automorphism keeps element orders, so x's candidates are the
    elements of x's order.  Conversely an endomorphism that keeps orders
    sends only the identity to the identity, so it is injective and, M
    being finite, bijective: every map the search finds is kept.
    """
    n = M.order
    orders = [element_order(M, a) for a in range(n)]
    candidates = [[b for b in range(n) if orders[b] == k] for k in orders]
    perms = _search_homs(M, M, candidates, Work(DEFAULT_BUDGET), f"automorphism search {M.name}")
    pos = {p: i for i, p in enumerate(perms)}
    table = [
        [pos[tuple(p[q[x]] for x in range(n))] for q in perms]
        for p in perms
    ]
    A = _trusted_group(table, f"Aut({M.name})")
    return AutGroup(group=A, perms=tuple(perms))
