"""Symbolic words over free crossed modules, and the finite site they index.

A free object is a finite list of labels with a base element attached to
each.  The crossed module it freely generates is usually infinite, so it is
never materialised: its elements are represented by words of signed symbols

    (u . label)^(+1|-1)         u an element of the base group

and maps out of it by assignments of carrier elements to labels, subject to
the fiber condition that the assigned element's boundary equals the label's
base element.  Translation obeys v . (u . label) = (vu) . label, which is
the one choice making the symbolic boundary equivariant.

The site has one object per base element (single) and one per ordered pair
(pair); its generating morphisms are conjugation moves between singles, the
multiplication map from a single into a pair, and the two injections.  An
object or generator is identified by its position in site order alone,
and the layout is a formula: the site stores nothing per object or
generator, decodes a generator's family from its position, and makes
names, free objects, words and SiteMorphisms only for the word calculus
and the report edge.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    BaseMismatchError,
    CompositionMismatchError,
    FiberMismatchError,
    IndexOutOfRangeError,
    PreconditionFailedError,
)
from .groups import Group, _require_element, is_index
from .xmod import CrossedModule

__all__ = [
    "Symbol",
    "FreeObject",
    "Word",
    "make_free_object",
    "single_object",
    "make_word",
    "symbol_word",
    "concat_words",
    "invert_word",
    "translate_word",
    "word_boundary",
    "evaluate_word",
    "hom_set",
    "hom_set_size",
    "labelling",
    "ConjugacyWitness",
    "singly_generated_hom",
    "SiteObject",
    "SiteMorphism",
    "Site",
    "build_site",
    "substitute_word",
    "compose_site_morphisms",
]


class Symbol(NamedTuple):
    """One signed, translated occurrence of a label."""

    u: int
    label: str
    exp: int


@dataclass(frozen=True)
class FreeObject:
    """Labels with their base elements; the shape of a free crossed module."""

    base: Group
    labels: tuple[str, ...]
    omega: tuple[int, ...]

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise IndexOutOfRangeError(f"unknown label {label!r}") from None

    def omega_of(self, label: str) -> int:
        return self.omega[self.index_of(label)]


@dataclass(frozen=True)
class Word:
    free: FreeObject
    syms: tuple[Symbol, ...]


def make_free_object(base: Group, labels: Sequence[str], omega: Sequence[int]) -> FreeObject:
    labels = tuple(labels)
    omega = tuple(omega)
    if len(labels) != len(set(labels)):
        raise IndexOutOfRangeError(f"duplicate labels in {labels}")
    if len(labels) != len(omega):
        raise IndexOutOfRangeError(f"{len(labels)} labels but {len(omega)} base elements")
    for x in omega:
        _require_element(base, x)
    return FreeObject(base=base, labels=labels, omega=omega)


def single_object(base: Group, x: int) -> FreeObject:
    return make_free_object(base, ("g0",), (x,))


def make_word(free: FreeObject, syms: Sequence[tuple[int, str, int]]) -> Word:
    checked = []
    for (u, label, exp) in syms:
        _require_element(free.base, u)
        free.index_of(label)
        if exp not in (1, -1):
            raise IndexOutOfRangeError(f"exponent {exp} must be +1 or -1")
        checked.append(Symbol(u, label, exp))
    return Word(free=free, syms=tuple(checked))


def symbol_word(free: FreeObject, label: str, u: int | None = None, exp: int = 1) -> Word:
    u = free.base.identity if u is None else u
    return make_word(free, [(u, label, exp)])


def concat_words(*ws: Word) -> Word:
    if not ws:
        raise PreconditionFailedError("concat needs at least one word")
    free = ws[0].free
    for w in ws[1:]:
        if w.free != free:
            raise CompositionMismatchError("cannot concatenate words over different free objects")
    return Word(free=free, syms=tuple(s for w in ws for s in w.syms))


def invert_word(w: Word) -> Word:
    return Word(free=w.free, syms=tuple(Symbol(s.u, s.label, -s.exp) for s in reversed(w.syms)))


def translate_word(w: Word, v: int) -> Word:
    """Left translate every symbol: v . (u . label) = (vu) . label."""
    P = w.free.base
    _require_element(P, v)
    return Word(free=w.free, syms=tuple(Symbol(P.table[v][s.u], s.label, s.exp) for s in w.syms))


def word_boundary(w: Word) -> int:
    """Boundary of a word: the product of u w(label) u^-1, signed."""
    P = w.free.base
    out = P.identity
    for s in w.syms:
        b = P.conj(s.u, w.free.omega_of(s.label))
        if s.exp == -1:
            b = P.inverse[b]
        out = P.table[out][b]
    return out


def _require_over(A: CrossedModule, base: Group) -> None:
    if A.base != base:
        raise BaseMismatchError(f"{A.name} is not over {base.name}")


def _check_assignment(free: FreeObject, A: CrossedModule, assignment: Sequence[int]) -> None:
    _require_over(A, free.base)
    if len(assignment) != len(free.labels):
        raise FiberMismatchError(
            f"assignment has {len(assignment)} entries for {len(free.labels)} labels"
        )
    for i, a in enumerate(assignment):
        if not is_index(a, A.group.order):
            raise FiberMismatchError(f"assignment for {free.labels[i]!r} out of range")
        if A.boundary.image[a] != free.omega[i]:
            raise FiberMismatchError(
                f"label {free.labels[i]!r} needs boundary {free.omega[i]}, "
                f"got element {a} with boundary {A.boundary.image[a]}"
            )


def evaluate_word(w: Word, A: CrossedModule, assignment: Sequence[int]) -> int:
    """Image of a word under the map the assignment induces from freeness."""
    _check_assignment(w.free, A, assignment)
    return _word_images(w, A, (assignment,))[0]


def _word_images(w: Word, A: CrossedModule, assignments: Sequence[Sequence[int]]) -> list[int]:
    """Image of the word under each assignment, with no checks.

    The caller guarantees that A is over the word's base and that every
    assignment respects the fibers of its free object, as the assignments
    of hom_set do.  Each symbol is translated once into its action row,
    label index and sign.
    """
    G = A.group
    tab, inv = G.table, G.inverse
    syms = [(A.action.table[s.u], w.free.index_of(s.label), s.exp == -1) for s in w.syms]
    out = []
    for nu in assignments:
        val = G.identity
        for row, i, inverted in syms:
            m = row[nu[i]]
            val = tab[val][inv[m] if inverted else m]
        out.append(val)
    return out


def hom_set(free: FreeObject, A: CrossedModule) -> tuple[tuple[int, ...], ...]:
    """All fiber-respecting assignments, in lexicographic element order."""
    _require_over(A, free.base)
    fibers, _ = A._fibers
    return tuple(itertools.product(*(fibers[x] for x in free.omega)))


def hom_set_size(free: FreeObject, A: CrossedModule) -> int:
    _require_over(A, free.base)
    fibers, _ = A._fibers
    size = 1
    for x in free.omega:
        size *= len(fibers[x])
    return size


def labelling(A: CrossedModule, a: int) -> tuple[FreeObject, tuple[int, ...]]:
    """The single-label assignment naming the element a."""
    _require_element(A.group, a)
    free = single_object(A.base, A.boundary.image[a])
    return free, (a,)


class ConjugacyWitness(NamedTuple):
    p: int
    word: Word


def singly_generated_hom(P: Group, x: int, y: int) -> ConjugacyWitness | None:
    """A map between single-label free objects at x and y, if one exists.

    One exists exactly when x = p y p^-1 for some p; the least such p is
    returned along with the word p . g0 over the object at y.
    """
    _require_element(P, x)
    _require_element(P, y)
    for p in range(P.order):
        if P.conj(p, y) == x:
            return ConjugacyWitness(p=p, word=symbol_word(single_object(P, y), "g0", u=p))
    return None


@dataclass(frozen=True)
class SiteObject:
    kind: str
    xs: tuple[int, ...]

    def describe(self) -> str:
        return f"{self.kind}({','.join(map(str, self.xs))})"


@dataclass(frozen=True)
class SiteMorphism:
    """A map between free objects: one word over the target per source label."""

    name: str
    source: SiteObject
    target: SiteObject
    words: tuple[Word, ...]


_PAIR_FAMILIES = ("sigma", "inc1", "inc2")


class Site:
    """The finite index category for a base group of order n, keyed by position.

    Objects: single(x) at position x and pair(x, y) at position n + x n + y,
    object_count = n + n^2 in all.  Generating morphisms, in this order: the
    identity of every object, the conjugation moves m[p,x]: single(p x p^-1)
    -> single(x) with word p . g0 at position move(p, x), then per pair
    (x, y) the multiplication map sigma[x,y]: single(xy) -> pair(x,y) with
    word g0 * g1 at position sigma(x, y) and the injections inc1 and inc2
    with words g0 and g1 right after it; generator_count = n + 5n^2 in all.

    The layout is a formula in the base, so building a site stores no entry
    per object or generator: object(i), move and sigma compute positions,
    and decode(ks) reads generator positions back into (family, a, b),
    which is how the presheaf's map kernel, name(k) and morphism(k) learn
    what a generator is; the ends of a generator follow from its family
    and indices.  ends() yields the (source, target) of every generator a
    family at a time and keeps none of them.  descriptions and names, the
    report texts of every object and generator, are written a family at a
    time on first read, for embed.

    Free objects, words and SiteMorphisms are made only when asked for:
    free(i) and morphism(k), one at a time; the tests read morphism(k) as
    the word-level oracle that the closed-form maps of the presheaf are
    compared with.  The base is a valid group and every index comes from
    its range, so they are built without the checks of make_free_object
    and make_word.
    """

    def __init__(self, base: Group):
        self.base = base
        n = base.order
        self.object_count = n + n * n
        self.generator_count = n + 5 * n * n

    def object(self, i: int) -> SiteObject:
        """The object at position i, which must be in range(object_count)."""
        if not is_index(i, self.object_count):
            raise IndexOutOfRangeError(f"object {i!r} is not in the site over {self.base.name}")
        n = self.base.order
        return SiteObject("single", (i,)) if i < n else SiteObject("pair", divmod(i - n, n))

    def position(self, o: SiteObject) -> int:
        """Where o is in site order; o is a SiteObject at the API edge, and
        each of its coordinates must be an index of the base (no bool)."""
        n, xs = self.base.order, o.xs
        if len(xs) in (1, 2) and all(is_index(x, n) for x in xs):
            i = xs[0] if len(xs) == 1 else n + xs[0] * n + xs[1]
            if self.object(i) == o:
                return i
        raise IndexOutOfRangeError(f"object {o.describe()} is not in the site")

    def move(self, p: int, x: int) -> int:
        """The position of generator m[p,x]."""
        return self.object_count + p * self.base.order + x

    def sigma(self, x: int, y: int) -> int:
        """The position of generator sigma[x,y]; inc1[x,y] and inc2[x,y] follow."""
        n = self.base.order
        return self.object_count + n * n + 3 * (x * n + y)

    def decode(self, ks: Iterable[int]) -> Iterator[tuple[str, int, int]]:
        """(family, a, b) of each generator position in ks, each in
        range(generator_count): ("id", i, i) for the identity of object i,
        ("m", p, x) for m[p,x], and (family, x, y) for sigma, inc1 and inc2
        at (x, y)."""
        n = self.base.order
        moves = self.object_count
        pairs = moves + n * n
        for k in ks:
            if k < moves:
                yield "id", k, k
            elif k < pairs:
                yield ("m", *divmod(k - moves, n))
            else:
                xy, f = divmod(k - pairs, 3)
                yield (_PAIR_FAMILIES[f], *divmod(xy, n))

    def _generator(self, k: int) -> tuple[str, int, int, int, int]:
        """(family, a, b) of generator k, in range(generator_count), then
        its source and target positions."""
        if not is_index(k, self.generator_count):
            raise IndexOutOfRangeError(f"generator {k!r} is not in the site over {self.base.name}")
        family, a, b = next(self.decode((k,)))
        base, n = self.base, self.base.order
        if family == "id":
            return family, a, b, a, a
        if family == "m":
            return family, a, b, base.conj(a, b), b
        return family, a, b, (base.table[a][b], a, b)[_PAIR_FAMILIES.index(family)], n + a * n + b

    def ends(self) -> Iterator[tuple[int, int]]:
        """(source, target) of every generator, in site order, a family at
        a time: i -> i for the identity of object i, p x p^-1 -> x for
        m[p,x], and xy, x and y -> pair(x, y) for sigma, inc1 and inc2 at
        (x, y).  The pairs are zipped from iterators over the base's
        multiplication and conjugation tables, so none of them is kept."""
        base, n = self.base, self.base.order
        grid = list(itertools.product(range(n), repeat=2))
        ids, xs, ys = range(self.object_count), [x for x, _ in grid], [y for _, y in grid]
        moves = zip(itertools.chain.from_iterable(base._conjugation), ys)
        sources = itertools.chain.from_iterable(zip(itertools.chain.from_iterable(base.table), xs, ys))
        pairs = ids[n:]
        targets = itertools.chain.from_iterable(zip(pairs, pairs, pairs))
        return itertools.chain(zip(ids, ids), moves, zip(sources, targets))

    @cached_property
    def descriptions(self) -> tuple[str, ...]:
        """describe() of every object, in site order."""
        digits = list(map(str, range(self.base.order)))
        return (*(f"single({x})" for x in digits), *(f"pair({x},{y})" for x in digits for y in digits))

    @cached_property
    def names(self) -> tuple[str, ...]:
        """name(k) of every generator, in site order."""
        digits = list(map(str, range(self.base.order)))
        grid = [f"{x},{y}" for x in digits for y in digits]
        return (
            *(f"id[{o}]" for o in self.descriptions),
            *(f"m[{px}]" for px in grid),
            *(f"{f}[{xy}]" for xy in grid for f in _PAIR_FAMILIES),
        )

    def free(self, i: int) -> FreeObject:
        xs = self.object(i).xs
        return FreeObject(self.base, ("g0", "g1")[: len(xs)], xs)

    def name(self, k: int) -> str:
        """The name of generator k, in range(generator_count)."""
        family, a, b, _, _ = self._generator(k)
        if family == "id":
            return f"id[{self.object(a).describe()}]"
        return f"{family}[{a},{b}]"

    def morphism(self, k: int) -> SiteMorphism:
        """Generator k, in range(generator_count), as words."""
        family, a, _, source, target = self._generator(k)
        free = self.free(target)
        u = a if family == "m" else self.base.identity
        # The labels of each word; m and inc1 have the one word g0.
        labels = {"id": [(g,) for g in free.labels], "sigma": [("g0", "g1")], "inc2": [("g1",)]}
        words = tuple(Word(free, tuple(Symbol(u, g, 1) for g in w)) for w in labels.get(family, [("g0",)]))
        return SiteMorphism(self.name(k), self.object(source), self.object(target), words)


def build_site(base: Group) -> Site:
    return Site(base)


def substitute_word(w: Word, m: SiteMorphism) -> Word:
    """Push a word over m's source through m, symbol by symbol."""
    pieces = []
    free_t = m.words[0].free if m.words else None
    for s in w.syms:
        idx = w.free.index_of(s.label)
        piece = translate_word(m.words[idx], s.u)
        if s.exp == -1:
            piece = invert_word(piece)
        pieces.append(piece)
    if not pieces:
        if free_t is None:
            raise CompositionMismatchError("cannot substitute into a map with no labels")
        return Word(free=free_t, syms=())
    return concat_words(*pieces)


def compose_site_morphisms(f: SiteMorphism, g: SiteMorphism) -> SiteMorphism:
    """Return f after g: g's words with each symbol replaced through f."""
    if g.target != f.source:
        raise CompositionMismatchError(
            f"cannot compose {f.name} after {g.name}: "
            f"{g.target.describe()} is not {f.source.describe()}"
        )
    return SiteMorphism(
        name=f"{f.name}*{g.name}",
        source=g.source,
        target=f.target,
        words=tuple(substitute_word(w, f) for w in g.words),
    )
