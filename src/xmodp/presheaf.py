"""The embedding of crossed modules into set-valued presheaves on the site.

A crossed module A becomes the functor sending each site object to the set
of fiber-respecting assignments into A (a product of boundary fibers) and
each generating morphism to precomposition.  A presheaf stores the fibers,
not the assignments: set sizes, generator actions and transformation
components are indexed by site position, never by object or name, and an
assignment is read off the fibers by its mixed-radix index.  A
generator's index map is read off fiber positions by the closed form of
its family, the first time it is read; an arbitrary site morphism, such
as a composite of generators, acts by evaluating its words.
Morphisms become postcomposition families, also read off fiber positions:
an assignment's index is the mixed-radix number of its entries' positions
in their fibers.

The inc squares force every natural transformation to act on pair(x, y)
coordinatewise, so inside this module a transformation is its n single
components.  Pair components are built from them, by _with_pairs, only at
the public edge (enumerate_natural_transformations, functor_on_morphism)
and when a failing comparison must check every object.  One enumerator,
_squares, lists the squares that can fail, the moves m[p,x] and the
multiplications sigma[x,y] over nonempty fibers, and both consumers read
it: the transformation search (_natural_singles) takes its conditions
from it over all of P and M, and the comparison check (_square_failures)
compares gathered columns, which on the generators of P and of M accepts
exactly the natural maps and on all of P and M lists every failed
square.  check_naturality, which takes arbitrary pair components, scans
every square of every generator (_failed_squares).

Fullness and faithfulness are checked by comparing the crossed-module
morphisms with the natural transformations, each set found by a complete
search of groups._search on its own constraints: the morphisms from the
group tables and actions, the transformations from the two presheaves
alone (_natural_singles, whose variables are the entries of the single
components).  Both searches charge the candidates they try to one Work
meter, so the budget bounds their sum.

Exactness is checked by comparing constructions objectwise, one
verifier per construction U preserves: verify_product_preserved,
verify_equaliser_preserved and verify_coequaliser_preserved (the
coequaliser, a regular epi, through its kernel pair).  They read
generators and single objects only.  Their comparison maps U(f) are
single components, accepted by _square_failures on the
generators of P and M, so only those maps of the presheaves are built.
Each comparison is checked at the n single objects, and when all of them
pass, each pair row is the product of the rows of its two singles: every
comparison acts on pair(x, y) as the product of its actions on x and on
y, and a product of bijections is a bijection (the rules and their empty
cases are proved in _comparison).  Only a failure, of a single object or
of the squares at the generators, makes the comparison check every object
on pair components, or every square, so that its report lists every
failure.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Iterator, Sequence
from operator import add

from .errors import (
    FiberMismatchError,
    IsIsoError,
    NotMonoError,
    NotNaturalError,
    ReconstructionInvalidError,
    ShapeMismatchError,
)
from .groups import DEFAULT_BUDGET, Work, _column, _differences, _gather, _indices, _meter, _search
from .limits import coequaliser, equaliser, kernel_pair, product_over_P
from .words import (
    Site,
    SiteMorphism,
    SiteObject,
    build_site,
    _require_over,
    _word_images,
    hom_set,
    single_object,
    word_boundary,
)
from .xmod import (
    CrossedModule,
    XModMorphism,
    enumerate_morphisms,
    validate_morphism,
)

__all__ = [
    "Presheaf",
    "NaturalTransformation",
    "compute_presheaf",
    "presheaf_action",
    "functor_on_morphism",
    "component_shape_violations",
    "check_naturality",
    "enumerate_natural_transformations",
    "reconstruct_morphism",
    "verify_full_faithful",
    "verify_product_preserved",
    "verify_equaliser_preserved",
    "verify_coequaliser_preserved",
    "generator_witness",
]


class _Actions(Sequence):
    """The generator index maps of a presheaf, map k built the first time
    index k is read.

    build(ks) yields the maps of the positions ks in one loop, and _maps[k]
    holds map k once it is built, None before.  read(ks) builds the missing
    maps of ks in one call of build and returns the maps of ks in order; an
    index or a slice is read through it, so reading many maps, or iterating
    over all of them, costs the one loop that built them eagerly.
    """

    def __init__(self, build: Callable[[Sequence[int]], Iterator[tuple[int, ...]]], count: int):
        self._build = build
        self._maps: list[tuple[int, ...] | None] = [None] * count

    def __len__(self) -> int:
        return len(self._maps)

    def read(self, ks: Sequence[int]) -> list[tuple[int, ...]]:
        """The maps at the positions ks, in order; a position that repeats
        is built once.  A position outside 0..len-1 raises IndexError
        before anything is built."""
        maps = self._maps
        # A position past the end raises in the gather; a negative one
        # would count from the end there and be built from a wrong family.
        if ks and min(ks) < 0:
            raise IndexError(f"action position {min(ks)} out of range 0..{len(maps) - 1}")
        got = list(map(maps.__getitem__, ks))
        if None in got:
            missing = list(dict.fromkeys(k for k, image in zip(ks, got) if image is None))
            for k, image in zip(missing, self._build(missing)):
                maps[k] = image
            got = list(map(maps.__getitem__, ks))
        return got

    def __getitem__(self, k: int | slice):
        # The range checks k and counts a negative k from the end, as a
        # list index does; the build reads positions.
        at = range(len(self._maps))[k]
        return self.read(at) if isinstance(k, slice) else self.read((at,))[0]

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self[:])


@dataclass(eq=False)
class Presheaf:
    """Boundary fibers and set sizes per site object, with generator actions
    as index maps.

    fibers and pos are those of xmod._fibers.  The set of the object
    at position i of the site is the product of the fibers over its labels
    in lexicographic order, of size sizes[i]: assignment (a,) of single(x)
    has index pos[a], and (a, b) of pair(x, y) has index
    pos[a] * |fibers[y]| + pos[b].  actions[k][j] = i means generator k, a
    site morphism o -> o', carries assignment j of o' to assignment i of o;
    actions is a read-only sequence that builds map k when index k is
    first read.
    """

    site: Site
    xmod: CrossedModule
    fibers: tuple[tuple[int, ...], ...]
    pos: tuple[int, ...]
    sizes: tuple[int, ...]
    actions: Sequence[tuple[int, ...]]


def presheaf_action(F: Presheaf, m: SiteMorphism) -> tuple[int, ...]:
    """Index map of precomposition with an arbitrary site morphism.

    The word count, and the base, fibers and boundary of each word, are
    checked once for the morphism.  The target's assignments, the product
    of its fibers, are built once per call, so each respects the fibers of
    the words' free object, and the image of word i lies over the boundary
    of word i, the base element of source label i.  So each image is a
    member of the source's set, and its index is the mixed-radix number of
    its entries' fiber positions.
    """
    A, site = F.xmod, F.site
    source, target = site.position(m.source), site.position(m.target)
    omega = site.object(target).xs
    xs = site.object(source).xs
    if len(m.words) != len(xs):
        raise ShapeMismatchError(f"{m.name}: wrong number of words")
    for w, x in zip(m.words, xs):
        _require_over(A, w.free.base)
        if w.free.omega != omega:
            raise FiberMismatchError(f"{m.name}: words are not over {m.target.describe()}")
        if word_boundary(w) != x:
            raise FiberMismatchError(f"{m.name}: a word does not land over {m.source.describe()}")
    assignments = tuple(itertools.product(*(F.fibers[x] for x in omega)))
    out = []
    for image in zip(*(_word_images(w, A, assignments) for w in m.words)):
        i = 0
        for a, x in zip(image, xs):
            i = i * len(F.fibers[x]) + F.pos[a]
        out.append(i)
    return tuple(out)


def compute_presheaf(A: CrossedModule) -> Presheaf:
    """The presheaf of A on the site of its base, built from the boundary
    fibers of A.

    The site is build_site(A.base), a formula in the base that stores three
    integers, so each presheaf builds its own.  A._fibers lists every fiber
    and each element's position in its fiber, and the presheaf keeps both.
    The set of an object is the product of its fibers, in the lexicographic
    order hom_set gives, hom_set(F.site.free(i), A) for the object at i;
    only its size is stored, in site order (single(x) at x, then pair(x, y)
    at n + x n + y).  Each generator's index map is built when it is first
    read, by one kernel: it decodes the generator's family and indices from
    its position (Site.decode) and reads the map off fiber positions by the
    closed form of the family: on target assignment (a) or (a, b), m[p,x]
    gives the position of p.a, sigma[x,y] that of ab, inc1 that of a and
    inc2 that of b.  Identity, inc1 and inc2 maps depend only on set sizes,
    so each is made once from ranges and repetition and shared: identity
    maps per set size, inc1 and inc2 maps per pair of fiber sizes.
    verify-exact reads only the maps of the generators of P and of M, and
    the transformation search only the move and sigma maps over nonempty
    fibers (see _squares), so on a large base they build a few of the
    |P| + 5|P|^2 maps; embed reads them all, in one loop.
    """
    site = build_site(A.base)
    fibers, pos = A._fibers
    lens = [len(f) for f in fibers]
    sizes = (*lens, *(i * j for i in lens for j in lens))
    act, tab = A.action.table, A.group.table
    shared: dict[tuple[str, int, int], tuple[int, ...]] = {}

    def build(ks: Sequence[int]) -> Iterator[tuple[int, ...]]:
        for family, a, b in site.decode(ks):
            if family == "m":
                row = act[a]
                yield tuple([pos[row[e]] for e in fibers[b]])
            elif family == "sigma":
                yield tuple([pos[row[e]] for row in map(tab.__getitem__, fibers[a]) for e in fibers[b]])
            else:
                # Set sizes alone fix these: the identity on object a's set,
                # or the projection of a pair of fibers of sizes lens[a] and
                # lens[b] onto one of them.
                key = ("id", sizes[a], 0) if family == "id" else (family, lens[a], lens[b])
                image = shared.get(key)
                if image is None:
                    image = shared[key] = _size_map(*key)
                yield image

    return Presheaf(site, A, fibers, pos, sizes, _Actions(build, site.generator_count))


def _size_map(family: str, i: int, j: int) -> tuple[int, ...]:
    """The index map of an identity on a set of size i, or of inc1 or
    inc2 out of fibers of sizes i and j: entry ia * j + ib goes to ia, or
    to ib."""
    if family == "id":
        return tuple(range(i))
    if family == "inc1":
        return tuple(itertools.chain.from_iterable(map(itertools.repeat, range(i), itertools.repeat(j))))
    return tuple(range(j)) * i


@dataclass(eq=False)
class NaturalTransformation:
    """A family of functions between two presheaves on the same site;
    components[i] is the function at the object at position i."""

    source: Presheaf
    target: Presheaf
    components: tuple[tuple[int, ...], ...]


def component_shape_violations(phi: NaturalTransformation) -> tuple[str, ...]:
    F, G = phi.source, phi.target
    count = F.site.object_count
    if len(phi.components) != count:
        return (f"{len(phi.components)} components for {count} objects",)
    out = []
    for o, comp, size, limit in zip(F.site.descriptions, phi.components, F.sizes, G.sizes):
        if len(comp) != size:
            out.append(f"component at {o} has length {len(comp)}")
        elif comp and not _indices(comp, limit):
            out.append(f"component at {o} has out-of-range values")
    return tuple(out)


def _failed_squares(phi: NaturalTransformation) -> list[tuple[int, int]]:
    """Failed squares of a well-shaped phi as (generator, target-set index).

    The square of generator k at j compares comp_src[act_F[j]] with
    act_G[comp_tgt[j]], so k's squares are the entries of two gathers, one
    over its action and one over its component; only when the two tuples
    differ are their entries compared one by one, so the witnesses are
    listed in generator order, then by j.  The ends s and t of each
    generator come from Site.ends, one at a time.
    """
    F, G, comps = phi.source, phi.target, phi.components
    bad = []
    for k, ((s, t), act_F, act_G) in enumerate(zip(F.site.ends(), F.actions, G.actions)):
        left = _gather(act_F)(comps[s])
        right = _gather(comps[t])(act_G)
        if left != right:
            bad.extend((k, j) for j in _differences(left, right))
    return bad


def check_naturality(phi: NaturalTransformation) -> tuple[tuple[str, int], ...]:
    """Failed squares as (generator name, target-set index) witnesses.

    Fast accept, exact reject.  The shapes are checked by one C-level pass
    per component, so every index _failed_squares reads is in range.
    """
    violations = component_shape_violations(phi)
    if violations:
        raise ShapeMismatchError("; ".join(violations))
    return tuple((phi.source.site.name(k), j) for k, j in _failed_squares(phi))


def _squares(F: Presheaf, G: Presheaf, ps: Iterable[int], bs: Iterable[int]) -> Iterator[tuple]:
    """The columns of the squares of a transformation F -> G that can fail:
    the moves m[p,x] for p in ps, then the sigma squares at each b in bs,
    each over every x whose fiber F_x is nonempty, in that order.

    Write c for the element map of the transformation's single components,
    c(a) the element of G's fiber over x = boundary(a) at position
    comps[x][pos a], and let it act on pairs coordinatewise.  Identity
    squares hold by definition.  The inc squares hold by construction:
    inc1[x,y] carries entry ia * |F_y| + ib of F_pair to entry ia of F_x,
    and in G it sends c_x[ia] * |G_y| + c_y[ib] to c_x[ia], so both sides of
    its square are c_x[ia]; inc2 likewise gives c_y[ib].  So these are the
    only squares that can fail.  The square of m[p,x] at a over x says
    c(p.a) == p.c(a), and that of sigma[x,y] at (a, b) says c(ab) ==
    c(a)c(b), as fiber positions name elements.  Squares over an empty
    fiber hold vacuously, and every b of a nonempty fiber over y is some b,
    so ps = range(|P|) and bs = range(|M|) give every square that can fail,
    each once.  ps = base._gens and bs = M._gens give as strong a check:
    - the p whose move squares hold for every a are closed under
      products, as m[qp,x] is m[q,.] after m[p,x]: c(qp.a) = q.c(p.a) =
      q.p.c(a) = qp.c(a).  So when they hold for the p of base._gens,
      they hold for every p of P;
    - the b whose sigma squares hold for every a are closed under
      products: c(abb') = c(ab)c(b') = c(a)c(b)c(b') = c(a)c(bb'), the
      last step being the square at (b, b').  So when they hold for the b
      of M._gens, they hold for every b of M: _generating_set never
      returns an empty set, so even the identity is a product of
      generators.

    Each column is (k, s, x, col, act_G, y, ib), k the generator's position
    and s its source, read off the base's conjugation and multiplication
    tables, so no per-generator tuple of the site is built:
    - m[p,x], from single(s) to single(x) with s = p x p^-1: col is F's map
      and y is None, ib 0; its square at j says comps[s][col[j]] ==
      act_G[comps[x][j]];
    - sigma[x,y] at b, from single(s) to pair(x, y) with s = xy and y =
      boundary(b), ib = pos b: col is F's column act_F[ib::|F_y|]; its
      square at entry j = ia * |F_y| + ib says comps[s][col[ia]] ==
      act_G[comps[x][ia] * |G_y| + comps[y][ib]].
    Only the maps of those generators are read, and built: the moves of
    each p, and the sigma maps into the pairs over each y = boundary(b),
    in one read per presheaf, the latter kept for every b over y.
    """
    site, base = F.site, F.site.base
    n = base.order
    xs = [x for x in range(n) if F.sizes[x]]
    at = _gather(xs)
    # Positions are linear in x, so those of m[p,x], and of sigma[x,y] (3n
    # apart, with inc1 and inc2 between), for x in xs are gathered from one
    # range.
    for p in ps:
        ks = at(range(site.move(p, 0), site.move(p, n)))
        for k, s, x, act_F, act_G in zip(ks, at(base._conjugation[p]), xs, F.actions.read(ks), G.actions.read(ks)):
            yield k, s, x, act_F, act_G, None, 0
    fiber: dict[int, tuple] = {}
    for b in bs:
        y, ib = F.xmod.boundary.image[b], F.pos[b]
        if y not in fiber:
            ks = at(range(site.sigma(0, y), site.sigma(n, y), 3 * n))
            fiber[y] = ks, at(_column(base.table, y)), xs, F.actions.read(ks), G.actions.read(ks)
        for k, s, x, act_F, act_G in zip(*fiber[y]):
            yield k, s, x, act_F[ib :: F.sizes[y]], act_G, y, ib


def _square_failures(
    F: Presheaf, G: Presheaf, singles: Sequence[tuple[int, ...]], ps: Iterable[int], bs: Iterable[int]
) -> list[tuple[int, int]]:
    """Failed squares, as (generator, target-set index), of the columns
    _squares(F, G, ps, bs) gives, for the transformation F -> G with the
    single components singles, acting on pairs coordinatewise.

    Run on ps = range(|P|) and bs = range(|M|) it lists every failed
    square, each once; run on ps = base._gens and bs = M._gens it finds
    nothing exactly when that list is empty (see _squares).  Each column
    is checked by comparing two gathered tuples: a move over all of F_x at
    once, and a sigma column at b over the a of F_x against G's column
    act_G[c(b)::|G_y|]; only where the two tuples differ are their entries
    compared.
    """
    bad = []
    for k, s, x, col, act_G, y, ib in _squares(F, G, ps, bs):
        nf, col_G = (1, act_G) if y is None else (F.sizes[y], act_G[singles[y][ib] :: G.sizes[y]])
        left = _gather(col)(singles[s])
        right = _gather(singles[x])(col_G)
        if left != right:
            bad.extend((k, ia * nf + ib) for ia in _differences(left, right))
    return bad


def _with_pairs(singles: Sequence[tuple[int, ...]], G: Presheaf) -> tuple[tuple[int, ...], ...]:
    """The components of the transformation into G that has the single
    components singles and acts on pairs coordinatewise.

    Entry ia * |F_y| + ib of the component at pair(x, y) is
    singles[x][ia] * |G_y| + singles[y][ib], the index in G's product of
    fibers of the pair of the two single images.
    """
    pairs = []
    for x, y in itertools.product(range(len(singles)), repeat=2):
        scaled = [i * G.sizes[y] for i in singles[x]]
        pairs.append(tuple(itertools.starmap(add, itertools.product(scaled, singles[y]))))
    return (*singles, *pairs)


def enumerate_natural_transformations(
    F: Presheaf, G: Presheaf, budget: int = DEFAULT_BUDGET
) -> tuple[NaturalTransformation, ...]:
    """All natural maps F -> G, in lexicographic order of their single
    components: those _natural_singles finds, with the pair components
    _with_pairs builds from them.  Every candidate a node of the search
    holds is charged to the budget, or to the Work meter of an enclosing
    call."""
    return tuple(NaturalTransformation(F, G, _with_pairs(s, G)) for s in _natural_singles(F, G, _meter(budget)))


def _natural_singles(F: Presheaf, G: Presheaf, work: Work) -> list[list[tuple[int, ...]]]:
    """The single components of every natural map F -> G, found by
    groups._search; a natural map is fixed by them.

    The variables are the entries of the single components, entry i of
    single(x) being variable start[x] + i, with candidates range(|G_x|):
    they are assigned in site order, so the transformations come out in
    lexicographic order of their single components.  Each acts on pairs
    coordinatewise, and the search checks every square that can fail, the
    columns of _squares over all of P and M, read as its move half and
    its sigma half so that each feeds one flat comprehension; only the
    maps of moves and multiplications over nonempty fibers are read:
    - the move m[p,x] from single(s) gives at j the move
      (start[x] + j, start[s] + col[j], act_G);
    - the sigma column at b of sigma[x,y] from single(s) gives at ia the
      product (start[x] + ia, start[y] + ib, start[s] + col[ia], rows),
      rows[u] = act_G[u * |G_y|:(u + 1) * |G_y|] built once per generator
      (_rows).
    The conditions are listed in another order than site order, but
    _search files each under its largest variable and checks them all
    there, so the nodes, the charges and the output do not depend on it.
    Identity and inc squares hold by construction (see _squares), and
    conversely the inc squares force every natural pair component to be
    the coordinatewise one, so the search misses nothing.  Only the two
    presheaves are read, never the crossed-module morphisms, so
    verify_full_faithful compares two independently computed sets.  Every
    candidate a node of the search holds is charged to work.
    """
    n = F.site.base.order
    what = f"natural transformation search {F.xmod.name} -> {G.xmod.name}"
    start = list(itertools.accumulate(F.sizes[:n], initial=0))
    candidates = [range(G.sizes[x]) for x in range(n) for _ in range(F.sizes[x])]
    rows: dict[int, list[tuple[int, ...]]] = {}
    moves = [
        (start[x] + j, start[s] + i, act_G)
        for _, s, x, col, act_G, _, _ in _squares(F, G, range(n), ())
        for j, i in enumerate(col)
    ]
    products = [
        (start[x] + ia, start[y] + ib, start[s] + i, T)
        for k, s, x, col, act_G, y, ib in _squares(F, G, (), range(F.xmod.group.order))
        for T in (rows[k] if k in rows else rows.setdefault(k, _rows(act_G, G.sizes[x], G.sizes[y])),)
        for ia, i in enumerate(col)
    ]
    return [
        [img[start[x] : start[x + 1]] for x in range(n)] for img in _search(candidates, products, moves, work, what)
    ]


def _rows(act: tuple[int, ...], nx: int, ny: int) -> list[tuple[int, ...]]:
    """The nx rows of a map on a product of sets of sizes nx and ny: row u
    holds the images of entries u * ny .. (u + 1) * ny - 1."""
    return [act[u * ny : (u + 1) * ny] for u in range(nx)]


def functor_on_morphism(f: XModMorphism, F: Presheaf, G: Presheaf) -> NaturalTransformation:
    """Postcomposition with f, as a transformation U(source) -> U(target).

    f must be a morphism and F, G the presheaves compute_presheaf builds
    for its source and target.  f respects boundaries, so it carries the
    single assignment (a,) of x to (f(a),), whose index in G is G.pos[f(a)],
    and the pair assignment (a, b) to (f(a), f(b)): U(f) acts on pairs
    coordinatewise, and _with_pairs builds its pair components from
    _single_components; the library's own checks read the singles only.  No
    assignment tuple is built and no index is read.  The boundaries are
    checked once over f.mapping, so a map that does not respect them
    raises instead of giving wrong components.
    """
    return NaturalTransformation(F, G, _with_pairs(_single_components(f, F, G), G))


def _single_components(f: XModMorphism, F: Presheaf, G: Presheaf) -> list[tuple[int, ...]]:
    """The single components of U(f), after the checks of
    functor_on_morphism."""
    A, B = f.source, f.target
    if F.xmod != A or G.xmod != B:
        raise ShapeMismatchError(
            f"presheaves for {F.xmod.name} -> {G.xmod.name} do not match map "
            f"{A.name} -> {B.name}"
        )
    if [B.boundary.image[b] for b in f.mapping] != list(A.boundary.image):
        raise FiberMismatchError(f"map {A.name} -> {B.name} does not respect the boundaries")
    return [tuple([G.pos[f.mapping[a]] for a in F.fibers[x]]) for x in range(A.base.order)]


def _reconstruct(F: Presheaf, G: Presheaf, singles: Sequence[tuple[int, ...]]) -> XModMorphism:
    """The element map of the single components singles of a map F -> G,
    validated as a morphism; its naturality is the caller's to know."""
    A, B = F.xmod, G.xmod
    mapping = [0] * A.group.order
    for x in range(A.base.order):
        for a, j in zip(F.fibers[x], singles[x]):
            mapping[a] = G.fibers[x][j]
    violations = validate_morphism(A, B, mapping)
    if violations:
        raise ReconstructionInvalidError(
            f"reconstructed map fails validation: {violations[0].describe()}"
        )
    return XModMorphism(source=A, target=B, mapping=tuple(mapping))


def reconstruct_morphism(phi: NaturalTransformation) -> XModMorphism:
    """Check phi's naturality, read its element map off the single
    components and validate it.

    The image of a is the single used by the component at single(boundary a)
    on the labelling of a.
    """
    bad = check_naturality(phi)
    if bad:
        raise NotNaturalError(f"{len(bad)} naturality squares fail, first at {bad[0]}")
    return _reconstruct(phi.source, phi.target, phi.components)


def verify_full_faithful(
    A: CrossedModule,
    B: CrossedModule,
    *,
    budget: int = DEFAULT_BUDGET,
) -> dict:
    """Compare the morphism set with the natural transformation set.

    The morphism side is enumerated from nothing but the definitions, the
    transformation side from the presheaves; the counts must agree, the two
    round trips must be identities, and distinct morphisms must stay
    distinct.  separating_pairs counts the pairs of morphisms separated by
    a single-label assignment: two morphisms' single components differ
    exactly where their element maps do, as G.pos is injective on each
    fiber, so these are the pairs with different images, C(h, 2) less the
    pairs with equal ones, read from one Counter of the images.  It is
    C(h, 2) exactly when U is injective on the h homs.

    A transformation is its single components here, for the inc squares
    force it to act on pairs coordinatewise: the searched ones come from
    _natural_singles, the images U(f) from _single_components, and no pair
    component is built.  Both sides are read back through _reconstruct,
    which validates the element map but does not re-check naturality: the
    search checked the move and sigma squares of every transformation it
    returns, and the identity and inc squares hold by construction (see
    _squares), and no image U(f) needs a check of its own.  When
    the report passes, the counts are equal, U is injective on the homs,
    and every natural transformation reconstructs to a valid morphism that
    U carries back to it, so the transformations lie in U(homs) and, the
    two sets having the same size, U(homs) is exactly the set of natural
    transformations.  Both searches charge one meter, so the budget bounds
    their sum, and it is keyword-only.  When B is A, one presheaf serves as
    both F and G; each presheaf builds the site of its base.
    """
    F = compute_presheaf(A)
    G = F if B is A else compute_presheaf(B)
    work = _meter(budget)
    homs = enumerate_morphisms(A, B, budget=work)
    nats = _natural_singles(F, G, work)
    images = [_single_components(f, F, G) for f in homs]
    round_trip_hom = all(_reconstruct(F, G, s).mapping == f.mapping for f, s in zip(homs, images))
    round_trip_nat = all(_single_components(_reconstruct(F, G, s), F, G) == s for s in nats)
    h = len(homs)
    counts = Counter(map(tuple, images))
    separated = h * (h - 1) // 2 - sum(c * (c - 1) // 2 for c in counts.values())
    injective = len(counts) == h
    ok = len(homs) == len(nats) and round_trip_hom and round_trip_nat and injective
    return {
        "pass": ok,
        "source": A.name,
        "target": B.name,
        "hom_count": len(homs),
        "nat_count": len(nats),
        "round_trip_hom": round_trip_hom,
        "round_trip_nat": round_trip_nat,
        "functor_injective": injective,
        "separating_pairs": separated,
        "budget": work.budget,
    }


def _comparison(
    kind: str,
    apex: CrossedModule,
    maps: Sequence[tuple[XModMorphism, Presheaf, Presheaf]],
    check_object: Callable[[int, Sequence[Sequence[tuple[int, ...]]]], tuple[int, int, dict | None]],
    square_failure: Callable[[str, SiteObject, int], dict],
    squared: int | None = None,
) -> dict:
    """Report of an exactness comparison: one row per site object, then squares.

    The legs are the images U(f) of the maps (f, F, G), held as their
    single components, so their shapes need no check.  check_object(o,
    comps) returns the two sizes it compared at the object at position o
    and, when the comparison there fails, the failure fields after
    "object"; comps[i] holds the components of leg i, indexed by position.
    The squares are the naturality squares of the first squared legs (all
    by default), all out of one presheaf; each failure is reported by
    square_failure(generator name, its source object, index), the source
    read off the failed generator's family and indices.  Every presheaf
    of the legs is on the site of the one base, so the site is that of
    the first leg's source presheaf.

    Only the n single objects are checked.  When all of them pass, the
    row of pair(x, y) is (lhs_x lhs_y, rhs_x rhs_y, ok), with no pair
    component built.  Every comparison acts on a pair as the product of
    its actions on x and on y, and compares sets whose sizes are products
    of the sizes at x and y; a product of bijections is a bijection:
    - product: the pairing at pair(x, y) is h_x x h_y, with h_x: X_x ->
      A_x x B_x the pairing at x, up to the reordering (A_x x A_y) x
      (B_x x B_y) = (A_x x B_x) x (A_y x B_y).  So the sides are |X_x| |X_y|
      and |A_x| |B_x| |A_y| |B_y|, and h_x x h_y is a bijection, as both
      factors are.  Empty case: when X_x is empty, so is A_x x B_x, as h_x
      is a bijection, and the row is (0, 0), which the check passes with
      no cell to hit;
    - equaliser: the agreeing pairs are the products of agreeing singles,
      and the inclusion at pair(x, y) is the product of the inclusions at
      x and y, bijections onto the agreeing singles; so it is a bijection
      onto the agreeing pairs, and both sides are |E_x| |E_y|.  Empty case:
      when E_x is empty so is the agreeing set at x, and both sides are 0;
    - coequaliser: the relation at an object is generated by the pairs
      (k1 z, k2 z) over the kernel pair's assignments z, and at pair(x, y)
      it is R_x x R_y, as the kernel pair's set there is K_x x K_y and its
      legs act coordinatewise.  The kernel pair contains the diagonal, so
      R_x and R_y are reflexive, and then the equivalence closure of R_x x
      R_y is the product of the closures: one coordinate moves along R_x
      while the other stays put by reflexivity.  So the classes at pair(x,
      y) are the products of classes at x and y, and the projection, which
      acts coordinatewise, is well defined, injective and onto on them
      when it is so at x and at y; both sides are |Q_x| |Q_y|.  Empty
      case: when B_x is empty there are no classes at x, so Q_x is empty,
      as the projection is onto it, and both sides are 0.
    The converse does not hold (a pair with an empty factor passes even
    when its other single fails), so when any single fails, every pair
    is checked by check_object on components built by _with_pairs, and
    the rows are those of a check of every object.

    The squares are accepted when _square_failures finds none at the
    generators of P and of M, the source's group; only when it finds one
    does it run on all of P and M, which lists every failure, in generator
    order, then by index.
    """
    site = maps[0][1].site
    n = site.base.order
    legs = [(F, G, _single_components(f, F, G)) for f, F, G in maps]
    singles = [comps for *_, comps in legs]
    rows = [check_object(o, singles) for o in range(n)]
    if all(failure is None for *_, failure in rows):
        rows += [(lx * ly, rx * ry, None) for (lx, rx, _), (ly, ry, _) in itertools.product(rows, repeat=2)]
    else:
        whole = [_with_pairs(comps, G) for _, G, comps in legs]
        rows += [check_object(o, whole) for o in range(n, site.object_count)]
    objects, failures = [], []
    for o, (lhs, rhs, failure) in zip(site.descriptions, rows):
        objects.append({"object": o, "lhs_size": lhs, "rhs_size": rhs, "ok": failure is None})
        if failure is not None:
            failures.append({"object": o, **failure})
    natural = legs[:squared]
    if any(_square_failures(F, G, comps, site.base._gens, F.xmod.group._gens) for F, G, comps in natural):
        every = (_square_failures(F, G, comps, range(n), range(F.xmod.group.order)) for F, G, comps in natural)
        for k, j in sorted(set().union(*every)):
            failures.append(square_failure(site.name(k), site.object(site._generator(k)[3]), j))
    # One square per generator and element of its target: each object's
    # identity, n moves into each single, and sigma, inc1 and inc2 into
    # each pair.
    sizes = legs[0][0].sizes
    return {
        "kind": kind,
        "pass": not failures,
        "apex": apex.name,
        "objects": objects,
        "squares_checked": sum(sizes) + n * sum(sizes[:n]) + 3 * sum(sizes[n:]),
        "failures": failures,
    }


def _square_at_source(name: str, source: SiteObject, j: int) -> dict:
    return {"object": source.describe(), "generator": name, "index": j}


def verify_product_preserved(A: CrossedModule, B: CrossedModule) -> dict:
    """Check that U sends the product of A and B to the objectwise product.

    At each site object the pairing of U(A x B) into U(A) x U(B) must be a
    bijection, and the two projections natural.
    """
    cone = product_over_P(A, B)
    FX = compute_presheaf(cone.apex)
    FA = compute_presheaf(A)
    FB = compute_presheaf(B)

    def pairing(o: int, comps: Sequence[Sequence[tuple[int, ...]]]) -> tuple[int, int, dict | None]:
        # Mark each (a, b) cell hit: a set of pair tuples would be the
        # largest allocation of the whole comparison.
        size, nb = FX.sizes[o], FB.sizes[o]
        full = FA.sizes[o] * nb
        hit = bytearray(full)
        for a, b in zip(comps[0][o], comps[1][o]):
            hit[a * nb + b] = 1
        ok = size == full and all(hit)
        return size, full, None if ok else {"reason": "pairing is not a bijection"}

    return _comparison(
        "product", cone.apex, [(cone.legs[0], FX, FA), (cone.legs[1], FX, FB)], pairing, _square_at_source
    )


def verify_equaliser_preserved(f: XModMorphism, g: XModMorphism) -> dict:
    """Check that U sends the equaliser of f and g to the objectwise one.

    At each site object the inclusion must be a bijection onto the
    assignments on which U(f) and U(g) agree, and the inclusion natural.
    """
    cone = equaliser(f, g)
    FE = compute_presheaf(cone.apex)
    FC = compute_presheaf(f.source)

    # The agreeing assignments of an object are the product of the agreeing
    # elements of its fibers; each is numbered by its fiber positions.
    good = [[j for j, a in enumerate(fiber) if f.mapping[a] == g.mapping[a]] for fiber in FC.fibers]

    def inclusion(o: int, comps: Sequence[Sequence[tuple[int, ...]]]) -> tuple[int, int, dict | None]:
        agree = [0]
        for x in FC.site.object(o).xs:
            agree = [i * len(FC.fibers[x]) + j for i in agree for j in good[x]]
        mapped = comps[0][o]
        ok = sorted(mapped) == agree and len(set(mapped)) == len(mapped)
        return len(mapped), len(agree), None if ok else {"reason": "comparison is not a bijection"}

    return _comparison(
        "equaliser", cone.apex, [(cone.legs[0], FE, FC)], inclusion, _square_at_source
    )


def verify_coequaliser_preserved(f: XModMorphism, g: XModMorphism) -> dict:
    """Check that U sends the coequaliser of f and g, a regular epi, to one.

    The projection p is the coequaliser of its own kernel pair, so the
    comparison quotients each assignment set of U(target) by the relation
    the kernel pair induces and matches it against U(apex): same classes,
    objectwise surjective, and the projection natural.  Those three imply
    that the actions descend to the classes, so descent needs no check of
    its own.  The legs are the projection, whose squares are checked, and
    the kernel pair's two legs.
    """
    cocone = coequaliser(f, g)
    kp = kernel_pair(cocone.legs[0])
    FB = compute_presheaf(f.target)
    FQ = compute_presheaf(cocone.apex)
    FK = compute_presheaf(kp.apex)

    def classes(o: int, comps: Sequence[Sequence[tuple[int, ...]]]) -> tuple[int, int, dict | None]:
        proj, pair = comps[0][o], comps[1:]
        parent = list(range(FB.sizes[o]))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for ia, ib in zip(pair[0][o], pair[1][o]):
            ra, rb = find(ia), find(ib)
            if ra != rb:
                parent[rb] = ra
        by_class: dict[int, set[int]] = {}
        for j, q in enumerate(proj):
            by_class.setdefault(find(j), set()).add(q)
        # A well-defined class map onto Q_o from |Q_o| classes is one-to-one.
        well_defined = all(len(v) == 1 for v in by_class.values())
        surjective = len(set(proj)) == FQ.sizes[o]
        if well_defined and surjective and len(by_class) == FQ.sizes[o]:
            return len(by_class), FQ.sizes[o], None
        return len(by_class), FQ.sizes[o], {
            "reason": "class comparison is not a bijection",
            "well_defined": well_defined,
            "surjective": surjective,
        }

    maps = [(cocone.legs[0], FB, FQ), *((leg, FK, FB) for leg in kp.legs)]
    return _comparison(
        "coequaliser", cocone.apex, maps, classes,
        lambda name, source, j: {"generator": name, "index": j, "reason": "projection square"},
        squared=1,
    )


def generator_witness(m: XModMorphism) -> dict:
    """For a proper mono, a single-label map that fails to factor through it.

    Picks the least element outside the image, names it with its labelling,
    and verifies by fiber enumeration that no assignment into the source
    composes to it.
    """
    if not m.is_injective():
        raise NotMonoError(f"{m.source.name} -> {m.target.name} is not injective")
    image = set(m.mapping)
    if len(image) == m.target.group.order:
        raise IsIsoError(f"{m.source.name} -> {m.target.name} is an isomorphism")
    b = min(a for a in range(m.target.group.order) if a not in image)
    y = m.target.boundary.image[b]
    free = single_object(m.target.base, y)
    candidates = hom_set(free, m.source)
    factoring = [h for h in candidates if m.mapping[h[0]] == b]
    return {
        "pass": not factoring,
        "missed_element": b,
        "base_element": y,
        "assignment": [b],
        "candidates_checked": len(candidates),
    }
