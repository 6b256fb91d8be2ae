"""Seeded session files for the benchmark.

Every structure is first written in a canonical labelling (identity at
index 0) from plain tables built here, without importing xmodp, so the
inputs do not depend on the code under test.  A session is then
relabelled: each group gets its own random permutation of its elements,
drawn from the seed, that moves the identity off index 0, and boundaries,
actions, morphism maps and pair sets are rewritten to match.  The program
only ever sees the relabelled files.
"""

from __future__ import annotations

import itertools
import random

# Groups: canonical multiplication tables with the identity at index 0.


def cyclic(n: int) -> list[list[int]]:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def klein() -> list[list[int]]:
    return [[a ^ b for b in range(4)] for a in range(4)]


def symmetric(k: int) -> list[list[int]]:
    """S_k on permutations in lexicographic order; i * j applies j first."""
    perms = sorted(itertools.permutations(range(k)))
    idx = {p: i for i, p in enumerate(perms)}
    return [[idx[tuple(p[q[x]] for x in range(k))] for q in perms] for p in perms]


def _gl23_elements() -> list[tuple[int, int, int, int]]:
    mats = [
        m for m in itertools.product(range(3), repeat=4)
        if (m[0] * m[3] - m[1] * m[2]) % 3
    ]
    mats.remove((1, 0, 0, 1))
    return [(1, 0, 0, 1)] + mats


def _gl23_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % 3, (a * f + b * h) % 3, (c * e + d * g) % 3, (c * f + d * h) % 3)


def gl23() -> list[list[int]]:
    """GL(2,3), order 48."""
    mats = _gl23_elements()
    idx = {m: i for i, m in enumerate(mats)}
    return [[idx[_gl23_mul(x, y)] for y in mats] for x in mats]


def gl23_to_s4() -> list[int]:
    """GL(2,3) -> S4 through the action on the four lines of F_3^2.

    The kernel is the scalars {I, -I}, which are central; the image is
    PGL(2,3), all of S4.
    """
    lines = [(0, 1), (1, 0), (1, 1), (1, 2)]

    def line_of(v):
        for i, (p, q) in enumerate(lines):
            if (v[0] * q - v[1] * p) % 3 == 0:
                return i
        raise ValueError(v)

    s4 = sorted(itertools.permutations(range(4)))
    pos = {p: i for i, p in enumerate(s4)}
    out = []
    for a, b, c, d in _gl23_elements():
        perm = tuple(line_of(((a * p + b * q) % 3, (c * p + d * q) % 3)) for p, q in lines)
        out.append(pos[perm])
    return out


def direct(G: list[list[int]], H: list[list[int]]) -> list[list[int]]:
    """G x H on index g * |H| + h."""
    n, m = len(G), len(H)
    return [
        [G[a // m][b // m] * m + H[a % m][b % m] for b in range(n * m)]
        for a in range(n * m)
    ]


def inverses(G: list[list[int]]) -> list[int]:
    return [next(b for b in range(len(G)) if G[a][b] == 0) for a in range(len(G))]


def conjugate(G: list[list[int]], inv: list[int], x: int, m: int) -> int:
    return G[G[x][m]][inv[x]]


# Crossed modules in canonical labels: (M, P, boundary, action).


def over_trivially(M: str, P: str, boundary: list[int], groups: dict) -> dict:
    """Abelian M with the given boundary and the trivial action."""
    n, k = len(groups[M]), len(groups[P])
    return {"M": M, "P": P, "boundary": list(boundary), "action": [list(range(n)) for _ in range(k)]}


def trivial_xmod(M: str, P: str, groups: dict) -> dict:
    """Abelian M with the identity boundary and the trivial action."""
    return over_trivially(M, P, [0] * len(groups[M]), groups)


def conjugation_xmod(G: str, groups: dict) -> dict:
    """G over itself: identity boundary, conjugation action."""
    T = groups[G]
    inv = inverses(T)
    n = len(T)
    return {
        "M": G,
        "P": G,
        "boundary": list(range(n)),
        "action": [[conjugate(T, inv, p, m) for m in range(n)] for p in range(n)],
    }


def central_extension(M: str, P: str, mu: list[int], groups: dict) -> dict:
    """Surjective mu: M -> P with central kernel; p acts by conjugating with a preimage."""
    T = groups[M]
    inv = inverses(T)
    pre = {}
    for x, p in enumerate(mu):
        pre.setdefault(p, x)
    action = [
        [conjugate(T, inv, pre[p], m) for m in range(len(T))]
        for p in range(len(groups[P]))
    ]
    return {"M": M, "P": P, "boundary": list(mu), "action": action}


# Relabelling.


def _relabelling(rng: random.Random, n: int) -> list[int]:
    """A permutation of range(n) that moves 0 whenever n > 1."""
    perm = list(range(n))
    rng.shuffle(perm)
    if n > 1 and perm[0] == 0:
        j = rng.randrange(1, n)
        perm[0], perm[j] = perm[j], perm[0]
    return perm


def relabel(doc: dict, rng: random.Random) -> tuple[dict, dict[str, list[int]]]:
    """Rewrite a canonical session document under fresh element labels.

    Returns the new document and, per group name, the permutation used
    (canonical index -> new index), so command arguments that name base
    elements can be rewritten too.
    """
    sigma = {}
    groups = []
    for g in doc["groups"]:
        s = _relabelling(rng, g["order"])
        sigma[g["name"]] = s
        table = [[0] * g["order"] for _ in range(g["order"])]
        for a, row in enumerate(g["table"]):
            for b, c in enumerate(row):
                table[s[a]][s[b]] = s[c]
        groups.append({"name": g["name"], "order": g["order"], "table": table})
    xmods, carrier = [], {}
    for x in doc["xmods"]:
        sm, sp = sigma[x["M"]], sigma[x["P"]]
        carrier[x["name"]] = sm
        n, k = len(sm), len(sp)
        boundary = [0] * n
        for m, v in enumerate(x["boundary"]):
            boundary[sm[m]] = sp[v]
        action = [[0] * n for _ in range(k)]
        for p, row in enumerate(x["action"]):
            for m, v in enumerate(row):
                action[sp[p]][sm[m]] = sm[v]
        xmods.append(dict(x, boundary=boundary, action=action))
    morphisms = []
    for f in doc.get("morphisms", []):
        sa, sb = carrier[f["from"]], carrier[f["to"]]
        mapping = [0] * len(sa)
        for m, v in enumerate(f["map"]):
            mapping[sa[m]] = sb[v]
        morphisms.append(dict(f, map=mapping))
    pairsets = []
    for e in doc.get("pairsets", []):
        s = carrier[e["carrier"]]
        pairs = sorted([s[a], s[b]] for a, b in e["pairs"])
        pairsets.append(dict(e, pairs=pairs))
    return dict(doc, groups=groups, xmods=xmods, morphisms=morphisms, pairsets=pairsets), sigma


def corrupt_action(doc: dict, xmod: str, rng: random.Random) -> dict:
    """Change one action entry of one crossed module to a wrong value.

    The document must be in canonical labels, so base element 0 is the
    identity.  The entry sits in a row of a non-identity base element; the
    new value makes that row non-injective, so the row is no longer an
    automorphism and validation must report a violation with its witness.
    """
    xmods = []
    for x in doc["xmods"]:
        if x["name"] == xmod:
            action = [list(r) for r in x["action"]]
            p = rng.randrange(1, len(action))
            m = rng.randrange(len(action[p]))
            action[p][m] = rng.choice([v for v in range(len(action[p])) if v != action[p][m]])
            x = dict(x, action=action)
        xmods.append(x)
    return dict(doc, xmods=xmods)


# Canonical sessions.


def _doc(base: str, groups: dict, xmods: dict, morphisms=None, pairsets=None, catalogue_order=4) -> dict:
    return {
        "base": base,
        "groups": [{"name": n, "order": len(t), "table": t} for n, t in groups.items()],
        "xmods": [dict(x, name=n) for n, x in xmods.items()],
        "morphisms": [
            {"name": n, "from": a, "to": b, "map": list(m)} for n, (a, b, m) in (morphisms or {}).items()
        ],
        "pairsets": [
            {"name": n, "carrier": c, "pairs": [list(p) for p in ps]} for n, (c, ps) in (pairsets or {}).items()
        ],
        "options": {"catalogue_order": catalogue_order, "budget": 10_000_000},
    }


def kernel_pairs(mapping: list[int]) -> list[tuple[int, int]]:
    return [(a, b) for a in range(len(mapping)) for b in range(len(mapping)) if mapping[a] == mapping[b]]


# prod(V, V): pairs of V4 elements with equal boundary a >> 1.
_V_PAIRS = [(a, b) for a in range(4) for b in range(4) if a >> 1 == b >> 1]


def base_c2(catalogue_order: int = 4) -> dict:
    """Base C2: the README's A1, A2 and A3, and the modules the mixes need.

    V and tV are V4 over C2 with boundary a >> 1 and with the trivial
    boundary; B6 is C6 onto C2; T4, T5 and T6 are trivial modules; PV is
    prod(V, V).
    """
    groups = {
        "C2": cyclic(2),
        "C4": cyclic(4),
        "V4": klein(),
        "C6": cyclic(6),
        "C5": cyclic(5),
        "V4xV4|8": [[_V_PAIRS.index((a ^ c, b ^ d)) for c, d in _V_PAIRS] for a, b in _V_PAIRS],
    }
    mod2_c4 = [m % 2 for m in range(4)]
    xmods = {
        "A1": conjugation_xmod("C2", groups),
        "A2": over_trivially("C4", "C2", mod2_c4, groups),
        "A3": trivial_xmod("C2", "C2", groups),
        "V": over_trivially("V4", "C2", [0, 0, 1, 1], groups),
        "tV": trivial_xmod("V4", "C2", groups),
        "B6": over_trivially("C6", "C2", [m % 2 for m in range(6)], groups),
        "T5": trivial_xmod("C5", "C2", groups),
        "T4": trivial_xmod("C4", "C2", groups),
        "T6": trivial_xmod("C6", "C2", groups),
        "PV": over_trivially("V4xV4|8", "C2", [a >> 1 for a, _ in _V_PAIRS], groups),
    }
    morphisms = {
        "f": ("A2", "A1", mod2_c4),
        "neg": ("A2", "A2", [(-m) % 4 for m in range(4)]),
        "id2": ("A2", "A2", list(range(4))),
        "incl": ("A3", "A2", [0, 2]),
        "a3v": ("A3", "tV", [0, 1]),
        "neg6": ("B6", "B6", [(-m) % 6 for m in range(6)]),
        "id6": ("B6", "B6", list(range(6))),
        "vf": ("V", "A1", [0, 0, 1, 1]),
        "pv1": ("PV", "V", [a for a, _ in _V_PAIRS]),
    }
    pairsets = {"K": ("A2", kernel_pairs(mod2_c4))}
    return _doc("C2", groups, xmods, morphisms, pairsets, catalogue_order)


def base_v4(catalogue_order: int = 4) -> dict:
    """Base V4: V4 over itself, with C2 and C4 mapped into it."""
    groups = {"V4": klein(), "C2": cyclic(2), "C4": cyclic(4)}
    xmods = {
        "W": conjugation_xmod("V4", groups),
        "L": over_trivially("C2", "V4", [0, 1], groups),
        "Q": over_trivially("C4", "V4", [0, 1, 0, 1], groups),
    }
    morphisms = {
        "l": ("L", "W", [0, 1]),
        "q": ("Q", "W", [0, 1, 0, 1]),
        "ql": ("Q", "L", [0, 1, 0, 1]),
    }
    pairsets = {"KQ": ("Q", kernel_pairs([0, 1, 0, 1]))}
    return _doc("V4", groups, xmods, morphisms, pairsets, catalogue_order)


def base_s3() -> dict:
    """Base S3: T = triv(C6,S3) and X = T x T declared as triv(C6 x C6, S3)."""
    c6 = cyclic(6)
    groups = {"S3": symmetric(3), "C6": c6, "C6xC6": direct(c6, c6)}
    xmods = {
        "T": trivial_xmod("C6", "S3", groups),
        "X": trivial_xmod("C6xC6", "S3", groups),
    }
    return _doc("S3", groups, xmods)


def base_s4() -> dict:
    """Base S4: central extensions GL(2,3) -> S4 and C2 x GL(2,3) -> S4."""
    g48 = gl23()
    mu48 = gl23_to_s4()
    groups = {"S4": symmetric(4), "GL23": g48, "C2xGL23": direct(cyclic(2), g48), "C2": cyclic(2)}
    mu96 = [mu48[m % 48] for m in range(96)]
    xmods = {
        "E48": central_extension("GL23", "S4", mu48, groups),
        "E96": central_extension("C2xGL23", "S4", mu96, groups),
        "Z2": trivial_xmod("C2", "S4", groups),
    }
    morphisms = {
        "i48": ("E48", "E96", list(range(48))),
        "z": ("Z2", "E48", [0, _gl23_elements().index((2, 0, 0, 2))]),
    }
    return _doc("S4", groups, xmods, morphisms)
