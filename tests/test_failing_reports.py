"""Whole reports of failing exactness comparisons, pinned.

Each comparison below is handed a cone or cocone whose leg is no
morphism, or a wrong cone over real morphisms, by patching the limit
construction that presheaf imports.  The legs are real element maps:
- the identity map of V4 from "fixed" (C2 acting trivially) to "swap" (C2
  swapping 1 and 2) respects the boundaries but not the action, so its
  move squares m[1,0] fail at indices 1 and 2;
- the bijection (0, 1, 3, 2) of C4 over C2, trivial boundary and action,
  respects both but is not multiplicative, so only sigma squares fail;
- the wrong cones of test_presheaf and test_exact_on_generators, whose
  legs are morphisms, fail at objects.
Every row of "objects" and every entry of "failures" is pinned, in order,
so a change to how a comparison finds or lists its failures shows here.
"""

import pytest

from oracles import unique_to_terminal
from xmodp import presheaf
from xmodp.groups import cyclic_group, klein_four_group, trivial_group
from xmodp.limits import Cocone, Cone, terminal_object
from xmodp.presheaf import verify_coequaliser_preserved, verify_equaliser_preserved, verify_product_preserved
from xmodp.xmod import (
    XModMorphism,
    conjugation_xmod,
    identity_xmod_morphism,
    make_crossed_module,
    make_xmod_morphism,
    trivial_action,
    trivial_xmod,
)

C2, C4, V4 = cyclic_group(2), cyclic_group(4), klein_four_group()
SWAP = trivial_xmod(V4, C2, [[0, 1, 2, 3], [0, 2, 1, 3]], name="swap")
FIXED = trivial_xmod(V4, C2, name="fixed")
UNEQUIVARIANT = XModMorphism(FIXED, SWAP, (0, 1, 2, 3))
FLAT_C4 = trivial_xmod(C4, C2, name="flat")
UNMULTIPLICATIVE = XModMorphism(FLAT_C4, FLAT_C4, (0, 1, 3, 2))
A2 = make_crossed_module("A2", C4, C2, [0, 1, 0, 1], trivial_action(C2, C4).table)


def _product(leg):
    """A product cone of leg's target and the terminal object, with apex
    leg's source."""
    X = leg.source
    T = terminal_object(X.base)
    return Cone("product", X, (leg, unique_to_terminal(X)), tuple(range(X.group.order))), (leg.target, T)


def _case(kind, monkeypatch):
    """Patch the construction of one case; return its verifier and arguments."""
    if kind in ("product-unequivariant", "product-unmultiplicative"):
        cone, (A, B) = _product(UNEQUIVARIANT if kind == "product-unequivariant" else UNMULTIPLICATIVE)
        monkeypatch.setattr(presheaf, "product_over_P", lambda X, Y: cone)
        return verify_product_preserved, (A, B)
    if kind in ("equaliser-unequivariant", "equaliser-unmultiplicative"):
        leg = UNEQUIVARIANT if kind == "equaliser-unequivariant" else UNMULTIPLICATIVE
        ident = identity_xmod_morphism(leg.target)
        cone = Cone("equaliser", leg.source, (leg,), tuple(range(4)))
        monkeypatch.setattr(presheaf, "equaliser", lambda u, v: cone)
        return verify_equaliser_preserved, (ident, ident)
    if kind in ("coequaliser-unequivariant", "coequaliser-unmultiplicative"):
        leg = UNEQUIVARIANT if kind == "coequaliser-unequivariant" else UNMULTIPLICATIVE
        ident = identity_xmod_morphism(leg.source)
        cocone = Cocone("coequaliser", leg.target, (leg,), tuple((a,) for a in range(4)))
        monkeypatch.setattr(presheaf, "coequaliser", lambda u, v: cocone)
        return verify_coequaliser_preserved, (ident, ident)
    if kind == "product-diagonal":
        ident = identity_xmod_morphism(A2)
        cone = Cone("product", A2, (ident, ident), tuple((a, a) for a in range(4)))
        monkeypatch.setattr(presheaf, "product_over_P", lambda X, Y: cone)
        return verify_product_preserved, (A2, A2)
    if kind == "equaliser-too-small":
        f = make_xmod_morphism(A2, conjugation_xmod(C2, [0, 1]), [0, 1, 0, 1])
        incl = make_xmod_morphism(trivial_xmod(C2, C2), A2, [0, 2])
        cone = Cone("equaliser", incl.source, (incl,), (0, 2))
        monkeypatch.setattr(presheaf, "equaliser", lambda u, v: cone)
        return verify_equaliser_preserved, (f, f)
    if kind == "coequaliser-not-onto":
        flat = trivial_xmod(C2, C2)
        incl = make_xmod_morphism(flat, A2, [0, 2])
        cocone = Cocone("coequaliser", A2, (incl,), ((0,), (1,)))
        monkeypatch.setattr(presheaf, "coequaliser", lambda u, v: cocone)
        ident = identity_xmod_morphism(flat)
        return verify_coequaliser_preserved, (ident, ident)
    # A C2 over C2 with an empty fiber over 1, beside which single(0) fails.
    A = trivial_xmod(C2, C2)
    ident = identity_xmod_morphism(A)
    if kind == "product-beside-empty-fiber":
        cone = Cone("product", A, (ident, ident), ((0, 0), (1, 1)))
        monkeypatch.setattr(presheaf, "product_over_P", lambda X, Y: cone)
        return verify_product_preserved, (A, A)
    one = trivial_xmod(trivial_group(), C2)
    cone = Cone("equaliser", one, (make_xmod_morphism(one, A, [0]),), (0,))
    monkeypatch.setattr(presheaf, "equaliser", lambda u, v: cone)
    return verify_equaliser_preserved, (ident, ident)


def _rows(*rows):
    """Rows of "objects" over base C2: the site's six objects in order,
    each given as (lhs_size, rhs_size, ok)."""
    names = ["single(0)", "single(1)", "pair(0,0)", "pair(0,1)", "pair(1,0)", "pair(1,1)"]
    return [{"object": o, "lhs_size": l, "rhs_size": r, "ok": ok} for o, (l, r, ok) in zip(names, rows)]


def _squares(source, *squares):
    """Failed squares of a product or equaliser leg, all out of source."""
    return [{"object": source, "generator": g, "index": j} for g, j in squares]


def _projection(*squares):
    return [{"generator": g, "index": j, "reason": "projection square"} for g, j in squares]


# The sigma[0,0] squares at (a, b), index 4a + b, where the C4 map fails:
# f(a + b) != f(a) + f(b).
SIGMA = [("sigma[0,0]", 4 * a + b) for a, b in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (3, 3)]]
MOVE = [("m[1,0]", 1), ("m[1,0]", 2)]
# Every object passes in the cases with a non-natural leg.
NATURAL_ROWS = _rows((4, 4, True), (0, 0, True), (16, 16, True), (0, 0, True), (0, 0, True), (0, 0, True))
SMALL_ROWS = _rows((2, 2, True), (0, 2, False), (4, 4, True), (0, 4, False), (0, 4, False), (0, 4, False))


def _at(reason, *objects, **fields):
    return [{"object": o, "reason": reason, **fields} for o in objects]


EXPECTED = {
    "product-unequivariant": (NATURAL_ROWS, _squares("single(0)", *MOVE)),
    "product-unmultiplicative": (NATURAL_ROWS, _squares("single(0)", *SIGMA)),
    "equaliser-unequivariant": (NATURAL_ROWS, _squares("single(0)", *MOVE)),
    "equaliser-unmultiplicative": (NATURAL_ROWS, _squares("single(0)", *SIGMA)),
    "coequaliser-unequivariant": (NATURAL_ROWS, _projection(*MOVE)),
    "coequaliser-unmultiplicative": (NATURAL_ROWS, _projection(*SIGMA)),
    "product-diagonal": (
        _rows((2, 4, False), (2, 4, False), (4, 16, False), (4, 16, False), (4, 16, False), (4, 16, False)),
        _at("pairing is not a bijection", "single(0)", "single(1)", "pair(0,0)", "pair(0,1)", "pair(1,0)", "pair(1,1)"),
    ),
    "equaliser-too-small": (
        SMALL_ROWS,
        _at("comparison is not a bijection", "single(1)", "pair(0,1)", "pair(1,0)", "pair(1,1)"),
    ),
    "coequaliser-not-onto": (
        SMALL_ROWS,
        _at(
            "class comparison is not a bijection", "single(1)", "pair(0,1)", "pair(1,0)", "pair(1,1)",
            well_defined=True, surjective=False,
        ),
    ),
    "product-beside-empty-fiber": (
        _rows((2, 4, False), (0, 0, True), (4, 16, False), (0, 0, True), (0, 0, True), (0, 0, True)),
        _at("pairing is not a bijection", "single(0)", "pair(0,0)"),
    ),
    "equaliser-beside-empty-fiber": (
        _rows((1, 2, False), (0, 0, True), (1, 4, False), (0, 0, True), (0, 0, True), (0, 0, True)),
        _at("comparison is not a bijection", "single(0)", "pair(0,0)"),
    ),
}


@pytest.mark.parametrize("kind", list(EXPECTED))
def test_failing_report_is_pinned(monkeypatch, kind):
    verify, args = _case(kind, monkeypatch)
    report = verify(*args)
    objects, failures = EXPECTED[kind]
    assert report["pass"] is False
    assert report["objects"] == objects
    assert report["failures"] == failures
