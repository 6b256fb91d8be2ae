"""Definition-level oracles that the tests compare the library with.

None of these is needed for the library's own answers: the unique
morphism into the terminal object, the assignment sets of a presheaf as
hom-sets, the functoriality of a presheaf on composites of generators by
word evaluation, and the Peiffer rewriting of words, whose evaluation the
crossed-module axioms leave unchanged.
"""

from xmodp.errors import PreconditionFailedError
from xmodp.limits import terminal_object
from xmodp.presheaf import presheaf_action
from xmodp.words import (
    Word,
    compose_site_morphisms,
    concat_words,
    hom_set,
    invert_word,
    translate_word,
    word_boundary,
)
from xmodp.xmod import XModMorphism


def unique_to_terminal(A):
    """The boundary of A, viewed as the only morphism into the terminal object."""
    return XModMorphism(A, terminal_object(A.base), A.boundary.image)


def assignment_sets(F):
    """The assignments of every object of F's site, in site order: the
    hom-set of the object's free object into F's crossed module."""
    return [hom_set(F.site.free(i), F.xmod) for i in range(F.site.object_count)]


def presheaf_composition_violations(F):
    """Generator pairs whose composite, acting by word evaluation, does not
    act as the composite of the two generators' index maps."""
    site = F.site
    ends = list(site.ends())
    bad = []
    for k, (f, (source, _)) in enumerate(zip(site.generators, ends)):
        for l, (g, (_, target)) in enumerate(zip(site.generators, ends)):
            if target != source:
                continue
            direct = presheaf_action(F, compose_site_morphisms(f, g))
            chained = tuple(F.actions[l][i] for i in F.actions[k])
            if direct != chained:
                bad.append((f.name, g.name))
    return tuple(bad)


def apply_peiffer_move(w, start, ulen, vlen):
    """Rewrite the subword u v u^-1 at start as the boundary-of-u translate of v.

    The word must literally contain u followed by v followed by the formal
    inverse of u.  Evaluation in any crossed module is unchanged, which is
    the second structure axiom in symbolic form.
    """
    end = start + 2 * ulen + vlen
    if start < 0 or ulen < 1 or vlen < 0 or end > len(w.syms):
        raise PreconditionFailedError(
            f"move (start={start}, ulen={ulen}, vlen={vlen}) does not fit length {len(w.syms)}"
        )
    u = Word(w.free, w.syms[start:start + ulen])
    v = Word(w.free, w.syms[start + ulen:start + ulen + vlen])
    if w.syms[start + ulen + vlen:end] != invert_word(u).syms:
        raise PreconditionFailedError("word does not contain the formal inverse of u after v")
    replacement = translate_word(v, word_boundary(u))
    return Word(free=w.free, syms=w.syms[:start] + replacement.syms + w.syms[end:])


def peiffer_word(u, v):
    """u v u^-1 times the inverse of the boundary translate; evaluates to 1."""
    return concat_words(u, v, invert_word(u), invert_word(translate_word(v, word_boundary(u))))
