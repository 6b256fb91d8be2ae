"""Tests for crossed module validation, constructions, and morphisms."""

import itertools
import re

import pytest

from xmodp.errors import (
    BaseMismatchError,
    BudgetExceededError,
    CompositionMismatchError,
    IndexOutOfRangeError,
    PreconditionFailedError,
    ValidationError,
)
from xmodp.groups import (
    cyclic_group,
    enumerate_homs,
    klein_four_group,
    make_hom,
    normal_subgroups,
    symmetric_group_3,
    trivial_group,
)
from xmodp.xmod import (
    _fibers,
    all_crossed_modules,
    automorphism_xmod,
    central_extension_xmod,
    central_image_xmod,
    compose_xmod_morphisms,
    conjugation_xmod,
    crossed_module_violations,
    enumerate_morphisms,
    identity_xmod_morphism,
    make_crossed_module,
    make_xmod_morphism,
    morphism_violations,
    structure_key,
    trivial_action,
    trivial_xmod,
    validate_crossed_module,
    validate_morphism,
)

C2 = cyclic_group(2)
C3 = cyclic_group(3)
C4 = cyclic_group(4)


def _mod2_xmod():
    return make_crossed_module("A2", C4, C2, [0, 1, 0, 1], trivial_action(C2, C4).table)


def _id_xmod():
    return conjugation_xmod(C2, [0, 1])


def _trivial_boundary_xmod():
    return trivial_xmod(C2, C2)


def test_validate_clean_examples():
    assert validate_crossed_module(_mod2_xmod()) == ()
    assert validate_crossed_module(_id_xmod()) == ()
    assert validate_crossed_module(_trivial_boundary_xmod()) == ()


def test_cm2_violations_counted_exactly():
    # Trivial boundary plus trivial action needs an abelian group: every
    # noncommuting ordered pair is a CM2 witness.
    S3 = symmetric_group_3()
    base = trivial_group()
    violations = crossed_module_violations(
        S3, base, [0] * 6, trivial_action(base, S3).table
    )
    noncommuting = sum(
        1
        for m in range(6)
        for n in range(6)
        if S3.table[m][n] != S3.table[n][m]
    )
    assert noncommuting == 18
    assert len(violations) == 18
    assert all(v.axiom == "cm2" for v in violations)
    m, n = violations[0].witness
    assert S3.conj(m, n) != n


def test_cm2_violations_inversion_action():
    # Boundary mod 2 with the inversion action: CM1 holds, CM2 fails exactly
    # when an odd element should conjugate an odd element.
    violations = crossed_module_violations(
        C4, C2, [0, 1, 0, 1], [[0, 1, 2, 3], [0, 3, 2, 1]]
    )
    assert {v.axiom for v in violations} == {"cm2"}
    assert {v.witness for v in violations} == {(1, 1), (1, 3), (3, 1), (3, 3)}


def test_cm1_violations_witnessed():
    # V4 with second-bit boundary and an action swapping the two elements of
    # the kernel coset: the swap moves elements across boundary fibers.
    V4 = klein_four_group()
    violations = crossed_module_violations(
        V4, C2, [0, 0, 1, 1], [[0, 1, 2, 3], [0, 2, 1, 3]]
    )
    cm1 = {v.witness for v in violations if v.axiom == "cm1"}
    assert cm1 == {(1, 1), (1, 2)}


def test_action_violation_codes():
    broken_identity = crossed_module_violations(
        C3, C2, [0, 0, 0], [[0, 2, 1], [0, 1, 2]]
    )
    assert "action-identity" in {v.axiom for v in broken_identity}

    not_automorphism = crossed_module_violations(
        C3, C2, [0, 0, 0], [[0, 1, 2], [0, 1, 1]]
    )
    assert any(v.axiom.startswith("action-") for v in not_automorphism)


def test_make_crossed_module_raises_with_violations():
    S3 = symmetric_group_3()
    base = trivial_group()
    with pytest.raises(ValidationError) as err:
        make_crossed_module("bad", S3, base, [0] * 6, trivial_action(base, S3).table)
    assert len(err.value.violations) == 18
    assert "cm2" in str(err.value)


def test_fiber():
    A = _mod2_xmod()
    fibers, pos = _fibers(A)
    assert fibers[0] == [0, 2]
    assert fibers[1] == [1, 3]
    assert pos == [0, 0, 1, 1]


def test_conjugation_construction():
    S3 = symmetric_group_3()
    a3 = next(N for N in normal_subgroups(S3) if len(N) == 3)
    A = conjugation_xmod(S3, a3)
    assert A.group.order == 3
    assert A.boundary.image == a3
    assert validate_crossed_module(A) == ()
    # A transposition inverts the rotation subgroup.
    transposition = next(g for g in range(6) if g not in a3)
    assert A.act(transposition, 1) == A.group.inv(1)

    with pytest.raises(PreconditionFailedError):
        conjugation_xmod(C4, [0, 1])
    transposition_sub = next(
        (0, g) for g in range(1, 6) if S3.mul(g, g) == 0
    )
    with pytest.raises(PreconditionFailedError):
        conjugation_xmod(S3, transposition_sub)
    # C2 is abelian, so it acts on itself trivially.
    A1 = make_crossed_module("A1", C2, C2, [0, 1], trivial_action(C2, C2).table)
    assert structure_key(conjugation_xmod(C2, (0, 1))) == structure_key(A1)


@pytest.mark.parametrize("x", [-1, 4, True])
def test_conjugation_checks_its_element_indices(x):
    with pytest.raises(IndexOutOfRangeError, match=f"C4: element {re.escape(repr(x))} out of range"):
        conjugation_xmod(C4, [0, x, 2, 3])


def test_automorphism_construction():
    A = automorphism_xmod(C3)
    assert A.base.order == 2
    # Abelian source: every inner automorphism is the identity.
    assert A.boundary.image == (0, 0, 0)
    assert validate_crossed_module(A) == ()

    S3 = symmetric_group_3()
    B = automorphism_xmod(S3)
    assert B.base.order == 6
    assert B.boundary.is_injective() and B.boundary.is_surjective()
    assert validate_crossed_module(B) == ()


def test_trivial_construction():
    A = trivial_xmod(C3, C2)
    assert A.boundary.image == (0, 0, 0)
    assert validate_crossed_module(A) == ()

    B = trivial_xmod(C3, C2, action=[[0, 1, 2], [0, 2, 1]])
    assert validate_crossed_module(B) == ()
    assert B.act(1, 1) == 2

    with pytest.raises(PreconditionFailedError):
        trivial_xmod(symmetric_group_3(), C2)
    with pytest.raises(PreconditionFailedError):
        trivial_xmod(C3, C2, action=[[0, 2, 1], [0, 1, 2]])


def test_central_extension_construction():
    mu = make_hom(C4, C2, [0, 1, 0, 1])
    A = central_extension_xmod(mu)
    assert validate_crossed_module(A) == ()
    # Both preimages of the generator act the same way: C4 is abelian, so
    # conjugation by either of them is the identity.
    for m in range(4):
        assert C4.conj(1, m) == m == C4.conj(3, m)
        assert A.act(1, m) == m
    assert structure_key(A) == structure_key(_mod2_xmod())

    S3 = symmetric_group_3()
    B = central_extension_xmod(make_hom(S3, S3, tuple(range(6))))
    assert validate_crossed_module(B) == ()
    assert B.act(1, 3) == S3.conj(1, 3)

    sign = next(f for f in enumerate_homs(S3, C2) if f.is_surjective())
    with pytest.raises(PreconditionFailedError):
        central_extension_xmod(sign)
    with pytest.raises(PreconditionFailedError):
        central_extension_xmod(make_hom(C2, C4, [0, 2]))


def test_central_image_construction():
    A = central_image_xmod(make_hom(C2, C4, [0, 2]))
    assert A.boundary.image == (0, 2)
    assert validate_crossed_module(A) == ()

    S3 = symmetric_group_3()
    transposition = next(g for g in range(1, 6) if S3.mul(g, g) == 0)
    with pytest.raises(PreconditionFailedError):
        central_image_xmod(make_hom(C2, S3, [0, transposition]))
    with pytest.raises(PreconditionFailedError):
        central_image_xmod(make_hom(S3, S3, tuple(range(6))))


def test_morphism_validation():
    A2 = _mod2_xmod()
    A1 = _id_xmod()
    f = make_xmod_morphism(A2, A1, [0, 1, 0, 1])
    assert f(3) == 1
    assert validate_morphism(A2, A1, (0, 1, 0, 1)) == ()
    # Breaking the boundary square is reported with the right code.
    codes = {v.axiom for v in validate_morphism(A2, A1, (0, 0, 0, 0))}
    assert codes == {"map-boundary"}
    # A map of the wrong length is reported by its length and |M_A| alone.
    (shape,) = morphism_violations(A2, A1, (0, 1, 0))
    assert (shape.axiom, shape.witness) == ("map-shape", (3, 4))


def test_morphism_equivariance_violation():
    plain = trivial_xmod(C3, C2)
    twisted = trivial_xmod(C3, C2, action=[[0, 1, 2], [0, 2, 1]])
    codes = {v.axiom for v in validate_morphism(plain, twisted, (0, 1, 2))}
    assert codes == {"map-equivariant"}
    assert validate_morphism(plain, twisted, (0, 0, 0)) == ()


def test_morphism_base_mismatch():
    A = _id_xmod()
    S3 = symmetric_group_3()
    B = conjugation_xmod(S3, tuple(range(6)))
    with pytest.raises(BaseMismatchError):
        validate_morphism(A, B, (0, 0))


def test_morphism_composition():
    A2 = _mod2_xmod()
    A1 = _id_xmod()
    A3 = _trivial_boundary_xmod()
    f = make_xmod_morphism(A2, A1, [0, 1, 0, 1])
    incl = make_xmod_morphism(A3, A2, [0, 2])
    composite = compose_xmod_morphisms(f, incl)
    assert composite.mapping == (0, 0)
    ident = identity_xmod_morphism(A2)
    assert compose_xmod_morphisms(f, ident).mapping == f.mapping
    with pytest.raises(CompositionMismatchError):
        compose_xmod_morphisms(incl, f)


def test_enumerate_morphisms_counts_and_order():
    A2 = _mod2_xmod()
    homs = enumerate_morphisms(A2, A2)
    assert [h.mapping for h in homs] == [(0, 1, 2, 3), (0, 3, 2, 1)]
    assert len(enumerate_morphisms(_id_xmod(), A2)) == 0
    assert len(enumerate_morphisms(A2, _id_xmod())) == 1
    with pytest.raises(BudgetExceededError):
        enumerate_morphisms(A2, A2, budget=10)


def test_enumerate_morphisms_matches_filter_oracle():
    A2 = _mod2_xmod()
    A3 = _trivial_boundary_xmod()
    for A, B in [(A2, A2), (A3, A2), (A2, A3)]:
        fast = {f.mapping for f in enumerate_morphisms(A, B)}
        # Oracle: run the validator over every map.
        slow = {
            mapping
            for mapping in itertools.product(
                range(B.group.order), repeat=A.group.order
            )
            if validate_morphism(A, B, mapping) == ()
        }
        assert fast == slow


def test_all_crossed_modules_counts():
    expected = {
        trivial_group().name: 1,
        "C2": 2,
        "C3": 2,
        "C4": 3,
        "V4": 7,
    }
    groups = [trivial_group(), C2, C3, C4, klein_four_group()]
    for M in groups:
        found = all_crossed_modules(M, C2)
        assert len(found) == expected[M.name]
        keys = {structure_key(A) for A in found}
        assert len(keys) == len(found)
        for A in found:
            assert validate_crossed_module(A) == ()


def test_all_crossed_modules_nonabelian_over_trivial_base():
    # A trivial base forces a trivial action, and CM2 then forces the group
    # to be abelian: S3 admits no structure at all.
    assert all_crossed_modules(symmetric_group_3(), trivial_group()) == ()
