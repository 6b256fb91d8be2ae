"""The work meter: one budget per command, charged where the search works.

groups._search charges a Work meter once per node, by the number of
candidates that node holds, and a sweep charges one unit per test cone.
A public call charges the meter of its caller when handed one, so the
budget bounds what a whole command does, not each search on its own.
"""

import pytest

from xmodp import limits
from xmodp.errors import BudgetExceededError, IndexOutOfRangeError
from xmodp.groups import DEFAULT_BUDGET, Work, _search, cyclic_group, klein_four_group, make_hom
from xmodp.limits import (
    equaliser,
    product_over_P,
    verify_equaliser,
    verify_product,
)
from xmodp.presheaf import compute_presheaf, enumerate_natural_transformations, verify_full_faithful
from xmodp.xmod import (
    central_image_xmod,
    enumerate_morphisms,
    identity_xmod_morphism,
    make_crossed_module,
    make_xmod_morphism,
    trivial_action,
)

C2 = cyclic_group(2)
C4 = cyclic_group(4)


def _mod2_xmod():
    return make_crossed_module("A2", C4, C2, [0, 1, 0, 1], trivial_action(C2, C4).table)


def _v_and_pv():
    """V4 over C2 with boundary [0, 0, 1, 1], and its square over C2."""
    V = central_image_xmod(make_hom(klein_four_group(), C2, [0, 0, 1, 1]), name="V")
    return V, product_over_P(V, V).apex


def _search_problem():
    # img[2] == img[0] + img[1] mod 3 and img[1] == img[0] + 1 mod 3.
    add3 = [[(u + v) % 3 for v in range(3)] for u in range(3)]
    return [range(3)] * 3, [(0, 1, 2, add3)], [(0, 1, (1, 2, 0))]


def test_search_charges_each_node_by_its_candidates():
    # The root tries 3 values, each of them 3 more at variable 1, of which
    # one per root value meets the move; those 3 nodes try 3 values each.
    work = Work(DEFAULT_BUDGET)
    assert _search(*_search_problem(), work, "search") == [(0, 1, 1), (1, 2, 0), (2, 0, 2)]
    assert work.used == 3 + 3 * 3 + 3 * 3


def test_budget_of_exactly_the_work_done_passes_and_one_less_raises():
    work = Work(DEFAULT_BUDGET)
    found = _search(*_search_problem(), work, "search")
    used = work.used
    assert _search(*_search_problem(), Work(used), "search") == found
    with pytest.raises(BudgetExceededError, match=f"toy search passes the budget: {used} units used, budget {used - 1}"):
        _search(*_search_problem(), Work(used - 1), "toy search")


def test_refusals_still_name_the_search():
    A2 = _mod2_xmod()
    with pytest.raises(BudgetExceededError, match="morphism search A2 -> A2"):
        enumerate_morphisms(A2, A2, budget=10)
    F2 = compute_presheaf(A2)
    with pytest.raises(BudgetExceededError, match="natural transformation search A2 -> A2"):
        enumerate_natural_transformations(F2, F2, budget=1)


def test_a_meter_passed_in_is_charged_and_not_replaced():
    A2 = _mod2_xmod()
    alone = Work(DEFAULT_BUDGET)
    homs = enumerate_morphisms(A2, A2, budget=alone)
    shared = Work(DEFAULT_BUDGET)
    assert enumerate_morphisms(A2, A2, budget=shared) == homs
    assert enumerate_morphisms(A2, A2, budget=shared) == homs
    assert 0 < alone.used and shared.used == 2 * alone.used


def test_verify_full_faithful_charges_both_searches_to_one_meter():
    _, PV = _v_and_pv()
    F = compute_presheaf(PV)
    homs, nats = Work(DEFAULT_BUDGET), Work(DEFAULT_BUDGET)
    enumerate_morphisms(PV, PV, budget=homs)
    enumerate_natural_transformations(F, F, budget=nats)
    assert homs.used > 0 and nats.used > 0
    # Each search fits in the larger of the two counts, but not both.
    budget = max(homs.used, nats.used)
    enumerate_morphisms(PV, PV, budget=budget)
    enumerate_natural_transformations(F, F, budget=budget)
    with pytest.raises(BudgetExceededError):
        verify_full_faithful(PV, PV, budget=budget)
    report = verify_full_faithful(PV, PV, budget=homs.used + nats.used)
    assert report["pass"] and report["budget"] == homs.used + nats.used


def test_sweep_charges_one_unit_per_test_cone(monkeypatch):
    # Measure what the sweep's morphism searches charge, cones aside, by
    # wrapping the search it calls; a budget of exactly that must raise.
    searched = []

    def spy(A, B, budget):
        before = budget.used
        out = enumerate_morphisms(A, B, budget=budget)
        searched.append(budget.used - before)
        return out

    A2 = _mod2_xmod()
    f = identity_xmod_morphism(A2)
    g = make_xmod_morphism(A2, A2, [0, 3, 2, 1])
    cone = equaliser(f, g)
    work = Work(DEFAULT_BUDGET)
    with monkeypatch.context() as m:
        m.setattr(limits, "enumerate_morphisms", spy)
        report = verify_equaliser(f, g, cone, budget=work)
    assert report["pass"] and report["cones_checked"] > 0
    assert work.used == sum(searched) + report["cones_checked"]
    with pytest.raises(BudgetExceededError):
        verify_equaliser(f, g, cone, budget=sum(searched))
    assert verify_equaliser(f, g, cone, budget=work.used)["pass"]


@pytest.mark.parametrize("budget", ["10", None, True, False, 1.5, 0, -1])
@pytest.mark.parametrize(
    "call", ["enumerate_morphisms", "enumerate_natural_transformations", "verify_full_faithful", "verify_product"]
)
def test_a_budget_that_is_not_a_positive_int_is_refused(call, budget):
    # As default_catalogue refuses its bound: a str, None, a bool or a
    # float is not an int budget, and a budget below 1 admits no work.
    A2 = _mod2_xmod()
    F2 = compute_presheaf(A2)
    calls = {
        "enumerate_morphisms": lambda: enumerate_morphisms(A2, A2, budget=budget),
        "enumerate_natural_transformations": lambda: enumerate_natural_transformations(F2, F2, budget=budget),
        "verify_full_faithful": lambda: verify_full_faithful(A2, A2, budget=budget),
        "verify_product": lambda: verify_product(A2, A2, product_over_P(A2, A2), budget=budget),
    }
    with pytest.raises(IndexOutOfRangeError, match=f"budget must be an int of at least 1, got {budget!r}"):
        calls[call]()


def test_cheap_answers_fit_the_default_budget():
    # A priori, PV -> PV had 16^8 maps to price and was refused; the
    # searches themselves are small.
    V, PV = _v_and_pv()
    report = verify_full_faithful(PV, PV)
    assert report["pass"] and report["hom_count"] == report["nat_count"] == 64
    sweep = verify_product(PV, V, product_over_P(PV, V))
    assert sweep["pass"] and sweep["cones_checked"] == sweep["commuting"] == 835
