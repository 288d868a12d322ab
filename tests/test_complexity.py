import pytest

from charforge.complexity import CostParams, classify_group, estimate_cost
from charforge.errors import InvalidSpec, MissingGCost


def test_abelian_reference_value():
    est = estimate_cost(CostParams(case="abelian", k=4, m=10, n=1, order=4, dmax=1))
    assert est.value == 1340.0
    assert est.formula_text.endswith("= 1340")


def test_smallest_instance():
    est = estimate_cost(CostParams(case="abelian", k=1, m=1, n=1, order=1, dmax=1))
    assert est.value == 5.0


def test_general_with_unit_g_reduces_to_abelian():
    for k, m, order, d in [(4, 10, 4, 1), (2, 7, 4, 2), (5, 3, 25, 2)]:
        a = estimate_cost(CostParams(case="abelian", k=k, m=m, n=1, order=order, dmax=d))
        g = estimate_cost(CostParams(case="general", k=k, m=m, n=1, order=order,
                                     dmax=d, g_cost=1.0))
        assert a.value == g.value


def test_symmetric_case_hand_value():
    # 2*(3*2^2 + 6*(2^2 + 2^2*2^2 + 2^3)) + 2*2^2 = 2*(12 + 6*28) + 8 = 368
    est = estimate_cost(CostParams(case="symmetric", k=2, m=3, n=2, order=6, dmax=2))
    assert est.value == 368.0


def test_missing_g_cost():
    with pytest.raises(MissingGCost):
        estimate_cost(CostParams(case="general", k=2, m=2, n=1, order=2, dmax=1))


def test_monotone_in_every_parameter():
    base = dict(k=3, m=5, n=2, order=9, dmax=2)
    for case in ("abelian", "symmetric", "general"):
        kwargs = dict(base, case=case, g_cost=2.0)
        ref = estimate_cost(CostParams(**kwargs)).value
        for param in ("k", "m", "n", "order", "dmax"):
            bumped = dict(kwargs)
            bumped[param] += 1
            assert estimate_cost(CostParams(**bumped)).value >= ref
        bumped = dict(kwargs, g_cost=3.0)
        if case == "general":
            assert estimate_cost(CostParams(**bumped)).value >= ref


def test_classify(groups):
    assert classify_group(groups["c2"]) == "abelian"
    assert classify_group(groups["d4"]) == "general"


def test_kd2_bound_on_every_fixture(tables):
    # the bound claim C7 measures: k*D^2 >= |G| follows from sum d_i^2 = |G|
    for t in tables.values():
        dmax = int(t.degrees.max())
        assert t.k * dmax * dmax >= t.group_order


def test_invalid_params():
    with pytest.raises(InvalidSpec):
        CostParams(case="weird", k=1, m=1, n=1, order=1, dmax=1)
    with pytest.raises(InvalidSpec):
        CostParams(case="abelian", k=0, m=1, n=1, order=1, dmax=1)


@pytest.mark.parametrize("bad", [dict(k=1.5), dict(order="8"), dict(dmax=None),
                                 dict(g_cost=float("nan")), dict(g_cost=-5.0), dict(g_cost=0.0)])
def test_non_integer_or_non_positive_params_are_invalid(bad):
    with pytest.raises(InvalidSpec):
        CostParams(**{**dict(case="general", k=1, m=1, n=1, order=1, dmax=1), **bad})


# (case, params) whose cost is past the float range: an int past it, and a float product that overflows
PAST_FLOAT_RANGE = [
    ("abelian", dict(k=10 ** 400)),
    ("symmetric", dict(k=10 ** 200, n=2)),
    ("general", dict(k=10 ** 400, g_cost=1.0)),
    ("general", dict(g_cost=1e308)),
]


@pytest.mark.parametrize("case, params", PAST_FLOAT_RANGE)
def test_a_cost_past_the_float_range_is_invalid(case, params):
    p = CostParams(**{**dict(case=case, k=1, m=1, n=1, order=1, dmax=1), **params})
    with pytest.raises(InvalidSpec, match=f"^the {case} cost is past the float range for these inputs$"):
        estimate_cost(p)
