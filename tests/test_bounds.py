"""Enumeration grids are built once per Bounds object and shared by every
search, without changing any grid a caller sees."""

import copy
import itertools
from fractions import Fraction

import pytest

import devs_scc.bounds as bounds_mod
from devs_scc.bounds import (
    DEFAULT_INT,
    DEFAULT_NAT,
    DEFAULT_RAT,
    input_grid,
    joint_space,
    sort_grid,
    time_points,
    var_grid,
)
from devs_scc.campaign import Campaign, load_plan, run_campaign
from devs_scc.check import validate_model
from devs_scc.parser import parse_bounds_file, parse_bounds_text
from devs_scc.values import (
    INF,
    INT,
    TAU,
    EnumSort,
    ExtSort,
    IntSort,
    Lit,
    NatSort,
    Num,
    RatSort,
    TimeSort,
    Tup,
    TupleSort,
    ext_base,
    ext_literals,
)
from tests.conftest import ELEVATOR_SELECTIONS, FIXTURES


def ref_times(b):
    """The time samples, built from scratch."""
    if b.time_samples is not None:
        return sorted(set(b.time_samples))
    consts = sorted(
        v.value for v in b.const_values.values() if isinstance(v, Num) and v.value >= 0
    )
    samples = {Fraction(0), *consts}
    for a, c in itertools.pairwise(consts):
        samples.add((a + c) / 2)
    if consts:
        samples.add(consts[-1] + 1)
    else:
        samples.update(Fraction(k) for k in range(1, 4))
    return sorted(samples)


def ref_sort_grid(b, sort, name=""):
    """A sort's grid, built from scratch on every call."""
    if isinstance(sort, NatSort):
        lo, hi = b.nat_ranges.get(name) or b.nat_ranges.get("") or DEFAULT_NAT
        return [Num(Fraction(k)) for k in range(max(lo, 0), hi + 1)]
    if isinstance(sort, IntSort):
        lo, hi = b.int_ranges.get(name) or b.int_ranges.get("") or DEFAULT_INT
        return [Num(Fraction(k)) for k in range(lo, hi + 1)]
    if isinstance(sort, RatSort):
        lo, hi, step = b.rat_grids.get(name) or b.rat_grids.get("") or DEFAULT_RAT
        out = []
        while lo <= hi:
            out.append(Num(lo))
            lo += step
        return out
    if isinstance(sort, TimeSort):
        return [Num(v) for v in ref_times(b)] + [INF]
    if isinstance(sort, EnumSort):
        return [Lit(n) for n in sort.literals]
    if isinstance(sort, ExtSort):
        return ref_sort_grid(b, ext_base(sort), name) + [Lit(n) for n in ext_literals(sort)]
    if isinstance(sort, TupleSort):
        parts = [ref_sort_grid(b, s, name) for s in sort.items]
        return [Tup(combo) for combo in itertools.product(*parts)]
    raise AssertionError(sort)


def ref_var_grid(b, name, sort):
    if name in b.value_sets:
        return list(b.value_sets[name])
    return ref_sort_grid(b, sort, name)


def ref_joint_space(model, b):
    return [
        ("x", ref_sort_grid(b, model.input_sort, "x") + [TAU]),
        ("t", [Num(v) for v in ref_times(b)]),
    ] + [(n, ref_var_grid(b, n, s)) for n, s in model.schema.vars]


@pytest.mark.parametrize("fixture", ["soda", "toggle", "elevator"])
def test_memoised_grids_equal_fresh_ones(fixture, request):
    model = request.getfixturevalue(fixture)
    b = parse_bounds_file(str(FIXTURES / f"{fixture}.bounds"))
    variables = [*model.schema.vars, ("x", model.input_sort)]
    # the first round builds each grid, the second reads it back
    for _ in range(2):
        for name, sort in variables:
            assert var_grid(b, name, sort) == ref_var_grid(b, name, sort), name
            assert sort_grid(b, sort, name) == ref_sort_grid(b, sort, name), name
        assert b.times() == ref_times(b)
        assert time_points(b) == [Num(v) for v in ref_times(b)]
        assert joint_space(model, b) == ref_joint_space(model, b)


def test_memoised_grids_follow_every_kind_of_range():
    b = parse_bounds_text(
        """
        bounds {
          const A = 4;
          nat default = 1..3;
          nat f = 0..1;
          int k = -2..1;
          rational d = 0..1 step 1/3;
          set s = {2, 0};
        }
        """
    )
    cases = [
        ("f", NatSort()), ("g", NatSort()), ("k", INT), ("j", INT),
        ("d", RatSort()), ("r", RatSort()), ("s", NatSort()), ("t", TimeSort()),
        ("p", TupleSort((NatSort(), IntSort()))),
        ("f", ExtSort(ExtSort(NatSort(), "none"), "all")),
    ]
    for _ in range(2):
        for name, sort in cases:
            assert var_grid(b, name, sort) == ref_var_grid(b, name, sort), name
            assert sort_grid(b, sort, name) == ref_sort_grid(b, sort, name), name


def test_changing_a_returned_grid_leaves_the_shared_one(elevator):
    b = parse_bounds_file(str(FIXTURES / "elevator.bounds"))
    fc = dict(elevator.schema.vars)["fc"]
    before = {
        "var": var_grid(b, "fc", fc),
        "sort": sort_grid(b, fc, "fc"),
        "times": b.times(),
        "points": time_points(b),
        "input": input_grid(b, elevator, with_tau=False),
        # the shared space itself, so a snapshot
        "joint": copy.deepcopy(joint_space(elevator, b)),
    }
    spoiled = [
        var_grid(b, "fc", fc),
        sort_grid(b, fc, "fc"),
        b.times(),
        time_points(b),
        input_grid(b, elevator, with_tau=False),
        input_grid(b, elevator, with_tau=True),
    ]
    for grid in spoiled:
        grid.reverse()
        grid.append(Lit("spoiled"))
    assert var_grid(b, "fc", fc) == before["var"]
    assert sort_grid(b, fc, "fc") == before["sort"]
    assert b.times() == before["times"]
    assert time_points(b) == before["points"]
    assert input_grid(b, elevator, with_tau=False) == before["input"]
    assert joint_space(elevator, b) == before["joint"]


def test_worked_campaign_builds_each_grid_once(elevator, elevator_tables, monkeypatch):
    builds: dict[tuple, int] = {}
    build = bounds_mod._build_grid

    def counting(b, sort, name):
        key = (id(b), sort, name)
        builds[key] = builds.get(key, 0) + 1
        return build(b, sort, name)

    monkeypatch.setattr(bounds_mod, "_build_grid", counting)
    b = parse_bounds_file(str(FIXTURES / "elevator.bounds"))
    _, checked = validate_model(elevator, b)
    assert checked.usable
    result = run_campaign(Campaign(
        model=elevator,
        bounds=b,
        tables=elevator_tables,
        selections=list(ELEVATOR_SELECTIONS),
        plan=load_plan(str(FIXTURES / "elevator.plan.json")),
    ))
    assert result.report.catalog_size == 92
    assert builds and {key[0] for key in builds} == {id(b)}
    assert max(builds.values()) == 1


def test_a_set_value_outside_its_sort_is_a_validation_error(toggle):
    b = parse_bounds_text("bounds { set m = {A, C}; time samples = {0, 1}; }")
    _, report = validate_model(toggle, b)
    assert not report.usable
    assert report.errors == ["bounds set m holds C, outside its sort enum {A, B}"]
    # no coverage sampling over the unreachable state
    assert report.warnings == []
    _, clean = validate_model(toggle, parse_bounds_text("bounds { set m = {B}; }"))
    assert clean.usable
