"""Enumeration grids: `bounds.grid` builds each one afresh from plain
bounds data, and a `Context` keeps each one it uses, with the time grid
and the search spaces, shared read-only by every search over it."""

import copy
import itertools
import re
from fractions import Fraction

import pytest

import devs_scc.context as context_mod
import devs_scc.sequencer as sequencer
from devs_scc.bounds import DEFAULT_INT, DEFAULT_NAT, DEFAULT_RAT, Bounds, grid
from devs_scc.campaign import Campaign, load_plan, run_campaign
from devs_scc.check import validate_model
from devs_scc.context import Context
from devs_scc.parser import parse_bounds_file, parse_bounds_text
from devs_scc.values import (
    INF,
    INT,
    TAU,
    TIME,
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
    for a, c in itertools.pairwise(sorted(samples)):
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


def ref_pair_space(model, b, with_tau):
    xs = ref_sort_grid(b, model.input_sort, "x")
    return [("x", xs + [TAU] if with_tau else xs), ("t", [Num(v) for v in ref_times(b)])]


def ref_state_space(model, b):
    return [(n, ref_var_grid(b, n, s)) for n, s in model.schema.vars]


@pytest.mark.parametrize("fixture", ["soda", "toggle", "elevator"])
def test_memoised_grids_equal_fresh_ones(fixture, request):
    model = request.getfixturevalue(fixture)
    b = parse_bounds_file(str(FIXTURES / f"{fixture}.bounds"))
    ctx = Context(model, b)
    variables = [*model.schema.vars, ("x", model.input_sort)]
    first = {}
    # the first round builds each grid, the second reads it back
    for _ in range(2):
        for name, sort in variables:
            assert grid(b, name, sort) == ref_var_grid(b, name, sort), name
            assert ctx.grid(name, sort) == ref_var_grid(b, name, sort), name
            assert first.setdefault(name, ctx.grid(name, sort)) is ctx.grid(name, sort)
        assert [v.value for v in ctx.times] == ref_times(b)
        assert ctx.state_space == ref_state_space(model, b)
        assert ctx.pair_spaces == (ref_pair_space(model, b, False), ref_pair_space(model, b, True))
        assert ctx.joint_space == ref_pair_space(model, b, True) + ref_state_space(model, b)
    # the spaces share the context's grids
    assert all(g is ctx.grid(n, s) for (n, g), (_, s) in zip(ctx.state_space, model.schema.vars))
    assert ctx.joint_space[2:] == ctx.state_space
    assert all(j[1] is s[1] for j, s in zip(ctx.joint_space[2:], ctx.state_space))
    assert ctx.pair_spaces[False][0][1] is ctx.grid("x", model.input_sort)
    assert all(space[1][1] is ctx.times for space in (*ctx.pair_spaces, ctx.joint_space))


def test_the_derived_time_grid_has_a_point_between_zero_and_the_smallest_constant():
    """Elevator's bounds, which have no `time samples` line, derive
    exactly the samples such a line listed: the midpoints run from 0, so
    the gap below TD1 has its point 1."""
    text = (FIXTURES / "elevator.bounds").read_text(encoding="utf-8")
    derived = parse_bounds_text(text)
    assert derived.time_samples is None
    want = [0, 1, 2, Fraction(5, 2), 3, 4, 5, Fraction(13, 2), 8, 9]
    assert grid(derived, "t", TIME) == [Num(v) for v in want] + [INF]
    line = "  time samples = {0, 1, TD1, 5/2, TD2, 4, TA, 13/2, TGF, 9};\n"
    explicit = parse_bounds_text(text.replace("  max attempts", line + "  max attempts"))
    assert explicit.time_samples is not None
    assert grid(derived, "t", TIME) == grid(explicit, "t", TIME)
    assert ref_times(derived) == want


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
    ctx = Context(None, b)
    for _ in range(2):
        for name, sort in cases:
            assert grid(b, name, sort) == ref_var_grid(b, name, sort), name
            assert ctx.grid(name, sort) == ref_var_grid(b, name, sort), name
    assert len(ctx.grids) == len(cases)
    assert [v.value for v in ctx.times] == ref_times(b)


def _worked(model, bounds, tables):
    return Campaign(
        model=model,
        bounds=bounds,
        tables=tables,
        selections=list(ELEVATOR_SELECTIONS),
        plan=load_plan(str(FIXTURES / "elevator.plan.json")),
    )


def _spaces(ctx):
    """The time grid and the spaces a context hands out."""
    return [ctx.times, ctx.state_space, *ctx.pair_spaces, ctx.joint_space]


def test_changing_a_returned_grid_leaves_the_shared_one(elevator, elevator_tables):
    """The builder hands out a fresh list on every call, and a campaign
    leaves the grids and spaces of its context as it found them."""
    b = parse_bounds_file(str(FIXTURES / "elevator.bounds"))
    fc = dict(elevator.schema.vars)["fc"]
    campaign = _worked(elevator, b, elevator_tables)
    ctx = campaign.context()
    spaces, grids = _spaces(ctx), dict(ctx.grids)
    before = copy.deepcopy([spaces, grids])
    spoiled = [grid(b, "fc", fc), grid(b, "", TIME), grid(b, "x", elevator.input_sort)]
    for made in spoiled:
        made.reverse()
        made.append(Lit("spoiled"))
    assert grid(b, "fc", fc) == ctx.grid("fc", fc) == ref_var_grid(b, "fc", fc)
    assert [_spaces(ctx), ctx.grids] == before
    assert len(run_campaign(campaign).catalog) == 92
    # the same objects, unchanged, beside the grids the campaign added
    assert all(a is c for a, c in zip(_spaces(ctx), spaces))
    assert all(ctx.grids[key] is made for key, made in grids.items())
    assert [spaces, grids] == before


def test_worked_campaign_builds_each_grid_once(elevator, elevator_tables, monkeypatch):
    """Over a worked set-up (bounded checks, then a campaign), each
    context builds each (name, sort) grid once, and chaining searches the
    campaign context's own pair spaces rather than building one a step."""
    made, builds, spaces = [], [], []
    init, build, search = Context.__init__, context_mod.build_grid, sequencer.satisfiable
    monkeypatch.setattr(Context, "__init__", lambda self, *a: made.append(self) or init(self, *a))
    monkeypatch.setattr(context_mod, "build_grid",
                        lambda b, n, s: builds.append((id(b), n, s)) or build(b, n, s))
    monkeypatch.setattr(sequencer, "satisfiable",
                        lambda form, space, *a, **k: spaces.append(space) or search(form, space, *a, **k))
    b = parse_bounds_file(str(FIXTURES / "elevator.bounds"))
    _, checked = validate_model(elevator, b)
    assert checked.usable
    campaign = _worked(elevator, b, elevator_tables)
    result = run_campaign(campaign)
    assert len(result.catalog) == 92
    assert len(made) >= 2 and {key[0] for key in builds} == {id(b)}
    # every build lands in one context's table, so none is built twice there
    assert len(builds) == sum(len(ctx.grids) for ctx in made)
    assert len(builds) > len(set(builds))  # the checks' context and the campaign's
    ctx = campaign.context()
    assert len(spaces) > 3
    assert all(s is ctx.pair_spaces[0] or s is ctx.pair_spaces[1] for s in spaces)


def test_bounds_hold_no_derived_state_after_a_campaign(elevator, elevator_tables):
    path = str(FIXTURES / "elevator.bounds")
    b = parse_bounds_file(path)
    _, checked = validate_model(elevator, b)
    assert checked.usable
    run_campaign(_worked(elevator, b, elevator_tables))
    # slotted, so nothing but the fields can be set on it
    assert not hasattr(b, "__dict__")
    assert Bounds.__slots__ == ("nat_ranges", "int_ranges", "rat_grids", "value_sets",
                                "time_samples", "const_values", "max_attempts")
    assert b == parse_bounds_file(path)


def test_a_set_value_outside_its_sort_is_a_validation_error(toggle):
    b = parse_bounds_text("bounds { set m = {A, C}; time samples = {0, 1}; }")
    _, report = validate_model(toggle, b)
    assert not report.usable
    assert report.errors == ["bounds set m holds C, outside its sort enum {A, B}"]
    # no coverage sampling over the unreachable state
    assert report.warnings == []
    _, clean = validate_model(toggle, parse_bounds_text("bounds { set m = {B}; }"))
    assert clean.usable


@pytest.mark.parametrize("const, value", [("TD1", "-2"), ("TGF", "-1/2")])
def test_a_const_value_outside_its_sort_is_a_validation_error(elevator, const, value):
    text = (FIXTURES / "elevator.bounds").read_text()
    b = parse_bounds_text(re.sub(f"const {const} = [^;]*;", f"const {const} = {value};", text))
    _, report = validate_model(elevator, b)
    assert not report.usable
    assert report.errors == [f"bounds const {const} holds {value}, outside its sort time"]
    assert report.warnings == []


@pytest.mark.parametrize("fixture, sets, names", [
    ("toggle", "set zz = {1};", ["zz"]),
    ("elevator", "set x = {fsig};", ["x"]),
    ("soda", "set t = {0}; set np = {0}; set e = {1};", ["t", "e"]),
])
def test_a_set_that_names_no_state_variable_is_a_validation_error(fixture, sets, names, request):
    model = request.getfixturevalue(fixture)
    text = (FIXTURES / f"{fixture}.bounds").read_text()
    at = text.rindex("}")
    b = parse_bounds_text(text[:at] + sets + text[at:])
    _, report = validate_model(model, b)
    assert not report.usable
    assert report.errors == [f"bounds set {n} names no state variable" for n in names]
    assert report.warnings == []
