"""A number is held as an int when it is integral and as a Fraction only
when it is a proper fraction.  Every place that makes numbers keeps to
this, and the arithmetic, comparisons, `v_min` and sort conformance agree
with the Fraction-only reference in `oracle` whichever way a number is
held."""

from fractions import Fraction

from hypothesis import given, strategies as st

from devs_scc import simulator, values
from devs_scc.bounds import const_env, grid
from devs_scc.campaign import Campaign, load_plan, run_campaign
from devs_scc.context import Context
from devs_scc.evaluator import compile_pred
from devs_scc.parser import parse_bounds_file, parse_bounds_text, parse_model_file
from devs_scc.syntax import Cmp, Const, InBase, InSet, Ref
from devs_scc.values import (
    COMPARISONS,
    INF,
    INT,
    NAT,
    RAT,
    TIME,
    EnumSort,
    EvalError,
    ExtSort,
    Lit,
    Num,
    Record,
    Tup,
    TupleSort,
    exact,
    num,
    render_value,
)

import oracle
from conftest import ELEVATOR_SELECTIONS, FIXTURES


def held_exactly(n: Num) -> bool:
    x = n.value
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def nums(*roots) -> list[Num]:
    """Every Num reachable from `roots` through record fields, memos
    included, and containers."""
    seen, stack, out = set(), list(roots), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Num):
            out.append(obj)
        elif isinstance(obj, Record):
            stack.extend(getattr(obj, name) for name in obj.__slots__ if name != "__weakref__")
        elif isinstance(obj, dict):
            stack.extend(obj)
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
    return out


def const_nums(model) -> list[Num]:
    """The Nums in the model's `Const` nodes, found by the syntax
    traversals rather than by `nums`."""
    cases = model.delta_ext + model.delta_int + model.output_fn
    cases += tuple(case for op in model.operators for case in op.cases)
    exprs = [model.ta]
    for case in cases:
        exprs.append(case.result)
        for p in oracle.iter_subpreds(case.guard):
            if isinstance(p, Cmp):
                exprs += [p.left, p.right]
            elif isinstance(p, (InSet, InBase)):
                exprs.append(p.expr)
    return [n.value for e in exprs for n in oracle.expr_nodes(e)
            if isinstance(n, Const) and isinstance(n.value, Num)]


def assert_held_exactly(found: list[Num]) -> None:
    assert found
    wrong = [n for n in found if not held_exactly(n)]
    assert not wrong, wrong[:5]


_RATIONAL_BOUNDS = """bounds {
  const H = 3/2;
  const T = H + 1/2;
  rational default = -1 .. 3/2 step 1/4;
  int default = -3 .. 3;
  nat default = 0 .. 4;
  time samples = {0, 1/2, 1, H, T, 5/2};
}"""


def test_parsing_grids_and_constants_hold_numbers_exactly():
    found = []
    for name in ("soda", "toggle", "elevator"):
        model, report = parse_model_file(str(FIXTURES / f"{name}.devs"))
        assert report.usable
        bounds = parse_bounds_file(str(FIXTURES / f"{name}.bounds"))
        ctx = Context(model, bounds)
        grids = [grid(bounds, v, sort) for v, sort in model.schema.vars]
        grids += [grid(bounds, "", sort) for sort in (NAT, INT, RAT, TIME)]
        found += nums(model, bounds, grids, const_env(bounds, model), ctx.times, ctx.state_space,
                      ctx.pair_spaces, ctx.joint_space, list(ctx.grids.values()))
        assert all(type(t.value) is int or t.value.denominator != 1 for t in ctx.times)
    bounds = parse_bounds_text(_RATIONAL_BOUNDS)
    grids = [grid(bounds, "", sort) for sort in (NAT, INT, RAT, TIME)]
    assert {type(n.value) for g in grids for n in nums(g)} == {int, Fraction}
    assert bounds.const_values["T"] == Num(2) and type(bounds.const_values["T"].value) is int
    found += nums(bounds, grids)
    assert_held_exactly(found)


def test_the_walker_reaches_the_numbers_inside_model_nodes():
    model, report = parse_model_file(str(FIXTURES / "elevator.devs"))
    assert report.usable
    expected = const_nums(model)
    assert expected
    reached = {id(n) for n in nums(model)}
    assert all(id(n) in reached for n in expected)


def test_arithmetic_holds_its_results_exactly():
    operands = [num(q) for q in (-2, -1, 0, 1, 3, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 2))]
    results = []
    for a in operands:
        results.append(values.v_neg(a))
        for b in operands:
            for op in (values.v_add, values.v_sub, values.v_mul):
                results.append(op(a, b))
            if b != num(0):
                results.append(values.v_div(a, b))
    assert_held_exactly(results)
    assert values.v_add(num(Fraction(1, 2)), num(Fraction(1, 2))).value.__class__ is int


def test_a_campaign_holds_its_configs_and_trace_events_exactly(elevator, elevator_tables):
    bounds = parse_bounds_file(str(FIXTURES / "elevator.bounds"))
    result = run_campaign(Campaign(
        model=elevator,
        bounds=bounds,
        tables=elevator_tables,
        selections=list(ELEVATOR_SELECTIONS),
        plan=load_plan(str(FIXTURES / "elevator.plan.json")),
    ))
    events = [ev for seq in result.sequences for ev in simulator.events(seq.steps)]
    assert events and result.configs
    assert_held_exactly(nums(result.catalog, result.configs, result.sequences, events))


def test_an_integral_fraction_and_its_int_are_one_value():
    a, b = Num(2), Num(Fraction(2))
    assert a == b and hash(a) == hash(b)
    assert render_value(a) == render_value(b) == "2"
    assert Tup((a, Lit("A"))) == Tup((b, Lit("A")))
    assert hash(Tup((a, Lit("A")))) == hash(Tup((b, Lit("A"))))
    assert exact(Fraction(2)) == 2 and type(exact(Fraction(2))) is int
    assert type(exact(Fraction(1, 2))) is Fraction


# ---------------------------------------------------------------------------
# differential tests against the Fraction-only reference

_numbers = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-9, 9), st.integers(2, 4)),
)
# a number as `exact` holds it, or now and then as an integral Fraction,
# which the product must take as the same value
_nums = st.builds(lambda q, raw: Num(Fraction(q)) if raw else num(q), _numbers, st.booleans())
_scalars = st.one_of(_nums, st.just(INF), st.sampled_from([Lit("none"), Lit("A")]))
_values = st.recursive(
    _scalars,
    lambda inner: st.builds(lambda xs: Tup(tuple(xs)), st.lists(inner, min_size=2, max_size=3)),
    max_leaves=4,
)

_REFERENCE_COMPARISONS = {
    "=": oracle._eq,
    "!=": lambda a, b: not oracle._eq(a, b),
    "<": oracle._lt,
    "<=": oracle._le,
    ">": lambda a, b: oracle._lt(b, a),
    ">=": lambda a, b: oracle._le(b, a),
}

_SORTS = [
    NAT, INT, RAT, TIME,
    EnumSort(("A", "B")),
    ExtSort(NAT, "none"),
    ExtSort(ExtSort(INT, "none"), "A"),
    TupleSort((NAT, TIME)),
]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except EvalError as err:
        return ("error", str(err))


def _check_held(result) -> None:
    if isinstance(result, Num):
        assert held_exactly(result)


@given(st.sampled_from(["v_add", "v_sub", "v_mul", "v_div"]), _scalars, _scalars)
def test_arithmetic_agrees_with_the_fraction_reference(op, a, b):
    got = _outcome(getattr(values, op), a, b)
    assert got == _outcome(getattr(oracle, op), oracle.as_fractions(a), oracle.as_fractions(b))
    _check_held(got)


@given(_scalars)
def test_negation_agrees_with_the_fraction_reference(a):
    got = _outcome(values.v_neg, a)
    assert got == _outcome(oracle.v_neg, oracle.as_fractions(a))
    _check_held(got)


@given(st.lists(_scalars, max_size=5))
def test_min_agrees_with_the_fraction_reference(args):
    got = _outcome(values.v_min, args)
    assert got == _outcome(oracle.v_min, [oracle.as_fractions(a) for a in args])
    if isinstance(got, Num):
        assert any(got is a for a in args)


@given(st.sampled_from(sorted(COMPARISONS)), _values, _values)
def test_comparisons_agree_with_the_fraction_reference(op, a, b):
    expected = _REFERENCE_COMPARISONS[op](oracle.as_fractions(a), oracle.as_fractions(b))
    assert COMPARISONS[op](a, b) is expected


@given(st.sampled_from(_SORTS), _values)
def test_sort_conformance_agrees_with_the_fraction_reference(sort, v):
    assert values.value_conforms(v, sort) == oracle.value_conforms(oracle.as_fractions(v), sort)


@given(st.sampled_from(sorted(COMPARISONS)), _values, _nums)
def test_compiled_comparisons_with_a_number_agree_with_the_reference(op, v, c):
    expected = oracle.compare(op, oracle.as_fractions(v), oracle.as_fractions(c))
    assert compile_pred(Cmp(op, Ref("v"), Const(c)))({"v": v}) is expected
