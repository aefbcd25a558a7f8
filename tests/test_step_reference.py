"""The compiled step against the reference step of `oracle`.

`simulator.step` runs each transition function compiled into a
case-dispatching next-state builder: it tries only the cases whose
leading `v = literal` conjunct can hold, copies the slots a case leaves
unchanged, drops the checks compilation proves and evaluates a repeated
subexpression once per call.  `oracle.step` walks the syntax tree and
checks every slot.  Both must give the same case, next state, output and
tie, or the same error text, on every point compared here.
"""

import itertools
import random

import pytest

from oracle import step as reference_step
from devs_scc.algebra import CombinationPlan
from devs_scc.campaign import Campaign, run_campaign
from devs_scc.context import Context
from devs_scc.model import GuardedCase, Model
from devs_scc.parser import parse_bounds_text, parse_model_text
from devs_scc.simulator import SimError, SimState, UndefinedTransition, step
from devs_scc.syntax import And, Cmp, Const, Ref, TupleExpr
from devs_scc.values import INF, TAU, EvalError, Lit, Num
from tests.conftest import ELEVATOR_SELECTIONS


def compiled_step(st: SimState, ctx: Context, injected):
    """`simulator.step` read as the reference reads a step."""
    try:
        nxt, output, event = step(st, ctx, injected)
    except (UndefinedTransition, SimError, EvalError) as err:
        return str(err)
    assert event.state_after is nxt.state and event.output is output
    return event.fired[1], nxt.state, output, event.tie


def compare(ctx: Context, state: dict, points, clock=0) -> list:
    """The outcomes of the steps from `state` at `clock`, each `injected`
    of `points` (None for the internal transition), after checking that
    the compiled and the reference step agree on each."""
    st, outcomes = SimState(state, clock), []
    for injected in points:
        got = compiled_step(st, ctx, injected)
        assert got == reference_step(ctx.model, ctx.bounds, state, clock, injected), (state, injected)
        outcomes.append(got)
    return outcomes


def every_point(ctx: Context) -> list:
    """The internal transition, then every input of the grid at every
    time of the grid."""
    xs = ctx.grid("x", ctx.model.input_sort)
    return [None, *((x, t.value) for x in xs for t in ctx.times)]


def grid_states(ctx: Context):
    names = [name for name, _ in ctx.state_space]
    for combo in itertools.product(*(g for _, g in ctx.state_space)):
        yield dict(zip(names, combo))


def sampled_states(ctx: Context, count: int, seed: int):
    rng = random.Random(seed)
    return [{name: rng.choice(g) for name, g in ctx.state_space} for _ in range(count)]


def kinds(outcomes) -> set[str]:
    """What the outcomes hold: fired steps, ties and each error's text up
    to its first parenthesis."""
    out = set()
    for o in outcomes:
        if isinstance(o, str):
            out.add(o.split(" (")[0])
        else:
            out.add("tie" if o[3] else "fired")
    return out


def test_every_toggle_grid_point_agrees(toggle, toggle_bounds):
    ctx = Context(toggle, toggle_bounds)
    outcomes = [o for state in grid_states(ctx) for o in compare(ctx, state, every_point(ctx))]
    assert len(outcomes) == 2 * 4
    assert kinds(outcomes) == {"fired", "passive state, no internal transition"}


def test_sampled_soda_grid_points_agree_at_every_input_and_time(soda, soda_bounds):
    """Soda's state grid holds 892,820,880 states, so a seeded sample of
    them, each at every input and time of the grid."""
    ctx = Context(soda, soda_bounds)
    outcomes = [o for state in sampled_states(ctx, 120, 7) for o in compare(ctx, state, every_point(ctx))]
    assert kinds(outcomes) == {"fired", "tie", "passive state, no internal transition",
                               "event after internal deadline",
                               "undefined transition: no dext case matches"}


def test_the_elevator_all_pairs_steps_agree(elevator, elevator_bounds, elevator_tables):
    """Each step of the elevator all-pairs campaign, from its own state,
    with its own pair and with the internal transition."""
    campaign = Campaign(elevator, elevator_bounds, elevator_tables, list(ELEVATOR_SELECTIONS),
                        plan=CombinationPlan(all_pairs=True, budget=10000))
    steps = [s for seq in run_campaign(campaign).sequences for s in seq.steps if s.state]
    assert len(steps) == 1760
    ctx = campaign.context()
    outcomes = []
    for s in steps:
        injected = None if s.event == TAU else (s.event, s.time.value)
        outcomes += compare(ctx, s.state, [injected, None])
    assert kinds(outcomes) == {"fired", "tie", "passive state, no internal transition",
                               "undefined transition: no dint case matches",
                               "undefined transition: no lambda case matches",
                               "value -1 does not fit sort nat in f"}


def test_a_sample_of_the_elevator_joint_grid_agrees(elevator, elevator_bounds):
    """Sampled states, and each with every timer at infinity, at every
    input and time: undefined transitions, a floor below 0, an operator's
    argument outside its parameter's sort, passive states and ties among
    them."""
    ctx = Context(elevator, elevator_bounds)
    timers = elevator.schema.time_vars
    outcomes = []
    for state in sampled_states(ctx, 40, 2):
        for s in (state, {**state, **dict.fromkeys(timers, INF)}):
            outcomes += compare(ctx, s, every_point(ctx))
    found = kinds(outcomes)
    assert {"fired", "tie", "passive state, no internal transition", "event after internal deadline",
            "undefined transition: no dint case matches", "value -1 does not fit sort nat in f",
            "value -1/2 does not fit sort time in ntsel parameter at",
            "cannot subtract infinity from 2"} <= found


# ---------------------------------------------------------------------------
# small models that take each way round the dispatch and the builder

FALLBACKS = """
model fallbacks {
  const K: nat;
  sort M = enum {A, B, C};
  state {
    m: M;
    n: nat;
    k: nat;
    r: int;
    t: time @time;
  }
  input nat | go | stop | swap;
  output (M, nat);

  -- `a div b` repeats in the guards, and raises when b is 0
  op q(a: nat, b: nat): nat {
    case a div b > 1 -> 2;
    case a div b = 1 -> 1;
    otherwise -> 0;
  }

  op half(a: nat): nat {
    a div 2;
  }

  op both(m: M, n: nat, k: nat, r: int): (M, nat, nat, int, time) {
    (m, k, n, r, infinity);
  }

  ta = t;

  dext(s, e, x) {
    case x in nat /\\ m = A -> (B, n + 1, k, r, t - e);
    case x = go \\/ m = C -> (A, n + 1, q(n, k), r, 0);
    case x = go /\\ n = 0 -> (C, n, k, r, t - e);
    case x = stop /\\ m = A -> (m, n - 3, k - 3, r, t - e);
    case x = stop /\\ m = B -> (m, r, n, k, t - e);
    case x = swap -> both(m, n, k, r);
    otherwise -> (m, n, k, r, infinity);
  }

  dint(s) {
    case m = A /\\ n > K -> (B, n - 1, q(n, k), r, infinity);
    case m = B -> (A, n, k, r, 0);
    case n = K -> (C, half(r), k, n, infinity);
  }

  lambda(s) {
    case m = A -> (m, q(n, k));
    case m = B /\\ k != 0 -> (m, q(k, n));
  }
}
"""

COUNTER = """
model counter {
  state {
    n: nat;
  }
  input enum {up, down};
  output nat;
  op next(n: nat): nat {
    n + 1;
  }
  ta = infinity;
  dext(s, e, x) {
    case x = up -> next(n);
    case x = down -> n - 1;
  }
  dint(s) {
  }
  lambda(s) {
    otherwise -> n;
  }
}
"""

SMALL_BOUNDS = """
bounds {
  const K = 1;
  nat default = 0..3;
  int default = -1..1;
  time samples = {0, 1, 2};
}
"""


def _model(text: str) -> Model:
    model, report = parse_model_text(text)
    assert report.usable, report.errors
    return model


def test_a_model_that_takes_every_fallback_agrees_at_every_grid_point():
    """Leads other than `v = literal`, an `Or` guard, numeric inputs where
    the guards compare literals, an `otherwise` case, a result that is an
    operator's tuple, two failing slots and a repeated subexpression that
    raises."""
    ctx = Context(_model(FALLBACKS), parse_bounds_text(SMALL_BOUNDS))
    outcomes = [o for state in grid_states(ctx) for o in compare(ctx, state, every_point(ctx))]
    found = kinds(outcomes)
    assert {"fired", "tie", "division by zero", "value -3 does not fit sort nat in n",
            "value -1 does not fit sort nat in n",
            "value -1 does not fit sort nat in half parameter a",
            "undefined transition: no lambda case matches",
            "undefined transition: no dint case matches"} <= found
    # n and k both fail: the first in schema order is the one reported
    stop = (Lit("stop"), 0)
    state = {"m": Lit("A"), "n": Num(1), "k": Num(0), "r": Num(0), "t": Num(2)}
    assert compare(ctx, state, [stop]) == ["value -2 does not fit sort nat in n"]
    assert compare(ctx, {**state, "n": Num(3)}, [stop]) == ["value -3 does not fit sort nat in k"]


def test_a_one_variable_schema_agrees_at_every_grid_point():
    ctx = Context(_model(COUNTER), parse_bounds_text(SMALL_BOUNDS))
    outcomes = [o for state in grid_states(ctx) for o in compare(ctx, state, every_point(ctx))]
    assert kinds(outcomes) == {"fired", "value -1 does not fit sort nat in n",
                               "passive state, no internal transition"}
    assert ("n", Num(4)) in [next(iter(o[1].items())) for o in outcomes if isinstance(o, tuple)]


def test_a_lead_variable_no_environment_binds_is_raised_as_unbound(toggle, toggle_bounds):
    """A guard leading with `v = literal` for a `v` the function's
    environments do not bind is not indexed: evaluating it raises."""
    lead = Cmp("=", Ref("y"), Const(Lit("go")))
    cases = (GuardedCase(1, And((lead, Cmp("=", Ref("m"), Const(Lit("A"))))), Const(Lit("B"))),
             GuardedCase(2, Cmp("=", Ref("x"), Const(Lit("go"))), Const(Lit("A"))))
    fields = {name: getattr(toggle, name) for name in Model._fields}
    model = Model(**{**fields, "delta_ext": cases})
    ctx = Context(model, toggle_bounds)
    for state in grid_states(ctx):
        assert compare(ctx, state, [(Lit("go"), 0)]) == ["unbound variable y"]


def test_a_result_that_is_no_tuple_of_the_schema_agrees():
    """A multi-variable schema's result that is not a tuple of one item
    per variable, which the checks reject, fails the step."""
    model = _model(FALLBACKS)
    fields = {name: getattr(model, name) for name in Model._fields}
    cases = (GuardedCase(1, Cmp("=", Ref("x"), Const(Lit("go"))), Const(Lit("A"))),
             GuardedCase(2, Cmp("=", Ref("x"), Const(Lit("stop"))),
                         TupleExpr((Ref("m"), Ref("n")))))
    ctx = Context(Model(**{**fields, "delta_ext": cases}), parse_bounds_text(SMALL_BOUNDS))
    state = {"m": Lit("A"), "n": Num(1), "k": Num(0), "r": Num(0), "t": Num(2)}
    assert compare(ctx, state, [(Lit("go"), 0), (Lit("stop"), 1)]) == [
        "transition result does not match the state schema"] * 2


@pytest.mark.parametrize("clock", [0, 5])
def test_a_step_at_a_later_clock_agrees(clock, elevator, elevator_bounds):
    ctx = Context(elevator, elevator_bounds)
    state = sampled_states(ctx, 1, 11)[0]
    points = [None, *((x, clock + t) for x, t in every_point(ctx)[1:])]
    compare(ctx, state, points, clock)
