import json
import random
from fractions import Fraction

import pytest

from oracle import state_space, step_layout
from devs_scc.campaign import StepWriter
from devs_scc.context import Context
from devs_scc.criteria import cases_criterion
from devs_scc.parser import parse_model_text
from devs_scc.scc import make_scc
from devs_scc.selector import SimulationConfig, select_config
from devs_scc.sequencer import SimulationSequence
from devs_scc.simulator import (
    SimError,
    TraceEvent,
    UndefinedTransition,
    advance,
    events,
    failures,
    init,
    run_config,
    run_step,
    run_steps,
    step,
    time_advance,
    uniformity_probe,
)
from devs_scc.syntax import Cmp, Const, Ref, TRUE
from devs_scc.values import INF, Lit, Num, TAU, Tup, num
from tests.conftest import values_unhashed


def coins(*xs):
    return Tup(tuple(num(x) for x in xs))


def soda_idle_state(**over):
    state = {
        "m": Lit("idle"),
        "d": num(0),
        "ot": INF,
        "np": num(50),
        "dp": num(25),
        "it": num(300),
        "ms": coins(2, 2, 2),
        "om": coins(0, 0, 0),
        "mr": coins(0, 0, 0),
    }
    state.update(over)
    return state


def test_init_starts_the_clock_at_zero(soda, soda_bounds):
    st = init(soda, soda_idle_state())
    assert st.clock == 0


def test_init_rejects_a_state_that_names_a_variable_the_schema_lacks(soda, soda_bounds):
    with pytest.raises(SimError, match="^initial state names unknown variable bogus$"):
        init(soda, soda_idle_state(bogus=num(7)))
    with pytest.raises(SimError, match="^initial state misses variable d$"):
        init(soda, {k: v for k, v in soda_idle_state(bogus=num(7)).items() if k != "d"})
    ctx = Context(soda, soda_bounds)
    cfg = SimulationConfig(0, soda_idle_state(bogus=num(7)), Lit("getNormal"), num(1))
    assert run_steps([cfg], ctx) == [SimulationConfig(
        0, cfg.state, cfg.event, cfg.time,
        error="setup failed: initial state names unknown variable bogus")]


def test_time_advance_is_min_of_the_two_timers(soda, soda_bounds):
    ctx = Context(soda, soda_bounds)
    st = init(soda, soda_idle_state(ot=num(7), it=num(300)))
    assert time_advance(st, ctx) == num(7)
    st = init(soda, soda_idle_state(ot=INF, it=INF))
    assert time_advance(st, ctx) == INF


def test_elevator_all_infinite_timers_is_passive(elevator, elevator_bounds):
    ctx = Context(elevator, elevator_bounds)
    state = {
        "f": num(0), "fc": Lit("none"), "eng": Lit("stopped"), "d": Lit("open"),
        "ws": Lit("off"), "ds": Lit("off"), "sw": Lit("off"), "a": Lit("off"),
        "at": INF, "dt1": INF, "dt2": INF, "gft": INF, "ot": INF, "nt": Lit("O"),
    }
    st = init(elevator, state)
    assert time_advance(st, ctx) == INF
    with pytest.raises(SimError, match="passive state"):
        step(st, ctx)


def test_coin_insertion_fires_the_first_case(soda, soda_bounds):
    ctx = Context(soda, soda_bounds)
    st = init(soda, soda_idle_state())
    nxt, output, event = step(st, ctx, (Lit("c25"), Fraction(3)))
    assert event.fired == ("dext", 1)
    assert output is None  # external transitions emit nothing
    assert nxt.state["m"] == Lit("operating")
    assert nxt.state["d"] == num(25)
    assert nxt.state["ot"] == num(0)
    assert nxt.state["om"] == coins(0, 0, 1)
    assert nxt.state["it"] == num(297)  # 300 - elapsed 3
    assert nxt.clock == 3


def test_elapsed_time_beyond_deadline_is_rejected(soda, soda_bounds):
    ctx = Context(soda, soda_bounds)
    st = init(soda, soda_idle_state(ot=num(2)))
    with pytest.raises(SimError, match="after internal deadline"):
        step(st, ctx, (Lit("c25"), Fraction(3)))


def test_tie_injection_is_applied_and_annotated(soda, soda_bounds):
    ctx = Context(soda, soda_bounds)
    st = init(soda, soda_idle_state(ot=num(3)))
    nxt, _, event = step(st, ctx, (Lit("c25"), Fraction(3)))
    assert event.tie
    assert event.fired == ("dext", 1)


def test_internal_step_emits_output_of_the_pre_state(soda, soda_bounds):
    ctx = Context(soda, soda_bounds)
    st = init(soda, soda_idle_state(m=Lit("operating"), d=num(75), ot=num(5)))
    nxt, output, event = step(st, ctx)
    assert event.fired == ("dint", 1)
    assert output == Tup((num(75), coins(2, 2, 2)))  # display of the old state
    assert nxt.state["ot"] == num(30)  # re-armed to the return deadline
    assert nxt.clock == 5


def test_elevator_alarm_transition_and_output(elevator, elevator_bounds):
    ctx = Context(elevator, elevator_bounds)
    state = {
        "f": num(1), "fc": num(2), "eng": Lit("stopped"), "d": Lit("open"),
        "ws": Lit("off"), "ds": Lit("off"), "sw": Lit("off"), "a": Lit("off"),
        "at": num(0), "dt1": num(2), "dt2": INF, "gft": INF, "ot": INF,
        "nt": Lit("A"),
    }
    st = init(elevator, state)
    nxt, output, event = step(st, ctx)
    assert event.fired == ("dint", 16)
    assert nxt.state["a"] == Lit("on")
    assert output == Tup((num(1), Lit("skip"), Lit("skip"), Lit("firealarm")))


def test_run_config_internal_class_fires_idle_case(soda, soda_bounds):
    ctx = Context(soda, soda_bounds)
    sccs, _ = cases_criterion(ctx)
    idle_class = next(s for s in sccs if s.target == "dint case 5")
    cfg = select_config(idle_class, ctx)
    steps = run_config(cfg, ctx)
    assert failures(steps) == ([], [])
    assert events(steps)[0].fired == ("dint", 5)


def test_run_config_external_step_has_no_output(soda, soda_bounds):
    cfg = SimulationConfig(0, soda_idle_state(), Lit("cancel"), num(1))
    steps = run_config(cfg, Context(soda, soda_bounds))
    assert failures(steps) == ([], [])
    assert len(events(steps)) == 1
    assert events(steps)[0].output is None
    assert events(steps)[0].fired == ("dext", 4)
    # the step as it ran is the configuration with the event it fired
    assert steps == [SimulationConfig(0, cfg.state, cfg.event, cfg.time, outcome=events(steps)[0])]


def test_run_config_surfaces_the_missed_case(soda, soda_bounds):
    cfg = SimulationConfig(7, soda_idle_state(np=num(150)), Lit("getNormal"), num(1))
    [ran] = run_config(cfg, Context(soda, soda_bounds))
    assert ran.error.startswith("undefined transition: no dext case matches (m=idle, ")
    assert failures([ran]) == ([f"class 7: {ran.error}"], [])
    # the failed step, in the state it failed in, is the one record of
    # its failure: it fired no trace event
    assert (ran.outcome, ran.state) == (None, cfg.state)
    assert events([ran]) == []
    # and is written as the campaign writes a failed step, without `fired`
    # and without a trace line
    writer = StepWriter()
    written = json.loads(writer.sequences([SimulationSequence([ran])]))
    assert written["sequences"][0]["steps"] == [{**step_layout(cfg), "error": ran.error}]
    assert writer.traces([[ran]]) == ""


def test_elevator_first_class_witness_fires_case_one(elevator, elevator_bounds):
    ctx = Context(elevator, elevator_bounds)
    sccs, _ = cases_criterion(ctx)
    cfg = select_config(sccs[0], ctx)
    steps = run_config(cfg, ctx)
    assert failures(steps) == ([], []), failures(steps)
    assert events(steps)[0].fired == ("dext", 1)


def test_run_step_records_the_step_from_the_state_it_ran_in(toggle, toggle_bounds):
    """`run_step` returns the state a step left, or None when it failed,
    and the step recorded from the state it started in, whatever state
    the step itself names."""
    ctx = Context(toggle, toggle_bounds)
    st = init(toggle, {"m": Lit("A")})
    nxt, ran = run_step(st, SimulationConfig(1, {}, Lit("go"), num(1)), ctx)
    assert nxt.state == {"m": Lit("B")} and nxt.clock == 1
    assert (ran.state, ran.outcome.fired, ran.error) == ({"m": Lit("A")}, ("dext", 1), None)
    nxt, failed = run_step(nxt, SimulationConfig(2, {}, TAU, num(0)), ctx)
    assert nxt is None
    assert failed == SimulationConfig(2, {"m": Lit("B")}, TAU, num(0),
                                      error="passive state, no internal transition")


def test_run_steps_runs_every_step_with_a_state_and_stops_at_a_failure(toggle, toggle_bounds):
    """A step recorded with an error runs again from the state the run
    reached; one with no state never ran and is kept as read; the first
    step that fails running ends the run."""
    ctx = Context(toggle, toggle_bounds)
    unselected = SimulationConfig(6, {}, TAU, num(0), error="no representative within bounds")
    steps = [
        SimulationConfig(3, {"m": Lit("A")}, Lit("go"), num(0), error="recorded"),
        unselected,
        SimulationConfig(1, {"m": Lit("A")}, Lit("go"), num(1)),
        SimulationConfig(2, {"m": Lit("B")}, Lit("go"), INF),
        SimulationConfig(4, {"m": Lit("A")}, Lit("go"), num(1)),
    ]
    ran = run_steps(steps, ctx)
    assert ran[1] is unselected
    assert ran == [
        SimulationConfig(3, {"m": Lit("A")}, Lit("go"), num(0),
                         outcome=TraceEvent(num(0), ("dext", 1), {"m": Lit("B")})),
        unselected,
        SimulationConfig(1, {"m": Lit("B")}, Lit("go"), num(1),
                         outcome=TraceEvent(num(1), ("dext", 2), {"m": Lit("A")})),
        SimulationConfig(2, {"m": Lit("A")}, Lit("go"), INF,
                         error="external event needs a finite time"),
    ]
    assert failures(ran) == (["class 2: external event needs a finite time"],
                             ["class 6: no representative within bounds"])
    assert run_steps([SimulationConfig(5, {"m": Lit("C")}, Lit("go"), num(0))], ctx) == [
        SimulationConfig(5, {"m": Lit("C")}, Lit("go"), num(0),
                         error="setup failed: value C does not fit sort enum {A, B} in initial m")]


def test_clock_is_monotone_and_elapsed_bounded(soda, soda_bounds):
    """Randomized walk: injected elapsed times stay within the pending
    time advance, and the clock never goes backwards."""
    ctx = Context(soda, soda_bounds)
    rng = random.Random(4242)
    grid = [v for _, g in state_space(soda, soda_bounds) for v in g]
    steps_taken = 0
    while steps_taken < 250:
        st = init(soda, soda_idle_state())
        for _ in range(12):
            ta = time_advance(st, ctx)
            horizon = ta.value if isinstance(ta, Num) else Fraction(10)
            if isinstance(ta, Num) and rng.random() < 0.4:
                injected = None  # let the internal transition fire
            else:
                e = horizon * Fraction(rng.randint(0, 4), 4)
                x = rng.choice(
                    [Lit(l) for l in ("c25", "c50", "getNormal", "cancel", "moneyRetreated")]
                )
                injected = (x, st.clock + e)
                assert 0 <= e <= (ta.value if isinstance(ta, Num) else e)
            before = st.clock
            try:
                st, _, _ = step(st, ctx, injected)
            except (UndefinedTransition, SimError):
                break
            assert st.clock >= before
            # the clock stands at the instant of the transition just taken
            assert st.clock == (before + ta.value if injected is None else injected[1])
            steps_taken += 1
    assert steps_taken >= 250


# ---------------------------------------------------------------------------
# uniformity probe

def test_probe_on_a_pinned_class_is_uniform(soda, soda_bounds):
    ctx = Context(soda, soda_bounds)
    sccs, _ = cases_criterion(ctx)
    cancel = next(s for s in sccs if s.target == "dext case 4")
    report = uniformity_probe(cancel, 5, ctx)
    assert report.uniform, report.signatures


def test_probe_flags_a_deliberately_coarse_class(soda, soda_bounds):
    coarse = make_scc(
        TRUE, Cmp("=", Ref("x"), Const(Lit("getNormal"))), "manual", "coarse", id=99
    )
    report = uniformity_probe(coarse, 8, Context(soda, soda_bounds))
    assert not report.uniform
    assert "re-partition" in report.note
    assert any("undefined" in sig for sig in report.signatures)
    assert any("dext:2" in sig for sig in report.signatures)


def test_the_probe_runs_samples_equal_by_value_once_and_hashes_no_value(
    soda, soda_bounds, monkeypatch
):
    """Two samples whose states, events and times hold equal values in
    distinct objects, a number held once as an int and once as an
    integral Fraction, are one configuration: the probe runs it once,
    keying its memo on what the values hold without hashing one."""
    import devs_scc.simulator as simulator

    samples = [
        SimulationConfig(1, soda_idle_state(), TAU, num(10)),
        SimulationConfig(1, soda_idle_state(d=Num(Fraction(0)), ms=coins(2, 2, 2)),
                         Lit("tau"), Num(Fraction(10))),
    ]
    assert samples[0] == samples[1] and samples[0].state["m"] is not samples[1].state["m"]
    runs = []

    def run_once(cfg, ctx):
        runs.append(cfg)
        return [SimulationConfig(cfg.scc_id, cfg.state, cfg.event, cfg.time, error="stub")]

    monkeypatch.setattr(simulator, "sample_configs", lambda scc, k, ctx: samples)
    monkeypatch.setattr(simulator, "run_config", run_once)
    scc, ctx = make_scc(TRUE, TRUE, "manual", "any", id=1), Context(soda, soda_bounds)
    with values_unhashed():
        report = uniformity_probe(scc, 2, ctx)
    assert runs == samples[:1]
    assert report.uniform and report.signatures == ["undefined", "undefined"]


def test_probe_with_too_few_witnesses_is_skipped(soda, soda_bounds):
    pinned = make_scc(
        TRUE, Cmp("=", Ref("x"), Const(Lit("cancel"))), "manual", "k1", id=98
    )
    report = uniformity_probe(pinned, 1, Context(soda, soda_bounds))
    assert report.uniform
    assert "skipped" in report.note


def test_advance_fires_tau_and_injects_relative_to_the_last_transition(soda, soda_bounds):
    ctx = Context(soda, soda_bounds)
    st = init(soda, soda_idle_state(ot=num(10)))
    st, ev = advance(st, TAU, num(0), ctx)
    assert (ev.at, ev.fired, st.clock) == (num(10), ("dint", 5), 10)
    st, ev = advance(st, Lit("c25"), num(3), ctx)
    assert (ev.at, ev.fired, ev.output) == (num(13), ("dext", 1), None)
    with pytest.raises(SimError, match="finite time"):
        advance(st, Lit("c25"), INF, ctx)


def test_an_event_before_the_clock_is_rejected(soda, soda_bounds):
    ctx = Context(soda, soda_bounds)
    st, _ = advance(init(soda, soda_idle_state(ot=num(10))), TAU, num(0), ctx)
    with pytest.raises(SimError, match="^injected event lies in the past$"):
        step(st, ctx, (Lit("c25"), Fraction(9)))
    assert step(st, ctx, (Lit("c25"), Fraction(10)))[2].at == num(10)


_PARTIAL = """model partial {
  state {
    m: enum {A, B};
    n: nat;
  }
  input enum {go};
  output enum {ping};
  ta = 5;
  dext(s, e, x) {
    case m = A -> (B, n);
  }
  dint(s) {
    case m = A -> (B, n);
  }
  lambda(s) {
    case n = 0 -> ping;
  }
}
"""


@pytest.mark.parametrize("state, injected, message", [
    ({"m": Lit("B"), "n": num(0)}, (Lit("go"), Fraction(5, 2)),
     "undefined transition: no dext case matches (m=B, n=0, x=go, e=5/2)"),
    ({"m": Lit("B"), "n": num(0)}, None,
     "undefined transition: no dint case matches (m=B, n=0)"),
    ({"m": Lit("A"), "n": num(1)}, None,
     "undefined transition: no lambda case matches (m=A, n=1)"),
])
def test_an_undefined_transition_names_its_function_and_configuration(state, injected, message):
    model, report = parse_model_text(_PARTIAL)
    assert report.usable
    with pytest.raises(UndefinedTransition) as caught:
        step(init(model, state), Context(model), injected)
    assert str(caught.value) == message
