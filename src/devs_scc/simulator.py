"""Abstract simulator for atomic models.

Executes the standard semantics on concrete states: the system sits in a
state for ta(s) time units; when that expires it emits the output of the
pre-transition state and applies the internal transition.  An input
arriving after elapsed time e (0 <= e <= ta) triggers the external
transition instead, producing no output.  The clock is an exact
rational, so there is no drift and ties are decidable: an input landing
exactly on the internal deadline is applied as the external transition
and the step is annotated so the engineer sees the tie.

A concrete (state, event, elapsed) with no matching guard is the
principal validation finding this tool exists to surface.  `_fire` picks
the case that fires, for both halves of `step`, by the first match of
`evaluator.compile_cases` kept in the context, and is the one place that
raises `UndefinedTransition`.  `run_step` records the finding on the
step as an "undefined transition" error, not a crash; the step is its
one record, and a failed step fires no trace event.  A replay
(`run_steps`) runs every step with a state again, whatever error it was
recorded with, so the findings it reports are the model's.
"""

from __future__ import annotations

from collections.abc import Iterable

from .context import Context
from .evaluator import compile_cases, compile_expr
from .model import Model
from .scc import SCC
from .selector import SimulationConfig, sample_configs
from .values import (
    EvalError,
    Inf,
    Lit,
    Num,
    Rational,
    Struct,
    TAU,
    Tup,
    Value,
    coerce,
    exact,
    render_value,
    value_key,
)


class SimError(Exception):
    """A violated stepping precondition: injecting beyond the internal
    deadline, or asking a passive state for an internal transition."""


class UndefinedTransition(Exception):
    def __init__(self, function: str, detail: str):
        super().__init__(f"undefined transition: no {function} case matches ({detail})")
        self.function = function
        self.detail = detail


class SimState(Struct):
    """A running model: its state and the clock, the instant of its most
    recent transition."""

    __slots__ = ("state", "clock")

    def __init__(self, state: dict[str, Value], clock: Rational) -> None:
        self.state = state
        self.clock = clock


class TraceEvent(Struct):
    """The transition one step fired, written with its step as a line of
    `traces.jsonl` (`campaign.StepWriter`): the step holds the input, and
    `fired[0]` the kind, `dext` external and `dint` internal."""

    __slots__ = ("at", "fired", "state_after", "output", "tie")

    def __init__(self, at: Value, fired: tuple[str, int], state_after: dict[str, Value],
                 output: Value | None = None, tie: bool = False) -> None:
        self.at = at
        self.fired = fired
        self.state_after = state_after
        self.output = output
        self.tie = tie


def init(model: Model, s0: dict[str, Value]) -> SimState:
    state = {}
    for name, sort in model.schema.vars:
        if name not in s0:
            raise SimError(f"initial state misses variable {name}")
        state[name] = coerce(s0[name], sort, f"initial {name}")
    return SimState(state=state, clock=0)


def time_advance(st: SimState, ctx: Context) -> Value:
    ta = ctx.ta
    if ta is None:
        ta = ctx.ta = compile_expr(ctx.model.ta, ctx)
    v = ta({**ctx.consts, **st.state})
    if isinstance(v, Inf):
        return v
    if isinstance(v, Num) and v.value >= 0:
        return v
    raise EvalError(f"ta produced {render_value(v)}")


def step(
    st: SimState,
    ctx: Context,
    injected: tuple[Value, Rational] | None = None,
) -> tuple[SimState, Value | None, TraceEvent]:
    """One transition.  `injected` carries (event, absolute time); absent,
    the pending internal transition fires at its deadline, after the
    output of the state it leaves.  An injected event must fit the
    model's input sort, as `init` requires of the state."""
    ta = time_advance(st, ctx)
    if injected is None:
        if isinstance(ta, Inf):
            raise SimError("passive state, no internal transition")
        fn, x, at, tie = "dint", None, exact(st.clock + ta.value), False
        env = {**ctx.consts, **st.state}
        output = _fire(ctx, "lambda", env, st.state)[1](env)
    else:
        fn, at, output = "dext", exact(injected[1]), None
        x = coerce(injected[0], ctx.model.input_sort, "input")
        if at < st.clock:
            raise SimError("injected event lies in the past")
        e = exact(at - st.clock)
        tie = False
        if not isinstance(ta, Inf):
            if e > ta.value:
                raise SimError("event after internal deadline")
            tie = e == ta.value
        env = {**ctx.consts, **st.state, "e": Num(e), "x": x}
    case, result = _fire(ctx, fn, env, st.state)
    new_state = _apply_result(ctx.model, result, env)
    event = TraceEvent(Num(at), (fn, case.id), dict(new_state), output, tie)
    return SimState(new_state, at), output, event


def advance(st: SimState, event: Value, rel_time: Value, ctx: Context) -> tuple[SimState, TraceEvent]:
    """One configured step: the no-event marker fires the pending internal
    transition, any other event is injected `rel_time` after the most
    recent transition."""
    if event == TAU:
        nxt, _, ev = step(st, ctx)
    else:
        if not isinstance(rel_time, Num):
            raise SimError("external event needs a finite time")
        nxt, _, ev = step(st, ctx, (event, st.clock + rel_time.value))
    return nxt, ev


def _fire(ctx: Context, fn: str, env, state: dict[str, Value]):
    """The first case of function `fn` whose guard holds in `env`, with
    its compiled result, kept in the context; UndefinedTransition, naming
    `state` and for `dext` the input and elapsed time, when none holds."""
    first = ctx.cases.get(fn)
    if first is None:
        first = ctx.cases[fn] = compile_cases(ctx.model.cases(fn), ctx)
    fired = first(env)
    if fired is None:
        detail = ", ".join(f"{k}={render_value(v)}" for k, v in state.items())
        if fn == "dext":
            detail += f", x={render_value(env['x'])}, e={env['e'].value}"
        raise UndefinedTransition(fn, detail)
    return fired


def _apply_result(model: Model, result, env) -> dict[str, Value]:
    """The next state from a case's compiled result: the value itself for
    a one-variable schema, else a tuple with one item per variable."""
    value = result(env)
    if len(model.schema.vars) == 1:
        name, sort = model.schema.vars[0]
        return {name: coerce(value, sort, name)}
    if not isinstance(value, Tup) or len(value.items) != len(model.schema.vars):
        raise EvalError("transition result does not match the state schema")
    return {
        name: coerce(part, sort, name)
        for (name, sort), part in zip(model.schema.vars, value.items)
    }


def run_step(st: SimState, step: SimulationConfig,
             ctx: Context) -> tuple[SimState | None, SimulationConfig]:
    """Run a configured step's pair from `st`: the state it left (None if
    it failed) and the step as it ran from `st`'s state, with the event it
    fired as its `outcome` or with the error it failed with."""
    state = dict(st.state)
    try:
        nxt, ev = advance(st, step.event, step.time, ctx)
    except (UndefinedTransition, SimError, EvalError) as err:
        return None, SimulationConfig(step.scc_id, state, step.event, step.time, error=str(err))
    return nxt, SimulationConfig(step.scc_id, state, step.event, step.time, outcome=ev)


def run_config(config: SimulationConfig, ctx: Context) -> list[SimulationConfig]:
    """Drive one configuration from its state, as a one-step sequence."""
    return run_steps((config,), ctx)


def run_steps(steps: Iterable[SimulationConfig], ctx: Context) -> list[SimulationConfig]:
    """The steps as `run_step` ran them from the first one's state,
    whatever error each was read with; a step with no state is a class
    that never ran, kept as read.  A first state `init` rejects fails its
    step with `setup failed: …`; either that or a step that fails running
    ends the run."""
    ran: list[SimulationConfig] = []
    st = None
    for s in steps:
        if not s.state:
            ran.append(s)
            continue
        if st is None:
            try:
                st = init(ctx.model, s.state)
            except (SimError, EvalError) as err:
                ran.append(SimulationConfig(s.scc_id, s.state, s.event, s.time,
                                            error=f"setup failed: {err}"))
                break
        st, done = run_step(st, s, ctx)
        ran.append(done)
        if st is None:
            break
    return ran


def events(steps: Iterable[SimulationConfig]) -> list[TraceEvent]:
    """A run's trace: the `outcome` of each of its steps that has one."""
    return [s.outcome for s in steps if s.outcome is not None]


def failures(steps: Iterable[SimulationConfig]) -> tuple[list[str], list[str]]:
    """A run's findings, the `failure` of each failed step with a state,
    and the failures of the steps recorded with an error and no state (a
    state names at least one variable): classes selection could not
    represent, which never ran."""
    failed = [s for s in steps if s.error is not None]
    return [s.failure() for s in failed if s.state], [s.failure() for s in failed if not s.state]


# ---------------------------------------------------------------------------
# uniformity probe

class ProbeReport(Struct):
    """One class's uniformity probe: the verdict and output signatures."""

    __slots__ = ("scc_id", "uniform", "signatures", "note")

    def __init__(self, scc_id: int, uniform: bool, signatures: list[str], note: str = "") -> None:
        self.scc_id = scc_id
        self.uniform = uniform
        self.signatures = signatures
        self.note = note

    def to_json(self) -> dict:
        return {
            "scc": self.scc_id,
            "uniform": self.uniform,
            "signatures": self.signatures,
            "note": self.note,
        }


def uniformity_probe(scc: SCC, k: int, ctx: Context,
                     seen: dict[tuple, str] | None = None) -> ProbeReport:
    """Run several members of one class and compare their behavior
    signatures (case fired plus output shape).  Differing signatures mean
    the class is not uniform and should be re-partitioned.  `seen` holds
    the signature of each configuration run so far, by its state, event
    and time, which alone decide the run, keyed on what they hold (the
    state's names, then the `value_key` of each value): one in it is not
    run again, so a campaign that passes one to all its probes runs each
    distinct sampled configuration once."""
    samples = sample_configs(scc, k, ctx)
    if len(samples) < 2:
        return ProbeReport(
            scc.id, True, [],
            note="fewer than 2 witnesses available, probe skipped",
        )
    if seen is None:
        seen = {}
    signatures = []
    for cfg in samples:
        key = (*cfg.state, *map(value_key, cfg.state.values()),
               value_key(cfg.event), value_key(cfg.time))
        signature = seen.get(key)
        if signature is None:
            signature = seen[key] = _signature(run_config(cfg, ctx))
        signatures.append(signature)
    uniform = len(set(signatures)) == 1
    note = "" if uniform else "members behave differently; re-partition this class"
    return ProbeReport(scc.id, uniform, signatures, note)


def _signature(ran: list[SimulationConfig]) -> str:
    """A run's behavior: each step's function and case, or `undefined`
    for one that failed, and the shape of its output."""
    sig = []
    for step in ran:
        ev = step.outcome
        if ev is None:
            sig.append("undefined")
            continue
        step_sig = ev.fired[0] + ":" + str(ev.fired[1])
        if ev.output is not None:
            step_sig += "/" + _shape(ev.output)
        sig.append(step_sig)
    return ";".join(sig)


def _shape(v: Value) -> str:
    """Output constructor shape: literals kept, numerics wildcarded."""
    if isinstance(v, Tup):
        return "(%s)" % ",".join(_shape(x) for x in v.items)
    if isinstance(v, Lit):
        return v.name
    if isinstance(v, Inf):
        return "infinity"
    return "#"
