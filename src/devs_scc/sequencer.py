"""Chaining selected configurations into simulation sequences.

After simulating one class the post-state often already belongs to
another class's state set; chaining reuses it instead of configuring a
fresh run.  The three nondeterministic choices of the sequencing
algorithm are fixed for reproducibility: the next class is always the
lowest remaining id, the first state and input pair come from the
selector's least witness, and a chained input pair is the least pair
that, with the current state, is in the class's `runnable_form` (the
selector's search, with the state fixed), so a class is covered only by
a runnable step inside it.  Every class is consumed exactly once, so the
covered-id sets of the produced sequences partition the input catalog.
Each step runs once: its trace event, or the finding of a failed step,
is kept on the sequence.  A failing step ends its sequence with the
failure recorded and the remaining classes continue in fresh sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bounds import Bounds, const_env, input_grid, time_points
from .model import Model
from .sat import satisfiable
from .scc import SCC
from .selector import SelectError, SimulationConfig, runnable_form, select_config, state_test
from .simulator import SimError, Trace, UndefinedTransition, advance, init, time_advance
from .values import EvalError, Inf, Num, TAU, Value, render_value


@dataclass
class SeqStep:
    scc_id: int
    state_used: dict[str, Value]
    event: Value
    time: Value
    fired: tuple[str, int] | None = None
    error: str | None = None

    def to_json(self) -> dict:
        rec = {
            "scc": self.scc_id,
            "state": {k: render_value(v) for k, v in self.state_used.items()},
            "input": {"event": render_value(self.event), "time": render_value(self.time)},
        }
        if self.fired:
            rec["fired"] = {"function": self.fired[0], "case": self.fired[1]}
        if self.error:
            rec["error"] = self.error
        return rec


@dataclass
class SimulationSequence:
    steps: list[SeqStep] = field(default_factory=list)
    covered: list[int] = field(default_factory=list)
    # what running the steps produced while chaining; not part of the file
    trace: Trace = field(default_factory=Trace, compare=False)

    def to_json(self) -> dict:
        return {"steps": [s.to_json() for s in self.steps], "covered": self.covered}


def build_sequences(
    model: Model,
    sccs: list[SCC],
    bounds: Bounds,
    configs: dict[int, SimulationConfig | SelectError] | None = None,
) -> tuple[list[SimulationSequence], list[str]]:
    """Chain the classes into sequences.  `configs` holds, by class id,
    what selection already gave a class: its representative or its
    `SelectError`; a head not in it is selected here."""
    configs = configs or {}
    consts = const_env(bounds, model)
    remaining = sorted(sccs, key=lambda s: s.id)
    sequences: list[SimulationSequence] = []
    notes: list[str] = []

    while remaining:
        scc = remaining.pop(0)
        seq = SimulationSequence(covered=[scc.id])
        sequences.append(seq)
        cfg = configs.get(scc.id)
        if cfg is None:
            try:
                cfg = select_config(scc, model, bounds)
            except SelectError as err:
                cfg = err
        if isinstance(cfg, SelectError):
            notes.append(str(cfg))
            seq.steps.append(SeqStep(scc.id, {}, TAU, Num(0), error=cfg.reason))
            seq.trace.findings.append(str(cfg))
            continue
        sim = init(model, cfg.state)
        sim, ok = _run_step(model, sim, consts, cfg.event, cfg.time, seq, scc.id)
        if not ok:
            continue
        while True:
            try:
                found = _next_reachable(remaining, sim, consts, model, bounds)
            except EvalError as err:
                notes.append(f"class {seq.covered[-1]}: cannot chain from its post-state: {err}")
                break
            if found is None:
                break
            at, (event, rel_time) = found
            nxt = remaining.pop(at)
            seq.covered.append(nxt.id)
            sim, ok = _run_step(model, sim, consts, event, rel_time, seq, nxt.id)
            if not ok:
                break
    return sequences, notes


def _run_step(model, sim, consts, event, rel_time, seq, scc_id):
    """Execute one sequence step, recording it and its trace event or
    finding; the pair's time is elapsed time relative to the state the
    class matched on."""
    state_used = dict(sim.state)
    try:
        nxt, ev = advance(model, sim, consts, event, rel_time)
        seq.steps.append(SeqStep(scc_id, state_used, event, rel_time, fired=ev.fired))
        seq.trace.events.append(ev)
        return nxt, True
    except (UndefinedTransition, SimError, EvalError) as err:
        seq.steps.append(SeqStep(scc_id, state_used, event, rel_time, error=str(err)))
        seq.trace.findings.append(f"class {scc_id}: {err}")
        return sim, False


def _next_reachable(remaining, sim, consts, model, bounds):
    """Position of the first remaining class (ascending id) with a runnable
    member made of the current state, and that member's pair.  The pair
    space, built once, lacks the no-event marker when the state's time
    advance is infinite; an EvalError from that time advance ends the
    chain."""
    env = {**consts, **sim.state}
    space = None
    for at, scc in enumerate(remaining):
        try:
            if not state_test(scc, model, bounds)(env):
                continue
        except EvalError:
            continue
        if space is None:
            tau = not isinstance(time_advance(model, sim, consts), Inf)
            space = [("x", input_grid(bounds, model, with_tau=tau)), ("t", time_points(bounds))]
        verdict = satisfiable(runnable_form(scc, model, bounds), space, bounds, model, base_env=env)
        if verdict.sat:
            return at, (verdict.witness["x"], verdict.witness["t"])
    return None
