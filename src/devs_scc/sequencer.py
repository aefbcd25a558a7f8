"""Chaining selected configurations into simulation sequences.

After simulating one class the post-state often already belongs to
another class's state set; chaining reuses it instead of configuring a
fresh run.  The three nondeterministic choices of the sequencing
algorithm are fixed for reproducibility: the next class is always the
lowest remaining id, the first state and input pair come from the
selector's least witness, and a chained input pair is the least pair
that, with the current state, is in the class's `runnable_form` (the
selector's search, with the state fixed), so a class is covered only by
a runnable step inside it.  Each step, a `SimulationConfig` of its
class, the state it started from and the pair it applied, covers its
class, and every class is consumed exactly once, so the class ids of the
produced sequences' steps (`SimulationSequence.covered`) partition the
input catalog.  Each step runs once by `simulator.run_step` and keeps
the trace event it fired, or the error it failed with, the one record
of its failure; a sequence's events and findings are read from its
steps (`simulator.events`, `failures`), and a replay
(`simulator.run_steps`) runs every step with a state again and gives
the same steps.  A failing step ends its sequence with the failure
recorded and the remaining classes continue in fresh sequences.

Chaining costs per distinct state, not per step: whether a class can
run from a state depends on that state alone, and the remaining classes
only shrink, so a class a state rejected once (its state test false or
failing to evaluate, or its runnable search not `sat`) stays rejected.
Within one `build_sequences` call each post-state seen, keyed by its
values' `values.value_key` in schema order, keeps a cursor, the least
class id it has not rejected, and a later visit resumes the scan there.
A class whose state test passed but whose state's time advance failed
is not rejected, so the "cannot chain" note comes on every visit.
"""

from __future__ import annotations

from bisect import bisect_left
from math import inf

from .context import Context
from .evaluator import all_hold
from .sat import satisfiable
from .scc import SCC
from .selector import SimulationConfig, runnable_form, select_config, state_tests
from .simulator import init, run_step, time_advance
from .values import EvalError, Inf, Struct, value_key


class SimulationSequence(Struct):
    """Steps chained from one initial state; each covers its own class."""

    __slots__ = ("steps",)

    def __init__(self, steps: list[SimulationConfig] | None = None) -> None:
        self.steps = [] if steps is None else steps

    @property
    def covered(self) -> list[int]:
        """The ids of the classes the steps cover, in step order."""
        return [s.scc_id for s in self.steps]


def build_sequences(
    sccs: list[SCC],
    ctx: Context,
    configs: dict[int, SimulationConfig] | None = None,
) -> tuple[list[SimulationSequence], list[str]]:
    """Chain the classes into sequences.  `configs` holds, by class id,
    what selection already gave a class: its representative, or the
    failed step it returned; a head not in it is selected here."""
    configs = configs or {}
    remaining = sorted(sccs, key=_id)
    sequences: list[SimulationSequence] = []
    notes: list[str] = []
    cursors: dict[tuple, float] = {}  # a post-state's value keys -> least id not rejected

    while remaining:
        scc = remaining.pop(0)
        seq = SimulationSequence()
        sequences.append(seq)
        cfg = configs.get(scc.id) or select_config(scc, ctx)
        if cfg.error is not None:
            seq.steps.append(cfg)
            continue
        sim = init(ctx.model, cfg.state)
        while True:
            sim, ran = run_step(sim, cfg, ctx)
            seq.steps.append(ran)
            if sim is None:
                break
            try:
                found = _next_reachable(remaining, sim, ctx, cursors)
            except EvalError as err:
                notes.append(f"class {ran.scc_id}: cannot chain from its post-state: {err}")
                break
            if found is None:
                break
            at, (event, rel_time) = found
            # the pair's time is elapsed time relative to the state the class matched on
            cfg = SimulationConfig(remaining.pop(at).id, sim.state, event, rel_time)
    return sequences, notes


def _next_reachable(remaining, sim, ctx, cursors):
    """Position of the first remaining class (ascending id) with a runnable
    member made of the current state, and that member's pair.  The scan
    starts at the state's cursor in `cursors` and moves it past every
    class it rejects.  The pair space is the context's, without the
    no-event marker when the state's time advance is infinite; an
    EvalError from that time advance ends the chain."""
    key = tuple(map(value_key, sim.state.values()))
    env = {**ctx.consts, **sim.state}
    space = None
    for at in range(bisect_left(remaining, cursors.get(key, 0), key=_id), len(remaining)):
        scc = remaining[at]
        try:
            if not all_hold(state_tests(scc, ctx), env):
                continue
        except EvalError:
            continue
        cursors[key] = scc.id  # kept if the search finds a pair or the time advance fails
        if space is None:
            space = ctx.pair_spaces[not isinstance(time_advance(sim, ctx, env), Inf)]
        verdict = satisfiable(runnable_form(scc, ctx), space, ctx, base_env=env)
        if verdict.sat:
            return at, (verdict.witness["x"], verdict.witness["t"])
    cursors[key] = inf
    return None


def _id(scc: SCC) -> int:
    return scc.id
