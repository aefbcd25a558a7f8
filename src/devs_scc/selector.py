"""Picking one concrete simulation configuration per class.

The witness is the lexicographically least assignment under a fixed
variable order (input event, then time, then the state variables in
declaration order), so identical inputs always select identical
representatives.  A class's members are the assignments satisfying
`SCC.member` (for classes born from the cases criterion that is the
joint predicate, linking state and input through the original guard, so
the chosen state and event actually exercise the targeted case).  Every
class is solved by one search over the joint space of its `member_form`,
prepared once per context and kept in its `ClassForms`.  The selected
witness is re-checked on the class's state tests, kept there as well
because chaining decides on them too, and on its pair tests: the
interned tests of each predicate's conjuncts (`sat.interned`), decided
by `evaluator.all_hold`, the search's own rule.  A class compiles
nothing that its context has compiled before, and a conjunct that fails
to evaluate at the witness fails the re-check.

A configuration is only executable when its pair time fits inside the
chosen state's time advance (the total-state constraint 0 <= e <= ta),
so selection picks the least member of the class's `runnable_form`, the
members satisfying that as well, which chaining also searches with the
state fixed; if a class has none within bounds, the least bare member is
returned and the simulator reports the failure, which is itself a
finding worth seeing.

For the uniformity probe a class can also yield several distinct
witnesses, picked by deterministic stratified selection over the grid
index space rather than random draws.
"""

from __future__ import annotations

from math import inf, prod
from typing import TYPE_CHECKING

from .bounds import digits_index, index_digits
from .context import Context
# `eval_pred` is not called here, but `bench/layers.py` rebinds
# `selector.eval_pred` and stops on a missing name
from .evaluator import all_hold, eval_pred  # noqa: F401
from .model import Model
from .sat import Conjunction, interned, prepare_conjuncts, satisfiable
from .scc import SCC
from .syntax import Cmp, MinOp, Predicate, Ref, conjuncts
from .values import TAU, Num, Record, Value, value_key

if TYPE_CHECKING:  # the simulator imports this module
    from .simulator import TraceEvent


def executability(model: Model) -> list[Predicate]:
    """Conjuncts expressing t <= ta(state).

    When ta is literally a min over timer variables the bound decomposes
    into one comparison per timer, which lets the witness search prune at
    each timer's depth instead of only at the end.
    """
    ta = model.ta
    if isinstance(ta, MinOp) and all(isinstance(a, Ref) for a in ta.args):
        return [Cmp("<=", Ref("t"), a) for a in ta.args]
    return [Cmp("<=", Ref("t"), ta)]


def member_form(scc: SCC, ctx: Context) -> Conjunction:
    """`scc.member` prepared for search, made once per context."""
    forms = ctx.forms(scc)
    if forms.member is None:
        forms.member = prepare_conjuncts(scc.member, ctx)
    return forms.member


def runnable_form(scc: SCC, ctx: Context) -> Conjunction:
    """The member form and the context's executability form conjoined."""
    forms = ctx.forms(scc)
    if forms.runnable is None:
        if ctx.executable is None:
            ctx.executable = prepare_conjuncts(executability(ctx.model), ctx)
        forms.runnable = member_form(scc, ctx) & ctx.executable
    return forms.runnable


def state_tests(scc: SCC, ctx: Context) -> tuple:
    """The interned tests of `scc.init_states`' conjuncts, in their
    order, made once per context; selection and chaining both decide on
    them with `all_hold`."""
    forms = ctx.forms(scc)
    if forms.state is None:
        forms.state = _tests(scc.init_states, ctx)
    return forms.state


def _tests(pred: Predicate, ctx: Context) -> tuple:
    return tuple(c.test for c in interned(conjuncts(pred), ctx))


class SimulationConfig(Record):
    """A class's initial state and timed input, written in one layout to
    `configs.json` and `sequences.json` (`campaign.StepWriter`).  Run as
    a step (`run_step`), it keeps the trace event it fired (`outcome`) or
    the error it failed with, the one record of a failure; a class with
    no representative is a step with the reason as its error and an empty
    state, which never ran."""

    __slots__ = ("scc_id", "state", "event", "time", "outcome", "error")

    def __init__(self, scc_id: int, state: dict[str, Value], event: Value, time: Value,
                 outcome: TraceEvent | None = None, error: str | None = None) -> None:
        self.scc_id = scc_id
        self.state = state
        self.event = event  # an input value or the tau marker
        self.time = time
        self.outcome = outcome
        self.error = error

    def failure(self) -> str:
        """The step's error naming its class: a run's finding, or a class
        that selection could not represent."""
        return f"class {self.scc_id}: {self.error}"


def select_config(scc: SCC, ctx: Context) -> SimulationConfig:
    """Least executable member of a class, else its least member,
    re-checked by the class's kept state tests and its pair predicate;
    the class's step either way: that member, or a step that never ran,
    with an empty state and the first reason that applies as its error."""
    space = ctx.joint_space
    verdict = satisfiable(runnable_form(scc, ctx), space, ctx)
    if verdict.status != "sat":
        verdict = satisfiable(member_form(scc, ctx), space, ctx)
    if verdict.status == "unsat":
        reason = "no representative within bounds"
    elif verdict.status == "unknown":
        reason = "witness search exhausted its attempt budget"
    else:
        config = _config(scc, verdict.witness, ctx)
        consts = ctx.consts
        if not all_hold(state_tests(scc, ctx), {**consts, **config.state}):
            reason = "selected state fails its own predicate"
        elif not all_hold(_tests(scc.input_pairs, ctx),
                          {**consts, "x": config.event, "t": config.time}):
            reason = "selected input pair fails its own predicate"
        else:
            return config
    return SimulationConfig(scc.id, {}, TAU, Num(0), error=reason)


def _config(scc: SCC, witness: dict[str, Value], ctx: Context) -> SimulationConfig:
    state = {n: witness[n] for n in ctx.model.schema.names()}
    return SimulationConfig(scc.id, state, witness["x"], witness["t"])


_STRIDES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67)

# the grid points all strata of one `sample_configs` call may scan
_SCAN_CAP = 20_000


def sample_configs(scc: SCC, k: int, ctx: Context) -> list[SimulationConfig]:
    """Up to k distinct executable members, spread over the joint grid.

    The grid is numbered in mixed radix with the event varying fastest,
    then the time, then the state variables in declaration order.
    Stratum s starts at the point whose position in every dimension is
    s steps of a fixed prime stride (a low-discrepancy spread, no
    randomness) and takes the first member at or after it in that
    numbering.  The strata share a budget of `_SCAN_CAP` grid points,
    charged as a scan from each start would charge them: up to and
    including the member found, or to the end of the grid or the budget.
    A member already sampled ends its stratum without a new sample.

    Each window is at most `_SCAN_CAP` points long, so it moves only the
    fastest-varying dimensions away from its start: the samples need not
    include the selected representative, and a class with no member in
    any window yields none.  Each window is searched by the pruned
    witness search over the reversed joint space, whose lexicographic
    order is the numbering above, with no attempt limit: a window of W
    points visits at most `len(space) * W` grid values, so the search
    always ends and `bounds.max_attempts` never cuts it short.
    """
    space = ctx.reversed_joint_space
    sizes = [len(g) for _, g in space]
    total = prod(sizes)
    if total == 0 or k <= 0:
        return []
    form = runnable_form(scc, ctx)
    strides = [_STRIDES[dim % len(_STRIDES)] for dim in reversed(range(len(space)))]

    # the keys of a witness's values -> its configuration
    found: dict[tuple, SimulationConfig] = {}
    scanned = 0
    for s in range(min(k, total)):
        if scanned >= _SCAN_CAP:
            break
        lo = [(s * stride) % size for stride, size in zip(strides, sizes)]
        start = digits_index(lo, sizes)
        end = min(total, start + _SCAN_CAP - scanned)
        verdict = satisfiable(
            form, space, ctx,
            lo=lo,
            hi=index_digits(end - 1, sizes),
            limit=inf,
        )
        if not verdict.sat:
            scanned += end - start
            continue
        scanned += digits_index(verdict.index, sizes) - start + 1
        key = tuple(map(value_key, verdict.witness.values()))
        if key not in found:
            found[key] = _config(scc, verdict.witness, ctx)
    return list(found.values())
