"""Picking one concrete simulation configuration per class.

The witness is the lexicographically least assignment under a fixed
variable order (input event, then time, then the state variables in
declaration order), so identical inputs always select identical
representatives.  A class's members are the assignments satisfying
`SCC.member` (for classes born from the cases criterion that is the
joint predicate, linking state and input through the original guard, so
the chosen state and event actually exercise the targeted case).  Every
class is solved by one search over the joint space of its `member_form`,
prepared once per model and bounds and kept on the class.

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

from dataclasses import dataclass
from math import prod

from .bounds import Bounds, const_env, digits_index, index_digits, joint_space
# `eval_pred` is not called here, but `bench/layers.py` rebinds
# `selector.eval_pred` and stops on a missing name
from .evaluator import compile_pred, eval_pred  # noqa: F401
from .model import Model
from .sat import Conjunction, SatResult, prepare_conjuncts, satisfiable
from .scc import SCC
from .syntax import Cmp, MinOp, Predicate, Ref
from .values import Value, render_value


class SelectError(Exception):
    """A class with no usable representative; the message names the class."""

    def __init__(self, scc_id: int, reason: str):
        super().__init__(f"class {scc_id}: {reason}")
        self.reason = reason


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


def member_form(scc: SCC, model: Model, bounds: Bounds) -> Conjunction:
    """`scc.member` prepared for search, made once for this model and
    bounds and kept on the class."""
    return scc.keep("member", model, bounds, lambda: prepare_conjuncts(scc.member, model, bounds))


def runnable_form(scc: SCC, model: Model, bounds: Bounds) -> Conjunction:
    """The member and executability forms conjoined, kept on the class."""
    def build():
        executable = model.keep_for(
            bounds, "executability", lambda: prepare_conjuncts(executability(model), model, bounds))
        return member_form(scc, model, bounds) & executable
    return scc.keep("runnable", model, bounds, build)


def state_test(scc: SCC, model: Model, bounds: Bounds):
    """`scc.init_states` compiled, made once for this model and bounds and
    kept on the class; selection and chaining both decide on it."""
    return scc.keep("init_states", model, bounds,
                    lambda: compile_pred(scc.init_states, model, bounds))


def _pair_test(scc: SCC, model: Model, bounds: Bounds):
    """`scc.input_pairs` compiled, kept on the class like `state_test`."""
    return scc.keep("input_pairs", model, bounds,
                    lambda: compile_pred(scc.input_pairs, model, bounds))


@dataclass(frozen=True)
class SimulationConfig:
    scc_id: int
    state: dict[str, Value]
    event: Value  # an input value or the tau marker
    time: Value

    def to_json(self) -> dict:
        return {
            "scc": self.scc_id,
            "state": {k: render_value(v) for k, v in self.state.items()},
            "input": {"event": render_value(self.event), "time": render_value(self.time)},
        }


def select_config(scc: SCC, model: Model, bounds: Bounds) -> SimulationConfig:
    """Least executable member of a class, else its least member,
    re-checked by the class's kept state and pair tests."""
    space = joint_space(model, bounds)
    verdict = satisfiable(runnable_form(scc, model, bounds), space, bounds, model)
    if verdict.status != "sat":
        verdict = satisfiable(member_form(scc, model, bounds), space, bounds, model)
    _require_sat(verdict, scc)
    config = _config(scc, verdict.witness, model)
    _check_membership(config, scc, model, bounds)
    return config


def _config(scc: SCC, witness: dict[str, Value], model: Model) -> SimulationConfig:
    state = {n: witness[n] for n in model.schema.names()}
    return SimulationConfig(scc.id, state, witness["x"], witness["t"])


def _require_sat(verdict: SatResult, scc: SCC) -> None:
    if verdict.status == "unsat":
        raise SelectError(scc.id, "no representative within bounds")
    if verdict.status == "unknown":
        raise SelectError(scc.id, "witness search exhausted its attempt budget")


def _check_membership(config: SimulationConfig, scc: SCC, model: Model, bounds: Bounds) -> None:
    consts = const_env(bounds, model)
    if not state_test(scc, model, bounds)({**consts, **config.state}):
        raise SelectError(scc.id, "selected state fails its own predicate")
    if not _pair_test(scc, model, bounds)({**consts, "x": config.event, "t": config.time}):
        raise SelectError(scc.id, "selected input pair fails its own predicate")


_STRIDES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67)


def sample_configs(
    scc: SCC, k: int, model: Model, bounds: Bounds, scan_cap: int = 20_000
) -> list[SimulationConfig]:
    """Up to k distinct executable members, spread over the joint grid.

    The grid is numbered in mixed radix with the event varying fastest,
    then the time, then the state variables in declaration order.
    Stratum s starts at the point whose position in every dimension is
    s steps of a fixed prime stride (a low-discrepancy spread, no
    randomness) and takes the first member at or after it in that
    numbering.  The strata share a budget of `scan_cap` grid points,
    charged as a scan from each start would charge them: up to and
    including the member found, or to the end of the grid or the budget.
    A member already sampled ends its stratum without a new sample.

    Each window is at most `scan_cap` points long, so it moves only the
    fastest-varying dimensions away from its start: the samples need not
    include the selected representative, and a class with no member in
    any window yields none.  Each window is searched by the pruned
    witness search over the reversed joint space, whose lexicographic
    order is the numbering above, with a budget that covers every node
    of the window, so `bounds.max_attempts` never cuts it short.
    """
    space = joint_space(model, bounds)[::-1]
    sizes = [len(g) for _, g in space]
    total = prod(sizes)
    if total == 0 or k <= 0:
        return []
    form = runnable_form(scc, model, bounds)
    strides = [_STRIDES[dim % len(_STRIDES)] for dim in reversed(range(len(space)))]

    found: dict[tuple[Value, ...], SimulationConfig] = {}
    scanned = 0
    for s in range(min(k, total)):
        if scanned >= scan_cap:
            break
        lo = [(s * stride) % size for stride, size in zip(strides, sizes)]
        start = digits_index(lo, sizes)
        end = min(total, start + scan_cap - scanned)
        verdict = satisfiable(
            form, space, bounds, model,
            lo=lo,
            hi=index_digits(end - 1, sizes),
            limit=len(space) * (end - start) + len(form.items),
        )
        if not verdict.sat:
            scanned += end - start
            continue
        scanned += digits_index(verdict.index, sizes) - start + 1
        key = tuple(verdict.witness.values())
        if key not in found:
            found[key] = _config(scc, verdict.witness, model)
    return list(found.values())
