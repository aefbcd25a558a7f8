"""Picking one concrete simulation configuration per class.

The witness is the lexicographically least assignment under a fixed
variable order (input event, then time, then the state variables in
declaration order), so identical inputs always select identical
representatives.  Classes born from the cases criterion carry a joint
predicate linking state and input through the original guard; those are
solved jointly so the chosen state and the chosen event actually
exercise the targeted case.  For anything else the two predicates are
solved independently.

A configuration is only executable when its pair time fits inside the
chosen state's time advance (the total-state constraint 0 <= e <= ta),
so selection first looks for members satisfying that as well; if a class
has none within bounds, the bare member is returned and the simulator
reports the failure, which is itself a finding worth seeing.

For the uniformity probe a class can also yield several distinct
witnesses, picked by deterministic stratified selection over the grid
index space rather than random draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .bounds import (
    Bounds,
    const_env,
    digits_index,
    index_digits,
    joint_space,
    pair_space,
    state_space,
)
from .evaluator import eval_expr, eval_pred
from .model import Model
from .sat import SatResult, satisfiable
from .scc import SCC
from .syntax import Cmp, MinOp, Predicate, Ref, conj, conjuncts, normalize
from .values import Inf, Num, TAU, Value, render_value


class SelectError(Exception):
    pass


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
    """Least representative of a class, re-checked by evaluation."""
    state_names = model.schema.names()
    exec_conjs = executability(model)
    if scc.joint is not None:
        space = joint_space(model, bounds)
        verdict = satisfiable(
            conj(conjuncts(scc.joint) + exec_conjs), space, bounds, model
        )
        if verdict.status != "sat":
            verdict = satisfiable(scc.joint, space, bounds, model)
        _require_sat(verdict, scc)
        w = verdict.witness
        config = SimulationConfig(
            scc.id, {n: w[n] for n in state_names}, w["x"], w["t"]
        )
    else:
        sverdict = satisfiable(scc.init_states, state_space(model, bounds), bounds, model)
        _require_sat(sverdict, scc)
        pverdict = satisfiable(scc.input_pairs, pair_space(model, bounds), bounds, model)
        _require_sat(pverdict, scc)
        config = SimulationConfig(
            scc.id,
            {n: sverdict.witness[n] for n in state_names},
            pverdict.witness["x"],
            pverdict.witness["t"],
        )
        if not _executable(config, model, bounds):
            joint = conj(
                conjuncts(scc.init_states) + conjuncts(scc.input_pairs) + exec_conjs
            )
            retry = satisfiable(joint, joint_space(model, bounds), bounds, model)
            if retry.sat:
                w = retry.witness
                config = SimulationConfig(
                    scc.id, {n: w[n] for n in state_names}, w["x"], w["t"]
                )
    _check_membership(config, scc, model, bounds)
    return config


def _executable(config: SimulationConfig, model: Model, bounds: Bounds) -> bool:
    consts = const_env(bounds, model)
    ta = eval_expr(model.ta, {**consts, **config.state}, model)
    if config.event == TAU:
        return not isinstance(ta, Inf)
    if isinstance(ta, Inf):
        return True
    return isinstance(config.time, Num) and config.time.value <= ta.value


def _require_sat(verdict: SatResult, scc: SCC) -> None:
    if verdict.status == "unsat":
        raise SelectError(f"class {scc.id}: no representative within bounds")
    if verdict.status == "unknown":
        raise SelectError(
            f"class {scc.id}: witness search exhausted its attempt budget"
        )


def _check_membership(config: SimulationConfig, scc: SCC, model: Model, bounds: Bounds) -> None:
    consts = const_env(bounds, model)
    env = {**consts, **config.state}
    if not eval_pred(scc.init_states, env, model, bounds):
        raise SelectError(f"class {scc.id}: selected state fails its own predicate")
    penv = {**consts, "x": config.event, "t": config.time}
    if not eval_pred(scc.input_pairs, penv, model, bounds):
        raise SelectError(f"class {scc.id}: selected input pair fails its own predicate")


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
    if scc.joint is not None:
        member = conjuncts(scc.joint)
    else:
        member = conjuncts(scc.init_states) + conjuncts(scc.input_pairs)
    # only members the simulator can actually run
    pred = normalize(conj(executability(model) + member))
    state_names = model.schema.names()
    strides = [_STRIDES[dim % len(_STRIDES)] for dim in reversed(range(len(space)))]

    found: dict[str, SimulationConfig] = {}
    scanned = 0
    for s in range(min(k, total)):
        if scanned >= scan_cap:
            break
        lo = [(s * stride) % size for stride, size in zip(strides, sizes)]
        start = digits_index(lo, sizes)
        end = min(total, start + scan_cap - scanned)
        verdict = satisfiable(
            pred, space, bounds, model,
            lo=lo,
            hi=index_digits(end - 1, sizes),
            limit=len(space) * (end - start) + len(conjuncts(pred)),
        )
        if not verdict.sat:
            scanned += end - start
            continue
        scanned += digits_index(verdict.index, sizes) - start + 1
        w = verdict.witness
        cfg = SimulationConfig(scc.id, {n: w[n] for n in state_names}, w["x"], w["t"])
        found.setdefault(repr(cfg.to_json()), cfg)
    return list(found.values())
