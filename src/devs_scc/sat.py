"""Bounded satisfiability and witness search.

One depth-first generator enumerates the witnesses of a predicate over
the declared variable order with each variable's grid ascending, so the
first witness found is the lexicographically least satisfying
assignment — reproducible across runs and platforms.  `satisfiable` is
its first result and `iter_witnesses` drains it.

Conjuncts are checked as soon as all their variables are bound.  Those
that mention a single search variable (unary conjuncts) depend only on
that variable and the fixed base environment, so they are split out per
depth and evaluated lazily, memoised per grid index: a value known to
fail them is skipped without charge, and once every value of a grid has
failed them the whole search is unsat at once (node consistency,
Mackworth 1977, applied lazily).  Skipping only visits fewer nodes of
the plain search, so the witness and every verdict the plain search
reaches stay the same.

A search can be confined to an inclusive range of grid positions,
given as the least and the greatest position tuple in lexicographic
order; each bound holds only while the positions chosen so far equal
its prefix ("tight"), so the search visits exactly the nodes of the
plain search that lead into the range.  By default the range is the
whole grid.

Every evaluated grid value, and every conjunct free of search
variables, costs one attempt of the budget.  A verdict of "unsat"
always means: no witness within the supplied bounds; "unknown" means
the search ran out of attempts first, i.e. the instance is hard within
the budget.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .bounds import Bounds, const_env, var_grid
from .evaluator import eval_pred
from .model import Model
from .syntax import (
    Exists,
    FALSE,
    Predicate,
    conj,
    conjuncts,
    normalize,
    pred_vars,
)
from .values import EvalError, Sort, Value

Space = list[tuple[str, list[Value]]]


class BudgetExhausted(Exception):
    pass


class _Empty(Exception):
    """Some variable has no grid value satisfying its unary conjuncts."""


@dataclass
class SatResult:
    status: str  # "sat" | "unsat" | "unknown"
    witness: dict[str, Value] | None = None
    attempts: int = 0
    index: tuple[int, ...] | None = None  # the witness's grid positions

    @property
    def sat(self) -> bool:
        return self.status == "sat"


@dataclass
class _Budget:
    limit: int
    used: int = 0

    def spend(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise BudgetExhausted()


def satisfiable(
    pred: Predicate,
    space: Space,
    bounds: Bounds,
    model: Model | None = None,
    base_env: dict[str, Value] | None = None,
    *,
    lo: Sequence[int] | None = None,
    hi: Sequence[int] | None = None,
    limit: int | None = None,
) -> SatResult:
    """Least witness over `space`, or unsat-within-bounds, or unknown when
    the attempt budget runs out.

    `lo` and `hi` bound the search to grid positions from `lo` to `hi`
    (inclusive, one position per variable, lexicographic order); `limit`
    replaces the budget of `bounds.max_attempts`."""
    budget = _Budget(bounds.max_attempts if limit is None else limit)
    search = _witnesses(pred, space, bounds, model, base_env, budget, lo, hi)
    try:
        found = next(search, None)
    except BudgetExhausted:
        return SatResult("unknown", attempts=budget.used)
    if found is None:
        return SatResult("unsat", attempts=budget.used)
    index, witness = found
    return SatResult("sat", witness=witness, attempts=budget.used, index=index)


def iter_witnesses(
    pred: Predicate,
    space: Space,
    bounds: Bounds,
    model: Model | None = None,
    base_env: dict[str, Value] | None = None,
    limit: int = 1_000_000,
):
    """All witnesses in lexicographic order, stopping quietly once `limit`
    attempts are spent."""
    try:
        for _, witness in _witnesses(pred, space, bounds, model, base_env, _Budget(limit)):
            yield witness
    except BudgetExhausted:
        return


def _witnesses(pred, space, bounds, model, base_env, budget, lo=None, hi=None):
    """(grid positions, witness) pairs in lexicographic order, within the
    positions `lo` to `hi` when given; raises BudgetExhausted when the
    budget runs out first."""
    env = dict(base_env) if base_env else {}
    if model is not None:
        env = {**const_env(bounds, model), **env}
    norm = normalize(pred)
    if norm == FALSE:
        return
    names = [n for n, _ in space]
    order = {n: i for i, n in enumerate(names)}
    pre: list[Predicate] = []
    unary: list[list[Predicate]] = [[] for _ in names]
    joint: list[list[Predicate]] = [[] for _ in names]
    for c in conjuncts(norm):
        touched = {order[v] for v in pred_vars(c) if v in order}
        if not touched:
            pre.append(c)
        elif len(touched) == 1:
            unary[touched.pop()].append(c)
        else:
            joint[max(touched)].append(c)
    for c in pre:
        budget.spend()
        if not _holds(c, env, model, bounds):
            return
    # per depth: None without unary conjuncts, else each grid index's
    # unary verdict once evaluated; and how many indices have failed
    known = [[None] * len(g) if unary[d] else None for d, (_, g) in enumerate(space)]
    failed = [0] * len(names)
    path = [0] * len(names)

    def dfs(depth: int, lo_tight: bool, hi_tight: bool):
        if depth == len(space):
            yield tuple(path), {n: env[n] for n in names}
            return
        name, grid = space[depth]
        memo = known[depth]
        first = lo[depth] if lo_tight else 0
        last = hi[depth] if hi_tight else len(grid) - 1
        for i in range(first, last + 1):
            if memo is not None and memo[i] is False:
                continue
            budget.spend()
            env[name] = grid[i]
            if memo is not None and memo[i] is None:
                memo[i] = all(_holds(c, env, model, bounds) for c in unary[depth])
                if not memo[i]:
                    failed[depth] += 1
                    if failed[depth] == len(grid):
                        raise _Empty()
                    continue
            if all(_holds(c, env, model, bounds) for c in joint[depth]):
                path[depth] = i
                yield from dfs(depth + 1, lo_tight and i == first, hi_tight and i == last)
        env.pop(name, None)

    try:
        yield from dfs(0, lo is not None, hi is not None)
    except _Empty:
        return


def _holds(pred, env, model, bounds) -> bool:
    try:
        return eval_pred(pred, env, model, bounds)
    except EvalError:
        return False


# ---------------------------------------------------------------------------
# existential projection

def project_exists(
    pred: Predicate,
    drop: list[tuple[str, Sort]],
    bounds: Bounds,
    model: Model | None = None,
) -> Predicate:
    """Project a predicate onto the variables outside `drop`.

    Conjuncts free of the dropped variables are hoisted unchanged.
    Conjuncts that touch them are clustered by the dropped variables they
    share; a cluster whose remaining free variables are all dropped or
    constant is decided by bounded search (a found witness discharges it
    to true), and any cluster that cannot be discharged stays behind a
    first-class existential whose membership tests enumerate the bounds.
    """
    drop_sorts = dict(drop)
    drop_order = [n for n, _ in drop]
    keep: list[Predicate] = []
    clusters: list[tuple[set[str], list[Predicate]]] = []
    for c in conjuncts(normalize(pred)):
        mine = pred_vars(c) & drop_sorts.keys()
        if not mine:
            keep.append(c)
            continue
        merged_vars = set(mine)
        merged_preds = [c]
        rest: list[tuple[set[str], list[Predicate]]] = []
        for vars_, preds in clusters:
            if vars_ & merged_vars:
                merged_vars |= vars_
                merged_preds = preds + merged_preds
            else:
                rest.append((vars_, preds))
        rest.append((merged_vars, merged_preds))
        clusters = rest

    const_names = set()
    if model is not None:
        const_names = {n for n, _ in model.constants}
    for vars_, preds in clusters:
        body = conj(preds)
        bound = [(n, drop_sorts[n]) for n in drop_order if n in vars_]
        free_outside = pred_vars(body) - vars_ - const_names
        if not free_outside:
            space = [(n, var_grid(bounds, n, s)) for n, s in bound]
            verdict = satisfiable(body, space, bounds, model)
            if verdict.sat:
                continue  # inhabited: contributes nothing to the projection
        keep.append(Exists(tuple(bound), body))
    return normalize(conj(keep))
