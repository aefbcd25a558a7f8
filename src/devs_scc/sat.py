"""Bounded satisfiability and witness search.

One depth-first search enumerates the witnesses of a predicate over the
declared variable order with each variable's grid ascending, so the
first witness found is the lexicographically least satisfying
assignment — reproducible across runs and platforms.  `satisfiable` is
its first result and `iter_witnesses` drains it.  `coverage` runs the
coverage and disjointness checks of a case table on it, deciding first,
without a search, each pair of cases whose guards admit no common value
of some variable.  The search is one loop
over an explicit stack of grid positions, one per variable, rather than
one generator frame per variable.

A predicate is searched in its prepared form, a `Conjunction`: its
normal form's conjuncts in canonical order, each with its text, its free
variables and a closure compiled by `evaluator.compile_pred`.  A search
accepts a predicate and prepares it, or a form prepared before, so a
caller that keeps its forms prepares each once per campaign; forms
combine by `&` without re-normalizing.  The search knows predicates and
spaces, not classes.

Conjuncts are checked as soon as all their variables are bound.  Those
that mention a single search variable (unary conjuncts) depend only on
that variable and the fixed base environment, so they are split out per
depth and evaluated lazily, memoised per grid index: a value known to
fail them is skipped without charge, and once every value of a grid has
failed them the whole search is unsat at once (node consistency,
Mackworth 1977, applied lazily).  Skipping only visits fewer nodes of
the plain search, so the witness and every verdict the plain search
reaches stay the same.  `coverage` applies the same consistency eagerly,
once per case: a bit mask per variable of the grid positions the case's
unary conjuncts admit.  The split of conjuncts by depth is one helper,
`_by_depth`, for both.

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

import itertools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .bounds import Bounds, const_env, var_grid
from .evaluator import compile_pred
from .model import Model
from .syntax import (
    BoolConst,
    Exists,
    Not,
    Predicate,
    conj,
    conjuncts,
    normalize,
    pred_vars,
    render_pred,
)
from .values import EvalError, Sort, Value

Space = list[tuple[str, list[Value]]]


class BudgetExhausted(Exception):
    pass


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


class Conjunct:
    """One conjunct of a normalized predicate, prepared for search: its
    canonical text, its free variables and its compiled test."""

    __slots__ = ("pred", "text", "vars", "test")

    def __init__(self, pred: Predicate, model: Model | None, bounds: Bounds | None):
        self.pred = pred
        self.text = render_pred(pred)
        self.vars = tuple(pred_vars(pred))
        self.test = compile_pred(pred, model, bounds)


class Conjunction:
    """A normalized conjunction prepared for search: its conjuncts in
    canonical order (ascending text, no two alike), or false.  `a & b` is
    the prepared form of the normalized conjunction of both."""

    __slots__ = ("items", "false")

    def __init__(self, items: tuple[Conjunct, ...] = (), false: bool = False):
        self.items = items
        self.false = false

    def __and__(self, other: Conjunction) -> Conjunction:
        if self.false or not (other.items or other.false):
            return self
        if other.false or not self.items:
            return other
        return _ordered(self.items + other.items)


def _ordered(items) -> Conjunction:
    by_text: dict[str, Conjunct] = {}
    for c in items:
        by_text.setdefault(c.text, c)
    return Conjunction(tuple(by_text[t] for t in sorted(by_text)))


def prepare(pred: Predicate, model: Model | None = None, bounds: Bounds | None = None) -> Conjunction:
    """The prepared form of `pred`."""
    return prepare_conjuncts(conjuncts(normalize(pred)), model, bounds)


def prepare_conjuncts(
    preds: Sequence[Predicate], model: Model | None = None, bounds: Bounds | None = None
) -> Conjunction:
    """The prepared form of the conjunction of `preds`, each already in
    normal form."""
    if any(isinstance(p, BoolConst) and not p.value for p in preds):
        return Conjunction(false=True)
    return _ordered(Conjunct(p, model, bounds) for p in preds)


def satisfiable(
    pred: Predicate | Conjunction,
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

    `pred` is a predicate or its prepared form; `lo` and `hi` bound the
    search to grid positions from `lo` to `hi` (inclusive, one position
    per variable, lexicographic order); `limit` replaces the budget of
    `bounds.max_attempts`."""
    budget = _Budget(bounds.max_attempts if limit is None else limit)
    search = _witnesses(_form(pred, model, bounds), space,
                        _env(bounds, model, base_env), budget, lo, hi)
    try:
        found = next(search, None)
    except BudgetExhausted:
        return SatResult("unknown", attempts=budget.used)
    if found is None:
        return SatResult("unsat", attempts=budget.used)
    index, witness = found
    return SatResult("sat", witness=witness, attempts=budget.used, index=index)


def iter_witnesses(
    pred: Predicate | Conjunction,
    space: Space,
    bounds: Bounds,
    model: Model | None = None,
    base_env: dict[str, Value] | None = None,
    limit: int = 1_000_000,
):
    """All witnesses in lexicographic order, stopping quietly once `limit`
    attempts are spent."""
    search = _witnesses(_form(pred, model, bounds), space,
                        _env(bounds, model, base_env), _Budget(limit))
    try:
        for _, witness in search:
            yield witness
    except BudgetExhausted:
        return


def coverage(
    preds: Sequence[Predicate], total: bool, space: Space, bounds: Bounds, model: Model | None = None
) -> tuple[SatResult | None, Iterator[tuple[tuple[int, int], SatResult]]]:
    """The coverage and disjointness checks of a case table (Heitmeyer,
    Jeffords & Labaw 1996): the search for the least point of `space`
    where none of `preds` holds, None when `total` (a catch-all case
    completes the table); and, decided as they are iterated, the pairs
    of positions i < j in ascending order, each with the search for the
    least point where both hold.  A point where a predicate fails to
    evaluate witnesses neither.

    Each predicate's unary conjuncts are evaluated once over the grid of
    their variable (node consistency, Mackworth 1977), giving a mask of
    the values it admits there.  A pair whose masks share no value of
    some variable is disjoint, and is reported unsat with no search and
    no attempt; the search would reach the same verdict, or run out of
    budget first.  Every other pair is searched."""
    gap = None if total else satisfiable(conj([Not(p) for p in preds]), space, bounds, model)
    forms = [prepare(p, model, bounds) for p in preds]
    env = _env(bounds, model, None)
    masks = [_admitted(f, space, env) for f in forms]

    def decide(i, j):
        if any(not a & b for a, b in zip(masks[i], masks[j])):
            return SatResult("unsat")
        return satisfiable(forms[i] & forms[j], space, bounds, model)

    overlaps = (
        ((i, j), decide(i, j)) for i, j in itertools.combinations(range(len(forms)), 2)
    )
    return gap, overlaps


def _form(pred, model, bounds) -> Conjunction:
    return pred if isinstance(pred, Conjunction) else prepare(pred, model, bounds)


def _env(bounds, model, base_env) -> dict[str, Value]:
    env = dict(base_env) if base_env else {}
    if model is not None:
        env = {**const_env(bounds, model), **env}
    return env


def _witnesses(form: Conjunction, space: Space, env: dict, budget: _Budget, lo=None, hi=None):
    """(grid positions, witness) pairs in lexicographic order, within the
    positions `lo` to `hi` when given; raises BudgetExhausted when the
    budget runs out first.  The attempts are counted in a local and are
    in `budget.used` whenever the search yields, returns or raises."""
    if form.false:
        return
    names = [n for n, _ in space]
    grids = [g for _, g in space]
    pre, unary, joint = _by_depth(form, names)
    used, limit = budget.used, budget.limit
    for test in pre:
        used += 1
        if used > limit:
            budget.used = used
            raise BudgetExhausted()
        if not _all_of((test,))(env):
            budget.used = used
            return
    n = len(names)
    if n == 0:
        budget.used = used
        yield (), {}
        return
    # per depth: the test of its unary and of its other conjuncts, None
    # without any; for unary conjuncts, each grid index's verdict once
    # evaluated, and how many indices have failed
    unary_test, joint_test, known = [None] * n, [None] * n, [None] * n
    for d, tests in unary.items():
        unary_test[d] = _all_of(tests)
        known[d] = [None] * len(grids[d])
    for d, tests in joint.items():
        joint_test[d] = _all_of(tests)
    failed = [0] * n
    # the stack: per depth the next grid index to try, the last one in
    # range, and whether the positions above it equal the prefix of lo / hi
    pos, end = [0] * n, [0] * n
    lo_tight, hi_tight = [False] * n, [False] * n
    lo_tight[0], hi_tight[0] = lo is not None, hi is not None
    pos[0] = lo[0] if lo is not None else 0
    end[0] = hi[0] if hi is not None else len(grids[0]) - 1
    last, d = n - 1, 0
    while True:
        i = pos[d]
        if i > end[d]:
            if d == 0:
                break
            d -= 1
            continue
        pos[d] = i + 1
        memo = known[d]
        if memo is not None and memo[i] is False:
            continue
        used += 1
        if used > limit:
            budget.used = used
            raise BudgetExhausted()
        env[names[d]] = grids[d][i]
        if memo is not None and memo[i] is None:
            memo[i] = unary_test[d](env)
            if not memo[i]:
                failed[d] += 1
                if failed[d] == len(grids[d]):
                    break  # no value of this variable satisfies its unary conjuncts
                continue
        test = joint_test[d]
        if test is not None and not test(env):
            continue
        if d == last:
            budget.used = used
            yield tuple(p - 1 for p in pos), {name: env[name] for name in names}
            continue
        down_lo = lo_tight[d] and i == lo[d]
        down_hi = hi_tight[d] and i == hi[d]
        d += 1
        lo_tight[d], hi_tight[d] = down_lo, down_hi
        pos[d] = lo[d] if down_lo else 0
        end[d] = hi[d] if down_hi else len(grids[d]) - 1
    budget.used = used


def _by_depth(form: Conjunction, names: Sequence[str]):
    """The tests of `form`'s conjuncts split by the search variables
    `names` they mention: those that mention none; those that mention
    one (unary), by its depth; and the others, by the deepest they
    mention, where the search first has them all bound."""
    depth_of = {n: d for d, n in enumerate(names)}
    pre = []
    unary: dict[int, list] = {}
    joint: dict[int, list] = {}
    for c in form.items:
        touched = [depth_of[v] for v in c.vars if v in depth_of]
        if not touched:
            pre.append(c.test)
        elif len(touched) == 1:
            unary.setdefault(touched[0], []).append(c.test)
        else:
            joint.setdefault(max(touched), []).append(c.test)
    return pre, unary, joint


def _admitted(form: Conjunction, space: Space, env: dict) -> list[int]:
    """Per variable of `space`, the bit mask of the grid positions whose
    value satisfies all of `form`'s unary conjuncts on it under `env`
    (every position when it has none)."""
    _, unary, _ = _by_depth(form, [n for n, _ in space])
    env = dict(env)
    masks = []
    for d, (name, grid) in enumerate(space):
        mask = (1 << len(grid)) - 1
        if d in unary:
            admits = _all_of(unary[d])
            for i, value in enumerate(grid):
                env[name] = value
                if not admits(env):
                    mask &= ~(1 << i)
        masks.append(mask)
    return masks


def _all_of(tests):
    """One test for all of `tests`; a conjunct whose evaluation fails does
    not hold."""
    def all_hold(env):
        try:
            for test in tests:
                if not test(env):
                    return False
            return True
        except EvalError:
            return False
    return all_hold


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
