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
variables and a closure compiled by `evaluator.compile_pred`.  The
canonical text is a conjunct's identity.  Given a model, preparing
interns conjuncts (hash-consing, Filliatre & Conchon 2006): the model
keeps, for one bounds object, one `Conjunct` per text, so all forms over
that model and those bounds share one variable tuple and one closure per
distinct conjunct.  A search accepts a predicate and prepares it, or a
form prepared before, so a caller that keeps its forms prepares each
once per campaign; forms combine by `&` without re-normalizing.  The
search knows predicates and spaces, not classes.

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
`_by_depth`, for both; a form keeps its split for the order of the
search variables it was last searched over, so a form searched many
times over one space, as chaining and the probe search, is split once.

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

    def __init__(self, pred: Predicate, text: str, model: Model | None, bounds: Bounds | None):
        self.pred = pred
        self.text = text
        self.vars = tuple(pred_vars(pred))
        self.test = compile_pred(pred, model, bounds)


class Conjunction:
    """A normalized conjunction prepared for search: its conjuncts in
    canonical order (ascending text, no two alike), or false.  `a & b` is
    the prepared form of the normalized conjunction of both.  It keeps
    the split of its conjuncts by search depth for the order of the
    search variables it was last searched over, see `_by_depth`."""

    __slots__ = ("items", "false", "split")

    def __init__(self, items: tuple[Conjunct, ...] = (), false: bool = False):
        self.items = items
        self.false = false
        self.split: tuple | None = None  # (variable order, split)

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
    normal form.  With a model, each conjunct is interned: the first one
    prepared with a canonical text is kept on the model for these bounds
    (`Model.keep_for`) and stands for every later one with that text."""
    if any(isinstance(p, BoolConst) and not p.value for p in preds):
        return Conjunction(false=True)
    if model is None:
        return _ordered(Conjunct(p, render_pred(p), None, bounds) for p in preds)
    interned = model.keep_for(bounds, "conjuncts", dict)
    items = []
    for p in preds:
        text = render_pred(p)
        c = interned.get(text)
        if c is None:
            c = interned[text] = Conjunct(p, text, model, bounds)
        items.append(c)
    return _ordered(items)


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
    names = tuple(n for n, _ in space)
    grids = [g for _, g in space]
    # per depth: the tests of its unary and of its other conjuncts, None
    # without any
    pre, unary_tests, joint_tests = _by_depth(form, names)
    used, limit = budget.used, budget.limit
    for test in pre:
        used += 1
        if used > limit:
            budget.used = used
            raise BudgetExhausted()
        if not _all_hold((test,), env):
            budget.used = used
            return
    n = len(names)
    if n == 0:
        budget.used = used
        yield (), {}
        return
    # for unary conjuncts, per depth: each grid index's verdict once
    # evaluated, and how many indices have failed
    known = [None if tests is None else [None] * len(grid)
             for tests, grid in zip(unary_tests, grids)]
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
            memo[i] = _all_hold(unary_tests[d], env)
            if not memo[i]:
                failed[d] += 1
                if failed[d] == len(grids[d]):
                    break  # no value of this variable satisfies its unary conjuncts
                continue
        tests = joint_tests[d]
        if tests is not None and not _all_hold(tests, env):
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


def _by_depth(form: Conjunction, names: tuple[str, ...]):
    """The tests of `form`'s conjuncts split by the search variables
    `names` they mention: those that mention none; and per depth, those
    that mention that variable only (unary), and the others whose deepest
    variable it is, where the search first has them all bound, each None
    without any.  The split is kept on the form for the last order of
    `names` it was made for: a search that repeats, such as chaining's
    per state or the probe's per stratum, repeats over one order."""
    kept = form.split
    if kept is None or kept[0] != names:
        kept = form.split = (names, _split(form, names))
    return kept[1]


def _split(form: Conjunction, names: tuple[str, ...]):
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
    return (tuple(pre),
            tuple(tuple(unary[d]) if d in unary else None for d in range(len(names))),
            tuple(tuple(joint[d]) if d in joint else None for d in range(len(names))))


def _admitted(form: Conjunction, space: Space, env: dict) -> list[int]:
    """Per variable of `space`, the bit mask of the grid positions whose
    value satisfies all of `form`'s unary conjuncts on it under `env`
    (every position when it has none)."""
    _, unary, _ = _by_depth(form, tuple(n for n, _ in space))
    env = dict(env)
    masks = []
    for (name, grid), tests in zip(space, unary):
        mask = (1 << len(grid)) - 1
        if tests is not None:
            for i, value in enumerate(grid):
                env[name] = value
                if not _all_hold(tests, env):
                    mask &= ~(1 << i)
        masks.append(mask)
    return masks


def _all_hold(tests, env) -> bool:
    """Whether all of `tests` hold in `env`; a conjunct whose evaluation
    fails does not hold."""
    try:
        for test in tests:
            if not test(env):
                return False
        return True
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
