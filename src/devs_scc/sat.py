"""Bounded satisfiability and witness search.

One depth-first search walks the grids of a predicate's variables in the
declared order, each grid ascending, and returns its verdict at the
first witness, so the witness is the lexicographically least satisfying
assignment — reproducible across runs and platforms.  `satisfiable` is
that search.  `coverage` runs the coverage and disjointness checks of a
case table on it, deciding first, without a search, each pair of cases
whose guards admit no common value of some variable.  The search is one
loop over an explicit stack of grid positions, one per variable.

A predicate is searched in its prepared form, a `Conjunction`: its
normal form's conjuncts in canonical order, each with its text, its free
variables and a closure compiled by `evaluator.compile_pred`.  The
canonical text is a conjunct's identity.  Given a `context.Context`,
preparing interns conjuncts (hash-consing, Filliatre & Conchon 2006):
the context keeps one `Conjunct` per text, so all forms over its model
and bounds share one variable tuple and one closure per distinct
conjunct.  A search accepts a predicate and prepares it, or a
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
`_split`, for both: on each call, one pass over the form's conjuncts
into per-depth test tuples.  Each conjunct keeps its placement for
every order of search variables it has been searched over: no search
variable, unary at depth d, or joint and checked at its deepest depth
d, where the search first has all its variables bound (Haralick &
Elliott 1980).  A split is then one look-up per conjunct.  What a
search needs of its space alone is the space's `Plan`: the context
keeps one for each space it owns, made at its first search, and any
other space gets one for that call only.  A depth's unary memo is made
at its first unary evaluation.

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

from .context import Context
from .evaluator import all_hold, compile_pred
from .syntax import (
    BoolConst,
    Exists,
    Not,
    Predicate,
    conj,
    conjuncts,
    free_vars,
    normalize,
    render_pred,
)
from .values import Sort, Struct, Value

Space = list[tuple[str, list[Value]]]


class SatResult(Struct):
    """A search verdict, with the least witness when sat."""

    __slots__ = ("status", "witness", "attempts", "index")

    def __init__(self, status: str, witness: dict[str, Value] | None = None,
                 attempts: int = 0, index: tuple[int, ...] | None = None) -> None:
        self.status = status  # "sat" | "unsat" | "unknown"
        self.witness = witness
        self.attempts = attempts
        self.index = index  # the witness's grid positions

    @property
    def sat(self) -> bool:
        return self.status == "sat"


class Conjunct:
    """One conjunct of a normalized predicate, prepared for search: its
    canonical text, its free variables, its compiled test and, by order
    of search variables (their names joined by spaces), its placement in
    a search over that order: None when it mentions none of them, d when
    it mentions only the one at depth d (unary), else ~d for the deepest
    depth d it mentions (joint).  An interned conjunct is shared by every
    form over its context, so each placement is worked out once per
    conjunct and order."""

    __slots__ = ("pred", "text", "vars", "test", "placed")

    def __init__(self, pred: Predicate, text: str, ctx: Context | None):
        self.pred = pred
        self.text = text
        self.vars = tuple(free_vars(pred))
        self.test = compile_pred(pred, ctx)
        self.placed: dict[str, int | None] = {}

    def place(self, order: str, names: tuple[str, ...]) -> int | None:
        """The placement for `names`, whose key is `order`; kept."""
        touched = [d for d, name in enumerate(names) if name in self.vars]
        at = None if not touched else touched[0] if len(touched) == 1 else ~touched[-1]
        self.placed[order] = at
        return at


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


def prepare(pred: Predicate, ctx: Context | None = None) -> Conjunction:
    """The prepared form of `pred`."""
    return prepare_conjuncts(conjuncts(normalize(pred)), ctx)


def prepare_conjuncts(preds: Sequence[Predicate], ctx: Context | None = None) -> Conjunction:
    """The prepared form of the conjunction of `preds`, each already in
    normal form, its conjuncts interned in `ctx` (see `interned`)."""
    if any(isinstance(p, BoolConst) and not p.value for p in preds):
        return Conjunction(false=True)
    return _ordered(interned(preds, ctx))


def interned(preds: Sequence[Predicate], ctx: Context | None = None) -> list[Conjunct]:
    """The conjuncts of `preds`, in their order, one per canonical text:
    with a context, the one it keeps, made on first use."""
    kept = {} if ctx is None else ctx.conjuncts
    items = []
    for p in preds:
        text = render_pred(p)
        c = kept.get(text)
        if c is None:
            c = kept[text] = Conjunct(p, text, ctx)
        items.append(c)
    return items


def satisfiable(
    pred: Predicate | Conjunction,
    space: Space,
    ctx: Context,
    base_env: dict[str, Value] | None = None,
    *,
    lo: Sequence[int] | None = None,
    hi: Sequence[int] | None = None,
    limit: float | None = None,
) -> SatResult:
    """Least witness over `space`, or unsat-within-bounds, or unknown when
    the attempt budget runs out.

    `pred` is a predicate or its prepared form; `lo` and `hi` bound the
    search to grid positions from `lo` to `hi` (inclusive, one position
    per variable, lexicographic order); `limit` replaces the budget of
    the context's `bounds.max_attempts`, `math.inf` for none.  The
    context's constants are bound, under `base_env`."""
    form = pred if isinstance(pred, Conjunction) else prepare(pred, ctx)
    return _search(form, _plan(space, ctx), _env(ctx, base_env),
                   ctx.bounds.max_attempts if limit is None else limit, lo, hi)


def coverage(
    preds: Sequence[Predicate], total: bool, space: Space, ctx: Context
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
    gap = None if total else satisfiable(conj([Not(p) for p in preds]), space, ctx)
    forms = [prepare(p, ctx) for p in preds]
    env, plan = _env(ctx, None), _plan(space, ctx)
    masks = [_admitted(f, plan, env) for f in forms]

    def decide(i, j):
        if any(not a & b for a, b in zip(masks[i], masks[j])):
            return SatResult("unsat")
        return satisfiable(forms[i] & forms[j], space, ctx)

    overlaps = (
        ((i, j), decide(i, j)) for i, j in itertools.combinations(range(len(forms)), 2)
    )
    return gap, overlaps


def _env(ctx, base_env) -> dict[str, Value]:
    return {**ctx.consts, **base_env} if base_env else dict(ctx.consts)


class Plan:
    """What a search over one space needs of the space alone: its names,
    its grids, its order key (the names joined by spaces, the key of a
    conjunct's placements), each grid's last index and an all-None
    per-depth template.  A context keeps one for each space it owns."""

    __slots__ = ("names", "grids", "order", "last", "blank")

    def __init__(self, space: Space) -> None:
        self.names = tuple(n for n, _ in space)
        self.grids = tuple(g for _, g in space)
        self.order = " ".join(self.names)
        self.last = tuple(len(g) - 1 for g in self.grids)
        self.blank = (None,) * len(space)


def _plan(space: Space, ctx: Context) -> Plan:
    """The plan of `space`: the one `ctx` keeps when it owns the space,
    made on first use, else one for this call."""
    key = id(space)
    plan = ctx.plans.get(key)
    if plan is None:
        plan = Plan(space)
        if key in ctx.plans:
            ctx.plans[key] = plan
    return plan


def _search(form: Conjunction, plan: Plan, env: dict, limit: float,
            lo=None, hi=None) -> SatResult:
    """The least witness within the positions `lo` to `hi` when given,
    else unsat, or unknown once more than `limit` attempts are spent."""
    if form.false:
        return SatResult("unsat")
    # per depth: the tests of its unary and of its other conjuncts, None
    # without any
    pre, unary_tests, joint_tests = _split(form, plan)
    used = 0
    for test in pre:
        used += 1
        if used > limit:
            return SatResult("unknown", attempts=used)
        if not all_hold((test,), env):
            return SatResult("unsat", attempts=used)
    names, grids = plan.names, plan.grids
    n = len(names)
    if n == 0:
        return SatResult("sat", witness={}, attempts=used, index=())
    # for unary conjuncts, per depth: each grid index's verdict once
    # evaluated, made at the depth's first evaluation, and how many
    # indices have failed
    known = list(plan.blank)
    failed = [0] * n
    # the stack: per depth the grid index being tried and the last one in
    # range; with a window, also whether the positions above it equal the
    # prefix of lo / hi
    pos = [-1] * n
    end = plan.last
    windowed = lo is not None or hi is not None
    if windowed:
        end = list(end)
        lo_tight, hi_tight = [lo is not None] * n, [hi is not None] * n
        if lo is not None:
            pos[0] = lo[0] - 1
        if hi is not None:
            end[0] = hi[0]
    last, d = n - 1, 0
    while True:
        i = pos[d] + 1
        if i > end[d]:
            if d == 0:
                break
            d -= 1
            continue
        pos[d] = i
        memo = known[d]
        if memo is not None and memo[i] is False:
            continue
        used += 1
        if used > limit:
            return SatResult("unknown", attempts=used)
        env[names[d]] = grids[d][i]
        tests = unary_tests[d]
        if tests is not None and (memo is None or memo[i] is None):
            if memo is None:
                memo = known[d] = [None] * len(grids[d])
            memo[i] = all_hold(tests, env)
            if not memo[i]:
                failed[d] += 1
                if failed[d] == len(grids[d]):
                    break  # no value of this variable satisfies its unary conjuncts
                continue
        tests = joint_tests[d]
        if tests is not None and not all_hold(tests, env):
            continue
        if d == last:
            return SatResult("sat", witness=dict(zip(names, map(env.__getitem__, names))),
                             attempts=used, index=tuple(pos))
        if windowed:
            down_lo = lo_tight[d] and i == lo[d]
            down_hi = hi_tight[d] and i == hi[d]
            d += 1
            lo_tight[d], hi_tight[d] = down_lo, down_hi
            pos[d] = lo[d] - 1 if down_lo else -1
            end[d] = hi[d] if down_hi else plan.last[d]
        else:
            d += 1
            pos[d] = -1
    return SatResult("unsat", attempts=used)


def _split(form: Conjunction, plan: Plan):
    """The tests of `form`'s conjuncts split by the search variables of
    `plan` they mention, in one pass: those that mention none; and per
    depth, those that mention that variable only (unary), and the others
    whose deepest variable it is, where the search first has them all
    bound, each None without any."""
    order = plan.order
    pre = []
    unary = list(plan.blank)
    joint = list(plan.blank)
    for c in form.items:
        at = c.placed.get(order, _UNPLACED)
        if at is _UNPLACED:
            at = c.place(order, plan.names)
        if at is None:
            pre.append(c.test)
        elif at >= 0:
            tests = unary[at]
            unary[at] = (c.test,) if tests is None else (*tests, c.test)
        else:
            tests = joint[~at]
            joint[~at] = (c.test,) if tests is None else (*tests, c.test)
    return tuple(pre), unary, joint


_UNPLACED = object()  # a placement not yet worked out


def _admitted(form: Conjunction, plan: Plan, env: dict) -> list[int]:
    """Per variable of `plan`'s space, the bit mask of the grid positions
    whose value satisfies all of `form`'s unary conjuncts on it under
    `env` (every position when it has none)."""
    _, unary, _ = _split(form, plan)
    env = dict(env)
    masks = []
    for name, grid, tests in zip(plan.names, plan.grids, unary):
        mask = (1 << len(grid)) - 1
        if tests is not None:
            for i, value in enumerate(grid):
                env[name] = value
                if not all_hold(tests, env):
                    mask &= ~(1 << i)
        masks.append(mask)
    return masks


# ---------------------------------------------------------------------------
# existential projection

def project_exists(
    pred: Predicate,
    drop: list[tuple[str, Sort]],
    ctx: Context,
    decided: dict | None = None,
) -> Predicate:
    """Project a predicate onto the variables outside `drop`.

    Conjuncts free of the dropped variables are hoisted unchanged.
    Conjuncts that touch them are clustered by the dropped variables they
    share; a cluster whose remaining free variables are all dropped or
    constant is decided by bounded search (a found witness discharges it
    to true), and any cluster that cannot be discharged stays behind a
    first-class existential whose membership tests enumerate the bounds.
    A caller projecting many predicates over one context passes the same
    `decided` to each call; it keeps, by cluster and bound variables,
    whether the search found a witness, so each cluster is searched once.
    """
    decided = {} if decided is None else decided
    drop_sorts = dict(drop)
    drop_order = [n for n, _ in drop]
    keep: list[Predicate] = []
    clusters: list[tuple[set[str], list[Predicate]]] = []
    for c in conjuncts(normalize(pred)):
        mine = free_vars(c) & drop_sorts.keys()
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

    const_names = set() if ctx.model is None else {n for n, _ in ctx.model.constants}
    for vars_, preds in clusters:
        body = conj(preds)
        bound = tuple((n, drop_sorts[n]) for n in drop_order if n in vars_)
        free_outside = free_vars(body) - vars_ - const_names
        if not free_outside:
            inhabited = decided.get((body, bound))
            if inhabited is None:
                space = [(n, ctx.grid(n, s)) for n, s in bound]
                inhabited = decided[body, bound] = satisfiable(body, space, ctx).sat
            if inhabited:
                continue  # contributes nothing to the projection
        keep.append(Exists(bound, body))
    return normalize(conj(keep))
