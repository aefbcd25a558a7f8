import gc
import itertools
import random
from math import prod

import pytest
from hypothesis import given, strategies as st

from devs_scc.bounds import Bounds, const_env, grid, index_digits
from oracle import eval_pred, iter_witnesses, pred_vars
from devs_scc.campaign import Campaign, load_plan, run_campaign
from devs_scc.context import Context
from devs_scc.sat import (
    Conjunction, Plan, _ordered, coverage, prepare, project_exists, satisfiable,
)
from devs_scc.selector import executability
from devs_scc.syntax import (
    And, BinOp, Cmp, Const, Exists, FALSE, Ref, TRUE, conj, conjuncts, normalize, render_pred,
)
from devs_scc.values import EnumSort, EvalError, Lit, NAT, TIME, UnboundName, num

from tests.conftest import ELEVATOR_SELECTIONS, FIXTURES

ONOFF = EnumSort(("ON", "OFF"))


def toy_space(hi=20):
    b = Bounds(nat_ranges={"": (0, hi)})
    return b, [("n", grid(b, "n", NAT)), ("m", grid(b, "m", ONOFF))]


def test_contradictory_enum_equalities_are_unsat():
    b, space = toy_space()
    p = And((Cmp("=", Ref("m"), Const(Lit("ON"))), Cmp("=", Ref("m"), Const(Lit("OFF")))))
    verdict = satisfiable(p, space, Context(None, b))
    assert verdict.status == "unsat"
    # n = 0, then both values of m fail: no other value of n is visited
    assert verdict.attempts == 3


def test_true_selects_the_minimal_assignment():
    b, space = toy_space()
    verdict = satisfiable(TRUE, space, Context(None, b))
    assert verdict.sat
    assert verdict.witness == {"n": num(0), "m": Lit("ON")}


def test_witness_is_lexicographically_least():
    b, space = toy_space()
    p = And((Cmp("<=", Ref("n"), Const(num(10))), Cmp("=", Ref("m"), Const(Lit("ON")))))
    verdict = satisfiable(p, space, Context(None, b))
    assert verdict.sat

    # independent oracle: exhaustive scan in grid order
    expected = None
    for n, m in itertools.product(range(0, 21), ("ON", "OFF")):
        if n <= 10 and m == "ON":
            expected = {"n": num(n), "m": Lit(m)}
            break
    assert verdict.witness == expected
    assert eval_pred(p, verdict.witness)


def test_witness_reevaluates_true_through_the_evaluator():
    b, space = toy_space()
    p = Cmp(">", Ref("n"), Const(num(17)))
    verdict = satisfiable(p, space, Context(None, b))
    assert verdict.sat and eval_pred(p, verdict.witness)


def test_budget_exhaustion_reports_unknown():
    b = Bounds(nat_ranges={"": (0, 50)}, max_attempts=10)
    space = [("n", grid(b, "n", NAT)), ("k", grid(b, "k", NAT))]
    p = And((Cmp(">", Ref("n"), Const(num(49))), Cmp(">", Ref("k"), Const(num(49)))))
    assert satisfiable(p, space, Context(None, b)).status == "unknown"


def test_enlarging_bounds_never_flips_sat_to_unsat():
    p = Cmp(">", Ref("n"), Const(num(3)))
    for hi in range(1, 12):
        b = Bounds(nat_ranges={"": (0, hi)})
        space = [("n", grid(b, "n", NAT))]
        verdict = satisfiable(p, space, Context(None, b))
        if hi <= 3:
            assert verdict.status == "unsat"
        else:
            assert verdict.sat  # once sat, stays sat as the grid grows


def test_iter_witnesses_in_grid_order():
    b, space = toy_space(3)
    p = Cmp(">=", Ref("n"), Const(num(2)))
    ws = list(iter_witnesses(p, space, Context(None, b)))
    assert [(w["n"], w["m"].name) for w in ws] == [
        (num(2), "ON"), (num(2), "OFF"), (num(3), "ON"), (num(3), "OFF"),
    ]


def test_iter_witnesses_reads_a_failed_evaluation_as_false_and_raises_an_unbound_name():
    b, space = toy_space(3)
    ctx = Context(None, b)
    # 1 div n = 1 fails to evaluate at n = 0 and holds only at n = 1
    p = Cmp("=", BinOp("div", Const(num(1)), Ref("n")), Const(num(1)))
    ws = list(iter_witnesses(p, space, ctx))
    assert [(w["n"], w["m"].name) for w in ws] == [(num(1), "ON"), (num(1), "OFF")]
    assert satisfiable(p, space, ctx).witness == ws[0]
    # k is in no space: its conjunct is reached at n = 2 and raises there
    q = And((Cmp(">=", Ref("n"), Const(num(2))), Cmp("=", Ref("k"), Const(num(0)))))
    with pytest.raises(UnboundName, match="k"):
        list(iter_witnesses(q, space, ctx))


def test_iter_witnesses_decides_a_conjunct_of_no_variable_before_binding_any():
    b, space = toy_space(3)
    ctx = Context(None, b)
    # 1 div 0 = 0 fails to evaluate before n is bound: no witness, as the
    # search finds after one attempt
    p = And((Cmp("=", BinOp("div", Const(num(1)), Const(num(0))), Const(num(0))),
             Cmp(">=", Ref("n"), Const(num(0)))))
    assert list(iter_witnesses(p, space, ctx)) == []
    assert satisfiable(p, space, ctx).status == "unsat"
    # k = 0 names nothing of the space, so it raises even where the
    # space has no point, as in the search
    q = Cmp("=", Ref("k"), Const(num(0)))
    for search in (lambda: list(iter_witnesses(q, [("n", [])], ctx)),
                   lambda: satisfiable(q, [("n", [])], ctx)):
        with pytest.raises(UnboundName, match="^unbound variable k$"):
            search()


# ---------------------------------------------------------------------------
# pruned search against plain enumeration

ABC = [Lit("A"), Lit("B"), Lit("C")]


@st.composite
def problems(draw, table=False):
    """A conjunction of unary and binary comparisons over 1-3 small nat
    and enum grids; with `table`, a list of 1-4 such conjunctions over
    the same grids, the guards of a case table."""
    kinds = draw(st.lists(st.sampled_from(["nat", "enum"]), min_size=1, max_size=3))
    space = []
    for i, kind in enumerate(kinds):
        if kind == "nat":
            grid = [num(k) for k in range(draw(st.integers(1, 5)))]
        else:
            grid = ABC[: draw(st.integers(1, 3))]
        space.append((f"v{i}", grid))

    def atom():
        i = draw(st.integers(0, len(kinds) - 1))
        peers = [j for j, k in enumerate(kinds) if k == kinds[i] and j != i]
        if peers and draw(st.booleans()):
            right = Ref(f"v{draw(st.sampled_from(peers))}")
        elif kinds[i] == "nat":
            right = Const(num(draw(st.integers(0, 5))))
        else:
            right = Const(draw(st.sampled_from(ABC)))
        ops = ["<", "<=", "=", "!=", ">", ">="] if kinds[i] == "nat" else ["=", "!="]
        return Cmp(draw(st.sampled_from(ops)), Ref(f"v{i}"), right)

    def conjunction():
        return conj([atom() for _ in range(draw(st.integers(1, 4)))])

    if table:
        return space, [conjunction() for _ in range(draw(st.integers(1, 4)))]
    return space, conjunction()


def product_members(pred, space):
    names = [n for n, _ in space]
    members = []
    for values in itertools.product(*(g for _, g in space)):
        env = dict(zip(names, values))
        try:
            if eval_pred(pred, env):
                members.append(env)
        except EvalError:
            pass
    return members


class _OutOfAttempts(Exception):
    pass


def unpruned_search(pred, space, limit):
    """Depth-first search that checks each conjunct once all its
    variables are bound and skips nothing: (status, attempts)."""
    norm = normalize(pred)
    if norm == FALSE:
        return "unsat", 0
    order = {n: i for i, (n, _) in enumerate(space)}
    pre, per_depth = [], [[] for _ in space]
    for c in conjuncts(norm):
        touched = [order[v] for v in pred_vars(c) if v in order]
        (per_depth[max(touched)] if touched else pre).append(c)
    env, used = {}, 0

    def spend():
        nonlocal used
        used += 1
        if used > limit:
            raise _OutOfAttempts()

    def holds(c):
        try:
            return eval_pred(c, env)
        except EvalError:
            return False

    def dfs(depth):
        if depth == len(space):
            return True
        name, grid = space[depth]
        for v in grid:
            spend()
            env[name] = v
            if all(holds(c) for c in per_depth[depth]) and dfs(depth + 1):
                return True
        env.pop(name, None)
        return False

    try:
        for c in pre:
            spend()
            if not holds(c):
                return "unsat", used
        return ("sat" if dfs(0) else "unsat"), used
    except _OutOfAttempts:
        return "unknown", used


@given(problems())
def test_pruned_search_matches_plain_enumeration(problem):
    space, pred = problem
    b = Bounds(max_attempts=10_000)
    members = product_members(pred, space)
    ctx = Context(None, b)
    verdict = satisfiable(pred, space, ctx)
    if members:
        assert verdict.sat and verdict.witness == members[0]
    else:
        assert verdict.status == "unsat"
    assert list(iter_witnesses(pred, space, ctx)) == members
    status, attempts = unpruned_search(pred, space, b.max_attempts)
    assert status == verdict.status
    assert verdict.attempts <= attempts


def product_coverage(preds, space):
    """The least gap (None without one) and, per overlapping pair of
    positions, its least point, by plain enumeration; a point where a
    predicate fails to evaluate witnesses neither."""
    names = [n for n, _ in space]
    gap, overlaps = None, {}
    for values in itertools.product(*(g for _, g in space)):
        env = dict(zip(names, values))
        holds = []
        for p in preds:
            try:
                holds.append(eval_pred(p, env))
            except EvalError:
                holds.append(None)
        if gap is None and all(h is False for h in holds):
            gap = env
        for i, j in itertools.combinations(range(len(preds)), 2):
            if holds[i] and holds[j]:
                overlaps.setdefault((i, j), env)
    return gap, overlaps


@given(problems(table=True), st.booleans())
def test_coverage_matches_plain_enumeration(problem, total):
    space, preds = problem
    least_gap, least_overlaps = product_coverage(preds, space)
    gap, overlaps = coverage(preds, total, space, Context(None, Bounds()))
    overlaps = dict(overlaps)
    if total:
        assert gap is None
    elif least_gap is None:
        assert gap.status == "unsat"
    else:
        assert gap.sat and gap.witness == least_gap
    assert list(overlaps) == list(itertools.combinations(range(len(preds)), 2))
    assert all(found.status != "unknown" for found in overlaps.values())
    assert {pair: found.witness for pair, found in overlaps.items() if found.sat} == least_overlaps


@given(problems(), st.integers(0, 6))
def test_pruned_search_decides_whatever_plain_search_decides(problem, budget):
    space, pred = problem
    verdict = satisfiable(pred, space, Context(None, Bounds(max_attempts=budget)))
    status, attempts = unpruned_search(pred, space, budget)
    assert verdict.attempts <= attempts
    if status != "unknown":
        assert verdict.status == status
    if verdict.status != "unknown":
        assert verdict.sat == bool(product_members(pred, space))


def test_binary_contradiction_still_exhausts_a_tiny_budget():
    # per-variable filtering cannot see a contradiction spanning two variables
    space = [("n", [num(k) for k in range(5)]), ("k", [num(k) for k in range(5)])]
    p = And((Cmp("<", Ref("n"), Ref("k")), Cmp("<", Ref("k"), Ref("n"))))
    verdict = satisfiable(p, space, Context(None, Bounds(max_attempts=3)))
    assert verdict.status == "unknown"
    assert satisfiable(p, space, Context(None, Bounds())).status == "unsat"


# ---------------------------------------------------------------------------
# existential projection

def test_projection_drops_discharged_event_constraint(soda, soda_bounds):
    # exists x: x = getDiet /\ d >= dp  projects to  d >= dp
    p = And((
        Cmp("=", Ref("x"), Const(Lit("getDiet"))),
        Cmp(">=", Ref("d"), Ref("dp")),
    ))
    out = project_exists(p, [("e", TIME), ("x", soda.input_sort)], Context(soda, soda_bounds))
    assert render_pred(out) == "d >= dp"


def test_projection_agrees_with_enumeration_on_sampled_states(soda, soda_bounds):
    p = And((
        Cmp("=", Ref("x"), Const(Lit("getDiet"))),
        Cmp(">=", Ref("d"), Ref("dp")),
    ))
    projected = project_exists(p, [("e", TIME), ("x", soda.input_sort)], Context(soda, soda_bounds))
    d_grid = soda_bounds.value_sets["d"]
    dp_grid = soda_bounds.value_sets["dp"]
    x_grid = grid(soda_bounds, "x", soda.input_sort)
    checked = 0
    for d in d_grid:
        for dp in dp_grid:
            env = {"d": d, "dp": dp}
            direct = any(
                eval_pred(p, {**env, "x": x, "e": num(0)}, soda) for x in x_grid
            )
            assert eval_pred(projected, env, soda, soda_bounds) == direct
            checked += 1
    assert checked >= 28


def test_projection_of_vacuous_quantifier():
    b = Bounds()
    out = project_exists(TRUE, [("e", TIME)], Context(None, b))
    assert out == TRUE


def test_projection_keeps_linked_clusters(elevator, elevator_bounds):
    # dext case 1: the event is a floor number different from the current
    # floor; the projection onto the state keeps that link quantified
    guard = elevator.delta_ext[0].guard
    out = project_exists(guard, [("e", TIME), ("x", elevator.input_sort)],
                         Context(elevator, elevator_bounds))
    rendered = render_pred(out)
    assert "eng = stopped" in rendered and "fc = none" in rendered
    assert "exists" in rendered and "x != f" in rendered


def test_projection_of_elevator_call_button_case(elevator, elevator_bounds):
    # dext case 13 keeps exactly the state conjuncts
    guard = elevator.delta_ext[12].guard
    out = project_exists(guard, [("e", TIME), ("x", elevator.input_sort)],
                         Context(elevator, elevator_bounds))
    assert render_pred(out) == "d = open /\\ fc != f /\\ fc != none"


def test_exists_membership_enumerates(elevator, elevator_bounds):
    # exists x . x != f is true whenever some grid value differs from f
    p = Exists((("x", elevator.input_sort),), Cmp("!=", Ref("x"), Ref("f")))
    assert eval_pred(p, {"f": num(0)}, elevator, elevator_bounds)


# ---------------------------------------------------------------------------
# searches confined to a range of grid positions


@given(problems(), st.data())
def test_windowed_search_matches_filtered_enumeration(problem, data):
    space, pred = problem
    sizes = [len(g) for _, g in space]
    total = prod(sizes)
    first, last = sorted(
        data.draw(st.integers(0, total - 1), label=f"index {i}") for i in range(2)
    )
    lo, hi = index_digits(first, sizes), index_digits(last, sizes)
    members = product_members(pred, space)
    in_window = [
        (index, env)
        for index, env in zip(
            itertools.product(*map(range, sizes)), product_members(TRUE, space)
        )
        if lo <= list(index) <= hi and env in members
    ]
    b = Bounds(max_attempts=10_000)
    verdict = satisfiable(pred, space, Context(None, b), lo=lo, hi=hi)
    if in_window:
        assert verdict.sat
        assert (verdict.index, verdict.witness) == in_window[0]
    else:
        assert verdict.status == "unsat"
    # a budget of one attempt per node of the window always suffices
    limit = len(space) * (last - first + 1) + len(conjuncts(normalize(pred)))
    ctx = Context(None, Bounds(max_attempts=0))
    assert satisfiable(pred, space, ctx, lo=lo, hi=hi, limit=limit) == verdict


@given(problems())
def test_the_whole_grid_as_a_window_is_the_plain_search(problem):
    space, pred = problem
    b = Bounds(max_attempts=10_000)
    ctx = Context(None, b)
    whole = satisfiable(pred, space, ctx, lo=[0] * len(space), hi=[len(g) - 1 for _, g in space])
    assert whole == satisfiable(pred, space, ctx)


def test_window_bounds_are_inclusive():
    b, space = toy_space(9)
    p = And((Cmp("=", Ref("n"), Const(num(3))), Cmp("=", Ref("m"), Const(Lit("OFF")))))
    # the only member sits at positions (3, 1), index 7
    ctx = Context(None, b)
    assert satisfiable(p, space, ctx).index == (3, 1)
    last = satisfiable(p, space, ctx, lo=[0, 0], hi=[3, 1])
    assert last.sat and last.index == (3, 1) and last.witness["n"] == num(3)
    assert satisfiable(p, space, ctx, lo=[0, 0], hi=[3, 0]).status == "unsat"
    first = satisfiable(p, space, ctx, lo=[3, 1], hi=[9, 1])
    assert first.sat and first.index == (3, 1)
    assert satisfiable(p, space, ctx, lo=[4, 0], hi=[9, 1]).status == "unsat"


# ---------------------------------------------------------------------------
# the iterative kernel against the recursive one it replaced


class _Exhausted(Exception):
    pass


class _NoValue(Exception):
    pass


def recursive_witnesses(pred, space, budget, lo=None, hi=None, ctx=None, base_env=None):
    """The recursive depth-first kernel: one generator frame per variable,
    conjuncts decided by `eval_pred` after re-normalizing the predicate,
    with the same lazy unary memo, window tightness and attempt charge;
    with a context, its model's constants are bound, under `base_env`.
    `budget` is a two-item list [attempts used, limit]; an attempt past the
    limit is counted, then raises _Exhausted.  Yields (grid positions,
    witness)."""
    norm = normalize(pred)
    if norm == FALSE:
        return
    names = [n for n, _ in space]
    order = {n: i for i, n in enumerate(names)}
    pre, unary, joint = [], [[] for _ in names], [[] for _ in names]
    for c in conjuncts(norm):
        touched = {order[v] for v in pred_vars(c) if v in order}
        if not touched:
            pre.append(c)
        elif len(touched) == 1:
            unary[touched.pop()].append(c)
        else:
            joint[max(touched)].append(c)
    model, bounds = (None, None) if ctx is None else (ctx.model, ctx.bounds)
    env = {**({} if model is None else const_env(bounds, model)), **(base_env or {})}

    def spend():
        budget[0] += 1
        if budget[0] > budget[1]:
            raise _Exhausted()

    def holds(c):
        try:
            return eval_pred(c, env, model, bounds)
        except EvalError:
            return False

    for c in pre:
        spend()
        if not holds(c):
            return
    known = [[None] * len(g) if unary[d] else None for d, (_, g) in enumerate(space)]
    failed = [0] * len(names)
    path = [0] * len(names)

    def dfs(depth, lo_tight, hi_tight):
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
            spend()
            env[name] = grid[i]
            if memo is not None and memo[i] is None:
                memo[i] = all(holds(c) for c in unary[depth])
                if not memo[i]:
                    failed[depth] += 1
                    if failed[depth] == len(grid):
                        raise _NoValue()
                    continue
            if all(holds(c) for c in joint[depth]):
                path[depth] = i
                yield from dfs(depth + 1, lo_tight and i == first, hi_tight and i == last)
        env.pop(name, None)

    try:
        yield from dfs(0, lo is not None, hi is not None)
    except _NoValue:
        return


def recursive_search(pred, space, limit, lo=None, hi=None, ctx=None, base_env=None):
    """(status, attempts, index, witness) of the recursive kernel."""
    budget = [0, limit]
    try:
        found = next(recursive_witnesses(pred, space, budget, lo, hi, ctx, base_env), None)
    except _Exhausted:
        return "unknown", budget[0], None, None
    if found is None:
        return "unsat", budget[0], None, None
    return "sat", budget[0], *found


@given(problems(), st.data(), st.integers(0, 8))
def test_kernel_matches_the_recursive_kernel(problem, data, budget):
    space, pred = problem
    sizes = [len(g) for _, g in space]
    lo = hi = None
    if data.draw(st.booleans(), label="windowed"):
        first, last = sorted(
            data.draw(st.integers(0, prod(sizes) - 1), label=f"index {i}") for i in range(2)
        )
        lo, hi = index_digits(first, sizes), index_digits(last, sizes)
    verdict = satisfiable(pred, space, Context(None, Bounds(max_attempts=budget)), lo=lo, hi=hi)
    assert (verdict.status, verdict.attempts, verdict.index, verdict.witness) == (
        recursive_search(pred, space, budget, lo, hi)
    )


@pytest.fixture(scope="module")
def elevator_catalog(elevator, elevator_bounds, elevator_tables):
    """The elevator's worked-plan catalog, with the context of its
    bounds, whose spaces the searches below run over."""
    plan = load_plan(str(FIXTURES / "elevator.plan.json"))
    catalog = run_campaign(Campaign(elevator, elevator_bounds, elevator_tables,
                                    list(ELEVATOR_SELECTIONS), plan=plan),
                           stop_after="combine").catalog
    return Context(elevator, elevator_bounds), catalog


def assert_kernels_agree(pred, space, ctx, limit, base_env=None, lo=None, hi=None):
    """A search over a space of `ctx`, through the plan it keeps, is the
    recursive kernel's: status, attempts, index and witness."""
    verdict = satisfiable(pred, space, ctx, base_env, lo=lo, hi=hi, limit=limit)
    assert ctx.plans[id(space)] is not None
    assert (verdict.status, verdict.attempts, verdict.index, verdict.witness) == (
        recursive_search(pred, space, limit, lo, hi, ctx, base_env)
    )
    return verdict


def test_kernel_matches_the_recursive_kernel_on_the_state_and_joint_spaces(elevator_catalog):
    ctx, catalog = elevator_catalog
    runnable = executability(ctx.model)
    for scc in catalog:
        for limit in (25, 400):
            assert_kernels_agree(scc.init_states, ctx.state_space, ctx, limit)
            assert_kernels_agree(conj(scc.member), ctx.joint_space, ctx, limit)
            assert_kernels_agree(conj(scc.member + runnable), ctx.joint_space, ctx, limit)


def test_kernel_matches_the_recursive_kernel_on_the_pair_spaces(elevator_catalog):
    """The pair searches of chaining, with a state as the base
    environment: the class's own least state, and one of another class."""
    ctx, catalog = elevator_catalog
    runnable = executability(ctx.model)
    names = ctx.model.schema.names()
    states = []
    for scc in catalog:
        found = satisfiable(scc.init_states, ctx.state_space, ctx)
        if found.sat:
            states.append({n: found.witness[n] for n in names})
    assert len(states) > len(catalog) // 2
    statuses = set()
    for k, scc in enumerate(catalog):
        pred = conj(scc.member + runnable)
        for state in (states[k % len(states)], states[(7 * k + 3) % len(states)]):
            for space in ctx.pair_spaces:
                statuses.add(assert_kernels_agree(pred, space, ctx, 60, base_env=state).status)
    assert statuses == {"sat", "unsat"}


def test_kernel_matches_the_recursive_kernel_on_the_reversed_joint_space(elevator_catalog):
    """The probe's windowed searches over the reversed joint space, with
    small attempt limits."""
    ctx, catalog = elevator_catalog
    runnable = executability(ctx.model)
    space = ctx.reversed_joint_space
    sizes = [len(g) for _, g in space]
    total = prod(sizes)
    rng = random.Random(5)
    statuses = set()
    for scc in catalog:
        pred = conj(scc.member + runnable)
        for limit in (0, 3, 40, 300):
            first = rng.randrange(total)
            last = min(total - 1, first + rng.choice((0, 7, 300, 20_000)))
            lo, hi = index_digits(first, sizes), index_digits(last, sizes)
            statuses.add(assert_kernels_agree(pred, space, ctx, limit, lo=lo, hi=hi).status)
    assert statuses == {"sat", "unsat", "unknown"}


def test_a_context_keeps_one_plan_per_space_it_owns(elevator, elevator_bounds, elevator_tables):
    """The plans a context keeps are those of the spaces it made, made
    once; a space built per call leaves none behind, and warm probe
    campaigns leave every plan as it was."""
    campaign = Campaign(elevator, elevator_bounds, elevator_tables,
                        list(ELEVATOR_SELECTIONS), probe_k=4)
    run_campaign(campaign)
    ctx = campaign.context()
    owned = [ctx.state_space, *ctx.pair_spaces, ctx.joint_space, ctx.reversed_joint_space]
    assert ctx.plans.keys() == {id(space) for space in owned}
    for space in owned:
        plan = ctx.plans[id(space)]
        assert plan is None or plan.grids == tuple(g for _, g in space)
    kept = dict(ctx.plans)
    assert sum(plan is not None for plan in kept.values()) >= 3
    assert satisfiable(TRUE, [("t", ctx.times)], ctx).sat
    assert satisfiable(TRUE, list(ctx.state_space), ctx).sat
    gc.collect()
    live = sum(isinstance(o, Plan) for o in gc.get_objects())
    for _ in range(10):
        run_campaign(campaign)
    assert ctx.plans.keys() == kept.keys()
    assert all(ctx.plans[key] is plan for key, plan in kept.items())
    gc.collect()
    assert sum(isinstance(o, Plan) for o in gc.get_objects()) == live


@given(problems(), problems(), st.booleans())
def test_conjoined_forms_are_the_form_of_the_conjunction(first, second, contradict):
    p, q = first[1], second[1]
    if contradict:
        q = conj([q, FALSE])
    both = prepare(p) & prepare(q)
    norm = normalize(And((p, q)))
    assert both.false == (norm == FALSE)
    expected = [] if both.false else [render_pred(c) for c in conjuncts(norm)]
    assert [c.text for c in both.items] == expected


OPERANDS = st.sampled_from(["prepared", "false", "empty"])


@given(problems(), problems(), st.booleans(), OPERANDS, OPERANDS)
def test_conjoining_merges_the_operands_as_ordering_both_would(first, second, overlap, a_is, b_is):
    """`a & b` is `_ordered(a.items + b.items)`, the first conjunct of
    each text kept, or false when either operand is; an empty operand
    leaves the other.  Forms prepared without a context make a conjunct
    per call, so which of two alike conjuncts is kept shows."""
    p, q = first[1], second[1]
    if overlap:
        q = And((q, p))
    made = {"prepared": None, "false": Conjunction(false=True), "empty": Conjunction()}
    a, b = made[a_is] or prepare(p), made[b_is] or prepare(q)
    both = a & b
    assert both.false == (a.false or b.false)
    if not both.false:
        assert [id(c) for c in both.items] == [id(c) for c in _ordered(a.items + b.items).items]
