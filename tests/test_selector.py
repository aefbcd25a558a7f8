import itertools
from math import prod
from unittest import mock

import pytest

from devs_scc.algebra import CombinationPlan
from devs_scc.bounds import (
    Bounds,
    const_env,
    digits_index,
    index_digits,
)
from devs_scc.campaign import Campaign, load_plan, run_campaign
from devs_scc.context import Context
from devs_scc.criteria import cases_criterion
from oracle import eval_expr, eval_pred, joint_space, state_space, step_layout
from devs_scc.parser import parse_bounds_file, parse_bounds_text, parse_model_file, parse_model_text
from devs_scc.partitions import builtin_tables
from devs_scc.sat import satisfiable
from devs_scc.scc import make_scc
import devs_scc.selector as selector
from devs_scc.selector import (
    _STRIDES,
    SimulationConfig,
    executability,
    runnable_form,
    sample_configs,
    select_config,
)
from devs_scc.syntax import TRUE, And, BinOp, Cmp, Const, FALSE, Ref, conj, conjuncts
from devs_scc.values import EvalError, Inf, Lit, Num, TAU, num

from tests.conftest import ELEVATOR_SELECTIONS, FIXTURES, SODA_SELECTIONS, soda_contradiction

TOY_MODEL = """
model toy {
  state { n: nat; m: enum {ON, OFF}; }
  input nat;
  output nat;
  ta = infinity;
  dext(s, e, x) { case x >= 0 -> (n, m); }
  dint(s) { }
  lambda(s) { otherwise -> n; }
}
"""


@pytest.fixture(scope="module")
def toy():
    model, report = parse_model_text(TOY_MODEL)
    assert report.usable
    return model


@pytest.fixture(scope="module")
def toy_bounds():
    return Bounds(nat_ranges={"": (0, 20)})


def test_toy_class_selects_the_least_member(toy, toy_bounds):
    scc = make_scc(
        And((Cmp("<=", Ref("n"), Const(num(10))), Cmp("=", Ref("m"), Const(Lit("ON"))))),
        Cmp("=", Ref("x"), Const(num(1))),
        "t", "d", id=4,
    )
    cfg = select_config(scc, Context(toy, toy_bounds))

    # oracle: exhaustive scan of the grid in declaration order
    expected_state = None
    for n, m in itertools.product(range(0, 21), ("ON", "OFF")):
        if n <= 10 and m == "ON":
            expected_state = {"n": num(n), "m": Lit(m)}
            break
    assert cfg.state == expected_state
    assert (cfg.event, cfg.time) == (num(1), num(0))


def test_unsatisfiable_class_is_an_error(toy, toy_bounds):
    scc = make_scc(FALSE, Cmp("=", Ref("x"), Const(num(0))), "t", "empty", id=9)
    step = select_config(scc, Context(toy, toy_bounds))
    assert step.error == "no representative within bounds"
    assert step.failure() == "class 9: no representative within bounds"
    assert step.state == {} and step.outcome is None


def test_budget_exhaustion_is_an_error(toy):
    tiny = Bounds(nat_ranges={"": (0, 20)}, max_attempts=2)
    scc = make_scc(
        Cmp(">", Ref("n"), Const(num(19))), Cmp("=", Ref("x"), Const(num(0))),
        "t", "deep", id=5,
    )
    step = select_config(scc, Context(toy, tiny))
    assert step.error == "witness search exhausted its attempt budget"
    assert step.failure() == "class 5: witness search exhausted its attempt budget"
    assert step.state == {} and step.outcome is None


def test_a_pair_that_fails_its_own_predicate_is_an_error():
    model, bounds = _fixture("toggle")
    # the joint predicate pins m = B and x = go; the pair predicate's
    # second conjunct divides by zero, which the re-check reads as false
    at_b = Cmp("=", Ref("m"), Const(Lit("B")))
    go = Cmp("=", Ref("x"), Const(Lit("go")))
    by_zero = Cmp("=", BinOp("div", Const(num(1)), Const(num(0))), Const(num(0)))
    scc = make_scc(at_b, And((go, by_zero)), "manual", "zero", joint=And((at_b, go)), id=3)
    step = select_config(scc, Context(model, bounds))
    assert step.error == "selected input pair fails its own predicate"
    assert step.failure() == "class 3: selected input pair fails its own predicate"
    assert step.state == {} and step.outcome is None


def test_soda_diet_class_picks_zero_money_and_zero_price(soda, soda_bounds):
    ctx = Context(soda, soda_bounds)
    sccs, _ = cases_criterion(ctx)
    diet = next(s for s in sccs if s.target == "dext case 3")
    cfg = select_config(diet, ctx)
    assert cfg.state["d"] == num(0)
    assert cfg.state["dp"] == num(0)
    assert cfg.event == Lit("getDiet")
    assert cfg.time == num(0)
    consts = const_env(soda_bounds, soda)
    assert eval_pred(diet.init_states, {**consts, **cfg.state}, soda, soda_bounds)


def test_selection_is_deterministic(elevator, elevator_bounds):
    ctx = Context(elevator, elevator_bounds)
    sccs, _ = cases_criterion(ctx)
    first = [step_layout(select_config(s, ctx)) for s in sccs[:8]]
    second = [step_layout(select_config(s, ctx)) for s in sccs[:8]]
    assert first == second


def test_every_config_reevaluates_its_class_predicates(soda, soda_bounds):
    consts = const_env(soda_bounds, soda)
    ctx = Context(soda, soda_bounds)
    sccs, _ = cases_criterion(ctx)
    for scc in sccs:
        cfg = select_config(scc, ctx)
        assert eval_pred(scc.init_states, {**consts, **cfg.state}, soda, soda_bounds)
        assert eval_pred(
            scc.input_pairs, {**consts, "x": cfg.event, "t": cfg.time}, soda, soda_bounds
        )


def test_tau_class_configs_carry_time_zero(soda, soda_bounds):
    ctx = Context(soda, soda_bounds)
    sccs, _ = cases_criterion(ctx)
    for scc in sccs:
        if scc.target.startswith("dint"):
            cfg = select_config(scc, ctx)
            assert cfg.event == TAU
            assert cfg.time == num(0)


def test_sampling_returns_distinct_members(soda, soda_bounds):
    ctx = Context(soda, soda_bounds)
    sccs, _ = cases_criterion(ctx)
    coin = sccs[0]
    samples = sample_configs(coin, 6, ctx)
    assert len(samples) >= 3
    keys = {repr(step_layout(c)) for c in samples}
    assert len(keys) == len(samples)
    consts = const_env(soda_bounds, soda)
    for cfg in samples:
        assert eval_pred(coin.init_states, {**consts, **cfg.state}, soda, soda_bounds)


def test_sampling_is_deterministic(soda, soda_bounds):
    ctx = Context(soda, soda_bounds)
    sccs, _ = cases_criterion(ctx)
    a = [step_layout(c) for c in sample_configs(sccs[3], 5, ctx)]
    b = [step_layout(c) for c in sample_configs(sccs[3], 5, ctx)]
    assert a == b


# ---------------------------------------------------------------------------
# windowed sampling against a plain decode-and-scan


def scan_samples(scc, k, model, bounds, scan_cap):
    """Reference sampler: decode each grid index of a stratum's window in
    turn, event fastest, and evaluate the class predicates on it."""
    space = joint_space(model, bounds)
    sizes = [len(g) for _, g in space]
    total = prod(sizes)
    if total == 0 or k <= 0:
        return []
    consts = const_env(bounds, model)
    exec_pred = conj(executability(model))

    def holds(pred, env):
        try:
            return eval_pred(pred, env, model, bounds)
        except EvalError:
            return False

    def start_index(s):
        idx, weight = 0, 1
        for dim, size in enumerate(sizes):
            idx += ((s * _STRIDES[dim % len(_STRIDES)]) % size) * weight
            weight *= size
        return idx

    def decode(idx):
        env = {}
        for (name, grid), size in zip(space, sizes):
            env[name] = grid[idx % size]
            idx //= size
        return env

    def is_member(env):
        full = {**consts, **env}
        if not holds(exec_pred, full):
            return False
        if scc.joint is not None:
            return holds(scc.joint, full)
        pair = {**consts, "x": env["x"], "t": env["t"]}
        return holds(scc.init_states, full) and holds(scc.input_pairs, pair)

    found = {}
    scanned = 0
    for s in range(min(k, total)):
        idx = start_index(s)
        while idx < total and scanned < scan_cap:
            scanned += 1
            env = decode(idx)
            idx += 1
            if is_member(env):
                cfg = SimulationConfig(
                    scc.id, {n: env[n] for n in model.schema.names()}, env["x"], env["t"]
                )
                found.setdefault(repr(step_layout(cfg)), cfg)
                break
    return list(found.values())


def _fixture(name, bounds_text=None):
    model, report = parse_model_file(str(FIXTURES / f"{name}.devs"))
    assert report.usable, report.errors
    if bounds_text is None:
        return model, parse_bounds_file(str(FIXTURES / f"{name}.bounds"))
    return model, parse_bounds_text(bounds_text)


def _same_samples(scc, k, model, bounds, scan_cap):
    with mock.patch.object(selector, "_SCAN_CAP", scan_cap):
        got = [step_layout(c) for c in sample_configs(scc, k, Context(model, bounds))]
    want = [step_layout(c) for c in scan_samples(scc, k, model, bounds, scan_cap)]
    assert got == want, (scc.id, k, scan_cap)
    return len(got)


@pytest.mark.parametrize("name, scan_cap", [("soda", 1500), ("toggle", 20), ("elevator", 400)])
def test_sampling_matches_the_plain_scan(name, scan_cap):
    model, bounds = _fixture(name)
    sccs, _ = cases_criterion(Context(model, bounds))
    sampled = 0
    for k in (2, 4, 6):
        for scc in sccs:
            sampled += _same_samples(scc, k, model, bounds, scan_cap)
    assert sampled > 0


def _least_cap(scc, k, model, bounds):
    """The least scan cap at which the plain scan yields k samples."""
    for cap in itertools.count(1):
        if len(scan_samples(scc, k, model, bounds, cap)) == k:
            return cap


@pytest.mark.parametrize("k", [1, 2])
def test_window_ends_exactly_at_the_scan_cap(soda, soda_bounds, k):
    # with k = 2 the second window's length depends on where the first
    # stratum found its member
    sccs, _ = cases_criterion(Context(soda, soda_bounds))
    scc = sccs[1]
    cap = _least_cap(scc, k, soda, soda_bounds)
    assert cap > k
    # the member at the window's last index is found ...
    assert _same_samples(scc, k, soda, soda_bounds, cap) == k
    # ... and one index past the window it is not
    assert _same_samples(scc, k, soda, soda_bounds, cap - 1) == k - 1


def test_low_max_attempts_does_not_change_the_samples(soda, soda_bounds):
    text = (FIXTURES / "soda.bounds").read_text()
    _, frugal = _fixture("soda", text.replace("max attempts = 200000", "max attempts = 1"))
    assert frugal.max_attempts == 1
    ctx = Context(soda, soda_bounds)
    sccs, _ = cases_criterion(ctx)
    for scc in sccs:
        want = [step_layout(c) for c in sample_configs(scc, 4, ctx)]
        assert [step_layout(c) for c in sample_configs(scc, 4, Context(soda, frugal))] == want
        assert _same_samples(scc, 4, soda, frugal, 1500) <= 4


def test_repeated_grid_values_keep_the_scan_accounting():
    # a repeated value makes two grid indices decode to the same member, so
    # the consumed budget must follow the index found, not the value
    text = (FIXTURES / "soda.bounds").read_text()
    model, bounds = _fixture("soda", text.replace("{0, 25, 75, 125}", "{0, 25, 25, 75, 75, 125}"))
    sccs, _ = cases_criterion(Context(model, bounds))
    for scc in sccs:
        for k in (2, 5):
            _same_samples(scc, k, model, bounds, 1500)


# ---------------------------------------------------------------------------
# the single selection rule against the former two-path rule


# the reason a search's verdict gives a class no representative
_UNSELECTABLE = {"unsat": "no representative within bounds",
                 "unknown": "witness search exhausted its attempt budget"}


def two_path_select(scc, ctx):
    """Reference: the rule `select_config` replaced.  A class with a joint
    predicate gets one joint search; any other class gets independent
    state and pair searches, kept when the pair fits the state's time
    advance by evaluation, else retried jointly.  A class with no
    representative gets a failed step: an empty state, no event at time
    0, and the first reason that applies as its error."""
    model, bounds = ctx.model, ctx.bounds
    names = model.schema.names()
    exec_conjs = executability(model)

    def failed(reason):
        return SimulationConfig(scc.id, {}, TAU, num(0), error=reason)

    def config(state_w, pair_w):
        return SimulationConfig(scc.id, {n: state_w[n] for n in names}, pair_w["x"], pair_w["t"])

    if scc.joint is not None:
        space = joint_space(model, bounds)
        verdict = satisfiable(conj(conjuncts(scc.joint) + exec_conjs), space, ctx)
        if verdict.status != "sat":
            verdict = satisfiable(scc.joint, space, ctx)
        if not verdict.sat:
            return failed(_UNSELECTABLE[verdict.status])
        cfg = config(verdict.witness, verdict.witness)
    else:
        state = satisfiable(scc.init_states, state_space(model, bounds), ctx)
        if not state.sat:
            return failed(_UNSELECTABLE[state.status])
        pair_space = joint_space(model, bounds)[:2]
        pair = satisfiable(scc.input_pairs, pair_space, ctx)
        if not pair.sat:
            return failed(_UNSELECTABLE[pair.status])
        cfg = config(state.witness, pair.witness)
        ta = eval_expr(model.ta, {**const_env(bounds, model), **cfg.state}, model)
        if cfg.event == TAU:
            runs = not isinstance(ta, Inf)
        else:
            runs = isinstance(ta, Inf) or (isinstance(cfg.time, Num) and cfg.time.value <= ta.value)
        if not runs:
            joint = conj(conjuncts(scc.init_states) + conjuncts(scc.input_pairs) + exec_conjs)
            retry = satisfiable(joint, joint_space(model, bounds), ctx)
            if retry.sat:
                cfg = config(retry.witness, retry.witness)
    consts = const_env(bounds, model)
    if not eval_pred(scc.init_states, {**consts, **cfg.state}, model, bounds):
        return failed("selected state fails its own predicate")
    if not eval_pred(scc.input_pairs, {**consts, "x": cfg.event, "t": cfg.time}, model, bounds):
        return failed("selected input pair fails its own predicate")
    return cfg


def _outcome(select, scc, ctx):
    return step_layout(select(scc, ctx))


def _catalog(model, bounds, selections, plan, tables=None):
    campaign = Campaign(model, bounds, tables or builtin_tables(), list(selections), plan=plan)
    return run_campaign(campaign, stop_after="combine").catalog


@pytest.mark.parametrize("name", ["soda all-pairs", "toggle all-pairs", "elevator worked plan"])
def test_single_rule_matches_the_two_path_rule(name, elevator_tables):
    if name == "soda all-pairs":
        model, bounds = _fixture("soda")
        catalog = _catalog(model, bounds, SODA_SELECTIONS, CombinationPlan(all_pairs=True))
        # combination decides on the joint predicate, so the only
        # unselectable class is a hand-built one
        catalog.append(soda_contradiction(len(catalog) + 1))
    elif name == "toggle all-pairs":
        model, bounds = _fixture("toggle")
        selections = ["cases", "extensional input", "extensional state:m"]
        catalog = _catalog(model, bounds, selections, CombinationPlan(all_pairs=True))
    else:
        model, bounds = _fixture("elevator")
        plan = load_plan(str(FIXTURES / "elevator.plan.json"))
        catalog = _catalog(model, bounds, ELEVATOR_SELECTIONS, plan, elevator_tables)
    ctx = Context(model, bounds)
    outcomes = [
        (_outcome(select_config, scc, ctx), _outcome(two_path_select, scc, ctx))
        for scc in catalog
    ]
    assert [new for new, _ in outcomes] == [old for _, old in outcomes]
    # both branches of the old rule, and the errors, are exercised
    assert any(scc.joint is None for scc in catalog)
    assert any(scc.joint is not None for scc in catalog)
    if name == "soda all-pairs":
        assert [(new["scc"], new["error"]) for new, _ in outcomes if "error" in new] == [
            (len(catalog), "no representative within bounds")
        ]


# ---------------------------------------------------------------------------
# probe samples deduplicated on witness values against the rendered form


def repr_dedupe_samples(scc, k, model, bounds, scan_cap=20_000):
    """`sample_configs` with the samples deduplicated on the repr of their
    JSON form, as it was before it compared witness values."""
    space = joint_space(model, bounds)[::-1]
    sizes = [len(g) for _, g in space]
    total = prod(sizes)
    ctx = Context(model, bounds)
    form = runnable_form(scc, ctx)
    strides = [_STRIDES[dim % len(_STRIDES)] for dim in reversed(range(len(space)))]
    found = {}
    scanned = 0
    for s in range(min(k, total)):
        if scanned >= scan_cap:
            break
        lo = [(s * stride) % size for stride, size in zip(strides, sizes)]
        start = digits_index(lo, sizes)
        end = min(total, start + scan_cap - scanned)
        verdict = satisfiable(
            form, space, ctx,
            lo=lo,
            hi=index_digits(end - 1, sizes),
            limit=len(space) * (end - start) + len(form.items),
        )
        if not verdict.sat:
            scanned += end - start
            continue
        scanned += digits_index(verdict.index, sizes) - start + 1
        w = verdict.witness
        cfg = SimulationConfig(scc.id, {n: w[n] for n in model.schema.names()}, w["x"], w["t"])
        found.setdefault(repr(step_layout(cfg)), cfg)
    return list(found.values())


def test_probe_samples_match_the_repr_dedupe_on_every_elevator_base_class(elevator_tables):
    model, bounds = _fixture("elevator")
    base = _catalog(model, bounds, ELEVATOR_SELECTIONS, None, elevator_tables)
    assert len(base) == 88
    counts = []
    for scc in base:
        got = sample_configs(scc, 4, Context(model, bounds))
        assert got == repr_dedupe_samples(scc, 4, model, bounds), scc.id
        counts.append(len(got))
    assert sum(counts) > 0 and max(counts) == 4


@pytest.mark.parametrize("bounds_text", [
    "bounds { time samples = {0, 1, 2}; }",
    # a repeated grid value: two positions, one witness
    "bounds { set m = {B, A, B}; time samples = {0, 1}; }",
])
def test_strata_that_meet_one_member_sample_it_once(bounds_text):
    model, bounds = _fixture("toggle", bounds_text)
    b = Cmp("=", Ref("m"), Const(Lit("B")))
    # the last point of the sampling order, so that every stratum meets it
    last = conj([Cmp("=", Ref("x"), Const(TAU)), Cmp("=", Ref("t"), Const(num(2)))])
    ctx = Context(model, bounds)
    for scc in (make_scc(b, last, "manual", "one member"), make_scc(b, TRUE, "manual", "m = B")):
        for k in (2, 4, 6):
            got = sample_configs(scc, k, ctx)
            assert got == repr_dedupe_samples(scc, k, model, bounds), (scc.target, k)
            assert len({repr(step_layout(c)) for c in got}) == len(got)
    one = make_scc(b, last, "manual", "one member")
    assert len(sample_configs(one, 4, ctx)) == (1 if "samples = {0, 1, 2}" in bounds_text else 0)
