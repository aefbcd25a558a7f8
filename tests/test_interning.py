"""Forms prepared once per context of a model and bounds: interned
conjuncts, shared search spaces, kept placements and depth splits, class
tests made once from interned conjuncts, and a context freed with its
model by reference counting."""

import gc
import importlib.util
import sys
import weakref
from collections import Counter

import pytest

import devs_scc.check as check
import devs_scc.sat as sat
import devs_scc.selector as selector
from devs_scc.algebra import CombinationPlan, combine_and_prune
from devs_scc.bounds import grid
from devs_scc.campaign import Campaign, load_plan, load_tables, run_campaign
from devs_scc.check import validate_model
from devs_scc.context import Context
from devs_scc.evaluator import all_hold, compile_expr, compile_pred
from devs_scc.parser import parse_bounds_file, parse_bounds_text, parse_model_file
from devs_scc.sat import prepare, prepare_conjuncts, satisfiable
from devs_scc.scc import SCC, assign_ids, make_scc
from devs_scc.sequencer import build_sequences
from devs_scc.selector import SimulationConfig, member_form, runnable_form, select_config
from devs_scc.syntax import (
    And, Apply, BinOp, Cmp, Const, Exists, Ref, conjuncts, normalize, render_pred,
)
from devs_scc.values import INF, NAT, EvalError, Lit, num
from oracle import iter_subpreds, joint_space, state_space

from tests.conftest import (
    ELEVATOR_SELECTIONS,
    FIXTURES,
    ROOT,
    SODA_PAIRS_SELECTIONS,
)


def _fresh(name):
    """A model parsed for this test alone, so nothing it keeps comes from
    another test, with its bounds."""
    model, report = parse_model_file(str(FIXTURES / f"{name}.devs"))
    assert report.usable, report.errors
    return model, parse_bounds_file(str(FIXTURES / f"{name}.bounds"))


def _worked(model, bounds, plan=True):
    """The worked elevator campaign, or its base catalog without `plan`."""
    tables, _ = load_tables([str(FIXTURES / "elevator.parts")])
    return Campaign(
        model=model,
        bounds=bounds,
        tables=tables,
        selections=list(ELEVATOR_SELECTIONS),
        plan=load_plan(str(FIXTURES / "elevator.plan.json")) if plan else None,
    )


def _worked_campaign(model, bounds, stop_after="simulate"):
    return run_campaign(_worked(model, bounds), stop_after=stop_after)


# ---------------------------------------------------------------------------
# interned conjuncts


def test_a_worked_campaign_builds_one_conjunct_per_text(monkeypatch):
    built: Counter = Counter()

    class Counting(sat.Conjunct):
        __slots__ = ()

        def __init__(self, pred, text, ctx):
            super().__init__(pred, text, ctx)
            if ctx is not None:
                built[(text, ctx)] += 1

    monkeypatch.setattr(sat, "Conjunct", Counting)
    model, bounds = _fresh("elevator")
    _, report = validate_model(model, bounds)
    assert report.usable
    campaign = _worked(model, bounds)
    result = run_campaign(campaign)
    assert len(result.catalog) == 92
    # the checks' context and the campaign's, each building a text once
    ctx = campaign.context()
    owners = {owner for _, owner in built if owner.model is not None}
    assert len(owners) == 2 and ctx in owners
    assert {text for text, owner in built if owner is ctx} == set(ctx.conjuncts)
    assert len(ctx.conjuncts) > 50
    assert max(built.values()) == 1
    # a second run of the campaign shares its context and builds none
    total = sum(built.values())
    run_campaign(campaign)
    assert sum(built.values()) == total


def test_prepared_forms_share_their_conjuncts(elevator, elevator_bounds):
    campaign = _worked(elevator, elevator_bounds)
    result = run_campaign(campaign, stop_after="select")
    ctx = campaign.context()
    by_text: dict[str, sat.Conjunct] = {}
    for scc in result.catalog:
        for c in runnable_form(scc, ctx).items:
            assert by_text.setdefault(c.text, c) is c
            assert ctx.conjuncts[c.text] is c
    again = prepare_conjuncts(result.catalog[0].member, ctx)
    assert all(c is by_text[c.text] for c in again.items)


def test_other_bounds_get_their_own_existential_closure_and_verdict():
    model, _ = _fresh("toggle")
    k_above_3 = Exists((("k", NAT),), Cmp(">", Ref("k"), Const(num(3))))
    narrow = parse_bounds_text("bounds { nat k = 0..2; }")
    wide = parse_bounds_text("bounds { nat k = 0..5; }")
    assert grid(narrow, "k", NAT)[-1] == num(2) and grid(wide, "k", NAT)[-1] == num(5)
    contexts = {id(narrow): Context(model, narrow), id(wide): Context(model, wide)}
    forms = {}
    # alternating between the two contexts over one model
    for bounds, want in ((narrow, "unsat"), (wide, "sat"), (narrow, "unsat"), (wide, "sat")):
        ctx = contexts[id(bounds)]
        form = prepare(k_above_3, ctx)
        assert satisfiable(form, [], ctx).status == want
        forms.setdefault(id(bounds), []).append(form.items[0])
    (a, a_again), (b, b_again) = forms.values()
    # each context gives back its own conjunct when revisited
    assert a is a_again and b is b_again
    assert a.text == b.text
    assert a is not b and a.test is not b.test
    assert a.test({}) is False and b.test({}) is True
    # back-to-back asks in one context share the conjunct
    ctx = contexts[id(wide)]
    assert prepare(k_above_3, ctx).items[0] is prepare(k_above_3, ctx).items[0]


def _catalog(fixture, selections, plan):
    model, bounds = _fresh(fixture)
    tables, _ = load_tables([str(FIXTURES / f"{fixture}.parts")] if fixture == "elevator" else [])
    return model, run_campaign(Campaign(
        model=model, bounds=bounds, tables=tables, selections=list(selections), plan=plan,
    ), stop_after="combine").catalog


@pytest.mark.parametrize("name", ["elevator worked plan", "soda all-pairs"])
def test_equal_text_means_equal_predicates(name):
    """Interning on the canonical text is sound: over every case guard of
    the three fixtures and every predicate of the two catalogs, two
    predicates that render alike are structurally equal."""
    preds = []
    for fixture in ("soda", "toggle", "elevator"):
        model, _ = _fresh(fixture)
        for case in (*model.delta_ext, *model.delta_int, *model.output_fn):
            if not case.is_otherwise:
                preds.append(normalize(case.guard))
    if name == "soda all-pairs":
        _, catalog = _catalog("soda", SODA_PAIRS_SELECTIONS, CombinationPlan(all_pairs=True))
        assert len(catalog) == 373
    else:
        _, catalog = _catalog("elevator", ELEVATOR_SELECTIONS,
                              load_plan(str(FIXTURES / "elevator.plan.json")))
        assert len(catalog) == 92
    for scc in catalog:
        preds += [scc.init_states, scc.input_pairs, *scc.member]
        if scc.joint is not None:
            preds.append(scc.joint)
    by_text: dict[str, object] = {}
    checked = 0
    for pred in preds:
        for part in [*conjuncts(pred), *iter_subpreds(pred)]:
            first = by_text.setdefault(render_pred(part), part)
            assert first == part, render_pred(part)
            checked += 1
    assert checked > len(by_text) > 50


# ---------------------------------------------------------------------------
# shared spaces and kept splits


def test_spaces_are_built_once_per_model_and_bounds(elevator):
    b = parse_bounds_file(str(FIXTURES / "elevator.bounds"))
    ctx = Context(elevator, b)
    assert ctx.joint_space is ctx.joint_space
    assert ctx.state_space is ctx.state_space
    assert ctx.pair_spaces is ctx.pair_spaces and ctx.times is ctx.times
    assert ctx.joint_space == joint_space(elevator, b)
    assert ctx.state_space == state_space(elevator, b)
    other = Context(elevator, parse_bounds_text((FIXTURES / "elevator.bounds").read_text()))
    assert other.joint_space is not ctx.joint_space
    assert other.joint_space == ctx.joint_space
    assert other.pair_spaces is not ctx.pair_spaces
    assert other.pair_spaces == ctx.pair_spaces


def _bench_workloads():
    """The benchmark's workloads module, `bench/workloads.py`."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _bench_pairs(seed):
    """The plan groups of the benchmark's `pairs` workload for `seed`."""
    return tuple(_bench_workloads().draw_pairs(seed))


@pytest.mark.parametrize(
    "name", ["elevator worked plan", "elevator 120 pairs", "soda all-pairs", "toggle all-pairs"])
def test_every_class_form_splits_as_the_reference(name, request):
    """Every member and runnable form of a catalog, over each variable
    order the pipeline searches, splits into the same tests in the same
    order at every depth as the reference split, both when its
    conjuncts first place themselves in an order and once they keep it."""
    from oracle import split

    from tests.test_sequencer import _sequenced

    if name == "elevator 120 pairs":
        model, bounds = _fresh("elevator")
        tables, _ = load_tables([str(FIXTURES / "elevator.parts")])
        plan = CombinationPlan(groups=_bench_pairs(1), max_arity=2)
        assert len(plan.groups) == 120
        catalog = run_campaign(Campaign(model, bounds, tables, list(ELEVATOR_SELECTIONS), plan=plan),
                               stop_after="sequence").catalog
    else:
        model, bounds, result = _sequenced(name, request)
        catalog = result.catalog
    ctx = Context(model, bounds)
    plans = [sat._plan(space, ctx) for space in (
        ctx.joint_space, ctx.reversed_joint_space, ctx.pair_spaces[False], ctx.state_space)]
    forms = [f(scc, ctx) for scc in catalog for f in (member_form, runnable_form)]
    for _ in range(2):
        for form in forms:
            for plan in plans:
                assert sat._split(form, plan) == split(form, plan.names)
    # each conjunct keeps its placement in every order, keyed by the names
    keys = {" ".join(plan.names) for plan in plans}
    assert all(keys <= c.placed.keys() for form in forms for c in form.items)
    # a form prepared without a model places conjuncts of its own
    fresh = prepare_conjuncts(catalog[-1].member)
    for plan in plans:
        assert sat._split(fresh, plan) == split(fresh, plan.names)


# ---------------------------------------------------------------------------
# class tests made once, from interned conjuncts


def test_selection_and_chaining_compile_each_class_state_test_once(monkeypatch):
    model, bounds = _fresh("elevator")
    # a first run compiles the simulator's cases and interns every
    # conjunct the catalog's forms and tests need in the campaign's context
    campaign = _worked(model, bounds)
    run_campaign(campaign)
    catalog = run_campaign(campaign, stop_after="combine").catalog
    ctx = campaign.context()
    # every caller of the compiler, which itself recurses through its name
    compiled = []
    for name, module in list(sys.modules.items()):
        if (name.startswith("devs_scc.") and name != "devs_scc.evaluator"
                and hasattr(module, "compile_pred")):
            def counting(pred, *args, _name=name, _compile=module.compile_pred):
                compiled.append((_name, pred))
                return _compile(pred, *args)
            monkeypatch.setattr(module, "compile_pred", counting)
    made = []

    def counting_tests(pred, *args, _make=selector._tests):
        made.append(pred)
        return _make(pred, *args)

    monkeypatch.setattr(selector, "_tests", counting_tests)
    assert all(id(scc) not in ctx.classes for scc in catalog)
    configs = {scc.id: select_config(scc, ctx) for scc in catalog}
    kept = [ctx.classes[id(scc)].state for scc in catalog]
    # selection re-checks each representative on its class's state tests,
    # made once from the conjuncts the context interned, and on the
    # interned conjuncts of its pair predicate, so no class predicate is
    # compiled ...
    assert compiled == []
    assert made == [p for scc in catalog for p in (scc.init_states, scc.input_pairs)]
    interned = ctx.conjuncts
    for scc, tests in zip(catalog, kept):
        assert isinstance(tests, tuple)
        expected = [interned[render_pred(c)].test for c in conjuncts(scc.init_states)]
        assert len(tests) == len(expected) and all(a is b for a, b in zip(tests, expected))
        assert selector.state_tests(scc, ctx) is tests
        assert all(render_pred(c) in interned for c in conjuncts(scc.input_pairs))
    # a second selection makes only the pair tests again ...
    del made[:]
    assert [select_config(scc, ctx) for scc in catalog] == list(configs.values())
    assert made == [scc.input_pairs for scc in catalog]
    assert all(ctx.classes[id(scc)].state is tests for scc, tests in zip(catalog, kept))
    # ... and chaining tests states on the same kept state tests, making none
    del made[:]
    sequences, _ = build_sequences(catalog, ctx, configs)
    assert sum(len(s.covered) for s in sequences) == len(catalog)
    assert all(ctx.classes[id(scc)].state is tests for scc, tests in zip(catalog, kept))
    assert made == []
    assert compiled == []


def _raising_first(m):
    """Two toggle classes: the first leaves the toggle in B; the second's
    state predicate is `a = A /\\ m = <m>`, whose first conjunct in
    canonical order names a variable the state lacks, so deciding a state
    on it raises.  The second class's members come from its joint
    predicate, which pins m = B."""
    go = Cmp("=", Ref("x"), Const(Lit("go")))
    at_b = Cmp("=", Ref("m"), Const(Lit("B")))
    unbound = Cmp("=", Ref("a"), Const(Lit("A")))
    state = And((unbound, Cmp("=", Ref("m"), Const(Lit(m)))))
    one = make_scc(Cmp("=", Ref("m"), Const(Lit("A"))), go, "manual", "one", id=1)
    two = make_scc(state, go, "manual", "two", joint=And((at_b, go)), id=2)
    assert [render_pred(c) for c in conjuncts(two.init_states)] == ["a = A", f"m = {m}"]
    return one, two


def test_a_class_test_raises_where_its_compiled_predicate_raises():
    model, bounds = _fresh("toggle")
    # the second conjunct fails in B, but the first decides: it raises
    _, two = _raising_first("A")
    ctx = Context(model, bounds)
    with pytest.raises(EvalError) as compiled:
        compile_pred(two.init_states, ctx)({"m": Lit("B")})
    with pytest.raises(EvalError) as kept:
        all_hold(selector.state_tests(two, ctx), {"m": Lit("B")})
    assert str(kept.value) == str(compiled.value) == "unbound variable a"
    # selection finds m = B from the joint predicate, then its re-check
    # raises as the compiled predicate does
    with pytest.raises(EvalError, match="^unbound variable a$"):
        select_config(two, ctx)


def test_a_state_conjunct_that_fails_to_evaluate_fails_the_re_check():
    model, bounds = _fresh("toggle")
    # the member predicate pins m = B; the state predicate's second
    # conjunct divides by zero there, which the search reads as false
    at_b = Cmp("=", Ref("m"), Const(Lit("B")))
    go = Cmp("=", Ref("x"), Const(Lit("go")))
    by_zero = Cmp("=", BinOp("div", Const(num(1)), Const(num(0))), Const(num(0)))
    scc = make_scc(And((at_b, by_zero)), go, "manual", "zero", joint=And((at_b, go)), id=1)
    ctx = Context(model, bounds)
    with pytest.raises(EvalError, match="division by zero"):
        compile_pred(scc.init_states, ctx)({"m": Lit("B")})
    step = select_config(scc, ctx)
    assert step.error == "selected state fails its own predicate"
    assert step.failure() == "class 1: selected state fails its own predicate"
    assert step.state == {} and step.outcome is None


def test_chaining_skips_a_class_whose_state_test_raises():
    model, bounds = _fresh("toggle")
    one, two = _raising_first("B")
    ctx = Context(model, bounds)
    configs = {1: select_config(one, ctx),
               2: SimulationConfig(2, {"m": Lit("B")}, Lit("go"), num(0))}
    sequences, notes = build_sequences([one, two], ctx, configs)
    assert notes == []
    assert [s.covered for s in sequences] == [[1], [2]]
    # without the raising conjunct the class chains after the first
    plain = make_scc(Cmp("=", Ref("m"), Const(Lit("B"))), two.input_pairs, "manual", "two",
                     joint=two.joint, id=2)
    sequences, _ = build_sequences([one, plain], ctx, configs)
    assert [s.covered for s in sequences] == [[1, 2]]


def test_a_renumbered_class_starts_with_nothing_prepared(elevator, elevator_bounds):
    campaign = _worked(elevator, elevator_bounds)
    catalog = run_campaign(campaign, stop_after="combine").catalog
    # a run's class forms go when it ends, with its catalog
    assert campaign.context().classes == {} and campaign.context().conjuncts
    ctx = Context(elevator, elevator_bounds)
    last = catalog[-1]
    select_config(last, ctx)
    forms = ctx.classes[id(last)]
    assert last.combined_from and forms.scc is last
    assert None not in (forms.member, forms.runnable, forms.state)
    again = last.renumbered(last.id + 1000)
    assert id(again) not in ctx.classes and again == SCC(
        last.id + 1000, last.init_states, last.input_pairs, last.criterion, last.target,
        last.combined_from, last.joint)
    (copy,), _ = assign_ids([last], start=7)
    assert copy.id == 7 and id(copy) not in ctx.classes
    # a combination is given only the form it was decided on
    base = run_campaign(_worked(elevator, elevator_bounds, plan=False), stop_after="combine").catalog
    ctx = Context(elevator, elevator_bounds)
    combined, _ = combine_and_prune(base, campaign.plan, ctx)
    kept = [ctx.classes[id(s)] for s in combined if s.combined_from]
    assert len(kept) == 4
    assert [(f.member is not None, f.runnable, f.state) for f in kept] == [
        (True, None, None)] * 4


def test_a_campaign_and_a_validation_free_their_model_and_context_without_the_collector(
        monkeypatch):
    """Nothing a context holds refers back to it or to its model, so
    dropping a campaign of the benchmark's worked set-up, or ending a
    validation, frees the model, the context and its compiled closures
    by reference counting."""
    import devs_scc

    campaign = _bench_workloads().set_up(devs_scc, "worked", 1)
    made = []

    def recording(model, bounds=None):
        made.append(Context(model, bounds))
        return made[-1]

    monkeypatch.setattr(check, "Context", recording)
    gc.collect()
    gc.disable()
    try:
        result = run_campaign(campaign)
        assert len(result.catalog) == 92
        ctx = campaign.context()
        refs = [weakref.ref(campaign.model), weakref.ref(ctx),
                weakref.ref(ctx.operators["ntsel"])]
        del campaign, result, ctx
        assert [ref() for ref in refs] == [None, None, None]

        model, bounds = _fresh("elevator")
        bound, report = validate_model(model, bounds)
        assert bound is model and report.usable and len(made) == 1
        ctx = made.pop()
        # the checks compile guards, not results: ntsel is compiled here
        compile_expr(Apply("ntsel", tuple(Const(INF) for _ in range(5))), ctx)
        test = next(iter(ctx.conjuncts.values())).test
        refs = [weakref.ref(model), weakref.ref(ctx), weakref.ref(ctx.operators["ntsel"]),
                weakref.ref(test)]
        del ctx, model, bound, report, test
        assert [ref() for ref in refs] == [None, None, None, None]
    finally:
        gc.enable()


def test_a_campaign_with_unselectable_classes_frees_its_context_without_the_collector():
    """A class selection could not represent is kept as its failed step,
    which holds no frame, so nothing holds the campaign and its context
    in a cycle."""
    model, _ = _fresh("toggle")
    frugal = parse_bounds_text((FIXTURES / "toggle.bounds").read_text().replace("10000", "3"))
    tables, _ = load_tables([])
    campaign = Campaign(model, frugal, tables, ["cases", "extensional input", "extensional state:m"])
    gc.collect()
    gc.disable()
    try:
        result = run_campaign(campaign)
        errors = result.report_json()["config_errors"]
        assert [e.split(":")[0] for e in errors] == ["class 2", "class 5"]
        refs = [weakref.ref(model), weakref.ref(campaign.context())]
        del campaign, result, model
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
