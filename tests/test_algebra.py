import itertools
import random

import pytest

from devs_scc.algebra import CombinationPlan, combine_and_prune, intersect
from devs_scc.bounds import Bounds
from devs_scc.campaign import apply_selection
from devs_scc.context import Context
from devs_scc.parser import parse_model_text
from devs_scc.sat import satisfiable
from devs_scc.scc import SCC, assign_ids, make_scc
from devs_scc.syntax import TRUE, And, Cmp, Const, Ref, render_pred
from devs_scc.values import Lit, num
from oracle import scc_layout, state_space

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


def _one(event="1"):
    return Cmp("=", Ref("x"), Const(num(1)))


def toy_classes():
    a = make_scc(Cmp("<=", Ref("n"), Const(num(10))), _one(), "t", "a", id=1)
    b = make_scc(Cmp("=", Ref("m"), Const(Lit("ON"))), _one(), "t", "b", id=2)
    c = make_scc(Cmp("=", Ref("m"), Const(Lit("OFF"))), _one(), "t", "c", id=3)
    return a, b, c


def test_intersection_conjoins_both_components():
    a, b, _ = toy_classes()
    d = intersect(a, b)
    assert render_pred(d.init_states) == "m = ON /\\ n <= 10"
    assert render_pred(d.input_pairs) == "x = 1"
    assert d.combined_from == (1, 2)


def test_intersection_is_idempotent_up_to_normalization():
    a, _, _ = toy_classes()
    aa = intersect(a, a)
    assert aa.key() == a.key()


def test_intersection_commutes_as_canonical_form():
    a, b, _ = toy_classes()
    assert intersect(a, b).key() == intersect(b, a).key()
    assert intersect(a, b).combined_from == intersect(b, a).combined_from


def test_intersection_associates_as_canonical_form():
    a, b, c = toy_classes()
    left = intersect(intersect(a, b), c)
    right = intersect(a, intersect(b, c))
    assert left.key() == right.key()
    assert left.combined_from == right.combined_from == (1, 2, 3)


def test_pairwise_combination_keeps_two_and_drops_the_contradiction(toy, toy_bounds):
    a, b, c = toy_classes()
    plan = CombinationPlan(groups=((1, 2), (1, 3), (2, 3)))
    catalog, report = combine_and_prune([a, b, c], plan, Context(toy, toy_bounds))
    assert report.attempted == 3
    assert report.kept == 2
    assert report.dropped == 1
    # base classes are always retained
    assert [s.id for s in catalog[:3]] == [1, 2, 3]
    assert len(catalog) == 5
    kept_inits = {render_pred(s.init_states) for s in catalog[3:]}
    assert kept_inits == {"m = ON /\\ n <= 10", "m = OFF /\\ n <= 10"}


def test_combination_is_decided_on_the_joint_predicate(toggle, toggle_bounds):
    # each class's split predicates have members, but the joints pin m
    # to different values, so the combination has no configuration
    go = Cmp("=", Ref("x"), Const(Lit("go")))

    def pinned(ident, lit):
        joint = And((Cmp("=", Ref("m"), Const(Lit(lit))), go))
        return make_scc(TRUE, go, "t", lit, joint=joint, id=ident)

    plan = CombinationPlan(groups=((1, 2),))
    catalog, report = combine_and_prune([pinned(1, "A"), pinned(2, "B")], plan,
                                        Context(toggle, toggle_bounds))
    assert (report.kept, report.dropped, report.unknown) == (0, 1, 0)
    assert [s.id for s in catalog] == [1, 2]


def test_a_repeated_group_is_skipped_before_the_budget(toy, toy_bounds):
    a, b, c = toy_classes()
    plan = CombinationPlan(groups=((1, 3), (3, 1), (1, 3), (2, 3)), budget=2)
    catalog, report = combine_and_prune([a, b, c], plan, Context(toy, toy_bounds))
    assert report.attempted == report.kept + report.dropped == 2
    assert not report.budget_exhausted
    assert report.notes == ["group (3, 1): repeated, skipped", "group (1, 3): repeated, skipped"]


def test_empty_plan_returns_the_base_catalog(toy, toy_bounds):
    base = list(toy_classes())
    catalog, report = combine_and_prune(base, CombinationPlan(), Context(toy, toy_bounds))
    assert catalog == base
    assert report.attempted == 0


def test_budget_exhaustion_is_flagged(toy, toy_bounds):
    a, b, c = toy_classes()
    plan = CombinationPlan(groups=((1, 2), (1, 3), (2, 3)), budget=1)
    catalog, report = combine_and_prune([a, b, c], plan, Context(toy, toy_bounds))
    assert report.budget_exhausted
    assert report.attempted == 1


def test_unknown_emptiness_keeps_the_combination(toy):
    # x < t /\ t < x is empty, but the contradiction spans two variables,
    # so per-variable filtering cannot refute it within 3 attempts
    tiny = Bounds(nat_ranges={"": (0, 20)}, max_attempts=3)
    a, b, c = toy_classes()
    below = make_scc(a.init_states, Cmp("<", Ref("x"), Ref("t")), "t", "below", id=4)
    above = make_scc(a.init_states, Cmp("<", Ref("t"), Ref("x")), "t", "above", id=5)
    plan = CombinationPlan(groups=((4, 5),))
    catalog, report = combine_and_prune([a, b, c, below, above], plan, Context(toy, tiny))
    assert report.unknown == 1
    assert report.kept == 1  # kept but flagged rather than silently lost


def test_all_pairs_default_plan(toy, toy_bounds):
    a, b, c = toy_classes()
    plan = CombinationPlan(all_pairs=True)
    catalog, report = combine_and_prune([a, b, c], plan, Context(toy, toy_bounds))
    assert report.attempted == 3
    assert len(catalog) == 3 + report.kept


@pytest.fixture(scope="module")
def elevator_base(elevator, elevator_bounds, elevator_tables):
    from tests.conftest import ELEVATOR_SELECTIONS

    raw = []
    for sel in ELEVATOR_SELECTIONS:
        _, sccs, _ = apply_selection(sel, Context(elevator, elevator_bounds), elevator_tables, False)
        raw.extend(sccs)
    base, _ = assign_ids(raw)
    return base


def test_elevator_worked_combinations(elevator, elevator_bounds, elevator_base):
    base = elevator_base
    plan = CombinationPlan(groups=((1, 49), (1, 57), (36, 87), (13, 59, 85)), max_arity=3)
    catalog, report = combine_and_prune(base, plan, Context(elevator, elevator_bounds))
    assert report.kept == 4 and report.dropped == 0
    by_target = {s.target: s for s in catalog[88:]}
    first = by_target["1+49"]
    rendered = render_pred(first.init_states)
    assert "d = open" in rendered and "eng = stopped" in rendered and "fc = none" in rendered
    tie = by_target["13+59+85"]
    assert render_pred(tie.init_states) == (
        "d = open /\\ fc != f /\\ fc != none /\\ sw = on"
    )
    assert render_pred(tie.input_pairs) == "t = TA /\\ x = s_off"
    call_at_gf = by_target["36+87"]
    assert render_pred(call_at_gf.init_states) == "true"
    assert render_pred(call_at_gf.input_pairs) == "t = TGF /\\ x in nat"


def test_contradiction_on_the_last_state_variable_is_dropped(
    elevator, elevator_bounds, elevator_base
):
    # dint case 1 meets dint case 11 on nt = D1 /\ nt = O; nt is the last
    # of 14 state variables, so a search that tests the conjunct only once
    # nt is bound runs out of the 200k-attempt budget before deciding
    by_id = {s.id: s for s in elevator_base}
    combo = intersect(by_id[18], by_id[28])
    rendered = render_pred(combo.init_states)
    assert "nt = D1" in rendered and "nt = O" in rendered
    ctx = Context(elevator, elevator_bounds)
    verdict = satisfiable(combo.init_states, state_space(elevator, elevator_bounds), ctx)
    assert verdict.status == "unsat"
    assert verdict.attempts <= 100
    plan = CombinationPlan(groups=((18, 28),))
    catalog, report = combine_and_prune(elevator_base, plan, ctx)
    assert (report.kept, report.dropped, report.unknown) == (0, 1, 0)
    assert catalog == elevator_base


def random_scc(rng: random.Random, ident: int) -> SCC:
    atoms = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(3)
        if kind == 0:
            atoms.append(Cmp(rng.choice(["<", "<=", ">"]), Ref("n"), Const(num(rng.randint(0, 9)))))
        elif kind == 1:
            atoms.append(Cmp("=", Ref("m"), Const(Lit(rng.choice(["ON", "OFF"])))))
        else:
            atoms.append(Cmp(">=", Ref("n"), Const(num(rng.randint(0, 9)))))
    pairs = Cmp("=", Ref("x"), Const(num(rng.randint(0, 3))))
    return make_scc(And(tuple(atoms)), pairs, "gen", f"g{ident}", id=ident)


def test_commutativity_and_associativity_on_generated_classes():
    rng = random.Random(77)
    for _ in range(120):
        a = random_scc(rng, 1)
        b = random_scc(rng, 2)
        c = random_scc(rng, 3)
        assert intersect(a, b).key() == intersect(b, a).key()
        assert intersect(intersect(a, b), c).key() == intersect(a, intersect(b, c)).key()


def test_combination_members_satisfy_all_ancestors(toy, toy_bounds):
    from oracle import eval_pred, iter_witnesses

    a, b, c = toy_classes()
    combo = intersect(a, b)
    count = 0
    space = state_space(toy, toy_bounds)
    for w in iter_witnesses(combo.init_states, space, Context(toy, toy_bounds)):
        assert eval_pred(a.init_states, w, toy)
        assert eval_pred(b.init_states, w, toy)
        count += 1
        if count > 30:
            break
    assert count > 0


def test_a_group_naming_one_class_twice_is_skipped_before_the_budget(toy, toy_bounds):
    a, b, c = toy_classes()
    plan = CombinationPlan(groups=((1, 1), (2, 1, 2), (1, 2)), max_arity=3, budget=1)
    catalog, report = combine_and_prune([a, b, c], plan, Context(toy, toy_bounds))
    assert report.notes == ["group (1, 1): repeated id, skipped",
                            "group (2, 1, 2): repeated id, skipped"]
    assert (report.attempted, report.kept, report.budget_exhausted) == (1, 1, False)
    assert [s.combined_from for s in catalog[3:]] == [(1, 2)]


def _build_then_decide(base, plan, ctx):
    """The combination loop as it was before groups were decided ahead of
    building: every group is built with `intersect`, then its operands'
    member forms conjoined are searched, and the kept ones are numbered
    at the end, each given that form in `ctx`."""
    from devs_scc.algebra import CombineReport
    from devs_scc.selector import member_form
    from oracle import joint_space

    report = CombineReport()
    by_id = {s.id: s for s in base}
    groups = [tuple(g) for g in plan.groups]
    if plan.all_pairs:
        groups.extend(itertools.combinations(sorted(by_id), 2))
    space = joint_space(ctx.model, ctx.bounds)
    kept, seen = [], set()
    for group in groups:
        if len(group) < 2 or len(group) > plan.max_arity:
            report.notes.append(f"group {group}: size outside 2..{plan.max_arity}, skipped")
            continue
        missing = [i for i in group if i not in by_id]
        if missing:
            report.notes.append(f"group {group}: unknown ids {missing}, skipped")
            continue
        members = sorted(group)
        key = tuple(members)
        if key in seen:
            report.notes.append(f"group {group}: repeated, skipped")
            continue
        if report.attempted >= plan.budget:
            report.budget_exhausted = True
            report.notes.append("combination budget exhausted; partial result")
            break
        report.attempted += 1
        seen.add(key)
        combo = by_id[members[0]]
        for i in members[1:]:
            combo = intersect(combo, by_id[i])
        form = member_form(by_id[members[0]], ctx)
        for i in members[1:]:
            form = form & member_form(by_id[i], ctx)
        verdict = satisfiable(form, space, ctx)
        if verdict.status == "unsat":
            report.dropped += 1
            continue
        if verdict.status == "unknown":
            report.unknown += 1
            report.notes.append(f"combination {combo.target}: emptiness unknown within budget, kept")
        report.kept += 1
        kept.append((combo, form))
    next_id = max((s.id for s in base), default=0)
    catalog = list(base)
    for combo, form in sorted(kept, key=lambda k: k[0].combined_from):
        next_id += 1
        combo = combo.renumbered(next_id)
        ctx.forms(combo).member = form
        catalog.append(combo)
    return catalog, report


def _base(model, bounds, selections, tables=None):
    from devs_scc.partitions import builtin_tables

    raw = []
    for sel in selections:
        _, sccs, _ = apply_selection(sel, Context(model, bounds), tables or builtin_tables(), False)
        raw.extend(sccs)
    return assign_ids(raw)[0]


TOGGLE_SELECTIONS = ["cases", "extensional input", "extensional state:m"]


def _combination_case(name, request):
    """(model, bounds, base, plan) of one combination campaign."""
    from devs_scc.campaign import load_plan
    from tests.conftest import ELEVATOR_SELECTIONS, FIXTURES, SODA_PAIRS_SELECTIONS

    pairs = CombinationPlan(all_pairs=True)
    if name == "elevator worked plan":
        model, bounds = request.getfixturevalue("elevator"), request.getfixturevalue("elevator_bounds")
        base = _base(model, bounds, ELEVATOR_SELECTIONS, request.getfixturevalue("elevator_tables"))
        return model, bounds, base, load_plan(str(FIXTURES / "elevator.plan.json"))
    if name == "soda all-pairs":
        model, bounds = request.getfixturevalue("soda"), request.getfixturevalue("soda_bounds")
        return model, bounds, _base(model, bounds, SODA_PAIRS_SELECTIONS), pairs
    if name == "unknown emptiness":
        model = request.getfixturevalue("toy")
        tiny = Bounds(nat_ranges={"": (0, 20)}, max_attempts=3)
        a, b, c = toy_classes()
        below = make_scc(a.init_states, Cmp("<", Ref("x"), Ref("t")), "t", "below", id=4)
        above = make_scc(a.init_states, Cmp("<", Ref("t"), Ref("x")), "t", "above", id=5)
        # every group runs out of attempts; the notes follow the plan's
        # order and the ids ascending ancestry
        return model, tiny, [a, b, c, below, above], CombinationPlan(groups=((4, 5), (1, 3), (4, 2)))
    model, bounds = request.getfixturevalue("toggle"), request.getfixturevalue("toggle_bounds")
    base = _base(model, bounds, TOGGLE_SELECTIONS)
    if name == "combined base":
        # all pairs over a catalog that already holds combinations: groups
        # such as (1, 5) and (1, 1+5) share one ancestry
        base, _ = combine_and_prune(base, pairs, Context(model, bounds))
        assert any(s.combined_from for s in base)
    return model, bounds, base, pairs


COMBINATION_CASES = ["toggle all-pairs", "soda all-pairs", "elevator worked plan",
                     "combined base", "unknown emptiness"]


@pytest.mark.parametrize("name", COMBINATION_CASES)
def test_deciding_before_building_matches_building_first(name, request):
    from devs_scc.selector import member_form

    model, bounds, base, plan = _combination_case(name, request)
    ctx = Context(model, bounds)
    got, got_report = combine_and_prune(base, plan, ctx)
    want, want_report = _build_then_decide(base, plan, ctx)
    assert [scc_layout(s) for s in got] == [scc_layout(s) for s in want]
    assert got_report == want_report
    if name == "unknown emptiness":
        assert [n.split(":")[0] for n in got_report.notes] == [
            "combination 4+5", "combination 1+3", "combination 2+4"]
        assert [s.target for s in got[5:]] == ["1+3", "2+4", "4+5"]

    def forms(catalog):
        return [[c.text for c in member_form(s, ctx).items] for s in catalog]

    assert forms(got) == forms(want)


@pytest.mark.parametrize("name", ["toggle all-pairs", "soda all-pairs", "combined base"])
def test_only_kept_combinations_are_built(name, request, monkeypatch):
    import devs_scc.algebra as algebra

    calls = []

    def counting(a, b):
        calls.append((a.ancestry(), b.ancestry()))
        return intersect(a, b)

    model, bounds, base, plan = _combination_case(name, request)
    monkeypatch.setattr(algebra, "intersect", counting)
    _, report = combine_and_prune(base, plan, Context(model, bounds))
    assert report.dropped > 0
    assert len(calls) == report.kept
