import random
from collections import Counter

import pytest

from devs_scc.bounds import const_env
from devs_scc.context import Context
from devs_scc.criteria import cases_criterion
from oracle import eval_pred, event_layout, joint_space, next_reachable, sequence_layout
from devs_scc.scc import SCC, make_scc
from devs_scc.selector import SimulationConfig
from devs_scc.sequencer import build_sequences
from devs_scc.simulator import events, failures
from devs_scc.syntax import TRUE, And, Cmp, Const, Ref, conj
from devs_scc.values import TAU, Lit, num, render_value
from tests.conftest import ELEVATOR_SELECTIONS, FIXTURES, SODA_PAIRS_SELECTIONS, soda_contradiction


def _go():
    return Cmp("=", Ref("x"), Const(Lit("go")))


def _at(name, lit):
    return Cmp("=", Ref(name), Const(Lit(lit)))


def toggle_classes():
    """Three classes on the toggle: the second is reachable from the
    first one's post-state, the third is not.

    Hand simulation: class 1 starts at m=A, go flips to B; class 2 wants
    m=B, matches, go flips back to A; class 3 wants m=B again but the
    current state is A, so it opens its own sequence.
    """
    one = make_scc(_at("m", "A"), _go(), "manual", "one", id=1)
    two = make_scc(_at("m", "B"), _go(), "manual", "two", id=2)
    three = make_scc(_at("m", "B"), _go(), "manual", "three", id=3)
    return [one, two, three]


def test_toggle_chain_gives_two_sequences(toggle, toggle_bounds):
    sequences, notes = build_sequences(toggle_classes(), Context(toggle, toggle_bounds))
    assert notes == []
    assert [seq.covered for seq in sequences] == [[1, 2], [3]]
    assert [len(seq.steps) for seq in sequences] == [2, 1]
    first = sequences[0]
    assert first.steps[0].state["m"] == Lit("A")
    assert first.steps[1].state["m"] == Lit("B")
    assert first.steps[1].outcome.fired == ("dext", 2)
    assert sequences[1].steps[0].state["m"] == Lit("B")


def test_a_class_is_covered_only_by_a_step_inside_it(toggle, toggle_bounds):
    # class 2 admits every state but its joint predicate pins m = A; after
    # class 1 the toggle is in B, so class 2 cannot chain and opens its own
    # sequence from m = A
    one = make_scc(_at("m", "A"), _go(), "manual", "one", id=1)
    two = make_scc(TRUE, _go(), "manual", "two", joint=And((_at("m", "A"), _go())), id=2)
    sequences, notes = build_sequences([one, two], Context(toggle, toggle_bounds))
    assert notes == []
    assert [seq.covered for seq in sequences] == [[1], [2]]
    assert sequences[1].steps[0].state["m"] == Lit("A")


def test_selected_representatives_are_reused(toggle, toggle_bounds, monkeypatch):
    import devs_scc.sequencer as sequencer
    from devs_scc.selector import select_config

    classes = toggle_classes()
    ctx = Context(toggle, toggle_bounds)
    expected, expected_notes = build_sequences(classes, ctx)
    configs = {s.id: select_config(s, ctx) for s in classes}

    def refuse(*args):
        raise AssertionError("representative selected twice")

    monkeypatch.setattr(sequencer, "select_config", refuse)
    sequences, notes = build_sequences(classes, ctx, configs)
    assert [sequence_layout(s) for s in sequences] == [sequence_layout(s) for s in expected]
    assert notes == expected_notes


def test_chaining_removes_the_next_class_by_position(request, monkeypatch):
    """Chaining takes the class it found out of the remaining list at its
    position: no two classes are compared field by field."""
    from devs_scc.scc import SCC

    model, bounds, result = _sequenced("elevator worked plan", request)

    def no_equality(self, other):
        raise AssertionError("classes compared for equality while chaining")

    monkeypatch.setattr(SCC, "__eq__", no_equality)
    sequences, _ = build_sequences(result.catalog, Context(model, bounds))
    assert any(len(seq.covered) > 1 for seq in sequences)
    assert [sequence_layout(s) for s in sequences] == [sequence_layout(s) for s in result.sequences]


def test_disjoint_classes_get_one_sequence_each(toggle, toggle_bounds):
    one = make_scc(_at("m", "A"), _go(), "manual", "one", id=1)
    # class 2 requires m = B but class 1 leaves the system in B as well;
    # make it unreachable by asking for A again after the flip
    # (the toggle's post-state of class 1 is B, so a second m=A class
    # cannot chain)
    two = make_scc(_at("m", "A"), _go(), "manual", "two", id=2)
    sequences, _ = build_sequences([one, two], Context(toggle, toggle_bounds))
    assert [seq.covered for seq in sequences] == [[1], [2]]


def test_empty_class_list_gives_no_sequences(toggle, toggle_bounds):
    sequences, notes = build_sequences([], Context(toggle, toggle_bounds))
    assert sequences == [] and notes == []


def test_coverage_partitions_the_id_set(soda, soda_bounds):
    ctx = Context(soda, soda_bounds)
    sccs, _ = cases_criterion(ctx)
    sequences, _ = build_sequences(sccs, ctx)
    covered = [i for seq in sequences for i in seq.covered]
    assert sorted(covered) == [s.id for s in sccs]
    assert len(covered) == len(set(covered))


def test_chained_states_satisfy_their_class(soda, soda_bounds):
    consts = const_env(soda_bounds, soda)
    ctx = Context(soda, soda_bounds)
    sccs, _ = cases_criterion(ctx)
    by_id = {s.id: s for s in sccs}
    sequences, _ = build_sequences(sccs, ctx)
    chained = 0
    for seq in sequences:
        for step in seq.steps[1:]:
            scc = by_id[step.scc_id]
            env = {**consts, **step.state}
            assert eval_pred(scc.init_states, env, soda, soda_bounds)
            chained += 1
    assert chained > 0  # the soda classes do chain


def test_sequences_are_deterministic(elevator, elevator_bounds):
    ctx = Context(elevator, elevator_bounds)
    sccs, _ = cases_criterion(ctx)
    a, _ = build_sequences(sccs, ctx)
    b, _ = build_sequences(sccs, ctx)
    assert [sequence_layout(s) for s in a] == [sequence_layout(s) for s in b]


def test_failing_step_ends_the_sequence_and_continues(toggle, toggle_bounds):
    # a class whose pair cannot fire (the guard covers only go on A/B,
    # an injected event on a consumed state keeps the run going, while a
    # class with an unsatisfiable state predicate is the step of its
    # selection failure, which never runs, and no note)
    one = make_scc(_at("m", "A"), _go(), "manual", "one", id=1)
    dead = make_scc(
        Cmp("=", Ref("m"), Const(Lit("A"))),
        Cmp("=", Ref("x"), Const(Lit("go"))),
        "manual",
        "dead",
        id=2,
    )
    from devs_scc.syntax import FALSE

    impossible = SCC(3, FALSE, dead.input_pairs, dead.criterion, dead.target,
                     dead.combined_from, dead.joint)
    sequences, notes = build_sequences([one, dead, impossible], Context(toggle, toggle_bounds))
    covered = [i for seq in sequences for i in seq.covered]
    assert sorted(covered) == [1, 2, 3]
    assert notes == []
    assert sequences[-1].covered == [3]
    assert sequences[-1].steps == [
        SimulationConfig(3, {}, TAU, num(0), error="no representative within bounds")]


def random_class_set(rng: random.Random, n: int):
    out = []
    for i in range(1, n + 1):
        state = rng.choice(["A", "B"])
        out.append(make_scc(_at("m", state), _go(), "gen", f"g{i}", id=i))
    return out


def test_coverage_partition_on_generated_class_sets(toggle, toggle_bounds):
    rng = random.Random(1312)
    for _ in range(40):
        classes = random_class_set(rng, rng.randint(1, 9))
        sequences, _ = build_sequences(classes, Context(toggle, toggle_bounds))
        covered = [i for seq in sequences for i in seq.covered]
        assert sorted(covered) == [s.id for s in classes]
        assert len(set(covered)) == len(covered)


def test_a_head_without_configs_is_selected_and_named_once(toggle, toggle_bounds):
    from devs_scc.campaign import replay_sequence
    from devs_scc.syntax import FALSE

    impossible = make_scc(FALSE, _go(), "manual", "impossible", id=3)
    ctx = Context(toggle, toggle_bounds)
    sequences, notes = build_sequences([impossible], ctx)
    # the class is named by its step alone: no note, and, as it never ran,
    # no finding of the sequence or of its replay, which does not run it,
    # but a failure of a step that never ran
    assert notes == []
    unselected = SimulationConfig(3, {}, TAU, num(0), error="no representative within bounds")
    assert sequences[0].steps == [unselected]
    assert unselected.failure() == "class 3: no representative within bounds"
    replayed = replay_sequence(sequences[0], ctx)
    assert replayed == [unselected]
    assert failures(replayed) == failures(sequences[0].steps) == (
        [], ["class 3: no representative within bounds"])


CAMPAIGNS = ["elevator worked plan", "soda all-pairs", "toggle all-pairs"]


def _sequenced(name, request):
    """The model, bounds and campaign result, up to sequencing, of one of
    `CAMPAIGNS`."""
    from devs_scc.algebra import CombinationPlan
    from devs_scc.campaign import Campaign, load_plan, run_campaign
    from devs_scc.partitions import builtin_tables

    fixture, plan, selections = {
        "elevator worked plan": (
            "elevator", load_plan(str(FIXTURES / "elevator.plan.json")), ELEVATOR_SELECTIONS),
        "elevator all-pairs": (
            "elevator", CombinationPlan(all_pairs=True, budget=10_000), ELEVATOR_SELECTIONS),
        "soda all-pairs": ("soda", CombinationPlan(all_pairs=True), SODA_PAIRS_SELECTIONS),
        "toggle all-pairs": (
            "toggle", CombinationPlan(all_pairs=True),
            ["cases", "extensional input", "extensional state:m"]),
    }[name]
    model = request.getfixturevalue(fixture)
    bounds = request.getfixturevalue(f"{fixture}_bounds")
    tables = request.getfixturevalue("elevator_tables") if fixture == "elevator" else builtin_tables()
    result = run_campaign(Campaign(model, bounds, tables, list(selections), plan=plan),
                          stop_after="sequence")
    return model, bounds, result


def reference_build(classes, ctx, configs=None):
    """`build_sequences` with the full-scan chaining rule of
    `oracle.next_reachable` in place of the sequencer's cursors."""
    import devs_scc.sequencer as sequencer

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sequencer, "_next_reachable",
                      lambda remaining, sim, ctx, cursors: next_reachable(remaining, sim.state, ctx))
        return build_sequences(classes, ctx, configs)


@pytest.mark.parametrize("name", ["toggle all-pairs", "soda all-pairs", "elevator all-pairs"])
def test_chaining_matches_the_full_scan_reference(name, request):
    """Resuming each post-state's scan where it stopped chains the steps,
    and gives the notes, that scanning every remaining class does."""
    model, bounds, result = _sequenced(name, request)
    ctx = Context(model, bounds)
    got, notes = build_sequences(result.catalog, ctx, result.configs)
    expected, expected_notes = reference_build(result.catalog, ctx, result.configs)
    assert any(len(seq.steps) > 1 for seq in expected)
    assert [sequence_layout(s) for s in got] == [sequence_layout(s) for s in expected]
    assert [sequence_layout(s) for s in result.sequences] == [sequence_layout(s) for s in got]
    assert notes == expected_notes


@pytest.mark.parametrize("name", CAMPAIGNS)
def test_recorded_traces_equal_a_replay(name, request):
    """The steps each sequence keeps from chaining, with their events and
    failures, are what re-executing them gives."""
    from devs_scc.campaign import replay_sequence

    model, bounds, result = _sequenced(name, request)
    sequences = result.sequences
    # combination decides on the joint predicate: every class is selectable
    assert sum(1 for seq in sequences if not seq.steps[0].state) == 0
    ctx = Context(model, bounds)
    if model.name == "soda":
        # keep an unselectable head's recorded finding under test
        bad, _ = build_sequences([soda_contradiction(1000)], ctx)
        assert not bad[0].steps[0].state
        sequences += bad
    for seq in sequences:
        replayed = replay_sequence(seq, ctx)
        assert replayed == seq.steps
        assert ([event_layout(s) for s in seq.steps if s.outcome]
                == [event_layout(s) for s in replayed if s.outcome])
        assert failures(seq.steps) == failures(replayed)
    assert sum(len(events(seq.steps)) for seq in sequences) > 0
    if model.name != "toggle":
        assert any(failures(seq.steps)[0] for seq in sequences)


def reference_pair(scc, state, model, bounds):
    """The chaining rule by plain enumeration: the least (x, t) that with
    `state` satisfies the class's member predicate and has t <= ta(state),
    without the no-event marker when ta is infinite."""
    from devs_scc.bounds import grid
    from devs_scc.simulator import init, time_advance
    from devs_scc.values import TAU, EvalError, Inf
    from oracle import time_points

    consts = const_env(bounds, model)
    ta = time_advance(init(model, state), Context(model, bounds))
    passive = isinstance(ta, Inf)
    for x in grid(bounds, "x", model.input_sort) + ([] if passive else [TAU]):
        for t in time_points(bounds):
            if not passive and t.value > ta.value:
                continue
            env = {**consts, **state, "x": x, "t": t}
            try:
                if all(eval_pred(c, env, model, bounds) for c in scc.member):
                    return x, t
            except EvalError:
                continue
    return None


@pytest.mark.parametrize("name", CAMPAIGNS)
def test_chained_pairs_match_the_reference_rule(name, request):
    """Every chained step's pair is the reference rule's pair from the
    state the step started in."""
    model, bounds, result = _sequenced(name, request)
    by_id = {s.id: s for s in result.catalog}
    chained = [step for seq in result.sequences for step in seq.steps[1:]]
    assert chained
    for step in chained:
        expected = reference_pair(by_id[step.scc_id], step.state, model, bounds)
        assert (step.event, step.time) == expected, step.scc_id


LATE_MODEL = """
model late {
  state {
    c: time;
  }
  input enum {go};
  output enum {ping};
  ta = c - 1;
  dext(s, e, x) {
    case x = go -> c - 5;
  }
  dint(s) {
    otherwise -> c;
  }
  lambda(s) {
    otherwise -> ping;
  }
}
"""


def test_a_post_state_without_a_valid_time_advance_ends_its_sequence():
    """A step can leave a state whose time advance is negative; no class
    chains from it, the sequence ends with a note and no finding."""
    from devs_scc.campaign import Campaign, replay_sequence, run_campaign
    from devs_scc.parser import parse_bounds_text, parse_model_text
    from devs_scc.partitions import builtin_tables

    model, report = parse_model_text(LATE_MODEL)
    assert report.usable, report.errors
    bounds = parse_bounds_text("bounds {\n  time samples = {0, 1, 5, 6};\n}\n")
    result = run_campaign(Campaign(model, bounds, builtin_tables(),
                                   ["extensional input", "time chain:0,1"]))
    notes = [n for n in result.notes if "cannot chain" in n]
    assert notes == ["class 3: cannot chain from its post-state: ta produced -1"]
    assert sorted(i for seq in result.sequences for i in seq.covered) == [1, 2, 3, 4]
    assert not any("ta produced" in f for f in result.report_json()["findings"])
    for seq in result.sequences:
        replayed = replay_sequence(seq, Context(model, bounds))
        assert replayed == seq.steps
        assert failures(replayed) == failures(seq.steps)


def _spy_on_chaining(monkeypatch, classes, ctx, name):
    """Counters, by class id and the value of state variable `name`, of
    the state tests and the runnable searches chaining makes."""
    import devs_scc.sequencer as sequencer
    from devs_scc.selector import runnable_form, state_tests

    owner = {id(state_tests(s, ctx)): s.id for s in classes}
    owner.update({id(runnable_form(s, ctx)): s.id for s in classes})
    tested, searched = Counter(), Counter()

    def all_hold(tests, env, _all_hold=sequencer.all_hold):
        tested[owner[id(tests)], render_value(env[name])] += 1
        return _all_hold(tests, env)

    def satisfiable(form, space, ctx, base_env, _satisfiable=sequencer.satisfiable):
        searched[owner[id(form)], render_value(base_env[name])] += 1
        return _satisfiable(form, space, ctx, base_env=base_env)

    monkeypatch.setattr(sequencer, "all_hold", all_hold)
    monkeypatch.setattr(sequencer, "satisfiable", satisfiable)
    return tested, searched


def test_a_recurring_state_tests_a_class_it_rejected_once(toggle, toggle_bounds, monkeypatch):
    """The toggle leaves B after steps 1 and 4 and A after steps 3 and 5.
    Class 2 admits B, but its pair time lies off the time grid, so its
    search from B fails; A fails its state test.  Each state decides it
    once, and the sequences are the full scan's."""
    ctx = Context(toggle, toggle_bounds)
    late = And((_at("m", "B"), _go(), Cmp("=", Ref("t"), Const(num(5)))))
    classes = [make_scc(_at("m", "A"), _go(), "manual", "a", id=1),
               make_scc(_at("m", "B"), _go(), "manual", "late", joint=late, id=2),
               make_scc(_at("m", "B"), _go(), "manual", "b", id=3),
               make_scc(_at("m", "A"), _go(), "manual", "a again", id=4),
               make_scc(_at("m", "B"), _go(), "manual", "b again", id=5)]
    expected, expected_notes = reference_build(classes, ctx)
    tested, searched = _spy_on_chaining(monkeypatch, classes, ctx, "m")
    sequences, notes = build_sequences(classes, ctx)
    assert [seq.covered for seq in sequences] == [[1, 3, 4, 5], [2]]
    assert [sequence_layout(s) for s in sequences] == [sequence_layout(s) for s in expected]
    assert notes == expected_notes == []
    assert (tested[2, "B"], searched[2, "B"], tested[2, "A"]) == (1, 1, 1)


def test_a_time_advance_that_fails_on_a_recurring_state_gives_its_note_each_visit(monkeypatch):
    """Classes 1 and 2 both step from c = 5 to c = 0, where class 3's
    state test holds but the time advance is -1: each visit to c = 0
    tests class 3 again and ends its sequence with a note."""
    from devs_scc.parser import parse_bounds_text, parse_model_text

    model, report = parse_model_text(LATE_MODEL)
    assert report.usable, report.errors
    ctx = Context(model, parse_bounds_text("bounds {\n  time samples = {0, 1, 5, 6};\n}\n"))
    at_c = lambda v: Cmp("=", Ref("c"), Const(num(v)))
    classes = [make_scc(at_c(5), _go(), "manual", "one", id=1),
               make_scc(at_c(5), _go(), "manual", "two", id=2),
               make_scc(at_c(0), _go(), "manual", "three", id=3)]
    expected, expected_notes = reference_build(classes, ctx)
    tested, _ = _spy_on_chaining(monkeypatch, classes, ctx, "c")
    sequences, notes = build_sequences(classes, ctx)
    assert notes == expected_notes == [
        f"class {i}: cannot chain from its post-state: ta produced -1" for i in (1, 2)]
    assert [sequence_layout(s) for s in sequences] == [sequence_layout(s) for s in expected]
    assert tested[3, "0"] == 2


@pytest.mark.parametrize("fixture", ["soda", "elevator"])
def test_all_pairs_classes_are_inhabited_and_covered_from_inside(fixture, request):
    """Every kept combination of an all-pairs catalog has a member within
    bounds, and every step that covers a class is a member of it."""
    from devs_scc.algebra import CombinationPlan
    from devs_scc.campaign import Campaign, run_campaign
    from devs_scc.partitions import builtin_tables
    from devs_scc.sat import satisfiable

    model = request.getfixturevalue(fixture)
    bounds = request.getfixturevalue(f"{fixture}_bounds")
    if fixture == "elevator":
        tables, selections = request.getfixturevalue("elevator_tables"), ELEVATOR_SELECTIONS
    else:
        tables, selections = builtin_tables(), SODA_PAIRS_SELECTIONS
    plan = CombinationPlan(all_pairs=True, budget=10_000)
    result = run_campaign(Campaign(model, bounds, tables, list(selections), plan=plan),
                          stop_after="sequence")
    consts = const_env(bounds, model)

    def is_member(scc, env):
        return all(eval_pred(c, {**consts, **env}, model, bounds) for c in scc.member)

    space = joint_space(model, bounds)
    combos = [s for s in result.catalog if s.combined_from]
    assert combos
    for scc in combos:
        verdict = satisfiable(conj(scc.member), space, Context(model, bounds))
        assert verdict.sat and is_member(scc, verdict.witness), scc.target
    by_id = {s.id: s for s in result.catalog}
    steps = [step for seq in result.sequences for step in seq.steps]
    assert sorted(step.scc_id for step in steps) == sorted(by_id)
    for step in steps:
        env = {**step.state, "x": step.event, "t": step.time}
        assert is_member(by_id[step.scc_id], env), step.scc_id
