import json

import pytest

from devs_scc.bounds import grid
from devs_scc.context import Context
from devs_scc.criteria import (
    CriterionError,
    Occurrence,
    TimeSpec,
    cases_criterion,
    extensional_criterion,
    intentional_criterion,
    standard_partition_criterion,
    time_partition_criterion,
)
from oracle import eval_pred, iter_witnesses, joint_space, time_points
from devs_scc.parser import parse_expr_text, parse_model_text
from devs_scc.partitions import builtin_tables
from devs_scc.bounds import Bounds
from devs_scc.syntax import Cmp, ConstRef, Ref, render_pred, TRUE
from devs_scc.values import num
from tests.conftest import FIXTURES


# ---------------------------------------------------------------------------
# transition functions defined by cases

def test_soda_cases_match_the_worked_catalog(soda, soda_bounds):
    sccs, _ = cases_criterion(Context(soda, soda_bounds))
    expected = json.loads((FIXTURES / "expected" / "soda-cases.json").read_text())
    assert len(sccs) == len(expected["classes"]) == 11
    for scc, want in zip(sccs, expected["classes"]):
        assert scc.id == want["id"]
        assert render_pred(scc.init_states) == want["init_states"]
        assert render_pred(scc.input_pairs) == want["input_pairs"]
    assert sum(1 for s in sccs if s.target.startswith("dext")) == 5
    assert sum(1 for s in sccs if s.target.startswith("dint")) == 6


def test_elevator_cases_without_otherwise(elevator, elevator_bounds):
    sccs, notes = cases_criterion(Context(elevator, elevator_bounds))
    assert len(sccs) == 35
    assert any("otherwise" in n for n in notes)


def test_elevator_cases_with_otherwise(elevator, elevator_bounds):
    sccs, _ = cases_criterion(Context(elevator, elevator_bounds), True)
    assert len(sccs) == 36


def test_single_unconditional_internal_case(soda_bounds):
    model, report = parse_model_text(
        """
        model tick {
          state { n: nat; }
          input enum {go};
          output nat;
          ta = 1;
          dext(s, e, x) { case x = go -> n; }
          dint(s) { case true -> n + 1; }
          lambda(s) { otherwise -> n; }
        }
        """
    )
    assert report.usable
    sccs, _ = cases_criterion(Context(model, Bounds()))
    internal = [s for s in sccs if s.target.startswith("dint")]
    assert len(internal) == 1
    assert render_pred(internal[0].input_pairs) == "t = 0 /\\ x = tau"


def test_cases_witnesses_admit_an_elapsed_time(soda, soda_bounds):
    """For external classes, every (state, (x,t)) member found within
    bounds admits some elapsed time satisfying the original guard."""
    ctx = Context(soda, soda_bounds)
    sccs, _ = cases_criterion(ctx)
    from devs_scc.bounds import const_env

    consts = const_env(soda_bounds, soda)
    for scc in sccs:
        if not scc.target.startswith("dext"):
            continue
        case_no = int(scc.target.split()[-1])
        guard = soda.delta_ext[case_no - 1].guard
        taken = 0
        for w in iter_witnesses(scc.joint, joint_space(soda, soda_bounds), ctx):
            # t plays the elapsed-time role in the joint predicate
            env = {**consts, **w, "e": w["t"]}
            assert eval_pred(guard, env, soda, soda_bounds)
            taken += 1
            if taken >= 40:
                break
        assert taken > 0


@pytest.mark.parametrize("fixture", ["soda", "elevator", "toggle"])
def test_cases_criterion_decides_each_projection_cluster_once(fixture, request, monkeypatch):
    """Sharing the projections' verdicts across the cases keeps the
    classes and notes of projecting each case afresh, and searches each
    cluster once."""
    import devs_scc.criteria as criteria
    import devs_scc.sat as sat

    ctx = Context(request.getfixturevalue(fixture), request.getfixturevalue(f"{fixture}_bounds"))
    with monkeypatch.context() as patch:
        patch.setattr(criteria, "project_exists",
                      lambda pred, drop, ctx, decided=None: sat.project_exists(pred, drop, ctx))
        expected = cases_criterion(ctx)
    searched = []

    def satisfiable(body, space, ctx, _search=sat.satisfiable):
        searched.append((body, tuple(name for name, _ in space)))
        return _search(body, space, ctx)

    monkeypatch.setattr(sat, "satisfiable", satisfiable)
    assert cases_criterion(ctx) == expected
    assert len(searched) == len(set(searched))


# ---------------------------------------------------------------------------
# extensional sets

def test_soda_extensional_machine_state_and_input(soda, soda_bounds):
    state_sccs, _ = extensional_criterion(soda, "m")
    input_sccs, _ = extensional_criterion(soda, "input")
    assert len(state_sccs) + len(input_sccs) == 12
    assert [render_pred(s.init_states) for s in state_sccs] == [
        "m = idle", "m = operating", "m = finishOp", "m = cancelOp",
        "m = waitRetChange",
    ]
    assert all(s.input_pairs == TRUE for s in state_sccs)
    assert all(s.init_states == TRUE for s in input_sccs)


def test_elevator_full_extensional_application(elevator):
    total = []
    for target in ("input", "eng", "d", "ws", "ds", "a", "sw", "fc", "nt"):
        sccs, _ = extensional_criterion(elevator, target)
        total.extend(sccs)
    assert len(total) == 31
    input_sccs, _ = extensional_criterion(elevator, "input")
    assert len(input_sccs) == 10  # nine signals plus the collapsed number class
    assert render_pred(input_sccs[0].input_pairs) == "x in nat"


def test_extensional_union_covers_the_variable_grid(elevator, elevator_bounds):
    sccs, _ = extensional_criterion(elevator, "fc")
    for value in grid(elevator_bounds, "fc", elevator.schema.sort_of("fc")):
        hits = sum(
            1 for s in sccs if eval_pred(s.init_states, {"fc": value}, elevator)
        )
        assert hits == 1  # partition: exactly one class per value


def test_singleton_enum_gives_one_class():
    model, report = parse_model_text(
        """
        model single {
          state { v: enum {A}; }
          input enum {go};
          output nat;
          ta = infinity;
          dext(s, e, x) { case x = go -> v; }
          dint(s) { }
          lambda(s) { otherwise -> 0; }
        }
        """
    )
    assert report.usable
    sccs, _ = extensional_criterion(model, "v")
    assert len(sccs) == 1
    assert render_pred(sccs[0].init_states) == "v = A"


def test_extensional_rejects_unbounded_sorts(soda):
    with pytest.raises(CriterionError, match="enumerated set"):
        extensional_criterion(soda, "d")


# ---------------------------------------------------------------------------
# intentional sets

def test_intentional_input_pair_comprehension(soda_bounds):
    model, report = parse_model_text(
        """
        model pairs {
          state { k: int; }
          input (int, int);
          output int;
          ta = infinity;
          dext(s, e, x) { case x.1 > 0 -> k; }
          dint(s) { }
          lambda(s) { otherwise -> k; }
        }
        """
    )
    assert report.usable
    from devs_scc.check import bind_pred, ext_ctx
    from devs_scc.parser import parse_pred_text

    pred = bind_pred(
        parse_pred_text("x.1 * x.2 > 0 => x.1 > x.2"), ext_ctx(model)
    )
    sccs, _ = intentional_criterion(model, "input", pred)
    assert len(sccs) == 2
    assert render_pred(sccs[0].input_pairs) == "!(x.1 * x.2 > 0)"
    assert render_pred(sccs[1].input_pairs) == "x.1 > x.2"


def test_intentional_atomic_predicate_is_one_class(soda):
    pred = Cmp(">", Ref("d"), ConstRef("Tret"))
    sccs, _ = intentional_criterion(soda, "state", pred)
    assert len(sccs) == 1


def test_intentional_clause_union_matches_original(soda, soda_bounds):
    from devs_scc.check import bind_pred, state_ctx
    from devs_scc.parser import parse_pred_text

    pred = bind_pred(
        parse_pred_text("(d > 0 /\\ d >= np) \\/ !(np > 0)"), state_ctx(soda)
    )
    sccs, _ = intentional_criterion(soda, "state", pred)
    assert len(sccs) == 2
    for d in soda_bounds.value_sets["d"]:
        for np in soda_bounds.value_sets["np"]:
            env = {"d": d, "np": np}
            union = any(eval_pred(s.init_states, env, soda) for s in sccs)
            assert union == eval_pred(pred, env, soda)


# ---------------------------------------------------------------------------
# standard partitions

def test_elevator_comparison_occurrences_give_twelve_classes(
    elevator, elevator_bounds, elevator_tables
):
    occurrences = [Occurrence("dint", i) for i in (6, 7, 13, 14)]
    sccs, notes = standard_partition_criterion(
        elevator_tables["ordcmp"], occurrences, Context(elevator, elevator_bounds))
    from devs_scc.scc import assign_ids

    unique, dropped = assign_ids(sccs)
    assert len(unique) == 12
    assert any("infeasible cells dropped" in n for n in notes)
    taus = [render_pred(s.input_pairs) for s in unique]
    assert set(taus) == {"t = 0 /\\ x = tau"}


def test_missing_case_cells_survive(elevator, elevator_bounds, elevator_tables):
    """Cells contradicting the partitioned atom stay: the fc = f cells are
    exactly the situations the internal function fails to cover."""
    sccs, _ = standard_partition_criterion(
        elevator_tables["ordcmp"], [Occurrence("dint", 13)], Context(elevator, elevator_bounds))
    assert any("fc = f" in render_pred(s.init_states) for s in sccs)


def test_soda_price_comparisons_give_four_feasible_cells_each(soda, soda_bounds):
    table = builtin_tables()[">="]
    sccs, notes = standard_partition_criterion(
        table, [Occurrence("dext", 2, (">=",))], Context(soda, soda_bounds))
    assert len(sccs) == 4  # negative-operand cells dropped: d, np never below 0
    assert all(s.input_pairs == TRUE for s in sccs)
    assert any("5 infeasible cells dropped" in n for n in notes)


def test_occurrence_under_false_guard_yields_nothing(soda_bounds):
    model, report = parse_model_text(
        """
        model dead {
          state { n: nat; k: nat; }
          input enum {go};
          output nat;
          ta = infinity;
          dext(s, e, x) { case n < k /\\ 0 > 1 -> (n, k); case x = go -> (n, k); }
          dint(s) { }
          lambda(s) { otherwise -> 0; }
        }
        """
    )
    assert report.usable
    sccs, _ = standard_partition_criterion(
        builtin_tables()["<"], [Occurrence("dext", 1)], Context(model, Bounds()))
    assert sccs == []


def fresh_standard_partition(table, occurrences, ctx):
    """The standard partition criterion with one search per cell: the
    reference for the criterion, which decides each distinct cell of an
    occurrence context once per call."""
    from devs_scc.criteria import _number, _occurrence_context, _split_guard
    from devs_scc.partitions import instantiate
    from devs_scc.sat import prepare_conjuncts, satisfiable
    from devs_scc.scc import make_scc
    from devs_scc.syntax import conj, conjuncts, render_expr

    sccs, notes, dropped, unknown = [], [], 0, 0
    for occ in occurrences:
        case = next(c for c in ctx.model.cases(occ.function) if c.id == occ.case_id)
        atoms, context = _split_guard(ctx.model, case, occ.ops)
        states, joint, pairs = _occurrence_context(ctx, occ.function, context)
        for atom in atoms:
            for no, cell in enumerate(instantiate(table, [atom.left, atom.right]), start=1):
                target = (f"operator {atom.op} ({render_expr(atom.left)}, "
                          f"{render_expr(atom.right)}) at {occ.function} case "
                          f"{occ.case_id} cell {no}")
                scc = make_scc(conj(states + conjuncts(cell)), pairs, "standard", target,
                               joint=conj(joint + conjuncts(cell)))
                init = prepare_conjuncts(conjuncts(scc.init_states), ctx)
                status = satisfiable(init, ctx.state_space, ctx).status
                dropped += status == "unsat"
                unknown += status == "unknown"
                if status != "unsat":
                    sccs.append(scc)
    if dropped:
        notes.append(f"standard partition: {dropped} infeasible cells dropped")
    if unknown:
        notes.append(f"standard partition: {unknown} cells kept with unknown feasibility")
    return _number(sccs), notes


STANDARD_SELECTIONS = {
    "elevator dint:6,7,13,14": ("elevator", "ordcmp", [("dint", i, None) for i in (6, 7, 13, 14)]),
    "elevator dint:6,6": ("elevator", "ordcmp", [("dint", 6, None), ("dint", 6, None)]),
    "soda dext:2,3": ("soda", ">=", [("dext", 2, None), ("dext", 3, None)]),
    "soda dext:2,3 ops:>=": ("soda", ">=", [("dext", 2, (">=",)), ("dext", 3, (">=",))]),
}


@pytest.mark.parametrize("name", list(STANDARD_SELECTIONS))
def test_standard_partition_decides_each_distinct_cell_once(name, request, monkeypatch):
    """Deciding a repeated cell once keeps the classes, their targets,
    the notes and the duplicates `assign_ids` removes of deciding every
    cell afresh, and searches each distinct cell once."""
    import devs_scc.criteria as criteria
    from devs_scc.scc import assign_ids

    fixture, table_name, occs = STANDARD_SELECTIONS[name]
    model = request.getfixturevalue(fixture)
    ctx = Context(model, request.getfixturevalue(f"{fixture}_bounds"))
    table = (request.getfixturevalue("elevator_tables") if fixture == "elevator"
             else builtin_tables())[table_name]
    occurrences = [Occurrence(fn, i) if ops is None else Occurrence(fn, i, ops)
                   for fn, i, ops in occs]
    expected, expected_notes = fresh_standard_partition(table, occurrences, ctx)
    searched = []

    def satisfiable(form, *args, _search=criteria.satisfiable):
        searched.append(tuple(c.text for c in form.items))
        return _search(form, *args)

    monkeypatch.setattr(criteria, "satisfiable", satisfiable)
    sccs, notes = standard_partition_criterion(table, occurrences, ctx)
    assert sccs == expected
    assert notes == expected_notes
    assert assign_ids(sccs)[1] == assign_ids(expected)[1]
    assert len(searched) == len(set(searched))


# ---------------------------------------------------------------------------
# time partitions

def _spec(points=(), intervals=(), refine=False):
    return TimeSpec(
        intervals=tuple((parse_expr_text(a), parse_expr_text(b)) for a, b in intervals),
        points=tuple(parse_expr_text(p) for p in points),
        refine=refine,
    )


def test_single_interval_yields_five_classes(elevator, elevator_bounds):
    spec = _spec(intervals=[("TD1", "TD2")])
    sccs, _ = time_partition_criterion(_bind(spec, elevator), Context(elevator, elevator_bounds))
    assert [render_pred(s.input_pairs) for s in sccs] == [
        "t < TD1", "t = TD1", "t < TD2 /\\ t > TD1", "t = TD2", "t > TD2",
    ]
    assert all(s.init_states == TRUE for s in sccs)


def test_single_point_yields_three_classes(elevator, elevator_bounds):
    spec = _spec(points=["TA"])
    sccs, _ = time_partition_criterion(_bind(spec, elevator), Context(elevator, elevator_bounds))
    assert [render_pred(s.input_pairs) for s in sccs] == [
        "t < TA", "t = TA", "t > TA",
    ]


def test_elevator_chain_reproduces_the_ten_conditions(elevator, elevator_bounds):
    spec = _spec(points=["0", "TD1", "TD2", "TA", "TGF"], refine=True)
    sccs, _ = time_partition_criterion(_bind(spec, elevator), Context(elevator, elevator_bounds))
    expected = json.loads(
        (FIXTURES / "expected" / "elevator-time-conditions.json").read_text()
    )
    assert [render_pred(s.input_pairs) for s in sccs] == expected["conditions"]


def test_interval_requires_ordered_endpoints(elevator, elevator_bounds):
    spec = _spec(intervals=[("TA", "TD1")])
    with pytest.raises(CriterionError, match="interval needs"):
        time_partition_criterion(_bind(spec, elevator), Context(elevator, elevator_bounds))


def test_time_classes_partition_the_nonnegative_axis(elevator, elevator_bounds):
    spec = _spec(points=["0", "TD1", "TD2", "TA", "TGF"], refine=True)
    sccs, _ = time_partition_criterion(_bind(spec, elevator), Context(elevator, elevator_bounds))
    from devs_scc.bounds import const_env
    from fractions import Fraction

    consts = const_env(elevator_bounds, elevator)
    # exact rational probes: every grid point and halfway points beyond it
    probes = [v.value for v in time_points(elevator_bounds)]
    probes += [p + Fraction(1, 7) for p in probes]
    for t in probes:
        hits = sum(
            1
            for s in sccs
            if eval_pred(s.input_pairs, {**consts, "t": num(t)}, elevator)
        )
        assert hits == 1, f"t={t} covered {hits} times"


def _bind(spec, model):
    from devs_scc.campaign import _bind_timespec

    return _bind_timespec(spec, model)
