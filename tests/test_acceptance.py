"""Acceptance gate: one test per criterion, each printing a pass line
with its runtime.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from devs_scc.algebra import CombinationPlan, combine_and_prune, intersect
from devs_scc.bounds import Bounds, const_env
from devs_scc.campaign import (
    Campaign,
    apply_selection,
    dump_json,
    load_plan,
    load_tables,
    run_campaign,
)
from devs_scc.context import Context
from devs_scc.criteria import TimeSpec, cases_criterion, time_partition_criterion
from devs_scc.dnf import to_dnf
from oracle import eval_pred
from devs_scc.parser import parse_bounds_file, parse_expr_text, parse_model_file
from devs_scc.partitions import builtin_tables, check_partition
from devs_scc.scc import assign_ids, make_scc
from devs_scc.selector import select_config
from devs_scc.sequencer import build_sequences
from devs_scc.simulator import SimError, UndefinedTransition, init, step, time_advance
from devs_scc.syntax import (
    And,
    BinOp,
    Cmp,
    Const,
    Implies,
    Or,
    Ref,
    render_pred,
)
from devs_scc.values import INF, Lit, Num, num
from tests.conftest import ELEVATOR_SELECTIONS, FIXTURES, SODA_SELECTIONS


class Timer:
    def __init__(self, limit: float):
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.limit, (
                f"took {self.elapsed:.2f}s, limit {self.limit}s"
            )
        return False


def report(n: int, timer: Timer, text: str) -> None:
    print(f"ACCEPTANCE {n:2d} PASS ({timer.elapsed:6.2f}s)  {text}")


def _base_catalog(model, bounds, tables, selections):
    raw = []
    for sel in selections:
        _, sccs, _ = apply_selection(sel, Context(model, bounds), tables, False)
        raw.extend(sccs)
    return assign_ids(raw)[0]


def test_criterion_01_soda_cases_catalog(soda, soda_bounds):
    with Timer(1.0) as t:
        sccs, _ = cases_criterion(Context(soda, soda_bounds))
        assert len(sccs) == 11
        assert sum(1 for s in sccs if s.target.startswith("dext")) == 5
        assert sum(1 for s in sccs if s.target.startswith("dint")) == 6
        expected = json.loads(
            (FIXTURES / "expected" / "soda-cases.json").read_text()
        )
        for scc, want in zip(sccs, expected["classes"]):
            assert render_pred(scc.init_states) == want["init_states"], scc.id
            assert render_pred(scc.input_pairs) == want["input_pairs"], scc.id
        diet = sccs[2]
        assert render_pred(diet.init_states) == "d >= dp"
        assert render_pred(diet.input_pairs) == "x = getDiet"
    report(1, t, "soda cases criterion: 11 classes matching the worked catalog")


def test_criterion_02_elevator_case_counts(elevator, elevator_bounds):
    ctx = Context(elevator, elevator_bounds)
    with Timer(1.0) as t:
        without, _ = cases_criterion(ctx)
        assert len(without) == 35
        with_o, _ = cases_criterion(ctx, True)
        assert len(with_o) == 36
    report(2, t, "elevator cases criterion: 35 classes, 36 with otherwise")


def test_criterion_03_elevator_base_campaign(elevator, elevator_bounds, elevator_tables):
    ctx = Context(elevator, elevator_bounds)
    with Timer(5.0) as t:
        raw = []
        per_criterion = []
        for sel in ELEVATOR_SELECTIONS:
            label, sccs, _ = apply_selection(sel, ctx, elevator_tables, False)
            per_criterion.append((label, len(sccs)))
            raw.extend(sccs)
        base, _ = assign_ids(raw)
        assert len(base) == 88
        by_criterion = {}
        for scc in base:
            by_criterion.setdefault(scc.criterion, []).append(scc.id)
        assert len(by_criterion["cases"]) == 35
        assert len(by_criterion["extensional"]) == 31
        assert len(by_criterion["standard"]) == 12
        assert len(by_criterion["time"]) == 10
        assert [min(by_criterion["cases"]), max(by_criterion["cases"])] == [1, 35]
        assert [min(by_criterion["time"]), max(by_criterion["time"])] == [79, 88]
        # combined classes start counting at 89
        plan = CombinationPlan(groups=((1, 49),))
        catalog, _ = combine_and_prune(base, plan, ctx)
        assert catalog[88].id == 89 and catalog[88].combined_from == (1, 49)
    report(3, t, "elevator base campaign: 88 classes (35+31+12+10), combinations from 89")


def test_criterion_04_builtin_less_than_table():
    with Timer(1.0) as t:
        table = builtin_tables()["<"]
        assert len(table.cells) == 9
        disjoint, exhaustive = check_partition(table)
        assert disjoint and exhaustive
    report(4, t, "built-in < partition: 9 cells, disjoint and exhaustive on [-2,2]^2")


def test_criterion_05_time_partitions(elevator, elevator_bounds):
    ctx = Context(elevator, elevator_bounds)
    with Timer(1.0) as t:
        from devs_scc.campaign import _bind_timespec

        interval = _bind_timespec(
            TimeSpec(intervals=((parse_expr_text("TD1"), parse_expr_text("TD2")),)),
            elevator,
        )
        sccs, _ = time_partition_criterion(interval, ctx)
        assert len(sccs) == 5
        point = _bind_timespec(TimeSpec(points=(parse_expr_text("TA"),)), elevator)
        sccs, _ = time_partition_criterion(point, ctx)
        assert len(sccs) == 3
        chain = _bind_timespec(
            TimeSpec(
                points=tuple(parse_expr_text(p) for p in ("0", "TD1", "TD2", "TA", "TGF")),
                refine=True,
            ),
            elevator,
        )
        sccs, _ = time_partition_criterion(chain, ctx)
        expected = json.loads(
            (FIXTURES / "expected" / "elevator-time-conditions.json").read_text()
        )
        assert [render_pred(s.input_pairs) for s in sccs] == expected["conditions"]
    report(5, t, "time criterion: 5 per interval, 3 per point, the 10 elevator conditions")


def test_criterion_06_toy_combination():
    with Timer(1.0) as t:
        from devs_scc.parser import parse_model_text

        model, rep = parse_model_text(
            """
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
        )
        assert rep.usable
        bounds = Bounds(nat_ranges={"": (0, 20)})
        one = Cmp("=", Ref("x"), Const(num(1)))
        a = make_scc(Cmp("<=", Ref("n"), Const(num(10))), one, "t", "a", id=1)
        b = make_scc(Cmp("=", Ref("m"), Const(Lit("ON"))), one, "t", "b", id=2)
        c = make_scc(Cmp("=", Ref("m"), Const(Lit("OFF"))), one, "t", "c", id=3)
        plan = CombinationPlan(groups=((1, 2), (1, 3), (2, 3)))
        catalog, rep2 = combine_and_prune([a, b, c], plan, Context(model, bounds))
        assert rep2.kept == 2 and rep2.dropped == 1
        assert len(catalog) == 5  # all base classes retained
    report(6, t, "toy combination: 2 kept, 1 dropped (the ON-and-OFF intersection)")


def test_criterion_07_dnf_example():
    with Timer(1.0) as t:
        p = Implies(
            Cmp(">", BinOp("*", Ref("n"), Ref("m")), Const(num(0))),
            Cmp(">", Ref("n"), Ref("m")),
        )
        clauses = to_dnf(p)
        assert [render_pred(c.predicate()) for c in clauses] == [
            "!(n * m > 0)",
            "n > m",
        ]
        union = Or(tuple(c.predicate() for c in clauses))
        for n, m in itertools.product(range(-3, 4), repeat=2):
            env = {"n": num(n), "m": num(m)}
            assert eval_pred(p, env) == eval_pred(union, env)
    report(7, t, "DNF of the implication example: two clauses, equivalent on [-3,3]^2")


def test_criterion_08_missed_case_reproduction():
    with Timer(1.0) as t:
        proc = subprocess.run(
            [
                sys.executable, "-m", "devs_scc.cli", "simulate",
                "--model", str(FIXTURES / "soda.devs"),
                "--bounds", str(FIXTURES / "soda.bounds"),
                "--config", str(FIXTURES / "soda-missed-case.config.json"),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert "undefined transition" in proc.stderr
        assert "getNormal" in proc.stderr
    report(8, t, "missed-case signal: undefined transition finding, exit code 3")


def test_criterion_09_property_suites(
    soda, soda_bounds, elevator, elevator_bounds, elevator_tables, toggle, toggle_bounds
):
    with Timer(60.0) as t:
        _dnf_equivalence_suite(200)
        _intersection_laws_suite(200)
        checked = _witness_soundness_suite(
            soda, soda_bounds, elevator, elevator_bounds, elevator_tables
        )
        steps = _q_invariant_suite(soda, soda_bounds, 1000)
        runs = _coverage_partition_suite(toggle, toggle_bounds, 100)
    report(
        9, t,
        f"property suites: 200 DNF, 200 intersection laws, {checked} witnesses, "
        f"{steps} simulator steps, {runs} sequencing runs",
    )


def _dnf_equivalence_suite(count: int) -> None:
    from tests.test_dnf import clauses_as_disjunction, equivalent_on_grid, random_predicate

    rng = random.Random(90210)
    for _ in range(count):
        p = random_predicate(rng)
        clauses = to_dnf(p)
        if clauses:
            q = clauses_as_disjunction(clauses)
        else:
            q = And((Cmp("<", Ref("p"), Const(num(0))), Cmp(">", Ref("p"), Const(num(0)))))
        assert equivalent_on_grid(p, q, -2, 2), render_pred(p)


def _intersection_laws_suite(count: int) -> None:
    from tests.test_algebra import random_scc

    rng = random.Random(31337)
    for _ in range(count):
        a, b, c = (random_scc(rng, i) for i in (1, 2, 3))
        assert intersect(a, b).key() == intersect(b, a).key()
        assert intersect(intersect(a, b), c).key() == intersect(a, intersect(b, c)).key()


def _witness_soundness_suite(soda, soda_bounds, elevator, elevator_bounds, tables) -> int:
    checked = 0
    soda_tables, _ = load_tables([])
    for model, bounds, tbls, selections in (
        (soda, soda_bounds, soda_tables, SODA_SELECTIONS),
        (elevator, elevator_bounds, tables, ELEVATOR_SELECTIONS),
    ):
        base = _base_catalog(model, bounds, tbls, selections)
        consts = const_env(bounds, model)
        for scc in base:
            cfg = select_config(scc, Context(model, bounds))
            assert eval_pred(
                scc.init_states, {**consts, **cfg.state}, model, bounds
            ), scc.id
            assert eval_pred(
                scc.input_pairs,
                {**consts, "x": cfg.event, "t": cfg.time},
                model,
                bounds,
            ), scc.id
            checked += 1
    assert checked >= 88 + 30
    return checked


def _q_invariant_suite(soda, soda_bounds, target: int) -> int:
    ctx = Context(soda, soda_bounds)
    rng = random.Random(60901)
    start = {
        "m": Lit("idle"), "d": num(0), "ot": INF, "np": num(50), "dp": num(25),
        "it": num(300), "ms": _bag(2, 2, 2), "om": _bag(0, 0, 0), "mr": _bag(0, 0, 0),
    }
    steps_taken = 0
    while steps_taken < target:
        st = init(soda, dict(start))
        for _ in range(16):
            ta = time_advance(st, ctx)
            if isinstance(ta, Num) and rng.random() < 0.35:
                injected = None
            else:
                horizon = ta.value if isinstance(ta, Num) else Fraction(12)
                e = horizon * Fraction(rng.randint(0, 4), 4)
                x = Lit(rng.choice(
                    ["c25", "c50", "c100", "getNormal", "getDiet", "cancel",
                     "moneyRetreated"]
                ))
                injected = (x, st.clock + e)
                # the chosen elapsed time lies in the total state set
                assert 0 <= e
                if isinstance(ta, Num):
                    assert e <= ta.value
            before = st.clock
            try:
                st, _, _ = step(st, ctx, injected)
            except (UndefinedTransition, SimError):
                break
            assert st.clock >= before
            assert st.clock == (before + ta.value if injected is None else injected[1])
            steps_taken += 1
    return steps_taken


def _bag(*xs):
    from devs_scc.values import Tup

    return Tup(tuple(num(x) for x in xs))


def _coverage_partition_suite(toggle, toggle_bounds, rounds: int) -> int:
    from tests.test_sequencer import random_class_set

    rng = random.Random(777)
    for _ in range(rounds):
        classes = random_class_set(rng, rng.randint(1, 10))
        sequences, _ = build_sequences(classes, Context(toggle, toggle_bounds))
        covered = [i for seq in sequences for i in seq.covered]
        assert sorted(covered) == [s.id for s in classes]
    return rounds


def test_criterion_10_campaign_determinism():
    with Timer(10.0) as t:
        model, rep = parse_model_file(str(FIXTURES / "elevator.devs"))
        assert rep.usable
        bounds = parse_bounds_file(str(FIXTURES / "elevator.bounds"))
        tables, _ = load_tables([str(FIXTURES / "elevator.parts")])
        plan = load_plan(str(FIXTURES / "elevator.plan.json"))

        def run_once() -> str:
            campaign = Campaign(
                model=model, bounds=bounds, tables=tables,
                selections=list(ELEVATOR_SELECTIONS), plan=plan,
            )
            result = run_campaign(campaign)
            return dump_json(result.report_json())

        assert run_once() == run_once()
    report(10, t, "two consecutive elevator campaigns produce byte-identical reports")
