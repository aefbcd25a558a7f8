"""The bounded model checks of `validate_model`: case-table coverage and
disjointness, and the sign of the time advance, decided by the search."""

import itertools

import pytest
from hypothesis import given, strategies as st

from devs_scc import check, sat
from devs_scc.bounds import Bounds
from devs_scc.check import validate_model
from devs_scc.cli import main
from devs_scc.context import Context
from devs_scc.model import FUNCTIONS, Model
from devs_scc.parser import parse_bounds_file, parse_bounds_text, parse_model_file, parse_model_text
from devs_scc.partitions import builtin_tables, check_partition
from devs_scc.sat import coverage, prepare, satisfiable
from devs_scc.syntax import And, BinOp, Cmp, Const, Not, Or, Ref, conj
from devs_scc.values import Lit, num
from tests.conftest import FIXTURES


@pytest.mark.parametrize("name", ["soda", "toggle", "elevator"])
def test_parse_with_bounds_prints_the_least_witness_of_each_check(name, capsys):
    code = main(["parse", str(FIXTURES / f"{name}.devs"),
                 "--bounds", str(FIXTURES / f"{name}.bounds")])
    out, err = capsys.readouterr()
    assert code == 0
    assert err + out == (FIXTURES / "expected" / f"{name}-parse-bounds.txt").read_text()
    assert "undecided" not in err
    # elevator dext case 18 is `otherwise`, which overlaps no guarded case
    assert "dext cases" not in err


def _undecided_form(warning):
    """The warning a check gives in place of `warning` when it runs out
    of budget after one attempt."""
    if " is not exhaustive " in warning:
        return warning.split(" is not exhaustive ")[0] + ": exhaustiveness undecided within 1 attempts"
    return warning.split(" overlap ")[0] + ": overlap undecided within 1 attempts"


@pytest.mark.parametrize("name", ["soda", "elevator"])
def test_a_check_out_of_budget_says_undecided(name):
    model, _ = parse_model_file(str(FIXTURES / f"{name}.devs"))
    text = (FIXTURES / f"{name}.bounds").read_text()
    assert "max attempts = 200000;" in text
    _, full = validate_model(model, parse_bounds_text(text))
    _, starved = validate_model(
        model, parse_bounds_text(text.replace("max attempts = 200000;", "max attempts = 1;"))
    )
    # no witness fits in one attempt, so every check that found one
    # before is undecided now, and nothing passes for want of budget
    assert full.warnings
    assert all(w.endswith(" undecided within 1 attempts") for w in starved.warnings)
    assert {_undecided_form(w) for w in full.warnings} <= set(starved.warnings)
    assert "ta: non-negativity undecided within 1 attempts" in starved.warnings


COUNTER = """
model counter {
  state {
    c: nat;
  }
  input enum {tick};
  output enum {ping};
  ta = %s;
  dext(s, e, x) {
    otherwise -> c + 1;
  }
  dint(s) {
    otherwise -> c;
  }
  lambda(s) {
    otherwise -> ping;
  }
}
"""


@pytest.mark.parametrize("ta, warnings", [
    ("c - 1", ["ta is negative within bounds, e.g. c=0"]),
    ("min(c + 1, 3 - c)", ["ta is negative within bounds, e.g. c=4"]),
    ("min(c, 2 - c, 1 - c)", ["ta is negative within bounds, e.g. c=2"]),
    ("min(c, 5 - c)", []),
    ("infinity", []),
])
def test_a_negative_time_advance_is_found_at_its_least_state(ta, warnings):
    model, report = parse_model_text(COUNTER % ta)
    assert report.usable, report.errors
    _, checked = validate_model(model, parse_bounds_text("bounds { nat default = 0..5; }"))
    assert checked.warnings == warnings


PINNED = """
model pinned {
  state {
    m: enum {A, B, C};
  }
  input enum {go};
  output enum {ping};
  ta = infinity;
  dext(s, e, x) {
    otherwise -> m;
  }
  dint(s) {
    case m = A -> B;
    case m = B -> C;
  }
  lambda(s) {
    otherwise -> ping;
  }
}
"""


def test_a_pair_the_masks_prove_disjoint_is_never_undecided(tmp_path, capsys):
    model = tmp_path / "pinned.devs"
    model.write_text(PINNED)
    bounds = tmp_path / "pinned.bounds"
    bounds.write_text("bounds {\n  max attempts = 0;\n}\n")
    assert main(["parse", str(model), "--bounds", str(bounds)]) == 0
    _, err = capsys.readouterr()
    # both guards pin m, to different literals: disjoint without a search,
    # so no budget is spent and no overlap line is printed; the gap
    # search still runs out of budget
    assert "overlap" not in err
    assert "warning: dint: exhaustiveness undecided within 0 attempts" in err.splitlines()


def _plain_coverage(preds, total, space, bounds, model=None):
    """The checks of `sat.coverage` as one plain search per pair."""
    ctx = Context(model, bounds)
    gap = None if total else satisfiable(conj([Not(p) for p in preds]), space, ctx)
    forms = [prepare(p, ctx) for p in preds]
    return gap, [((i, j), satisfiable(forms[i] & forms[j], space, ctx))
                 for i, j in itertools.combinations(range(len(forms)), 2)]


def _assert_same_checks(preds, total, space, bounds, model=None):
    """`sat.coverage` agrees with the plain searches; returns how many
    pairs it searched."""
    calls = []
    real = sat.satisfiable

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    gap, overlaps = coverage(preds, total, space, Context(model, bounds))
    plain_gap, plain = _plain_coverage(preds, total, space, bounds, model)
    assert gap == plain_gap
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sat, "satisfiable", counted)
        got = list(overlaps)
    assert [pair for pair, _ in got] == [pair for pair, _ in plain]
    for (pair, found), (_, expected) in zip(got, plain):
        if found != expected:
            # pruned by the masks: disjoint with no search, where the
            # search proves it or runs out of budget
            assert found == sat.SatResult("unsat"), pair
            assert expected.status in ("unsat", "unknown"), pair
    return len(calls)


@pytest.mark.parametrize("name", ["elevator", "soda", "toggle"])
def test_coverage_matches_one_plain_search_per_pair_on_the_fixtures(name):
    model, _ = parse_model_file(str(FIXTURES / f"{name}.devs"))
    bounds = parse_bounds_file(str(FIXTURES / f"{name}.bounds"))
    searched, ctx = 0, Context(model, bounds)
    for fn in FUNCTIONS:
        cases = model.cases(fn)
        guarded = [c for c in cases if not c.is_otherwise]
        searched += _assert_same_checks([c.guard for c in guarded], len(guarded) < len(cases),
                                        check._search_space(ctx, fn), bounds, model)
    if name == "elevator":
        # of 589 pairs, 525 share no admitted value of some variable
        assert searched == 64


@pytest.mark.parametrize("name", sorted(builtin_tables()))
def test_coverage_matches_one_plain_search_per_pair_on_the_builtin_tables(name):
    table = builtin_tables()[name]
    grid = [num(k) for k in range(-2, 3)]
    space = [(f, grid) for f in table.formals]
    _assert_same_checks(table.cells, False, space, Bounds())
    gap, plain = _plain_coverage(table.cells, False, space, Bounds())
    assert check_partition(table) == (all(r.status == "unsat" for _, r in plain),
                                      gap.status == "unsat")


ENUM = [Lit("A"), Lit("B"), Lit("C")]
NATS = [num(k) for k in range(4)]


@st.composite
def _tables(draw):
    """A case table of 2-5 guards over 2-3 enum or nat variables, each
    guard a conjunction of pinned literals, `!=`, `<`, a division and
    disjuncts over two variables."""
    names = ["u", "v", "w"][:draw(st.integers(2, 3))]
    grids = {n: draw(st.sampled_from([ENUM, NATS])) for n in names}

    def atom(name):
        op = draw(st.sampled_from(["=", "!=", "<", "div"] if grids[name] is NATS else ["=", "!="]))
        value = Const(draw(st.sampled_from(grids[name])))
        if op == "div":
            # fails to evaluate at 0, so it admits nothing there
            return Cmp("=", BinOp("div", Const(num(2)), Ref(name)), value)
        return Cmp(op, Ref(name), value)

    def guard():
        parts = []
        for _ in range(draw(st.integers(1, 3))):
            if draw(st.booleans()):
                parts.append(atom(draw(st.sampled_from(names))))
            else:
                a, b = draw(st.permutations(names))[:2]
                parts.append(Or((atom(a), atom(b))))
        return And(tuple(parts))

    preds = [guard() for _ in range(draw(st.integers(2, 5)))]
    return preds, [(n, grids[n]) for n in names], draw(st.sampled_from([2, 10, 200_000]))


@given(_tables())
def test_coverage_matches_one_plain_search_per_pair_on_generated_tables(table):
    preds, space, limit = table
    _assert_same_checks(preds, False, space, Bounds(max_attempts=limit))


def test_validating_a_parsed_model_binds_nothing_again(monkeypatch):
    model, _ = parse_model_file(str(FIXTURES / "elevator.devs"))
    bounds = parse_bounds_file(str(FIXTURES / "elevator.bounds"))
    # a copy keeps nothing, so it is bound again from scratch
    fresh_model, fresh = validate_model(Model(*(getattr(model, f) for f in Model._fields)), bounds)
    binds = []
    real = check._bind_cases
    monkeypatch.setattr(check, "_bind_cases", lambda *args: binds.append(args) or real(*args))
    bound, report = validate_model(model, bounds)
    assert binds == []
    assert bound == fresh_model
    assert (report.errors, report.warnings, report.notes) == (fresh.errors, fresh.warnings,
                                                              fresh.notes)
    assert report.warnings
    report.warnings.clear()
    report.notes.append("changed")
    report.errors.append("changed")
    _, again = validate_model(model, bounds)
    assert again == fresh
    assert binds == []


_SELF_CALLING_GUARD = """  op f(n: nat): nat {
    case f(n) = 0 -> 1;
    otherwise -> 0;
  }
"""
_GUARD_CALLS_A_RECURSIVE_RESULT = """  op f(n: nat): nat {
    case g(n) = 0 -> 1;
    otherwise -> 0;
  }
  op g(n: nat): nat {
    case n = 0 -> 0;
    otherwise -> f(n);
  }
"""


@pytest.mark.parametrize("ops, cycle", [
    (_SELF_CALLING_GUARD, "f -> f"),
    (_GUARD_CALLS_A_RECURSIVE_RESULT, "f -> g -> f"),
])
def test_an_operator_that_recurs_through_a_guard_is_rejected(ops, cycle, tmp_path, capsys):
    text = (FIXTURES / "toggle.devs").read_text()
    text = text.replace("  ta = infinity;", ops + "  ta = infinity;")
    text = text.replace("case x = go /\\ m = A -> B;", "case x = go /\\ m = A /\\ f(1) = 0 -> B;")
    _, report = parse_model_text(text)
    assert report.errors == [f"recursive operator definitions: {cycle}"]
    model = tmp_path / "recursive.devs"
    model.write_text(text)
    config = tmp_path / "config.json"
    config.write_text('{"state": {"m": "A"}, "input": {"event": "go", "time": "0"}}')
    assert main(["parse", str(model), "--bounds", str(FIXTURES / "toggle.bounds")]) == 2
    assert capsys.readouterr().err == f"error: recursive operator definitions: {cycle}\n"
    assert main(["simulate", "--model", str(model), "--bounds", str(FIXTURES / "toggle.bounds"),
                 "--config", str(config)]) == 2
    assert capsys.readouterr() == (
        "", f"error: model rejected: recursive operator definitions: {cycle}\n")


_GO_A = "case x = go /\\ m = A -> B;"
_TA = "  ta = infinity;"
_OP_F = "  op f(n: nat): nat {\n    otherwise -> n;\n  }\n"
_ONE_ERROR = "rejected: 2/0/1 cases (dext/dint/lambda), 1 errors, 0 warnings"


@pytest.mark.parametrize("old, new, errors, summary", [
    ("otherwise -> ping;", "otherwise -> ping;\n    otherwise -> ping;",
     ["otherwise case of lambda must come last", "more than one otherwise case in lambda"],
     "rejected: 2/0/2 cases (dext/dint/lambda), 2 errors, 0 warnings"),
    (_GO_A, "otherwise -> m;\n    " + _GO_A, ["otherwise case of dext must come last"],
     "rejected: 3/0/1 cases (dext/dint/lambda), 1 errors, 0 warnings"),
    (_TA, _OP_F + _OP_F + _TA, ["duplicate operator f"], _ONE_ERROR),
    # an operator's cases follow the rules of a function's
    (_TA, "  op f(n: nat): nat {\n    otherwise -> 1;\n    case n = 0 -> 2;\n  }\n" + _TA,
     ["otherwise case of operator f must come last"], _ONE_ERROR),
    (_TA, _OP_F.replace("otherwise -> n;", "otherwise -> n;\n    otherwise -> 0;") + _TA,
     ["otherwise case of operator f must come last", "more than one otherwise case in operator f"],
     "rejected: 2/0/1 cases (dext/dint/lambda), 2 errors, 0 warnings"),
    (_GO_A, "case x = go /\\ f(1) = 0 -> B;", ["unknown operator f (in dext case 1)"], _ONE_ERROR),
    (_TA, _OP_F + "  ta = f(1, 2);", ["operator f expects 1 arguments, got 2 (in ta)"], _ONE_ERROR),
    (_GO_A, "case x = go /\\ -m = 0 -> B;", ["cannot negate non-numeric value (in dext case 1)"],
     _ONE_ERROR),
    (_GO_A, "case x = go /\\ m.1 = A -> B;", ["projection from non-tuple m (in dext case 1)"],
     _ONE_ERROR),
    (_GO_A, "case x = go /\\ m < A -> B;",
     ["cannot order enum {A, B} against enum {A, B} in m < A (in dext case 1)"], _ONE_ERROR),
    (_GO_A, "case x = go /\\ m = 1 -> B;",
     ["cannot compare enum {A, B} with nat in m = 1 (in dext case 1)"], _ONE_ERROR),
    (_GO_A, "case x = go /\\ m in nat -> B;",
     ["`in nat` needs an extended sort, got enum {A, B} (in dext case 1)"], _ONE_ERROR),
    (_GO_A, "case x = go /\\ m + 1 = 0 -> B;",
     ["left operand of + is not numeric (in dext case 1)"], _ONE_ERROR),
    (_GO_A, "case x = go /\\ min(m, 1) = 0 -> B;",
     ["min over non-numeric argument (in dext case 1)"], _ONE_ERROR),
    # -n binds, as an int; the operator's result sort rejects it
    (_TA, "  op f(n: nat): enum {A, B} {\n    otherwise -> -n;\n  }\n" + _TA,
     ["-n has sort int, expected enum {A, B} (in operator f)"], _ONE_ERROR),
    # an unknown name is named, with where it is
    (_TA, "  ta = q + 1;", ["unbound variable q (in ta)"], _ONE_ERROR),
    (_GO_A, "case x = go /\\ q = A -> B;",
     ["unbound variables q and A in q = A (in dext case 1)"], _ONE_ERROR),
    (_GO_A, "case x = go /\\ q in {A} -> B;", ["unbound variable q (in dext case 1)"], _ONE_ERROR),
    (_TA, "  ta = min(q, 1);", ["unbound variable q (in ta)"], _ONE_ERROR),
    (_GO_A, "case x = go /\\ q.1 = A -> B;", ["unbound variable q (in dext case 1)"], _ONE_ERROR),
    (_GO_A, "case x = go /\\ tau + 1 = 0 -> B;", ["literal tau has no sort here (in dext case 1)"],
     _ONE_ERROR),
])
def test_a_toggle_variant_is_rejected_with_its_diagnostics(old, new, errors, summary, tmp_path,
                                                             capsys):
    text = (FIXTURES / "toggle.devs").read_text()
    assert old in text
    path = tmp_path / "variant.devs"
    path.write_text(text.replace(old, new, 1))
    assert main(["parse", str(path)]) == 2
    assert capsys.readouterr() == (f"toggle: {summary}\n",
                                   "".join(f"error: {e}\n" for e in errors))


@pytest.mark.parametrize("guard", ["p = (A, 1)", "(A, 1) = p"])
def test_a_tuple_that_holds_a_literal_binds_against_the_other_side(guard, tmp_path, capsys):
    text = (FIXTURES / "toggle.devs").read_text()
    text = text.replace("    m: enum {A, B};", "    m: enum {A, B};\n    p: (enum {A, B}, nat);")
    text = text.replace("-> B;", f"/\\ {guard} -> (B, p);").replace("-> A;", "-> (A, p);")
    path = tmp_path / "variant.devs"
    path.write_text(text)
    assert main(["parse", str(path)]) == 0
    assert capsys.readouterr() == (
        "toggle: usable: 2/0/1 cases (dext/dint/lambda), 0 errors, 0 warnings\n", "")
    # a copy of the bound model, whose tuple holds the literal itself, binds again
    model, _ = parse_model_file(str(path))
    bound, report = validate_model(Model(*(getattr(model, f) for f in Model._fields)))
    assert (report.errors, bound) == ([], model)
