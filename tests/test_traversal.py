"""The one traversal of syntax trees: `walk`, `free_vars` and `subst`
read a node's children from its own fields, and agree with the reference
walkers in `oracle`, which spell out the child fields of each class, on
random trees of every node class, existentials whose bound names shadow
the substitution included, and on every node of the fixtures' cases and
campaign catalogs."""

import pytest
from hypothesis import given, strategies as st

import devs_scc.syntax as syntax
import oracle
from devs_scc.syntax import (
    FALSE,
    TRUE,
    And,
    Apply,
    BinOp,
    Cmp,
    Const,
    ConstRef,
    Exists,
    Implies,
    InBase,
    InSet,
    MinOp,
    Neg,
    Not,
    Or,
    Proj,
    Ref,
    TupleExpr,
    children,
    free_vars,
    map_children,
    normalize,
    subst,
    walk,
)
from devs_scc.values import NAT, TIME, num
from tests.conftest import ELEVATOR_SELECTIONS, FIXTURES, SODA_SELECTIONS

EXPR_CLASSES = (Const, Ref, ConstRef, BinOp, Neg, MinOp, TupleExpr, Proj, Apply)

_names = st.sampled_from(["a", "b", "x", "y"])
_exprs = st.recursive(
    st.one_of(
        st.builds(Ref, _names),
        st.builds(ConstRef, st.sampled_from(["a", "K"])),  # never substituted
        st.builds(lambda k: Const(num(k)), st.integers(0, 3)),
    ),
    lambda inner: st.one_of(
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "div"]), inner, inner),
        st.builds(Neg, inner),
        st.builds(lambda xs: MinOp(tuple(xs)), st.lists(inner, min_size=1, max_size=3)),
        st.builds(lambda xs: TupleExpr(tuple(xs)), st.lists(inner, min_size=2, max_size=3)),
        st.builds(Proj, inner, st.integers(1, 2)),
        st.builds(lambda op, xs: Apply(op, tuple(xs)), st.sampled_from(["f", "g"]),
                  st.lists(inner, max_size=2)),
    ),
    max_leaves=6,
)
_atoms = st.one_of(
    st.sampled_from([TRUE, FALSE]),
    st.builds(Cmp, st.sampled_from(["=", "<", ">="]), _exprs, _exprs),
    st.builds(lambda e, lits: InSet(e, tuple(lits)), _exprs,
              st.lists(st.sampled_from(["A", "B"]), min_size=1, max_size=2)),
    st.builds(InBase, _exprs),
)
# bound names that are also free names elsewhere and keys of the environment
_bound = st.lists(st.sampled_from([("a", NAT), ("y", NAT), ("z", TIME)]),
                  min_size=1, max_size=2, unique_by=lambda b: b[0])
_preds = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.builds(lambda xs: And(tuple(xs)), st.lists(inner, min_size=2, max_size=3)),
        st.builds(lambda xs: Or(tuple(xs)), st.lists(inner, min_size=2, max_size=3)),
        st.builds(Not, inner),
        st.builds(Implies, inner, inner),
        st.builds(lambda bound, body: Exists(tuple(bound), body), _bound, inner),
    ),
    max_leaves=6,
)
_envs = st.dictionaries(_names, _exprs, max_size=3)


@given(_exprs)
def test_walk_of_an_expression_is_the_reference_walk(e):
    assert list(walk(e)) == list(oracle.expr_nodes(e))


@given(_preds)
def test_walk_of_a_predicate_is_the_reference_walks(p):
    nodes = list(walk(p))
    assert [n for n in nodes if not isinstance(n, EXPR_CLASSES)] == list(oracle.iter_subpreds(p))
    assert [n for n in nodes if isinstance(n, EXPR_CLASSES)] == list(oracle.pred_exprs(p))


@given(_exprs, _preds, _bound)
def test_free_vars_are_the_reference_free_variables(e, p, bound):
    assert free_vars(e) == oracle.expr_vars(e)
    assert free_vars(p) == oracle.pred_vars(p)
    assert free_vars(Exists(tuple(bound), p)) == oracle.pred_vars(Exists(tuple(bound), p))


@given(_exprs, _preds, _envs, _bound)
def test_subst_is_the_reference_substitution(e, p, env, bound):
    assert subst(e, env) is oracle.subst_expr(e, env)
    assert subst(p, env) is oracle.subst_pred(p, env)
    shadowing = Exists(tuple(bound), p)
    assert subst(shadowing, env) is oracle.subst_pred(shadowing, env)


@given(_exprs, _preds, _envs)
def test_subst_gives_the_node_itself_when_no_name_of_env_is_free_in_it(e, p, env):
    """... and interns no node on the way."""
    made = []
    real = syntax._intern
    syntax._intern = lambda cls, fields: made.append(cls) or real(cls, fields)
    try:
        for node, free in ((e, oracle.expr_vars(e)), (p, oracle.pred_vars(p))):
            unused = {k: v for k, v in env.items() if k not in free}
            assert subst(node, unused) is node
    finally:
        syntax._intern = real
    assert made == []


def _fixture_nodes(fixture, request):
    """Every guard, result and time advance of a fixture model, and every
    predicate of its campaign's catalog, the combinations included."""
    from devs_scc.algebra import CombinationPlan
    from devs_scc.campaign import Campaign, load_plan, run_campaign
    from devs_scc.partitions import builtin_tables

    model = request.getfixturevalue(fixture)
    bounds = request.getfixturevalue(f"{fixture}_bounds")
    if fixture == "elevator":
        tables, selections = request.getfixturevalue("elevator_tables"), ELEVATOR_SELECTIONS
        plan = load_plan(str(FIXTURES / "elevator.plan.json"))
    else:
        tables, plan = builtin_tables(), CombinationPlan(all_pairs=True)
        selections = {"soda": SODA_SELECTIONS,
                      "toggle": ["cases", "extensional input", "extensional state:m"]}[fixture]
    result = run_campaign(Campaign(model, bounds, tables, list(selections), plan=plan),
                          stop_after="combine")
    cases = [c for fn in ("dext", "dint", "lambda") for c in model.cases(fn)]
    cases += [c for op in model.operators for c in op.cases]
    roots = [model.ta] + [c.guard for c in cases] + [c.result for c in cases]
    for scc in result.catalog:
        roots += [scc.init_states, scc.input_pairs] + ([scc.joint] if scc.joint else [])
    return [n for root in roots for n in walk(root)]


@pytest.mark.parametrize("fixture", ["soda", "toggle", "elevator"])
def test_the_free_vars_a_node_keeps_are_the_reference_free_variables(fixture, request):
    nodes = _fixture_nodes(fixture, request)
    # the elevator's cases projections keep existentials
    assert any(isinstance(n, Exists) for n in nodes) == (fixture == "elevator")
    for node in nodes:
        want = oracle.expr_vars(node) if isinstance(node, EXPR_CLASSES) else oracle.pred_vars(node)
        got = free_vars(node)
        assert isinstance(got, frozenset) and got == want, node
        assert free_vars(node) is got  # kept on the node


def test_a_caller_growing_the_free_vars_leaves_the_kept_ones_alone():
    pred = Cmp("<", Ref("a"), BinOp("+", Ref("b"), Ref("e")))
    suspects = free_vars(pred)
    suspects |= {"c"}
    suspects -= {"e"}
    assert suspects == {"a", "b", "c"}
    assert free_vars(pred) == {"a", "b", "e"}


def test_the_time_variable_hint_reads_the_free_vars():
    """A variable compared with the elapsed time, or read by the time
    advance, without @time is named in one note, as before the free
    variables were kept."""
    from devs_scc.parser import parse_model_text

    model, report = parse_model_text("""
    model hint {
      state { c: time; n: nat; w: nat; k: time @time; }
      input enum {go};
      output enum {ping};
      ta = c + k;
      dext(s, e, x) { case x = go /\\ e < n -> (c, n, w + 1, k); }
      dint(s) { otherwise -> (c, n, w, k); }
      lambda(s) { otherwise -> ping; }
    }
    """)
    assert report.usable, report.errors
    assert [n for n in report.notes if "@time" in n] == [
        "variables that appear time-interacting but lack @time: c, n"]


def test_an_existential_shadows_its_bound_names():
    a, b = Ref("a"), Ref("b")
    body = Cmp("<", a, b)
    pred = And((Cmp("=", a, b), Exists((("a", NAT),), body)))
    assert free_vars(pred) == {"a", "b"}
    assert free_vars(pred.items[1]) == {"b"}
    one = Const(num(1))
    assert subst(pred, {"a": one, "b": b}) is And((Cmp("=", one, b), Exists((("a", NAT),), body)))
    # the existential keeps its body, so it is the same object
    assert subst(pred, {"a": one}).items[1] is pred.items[1]


def test_children_are_the_nodes_in_a_nodes_fields():
    x, y = Ref("x"), Ref("y")
    assert list(children(Apply("f", (x, y)))) == [x, y]
    assert list(children(Apply("f", ()))) == []
    assert list(children(Proj(TupleExpr((x, y)), 2))) == [TupleExpr((x, y))]
    assert list(children(InSet(x, ("A", "B")))) == [x]
    cmp = Cmp("<", x, y)
    assert list(children(Exists((("x", NAT),), cmp))) == [cmp]
    assert list(children(Const(num(2)))) == [] and list(children(TRUE)) == []


def test_map_children_keeps_the_fields_that_hold_no_node():
    x, y = Ref("x"), Ref("y")
    swap = {x: y, y: x}.get
    assert map_children(BinOp("div", x, y), swap) is BinOp("div", y, x)
    assert map_children(Proj(TupleExpr((x, y)), 2), lambda n: n) is Proj(TupleExpr((x, y)), 2)
    assert map_children(InSet(x, ("A",)), swap) is InSet(y, ("A",))
    assert map_children(Exists((("x", NAT),), Cmp("<", x, y)), lambda n: TRUE) \
        is Exists((("x", NAT),), TRUE)


@given(_preds)
def test_normalize_rebuilds_implications_and_existentials_through_their_children(p):
    for node in walk(p):
        if isinstance(node, (Implies, Exists)):
            assert normalize(node) is map_children(node, normalize)
