"""Hash-consed syntax nodes: structurally equal nodes are one object,
however they were built; copies and pickles give that object back; the
intern table keeps no node alive; a node's text and normal form are
worked out once; and the cached text is the text of the renderer that
walks the whole tree (`oracle.ref_render_pred`)."""

import copy
import gc
import pickle
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import devs_scc.syntax as syntax
from devs_scc.algebra import CombinationPlan
from devs_scc.campaign import Campaign, load_plan, load_tables, run_campaign
from devs_scc.parser import parse_bounds_file, parse_model_file, parse_model_text, parse_pred_text
from devs_scc.partitions import builtin_tables, instantiate
from devs_scc.syntax import (
    FALSE,
    TRUE,
    And,
    Apply,
    BinOp,
    BoolConst,
    Cmp,
    Const,
    ConstRef,
    Exists,
    Implies,
    InBase,
    InSet,
    MinOp,
    Neg,
    Node,
    Not,
    Or,
    Proj,
    Ref,
    TupleExpr,
    normalize,
    render_expr,
    render_pred,
    subst,
    walk,
)
from devs_scc.values import NAT, TIME, EnumSort, ExtSort, Lit, Num, Tup

from oracle import ref_render_expr, ref_render_pred
from tests.conftest import ELEVATOR_SELECTIONS, FIXTURES, SODA_SELECTIONS

EXPR_CLASSES = (Const, Ref, ConstRef, BinOp, Neg, MinOp, TupleExpr, Proj, Apply)
X, Y = Ref("x"), Ref("y")
ONE = Const(Num(1))

NODES = [
    ONE, Const(Num(Fraction(1, 3))), Const(Tup((Num(1), Lit("idle")))),
    X, ConstRef("TD1"), BinOp("div", X, ONE), Neg(BinOp("-", X, Y)), MinOp((X, Y)),
    TupleExpr((X, Y)), Proj(TupleExpr((X, Y)), 2), Apply("f", (X, ONE)),
    TRUE, FALSE, Cmp("<", X, ONE), InSet(X, ("idle", "busy")), InBase(X),
    And((Cmp("<", X, ONE), InBase(Y))), Or((TRUE, Cmp(">=", Y, X))), Not(InBase(X)),
    Implies(Cmp("=", X, Y), FALSE),
    Exists((("y", ExtSort(NAT, "none")), ("e", TIME)), Cmp("<", X, Y)),
]


def _fresh(name):
    model, report = parse_model_file(str(FIXTURES / f"{name}.devs"))
    assert report.usable, report.errors
    return model, parse_bounds_file(str(FIXTURES / f"{name}.bounds"))


def _campaign(name):
    """The model and the catalog, up to combination, of the worked
    campaign of one fixture, on a model parsed for this test alone."""
    model, bounds = _fresh(name)
    if name == "elevator":
        tables, _ = load_tables([str(FIXTURES / "elevator.parts")])
        selections, plan = ELEVATOR_SELECTIONS, load_plan(str(FIXTURES / "elevator.plan.json"))
    elif name == "soda":
        tables, selections, plan = builtin_tables(), SODA_SELECTIONS, None
    else:
        tables, plan = builtin_tables(), CombinationPlan(all_pairs=True)
        selections = ["cases", "extensional input", "extensional state:m"]
    result = run_campaign(Campaign(model, bounds, tables, list(selections), plan=plan),
                          stop_after="combine")
    return model, result.catalog


def _guards(model):
    return [case.guard for fn in (model.delta_ext, model.delta_int, model.output_fn)
            for case in fn] + [case.guard for op in model.operators for case in op.cases]


# ---------------------------------------------------------------------------
# one object per structure


def test_every_syntax_class_is_interned():
    assert {type(n) for n in NODES} == set(Node.__subclasses__())


def test_equal_nodes_built_apart_are_one_object():
    assert Cmp("<", Ref("x"), Const(Num(1))) is Cmp(op="<", left=X, right=ONE)
    assert Ref("x") is not ConstRef("x")
    # the parser
    assert parse_pred_text("x < 1 /\\ y in nat") is And((Cmp("<", X, ONE), InBase(Y)))
    first, _ = _fresh("elevator")
    again, _ = _fresh("elevator")
    assert first is not again
    pairs = list(zip(_guards(first), _guards(again)))
    assert len(pairs) > 30 and all(a is b for a, b in pairs)
    assert first.ta is again.ta
    # substitution
    cell = Cmp("<", Ref("a"), BinOp("+", Ref("b"), ONE))
    assert subst(cell, {"a": X, "b": Y}) is Cmp("<", X, BinOp("+", Y, ONE))
    assert subst(cell, {}) is cell
    # partition cells
    table = builtin_tables()["<"]
    cells = instantiate(table, [X, Neg(Y)])
    assert len(cells) > 1
    assert all(a is b for a, b in zip(cells, instantiate(table, [Ref("x"), Neg(Ref("y"))])))
    assert cells == [subst(c, {"a": X, "b": Neg(Y)}) for c in table.cells]


@pytest.mark.parametrize("node", NODES, ids=[type(n).__name__ for n in NODES])
def test_copies_and_pickles_are_the_interned_node(node):
    assert copy.copy(node) is node
    assert copy.deepcopy(node) is node
    assert copy.deepcopy([node, (node,)])[1][0] is node
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(node, protocol)) is node
    assert hash(node) == hash(tuple(getattr(node, f) for f in node.__slots__))


# ---------------------------------------------------------------------------
# a weak table


def test_the_table_keeps_no_node_alive():
    node = Cmp("<", Ref("only_in_this_test"), Const(Num(7)))
    alive = weakref.ref(node)
    size = len(syntax._TABLE)
    del node
    assert alive() is None
    assert len(syntax._TABLE) == size - 3  # the Cmp, its Ref and its Const


TOY = """
model hashcons_toy {
  state { hc_level: nat; hc_mode: enum {HC_ON, HC_OFF}; }
  input enum {hc_go};
  output enum {hc_ping};
  ta = infinity;
  dext(s, e, x) {
    case x = hc_go /\\ hc_mode = HC_ON /\\ hc_level < 3 -> (hc_level + 1, HC_ON);
    case x = hc_go /\\ hc_mode = HC_ON /\\ hc_level >= 3 -> (0, HC_OFF);
    case x = hc_go /\\ hc_mode = HC_OFF -> (hc_level, HC_ON);
  }
  dint(s) { }
  lambda(s) { otherwise -> hc_ping; }
}
"""


def test_dropping_a_parsed_model_empties_the_table_again():
    gc.collect()
    gc.disable()
    try:
        before = set(syntax._TABLE)
        model, report = parse_model_text(TOY)
        assert report.usable, report.errors
        texts = [render_pred(normalize(g)) for g in _guards(model)]
        assert "hc_level < 3 /\\ hc_mode = HC_ON /\\ x = hc_go" in texts
        made = len(syntax._TABLE) - len(before)
        assert made > 10
        del model, report
        assert set(syntax._TABLE) == before
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# text and normal form worked out once


def test_normalize_of_a_normal_form_is_that_form():
    model, catalog = _campaign("elevator")
    preds = _guards(model) + [p for scc in catalog
                              for p in (scc.init_states, scc.input_pairs, scc.joint) if p]
    assert len(preds) > 250
    for p in preds:
        n = normalize(p)
        assert normalize(n) is n and normalize(p) is n
        # the normalizer, run afresh on the normal form, gives it back
        assert syntax._normalize(n) is n


def test_a_campaign_normalizes_and_renders_each_predicate_once(monkeypatch):
    normalized, rendered = Counter(), Counter()
    normalize_, render_ = syntax._normalize, syntax._render

    def counting_normalize(p):
        normalized[repr(p)] += 1
        return normalize_(p)

    def counting_render(n):
        rendered[repr(n)] += 1
        return render_(n)

    monkeypatch.setattr(syntax, "_normalize", counting_normalize)
    monkeypatch.setattr(syntax, "_render", counting_render)
    _, catalog = _campaign("elevator")
    assert len(catalog) == 92
    # nodes alive before the campaign (the fixtures' models) are not
    # counted again, so the counts depend on the tests run before this one
    assert len(normalized) > 20 and max(normalized.values()) == 1
    assert len(rendered) > 20 and max(rendered.values()) == 1


# ---------------------------------------------------------------------------
# the cached text is the reference renderer's


@pytest.mark.parametrize("name", ["soda", "toggle", "elevator"])
def test_cached_text_equals_the_reference_renderer(name):
    model, catalog = _campaign(name)
    preds = _guards(model) + [p for scc in catalog
                              for p in (scc.init_states, scc.input_pairs, scc.joint) if p]
    exprs = [model.ta] + [case.result for fn in (model.delta_ext, model.delta_int, model.output_fn)
                          for case in fn]
    checked = set()
    for root in preds + exprs:
        for node in walk(root):
            reference = ref_render_expr if isinstance(node, EXPR_CLASSES) else ref_render_pred
            assert render_expr(node) == reference(node)
            checked.add(node)
    assert len(checked) >= 15
    assert {isinstance(node, EXPR_CLASSES) for node in checked} == {True, False}


A, B, C = (Cmp("<", X, Const(Num(k))) for k in range(3))
PRODUCT = BinOp("*", X, Y)
NESTED = [
    Neg(PRODUCT), Neg(BinOp("+", X, Y)), Neg(Neg(X)), Proj(Neg(X), 1), Proj(PRODUCT, 2),
    BinOp("-", X, BinOp("-", Y, ONE)), BinOp("-", BinOp("-", X, Y), ONE),
    BinOp("*", BinOp("+", X, Y), BinOp("div", X, Y)), BinOp("div", X, PRODUCT),
    MinOp((BinOp("+", X, Y), Neg(X))), Apply("f", (PRODUCT, TupleExpr((X, Neg(Y))))),
    Cmp("<=", BinOp("+", X, Y), PRODUCT), InSet(Proj(TupleExpr((X, Y)), 1), ("A",)),
    And((A, Or((B, C)))), Or((A, And((B, C)))), And((A, And((B, C)))), Or((A, Or((B, C)))),
    And((A, Implies(B, C))), Or((Implies(A, B), C)), Implies(Implies(A, B), C),
    Implies(A, Implies(B, C)), Implies(Or((A, B)), And((B, C))), Not(And((A, B))),
    Exists((("y", NAT),), Or((A, Implies(B, C)))), And((Exists((("y", NAT),), A), B)),
]


def _reference(node):
    if isinstance(node, (BoolConst, Cmp, InSet, InBase, And, Or, Not, Implies, Exists)):
        return ref_render_pred(node)
    return ref_render_expr(node)


@pytest.mark.parametrize("node", NESTED, ids=_reference)
def test_cached_text_equals_the_reference_renderer_on_nested_nodes(node):
    assert render_expr(node) == _reference(node)


_names = st.sampled_from(["a", "b"])
_exprs = st.recursive(
    st.one_of(st.builds(Ref, _names), st.builds(ConstRef, _names),
              st.builds(lambda n: Const(Num(n)), st.integers(-2, 2)), st.just(Const(Lit("A")))),
    lambda inner: st.one_of(
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "div"]), inner, inner),
        st.builds(Neg, inner),
        st.builds(Proj, inner, st.integers(1, 2)),
        st.builds(lambda xs: MinOp(tuple(xs)), st.lists(inner, min_size=2, max_size=3)),
        st.builds(lambda xs: TupleExpr(tuple(xs)), st.lists(inner, min_size=2, max_size=3)),
        st.builds(lambda xs: Apply("f", tuple(xs)), st.lists(inner, max_size=2)),
    ),
    max_leaves=6,
)
_preds = st.recursive(
    st.one_of(
        st.builds(Cmp, st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), _exprs, _exprs),
        st.builds(lambda e: InSet(e, ("A", "B")), _exprs),
        st.builds(InBase, _exprs),
        st.builds(BoolConst, st.booleans()),
    ),
    lambda inner: st.one_of(
        st.builds(lambda xs: And(tuple(xs)), st.lists(inner, min_size=2, max_size=3)),
        st.builds(lambda xs: Or(tuple(xs)), st.lists(inner, min_size=2, max_size=3)),
        st.builds(Not, inner),
        st.builds(Implies, inner, inner),
        st.builds(lambda body: Exists((("b", EnumSort(("A", "B"))),), body), inner),
    ),
    max_leaves=8,
)


@given(_preds)
def test_cached_text_equals_the_reference_renderer_on_generated_predicates(pred):
    assert render_pred(pred) == ref_render_pred(pred)
    assert render_pred(pred) == ref_render_pred(pred)  # again, from the cache
    n = normalize(pred)
    assert render_pred(n) == ref_render_pred(n)
    assert normalize(n) is n and syntax._normalize(n) is n
