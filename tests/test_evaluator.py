import itertools
import re
from fractions import Fraction

import pytest

from devs_scc.context import Context
from devs_scc.evaluator import eval_expr, eval_pred
from devs_scc.parser import parse_model_text
from devs_scc.syntax import Apply, Const, InSet, Ref
from devs_scc.values import EvalError, INF, Lit, Num, Tup, num
from oracle import select_case

from tests.conftest import FIXTURES

CHANGE_MODEL = """
model changer {
  sort Coins = (nat, nat, nat);
  state { b: Coins; }
  input enum {tick};
  output Coins;
  -- change for an amount in dollars, greedily: whole dollars first,
  -- then half-dollar coins, then quarters
  op mkchange(amt: rational, b: Coins): Coins {
    let c1 = min(b.1, amt div 1);
    let c50 = min(b.2, (amt - c1 * 1) div 0.50);
    let c25 = min(b.3, (amt - c1 * 1 - c50 * 0.50) div 0.25);
    (c1, c50, c25);
  }
  op shrink(b: Coins): Coins {
    (b.1 - 1, b.2, b.3);
  }
  ta = infinity;
  dext(s, e, x) { case x = tick -> b; }
  dint(s) { }
  lambda(s) { otherwise -> b; }
}
"""


def _change_oracle(amt: Fraction, bag: tuple[int, int, int]) -> tuple[int, int, int]:
    """Independent greedy computation with plain Python arithmetic."""
    c1 = min(bag[0], int(amt // 1))
    rest = amt - c1
    c50 = min(bag[1], int(rest // Fraction(1, 2)))
    rest -= c50 * Fraction(1, 2)
    c25 = min(bag[2], int(rest // Fraction(1, 4)))
    return (c1, c50, c25)


@pytest.fixture(scope="module")
def changer():
    model, report = parse_model_text(CHANGE_MODEL)
    assert report.usable, report.errors
    return model


def coins(*xs) -> Tup:
    return Tup(tuple(num(x) for x in xs))


def test_greedy_change_matches_hand_execution(changer):
    # 1.75 with one coin of each kind: min(1,1), min(1,1), min(1,1)
    out = eval_expr(
        Apply("mkchange", (Const(num(Fraction(7, 4))), Const(coins(1, 1, 1)))),
        {},
        Context(changer),
    )
    assert out == coins(1, 1, 1)
    assert _change_oracle(Fraction(7, 4), (1, 1, 1)) == (1, 1, 1)


@pytest.mark.parametrize(
    "amt,bag",
    [
        (Fraction(3, 4), (2, 2, 2)),
        (Fraction(5, 2), (1, 1, 8)),
        (Fraction(0), (3, 3, 3)),
        (Fraction(9, 4), (0, 0, 4)),
    ],
)
def test_greedy_change_against_oracle(changer, amt, bag):
    out = eval_expr(Apply("mkchange", (Const(Num(amt)), Const(coins(*bag)))), {}, Context(changer))
    assert out == coins(*_change_oracle(amt, bag))


def test_coin_add_has_increment_semantics(soda):
    # inserting a quarter adds one coin to the third counter
    out = eval_expr(Apply("addcoin", (Const(coins(0, 0, 0)), Const(Lit("c25")))), {}, Context(soda))
    assert out == coins(0, 0, 1)


def test_min_of_two_infinite_timers():
    from devs_scc.syntax import MinOp

    assert eval_expr(MinOp((Const(INF), Const(INF))), {}) == INF


def test_division_by_zero_is_an_error():
    from devs_scc.syntax import BinOp

    with pytest.raises(EvalError, match="division by zero"):
        eval_expr(BinOp("div", Const(num(1)), Const(num(0))), {})


def test_nat_underflow_surfaces_at_the_sorted_slot(changer):
    with pytest.raises(EvalError, match="does not fit sort"):
        eval_expr(Apply("shrink", (Const(coins(0, 1, 1)),)), {}, Context(changer))


def test_operator_case_selection_is_first_match(soda):
    op = soda.operator("coinval")
    ctx = Context(soda)
    assert eval_expr(Apply("coinval", (Const(Lit("c50")),)), {}, ctx) == num(50)
    with pytest.raises(EvalError, match="no case"):
        eval_expr(Apply("coinval", (Const(Lit("cancel")),)), {}, ctx)
    assert len(op.cases) == 3


def test_membership_and_short_circuit(soda):
    env = {"m": Lit("idle")}
    ctx = Context(soda)
    assert eval_pred(InSet(Ref("m"), ("idle", "operating")), env, ctx)
    assert not eval_pred(InSet(Ref("m"), ("finishOp",)), env, ctx)


def test_guard_selection_on_soda_dint(soda, soda_bounds):
    from devs_scc.bounds import const_env

    consts = const_env(soda_bounds, soda)
    env = {
        **consts,
        "m": Lit("idle"),
        "d": num(0),
        "ot": num(0),
        "np": num(0),
        "dp": num(0),
        "it": num(5),
        "ms": coins(0, 0, 0),
        "om": coins(0, 0, 0),
        "mr": coins(0, 0, 0),
    }
    case = select_case(soda.delta_int, env, soda)
    assert case is not None and case.id == 5  # idle with ot < it
    env["ot"] = num(7)
    case = select_case(soda.delta_int, env, soda)
    assert case is not None and case.id == 6  # price increment branch


def test_sort_soundness_on_randomized_environments(soda, soda_bounds):
    """Randomized envs within bounds: guards decide without raising, ta
    lands in the time sort, operators return values of their declared
    result sort."""
    import random

    from devs_scc.bounds import const_env
    from oracle import state_space
    from devs_scc.values import TIME, value_conforms

    rng = random.Random(555)
    consts = const_env(soda_bounds, soda)
    space = state_space(soda, soda_bounds)
    ctx = Context(soda)
    for _ in range(150):
        env = {**consts, **{name: rng.choice(grid) for name, grid in space}}
        for case in soda.delta_int:
            assert eval_pred(case.guard, env, ctx) in (True, False)
        ta = eval_expr(soda.ta, env, ctx)
        assert value_conforms(ta, TIME)
        bag = env["ms"]
        out = eval_expr(Apply("addcoin", (Const(bag), Const(Lit("c50")))), {**consts}, ctx)
        assert value_conforms(out, soda.operator("addcoin").result)


def test_first_matching_guard_wins(soda, soda_bounds):
    import random

    from devs_scc.bounds import const_env
    from oracle import state_space

    rng = random.Random(808)
    consts = const_env(soda_bounds, soda)
    space = state_space(soda, soda_bounds)
    for _ in range(120):
        env = {**consts, **{name: rng.choice(grid) for name, grid in space}}
        chosen = select_case(soda.delta_int, env, soda)
        scan = [c for c in soda.delta_int if eval_pred(c.guard, env, Context(soda))]
        if scan:
            assert chosen is not None and chosen.id == scan[0].id
        else:
            assert chosen is None


# ---------------------------------------------------------------------------
# compiled closures against the tree-walking oracle

from oracle import eval_expr as oracle_expr, eval_pred as oracle_pred
from hypothesis import given, strategies as st

from devs_scc.evaluator import compile_expr, compile_pred
from devs_scc.bounds import Bounds
from devs_scc.syntax import (
    FALSE, TRUE, And, BinOp, Cmp, ConstRef, Exists, Implies, InBase, MinOp, Neg, Not, Or, Proj,
    TupleExpr, render_pred,
)
from devs_scc.values import NAT, EnumSort, UnboundName

_scalars = st.one_of(
    # a number as `num` holds it (an int when integral) or as a Fraction
    st.builds(lambda n, d, raw: Num(Fraction(n, d)) if raw else num(Fraction(n, d)),
              st.integers(-4, 4), st.integers(1, 3), st.booleans()),
    st.just(INF),
    st.sampled_from([Lit("A"), Lit("B")]),
)
_values = st.recursive(
    _scalars, lambda inner: st.builds(lambda xs: Tup(tuple(xs)), st.lists(inner, min_size=2, max_size=3)),
    max_leaves=4,
)
# "a" and "b" may be bound, "u" never is
_names = st.sampled_from(["a", "b", "u"])
_exprs = st.recursive(
    st.one_of(st.builds(Const, _values), st.builds(Ref, _names), st.builds(ConstRef, _names)),
    lambda inner: st.one_of(
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "div"]), inner, inner),
        st.builds(Neg, inner),
        st.builds(lambda xs: MinOp(tuple(xs)), st.lists(inner, min_size=1, max_size=3)),
        st.builds(lambda xs: TupleExpr(tuple(xs)), st.lists(inner, min_size=2, max_size=3)),
        st.builds(Proj, inner, st.integers(0, 3)),
        st.builds(lambda xs: Apply("op", tuple(xs)), st.lists(inner, max_size=2)),
    ),
    max_leaves=6,
)
_atoms = st.one_of(
    st.builds(Cmp, st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), _exprs, _exprs),
    st.builds(
        lambda e, lits: InSet(e, tuple(lits)), _exprs,
        st.lists(st.sampled_from(["A", "B", "C"]), min_size=1, max_size=2),
    ),
    st.builds(InBase, _exprs),
    st.sampled_from([TRUE, FALSE]),
)
_preds = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.builds(lambda xs: And(tuple(xs)), st.lists(inner, min_size=2, max_size=3)),
        st.builds(lambda xs: Or(tuple(xs)), st.lists(inner, min_size=2, max_size=3)),
        st.builds(Not, inner),
        st.builds(Implies, inner, inner),
    ),
    max_leaves=8,
)
_envs = st.dictionaries(st.sampled_from(["a", "b"]), _values)


def _outcome(run):
    """The value computed, or the message of the EvalError raised."""
    try:
        return "value", run()
    except EvalError as err:
        return "error", str(err)


@given(_preds, _envs)
def test_compiled_predicates_agree_with_the_oracle(pred, env):
    oracle = _outcome(lambda: oracle_pred(pred, env))
    compiled = _outcome(lambda: compile_pred(pred)(env))
    assert compiled == oracle
    assert type(compiled[1]) is type(oracle[1])


@given(_exprs, _envs)
def test_compiled_expressions_agree_with_the_oracle(expr, env):
    assert _outcome(lambda: compile_expr(expr)(env)) == _outcome(lambda: oracle_expr(expr, env))


def test_compiled_ntsel_agrees_with_the_oracle(elevator, elevator_bounds):
    from oracle import time_points

    times = [*time_points(elevator_bounds), INF]
    calls = [
        Apply("ntsel", tuple(Const(t) for t in timers))
        for timers in itertools.product(times[::3] + [times[1]], repeat=5)
    ]
    assert len(calls) == 5 ** 5
    for call in calls:
        want = _outcome(lambda: oracle_expr(call, {}, elevator))
        assert _outcome(lambda: compile_expr(call, Context(elevator))({})) == want


@pytest.mark.parametrize("name", ["elevator", "soda", "toggle"])
def test_compiled_cases_agree_with_the_oracle(name, request):
    """Every guard, result and the time advance of a fixture, on random
    configurations within bounds."""
    import random

    from devs_scc.bounds import const_env
    from oracle import joint_space

    model = request.getfixturevalue(name)
    bounds = request.getfixturevalue(f"{name}_bounds")
    cases = model.delta_ext + model.delta_int + model.output_fn
    ctx = Context(model)
    guards = [(c.guard, compile_pred(c.guard, ctx)) for c in cases]
    exprs = [(e, compile_expr(e, ctx)) for e in [c.result for c in cases] + [model.ta]]
    space = joint_space(model, bounds)
    rng = random.Random(7)
    for _ in range(40):
        env = {**const_env(bounds, model), **{n: rng.choice(g) for n, g in space}}
        env["e"] = env["t"]
        for guard, compiled in guards:
            assert _outcome(lambda: compiled(env)) == _outcome(lambda: oracle_pred(guard, env, model))
        for expr, compiled in exprs:
            assert _outcome(lambda: compiled(env)) == _outcome(lambda: oracle_expr(expr, env, model))


def test_runaway_operator_expansion_is_an_evaluation_error():
    from devs_scc.model import GuardedCase, Model, OperatorDef, StateSchema
    from devs_scc.values import NAT

    step = BinOp("+", Ref("n"), Const(num(1)))
    loop = OperatorDef(
        "loop", (("n", NAT),), NAT,
        (GuardedCase(1, TRUE, Apply("loop", (step,)), is_otherwise=True),),
    )
    model = Model(
        "runaway", StateSchema((("m", NAT),)), NAT, NAT, (), (), (), Const(INF),
        operators=(loop,),
    )
    call = Apply("loop", (Const(num(0)),))
    message = "operator expansion too deep (recursive definition?)"
    ctx = Context(model)
    with pytest.raises(EvalError, match=re.escape(message)):
        eval_expr(call, {}, ctx)
    with pytest.raises(EvalError, match=re.escape(message)):
        compile_expr(call, ctx)({})
    with pytest.raises(EvalError, match=re.escape(message)):
        compile_pred(Cmp("=", call, Const(num(0))), ctx)({})


@pytest.mark.parametrize("ops", [
    # f's guard applies f
    "op f(n: nat): nat { case f(n) = 0 -> 1; otherwise -> 0; }",
    # f's guard applies g, whose result applies f
    "op f(n: nat): nat { case g(n) = 0 -> 1; otherwise -> 0; }\n"
    "op g(n: nat): nat { case n = 0 -> 0; otherwise -> f(n); }",
])
def test_an_operator_recurring_through_its_guard_is_expanded_too_deep(ops):
    """A model the checks reject, evaluated anyway: the applications in a
    guard count on from their operator's depth, so the expansion ends in
    an evaluation error, not in Python's recursion limit."""
    text = (FIXTURES / "toggle.devs").read_text().replace("  ta = infinity;",
                                                         ops + "\n  ta = infinity;")
    model, report = parse_model_text(text)
    assert report.errors and report.errors[0].startswith("recursive operator definitions")
    call = Cmp("=", Apply("f", (Const(num(1)),)), Const(num(0)))
    message = re.escape("operator expansion too deep (recursive definition?)")
    with pytest.raises(EvalError, match=message):
        eval_pred(call, {}, Context(model))
    with pytest.raises(EvalError, match=message):
        oracle_pred(call, {}, model)


# existentials: the bound variables' grids scanned in ascending product order
_EXISTS_BOUNDS = [None, Bounds(nat_ranges={"": (0, 2)}), Bounds(nat_ranges={"y": (1, 2)})]
_exists_names = st.sampled_from(["a", "y", "z", "c"])
_exists_atoms = st.one_of(
    st.builds(
        Cmp, st.sampled_from(["=", "!=", "<", ">="]), st.builds(Ref, _exists_names),
        st.builds(Const, _scalars),
    ),
    # raises where the divisor is 0
    st.builds(
        lambda v, k: Cmp("=", BinOp("div", Const(num(1)), Ref(v)), Const(num(k))),
        st.sampled_from(["a", "y"]), st.integers(0, 1),
    ),
    st.builds(
        lambda v, lits: InSet(Ref(v), tuple(lits)), _exists_names,
        st.lists(st.sampled_from(["A", "B", "C"]), min_size=1, max_size=2),
    ),
)
_exists_bodies = st.recursive(
    _exists_atoms,
    lambda inner: st.one_of(
        st.builds(lambda xs: And(tuple(xs)), st.lists(inner, min_size=2, max_size=3)),
        st.builds(lambda xs: Or(tuple(xs)), st.lists(inner, min_size=2, max_size=3)),
        st.builds(Not, inner),
    ),
    max_leaves=4,
)
_bound_vars = st.lists(
    st.sampled_from([("y", NAT), ("z", NAT), ("c", EnumSort(("A", "B")))]),
    min_size=1, max_size=2, unique_by=lambda v: v[0],
)
_existentials = st.recursive(
    st.builds(lambda bound, body: Exists(tuple(bound), body), _bound_vars, _exists_bodies),
    lambda inner: st.one_of(
        st.builds(lambda bound, body: Exists(tuple(bound), body), _bound_vars, inner),
        st.builds(lambda p, q: And((p, q)), inner, _exists_atoms),
        st.builds(lambda p, q: Or((q, p)), inner, _exists_atoms),
        st.builds(Not, inner),
    ),
    max_leaves=3,
)


@given(_existentials, st.dictionaries(st.sampled_from(["a", "y"]), _scalars),
       st.sampled_from(_EXISTS_BOUNDS))
def test_compiled_existentials_agree_with_the_oracle(pred, env, bounds):
    before = dict(env)
    compiled = _outcome(lambda: compile_pred(pred, Context(None, bounds))(env))
    assert compiled == _outcome(lambda: oracle_pred(pred, env, None, bounds))
    assert env == before


def test_an_existential_takes_its_grids_once(monkeypatch):
    """An existential takes each bound variable's grid from its context
    when it is compiled, and no call takes another; the context builds
    each grid once for every existential compiled in it.  Without bounds
    the missing-bounds error surfaces on every call, and a sort with no
    grid fails the compilation."""
    import devs_scc.context as context_mod
    from devs_scc.bounds import BoundsError

    built = []
    real = context_mod.build_grid
    monkeypatch.setattr(context_mod, "build_grid", lambda b, n, s: built.append(n) or real(b, n, s))
    body = And((Cmp(">", Ref("y"), Ref("a")), InSet(Ref("c"), ("B",))))
    pred = Exists((("y", NAT), ("c", EnumSort(("A", "B")))), body)
    bounds = Bounds(nat_ranges={"": (0, 3)})
    ctx = Context(None, bounds)
    decide = compile_pred(pred, ctx)
    assert built == ["y", "c"]
    for a in range(6):
        assert decide({"a": num(a)}) == (a < 3)
        assert decide({"a": num(a)}) == oracle_pred(pred, {"a": num(a)}, None, bounds)
    # the same grid lists, in a second existential of the context too
    again = compile_pred(Exists((("c", EnumSort(("A", "B"))), ("y", NAT)), body), ctx)
    assert again({"a": num(2)}) and not again({"a": num(3)})
    assert built == ["y", "c"]
    assert ctx.grids == {("y", NAT): [num(k) for k in range(4)],
                         ("c", EnumSort(("A", "B"))): [Lit("A"), Lit("B")]}
    compile_pred(pred, Context(None, bounds))
    assert built == ["y", "c", "y", "c"]
    for unbounded_ctx in (None, Context(None)):
        unbounded = compile_pred(pred, unbounded_ctx)
        for _ in range(2):
            with pytest.raises(EvalError, match="^existential membership test needs bounds$"):
                unbounded({"a": num(0)})
    assert built == ["y", "c", "y", "c"]
    with pytest.raises(BoundsError, match="no grid for sort"):
        compile_pred(Exists((("y", object()),), TRUE), Context(None, Bounds()))


@pytest.mark.parametrize("body, message", [
    (Cmp("<", Ref("y"), Ref("a")), "unbound variable a"),
    (Cmp("<", Ref("a"), Const(num(1))), "unbound variable a"),
    (Cmp("=", Ref("a"), Const(Lit("A"))), "unbound variable a"),
    (InSet(Ref("a"), ("A",)), "unbound variable a"),
    (Cmp("=", BinOp("div", Ref("y"), ConstRef("K")), Const(num(1))), "unbound constant K"),
])
def test_an_unbound_name_inside_an_existential_is_raised(body, message):
    """A point where the body fails to evaluate witnesses nothing, but a
    name the environment does not bind is no fault of the point: the
    compiled existential and the oracle both raise it."""
    pred = Exists((("y", NAT),), body)
    bounds = Bounds(nat_ranges={"": (0, 3)})
    for run in (lambda: compile_pred(pred, Context(None, bounds))({}),
                lambda: oracle_pred(pred, {}, None, bounds)):
        with pytest.raises(UnboundName, match=f"^{message}$"):
            run()


@pytest.mark.parametrize("shape, message", [
    (Cmp("~", Const(num(1)), Const(num(1))), "unknown comparison ~"),
    (Cmp("~", Ref("a"), Const(num(1))), "unbound variable a"),
    (Cmp("=", BinOp("%", Const(num(1)), Const(num(1))), Const(num(1))), "unknown operator %"),
    (Cmp("=", BinOp("%", Ref("a"), Const(num(1))), Const(num(1))), "unbound variable a"),
    (Cmp("=", Apply("f", (Ref("a"),)), Const(num(1))), "no model supplies operator f"),
    (Cmp("=", Const(num(1)), "junk"), "cannot evaluate 'junk'"),
    ("junk", "cannot evaluate predicate 'junk'"),
    (Exists((("y", NAT),), TRUE), "existential membership test needs bounds"),
])
def test_a_shape_that_cannot_be_evaluated_fails_when_called(shape, message):
    """The compiled closure raises the oracle's error when it is called,
    after evaluating what the oracle evaluates first."""
    decide = compile_pred(shape)
    for run in (lambda: decide({}), lambda: eval_pred(shape, {}), lambda: oracle_pred(shape, {})):
        with pytest.raises(EvalError, match=f"^{re.escape(message)}$"):
            run()


@pytest.mark.parametrize("name", ["elevator worked plan", "soda all-pairs"])
def test_compiled_class_predicates_agree_with_the_oracle(name, request):
    """Every state, pair and joint predicate of a shipped catalog,
    existentials included, on random configurations within bounds."""
    import random

    from devs_scc.bounds import const_env
    from oracle import joint_space

    from tests.test_sequencer import _sequenced

    model, bounds, result = _sequenced(name, request)
    preds = [
        p for s in result.catalog for p in (s.init_states, s.input_pairs, s.joint) if p is not None
    ]
    if model.name == "elevator":
        # the standard partition's dext classes project their input away
        assert any("exists" in render_pred(p) for p in preds)
    compiled = [(p, compile_pred(p, Context(model, bounds))) for p in preds]
    space = joint_space(model, bounds)
    rng = random.Random(11)
    for _ in range(25):
        env = {**const_env(bounds, model), **{n: rng.choice(g) for n, g in space}}
        for pred, decide in compiled:
            assert _outcome(lambda: decide(env)) == _outcome(
                lambda: oracle_pred(pred, env, model, bounds))


@pytest.mark.parametrize("base, index, want", [
    (TupleExpr((Const(num(1)), Ref("a"))), 1, ("value", num(1))),
    (TupleExpr((Const(num(1)), Ref("a"))), 2, ("value", Lit("A"))),
    (TupleExpr((Const(num(1)), Ref("a"))), 0, ("error", "projection index 0 out of range")),
    (TupleExpr((Const(num(1)), Ref("a"))), 3, ("error", "projection index 3 out of range")),
    (Ref("a"), 1, ("error", "projection from non-tuple a")),
])
def test_projection_reads_one_component(base, index, want):
    env = {"a": Lit("A")}
    for run in (compile_expr(Proj(base, index)), lambda env: oracle_expr(Proj(base, index), env)):
        assert _outcome(lambda: run(env)) == want


@pytest.mark.parametrize("name", ["elevator worked plan", "soda all-pairs", "toggle all-pairs"])
def test_compiled_literal_atoms_agree_with_the_oracle(name, request):
    """Every `v = literal` and `v != literal` atom of a fixture's guards
    and of its catalog, and the atom with the other of the two operators,
    compiled with and without the model, decides as
    the oracle does on every literal it names, on a number, infinity and
    a tuple, and raises the oracle's error when `v` is unbound."""
    from oracle import iter_subpreds

    from tests.test_sequencer import _sequenced

    model, _, result = _sequenced(name, request)
    preds = [c.guard for c in (*model.delta_ext, *model.delta_int, *model.output_fn)
             if not c.is_otherwise]
    preds += [c.guard for op in model.operators for c in op.cases if not c.is_otherwise]
    preds += [p for s in result.catalog for p in (s.init_states, s.input_pairs, s.joint)
              if p is not None]
    atoms = {
        render_pred(p): p for pred in preds for p in iter_subpreds(pred)
        if isinstance(p, Cmp) and p.op in ("=", "!=") and isinstance(p.left, (Ref, ConstRef))
        and isinstance(p.right, Const) and isinstance(p.right.value, Lit)
    }
    assert atoms
    # and the other operator on the same operands
    for atom in list(atoms.values()):
        other = Cmp("!=" if atom.op == "=" else "=", atom.left, atom.right)
        atoms.setdefault(render_pred(other), other)
    literals = {a.right.value for a in atoms.values()} | {Lit("tau")}
    values = [*sorted(literals, key=lambda v: v.name), num(0), num(Fraction(1, 2)), INF,
              Tup((Lit("A"), num(1)))]
    for atom in atoms.values():
        for decide in (compile_pred(atom, Context(model)), compile_pred(atom)):
            assert decide.__qualname__.startswith("literal_lookup")
            for env in [{}, *({atom.left.name: v} for v in values)]:
                assert _outcome(lambda: decide(env)) == _outcome(lambda: oracle_pred(atom, env, model))
