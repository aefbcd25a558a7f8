"""The reference implementations the product is tested against.

The tree-walking interpreter: the reference semantics the product's
compiled evaluator (`devs_scc.evaluator`) is tested against.
`eval_expr` and `eval_pred` walk the syntax tree on every call;
`compare` decides comparison atoms by ranking values.  This module is
independent of the compiled closures, so a differential test that checks
them against it checks two implementations.  An environment maps names
to values; user-defined operators run their own guarded cases in an
environment containing only their parameters and the model constants;
conjunction and disjunction short-circuit left to right.  An existential
scans its grids in product order; a point where its body fails to
evaluate witnesses nothing, but an unbound name is raised.

`time_points`, `state_space` and `joint_space` build the search spaces
afresh from the bounds on every call, the reference for the spaces a
`devs_scc.context.Context` keeps.  `iter_witnesses` enumerates every
witness of a predicate by a recursive search of its own that decides
each conjunct with `eval_pred` once its variables are bound, the
reference for the product's search, which returns only the first, and
independent of it.  `next_reachable` is the chaining rule by a full
scan of the remaining classes, on the classes' compiled tests but with a
pair enumeration of its own: the reference for `devs_scc.sequencer`,
which resumes each post-state's scan past the classes it rejected.
`split` divides a prepared form's conjuncts by search depth from their
variables on every call, the reference for the search's split from the
placements its conjuncts keep.  `ref_render_pred` and
`ref_render_expr` are the renderer that walks the whole tree on every
call, with the precedence of the enclosing place passed down; the
product's renderer keeps each node's text and must agree with it.
`step` is one transition of the abstract simulator by that interpreter,
every slot of its next state checked: the reference for
`devs_scc.simulator.step`, which compiles each transition function into
a case-dispatching next-state builder, and independent of it.
`lex` is the character-by-character scanner the product's one-pattern
lexer replaced; both give `(kind, text, line, col)` tuples.
`expr_nodes`, `pred_exprs`, `iter_subpreds`, `expr_vars`, `pred_vars`,
`subst_expr` and `subst_pred` are the traversals that name each class's
child fields, which the product's `walk`, `free_vars` and `subst`, reading
children from a node's own fields, replaced.
`scc_layout`, `step_layout`, `sequence_layout` and `event_layout`
build the JSON object of a class, a configuration or sequence step, a
sequence and the trace event of a step, and `catalog_json`,
`configs_json`, `sequences_json` and `trace_lines` write them with
`json.dumps`: the reference for `devs_scc.campaign.StepWriter`, which
fills fixed templates of these layouts.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from typing import Iterator, Mapping

from devs_scc.bounds import const_env, grid
from devs_scc.campaign import SCHEMA
from devs_scc.evaluator import all_hold
from devs_scc.model import GuardedCase, Model, OperatorDef
from devs_scc.parser import Diagnostic, ParseFailure
from devs_scc.selector import runnable_form, state_tests
from devs_scc.syntax import (
    And,
    Apply,
    BinOp,
    BoolConst,
    Cmp,
    Const,
    ConstRef,
    Exists,
    Expr,
    Implies,
    InBase,
    InSet,
    MinOp,
    Neg,
    Not,
    Or,
    Predicate,
    Proj,
    Ref,
    TupleExpr,
    conjuncts,
    normalize,
    render_expr,
    render_pred,
)
from devs_scc.values import (
    EvalError,
    Inf,
    Lit,
    Num,
    Tup,
    UnboundName,
    Value,
    EnumSort,
    ExtSort,
    INF,
    IntSort,
    NatSort,
    RatSort,
    Sort,
    SortError,
    TAU,
    TIME,
    TimeSort,
    TupleSort,
    coerce,
    ext_base,
    ext_literals,
    render_value,
)

Env = Mapping[str, Value]

_MAX_DEPTH = 64


def eval_expr(expr: Expr, env: Env, model: Model | None = None, _depth: int = 0) -> Value:
    if _depth > _MAX_DEPTH:
        raise EvalError("operator expansion too deep (recursive definition?)")
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Ref):
        try:
            return env[expr.name]
        except KeyError:
            raise UnboundName(f"unbound variable {expr.name}") from None
    if isinstance(expr, ConstRef):
        try:
            return env[expr.name]
        except KeyError:
            raise UnboundName(f"unbound constant {expr.name}") from None
    if isinstance(expr, BinOp):
        left = eval_expr(expr.left, env, model, _depth)
        right = eval_expr(expr.right, env, model, _depth)
        if expr.op == "+":
            return v_add(left, right)
        if expr.op == "-":
            return v_sub(left, right)
        if expr.op == "*":
            return v_mul(left, right)
        if expr.op == "div":
            return v_div(left, right)
        raise EvalError(f"unknown operator {expr.op}")
    if isinstance(expr, Neg):
        return v_neg(eval_expr(expr.arg, env, model, _depth))
    if isinstance(expr, MinOp):
        return v_min([eval_expr(a, env, model, _depth) for a in expr.args])
    if isinstance(expr, TupleExpr):
        return Tup(tuple(eval_expr(a, env, model, _depth) for a in expr.items))
    if isinstance(expr, Proj):
        base = eval_expr(expr.base, env, model, _depth)
        if not isinstance(base, Tup):
            raise EvalError(f"projection from non-tuple {render_expr(expr.base)}")
        if not 1 <= expr.index <= len(base.items):
            raise EvalError(f"projection index {expr.index} out of range")
        return base.items[expr.index - 1]
    if isinstance(expr, Apply):
        if model is None:
            raise EvalError(f"no model supplies operator {expr.op}")
        op = model.operator(expr.op)
        args = [eval_expr(a, env, model, _depth) for a in expr.args]
        return apply_operator(op, args, env, model, _depth + 1)
    raise EvalError(f"cannot evaluate {expr!r}")


def apply_operator(
    op: OperatorDef, args: list[Value], outer_env: Env, model: Model, depth: int
) -> Value:
    if len(args) != len(op.params):
        raise EvalError(f"{op.name} expects {len(op.params)} arguments")
    env = _constants(outer_env, _const_names(model))
    for (name, sort), arg in zip(op.params, args):
        env[name] = coerce(arg, sort, f"{op.name} parameter {name}")
    case = select_case(op.cases, env, model, depth=depth)
    if case is None:
        raise EvalError(f"no case of operator {op.name} matches its arguments")
    result = eval_expr(case.result, env, model, depth)
    return coerce(result, op.result, f"{op.name} result")


def _const_names(model: Model) -> tuple[str, ...]:
    return tuple(n for n, _ in model.constants)


def _constants(outer_env: Env, const_names) -> dict[str, Value]:
    """The model constants bound in `outer_env`: all that an operator
    sees of its caller's environment."""
    return {k: outer_env[k] for k in const_names if k in outer_env}


def eval_pred(
    pred: Predicate, env: Env, model: Model | None = None, bounds=None, _depth: int = 0
) -> bool:
    """Whether `pred` holds; `_depth` is that of the operator whose guard
    it is, if any."""
    if isinstance(pred, BoolConst):
        return pred.value
    if isinstance(pred, Cmp):
        return compare(
            pred.op, eval_expr(pred.left, env, model, _depth),
            eval_expr(pred.right, env, model, _depth),
        )
    if isinstance(pred, InSet):
        v = eval_expr(pred.expr, env, model, _depth)
        return isinstance(v, Lit) and v.name in pred.literals
    if isinstance(pred, InBase):
        return isinstance(eval_expr(pred.expr, env, model, _depth), Num)
    if isinstance(pred, Not):
        return not eval_pred(pred.arg, env, model, bounds, _depth)
    if isinstance(pred, And):
        return all(eval_pred(q, env, model, bounds, _depth) for q in pred.items)
    if isinstance(pred, Or):
        return any(eval_pred(q, env, model, bounds, _depth) for q in pred.items)
    if isinstance(pred, Implies):
        return (not eval_pred(pred.left, env, model, bounds, _depth)) or eval_pred(
            pred.right, env, model, bounds, _depth
        )
    if isinstance(pred, Exists):
        if bounds is None:
            raise EvalError("existential membership test needs bounds")
        grids = [grid(bounds, name, sort) for name, sort in pred.bound]
        names = [name for name, _ in pred.bound]
        inner = dict(env)
        for combo in itertools.product(*grids):
            inner.update(zip(names, combo))
            try:
                if eval_pred(pred.body, inner, model, bounds, _depth):
                    return True
            except UnboundName:
                raise
            except EvalError:  # the point witnesses nothing
                pass
        return False
    raise EvalError(f"cannot evaluate predicate {pred!r}")


def select_case(
    cases: tuple[GuardedCase, ...], env: Env, model: Model | None, bounds=None, depth: int = 0
) -> GuardedCase | None:
    """First case whose guard holds; otherwise-cases always hold."""
    for case in cases:
        if case.is_otherwise or eval_pred(case.guard, env, model, bounds, depth):
            return case
    return None


_ORDERED = {"<", "<=", ">", ">="}


def compare(op: str, a: Value, b: Value) -> bool:
    """Decide a comparison atom.

    Ordered comparisons where one side is a set literal and the other is a
    number are false rather than errors: a guard like fc > f must simply not
    hold when fc carries the distinguished literal.
    """
    if op == "=":
        return _v_eq(a, b)
    if op == "!=":
        return not _v_eq(a, b)
    if op in _ORDERED:
        ra = _rank(a)
        rb = _rank(b)
        if ra is None or rb is None:
            return False  # incomparable: literal or tuple on an ordered atom
        if op == "<":
            return ra < rb
        if op == "<=":
            return ra <= rb
        if op == ">":
            return ra > rb
        return ra >= rb
    raise EvalError(f"unknown comparison {op}")


def _rank(v: Value):
    if isinstance(v, Num):
        return (0, v.value)
    if isinstance(v, Inf):
        return (1, 0)
    return None


def _v_eq(a: Value, b: Value) -> bool:
    if isinstance(a, Tup) and isinstance(b, Tup):
        return len(a.items) == len(b.items) and all(
            _v_eq(x, y) for x, y in zip(a.items, b.items)
        )
    return a == b


# ---------------------------------------------------------------------------
# The values layer with every number held as a Fraction: the reference for
# the product's arithmetic, comparisons, `v_min` and sort conformance,
# which hold an integral number as an int.  The interpreter above computes
# with this arithmetic.  `_eq`, `_lt` and `_le` read Fraction slots, so
# they take Fraction-held numbers only (see `as_fractions`).

def as_fractions(v: Value) -> Value:
    """`v` with every number held as a Fraction."""
    if isinstance(v, Num):
        return Num(Fraction(v.value))
    if isinstance(v, Tup):
        return Tup(tuple(as_fractions(x) for x in v.items))
    return v


def value_conforms(v: Value, sort: Sort) -> bool:
    """Whether a value inhabits a sort, checking range constraints too."""
    if isinstance(sort, NatSort):
        return isinstance(v, Num) and v.value.denominator == 1 and v.value >= 0
    if isinstance(sort, IntSort):
        return isinstance(v, Num) and v.value.denominator == 1
    if isinstance(sort, RatSort):
        return isinstance(v, Num)
    if isinstance(sort, TimeSort):
        return isinstance(v, Inf) or (isinstance(v, Num) and v.value >= 0)
    if isinstance(sort, EnumSort):
        return isinstance(v, Lit) and v.name in sort.literals
    if isinstance(sort, ExtSort):
        if isinstance(v, Lit):
            return v.name in ext_literals(sort)
        return value_conforms(v, ext_base(sort))
    if isinstance(sort, TupleSort):
        return (
            isinstance(v, Tup)
            and len(v.items) == len(sort.items)
            and all(value_conforms(x, s) for x, s in zip(v.items, sort.items))
        )
    raise SortError(f"unknown sort {sort!r}")


def v_add(a: Value, b: Value) -> Value:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    if isinstance(a, (Num, Inf)) and isinstance(b, (Num, Inf)):
        return INF
    raise EvalError(f"cannot add {render_value(a)} and {render_value(b)}")


def v_sub(a: Value, b: Value) -> Value:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    if isinstance(a, Inf) and isinstance(b, Num):
        return INF
    raise EvalError(f"cannot subtract {render_value(b)} from {render_value(a)}")


def v_mul(a: Value, b: Value) -> Value:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    raise EvalError(f"cannot multiply {render_value(a)} and {render_value(b)}")


def v_div(a: Value, b: Value) -> Value:
    """Floor division: how many times b fits into a.  Exact on rationals."""
    if isinstance(a, Num) and isinstance(b, Num):
        if b.value == 0:
            raise EvalError("division by zero")
        return Num(Fraction(a.value // b.value))
    raise EvalError(f"cannot divide {render_value(a)} by {render_value(b)}")


def v_min(args: list[Value]) -> Value:
    best: Value | None = None
    for a in args:
        if isinstance(a, Inf):
            candidate = a
        elif isinstance(a, Num):
            candidate = a
        else:
            raise EvalError(f"min over non-numeric value {render_value(a)}")
        if best is None:
            best = candidate
        elif isinstance(best, Inf):
            best = candidate
        elif isinstance(candidate, Num) and candidate.value < best.value:
            best = candidate
    if best is None:
        raise EvalError("min of no arguments")
    return best


def v_neg(a: Value) -> Value:
    if isinstance(a, Num):
        return Num(-a.value)
    raise EvalError(f"cannot negate {render_value(a)}")



def _eq(a: Value, b: Value) -> bool:
    cls = a.__class__
    if cls is not b.__class__:
        return False
    if cls is Num:
        x, y = a.value, b.value
        return x._numerator == y._numerator and x._denominator == y._denominator
    if cls is Lit:
        return a.name == b.name
    if cls is Tup:
        return len(a.items) == len(b.items) and all(map(_eq, a.items, b.items))
    return a == b


def _lt(a: Value, b: Value) -> bool:
    if a.__class__ is Num:
        if b.__class__ is Num:
            x, y = a.value, b.value
            return x._numerator * y._denominator < y._numerator * x._denominator
        return b.__class__ is Inf
    return False


def _le(a: Value, b: Value) -> bool:
    cls = a.__class__
    if cls is Num and b.__class__ is Num:
        x, y = a.value, b.value
        return x._numerator * y._denominator <= y._numerator * x._denominator
    return (cls is Num or cls is Inf) and b.__class__ is Inf


# ---------------------------------------------------------------------------
# the reference step


def step(model: Model, bounds, state: dict[str, Value], clock, injected=None):
    """One transition of the abstract simulator from `state` at `clock`,
    by the interpreter above: `injected`, (event, absolute time), fires
    the external transition, None the internal one after the output.  It
    gives (case id, next state, output, tie), or the text of the error
    the step fails with.  Every slot of the next state is checked."""
    env = {**const_env(bounds, model), **state}
    try:
        ta = eval_expr(model.ta, env, model)
        if not (isinstance(ta, Inf) or isinstance(ta, Num) and ta.value >= 0):
            return f"ta produced {render_value(ta)}"
        detail = ", ".join(f"{k}={render_value(v)}" for k, v in state.items())
        if injected is None:
            if isinstance(ta, Inf):
                return "passive state, no internal transition"
            fn, tie = "dint", False
            case = select_case(model.output_fn, env, model, bounds)
            if case is None:
                return f"undefined transition: no lambda case matches ({detail})"
            output = eval_expr(case.result, env, model)
        else:
            fn, output = "dext", None
            x = coerce(injected[0], model.input_sort, "input")
            e = Fraction(injected[1]) - Fraction(clock)
            if e < 0:
                return "injected event lies in the past"
            if isinstance(ta, Num) and e > ta.value:
                return "event after internal deadline"
            tie = isinstance(ta, Num) and e == ta.value
            env.update(e=Num(e), x=x)
            detail += f", x={render_value(x)}, e={e}"
        case = select_case(model.cases(fn), env, model, bounds)
        if case is None:
            return f"undefined transition: no {fn} case matches ({detail})"
        value = eval_expr(case.result, env, model)
        names = model.schema.vars
        if len(names) == 1:
            value = Tup((value,))
        elif not isinstance(value, Tup) or len(value.items) != len(names):
            return "transition result does not match the state schema"
        return case.id, {n: coerce(v, sort, n) for (n, sort), v in zip(names, value.items)}, output, tie
    except EvalError as err:
        return str(err)


# ---------------------------------------------------------------------------
# search spaces and witness enumeration


def time_points(bounds) -> list[Value]:
    """The finite time grid, built afresh."""
    return grid(bounds, "", TIME)[:-1]


def state_space(model: Model, bounds) -> list[tuple[str, list[Value]]]:
    """(name, grid) of each state variable, built afresh."""
    return [(name, grid(bounds, name, sort)) for name, sort in model.schema.vars]


def joint_space(model: Model, bounds) -> list[tuple[str, list[Value]]]:
    """The input pair (x, with the no-event marker, and t), then the
    state, built afresh."""
    return [("x", [*grid(bounds, "x", model.input_sort), TAU]), ("t", time_points(bounds)),
            *state_space(model, bounds)]


def iter_witnesses(pred, space, ctx):
    """All witnesses of `pred` over `space` in lexicographic order, the
    model's constants bound: a recursive search that decides each
    conjunct of the normal form by `eval_pred` as soon as its deepest
    variable is bound, or before any when it names none.  A conjunct that
    fails to evaluate does not hold, but an unbound name is raised."""
    model, bounds = ctx.model, ctx.bounds
    depth = {name: d for d, (name, _) in enumerate(space)}
    # checked at level k: the conjuncts whose deepest variable is k - 1
    at = [[] for _ in range(len(space) + 1)]
    for c in conjuncts(normalize(pred)):
        at[max((depth[v] + 1 for v in pred_vars(c) if v in depth), default=0)].append(c)
    env = {} if model is None else const_env(bounds, model)

    def search(level):
        try:
            if not all(eval_pred(c, env, model, bounds) for c in at[level]):
                return
        except UnboundName:
            raise
        except EvalError:
            return
        if level == len(space):
            yield {name: env[name] for name, _ in space}
            return
        name, values = space[level]
        for value in values:
            env[name] = value
            yield from search(level + 1)

    return search(0)


def next_reachable(remaining, state: Env, ctx):
    """The chaining rule by a full scan of `remaining` (ascending id),
    deciding every class afresh on every call: the position of the first
    class whose state tests hold at `state` and whose runnable form has a
    member made of `state`, with the least such member's pair; None when
    no class has one.  The pairs are enumerated by a loop of their own,
    not the product's search: the input grid, with the no-event marker
    when the state's time advance is finite, then the finite time grid.
    A state test that fails to evaluate does not hold; a time advance
    that fails to evaluate or is negative raises `EvalError` once some
    class's state tests hold."""
    model, bounds = ctx.model, ctx.bounds
    env = {**const_env(bounds, model), **state}
    xs = None
    for at, scc in enumerate(remaining):
        try:
            if not all_hold(state_tests(scc, ctx), env):
                continue
        except EvalError:
            continue
        if xs is None:
            ta = eval_expr(model.ta, env, model)
            if not (isinstance(ta, Inf) or isinstance(ta, Num) and ta.value >= 0):
                raise EvalError(f"ta produced {render_value(ta)}")
            xs = grid(bounds, "x", model.input_sort) + ([] if isinstance(ta, Inf) else [TAU])
        # the runnable form's tests by the deepest of x and t they read
        levels = ([], [], [])
        for c in runnable_form(scc, ctx).items:
            levels[2 if "t" in c.vars else "x" in c.vars].append(c.test)
        if not all_hold(levels[0], env):
            continue
        for x in xs:
            point = {**env, "x": x}
            if all_hold(levels[1], point):
                for t in time_points(bounds):
                    point["t"] = t
                    if all_hold(levels[2], point):
                        return at, (x, t)
    return None


def split(form, names: tuple[str, ...]):
    """The tests of `form`'s conjuncts split by the search variables
    `names`, worked out from each conjunct's variables on every call:
    those that mention none; per depth, those that mention that variable
    only; and per depth, the others whose deepest variable it is."""
    depth_of = {n: d for d, n in enumerate(names)}
    pre = []
    unary: dict[int, list] = {}
    joint: dict[int, list] = {}
    for c in form.items:
        touched = [depth_of[v] for v in c.vars if v in depth_of]
        if not touched:
            pre.append(c.test)
        elif len(touched) == 1:
            unary.setdefault(touched[0], []).append(c.test)
        else:
            joint.setdefault(max(touched), []).append(c.test)
    return (tuple(pre),
            [tuple(unary[d]) if d in unary else None for d in range(len(names))],
            [tuple(joint[d]) if d in joint else None for d in range(len(names))])


# ---------------------------------------------------------------------------
# rendering (canonical text), with the enclosing precedence passed down

_PREC = {"+": 1, "-": 1, "*": 2, "div": 2}


def ref_render_expr(e: Expr) -> str:
    return _rx(e, 0)


def _rx(e: Expr, prec: int) -> str:
    if isinstance(e, Const):
        return render_value(e.value)
    if isinstance(e, (Ref, ConstRef)):
        return e.name
    if isinstance(e, BinOp):
        p = _PREC[e.op]
        s = f"{_rx(e.left, p)} {e.op} {_rx(e.right, p + 1)}"
        return f"({s})" if p < prec else s
    if isinstance(e, Neg):
        return f"-{_rx(e.arg, 3)}"
    if isinstance(e, MinOp):
        return "min(%s)" % ", ".join(_rx(a, 0) for a in e.args)
    if isinstance(e, TupleExpr):
        return "(%s)" % ", ".join(_rx(a, 0) for a in e.items)
    if isinstance(e, Proj):
        return f"{_rx(e.base, 4)}.{e.index}"
    if isinstance(e, Apply):
        return "%s(%s)" % (e.op, ", ".join(_rx(a, 0) for a in e.args))
    raise TypeError(f"cannot render {e!r}")


def ref_render_pred(p: Predicate) -> str:
    return _rp(p, 0)


# precedence: => 1, \/ 2, /\ 3, atoms 4
def _rp(p: Predicate, prec: int) -> str:
    if isinstance(p, BoolConst):
        return "true" if p.value else "false"
    if isinstance(p, Cmp):
        return f"{_rx(p.left, 1)} {p.op} {_rx(p.right, 1)}"
    if isinstance(p, InSet):
        return "%s in {%s}" % (_rx(p.expr, 1), ", ".join(p.literals))
    if isinstance(p, InBase):
        return f"{_rx(p.expr, 1)} in nat"
    if isinstance(p, Not):
        return f"!({_rp(p.arg, 0)})"
    if isinstance(p, And):
        s = " /\\ ".join(_rp(q, 3) for q in p.items)
        return f"({s})" if prec > 3 else s
    if isinstance(p, Or):
        s = " \\/ ".join(_rp(q, 2) for q in p.items)
        return f"({s})" if prec > 2 else s
    if isinstance(p, Implies):
        s = f"{_rp(p.left, 2)} => {_rp(p.right, 1)}"
        return f"({s})" if prec > 1 else s
    if isinstance(p, Exists):
        bound = ", ".join(f"{n}: {s}" for n, s in p.bound)
        return f"(exists {bound} . {_rp(p.body, 0)})"
    raise TypeError(f"cannot render {p!r}")


# ---------------------------------------------------------------------------
# traversal, with the child fields of each class spelled out

def expr_nodes(e: Expr) -> Iterator[Expr]:
    """`e` and every expression below it, parents first."""
    yield e
    if isinstance(e, BinOp):
        yield from expr_nodes(e.left)
        yield from expr_nodes(e.right)
    elif isinstance(e, Neg):
        yield from expr_nodes(e.arg)
    elif isinstance(e, (MinOp, TupleExpr, Apply)):
        for a in (e.items if isinstance(e, TupleExpr) else e.args):
            yield from expr_nodes(a)
    elif isinstance(e, Proj):
        yield from expr_nodes(e.base)


def pred_exprs(p: Predicate) -> Iterator[Expr]:
    """Every expression in the atoms of `p`, each with those below it."""
    for q in iter_subpreds(p):
        if isinstance(q, Cmp):
            yield from expr_nodes(q.left)
            yield from expr_nodes(q.right)
        elif isinstance(q, (InSet, InBase)):
            yield from expr_nodes(q.expr)


def expr_vars(e: Expr) -> set[str]:
    if isinstance(e, Ref):
        return {e.name}
    if isinstance(e, (Const, ConstRef)):
        return set()
    return {n.name for n in expr_nodes(e) if isinstance(n, Ref)}


def pred_vars(p: Predicate) -> set[str]:
    """Free variables of a predicate (existentially bound names excluded)."""
    if isinstance(p, BoolConst):
        return set()
    if isinstance(p, Cmp):
        return expr_vars(p.left) | expr_vars(p.right)
    if isinstance(p, (InSet, InBase)):
        return expr_vars(p.expr)
    if isinstance(p, Not):
        return pred_vars(p.arg)
    if isinstance(p, (And, Or)):
        out: set[str] = set()
        for q in p.items:
            out |= pred_vars(q)
        return out
    if isinstance(p, Implies):
        return pred_vars(p.left) | pred_vars(p.right)
    if isinstance(p, Exists):
        return pred_vars(p.body) - {n for n, _ in p.bound}
    raise TypeError(f"unknown predicate {p!r}")


def subst_expr(e: Expr, env: Mapping[str, Expr]) -> Expr:
    if isinstance(e, Ref):
        return env.get(e.name, e)
    if isinstance(e, BinOp):
        return BinOp(e.op, subst_expr(e.left, env), subst_expr(e.right, env))
    if isinstance(e, Neg):
        return Neg(subst_expr(e.arg, env))
    if isinstance(e, MinOp):
        return MinOp(tuple(subst_expr(a, env) for a in e.args))
    if isinstance(e, TupleExpr):
        return TupleExpr(tuple(subst_expr(a, env) for a in e.items))
    if isinstance(e, Proj):
        return Proj(subst_expr(e.base, env), e.index)
    if isinstance(e, Apply):
        return Apply(e.op, tuple(subst_expr(a, env) for a in e.args))
    return e


def subst_pred(p: Predicate, env: Mapping[str, Expr]) -> Predicate:
    if isinstance(p, BoolConst):
        return p
    if isinstance(p, Cmp):
        return Cmp(p.op, subst_expr(p.left, env), subst_expr(p.right, env))
    if isinstance(p, InSet):
        return InSet(subst_expr(p.expr, env), p.literals)
    if isinstance(p, InBase):
        return InBase(subst_expr(p.expr, env))
    if isinstance(p, Not):
        return Not(subst_pred(p.arg, env))
    if isinstance(p, And):
        return And(tuple(subst_pred(q, env) for q in p.items))
    if isinstance(p, Or):
        return Or(tuple(subst_pred(q, env) for q in p.items))
    if isinstance(p, Implies):
        return Implies(subst_pred(p.left, env), subst_pred(p.right, env))
    if isinstance(p, Exists):
        inner = {k: v for k, v in env.items() if k not in {n for n, _ in p.bound}}
        return Exists(p.bound, subst_pred(p.body, inner))
    raise TypeError(f"unknown predicate {p!r}")


def iter_subpreds(p: Predicate) -> Iterator[Predicate]:
    yield p
    if isinstance(p, (And, Or)):
        for q in p.items:
            yield from iter_subpreds(q)
    elif isinstance(p, Not):
        yield from iter_subpreds(p.arg)
    elif isinstance(p, Implies):
        yield from iter_subpreds(p.left)
        yield from iter_subpreds(p.right)
    elif isinstance(p, Exists):
        yield from iter_subpreds(p.body)


# ---------------------------------------------------------------------------
# the reference lexer

_UNICODE = {
    "∧": "/\\",
    "∨": "\\/",
    "¬": "!",
    "⇒": "=>",
    "≠": "!=",
    "≤": "<=",
    "≥": ">=",
    "∞": "infinity",
    "τ": "tau",
    "÷": "div",
    "−": "-",
}

_TWO = {"/\\", "\\/", "=>", "!=", "<=", ">=", "->", ".."}
_ONE = set("{}(),;:=<>!+-*.|@")


def lex(text: str) -> list[tuple[str, str, int, int]]:
    tokens: list[tuple[str, str, int, int]] = []
    line, col, i = 1, 1, 0
    n = len(text)

    def push(kind: str, s: str, ln: int, cl: int) -> None:
        tokens.append((kind, s, ln, cl))

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        ln, cl = line, col
        if c in _UNICODE:
            push("sym" if _UNICODE[c] not in ("infinity", "tau", "div") else "ident",
                 _UNICODE[c], ln, cl)
            i += 1
            col += 1
            continue
        if c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 1
            if j >= n:
                raise ParseFailure([Diagnostic(ln, cl, "unterminated string")])
            push("string", text[i + 1:j], ln, cl)
            col += j + 1 - i
            i = j + 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            elif j < n and text[j] == "/" and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            push("number", text[i:j], ln, cl)
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            push("ident", text[i:j], ln, cl)
            col += j - i
            i = j
            continue
        if text[i:i + 2] in _TWO:
            push("sym", text[i:i + 2], ln, cl)
            i += 2
            col += 2
            continue
        if c in _ONE:
            push("sym", c, ln, cl)
            i += 1
            col += 1
            continue
        raise ParseFailure([Diagnostic(ln, cl, f"unexpected character {c!r}")])
    tokens.append(("eof", "", line, col if tokens else 1))
    if not tokens[:-1]:
        tokens[-1] = ("eof", "", 1, 1)
    return tokens


# ---------------------------------------------------------------------------
# the layouts of catalog.json, configs.json, sequences.json and traces.jsonl

def scc_layout(scc) -> dict:
    """A class: its id, predicates, criterion and target, the ids it was
    combined from when a combination made it, and its joint predicate
    when it has one."""
    rec = {
        "id": scc.id,
        "init_states": render_pred(scc.init_states),
        "input_pairs": render_pred(scc.input_pairs),
        "criterion": scc.criterion,
        "target": scc.target,
    }
    if scc.combined_from:
        rec["combined_from"] = list(scc.combined_from)
    if scc.joint is not None:
        rec["joint"] = render_pred(scc.joint)
    return rec


def catalog_layout(classes) -> dict:
    return {"schema": SCHEMA, "classes": [scc_layout(s) for s in classes]}


def catalog_json(classes) -> str:
    return _dumps(catalog_layout(classes))


def step_layout(step) -> dict:
    """A configuration or sequence step: its class id, state and input,
    and either the function and case its trace event fired or its error,
    which is left out when there is none."""
    rec = {
        "scc": step.scc_id,
        "state": {k: render_value(v) for k, v in step.state.items()},
        "input": {"event": render_value(step.event), "time": render_value(step.time)},
    }
    if step.outcome is not None:
        function, case = step.outcome.fired
        rec["fired"] = {"function": function, "case": case}
    elif step.error is not None:
        rec["error"] = step.error
    return rec


def sequence_layout(seq) -> dict:
    return {"steps": [step_layout(s) for s in seq.steps], "covered": seq.covered}


def event_layout(step) -> dict:
    """The trace event of a step that ran, without the index of its run:
    its event's time, function and case, state, output and tie, and from
    the step its kind and, for a `dext` step, its input."""
    ev = step.outcome
    function, case = ev.fired
    rec = {
        "at": render_value(ev.at),
        "fired": {"function": function, "case": case},
        "kind": "external" if function == "dext" else "internal",
        "state": {k: render_value(v) for k, v in ev.state_after.items()},
    }
    if function == "dext":
        rec["input"] = render_value(step.event)
    if ev.output is not None:
        rec["output"] = render_value(ev.output)
    if ev.tie:
        rec["tie"] = True
    return rec


def configs_json(configs: dict) -> str:
    """`configs.json` of a campaign's steps by class id: the ones without
    an error, in id order."""
    return _dumps({"schema": SCHEMA, "configs": [
        step_layout(configs[i]) for i in sorted(configs) if configs[i].error is None]})


def sequences_json(sequences) -> str:
    return _dumps({"schema": SCHEMA, "sequences": [sequence_layout(s) for s in sequences]})


def trace_lines(runs) -> str:
    """The trace events of the steps of each run, one compact line each,
    naming the index of its run as its `sequence`."""
    return "".join(json.dumps({"sequence": i, **event_layout(s)}, sort_keys=True) + "\n"
                   for i, steps in enumerate(runs) for s in steps if s.outcome is not None)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
