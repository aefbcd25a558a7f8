"""Exact evaluation of expressions and predicates under an environment.

The evaluator is pure: an environment maps names to values (state
variables, operator parameters, the reserved x/e/t, and resolved model
constants).  User-defined operators run their own guarded cases in an
environment containing only their parameters and the model constants.
Conjunction and disjunction short-circuit left to right, matching how
guard authors order their conjuncts.

Two forms share these semantics.  `eval_pred` and `eval_expr` walk the
syntax tree on every call; they are the reference oracle, used where a
value is decided once (re-checking a selected witness, folding constant
expressions) and by the tests.  `compile_pred` and `compile_expr`
walk the tree once and return a closure (Feeley & Lapalme 1987, "Using
closures for code generation") that gives the same result and raises
EvalError in the same cases; the searches and the simulator call these.
The closures dispatch on value classes directly and decide numeric
comparisons by cross-multiplying the integer numerators and denominators
rather than through Fraction's generic comparison.  A model keeps the
compiled forms of its operators, see `Model.keep`.
"""

from __future__ import annotations

import itertools
from typing import Callable, Mapping

from .model import GuardedCase, Model, OperatorDef
from .syntax import (
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
    render_expr,
)
from .values import (
    EvalError,
    Inf,
    Lit,
    Num,
    Tup,
    Value,
    coerce,
    compare,
    v_add,
    v_div,
    v_min,
    v_mul,
    v_neg,
    v_sub,
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
            raise EvalError(f"unbound variable {expr.name}") from None
    if isinstance(expr, ConstRef):
        try:
            return env[expr.name]
        except KeyError:
            raise EvalError(f"unbound constant {expr.name}") from None
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
    case = select_case(op.cases, env, model)
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
    pred: Predicate, env: Env, model: Model | None = None, bounds=None
) -> bool:
    if isinstance(pred, BoolConst):
        return pred.value
    if isinstance(pred, Cmp):
        return compare(
            pred.op, eval_expr(pred.left, env, model), eval_expr(pred.right, env, model)
        )
    if isinstance(pred, InSet):
        v = eval_expr(pred.expr, env, model)
        return isinstance(v, Lit) and v.name in pred.literals
    if isinstance(pred, InBase):
        return isinstance(eval_expr(pred.expr, env, model), Num)
    if isinstance(pred, Not):
        return not eval_pred(pred.arg, env, model, bounds)
    if isinstance(pred, And):
        return all(eval_pred(q, env, model, bounds) for q in pred.items)
    if isinstance(pred, Or):
        return any(eval_pred(q, env, model, bounds) for q in pred.items)
    if isinstance(pred, Implies):
        return (not eval_pred(pred.left, env, model, bounds)) or eval_pred(
            pred.right, env, model, bounds
        )
    if isinstance(pred, Exists):
        if bounds is None:
            raise EvalError("existential membership test needs bounds")
        from .bounds import var_grid  # local import to avoid a cycle

        grids = [var_grid(bounds, name, sort) for name, sort in pred.bound]
        names = [name for name, _ in pred.bound]
        inner = dict(env)
        for combo in itertools.product(*grids):
            inner.update(zip(names, combo))
            if eval_pred(pred.body, inner, model, bounds):
                return True
        return False
    raise EvalError(f"cannot evaluate predicate {pred!r}")


def select_case(
    cases: tuple[GuardedCase, ...], env: Env, model: Model | None, bounds=None
) -> GuardedCase | None:
    """First case whose guard holds; otherwise-cases always hold."""
    for case in cases:
        if case.is_otherwise or eval_pred(case.guard, env, model, bounds):
            return case
    return None


# ---------------------------------------------------------------------------
# compiled closures

def compile_expr(expr: Expr, model: Model | None = None) -> Callable[[Env], Value]:
    """A closure computing `eval_expr(expr, env, model)` for an environment."""
    code = _expr(expr, model)
    return lambda env: code(env, 0)


def compile_pred(
    pred: Predicate, model: Model | None = None, bounds=None
) -> Callable[[Env], bool]:
    """A closure computing `eval_pred(pred, env, model, bounds)` for an
    environment, raising EvalError where it raises.  Existentials, and
    shapes the parser never produces, are left to `eval_pred` itself."""
    if isinstance(pred, BoolConst):
        value = pred.value
        return lambda env: value
    if isinstance(pred, Cmp) and pred.op in _TESTS:
        return _compile_cmp(pred, model)
    if isinstance(pred, InSet):
        arg, literals = _expr(pred.expr, model), frozenset(pred.literals)

        def in_set(env):
            v = arg(env, 0)
            return v.__class__ is Lit and v.name in literals
        return in_set
    if isinstance(pred, InBase):
        arg = _expr(pred.expr, model)
        return lambda env: arg(env, 0).__class__ is Num
    if isinstance(pred, Not):
        inner = compile_pred(pred.arg, model, bounds)
        return lambda env: not inner(env)
    if isinstance(pred, (And, Or)):
        items = tuple(compile_pred(q, model, bounds) for q in pred.items)
        decides = isinstance(pred, Or)  # the item value that ends the scan

        def junction(env):
            for item in items:
                if item(env) == decides:
                    return decides
            return not decides
        return junction
    if isinstance(pred, Implies):
        left = compile_pred(pred.left, model, bounds)
        right = compile_pred(pred.right, model, bounds)
        return lambda env: (not left(env)) or right(env)
    return lambda env: eval_pred(pred, env, model, bounds)


def _compile_cmp(pred: Cmp, model):
    test, left, right = _TESTS[pred.op], pred.left, pred.right
    if isinstance(left, (Ref, ConstRef)) and isinstance(right, Const):
        # the common shape `v op constant`, with the lookup inlined; guards
        # and classes repeat these atoms a lot, so a model keeps one each
        name, kind, b = left.name, _kind(left), right.value

        def atom():
            def ref_const(env):
                try:
                    a = env[name]
                except KeyError:
                    raise EvalError(f"unbound {kind} {name}") from None
                return test(a, b)
            return ref_const
        return atom() if model is None else model.keep((pred.op, kind, name, b), atom)
    lhs, rhs = _expr(left, model), _expr(right, model)
    return lambda env: test(lhs(env, 0), rhs(env, 0))


def _kind(ref: Ref | ConstRef) -> str:
    return "variable" if isinstance(ref, Ref) else "constant"


# Comparisons on values, as `compare` decides them.  Num values hold
# Fractions, always normalized with a positive denominator, so an ordered
# comparison cross-multiplies their integer parts, read from the
# Fraction's slots (its public properties cost a call each); infinity
# ranks above every number, and a literal or tuple on an ordered atom
# compares false.

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


_TESTS = {
    "=": _eq,
    "!=": lambda a, b: not _eq(a, b),
    "<": _lt,
    "<=": _le,
    ">": lambda a, b: _lt(b, a),
    ">=": lambda a, b: _le(b, a),
}

_ARITH = {"+": v_add, "-": v_sub, "*": v_mul, "div": v_div}


def _expr(e: Expr, model):
    """A closure `f(env, depth)` computing `eval_expr(e, env, model, depth)`.
    Negations, projections and shapes the parser never produces are left
    to `eval_expr` itself."""
    if isinstance(e, Const):
        value = e.value
        return lambda env, depth: value
    if isinstance(e, (Ref, ConstRef)):
        name, kind = e.name, _kind(e)

        def lookup():
            def ref(env, depth):
                try:
                    return env[name]
                except KeyError:
                    raise EvalError(f"unbound {kind} {name}") from None
            return ref
        # one closure per name and model: results repeat their names a lot
        return lookup() if model is None else model.keep((kind, name), lookup)
    if isinstance(e, BinOp) and e.op in _ARITH:
        arith, left, right = _ARITH[e.op], _expr(e.left, model), _expr(e.right, model)
        return lambda env, depth: arith(left(env, depth), right(env, depth))
    if isinstance(e, MinOp):
        args = tuple(_expr(a, model) for a in e.args)
        return lambda env, depth: v_min([a(env, depth) for a in args])
    if isinstance(e, TupleExpr):
        items = tuple(_expr(a, model) for a in e.items)
        return lambda env, depth: Tup(tuple([a(env, depth) for a in items]))
    if isinstance(e, Apply) and model is not None:
        name, args = e.op, tuple(_expr(a, model) for a in e.args)

        def apply(env, depth):
            call = _operator(model, name)
            return call([a(env, depth) for a in args], env, depth + 1)
        return apply
    return lambda env, depth: eval_expr(e, env, model, depth)


def _operator(model: Model, name: str):
    """The model's operator `name` compiled to `call(args, outer_env,
    depth)`, which applies it as `apply_operator` does; kept on the model.
    A body's own operator calls resolve when they run, so recursive
    definitions compile."""
    return model.keep(("operator", name), lambda: _compile_operator(model, model.operator(name)))


def _compile_operator(model: Model, op: OperatorDef):
    arity, consts = len(op.params), _const_names(model)
    params = [(name, sort, f"{op.name} parameter {name}") for name, sort in op.params]
    cases = [
        (None if case.is_otherwise else compile_pred(case.guard, model), _expr(case.result, model))
        for case in op.cases
    ]
    sort, where = op.result, f"{op.name} result"

    def call(args, outer_env, depth):
        if len(args) != arity:
            raise EvalError(f"{op.name} expects {arity} arguments")
        env = _constants(outer_env, consts)
        for (name, param_sort, param_where), arg in zip(params, args):
            env[name] = coerce(arg, param_sort, param_where)
        for guard, result in cases:
            if guard is None or guard(env):
                if depth > _MAX_DEPTH:
                    raise EvalError("operator expansion too deep (recursive definition?)")
                return coerce(result(env, depth), sort, where)
        raise EvalError(f"no case of operator {op.name} matches its arguments")
    return call
