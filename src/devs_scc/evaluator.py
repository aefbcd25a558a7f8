"""Exact evaluation of expressions and predicates under an environment.

The evaluator is pure: an environment maps names to values (state
variables, operator parameters, the reserved x/e/t, and resolved model
constants).  User-defined operators run their own guarded cases in an
environment containing only their parameters.  Conjunction and
disjunction short-circuit left to right, matching how guard authors
order their conjuncts.
"""

from __future__ import annotations

import itertools
from typing import Mapping

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
    env = {k: v for k, v in outer_env.items() if k in _const_names(model)}
    for (name, sort), arg in zip(op.params, args):
        env[name] = coerce(arg, sort, f"{op.name} parameter {name}")
    case = select_case(op.cases, env, model)
    if case is None:
        raise EvalError(f"no case of operator {op.name} matches its arguments")
    result = eval_expr(case.result, env, model, depth)
    return coerce(result, op.result, f"{op.name} result")


def _const_names(model: Model) -> set[str]:
    return {n for n, _ in model.constants}


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
