"""Exact evaluation of expressions and predicates under an environment.

The evaluator is pure: an environment maps names to values (state
variables, operator parameters, the reserved x/e/t, and resolved model
constants).  User-defined operators run their own guarded cases in an
environment containing only their parameters and the model constants.
Conjunction and disjunction short-circuit left to right, matching how
guard authors order their conjuncts, and an existential enumerates its
bound variables' grids in ascending product order.

There is one evaluator.  `compile_pred` and `compile_expr` walk the
syntax tree once and return a closure (Feeley & Lapalme 1987, "Using
closures for code generation") for every shape the parser emits; a
closure raises EvalError where evaluation fails, with the same message
whichever stage calls it.  `eval_pred` and `eval_expr` are one-shot calls
of these closures, for values decided once (re-checking a selected
witness, folding constant expressions).  The closures dispatch on value
classes directly and decide comparisons through `values.COMPARISONS`,
or, for an atom comparing a variable with a number, through
`values.compare_lookup`, and with a literal by `=` or `!=`, through
`values.literal_lookup`.
A model keeps the compiled forms of its operators, see `Model.keep`.
The tree-walking interpreter the closures are tested against lives with
the tests, in `tests/oracle.py`.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Callable, Mapping

from .bounds import var_grid
from .model import Model, OperatorDef
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
    COMPARISONS,
    EvalError,
    Lit,
    Num,
    Tup,
    Value,
    coerce,
    compare,
    compare_lookup,
    literal_lookup,
    v_add,
    v_div,
    v_min,
    v_mul,
    v_neg,
    v_sub,
)

Env = Mapping[str, Value]

_MAX_DEPTH = 64


def eval_expr(expr: Expr, env: Env, model: Model | None = None) -> Value:
    """The value of `expr` in `env`, compiled for this one call."""
    return compile_expr(expr, model)(env)


def eval_pred(
    pred: Predicate, env: Env, model: Model | None = None, bounds=None
) -> bool:
    """Whether `pred` holds in `env`, compiled for this one call."""
    return compile_pred(pred, model, bounds)(env)


# ---------------------------------------------------------------------------
# compiled closures

def compile_expr(expr: Expr, model: Model | None = None) -> Callable[[Env], Value]:
    """A closure computing the value of `expr` in an environment."""
    code = _expr(expr, model)
    return lambda env: code(env, 0)


def compile_pred(
    pred: Predicate, model: Model | None = None, bounds=None
) -> Callable[[Env], bool]:
    """A closure deciding `pred` in an environment.  An existential
    ranges over the grids of `bounds`; without bounds it raises when
    called."""
    if isinstance(pred, BoolConst):
        value = pred.value
        return lambda env: value
    if isinstance(pred, Cmp):
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
    if isinstance(pred, Exists):
        return _compile_exists(pred, model, bounds)
    return _fails(f"cannot evaluate predicate {pred!r}")


def _compile_cmp(pred: Cmp, model):
    # an unknown operator fails, as `compare` does, once both sides are known
    test = COMPARISONS.get(pred.op) or partial(compare, pred.op)
    left, right = pred.left, pred.right
    if isinstance(left, (Ref, ConstRef)) and isinstance(right, Const):
        # the common shape `v op constant`, with the lookup inlined; guards
        # and classes repeat these atoms a lot, so a model keeps one each
        name, kind, b = left.name, _kind(left), right.value

        def atom():
            if b.__class__ is Num and pred.op in COMPARISONS:
                return compare_lookup(pred.op, name, b, f"unbound {kind} {name}")
            if b.__class__ is Lit and pred.op in ("=", "!="):
                return literal_lookup(pred.op, name, b, f"unbound {kind} {name}")

            def ref_const(env):
                try:
                    a = env[name]
                except KeyError:
                    raise EvalError(f"unbound {kind} {name}") from None
                return test(a, b)
            return ref_const
        return atom() if model is None else model.keep((pred.op, kind, name, b), atom)
    if isinstance(left, (Ref, ConstRef)) and isinstance(right, (Ref, ConstRef)):
        # `v op w`, both lookups inlined
        lname, rname = left.name, right.name

        def ref_ref(env):
            try:
                a, b = env[lname], env[rname]
            except KeyError:
                missing = left if lname not in env else right
                raise EvalError(f"unbound {_kind(missing)} {missing.name}") from None
            return test(a, b)
        return ref_ref
    lhs, rhs = _expr(left, model), _expr(right, model)
    return lambda env: test(lhs(env, 0), rhs(env, 0))


def _compile_exists(pred: Exists, model, bounds):
    """The existential as a scan of its bound variables' grids, in
    ascending product order, until the compiled body holds."""
    body, bound = compile_pred(pred.body, model, bounds), pred.bound
    names = [name for name, _ in bound]

    def exists(env):
        if bounds is None:
            raise EvalError("existential membership test needs bounds")
        inner = dict(env)
        for combo in itertools.product(*[var_grid(bounds, n, sort) for n, sort in bound]):
            inner.update(zip(names, combo))
            if body(inner):
                return True
        return False
    return exists


def _fails(message: str):
    """A closure, of any arity, that raises EvalError(message)."""
    def fail(*_):
        raise EvalError(message)
    return fail


def _kind(ref: Ref | ConstRef) -> str:
    return "variable" if isinstance(ref, Ref) else "constant"


_ARITH = {"+": v_add, "-": v_sub, "*": v_mul, "div": v_div}


def _expr(e: Expr, model):
    """A closure `f(env, depth)` computing the value of `e`, where `depth`
    counts the operator applications it runs inside."""
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
    if isinstance(e, BinOp):
        # an unknown operator fails once both operands are known
        arith = _ARITH.get(e.op) or _fails(f"unknown operator {e.op}")
        left, right = _expr(e.left, model), _expr(e.right, model)
        return lambda env, depth: arith(left(env, depth), right(env, depth))
    if isinstance(e, Neg):
        arg = _expr(e.arg, model)
        return lambda env, depth: v_neg(arg(env, depth))
    if isinstance(e, MinOp):
        args = tuple(_expr(a, model) for a in e.args)
        return lambda env, depth: v_min([a(env, depth) for a in args])
    if isinstance(e, TupleExpr):
        items = tuple(_expr(a, model) for a in e.items)
        return lambda env, depth: Tup(tuple([a(env, depth) for a in items]))
    if isinstance(e, Proj):
        return _compile_proj(e, model)
    if isinstance(e, Apply):
        if model is None:
            return _fails(f"no model supplies operator {e.op}")
        name, args = e.op, tuple(_expr(a, model) for a in e.args)

        def apply(env, depth):
            call = _operator(model, name)
            return call([a(env, depth) for a in args], env, depth + 1)
        return apply
    return _fails(f"cannot evaluate {e!r}")


def _compile_proj(e: Proj, model):
    base, index = _expr(e.base, model), e.index

    def proj(env, depth):
        v = base(env, depth)
        if v.__class__ is not Tup:
            raise EvalError(f"projection from non-tuple {render_expr(e.base)}")
        if not 1 <= index <= len(v.items):
            raise EvalError(f"projection index {index} out of range")
        return v.items[index - 1]
    return proj


def _operator(model: Model, name: str):
    """The model's operator `name` compiled to `call(args, outer_env,
    depth)`; kept on the model.  A body's own operator calls resolve when
    they run, so recursive definitions compile."""
    return model.keep(("operator", name), lambda: _compile_operator(model, model.operator(name)))


def _compile_operator(model: Model, op: OperatorDef):
    arity, consts = len(op.params), tuple(n for n, _ in model.constants)
    params = [(name, sort, f"{op.name} parameter {name}") for name, sort in op.params]
    cases = [
        (None if case.is_otherwise else compile_pred(case.guard, model), _expr(case.result, model))
        for case in op.cases
    ]
    sort, where = op.result, f"{op.name} result"

    def call(args, outer_env, depth):
        if len(args) != arity:
            raise EvalError(f"{op.name} expects {arity} arguments")
        # the model constants bound by the caller: all an operator sees of it
        env = {k: outer_env[k] for k in consts if k in outer_env}
        for (name, param_sort, param_where), arg in zip(params, args):
            env[name] = coerce(arg, param_sort, param_where)
        for guard, result in cases:
            if guard is None or guard(env):
                if depth > _MAX_DEPTH:
                    raise EvalError("operator expansion too deep (recursive definition?)")
                return coerce(result(env, depth), sort, where)
        raise EvalError(f"no case of operator {op.name} matches its arguments")
    return call
