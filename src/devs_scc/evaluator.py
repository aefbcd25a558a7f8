"""Exact evaluation of expressions and predicates under an environment.

The evaluator is pure: an environment maps names to values (state
variables, operator parameters, the reserved x/e/t, and resolved model
constants).  User-defined operators run their own guarded cases in an
environment containing only their parameters, the model constants and,
under a key no name can be, how many applications deep it is, so that a
runaway expansion, through results or guards alike, ends in EvalError.
Conjunction and disjunction short-circuit left to right, matching how
guard authors order their conjuncts, and an existential enumerates its
bound variables' grids in ascending product order, where a point at
which its body fails to evaluate witnesses nothing, but a name the
environment does not bind (`values.UnboundName`) is raised.

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
`values.literal_lookup`.  `compile_cases` turns a case table into its
first match, the one loop that picks a case: an operator's, and a model
function's for the simulator.  A `context.Context` keeps one closure per
atom `v op constant`, per reference and per operator compiled in it; a call
met while its operator compiles (recursion), or to an operator the model
lacks, compiles it in a context of its own when it runs, so no closure
refers back to a context.  The tree-walking interpreter the closures are
tested against lives with the tests, in `tests/oracle.py`.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Callable, Mapping

from .context import Context
from .model import GuardedCase, OperatorDef
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
    UnboundName,
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
# where an operator's environment keeps how many applications it runs
# inside; no name is this
_DEPTH = "#depth"


def eval_expr(expr: Expr, env: Env, ctx: Context | None = None) -> Value:
    """The value of `expr` in `env`, compiled for this one call."""
    return compile_expr(expr, ctx)(env)


def eval_pred(pred: Predicate, env: Env, ctx: Context | None = None) -> bool:
    """Whether `pred` holds in `env`, compiled for this one call."""
    return compile_pred(pred, ctx)(env)


# ---------------------------------------------------------------------------
# compiled closures

def compile_expr(expr: Expr, ctx: Context | None = None) -> Callable[[Env], Value]:
    """A closure computing the value of `expr` in an environment, with
    the operators of the context's model."""
    return _expr(expr, ctx)


def compile_pred(pred: Predicate, ctx: Context | None = None) -> Callable[[Env], bool]:
    """A closure deciding `pred` in an environment.  An existential
    ranges over the grids of the context's bounds; without bounds it
    raises when called."""
    if isinstance(pred, BoolConst):
        value = pred.value
        return lambda env: value
    if isinstance(pred, Cmp):
        return _compile_cmp(pred, ctx)
    if isinstance(pred, InSet):
        arg, literals = _expr(pred.expr, ctx), frozenset(pred.literals)

        def in_set(env):
            v = arg(env)
            return v.__class__ is Lit and v.name in literals
        return in_set
    if isinstance(pred, InBase):
        arg = _expr(pred.expr, ctx)
        return lambda env: arg(env).__class__ is Num
    if isinstance(pred, Not):
        inner = compile_pred(pred.arg, ctx)
        return lambda env: not inner(env)
    if isinstance(pred, (And, Or)):
        items = tuple(compile_pred(q, ctx) for q in pred.items)
        decides = isinstance(pred, Or)  # the item value that ends the scan

        def junction(env):
            for item in items:
                if item(env) == decides:
                    return decides
            return not decides
        return junction
    if isinstance(pred, Implies):
        left = compile_pred(pred.left, ctx)
        right = compile_pred(pred.right, ctx)
        return lambda env: (not left(env)) or right(env)
    if isinstance(pred, Exists):
        return _compile_exists(pred, ctx)
    return _fails(f"cannot evaluate predicate {pred!r}")


def _compile_cmp(pred: Cmp, ctx):
    # an unknown operator fails, as `compare` does, once both sides are known
    test = COMPARISONS.get(pred.op) or partial(compare, pred.op)
    left, right = pred.left, pred.right
    if isinstance(left, (Ref, ConstRef)) and isinstance(right, Const):
        # the common shape `v op constant`, with the lookup inlined; guards
        # and classes repeat these atoms a lot, so a context keeps one each
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
                    raise UnboundName(f"unbound {kind} {name}") from None
                return test(a, b)
            return ref_const
        return atom() if ctx is None else _kept(ctx.atoms, (pred.op, kind, name, b), atom)
    if isinstance(left, (Ref, ConstRef)) and isinstance(right, (Ref, ConstRef)):
        # `v op w`, both lookups inlined
        lname, rname = left.name, right.name

        def ref_ref(env):
            try:
                a, b = env[lname], env[rname]
            except KeyError:
                missing = left if lname not in env else right
                raise UnboundName(f"unbound {_kind(missing)} {missing.name}") from None
            return test(a, b)
        return ref_ref
    lhs, rhs = _expr(left, ctx), _expr(right, ctx)
    return lambda env: test(lhs(env), rhs(env))


def _compile_exists(pred: Exists, ctx):
    """The existential as a scan of its bound variables' grids, in
    ascending product order, until the compiled body holds; a point
    where the body fails to evaluate witnesses nothing, as `all_hold`
    reads it.  The grids are the context's, taken when it is compiled."""
    body = compile_pred(pred.body, ctx)
    if ctx is None or ctx.bounds is None:
        return _fails("existential membership test needs bounds")
    names = [name for name, _ in pred.bound]
    grids = [ctx.grid(name, sort) for name, sort in pred.bound]
    tests = (body,)

    def exists(env):
        inner = dict(env)
        for combo in itertools.product(*grids):
            inner.update(zip(names, combo))
            if all_hold(tests, inner):
                return True
        return False
    return exists


def all_hold(tests, env) -> bool:
    """Whether all of `tests` hold in `env`; a test whose evaluation
    fails does not hold, but a name `env` does not bind is raised."""
    try:
        for test in tests:
            if not test(env):
                return False
        return True
    except UnboundName:
        raise
    except EvalError:
        return False


def _kept(table: dict, key, build):
    """`build()`, made on first use and kept in `table` under `key`."""
    made = table.get(key)
    if made is None:
        made = table[key] = build()
    return made


def _fails(message: str):
    """A closure, of any arity, that raises EvalError(message)."""
    def fail(*_):
        raise EvalError(message)
    return fail


def _kind(ref: Ref | ConstRef) -> str:
    return "variable" if isinstance(ref, Ref) else "constant"


_ARITH = {"+": v_add, "-": v_sub, "*": v_mul, "div": v_div}


def _expr(e: Expr, ctx):
    """A closure computing the value of `e` in an environment."""
    if isinstance(e, Const):
        value = e.value
        return lambda env: value
    if isinstance(e, (Ref, ConstRef)):
        name, kind = e.name, _kind(e)

        def lookup():
            def ref(env):
                try:
                    return env[name]
                except KeyError:
                    raise UnboundName(f"unbound {kind} {name}") from None
            return ref
        # one closure per name and context: results repeat their names a lot
        return lookup() if ctx is None else _kept(ctx.refs, (kind, name), lookup)
    if isinstance(e, BinOp):
        # an unknown operator fails once both operands are known
        arith = _ARITH.get(e.op) or _fails(f"unknown operator {e.op}")
        left, right = _expr(e.left, ctx), _expr(e.right, ctx)
        return lambda env: arith(left(env), right(env))
    if isinstance(e, Neg):
        arg = _expr(e.arg, ctx)
        return lambda env: v_neg(arg(env))
    if isinstance(e, MinOp):
        args = tuple(_expr(a, ctx) for a in e.args)
        return lambda env: v_min([a(env) for a in args])
    if isinstance(e, TupleExpr):
        items = tuple(_expr(a, ctx) for a in e.items)
        return lambda env: Tup(tuple([a(env) for a in items]))
    if isinstance(e, Proj):
        return _compile_proj(e, ctx)
    if isinstance(e, Apply):
        return _compile_apply(e, ctx)
    return _fails(f"cannot evaluate {e!r}")


def _compile_apply(e: Apply, ctx):
    model = None if ctx is None else ctx.model
    if model is None:
        return _fails(f"no model supplies operator {e.op}")
    name, args = e.op, tuple(_expr(a, ctx) for a in e.args)
    call = _operator(ctx, name) if any(op.name == name for op in model.operators) else None
    if call is not None:
        return lambda env: call([a(env) for a in args], env)
    bounds = ctx.bounds

    def apply(env):
        # recursive or undefined: compiled when it runs, in a context of
        # its own; an undefined operator raises KeyError here
        call = _operator(Context(model, bounds), name)
        return call([a(env) for a in args], env)
    return apply


def _compile_proj(e: Proj, ctx):
    base, index = _expr(e.base, ctx), e.index

    def proj(env):
        v = base(env)
        if v.__class__ is not Tup:
            raise EvalError(f"projection from non-tuple {render_expr(e.base)}")
        if not 1 <= index <= len(v.items):
            raise EvalError(f"projection index {index} out of range")
        return v.items[index - 1]
    return proj


def _operator(ctx: Context, name: str):
    """The model's operator `name` compiled to `call(args, outer_env)` and
    kept in the context; None while its body compiles."""
    operators = ctx.operators
    if name not in operators:
        op = ctx.model.operator(name)
        operators[name] = None
        operators[name] = _compile_operator(ctx, op)
    return operators[name]


def _compile_operator(ctx: Context, op: OperatorDef):
    arity, consts = len(op.params), tuple(n for n, _ in ctx.model.constants)
    params = [(name, sort, f"{op.name} parameter {name}") for name, sort in op.params]
    first = compile_cases(op.cases, ctx)
    sort, where = op.result, f"{op.name} result"

    def call(args, outer_env):
        if len(args) != arity:
            raise EvalError(f"{op.name} expects {arity} arguments")
        # the model constants bound by the caller: all an operator sees of
        # it, and one application deeper than the caller runs
        env = {k: outer_env[k] for k in consts if k in outer_env}
        env[_DEPTH] = depth = outer_env.get(_DEPTH, 0) + 1
        for (name, param_sort, param_where), arg in zip(params, args):
            env[name] = coerce(arg, param_sort, param_where)
        if depth > _MAX_DEPTH:
            raise EvalError("operator expansion too deep (recursive definition?)")
        fired = first(env)
        if fired is None:
            raise EvalError(f"no case of operator {op.name} matches its arguments")
        return coerce(fired[1](env), sort, where)
    return call


def compile_cases(cases: tuple[GuardedCase, ...], ctx: Context | None = None):
    """A closure returning the first of `cases`, in order, whose guard
    holds in an environment, with its compiled result; None when no
    guard holds.  An `otherwise` case holds in every environment."""
    compiled = [
        (case, None if case.is_otherwise else compile_pred(case.guard, ctx), _expr(case.result, ctx))
        for case in cases
    ]

    def first(env):
        for case, guard, result in compiled:
            if guard is None or guard(env):
                return case, result
        return None
    return first
