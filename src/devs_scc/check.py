"""Name resolution and sort checking for models.

Binding rewrites parser output in place of guesswork: identifiers become
state-variable references, symbolic constants, or enum literals resolved
against the sort expected where they appear.  Sort checking is
bidirectional — inference where possible, checking against an expected
sort where a literal needs context.  `validate_model` re-binds an entire
model, so it also works as a standalone audit of programmatically built
models.  A function's case table and an operator's are bound by the same
rules: distinct case ids, and at most one `otherwise` case, which comes
last.  Given enumeration bounds, it also decides by bounded search
(`sat.coverage`, `sat.satisfiable`) whether each case table leaves a
gap or hides a case behind an earlier overlapping one, and whether the
time advance can be negative, in a `context.Context` of its own.  A
model is bound once: the rebound model and its static report are kept on
the model, so a parsed model checked against bounds is not bound again.
"""

from __future__ import annotations

from .bounds import Bounds
from .context import Context
from .model import FUNCTIONS, GuardedCase, Model, OperatorDef, ValidationReport
from .sat import SatResult, coverage, satisfiable
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
    free_vars,
    map_children,
    render_expr,
    render_pred,
    walk,
)
from .values import (
    Inf,
    Lit,
    NatSort,
    Num,
    Sort,
    Struct,
    TimeSort,
    TupleSort,
    ExtSort,
    TIME,
    INT,
    NAT,
    RAT,
    ext_base,
    is_numeric,
    numeric_join,
    sort_literals,
    render_value,
    value_conforms,
)


class BindError(Exception):
    pass


class Ctx(Struct):
    """The sorts of the names in scope, the operators, and where a check is."""

    __slots__ = ("vars", "consts", "operators", "where")

    def __init__(self, vars: dict[str, Sort], consts: dict[str, Sort],
                 operators: dict[str, OperatorDef], where: str = "") -> None:
        self.vars = vars
        self.consts = consts
        self.operators = operators
        self.where = where

    def child(self, extra: dict[str, Sort]) -> "Ctx":
        return Ctx({**self.vars, **extra}, self.consts, self.operators, self.where)


def infer_expr(expr: Expr, ctx: Ctx) -> tuple[Expr, Sort]:
    if isinstance(expr, Const):
        v = expr.value
        if isinstance(v, Num):
            if v.value.denominator == 1:
                return expr, NAT if v.value >= 0 else INT
            return expr, RAT
        if isinstance(v, Inf):
            return expr, TIME
        raise BindError(f"literal {render_value(v)} has no sort here{_at(ctx)}")
    if isinstance(expr, Ref):
        if expr.name in ctx.vars:
            return expr, ctx.vars[expr.name]
        if expr.name in ctx.consts:
            return ConstRef(expr.name), ctx.consts[expr.name]
        raise BindError(f"unbound variable {expr.name}{_at(ctx)}")
    if isinstance(expr, ConstRef):
        if expr.name in ctx.consts:
            return expr, ctx.consts[expr.name]
        raise BindError(f"unknown constant {expr.name}{_at(ctx)}")
    if isinstance(expr, BinOp):
        left, ls = infer_expr(expr.left, ctx)
        right, rs = infer_expr(expr.right, ctx)
        for side, s in (("left", ls), ("right", rs)):
            if not is_numeric(s):
                raise BindError(
                    f"{side} operand of {expr.op} is not numeric{_at(ctx)}"
                )
        if expr.op == "div":
            out = NAT if isinstance(ls, NatSort) and isinstance(rs, NatSort) else INT
        elif expr.op == "-":
            # subtraction may dip below zero; the slot receiving the value
            # enforces the nat/time floor at evaluation time
            out = numeric_join(numeric_join(ls, rs), INT)
        else:
            out = numeric_join(ls, rs)
        return BinOp(expr.op, left, right), out
    if isinstance(expr, Neg):
        arg, s = infer_expr(expr.arg, ctx)
        if not is_numeric(s):
            raise BindError(f"cannot negate non-numeric value{_at(ctx)}")
        return Neg(arg), numeric_join(s, INT)
    if isinstance(expr, MinOp):
        args = []
        out: Sort = NAT
        for a in expr.args:
            ta, s = infer_expr(a, ctx)
            if not is_numeric(s):
                raise BindError(f"min over non-numeric argument{_at(ctx)}")
            args.append(ta)
            out = numeric_join(out, s)
        return MinOp(tuple(args)), out
    if isinstance(expr, TupleExpr):
        typed = [infer_expr(a, ctx) for a in expr.items]
        return (
            TupleExpr(tuple(t for t, _ in typed)),
            TupleSort(tuple(s for _, s in typed)),
        )
    if isinstance(expr, Proj):
        base, s = infer_expr(expr.base, ctx)
        if not isinstance(s, TupleSort):
            raise BindError(f"projection from non-tuple {render_expr(expr.base)}{_at(ctx)}")
        if not 1 <= expr.index <= len(s.items):
            raise BindError(f"projection index {expr.index} out of range{_at(ctx)}")
        return Proj(base, expr.index), s.items[expr.index - 1]
    if isinstance(expr, Apply):
        if expr.op not in ctx.operators:
            raise BindError(f"unknown operator {expr.op}{_at(ctx)}")
        op = ctx.operators[expr.op]
        if len(expr.args) != len(op.params):
            raise BindError(
                f"operator {op.name} expects {len(op.params)} arguments, "
                f"got {len(expr.args)}{_at(ctx)}"
            )
        args = tuple(
            check_expr(a, ctx, sort) for a, (_, sort) in zip(expr.args, op.params)
        )
        return Apply(expr.op, args), op.result
    raise BindError(f"cannot infer sort of {expr!r}{_at(ctx)}")


def check_expr(expr: Expr, ctx: Ctx, expected: Sort) -> Expr:
    # literal resolution happens only here, against the expected sort
    if isinstance(expr, Ref) and _unscoped(expr, ctx) is not None:
        if expr.name in sort_literals(expected):
            return Const(Lit(expr.name))
        raise BindError(f"unbound variable {expr.name}{_at(ctx)}")
    if isinstance(expr, Const) and _unscoped(expr, ctx) is not None:
        if expr.value.name in sort_literals(expected):
            return expr
        raise BindError(
            f"literal {expr.value.name} does not belong to {expected}{_at(ctx)}"
        )
    if isinstance(expr, TupleExpr) and isinstance(expected, TupleSort):
        if len(expr.items) != len(expected.items):
            raise BindError(
                f"tuple has {len(expr.items)} components, "
                f"{expected} needs {len(expected.items)}{_at(ctx)}"
            )
        return TupleExpr(
            tuple(check_expr(a, ctx, s) for a, s in zip(expr.items, expected.items))
        )
    typed, actual = infer_expr(expr, ctx)
    if not _compat(actual, expected):
        raise BindError(
            f"{render_expr(expr)} has sort {actual}, expected {expected}{_at(ctx)}"
        )
    return typed


def _compat(actual: Sort, expected: Sort) -> bool:
    """Static assignability; exact range checks stay with the evaluator."""
    if actual == expected:
        return True
    if is_numeric(actual) and is_numeric(expected):
        # time admits any numeric, and numeric slots reject time (may be inf)
        return not isinstance(actual, TimeSort) or isinstance(expected, TimeSort)
    if isinstance(expected, ExtSort):
        if isinstance(actual, ExtSort):
            return _compat(ext_base(actual), ext_base(expected))
        return _compat(actual, ext_base(expected))
    if isinstance(actual, TupleSort) and isinstance(expected, TupleSort):
        return len(actual.items) == len(expected.items) and all(
            _compat(a, b) for a, b in zip(actual.items, expected.items)
        )
    return False


def _orderable(sort: Sort) -> bool:
    return is_numeric(sort) or (isinstance(sort, ExtSort) and is_numeric(ext_base(sort)))


def bind_pred(pred: Predicate, ctx: Ctx) -> Predicate:
    if isinstance(pred, BoolConst):
        return pred
    if isinstance(pred, Cmp):
        # a side that names a literal binds against the other side's sort
        lname, rname = _unscoped(pred.left, ctx), _unscoped(pred.right, ctx)
        if lname is not None and rname is not None:
            raise BindError(
                f"unbound variables {lname} and {rname} in {render_pred(pred)}{_at(ctx)}"
            )
        if lname is None:
            left, ls = infer_expr(pred.left, ctx)
            right, rs = infer_expr(pred.right, ctx) if rname is None else (
                check_expr(pred.right, ctx, ls), ls)
        else:
            right, rs = infer_expr(pred.right, ctx)
            left, ls = check_expr(pred.left, ctx, rs), rs
        if pred.op in ("<", "<=", ">", ">="):
            if not (_orderable(ls) and _orderable(rs)):
                raise BindError(
                    f"cannot order {ls} against {rs} in "
                    f"{render_pred(pred)}{_at(ctx)}"
                )
        else:
            if not (_compat(ls, rs) or _compat(rs, ls)):
                raise BindError(
                    f"cannot compare {ls} with {rs} in {render_pred(pred)}{_at(ctx)}"
                )
        return Cmp(pred.op, left, right)
    if isinstance(pred, InSet):
        expr, sort = infer_expr(pred.expr, ctx)
        known = sort_literals(sort)
        for lit in pred.literals:
            if lit not in known:
                raise BindError(
                    f"{lit} is not a literal of {sort} in {render_pred(pred)}{_at(ctx)}"
                )
        return InSet(expr, pred.literals)
    if isinstance(pred, InBase):
        expr, sort = infer_expr(pred.expr, ctx)
        if not isinstance(sort, ExtSort):
            raise BindError(
                f"`in nat` needs an extended sort, got {sort}{_at(ctx)}"
            )
        return InBase(expr)
    if isinstance(pred, Exists):
        return map_children(pred, bind_pred, ctx.child(dict(pred.bound)))
    if isinstance(pred, (Not, And, Or, Implies)):
        return map_children(pred, bind_pred, ctx)
    raise BindError(f"cannot bind predicate {pred!r}{_at(ctx)}")


def _unscoped(expr: Expr, ctx: Ctx) -> str | None:
    """The first name in `expr` that only an expected sort can resolve:
    a literal, or an identifier that is neither a variable nor a
    constant, on its own or in a tuple; None when there is none."""
    if isinstance(expr, Ref):
        return None if expr.name in ctx.vars or expr.name in ctx.consts else expr.name
    if isinstance(expr, Const):
        return expr.value.name if isinstance(expr.value, Lit) else None
    if isinstance(expr, TupleExpr):
        return next(filter(None, (_unscoped(a, ctx) for a in expr.items)), None)
    return None


def _at(ctx: Ctx) -> str:
    return f" (in {ctx.where})" if ctx.where else ""


# ---------------------------------------------------------------------------
# whole-model validation

def state_result_sort(model: Model) -> Sort:
    sorts = tuple(s for _, s in model.schema.vars)
    return sorts[0] if len(sorts) == 1 else TupleSort(sorts)


def state_ctx(model: Model, where: str = "") -> Ctx:
    return Ctx(
        dict(model.schema.vars),
        dict(model.constants),
        {op.name: op for op in model.operators},
        where,
    )


def ext_ctx(model: Model, where: str = "") -> Ctx:
    ctx = state_ctx(model, where)
    return ctx.child({"e": TIME, "x": model.input_sort})


def validate_model(model: Model, bounds: Bounds | None = None) -> tuple[Model, ValidationReport]:
    """Re-bind and check a whole model.

    Returns the rebound model (identical modulo resolved names) and a
    report.  The model is usable only when the report carries no errors.
    With bounds, also warns at the least point where no case of a
    function matches (a gap), where two guarded cases both match (an
    overlap, resolved by first-match order but worth knowing about) and
    where `ta` is negative; a search that runs out of budget warns that
    its check is undecided.

    The rebound model and the report of binding it (the static report)
    are kept in `Model.validated` of `model` and of the rebound model, so
    validating either again, with other bounds or none, binds nothing:
    it starts from a copy of the static report and runs only the checks
    that need bounds.  A parsed model is the rebound model of its parse.
    """
    if model.validated is None:
        bound, static = _bind_model(model)
        # set once, here only; the rebound model keeps its report without
        # itself, not to refer to itself
        model.validated = (bound, static)
        bound.validated = (None, static)
    bound, static = model.validated
    if bound is None:
        bound = model  # kept by an earlier call that returned `model`
    report = ValidationReport(list(static.errors), list(static.warnings), list(static.notes),
                              static.ext_cases, static.int_cases, static.out_cases)
    if bounds is not None:
        report.errors.extend(bounds_errors(bound, bounds))
        if report.usable:
            _dynamic_checks(bound, bounds, report)
    return bound, report


def _bind_model(model: Model) -> tuple[Model, ValidationReport]:
    """The rebound model and the report of its static checks."""
    report = ValidationReport()
    report.ext_cases, report.int_cases, report.out_cases = (len(model.cases(fn))
                                                             for fn in FUNCTIONS)

    operators = _bind_operators(model, report)
    model = Model(model.name, model.schema, model.input_sort, model.output_sort,
                  model.delta_ext, model.delta_int, model.output_fn, model.ta,
                  model.constants, operators)

    result_sort = state_result_sort(model)
    tables = [_bind_cases(model.cases(fn), ext_ctx(model) if fn == "dext" else state_ctx(model),
                          model.output_sort if fn == "lambda" else result_sort, fn, report)
              for fn in FUNCTIONS]

    ta = model.ta
    if ta is None:
        report.errors.append("missing ta expression")
    else:
        try:
            ta = check_expr(ta, state_ctx(model, "ta"), TIME)
        except BindError as err:
            report.errors.append(str(err))

    bound = Model(model.name, model.schema, model.input_sort, model.output_sort,
                  *tables, ta, model.constants, model.operators)
    _suggest_time_vars(bound, report)
    return bound, report


def bounds_errors(model: Model, bounds: Bounds) -> list[str]:
    """A bounds `set` that names no state variable, and values of a `set`
    outside the sort of its state variable: every search would range over
    states no run can reach.  A bounds `const` outside the sort of its
    model constant: every run would read a value the model excludes."""
    state = dict(model.schema.vars)
    return [
        f"bounds set {name} names no state variable"
        for name in bounds.value_sets if name not in state
    ] + [
        f"bounds set {name} holds {render_value(v)}, outside its sort {sort}"
        for name, sort in model.schema.vars
        for v in bounds.value_sets.get(name, ())
        if not value_conforms(v, sort)
    ] + [
        f"bounds const {name} holds {render_value(v)}, outside its sort {sort}"
        for name, sort in model.constants
        if (v := bounds.const_values.get(name)) is not None and not value_conforms(v, sort)
    ]


def _bind_operators(model: Model, report: ValidationReport) -> tuple[OperatorDef, ...]:
    seen: set[str] = set()
    out: list[OperatorDef] = []
    for op in model.operators:
        if op.name in seen:
            report.errors.append(f"duplicate operator {op.name}")
            continue
        seen.add(op.name)
        ctx = Ctx(dict(op.params), dict(model.constants),
                  {o.name: o for o in model.operators}, f"operator {op.name}")
        out.append(OperatorDef(op.name, op.params, op.result,
                               _bind_cases(op.cases, ctx, op.result, ctx.where, report)))
    _check_operator_cycles(out, report)
    return tuple(out)


def _check_operator_cycles(ops: list[OperatorDef], report: ValidationReport) -> None:
    calls: dict[str, set[str]] = {}
    for op in ops:
        used: set[str] = set()
        for case in op.cases:
            nodes = (*walk(case.result), *walk(case.guard))
            used.update(n.op for n in nodes if isinstance(n, Apply))
        calls[op.name] = used
    seen: dict[str, int] = {}  # 0 visiting, 1 done

    def visit(name: str, trail: list[str]) -> None:
        if seen.get(name) == 1:
            return
        if seen.get(name) == 0:
            report.errors.append(
                "recursive operator definitions: " + " -> ".join(trail + [name])
            )
            return
        seen[name] = 0
        for callee in sorted(calls.get(name, ())):
            if callee in calls:
                visit(callee, trail + [name])
        seen[name] = 1

    for name in calls:
        visit(name, [])


def _bind_cases(cases, ctx, result_sort, fn, report) -> tuple[GuardedCase, ...]:
    """The cases of `fn`, a function or `operator f`, with guards and
    results bound in `ctx`; a case that fails to bind is kept as it is.
    Ids must be distinct and an `otherwise` case, at most one, must come
    last.  Binding errors name the case, or the place `ctx` names (an
    operator's)."""
    seen_ids: set[int] = set()
    otherwise_seen = False
    out: list[GuardedCase] = []
    for i, case in enumerate(cases):
        if case.id in seen_ids:
            report.errors.append(f"duplicate case id {case.id} in {fn}")
        seen_ids.add(case.id)
        if case.is_otherwise:
            if otherwise_seen:
                report.errors.append(f"more than one otherwise case in {fn}")
            otherwise_seen = True
            if i != len(cases) - 1:
                report.errors.append(f"otherwise case of {fn} must come last")
        at = Ctx(ctx.vars, ctx.consts, ctx.operators, ctx.where or f"{fn} case {case.id}")
        try:
            guard = case.guard if case.is_otherwise else bind_pred(case.guard, at)
            case = GuardedCase(case.id, guard, check_expr(case.result, at, result_sort),
                               case.is_otherwise)
        except BindError as err:
            report.errors.append(str(err))
        out.append(case)
    return tuple(out)


def _suggest_time_vars(model: Model, report: ValidationReport) -> None:
    """Non-binding hint: variables that look time-interacting but carry no
    @time annotation.  Looks for atoms mixing a state variable with the
    elapsed time and for variables feeding the time advance."""
    suspects = free_vars(model.ta) if model.ta is not None else frozenset()
    state_names = set(model.schema.names())
    for case in model.delta_ext:
        groups = [free_vars(n) for n in walk(case.guard) if isinstance(n, Cmp)]
        groups += [free_vars(n) for n in walk(case.result) if isinstance(n, BinOp)]
        for vs in groups:
            if "e" in vs:
                suspects |= vs & state_names
    missing = sorted(suspects & state_names - set(model.schema.time_vars))
    if missing:
        report.notes.append(
            "variables that appear time-interacting but lack @time: "
            + ", ".join(missing)
        )


def _search_space(ctx: Context, fn: str):
    """The space the checks of function `fn`'s cases search."""
    if fn != "dext":
        return ctx.state_space
    # the input first: with it last, soda's dext gap was not found within 10^6 attempts
    return [("x", ctx.grid("x", ctx.model.input_sort)), ("e", ctx.times), *ctx.state_space]


def _dynamic_checks(model: Model, bounds: Bounds, report: ValidationReport) -> None:
    ctx = Context(model, bounds)
    for fn in FUNCTIONS:
        cases = model.cases(fn)
        if not cases:
            report.warnings.append(f"{fn} has no cases")
            continue
        guarded = [c for c in cases if not c.is_otherwise]
        gap, overlaps = coverage([c.guard for c in guarded], len(guarded) < len(cases),
                                 _search_space(ctx, fn), ctx)
        if gap is not None:
            _warn(report, bounds, gap, f"{fn} is not exhaustive within bounds", f"{fn}: exhaustiveness")
        for (i, j), found in overlaps:
            pair = f"{fn} cases {guarded[i].id} and {guarded[j].id}"
            _warn(report, bounds, found, f"{pair} overlap (first match wins)", f"{pair}: overlap")
    # one search per argument of a top-level min: the search of the min
    # itself stays unknown on the elevator; warn at the least negative
    # point over all of them, else at any undecided search
    ta = model.ta
    verdicts = [satisfiable(Cmp("<", a, Const(Num(0))), ctx.state_space, ctx)
                for a in (ta.args if isinstance(ta, MinOp) else (ta,))]
    first = min(verdicts, key=lambda r: (not r.sat, r.status == "unsat", r.index))
    _warn(report, bounds, first, "ta is negative within bounds", "ta: non-negativity")


def _warn(report: ValidationReport, bounds: Bounds, result: SatResult, found: str, check: str) -> None:
    """Warn of a witness found or of the budget running out; a proof says nothing."""
    if result.sat:
        report.warnings.append(f"{found}, e.g. {_render_env(result.witness)}")
    elif result.status == "unknown":
        report.warnings.append(f"{check} undecided within {bounds.max_attempts} attempts")


def _render_env(env) -> str:
    return ", ".join(f"{k}={render_value(v)}" for k, v in sorted(env.items()))
