"""Expression and predicate ASTs plus their canonical text rendering.

Every node is a `values.Record`: immutable by convention, equal to a
node of the same class with equal fields, hashed as the tuple of its
fields.  Nodes of different classes never compare equal, so `Ref("x")`
is not `ConstRef("x")`.

The renderer is the canonical form: two predicates are treated as
structurally equal exactly when their rendered strings agree, and the
normalizer below sorts conjuncts and disjuncts by that string so that
intersection order never changes the result.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Union

from .values import Record, Sort, Value, render_value


# ---------------------------------------------------------------------------
# expressions

class Const(Record):
    __slots__ = ("value",)

    def __init__(self, value: Value) -> None:
        self.value = value


class Ref(Record):
    """A variable: state variable, operator parameter, or one of the
    reserved names x (input), e (elapsed time), t (pair time).  The
    parser emits every bare identifier as a Ref; binding resolves it to
    a Ref, a ConstRef or a literal Const."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class ConstRef(Record):
    """A named model constant (e.g. a timer bound) left symbolic until a
    bounds file supplies its value."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class BinOp(Record):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: "Expr", right: "Expr") -> None:
        self.op = op  # + - * div
        self.left = left
        self.right = right


class Neg(Record):
    __slots__ = ("arg",)

    def __init__(self, arg: "Expr") -> None:
        self.arg = arg


class MinOp(Record):
    __slots__ = ("args",)

    def __init__(self, args: tuple["Expr", ...]) -> None:
        self.args = args


class TupleExpr(Record):
    __slots__ = ("items",)

    def __init__(self, items: tuple["Expr", ...]) -> None:
        self.items = items


class Proj(Record):
    __slots__ = ("base", "index")

    def __init__(self, base: "Expr", index: int) -> None:
        self.base = base
        self.index = index  # 1-based


class Apply(Record):
    __slots__ = ("op", "args")

    def __init__(self, op: str, args: tuple["Expr", ...]) -> None:
        self.op = op
        self.args = args


Expr = Union[Const, Ref, ConstRef, BinOp, Neg, MinOp, TupleExpr, Proj, Apply]


# ---------------------------------------------------------------------------
# predicates

class BoolConst(Record):
    __slots__ = ("value",)

    def __init__(self, value: bool) -> None:
        self.value = value


TRUE = BoolConst(True)
FALSE = BoolConst(False)


class Cmp(Record):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        self.op = op  # = != < <= > >=
        self.left = left
        self.right = right


class InSet(Record):
    """Membership of an enum- or extension-sorted expression in a finite
    literal set."""

    __slots__ = ("expr", "literals")

    def __init__(self, expr: Expr, literals: tuple[str, ...]) -> None:
        self.expr = expr
        self.literals = literals


class InBase(Record):
    """True when an extension-sorted value is drawn from the numeric base
    rather than being one of the added literals (e.g. `x in nat`)."""

    __slots__ = ("expr",)

    def __init__(self, expr: Expr) -> None:
        self.expr = expr


class And(Record):
    __slots__ = ("items",)

    def __init__(self, items: tuple["Predicate", ...]) -> None:
        self.items = items


class Or(Record):
    __slots__ = ("items",)

    def __init__(self, items: tuple["Predicate", ...]) -> None:
        self.items = items


class Not(Record):
    __slots__ = ("arg",)

    def __init__(self, arg: "Predicate") -> None:
        self.arg = arg


class Implies(Record):
    __slots__ = ("left", "right")

    def __init__(self, left: "Predicate", right: "Predicate") -> None:
        self.left = left
        self.right = right


class Exists(Record):
    """Bounded existential introduced by the cases-criterion projection.
    Bound variables carry their sorts so membership tests can enumerate."""

    __slots__ = ("bound", "body")

    def __init__(self, bound: tuple[tuple[str, Sort], ...], body: "Predicate") -> None:
        self.bound = bound
        self.body = body


Predicate = Union[BoolConst, Cmp, InSet, InBase, And, Or, Not, Implies, Exists]


def conj(items: list[Predicate]) -> Predicate:
    items = [p for p in items if p != TRUE]
    if not items:
        return TRUE
    if len(items) == 1:
        return items[0]
    return And(tuple(items))


def conjuncts(p: Predicate) -> list[Predicate]:
    """Top-level conjuncts, with nested Ands flattened."""
    if isinstance(p, And):
        out: list[Predicate] = []
        for q in p.items:
            out.extend(conjuncts(q))
        return out
    if p == TRUE:
        return []
    return [p]


# ---------------------------------------------------------------------------
# rendering (canonical text)

_PREC = {"+": 1, "-": 1, "*": 2, "div": 2}


def render_expr(e: Expr) -> str:
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


def render_pred(p: Predicate) -> str:
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
# traversal

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


# ---------------------------------------------------------------------------
# normalization

def normalize(p: Predicate) -> Predicate:
    """Canonical form: flatten nested /\\ and \\/, order children by their
    rendered text, drop duplicates, collapse boolean units."""
    if isinstance(p, And):
        items: list[Predicate] = []
        for q in p.items:
            nq = normalize(q)
            if isinstance(nq, And):
                items.extend(nq.items)
            elif nq == FALSE:
                return FALSE
            elif nq != TRUE:
                items.append(nq)
        items = _uniq_sorted(items)
        if not items:
            return TRUE
        return items[0] if len(items) == 1 else And(tuple(items))
    if isinstance(p, Or):
        items = []
        for q in p.items:
            nq = normalize(q)
            if isinstance(nq, Or):
                items.extend(nq.items)
            elif nq == TRUE:
                return TRUE
            elif nq != FALSE:
                items.append(nq)
        items = _uniq_sorted(items)
        if not items:
            return FALSE
        return items[0] if len(items) == 1 else Or(tuple(items))
    if isinstance(p, Not):
        arg = normalize(p.arg)
        if isinstance(arg, BoolConst):
            return BoolConst(not arg.value)
        if isinstance(arg, Not):
            return arg.arg
        return Not(arg)
    if isinstance(p, Implies):
        return Implies(normalize(p.left), normalize(p.right))
    if isinstance(p, Exists):
        return Exists(p.bound, normalize(p.body))
    return p


def _uniq_sorted(items: list[Predicate]) -> list[Predicate]:
    seen: dict[str, Predicate] = {}
    for q in items:
        seen.setdefault(render_pred(q), q)
    return [seen[k] for k in sorted(seen)]


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
