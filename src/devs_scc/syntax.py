"""Expression and predicate ASTs plus their canonical text rendering.

Every node is hash-consed (Filliatre & Conchon 2006): its constructor
looks its class and fields up in a module-level table of weak
references, so structurally equal nodes are one object and equality is
identity (`Ref("x")` is not `ConstRef("x")`).  The table keeps no node
alive; copies and pickles re-intern.  A node keeps its hash, its
canonical text and its normal form once worked out, so each distinct
predicate is rendered and normalized once while it lives.

The renderer is the canonical form: two predicates are treated as
structurally equal exactly when their rendered strings agree, and the
normalizer below sorts conjuncts and disjuncts by that string so that
intersection order never changes the result.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from typing import Iterator, Mapping, Union
from weakref import ref

from .values import Record, Sort, Value, render_value

_TABLE: dict = {}  # (class, *fields) -> weak reference to the one such node
_HELD: list | None = None  # the nodes made while `holding`


def _forget(key: tuple, entry: ref, table: dict = _TABLE) -> None:
    other = table.pop(key, entry)
    if other is not entry:  # the key was interned again after this node died
        table[key] = other


def _intern(cls: type, fields: tuple) -> "Node":
    """The one node of class `cls` with these fields, made on a miss."""
    key = (cls, *fields)
    entry = _TABLE.get(key)
    node = entry() if entry is not None else None
    if node is None:
        node = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            setattr(node, name, value)
        node._hash = hash(fields)
        node._text = node._norm = None
        _TABLE[key] = ref(node, partial(_forget, key))
        if _HELD is not None:
            _HELD.append(node)
    return node


@contextmanager
def holding():
    """Keep every node made in the block alive until the block ends, so
    that none is made, rendered or normalized twice in it."""
    global _HELD
    outer, _HELD = _HELD, [] if _HELD is None else _HELD
    try:
        yield
    finally:
        _HELD = outer


class Node(Record):
    """A syntax node, made by its class's `__new__` through `_intern`.  Its
    text and its normal form (True: itself) are filled in on first use."""

    __slots__ = ("_hash", "_text", "_norm", "__weakref__")

    __eq__ = object.__eq__
    __ne__ = object.__ne__

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self.__slots__)


# ---------------------------------------------------------------------------
# expressions

class Const(Node):
    __slots__ = ("value",)

    def __new__(cls, value: Value) -> "Const":
        return _intern(cls, (value,))


class Ref(Node):
    """A variable: state variable, operator parameter, or one of the
    reserved names x (input), e (elapsed time), t (pair time).  The
    parser emits every bare identifier as a Ref; binding resolves it to
    a Ref, a ConstRef or a literal Const."""

    __slots__ = ("name",)

    def __new__(cls, name: str) -> "Ref":
        return _intern(cls, (name,))


class ConstRef(Node):
    """A named model constant (e.g. a timer bound) left symbolic until a
    bounds file supplies its value."""

    __slots__ = ("name",)

    def __new__(cls, name: str) -> "ConstRef":
        return _intern(cls, (name,))


class BinOp(Node):
    __slots__ = ("op", "left", "right")  # op: + - * div

    def __new__(cls, op: str, left: "Expr", right: "Expr") -> "BinOp":
        return _intern(cls, (op, left, right))


class Neg(Node):
    __slots__ = ("arg",)

    def __new__(cls, arg: "Expr") -> "Neg":
        return _intern(cls, (arg,))


class MinOp(Node):
    __slots__ = ("args",)

    def __new__(cls, args: tuple["Expr", ...]) -> "MinOp":
        return _intern(cls, (args,))


class TupleExpr(Node):
    __slots__ = ("items",)

    def __new__(cls, items: tuple["Expr", ...]) -> "TupleExpr":
        return _intern(cls, (items,))


class Proj(Node):
    __slots__ = ("base", "index")  # index: 1-based

    def __new__(cls, base: "Expr", index: int) -> "Proj":
        return _intern(cls, (base, index))


class Apply(Node):
    __slots__ = ("op", "args")

    def __new__(cls, op: str, args: tuple["Expr", ...]) -> "Apply":
        return _intern(cls, (op, args))


Expr = Union[Const, Ref, ConstRef, BinOp, Neg, MinOp, TupleExpr, Proj, Apply]


# ---------------------------------------------------------------------------
# predicates

class BoolConst(Node):
    __slots__ = ("value",)

    def __new__(cls, value: bool) -> "BoolConst":
        return _intern(cls, (value,))


TRUE = BoolConst(True)
FALSE = BoolConst(False)


class Cmp(Node):
    __slots__ = ("op", "left", "right")  # op: = != < <= > >=

    def __new__(cls, op: str, left: Expr, right: Expr) -> "Cmp":
        return _intern(cls, (op, left, right))


class InSet(Node):
    """Membership of an enum- or extension-sorted expression in a finite
    literal set."""

    __slots__ = ("expr", "literals")

    def __new__(cls, expr: Expr, literals: tuple[str, ...]) -> "InSet":
        return _intern(cls, (expr, literals))


class InBase(Node):
    """True when an extension-sorted value is drawn from the numeric base
    rather than being one of the added literals (e.g. `x in nat`)."""

    __slots__ = ("expr",)

    def __new__(cls, expr: Expr) -> "InBase":
        return _intern(cls, (expr,))


class And(Node):
    __slots__ = ("items",)

    def __new__(cls, items: tuple["Predicate", ...]) -> "And":
        return _intern(cls, (items,))


class Or(Node):
    __slots__ = ("items",)

    def __new__(cls, items: tuple["Predicate", ...]) -> "Or":
        return _intern(cls, (items,))


class Not(Node):
    __slots__ = ("arg",)

    def __new__(cls, arg: "Predicate") -> "Not":
        return _intern(cls, (arg,))


class Implies(Node):
    __slots__ = ("left", "right")

    def __new__(cls, left: "Predicate", right: "Predicate") -> "Implies":
        return _intern(cls, (left, right))


class Exists(Node):
    """Bounded existential introduced by the cases-criterion projection.
    Bound variables carry their sorts so membership tests can enumerate."""

    __slots__ = ("bound", "body")

    def __new__(cls, bound: tuple[tuple[str, Sort], ...], body: "Predicate") -> "Exists":
        return _intern(cls, (bound, body))


Predicate = Union[BoolConst, Cmp, InSet, InBase, And, Or, Not, Implies, Exists]


def conj(items: list[Predicate]) -> Predicate:
    items = [p for p in items if p is not TRUE]
    return And(tuple(items)) if len(items) > 1 else items[0] if items else TRUE


def conjuncts(p: Predicate) -> list[Predicate]:
    """Top-level conjuncts, with nested Ands flattened."""
    if p.__class__ is And:
        return [c for q in p.items for c in conjuncts(q)]
    return [] if p is TRUE else [p]


# ---------------------------------------------------------------------------
# rendering (canonical text)

_PREC = {"+": 1, "-": 1, "*": 2, "div": 2}
# how tightly a node binds, its text parenthesised in a place that binds
# tighter: => 1, \/ 2, /\ 3, atoms 4; a BinOp as its _PREC, other Exprs 4
_BINDS = {Implies: 1, Or: 2, And: 3}


def render_expr(e: Expr) -> str:
    """The canonical text of a node, rendered once and kept on it."""
    text = e._text
    if text is None:
        text = e._text = _render(e)
    return text


render_pred = render_expr


def _sub(node: Node, place: int) -> str:
    """`node`'s text in a place that binds at `place`."""
    text = render_expr(node)
    cls = node.__class__
    binds = _PREC[node.op] if cls is BinOp else _BINDS.get(cls, 4)
    return f"({text})" if binds < place else text


def _render(n: Node) -> str:
    cls = n.__class__
    if cls is Const:
        return render_value(n.value)
    if cls is Ref or cls is ConstRef:
        return n.name
    if cls is BinOp:
        p = _PREC[n.op]
        return f"{_sub(n.left, p)} {n.op} {_sub(n.right, p + 1)}"
    if cls is Neg:
        return f"-{_sub(n.arg, 3)}"
    if cls is MinOp:
        return "min(%s)" % ", ".join(map(render_expr, n.args))
    if cls is TupleExpr:
        return "(%s)" % ", ".join(map(render_expr, n.items))
    if cls is Proj:
        return f"{_sub(n.base, 4)}.{n.index}"
    if cls is Apply:
        return "%s(%s)" % (n.op, ", ".join(map(render_expr, n.args)))
    if cls is BoolConst:
        return "true" if n.value else "false"
    if cls is Cmp:
        return f"{render_expr(n.left)} {n.op} {render_expr(n.right)}"
    if cls is InSet:
        return "%s in {%s}" % (render_expr(n.expr), ", ".join(n.literals))
    if cls is InBase:
        return f"{render_expr(n.expr)} in nat"
    if cls is Not:
        return f"!({render_expr(n.arg)})"
    if cls is And:
        return " /\\ ".join(_sub(q, 3) for q in n.items)
    if cls is Or:
        return " \\/ ".join(_sub(q, 2) for q in n.items)
    if cls is Implies:
        return f"{_sub(n.left, 2)} => {_sub(n.right, 1)}"
    if cls is Exists:
        bound = ", ".join(f"{name}: {s}" for name, s in n.bound)
        return f"(exists {bound} . {render_expr(n.body)})"
    raise TypeError(f"cannot render {n!r}")


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


# ---------------------------------------------------------------------------
# normalization

def normalize(p: Predicate) -> Predicate:
    """Canonical form: flatten nested /\\ and \\/, order children by their
    rendered text, drop duplicates, collapse boolean units.  Worked out
    once per node: `p` keeps its normal form, and a normal form is marked
    as its own (a node keeping itself would be a reference cycle)."""
    n = p._norm
    if n is None:
        n = _normalize(p)
        p._norm, n._norm = n if n is not p else True, True
    return p if n is True else n


def _normalize(p: Predicate) -> Predicate:
    cls = p.__class__
    if cls is And or cls is Or:
        unit, zero = (TRUE, FALSE) if cls is And else (FALSE, TRUE)
        items: list[Predicate] = []
        for q in p.items:
            nq = normalize(q)
            if nq.__class__ is cls:
                items.extend(nq.items)
            elif nq is zero:
                return zero
            elif nq is not unit:
                items.append(nq)
        by_text = {render_pred(q): q for q in reversed(items)}  # the first of equal texts
        items = [by_text[k] for k in sorted(by_text)]
        return cls(tuple(items)) if len(items) > 1 else items[0] if items else unit
    if cls is Not:
        arg = normalize(p.arg)
        if arg.__class__ is BoolConst:
            return BoolConst(not arg.value)
        if arg.__class__ is Not:
            return arg.arg
        return Not(arg)
    if cls is Implies:
        return Implies(normalize(p.left), normalize(p.right))
    if cls is Exists:
        return Exists(p.bound, normalize(p.body))
    return p


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
