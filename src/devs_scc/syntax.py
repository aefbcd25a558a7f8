"""Expression and predicate ASTs plus their canonical text rendering.

Every node is hash-consed (Filliatre & Conchon 2006): its constructor
looks its class and fields up in a module-level table of weak
references, so structurally equal nodes are one object and equality is
identity (`Ref("x")` is not `ConstRef("x")`).  The table keeps no node
alive; copies and pickles re-intern.  A node keeps its hash, its
canonical text, its normal form and its free variables once worked
out, so each distinct predicate is rendered, normalized and walked for
its variables once while it lives.  It lives while something refers to
it, such as a model, a class, a prepared form or a stage's memo; one
made again after it died is rendered and normalized again.

The renderer is the canonical form: two predicates are treated as
structurally equal exactly when their rendered strings agree, and the
normalizer below sorts conjuncts and disjuncts by that string so that
intersection order never changes the result.

Traversals read a node's children from its own fields, each holding a
node or a tuple of nodes (Laemmel & Peyton Jones 2003, "Scrap your
boilerplate"), so a new node class needs no walker edits.  `walk` yields
a node and all below it, parents first; `free_vars` collects the names
of `Ref`s no existential binds, kept on the node as a frozenset; `subst`
replaces those an environment names.  `map_children` rebuilds a node
from its mapped children, or gives it back when none changed, for
substitution, binding, `=>` and `exists`.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator, Mapping, Union
from weakref import ref

from .values import Record, Sort, Value, render_value

_TABLE: dict = {}  # (class, *fields) -> weak reference to the one such node


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
        node._text = node._norm = node._vars = None
        _TABLE[key] = ref(node, partial(_forget, key))
    return node


class Node(Record):
    """A syntax node, made by its class's `__new__` through `_intern`.  Its
    text, its normal form (True: itself) and its free variables are
    filled in on first use."""

    __slots__ = ("_hash", "_text", "_norm", "_vars", "__weakref__")

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

def _holds_nodes(value) -> bool:
    """Whether a field that holds no node holds a tuple of them."""
    return value.__class__ is tuple and value != () and isinstance(value[0], Node)


def children(node: Node) -> list[Node]:
    """The nodes held in `node`'s fields, in field order."""
    out = []
    for name in node.__slots__:
        value = getattr(node, name)
        if isinstance(value, Node):
            out.append(value)
        elif _holds_nodes(value):
            out.extend(value)
    return out


def map_children(node: Node, fn, *args) -> Node:
    """`node` with each child `c` replaced by `fn(c, *args)`; `node`
    itself when every child maps to itself."""
    new, changed = [], False
    for name in node.__slots__:
        old = value = getattr(node, name)
        if isinstance(value, Node):
            value = fn(value, *args)
        elif _holds_nodes(value):
            value = tuple([fn(c, *args) for c in value])
        changed = changed or value is not old and value != old
        new.append(value)
    return _intern(node.__class__, tuple(new)) if changed else node


def walk(node: Node) -> Iterator[Node]:
    """`node` and every node below it, parents first."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def free_vars(node: Node) -> frozenset[str]:
    """The names of the `Ref`s in `node`, existentially bound ones
    excluded; worked out once per node and kept on it."""
    out = node._vars
    if out is None:
        cls = node.__class__
        if cls is Ref:
            out = frozenset((node.name,))
        elif cls is Exists:
            out = free_vars(node.body).difference(name for name, _ in node.bound)
        else:
            out = frozenset().union(*map(free_vars, children(node)))
        node._vars = out
    return out


def subst(node: Node, env: Mapping[str, Expr]) -> Node:
    """`node` with each free `Ref` named in `env` replaced by its entry."""
    cls = node.__class__
    if cls is Ref:
        return env.get(node.name, node)
    if cls is Exists:
        bound = {name for name, _ in node.bound}
        env = {k: v for k, v in env.items() if k not in bound}
    return map_children(node, subst, env) if env else node


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
    if cls is Implies or cls is Exists:
        return map_children(p, normalize)
    return p

