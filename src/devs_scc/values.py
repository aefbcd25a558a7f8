"""Sorts and exact values.

Every scalar is exact: a number is held as an int when it is integral
and as a Fraction only when it is a proper fraction (`exact` is the one
place that decides which), time points are nonnegative numbers extended
with infinity, and finite sets are carried as named literals.  No floats
anywhere, so the equality and ordering used by guards and time
arithmetic are decidable.  Most numbers of a model are integral, and
int's operators are many times cheaper than Fraction's, which are
written in Python.

Sorts and values are records (`Record`): slotted classes with a
hand-written `__init__` that compare on class and fields and hash as the
tuple of their fields, like frozen dataclasses.  So are the syntax
nodes, hash-consed on top of it (see `syntax`), the model, the
configuration classes, and, as `Struct`s, the reports, traces and other
results whose fields are assigned after they are built.  Creating such a
class costs about 0.02 ms where a dataclass costs about 0.7 ms, and
building an instance about half as much, which matters because every
process creates the classes when it imports the package, and every
number it computes is a new `Num`.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Union


class SortError(Exception):
    """A sort (type) violation found while checking a model."""


class EvalError(Exception):
    """A runtime evaluation failure: division by zero, value outside its
    declared sort, arithmetic on infinity with no defined result."""


class UnboundName(EvalError):
    """A name the environment does not bind: no fault of the values at a
    point, so an existential's scan raises it instead of seeing no witness."""


# ---------------------------------------------------------------------------
# records

_FIELD_METHODS = """\
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return {mine} == {theirs}
    return NotImplemented

def __ne__(self, other):
    if other.__class__ is self.__class__:
        return {mine} != {theirs}
    return NotImplemented

def __hash__(self):
    return hash(({fields}))
"""


def _write_field_methods(cls: type) -> type:
    """Give a record class `__eq__`, `__ne__` and, unless it is unhashable,
    `__hash__` written out for its fields, as a dataclass's are,
    so that they read the fields without a call per field.  A single field
    is compared on its own, without the two 1-tuples a dataclass builds."""
    names = getattr(cls, "_fields", cls.__slots__)
    fields = "".join(f"self.{f}, " for f in names)
    if len(names) == 1:
        mine, theirs = f"self.{names[0]}", f"other.{names[0]}"
    else:
        mine, theirs = f"({fields})", "(%s)" % "".join(f"other.{f}, " for f in names)
    namespace: dict = {}
    exec(_FIELD_METHODS.format(mine=mine, theirs=theirs, fields=fields), namespace)
    for name in ("__eq__", "__ne__") if cls.__hash__ is None else ("__eq__", "__ne__", "__hash__"):
        method = namespace[name]
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    return cls


class Record:
    """An immutable value: the fields a subclass names in `__slots__`, in
    order, set once by its own `__init__` and never assigned again.

    Two records are equal when they are of one class with equal fields,
    a record hashes as the tuple of its fields, and it shows itself as a
    dataclass would, e.g. `Num(value=1)`.  Its instances carry no
    `__dict__`.  A record class is not subclassed further, but for
    `syntax.Node`, whose equal instances are one object (hash-consing),
    and `Struct`.  A class whose slots hold more than its fields (a memo,
    or `__weakref__`) names its fields in `_fields`.

    A class's field-wise `__eq__`, `__ne__` and `__hash__` are written
    the first time one of them runs on one of its instances, by the
    methods below, which then hand over to them: compiling them costs
    about 0.2 ms a class, and most record classes a process imports are
    never compared or hashed.
    """

    __slots__ = ()

    def __eq__(self, other):
        return _write_field_methods(self.__class__).__eq__(self, other)

    def __ne__(self, other):
        return _write_field_methods(self.__class__).__ne__(self, other)

    def __hash__(self):
        return _write_field_methods(self.__class__).__hash__(self)

    def __repr__(self) -> str:
        names = getattr(self, "_fields", self.__slots__)
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in names)
        return f"{self.__class__.__qualname__}({fields})"


class Struct(Record):
    """A record whose fields are assigned after it is built, such as a
    report that a run fills in: equal and shown as a record, but
    unhashable, as a dataclass that is not frozen is."""

    __slots__ = ()
    __hash__ = None


# ---------------------------------------------------------------------------
# sorts

class NatSort(Record):
    __slots__ = ()

    def __str__(self) -> str:
        return "nat"


class IntSort(Record):
    __slots__ = ()

    def __str__(self) -> str:
        return "int"


class RatSort(Record):
    __slots__ = ()

    def __str__(self) -> str:
        return "rational"


class TimeSort(Record):
    """Nonnegative rationals extended with infinity."""

    __slots__ = ()

    def __str__(self) -> str:
        return "time"


class EnumSort(Record):
    __slots__ = ("literals",)

    def __init__(self, literals: tuple[str, ...]) -> None:
        if not literals:
            raise SortError("enum sort needs at least one literal")
        if len(set(literals)) != len(literals):
            raise SortError("enum literals must be distinct")
        self.literals = literals

    def __str__(self) -> str:
        return "enum {%s}" % ", ".join(self.literals)


class TupleSort(Record):
    __slots__ = ("items",)

    def __init__(self, items: tuple["Sort", ...]) -> None:
        if len(items) < 2:
            raise SortError("tuple sort needs at least two components")
        self.items = items

    def __str__(self) -> str:
        return "(%s)" % ", ".join(str(s) for s in self.items)


class ExtSort(Record):
    """A base sort extended with one distinguished literal, e.g. nat | none.

    Chains of extensions model sets like the naturals plus several signal
    names: each level contributes exactly one extra literal.
    """

    __slots__ = ("base", "literal")

    def __init__(self, base: "Sort", literal: str) -> None:
        self.base = base
        self.literal = literal

    def __str__(self) -> str:
        return f"{self.base} | {self.literal}"


Sort = Union[NatSort, IntSort, RatSort, TimeSort, EnumSort, TupleSort, ExtSort]

NAT = NatSort()
INT = IntSort()
RAT = RatSort()
TIME = TimeSort()


def ext_base(sort: Sort) -> Sort:
    """Innermost non-extended sort of an extension chain."""
    while isinstance(sort, ExtSort):
        sort = sort.base
    return sort


def ext_literals(sort: Sort) -> tuple[str, ...]:
    """Literals contributed by an extension chain, innermost first."""
    out: list[str] = []
    while isinstance(sort, ExtSort):
        out.append(sort.literal)
        sort = sort.base
    return tuple(reversed(out))


def sort_literals(sort: Sort) -> tuple[str, ...]:
    """All literal names a value of this sort may carry."""
    if isinstance(sort, EnumSort):
        return sort.literals
    if isinstance(sort, ExtSort):
        return ext_literals(sort)
    return ()


def is_numeric(sort: Sort) -> bool:
    return isinstance(sort, (NatSort, IntSort, RatSort, TimeSort))


def numeric_join(a: Sort, b: Sort) -> Sort:
    """Least common numeric sort for arithmetic results."""
    order = {NatSort: 0, IntSort: 1, RatSort: 2, TimeSort: 3}
    ra, rb = order[type(a)], order[type(b)]
    return a if ra >= rb else b


# ---------------------------------------------------------------------------
# values

Rational = Union[int, Fraction]


class Num(Record):
    """An exact number: an int when integral, else a proper Fraction (see
    `exact`).  Equal ints and Fractions compare and hash equal, so a Num
    built around an integral Fraction is slower, never wrong."""

    __slots__ = ("value",)

    def __init__(self, value: Rational) -> None:
        self.value = value


class Inf(Record):
    __slots__ = ()


class Lit(Record):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class Tup(Record):
    __slots__ = ("items",)

    def __init__(self, items: tuple["Value", ...]) -> None:
        self.items = items


Value = Union[Num, Inf, Lit, Tup]

INF = Inf()
TAU = Lit("tau")


def exact(x: Rational) -> Rational:
    """The form a Num holds: an integral Fraction becomes its int."""
    if x.__class__ is int or x._denominator != 1:
        return x
    return x._numerator


def num(x) -> Num:
    return Num(exact(Fraction(x)))


def value_key(v: Value):
    """What a value holds, for a memo keyed on values: a number's `value`,
    a literal's `name`, the keys of a tuple's items, and `math.inf` for
    infinity, which equals no int, Fraction or name.  Two keys are equal
    exactly when their values are, as `exact` fixes the form a number
    holds, and a key hashes in C, where a record's `__hash__` is a call
    into Python."""
    cls = v.__class__
    if cls is Num:
        return v.value
    if cls is Lit:
        return v.name
    if cls is Tup:
        return tuple(map(value_key, v.items))
    return math.inf


def render_value(v: Value) -> str:
    if isinstance(v, Num):
        return str(v.value)
    if isinstance(v, Inf):
        return "infinity"
    if isinstance(v, Lit):
        return v.name
    return "(%s)" % ", ".join(render_value(x) for x in v.items)


def parse_number(text: str) -> Rational:
    """Exact reading of '7', '-3', '0.50' or '1/3'."""
    return exact(Fraction(text))


def value_conforms(v: Value, sort: Sort) -> bool:
    """Whether a value inhabits a sort, checking range constraints too."""
    cls, vcls = sort.__class__, v.__class__
    if cls is NatSort or cls is IntSort:
        if vcls is not Num:
            return False
        x = v.value
        if x.__class__ is not int and x._denominator != 1:
            return False
        return cls is IntSort or x >= 0
    if cls is EnumSort:
        return vcls is Lit and v.name in sort.literals
    if cls is ExtSort:
        if vcls is Lit:
            return v.name in ext_literals(sort)
        return value_conforms(v, ext_base(sort))
    if cls is TimeSort:
        if vcls is Num:
            x = v.value
            return (x if x.__class__ is int else x._numerator) >= 0
        return vcls is Inf
    if cls is RatSort:
        return vcls is Num
    if cls is TupleSort:
        return (
            vcls is Tup
            and len(v.items) == len(sort.items)
            and all(map(value_conforms, v.items, sort.items))
        )
    raise SortError(f"unknown sort {sort!r}")


def coerce(v: Value, sort: Sort, where: str = "") -> Value:
    """Check a computed value against the sort of the slot receiving it.

    This is where modeling bugs surface: a subtraction that went below the
    nat floor, a negative time, a literal landing in a slot that does not
    admit it.
    """
    if value_conforms(v, sort):
        return v
    ctx = f" in {where}" if where else ""
    raise EvalError(f"value {render_value(v)} does not fit sort {sort}{ctx}")


# ---------------------------------------------------------------------------
# exact arithmetic with infinity as the top time value.  Two ints give an
# int.  Where a Fraction takes part, the result is worked out on integer
# parts read from its slots and normalised by `exact`: Fraction's own
# operators cost several calls more (numeric-tower dispatch, properties).

def _parts(x: Rational) -> tuple[int, int]:
    """Numerator and (positive) denominator of an exact number."""
    return (x, 1) if x.__class__ is int else (x._numerator, x._denominator)


def _ratio(n: int, d: int) -> Rational:
    """n/d for a positive d, held as a Num holds it."""
    return exact(Fraction(n, d))


def v_add(a: Value, b: Value) -> Value:
    if a.__class__ is Num and b.__class__ is Num:
        x, y = a.value, b.value
        if x.__class__ is int is y.__class__:
            return Num(x + y)
        (xn, xd), (yn, yd) = _parts(x), _parts(y)
        return Num(_ratio(xn * yd + yn * xd, xd * yd))
    if isinstance(a, (Num, Inf)) and isinstance(b, (Num, Inf)):
        return INF
    raise EvalError(f"cannot add {render_value(a)} and {render_value(b)}")


def v_sub(a: Value, b: Value) -> Value:
    if a.__class__ is Num and b.__class__ is Num:
        x, y = a.value, b.value
        if x.__class__ is int is y.__class__:
            return Num(x - y)
        (xn, xd), (yn, yd) = _parts(x), _parts(y)
        return Num(_ratio(xn * yd - yn * xd, xd * yd))
    if isinstance(a, Inf) and isinstance(b, Num):
        return INF
    raise EvalError(f"cannot subtract {render_value(b)} from {render_value(a)}")


def v_mul(a: Value, b: Value) -> Value:
    if a.__class__ is Num and b.__class__ is Num:
        x, y = a.value, b.value
        if x.__class__ is int is y.__class__:
            return Num(x * y)
        (xn, xd), (yn, yd) = _parts(x), _parts(y)
        return Num(_ratio(xn * yn, xd * yd))
    raise EvalError(f"cannot multiply {render_value(a)} and {render_value(b)}")


def v_div(a: Value, b: Value) -> Value:
    """Floor division: how many times b fits into a.  Exact on rationals."""
    if a.__class__ is Num and b.__class__ is Num:
        x, y = a.value, b.value
        if x.__class__ is int is y.__class__ and y:
            return Num(x // y)
        (xn, xd), (yn, yd) = _parts(x), _parts(y)
        if yn == 0:
            raise EvalError("division by zero")
        return Num(xn * yd // (xd * yn))
    raise EvalError(f"cannot divide {render_value(a)} by {render_value(b)}")


def v_min(args: list[Value]) -> Value:
    """The least argument, the first of equal ones; infinity is the top."""
    best: Value | None = None
    for a in args:
        cls = a.__class__
        if cls is Num:
            if best is None or _lt(a, best):
                best = a
        elif cls is Inf:
            if best is None:
                best = a
        else:
            raise EvalError(f"min over non-numeric value {render_value(a)}")
    if best is None:
        raise EvalError("min of no arguments")
    return best


def v_neg(a: Value) -> Value:
    if a.__class__ is Num:
        return Num(exact(-a.value))
    raise EvalError(f"cannot negate {render_value(a)}")


# Comparisons on values.  Two ints compare directly.  Where a Fraction
# takes part, its integer parts are read from its slots (its public
# properties cost a call each, its own operators several): equality
# compares them and an order cross-multiplies them, a Fraction's
# denominator being positive and an int's 1.  Infinity ranks above every
# number.

def _eq(a: Value, b: Value) -> bool:
    cls = a.__class__
    if cls is not b.__class__:
        return False
    if cls is Num:
        x, y = a.value, b.value
        if x.__class__ is int:
            if y.__class__ is int:
                return x == y
            return y._denominator == 1 and y._numerator == x
        if y.__class__ is int:
            return x._denominator == 1 and x._numerator == y
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
            if x.__class__ is int:
                if y.__class__ is int:
                    return x < y
                return x * y._denominator < y._numerator
            if y.__class__ is int:
                return x._numerator < y * x._denominator
            return x._numerator * y._denominator < y._numerator * x._denominator
        return b.__class__ is Inf
    return False


def _le(a: Value, b: Value) -> bool:
    cls = a.__class__
    if cls is Num and b.__class__ is Num:
        x, y = a.value, b.value
        if x.__class__ is int:
            if y.__class__ is int:
                return x <= y
            return x * y._denominator <= y._numerator
        if y.__class__ is int:
            return x._numerator <= y * x._denominator
        return x._numerator * y._denominator <= y._numerator * x._denominator
    return (cls is Num or cls is Inf) and b.__class__ is Inf


# comparison operator -> test on two values
COMPARISONS = {
    "=": _eq,
    "!=": lambda a, b: not _eq(a, b),
    "<": _lt,
    "<=": _le,
    ">": lambda a, b: _lt(b, a),
    ">=": lambda a, b: _le(b, a),
}


def compare(op: str, a: Value, b: Value) -> bool:
    """Decide a comparison atom.

    Ordered comparisons where one side is a set literal or a tuple are
    false rather than errors: a guard like fc > f must simply not hold
    when fc carries the distinguished literal.
    """
    try:
        test = COMPARISONS[op]
    except KeyError:
        raise EvalError(f"unknown comparison {op}") from None
    return test(a, b)


# comparison operator -> the same test on two integers
_ORDERS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
           ">": operator.gt, ">=": operator.ge}


def compare_lookup(op: str, name: str, b: Num, unbound: str):
    """A test of `env[name] op b` on an environment, for a number b and
    one of the COMPARISONS, raising UnboundName(unbound) when `name` is not
    bound.  The lookup and the comparison share one call, and b's integer
    parts are worked out here once: a number in `env[name]` is decided
    on integer cross products, any other value by COMPARISONS[op]."""
    order, test = _ORDERS[op], COMPARISONS[op]
    bn, bd = _parts(b.value)

    def lookup_test(env):
        try:
            a = env[name]
        except KeyError:
            raise UnboundName(unbound) from None
        if a.__class__ is Num:
            x = a.value
            if x.__class__ is int:
                return order(x * bd, bn)
            return order(x._numerator * bd, bn * x._denominator)
        return test(a, b)
    return lookup_test


def literal_lookup(op: str, name: str, b: Lit, unbound: str):
    """A test of `env[name] op b` on an environment, for a literal b and
    `=` or `!=`, raising UnboundName(unbound) when `name` is not bound.  A
    value equals b only when it is a literal of b's name."""
    literal = b.name
    if op == "=":
        def equals(env):
            try:
                a = env[name]
            except KeyError:
                raise UnboundName(unbound) from None
            return a.__class__ is Lit and a.name == literal
        return equals

    def differs(env):
        try:
            a = env[name]
        except KeyError:
            raise UnboundName(unbound) from None
        return a.__class__ is not Lit or a.name != literal
    return differs
