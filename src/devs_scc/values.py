"""Sorts and exact values.

Every scalar is exact: a number is held as an int when it is integral
and as a Fraction only when it is a proper fraction (`exact` is the one
place that decides which), time points are nonnegative numbers extended
with infinity, and finite sets are carried as named literals.  No floats
anywhere, so the equality and ordering used by guards and time
arithmetic are decidable.  Most numbers of a model are integral, and
int's operators are many times cheaper than Fraction's, which are
written in Python.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Union


class SortError(Exception):
    """A sort (type) violation found while checking a model."""


class EvalError(Exception):
    """A runtime evaluation failure: division by zero, value outside its
    declared sort, arithmetic on infinity with no defined result."""


# ---------------------------------------------------------------------------
# sorts

@dataclass(frozen=True)
class NatSort:
    def __str__(self) -> str:
        return "nat"


@dataclass(frozen=True)
class IntSort:
    def __str__(self) -> str:
        return "int"


@dataclass(frozen=True)
class RatSort:
    def __str__(self) -> str:
        return "rational"


@dataclass(frozen=True)
class TimeSort:
    """Nonnegative rationals extended with infinity."""

    def __str__(self) -> str:
        return "time"


@dataclass(frozen=True)
class EnumSort:
    literals: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.literals:
            raise SortError("enum sort needs at least one literal")
        if len(set(self.literals)) != len(self.literals):
            raise SortError("enum literals must be distinct")

    def __str__(self) -> str:
        return "enum {%s}" % ", ".join(self.literals)


@dataclass(frozen=True)
class TupleSort:
    items: tuple["Sort", ...]

    def __post_init__(self) -> None:
        if len(self.items) < 2:
            raise SortError("tuple sort needs at least two components")

    def __str__(self) -> str:
        return "(%s)" % ", ".join(str(s) for s in self.items)


@dataclass(frozen=True)
class ExtSort:
    """A base sort extended with one distinguished literal, e.g. nat | none.

    Chains of extensions model sets like the naturals plus several signal
    names: each level contributes exactly one extra literal.
    """

    base: "Sort"
    literal: str

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


@dataclass(frozen=True)
class Num:
    """An exact number: an int when integral, else a proper Fraction (see
    `exact`).  Equal ints and Fractions compare and hash equal, so a Num
    built around an integral Fraction is slower, never wrong."""

    value: Rational


@dataclass(frozen=True)
class Inf:
    pass


@dataclass(frozen=True)
class Lit:
    name: str


@dataclass(frozen=True)
class Tup:
    items: tuple["Value", ...]


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
    one of the COMPARISONS, raising EvalError(unbound) when `name` is not
    bound.  The lookup and the comparison share one call, and b's integer
    parts are worked out here once: a number in `env[name]` is decided
    on integer cross products, any other value by COMPARISONS[op]."""
    order, test = _ORDERS[op], COMPARISONS[op]
    bn, bd = _parts(b.value)

    def lookup_test(env):
        try:
            a = env[name]
        except KeyError:
            raise EvalError(unbound) from None
        if a.__class__ is Num:
            x = a.value
            if x.__class__ is int:
                return order(x * bd, bn)
            return order(x._numerator * bd, bn * x._denominator)
        return test(a, b)
    return lookup_test
