"""Sorts and exact values.

Every scalar is exact: naturals, integers and rationals are Fractions,
time points are nonnegative Fractions extended with infinity, and finite
sets are carried as named literals.  No floats anywhere, so the equality
and ordering used by guards and time arithmetic are decidable.
"""

from __future__ import annotations

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

@dataclass(frozen=True)
class Num:
    value: Fraction


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


def num(x) -> Num:
    return Num(Fraction(x))


def render_value(v: Value) -> str:
    if isinstance(v, Num):
        f = v.value
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    if isinstance(v, Inf):
        return "infinity"
    if isinstance(v, Lit):
        return v.name
    return "(%s)" % ", ".join(render_value(x) for x in v.items)


def parse_number(text: str) -> Fraction:
    """Exact reading of '7', '-3', '0.50' or '1/3'."""
    return Fraction(text)


def value_conforms(v: Value, sort: Sort) -> bool:
    """Whether a value inhabits a sort, checking range constraints too."""
    if isinstance(sort, NatSort):
        return isinstance(v, Num) and v.value.denominator == 1 and v.value >= 0
    if isinstance(sort, IntSort):
        return isinstance(v, Num) and v.value.denominator == 1
    if isinstance(sort, RatSort):
        return isinstance(v, Num)
    if isinstance(sort, TimeSort):
        return isinstance(v, Inf) or (isinstance(v, Num) and v.value >= 0)
    if isinstance(sort, EnumSort):
        return isinstance(v, Lit) and v.name in sort.literals
    if isinstance(sort, ExtSort):
        if isinstance(v, Lit):
            return v.name in ext_literals(sort)
        return value_conforms(v, ext_base(sort))
    if isinstance(sort, TupleSort):
        return (
            isinstance(v, Tup)
            and len(v.items) == len(sort.items)
            and all(value_conforms(x, s) for x, s in zip(v.items, sort.items))
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
# exact arithmetic with infinity as the top time value

def v_add(a: Value, b: Value) -> Value:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    if isinstance(a, (Num, Inf)) and isinstance(b, (Num, Inf)):
        return INF
    raise EvalError(f"cannot add {render_value(a)} and {render_value(b)}")


def v_sub(a: Value, b: Value) -> Value:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    if isinstance(a, Inf) and isinstance(b, Num):
        return INF
    raise EvalError(f"cannot subtract {render_value(b)} from {render_value(a)}")


def v_mul(a: Value, b: Value) -> Value:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    raise EvalError(f"cannot multiply {render_value(a)} and {render_value(b)}")


def v_div(a: Value, b: Value) -> Value:
    """Floor division: how many times b fits into a.  Exact on rationals."""
    if isinstance(a, Num) and isinstance(b, Num):
        if b.value == 0:
            raise EvalError("division by zero")
        return Num(Fraction(a.value // b.value))
    raise EvalError(f"cannot divide {render_value(a)} by {render_value(b)}")


def v_min(args: list[Value]) -> Value:
    best: Value | None = None
    for a in args:
        if isinstance(a, Inf):
            candidate = a
        elif isinstance(a, Num):
            candidate = a
        else:
            raise EvalError(f"min over non-numeric value {render_value(a)}")
        if best is None:
            best = candidate
        elif isinstance(best, Inf):
            best = candidate
        elif isinstance(candidate, Num) and candidate.value < best.value:
            best = candidate
    if best is None:
        raise EvalError("min of no arguments")
    return best


def v_neg(a: Value) -> Value:
    if isinstance(a, Num):
        return Num(-a.value)
    raise EvalError(f"cannot negate {render_value(a)}")


# Comparisons on values.  Num values hold Fractions, always normalized
# with a positive denominator, so an ordered comparison cross-multiplies
# their integer parts, read from the Fraction's slots (its public
# properties cost a call each); infinity ranks above every number.

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
