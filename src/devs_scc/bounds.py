"""Enumeration bounds: the finite grids behind every satisfiability answer.

Unbounded emptiness is undecidable for the predicates the criteria build,
so every check runs over per-sort grids declared in a bounds file.  An
"unsat" verdict is therefore always qualified: no witness within these
grids.  The time grid is a sample set that by default contains zero, the
declared constants, the midpoints between consecutive ones of these (from
zero to the smallest constant too) and one point beyond the largest,
which is exactly the shape the time criterion needs (t<a, t=a, a<t<b,
t=b, t>b all have inhabitants).
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from fractions import Fraction

from .model import Model
from .values import (
    INF,
    EnumSort,
    ExtSort,
    IntSort,
    Lit,
    NatSort,
    Num,
    Rational,
    RatSort,
    Sort,
    Struct,
    TimeSort,
    Tup,
    TupleSort,
    Value,
    exact,
    ext_base,
    ext_literals,
)

DEFAULT_NAT = (0, 5)
DEFAULT_INT = (-5, 5)
DEFAULT_RAT = (0, 5, 1)  # lo, hi, step


class BoundsError(Exception):
    pass


class Bounds(Struct):
    """The enumeration bounds of one bounds file, as parsed: plain data.

    Read-only once built, like `Model`: `parse_bounds_text` is its only
    writer.  A `set` names a state variable (`check.bounds_errors`
    rejects any other name); `grid` builds the grids, and a
    `context.Context` keeps each one it uses.
    """

    __slots__ = ("nat_ranges", "int_ranges", "rat_grids", "value_sets", "time_samples",
                 "const_values", "max_attempts")

    def __init__(self, nat_ranges: dict[str, tuple[int, int]] | None = None,
                 int_ranges: dict[str, tuple[int, int]] | None = None,
                 rat_grids: dict[str, tuple[Rational, Rational, Rational]] | None = None,
                 value_sets: dict[str, list[Value]] | None = None,
                 time_samples: list[Rational] | None = None,
                 const_values: dict[str, Value] | None = None,
                 max_attempts: int = 200_000) -> None:
        self.nat_ranges = {} if nat_ranges is None else nat_ranges
        self.int_ranges = {} if int_ranges is None else int_ranges
        self.rat_grids = {} if rat_grids is None else rat_grids
        self.value_sets = {} if value_sets is None else value_sets
        self.time_samples = time_samples
        self.const_values = {} if const_values is None else const_values
        self.max_attempts = max_attempts

    def validate(self) -> None:
        for name, (lo, hi) in self.nat_ranges.items():
            if max(lo, 0) > hi:
                raise BoundsError(f"empty range for {name or 'default'}: {lo}..{hi}")
        for name, (lo, hi) in self.int_ranges.items():
            if lo > hi:
                raise BoundsError(f"empty range for {name or 'default'}: {lo}..{hi}")
        for name, (lo, hi, step) in self.rat_grids.items():
            if step <= 0:
                raise BoundsError(f"step must be positive for {name or 'default'}: {step}")
            if lo > hi:
                raise BoundsError(f"empty range for {name or 'default'}: {lo}..{hi}")
        if self.time_samples is not None:
            if 0 not in self.time_samples:
                raise BoundsError("time sample set must contain 0")
            least = min(self.time_samples)
            if least < 0:
                raise BoundsError(f"time samples must not be negative: {least}")
        if self.max_attempts < 0:
            raise BoundsError(f"max attempts must not be negative: {self.max_attempts}")


def const_env(bounds: Bounds, model: Model) -> dict[str, Value]:
    """Concrete bindings for the model's symbolic constants."""
    env: dict[str, Value] = {}
    for name, _sort in model.constants:
        if name not in bounds.const_values:
            raise BoundsError(f"bounds file does not bind constant {name}")
        env[name] = bounds.const_values[name]
    return env


def grid(bounds: Bounds, name: str, sort: Sort) -> list[Value]:
    """The ascending grid of variable `name` of sort `sort`, built afresh:
    the state variable's `set`, else the sort's range for that name."""
    if name in bounds.value_sets:
        return list(bounds.value_sets[name])
    if isinstance(sort, NatSort):
        lo, hi = bounds.nat_ranges.get(name) or bounds.nat_ranges.get("") or DEFAULT_NAT
        return [Num(k) for k in range(max(lo, 0), hi + 1)]
    if isinstance(sort, IntSort):
        lo, hi = bounds.int_ranges.get(name) or bounds.int_ranges.get("") or DEFAULT_INT
        return [Num(k) for k in range(lo, hi + 1)]
    if isinstance(sort, RatSort):
        lo, hi, step = (
            bounds.rat_grids.get(name) or bounds.rat_grids.get("") or DEFAULT_RAT
        )
        out = []
        v = lo
        while v <= hi:
            out.append(Num(exact(v)))
            v += step
        return out
    if isinstance(sort, TimeSort):
        return [Num(exact(v)) for v in _time_samples(bounds)] + [INF]
    if isinstance(sort, EnumSort):
        return [Lit(n) for n in sort.literals]
    if isinstance(sort, ExtSort):
        return grid(bounds, name, ext_base(sort)) + [Lit(n) for n in ext_literals(sort)]
    if isinstance(sort, TupleSort):
        parts = [grid(bounds, name, s) for s in sort.items]
        return [Tup(tuple(combo)) for combo in itertools.product(*parts)]
    raise BoundsError(f"no grid for sort {sort}")


def _time_samples(bounds: Bounds) -> list[Rational]:
    if bounds.time_samples is not None:
        return sorted(set(bounds.time_samples))
    consts = sorted(
        v.value
        for v in bounds.const_values.values()
        if isinstance(v, Num) and v.value >= 0
    )
    samples = {0, *consts}
    for a, b in itertools.pairwise(sorted(samples)):
        samples.add(exact(Fraction(a + b, 2)))
    if consts:
        samples.add(consts[-1] + 1)
    else:
        samples.update(range(1, 4))
    return sorted(samples)


def index_digits(idx: int, sizes: Sequence[int]) -> list[int]:
    """Digits of a mixed-radix index into a product space, most
    significant first: the inverse of `digits_index`."""
    digits = [0] * len(sizes)
    for d in range(len(sizes) - 1, -1, -1):
        idx, digits[d] = divmod(idx, sizes[d])
    return digits


def digits_index(digits: Sequence[int], sizes: Sequence[int]) -> int:
    """Mixed-radix index of grid positions, most significant first, so
    that index order is the lexicographic order of the positions."""
    idx = 0
    for digit, size in zip(digits, sizes):
        idx = idx * size + digit
    return idx
