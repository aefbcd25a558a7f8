"""Enumeration bounds: the finite grids behind every satisfiability answer.

Unbounded emptiness is undecidable for the predicates the criteria build,
so every check runs over per-sort grids declared in a bounds file.  An
"unsat" verdict is therefore always qualified: no witness within these
grids.  The time grid is a sample set that by default contains zero, the
declared constants, midpoints between consecutive constants and one point
beyond the largest, which is exactly the shape the time criterion needs
(t<a, t=a, a<t<b, t=b, t>b all have inhabitants).
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

from .model import Model
from .values import (
    INF,
    TAU,
    TIME,
    EnumSort,
    ExtSort,
    IntSort,
    Lit,
    NatSort,
    Num,
    RatSort,
    Sort,
    TimeSort,
    Tup,
    TupleSort,
    Value,
    ext_base,
    ext_literals,
)

DEFAULT_NAT = (0, 5)
DEFAULT_INT = (-5, 5)
DEFAULT_RAT = (Fraction(0), Fraction(5), Fraction(1))  # lo, hi, step


class BoundsError(Exception):
    pass


@dataclass
class Bounds:
    """The enumeration bounds of one bounds file.

    Read-only once built, like `Model`: `parse_bounds_text` is its only
    writer, and it finishes before any grid is built.  Each grid is built
    on first use and kept, so every search over these bounds shares it;
    the grid functions below hand out fresh lists, so no caller can
    change a shared grid.  The spaces of `state_space` and `joint_space`
    are the exception: each is built once per model and bounds, kept on
    the model and shared read-only.
    """

    nat_ranges: dict[str, tuple[int, int]] = field(default_factory=dict)
    int_ranges: dict[str, tuple[int, int]] = field(default_factory=dict)
    rat_grids: dict[str, tuple[Fraction, Fraction, Fraction]] = field(default_factory=dict)
    value_sets: dict[str, list[Value]] = field(default_factory=dict)
    time_samples: list[Fraction] | None = None
    const_values: dict[str, Value] = field(default_factory=dict)
    max_attempts: int = 200_000
    # (sort, variable name) -> grid, filled by `_grid`
    _grids: dict[tuple[Sort, str], list[Value]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

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
            if Fraction(0) not in self.time_samples:
                raise BoundsError("time sample set must contain 0")
            least = min(self.time_samples)
            if least < 0:
                raise BoundsError(f"time samples must not be negative: {least}")
        if self.max_attempts < 0:
            raise BoundsError(f"max attempts must not be negative: {self.max_attempts}")

    def times(self) -> list[Fraction]:
        """Finite time samples, ascending."""
        return [v.value for v in _grid(self, TIME)[:-1]]

    def _sample_times(self) -> list[Fraction]:
        if self.time_samples is not None:
            return sorted(set(self.time_samples))
        consts = sorted(
            v.value
            for v in self.const_values.values()
            if isinstance(v, Num) and v.value >= 0
        )
        samples = {Fraction(0), *consts}
        for a, b in itertools.pairwise(consts):
            samples.add((a + b) / 2)
        if consts:
            samples.add(consts[-1] + 1)
        else:
            samples.update(Fraction(k) for k in range(1, 4))
        return sorted(samples)


def const_env(bounds: Bounds, model: Model) -> dict[str, Value]:
    """Concrete bindings for the model's symbolic constants."""
    env: dict[str, Value] = {}
    for name, _sort in model.constants:
        if name not in bounds.const_values:
            raise BoundsError(f"bounds file does not bind constant {name}")
        env[name] = bounds.const_values[name]
    return env


def var_grid(bounds: Bounds, name: str, sort: Sort) -> list[Value]:
    """Deterministic ascending domain for one variable."""
    if name in bounds.value_sets:
        return list(bounds.value_sets[name])
    return list(_grid(bounds, sort, name))


def sort_grid(bounds: Bounds, sort: Sort, name: str = "") -> list[Value]:
    return list(_grid(bounds, sort, name))


def _grid(bounds: Bounds, sort: Sort, name: str = "") -> list[Value]:
    """The shared grid of `sort` for variable `name`, built on first use.
    Callers must not change it."""
    key = (sort, name)
    grid = bounds._grids.get(key)
    if grid is None:
        grid = bounds._grids[key] = _build_grid(bounds, sort, name)
    return grid


def _build_grid(bounds: Bounds, sort: Sort, name: str) -> list[Value]:
    if isinstance(sort, NatSort):
        lo, hi = bounds.nat_ranges.get(name) or bounds.nat_ranges.get("") or DEFAULT_NAT
        return [Num(Fraction(k)) for k in range(max(lo, 0), hi + 1)]
    if isinstance(sort, IntSort):
        lo, hi = bounds.int_ranges.get(name) or bounds.int_ranges.get("") or DEFAULT_INT
        return [Num(Fraction(k)) for k in range(lo, hi + 1)]
    if isinstance(sort, RatSort):
        lo, hi, step = (
            bounds.rat_grids.get(name) or bounds.rat_grids.get("") or DEFAULT_RAT
        )
        out = []
        v = lo
        while v <= hi:
            out.append(Num(v))
            v += step
        return out
    if isinstance(sort, TimeSort):
        return [Num(v) for v in bounds._sample_times()] + [INF]
    if isinstance(sort, EnumSort):
        return [Lit(n) for n in sort.literals]
    if isinstance(sort, ExtSort):
        return _grid(bounds, ext_base(sort), name) + [Lit(n) for n in ext_literals(sort)]
    if isinstance(sort, TupleSort):
        parts = [_grid(bounds, s, name) for s in sort.items]
        return [Tup(tuple(combo)) for combo in itertools.product(*parts)]
    raise BoundsError(f"no grid for sort {sort}")


def time_points(bounds: Bounds) -> list[Value]:
    """Grid for the input-pair time t and the elapsed time e (finite only)."""
    return _grid(bounds, TIME)[:-1]


def input_grid(bounds: Bounds, model: Model, with_tau: bool) -> list[Value]:
    grid = _grid(bounds, model.input_sort, "x")
    return grid + [TAU] if with_tau else list(grid)


def state_space(model: Model, bounds: Bounds) -> list[tuple[str, list[Value]]]:
    """Ordered (name, domain) pairs for the state variables.  Built once
    per model and bounds and shared by every caller: callers must not
    change it or its grids."""
    return model.keep_for(bounds, "state_space", lambda: [
        (name, var_grid(bounds, name, sort)) for name, sort in model.schema.vars
    ])


def pair_space(model: Model, bounds: Bounds) -> list[tuple[str, list[Value]]]:
    """Domains for an input pair (x, t) including the no-event marker."""
    return [("x", input_grid(bounds, model, with_tau=True)), ("t", time_points(bounds))]


def joint_space(model: Model, bounds: Bounds) -> list[tuple[str, list[Value]]]:
    """Domains for a whole configuration.  The pair comes first so that
    executability constraints (t bounded by each timer) can prune the
    state search at the depth of the timer variables.  Built once per
    model and bounds and shared by every caller, like `state_space`:
    callers must not change it or its grids."""
    return model.keep_for(bounds, "joint_space",
                          lambda: pair_space(model, bounds) + state_space(model, bounds))


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
