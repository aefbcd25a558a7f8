"""Standard partitions: named subdivisions of an operator's input domain.

A table carries cell predicates over formal operand names; applying it
means substituting the actual operands of an operator occurrence into
each cell.  `cuts` splits an ordered axis at points: the built-in sign
table (for arithmetic and comparisons) cuts each operand at 0, the order
table (for min) cuts one operand at the other, and the time criterion
cuts `t` at its key time points.  Tables compose by domain propagation:
the partition of a complex operator is the product of the partitions of
its parts.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Sequence
from .bounds import Bounds
from .context import Context
from .sat import coverage
from .syntax import And, Apply, Cmp, Const, Expr, Predicate, Ref, render_expr, subst, walk
from .values import Num, Record, num


class StandardPartition(Record):
    __slots__ = ("name", "formals", "cells")

    def __init__(self, name: str, formals: tuple[str, ...], cells: tuple[Predicate, ...]) -> None:
        self.name = name
        self.formals = formals
        self.cells = cells

    @property
    def arity(self) -> int:
        return len(self.formals)


def cuts(subject: Expr, points: Sequence[Expr], show: Callable[[Expr], str] = render_expr,
         below: bool = True) -> list[tuple[Predicate, str]]:
    """The classes of `subject`'s axis cut at the ascending `points`, in
    order and each with its text (a point's text as `show` gives it):
    below the first point when `below`, at each point and strictly
    between neighbours, then above the last."""
    s = render_expr(subject)
    first = points[0]
    out = [(Cmp("<", subject, first), f"{s} < {show(first)}")] if below else []
    out.append((Cmp("=", subject, first), f"{s} = {show(first)}"))
    for lo, hi in itertools.pairwise(points):
        out.append((And((Cmp(">", subject, lo), Cmp("<", subject, hi))),
                    f"{show(lo)} < {s} < {show(hi)}"))
        out.append((Cmp("=", subject, hi), f"{s} = {show(hi)}"))
    out.append((Cmp(">", subject, points[-1]), f"{s} > {show(points[-1])}"))
    return out


def builtin_tables() -> dict[str, StandardPartition]:
    """Tables shipped with the tool, keyed by operator name."""
    a, b, zero = Ref("a"), Ref("b"), Const(Num(0))
    sign = tuple(And((ca, cb)) for (ca, _), (cb, _)
                 in itertools.product(cuts(a, [zero]), cuts(b, [zero])))
    tables = {
        name: StandardPartition(name, ("a", "b"), sign)
        for name in ("<", "<=", ">", ">=", "=", "+", "-", "*", "div")
    }
    tables["min"] = StandardPartition("min", ("a", "b"), tuple(c for c, _ in cuts(a, [b])))
    return tables


def check_partition(table: StandardPartition) -> tuple[bool, bool]:
    """(disjoint, exhaustive) over the numbers c-2..c+2 for each formal,
    around 0 and around each number c the cells mention, decided by the
    bounded search; a search that runs out of budget fails its check."""
    centres = {0, *(n.value.value for cell in table.cells for n in walk(cell)
                    if isinstance(n, Const) and isinstance(n.value, Num))}
    grid = [num(v) for v in sorted({c + k for c in centres for k in range(-2, 3)})]
    gap, overlaps = coverage(table.cells, False, [(f, grid) for f in table.formals],
                             Context(None, Bounds()))
    disjoint = all(found.status == "unsat" for _, found in overlaps)
    return disjoint, gap.status == "unsat"


def instantiate(table: StandardPartition, operands) -> list[Predicate]:
    """Cells with the formals replaced by the actual operand expressions."""
    if len(operands) != table.arity:
        raise ValueError(
            f"partition {table.name} has arity {table.arity}, "
            f"got {len(operands)} operands"
        )
    env = dict(zip(table.formals, operands))
    return [subst(cell, env) for cell in table.cells]


def domain_propagation(
    outer: StandardPartition, inner: StandardPartition, feed: int,
    composed_name: str | None = None,
) -> StandardPartition:
    """Product partition of outer applied to an expression whose operand
    number `feed` (1-based) is computed by `inner`.

    The result ranges over the inner operands followed by the remaining
    outer operands; each cell conjoins one inner cell with one outer cell
    in which the fed operand is the inner application itself.
    """
    if not 1 <= feed <= outer.arity:
        raise ValueError(f"feed position {feed} out of range for {outer.name}")
    inner_args = tuple(Ref(f"i{k+1}") for k in range(inner.arity))
    outer_args = [Apply(inner.name, inner_args) if k == feed - 1 else Ref(f"o{k+1}")
                  for k in range(outer.arity)]
    cells = tuple(And((ic, oc)) for ic, oc in itertools.product(
        instantiate(inner, inner_args), instantiate(outer, outer_args)))
    formals = tuple(a.name for a in (*inner_args, *outer_args) if isinstance(a, Ref))
    name = composed_name or f"{outer.name}.{inner.name}@{feed}"
    return StandardPartition(name, formals, cells)
