"""Standard partitions: named subdivisions of an operator's input domain.

A table carries cell predicates over formal operand names; applying it
means substituting the actual operands of an operator occurrence into
each cell.  Built-in tables cover the usual arithmetic and comparison
operators with the nine-cell sign table, and min with the three-way
order table.  Tables compose by domain propagation: the partition of a
complex operator is the product of the partitions of its parts.
"""

from __future__ import annotations

import itertools
from .bounds import Bounds
from .context import Context
from .sat import coverage
from .syntax import And, Cmp, Const, Predicate, Ref, subst, walk
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


def _sign_cells() -> tuple[Predicate, ...]:
    zero = Const(Num(0))
    cells = []
    for la in ("<", "=", ">"):
        for lb in ("<", "=", ">"):
            cells.append(And((Cmp(la, Ref("a"), zero), Cmp(lb, Ref("b"), zero))))
    return tuple(cells)


def _order_cells() -> tuple[Predicate, ...]:
    return tuple(Cmp(op, Ref("a"), Ref("b")) for op in ("<", "=", ">"))


def builtin_tables() -> dict[str, StandardPartition]:
    """Tables shipped with the tool, keyed by operator name."""
    sign = _sign_cells()
    tables = {
        name: StandardPartition(name, ("a", "b"), sign)
        for name in ("<", "<=", ">", ">=", "=", "+", "-", "*", "div")
    }
    tables["min"] = StandardPartition("min", ("a", "b"), _order_cells())
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
    from .syntax import Apply

    if not 1 <= feed <= outer.arity:
        raise ValueError(f"feed position {feed} out of range for {outer.name}")
    inner_formals = tuple(f"i{k+1}" for k in range(inner.arity))
    rest = tuple(
        f"o{k+1}" for k in range(outer.arity) if k != feed - 1
    )
    inner_cells = instantiate(inner, [Ref(f) for f in inner_formals])
    composed = Apply(inner.name, tuple(Ref(f) for f in inner_formals))
    outer_args: list = []
    rest_iter = iter(rest)
    for k in range(outer.arity):
        outer_args.append(composed if k == feed - 1 else Ref(next(rest_iter)))
    outer_cells = instantiate(outer, outer_args)
    cells = tuple(
        And((ic, oc)) for ic, oc in itertools.product(inner_cells, outer_cells)
    )
    name = composed_name or f"{outer.name}.{inner.name}@{feed}"
    return StandardPartition(name, inner_formals + rest, cells)
