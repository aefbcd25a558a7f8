"""In-memory representation of an atomic DEVS model.

A model owns its value universe (state schema, input and output sorts),
the guarded case lists for the two transition functions and the output
function, the time-advance expression, named symbolic constants and
user-defined operators.  Instances are immutable after construction and
safe to share across threads; the compiled forms a model keeps are derived
from it and never change what it means.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .syntax import Expr, Predicate
from .values import Sort, TimeSort


@dataclass(frozen=True)
class StateSchema:
    vars: tuple[tuple[str, Sort], ...]
    time_vars: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        names = [n for n, _ in self.vars]
        if len(set(names)) != len(names):
            raise ValueError("duplicate state variable names")
        sorts = dict(self.vars)
        for tv in self.time_vars:
            if tv not in sorts:
                raise ValueError(f"@time variable {tv} is not declared")
            if not isinstance(sorts[tv], TimeSort):
                raise ValueError(f"@time variable {tv} must have sort time")

    def names(self) -> list[str]:
        return [n for n, _ in self.vars]

    def sort_of(self, name: str):
        for n, s in self.vars:
            if n == name:
                return s
        raise KeyError(name)


@dataclass(frozen=True)
class GuardedCase:
    id: int  # 1-based position in the function definition
    guard: Predicate
    result: Expr
    is_otherwise: bool = False


@dataclass(frozen=True)
class OperatorDef:
    name: str
    params: tuple[tuple[str, Sort], ...]
    result: Sort
    cases: tuple[GuardedCase, ...]  # single unconditional case for plain bodies


@dataclass(frozen=True)
class Model:
    name: str
    schema: StateSchema
    input_sort: Sort
    output_sort: Sort
    delta_ext: tuple[GuardedCase, ...]
    delta_int: tuple[GuardedCase, ...]
    output_fn: tuple[GuardedCase, ...]
    ta: Expr
    constants: tuple[tuple[str, Sort], ...] = ()
    operators: tuple[OperatorDef, ...] = ()
    # compiled forms of the model's operators, cases and predicates, built
    # on first use by `keep`, and the prepared conjuncts and search spaces
    # of one bounds object, by `keep_for`; a model made by `replace` starts
    # without them
    compiled: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def operator(self, name: str) -> OperatorDef:
        for op in self.operators:
            if op.name == name:
                return op
        raise KeyError(name)

    def keep(self, key, build):
        """`build()`, made on first use and kept on the model under `key`."""
        code = self.compiled.get(key)
        if code is None:
            code = self.compiled[key] = build()
        return code

    def keep_for(self, bounds, key, build):
        """`build()` for these bounds, kept on the model under `key` until
        it is asked for with another bounds object (checked by identity,
        as `SCC.keep` does)."""
        entry = self.compiled.get(("bounds", key))
        if entry is None or entry[0] is not bounds:
            entry = self.compiled[("bounds", key)] = (bounds, build())
        return entry[1]


@dataclass
class ValidationReport:
    """Outcome of static validation plus optional bounded dynamic checks."""

    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    ext_cases: int = 0
    int_cases: int = 0
    out_cases: int = 0

    @property
    def usable(self) -> bool:
        return not self.errors

    def summary(self) -> str:
        status = "usable" if self.usable else "rejected"
        return (
            f"{status}: {self.ext_cases}/{self.int_cases}/{self.out_cases} cases "
            f"(dext/dint/lambda), {len(self.errors)} errors, "
            f"{len(self.warnings)} warnings"
        )
