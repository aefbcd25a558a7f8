"""In-memory representation of an atomic DEVS model.

A model owns its value universe (state schema, input and output sorts),
the guarded case lists for the two transition functions and the output
function, the time-advance expression, named symbolic constants and
user-defined operators.  Instances are not changed after construction,
but for the memo `check.validate_model` sets once, and are safe to share
across threads; the forms derived from a model under some bounds live in a
`context.Context`, not on the model.
"""

from __future__ import annotations

from .syntax import Expr, Predicate
from .values import Record, Sort, Struct, TimeSort

# the functions a model defines by guarded cases, in the order the
# `Model` fields holding their tables take
FUNCTIONS = ("dext", "dint", "lambda")
_TABLES = dict(zip(FUNCTIONS, ("delta_ext", "delta_int", "output_fn")))


class StateSchema(Record):
    __slots__ = ("vars", "time_vars")

    def __init__(self, vars: tuple[tuple[str, Sort], ...],
                 time_vars: tuple[str, ...] = ()) -> None:
        names = [n for n, _ in vars]
        if len(set(names)) != len(names):
            raise ValueError("duplicate state variable names")
        sorts = dict(vars)
        for tv in time_vars:
            if tv not in sorts:
                raise ValueError(f"@time variable {tv} is not declared")
            if not isinstance(sorts[tv], TimeSort):
                raise ValueError(f"@time variable {tv} must have sort time")
        self.vars = vars
        self.time_vars = time_vars

    def names(self) -> list[str]:
        return [n for n, _ in self.vars]

    def sort_of(self, name: str):
        for n, s in self.vars:
            if n == name:
                return s
        raise KeyError(name)


class GuardedCase(Record):
    __slots__ = ("id", "guard", "result", "is_otherwise")

    def __init__(self, id: int, guard: Predicate, result: Expr,
                 is_otherwise: bool = False) -> None:
        self.id = id  # 1-based position in the function definition
        self.guard = guard
        self.result = result
        self.is_otherwise = is_otherwise


class OperatorDef(Record):
    __slots__ = ("name", "params", "result", "cases")

    def __init__(self, name: str, params: tuple[tuple[str, Sort], ...], result: Sort,
                 cases: tuple[GuardedCase, ...]) -> None:
        self.name = name
        self.params = params
        self.result = result
        self.cases = cases  # single unconditional case for plain bodies


class Model(Record):
    """An atomic DEVS model: state schema, sorts, guarded cases and `ta`."""

    __slots__ = ("name", "schema", "input_sort", "output_sort", "delta_ext", "delta_int",
                 "output_fn", "ta", "constants", "operators", "validated", "__weakref__")
    _fields = __slots__[:-2]

    def __init__(self, name: str, schema: StateSchema, input_sort: Sort, output_sort: Sort,
                 delta_ext: tuple[GuardedCase, ...], delta_int: tuple[GuardedCase, ...],
                 output_fn: tuple[GuardedCase, ...], ta: Expr,
                 constants: tuple[tuple[str, Sort], ...] = (),
                 operators: tuple[OperatorDef, ...] = ()) -> None:
        self.name = name
        self.schema = schema
        self.input_sort = input_sort
        self.output_sort = output_sort
        self.delta_ext = delta_ext
        self.delta_int = delta_int
        self.output_fn = output_fn
        self.ta = ta
        self.constants = constants
        self.operators = operators
        # what `check.validate_model` made of the model, set once: the
        # rebound model (None when it is this one) and its static report;
        # neither compared nor shown
        self.validated: tuple | None = None

    def cases(self, fn: str) -> tuple[GuardedCase, ...]:
        """The case table of `fn`, one of FUNCTIONS; KeyError for any other name."""
        return getattr(self, _TABLES[fn])

    def operator(self, name: str) -> OperatorDef:
        for op in self.operators:
            if op.name == name:
                return op
        raise KeyError(name)


class ValidationReport(Struct):
    """Outcome of static validation plus optional bounded dynamic checks."""

    __slots__ = ("errors", "warnings", "notes", "ext_cases", "int_cases", "out_cases")

    def __init__(self, errors: list[str] | None = None, warnings: list[str] | None = None,
                 notes: list[str] | None = None, ext_cases: int = 0, int_cases: int = 0,
                 out_cases: int = 0) -> None:
        self.errors = [] if errors is None else errors
        self.warnings = [] if warnings is None else warnings
        self.notes = [] if notes is None else notes
        self.ext_cases = ext_cases
        self.int_cases = int_cases
        self.out_cases = out_cases

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
