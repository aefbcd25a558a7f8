"""One model prepared under one bounds object.

Every form the pipeline derives is a function of the model and of the
bounds it is searched within, so a `Context` built from that pair holds
them all: each variable's grid, the finite time grid and the search
spaces, made here on first use, and, each made on first use by the
module that uses it, the constants, the interned conjuncts and the
plan of each search space made here (`sat`),
the executability form and each class's `ClassForms` (`selector`), and
the compiled atom, reference, operator, case and `ta` closures
(`evaluator`, `simulator`).  It is passed to every stage explicitly, so
models and classes stay plain data, as Kodkod passes the bounds to the
solver and keeps no solver state on the formula (Torlak & Jackson 2007).
Nothing a context holds refers back to it, so dropping it frees all it
made by reference counting.  A context may lack a model, for predicates
over bounds alone, or bounds, for evaluation alone (an existential then
raises when called).  Callers must not change what it hands out.
"""

from __future__ import annotations

from .bounds import Bounds, const_env, grid as build_grid
from .model import Model
from .values import TAU, TIME, Sort, Value


class ClassForms:
    """A class's member and runnable search forms and its state tests
    (the tuple `selector.state_tests`), each made on first use.  It
    holds the class, so the class's `id`, its key in `Context.classes`,
    stays its own."""

    __slots__ = ("scc", "member", "runnable", "state")

    def __init__(self, scc) -> None:
        self.scc = scc
        self.member = self.runnable = self.state = None


class Context:
    """The forms prepared from one model under one bounds object."""

    __slots__ = ("model", "bounds", "grids", "_times", "_state", "_pairs", "_joint", "_reversed",
                 "_consts", "plans", "conjuncts", "executable", "atoms", "refs", "operators",
                 "cases", "ta", "scope", "classes", "__weakref__")

    def __init__(self, model: Model | None, bounds: Bounds | None = None) -> None:
        self.model, self.bounds = model, bounds
        # the spaces are made on first use: `evaluator._compile_apply`
        # makes a context per call of a recursive operator
        self._times = self._state = self._pairs = self._joint = self._reversed = None
        self._consts = self.executable = self.ta = None
        self.scope = ({}, ())  # the names bound and the memo of `evaluator.compile_cases`
        self.grids: dict = {}  # (name, sort) -> grid
        # id(space) -> its `sat.Plan`, None until first searched, for the
        # spaces made here only: each lives as long as the context, so its
        # id stays its own
        self.plans: dict = {}
        self.conjuncts: dict = {}  # canonical text -> sat.Conjunct
        self.atoms: dict = {}  # (operator, kind, name, constant) -> test
        self.refs: dict = {}  # (kind, name) -> lookup
        self.operators: dict = {}  # name -> call, None while it compiles
        self.cases: dict = {}  # function -> its first match, `simulator._fire`
        # by id(class); `campaign.run_campaign` empties it when it ends
        self.classes: dict[int, ClassForms] = {}

    @property
    def consts(self) -> dict:
        if self._consts is None:
            self._consts = {} if self.model is None else const_env(self.bounds, self.model)
        return self._consts

    def grid(self, name: str, sort: Sort) -> list[Value]:
        """The grid of variable `name` of sort `sort`, built once."""
        made = self.grids.get((name, sort))
        if made is None:
            made = self.grids[name, sort] = build_grid(self.bounds, name, sort)
        return made

    @property
    def times(self) -> list[Value]:
        """The finite time grid: the grid of the pair time t and of the
        elapsed time e."""
        if self._times is None:
            self._times = self.grid("", TIME)[:-1]
        return self._times

    @property
    def state_space(self) -> list[tuple[str, list[Value]]]:
        """(name, grid) of each state variable, in schema order."""
        if self._state is None:
            self._state = self._own([(n, self.grid(n, sort)) for n, sort in self.model.schema.vars])
        return self._state

    @property
    def pair_spaces(self) -> tuple[list, list]:
        """The (x, t) spaces of a chaining step, indexed by whether x
        ranges over the no-event marker too."""
        if self._pairs is None:
            xs = self.grid("x", self.model.input_sort)
            self._pairs = (self._own([("x", xs), ("t", self.times)]),
                           self._own([("x", [*xs, TAU]), ("t", self.times)]))
        return self._pairs

    @property
    def joint_space(self) -> list[tuple[str, list[Value]]]:
        """A whole configuration: the input pair (x, t), with the no-event
        marker, then the state.  The pair comes first so that executability
        constraints (t bounded by each timer) can prune the state search at
        the depth of the timer variables."""
        if self._joint is None:
            self._joint = self._own([*self.pair_spaces[True], *self.state_space])
        return self._joint

    @property
    def reversed_joint_space(self) -> list[tuple[str, list[Value]]]:
        """The joint space in reverse order: the state variables last to
        first, then t, then x; the probe's numbering of the joint grid."""
        if self._reversed is None:
            self._reversed = self._own(self.joint_space[::-1])
        return self._reversed

    def _own(self, space: list) -> list:
        """`space`, with a slot for its search plan."""
        self.plans[id(space)] = None
        return space

    def forms(self, scc) -> ClassForms:
        forms = self.classes.get(id(scc))
        if forms is None:
            forms = self.classes[id(scc)] = ClassForms(scc)
        return forms
