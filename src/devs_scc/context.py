"""One model prepared under one bounds object.

Every form the pipeline derives is a function of the model and of the
bounds it is searched within, so a `Context` built from that pair holds
them all: the state and joint spaces, and, each made on first use by
the module that uses it, the constants, the interned conjuncts (`sat`),
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

from .bounds import Bounds, const_env, joint_space, state_space
from .model import Model


class ClassForms:
    """A class's member and runnable search forms and its state and pair
    tests, each made on first use.  It holds the class, so the class's
    `id`, its key in `Context.classes`, stays its own."""

    __slots__ = ("scc", "member", "runnable", "state", "pair")

    def __init__(self, scc) -> None:
        self.scc = scc
        self.member = self.runnable = self.state = self.pair = None


class Context:
    """The forms prepared from one model under one bounds object."""

    __slots__ = ("model", "bounds", "_consts", "state_space", "joint_space", "conjuncts",
                 "executable", "atoms", "refs", "operators", "cases", "ta", "classes",
                 "__weakref__")

    def __init__(self, model: Model | None, bounds: Bounds | None = None) -> None:
        self.model, self.bounds = model, bounds
        spaces = model is not None and bounds is not None
        self.state_space = state_space(model, bounds) if spaces else None
        self.joint_space = joint_space(model, bounds) if spaces else None
        self._consts = self.executable = self.ta = None
        self.conjuncts: dict = {}  # canonical text -> sat.Conjunct
        self.atoms: dict = {}  # (operator, kind, name, constant) -> test
        self.refs: dict = {}  # (kind, name) -> lookup
        self.operators: dict = {}  # name -> call, None while it compiles
        self.cases: dict = {}  # function -> [(case, guard, result)]
        # by id(class); `campaign.run_campaign` empties it when it ends
        self.classes: dict[int, ClassForms] = {}

    @property
    def consts(self) -> dict:
        if self._consts is None:
            self._consts = {} if self.model is None else const_env(self.bounds, self.model)
        return self._consts

    def forms(self, scc) -> ClassForms:
        forms = self.classes.get(id(scc))
        if forms is None:
            forms = self.classes[id(scc)] = ClassForms(scc)
        return forms
