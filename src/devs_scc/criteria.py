"""The partition criteria: each maps a model plus a user selection to a
list of simulation configuration classes with provenance.

Criteria are pure functions of (model, selection, bounds) with no shared
state but the forms their `context.Context` keeps, so applying them in
any order yields the same catalog; those that search take the context,
the others the model.  A criterion that meets one search twice in a call
(the cells of sibling partition occurrences, the projection clusters
that cases share) makes it once, and keeps nothing past the call.  Each
function returns its classes with local 1-based ids plus notes for the
report; campaign assembly renumbers globally and removes structural
duplicates.
"""

from __future__ import annotations

from .context import Context
from .evaluator import eval_expr
from .model import GuardedCase, Model
from .partitions import StandardPartition, cuts, instantiate
from .sat import prepare_conjuncts, project_exists, satisfiable
from .scc import SCC, make_scc
from .syntax import (
    And,
    Apply,
    Cmp,
    Const,
    Expr,
    InBase,
    Predicate,
    Ref,
    TRUE,
    conj,
    conjuncts,
    free_vars,
    normalize,
    render_expr,
    render_pred,
    subst,
    walk,
)
from .dnf import to_dnf
from .values import (
    EnumSort,
    EvalError,
    ExtSort,
    Inf,
    Lit,
    Num,
    Rational,
    Record,
    TAU,
    TIME,
    ext_base,
    ext_literals,
    is_numeric,
)


class CriterionError(Exception):
    pass


TAU_PAIR = And((Cmp("=", Ref("x"), Const(TAU)), Cmp("=", Ref("t"), Const(Num(0)))))


def _e_to_t(pred: Predicate) -> Predicate:
    return subst(pred, {"e": Ref("t")})


# ---------------------------------------------------------------------------
# transition functions defined by cases

def cases_criterion(ctx: Context, include_otherwise: bool = False) -> tuple[list[SCC], list[str]]:
    """One class per case of the external and internal transition
    functions.

    For an external case with guard P(s,e,x): the states are those from
    which some elapsed time and input satisfy P, and the input pairs are
    the (x,t) for which some such state exists, reading the pair's t as
    the elapsed time at which the event hits the initial state.  For an
    internal case the states are exactly the guard and the pair is
    (tau, 0): configure the state and let the pending transition fire.
    Cases share conjuncts, so the projections search each distinct
    cluster once per call (`project_exists`'s `decided`).
    """
    model = ctx.model
    notes: list[str] = []
    sccs: list[SCC] = []
    state_names = [(n, s) for n, s in model.schema.vars]
    decided: dict = {}  # (cluster, bound variables) -> inhabited, see `project_exists`
    for case in model.delta_ext:
        if case.is_otherwise and not include_otherwise:
            notes.append("dext otherwise case excluded (enable with include_otherwise)")
            continue
        guard = case.guard
        target = f"dext case {case.id}"
        if "e" in free_vars(guard):
            notes.append(f"{target}: guard constrains the elapsed time; "
                         "its input pairs inherit the constraint via t = e")
        joint = _e_to_t(guard)
        init = project_exists(guard, [("e", TIME), ("x", model.input_sort)], ctx, decided)
        pairs = project_exists(joint, state_names, ctx, decided)
        sccs.append(make_scc(init, pairs, "cases", target, joint=joint))
    for case in model.delta_int:
        if case.is_otherwise and not include_otherwise:
            notes.append("dint otherwise case excluded (enable with include_otherwise)")
            continue
        target = f"dint case {case.id}"
        joint = conj(conjuncts(case.guard) + conjuncts(TAU_PAIR))
        sccs.append(make_scc(case.guard, TAU_PAIR, "cases", target, joint=joint))
    return _number(sccs), notes


# ---------------------------------------------------------------------------
# extensional sets

def extensional_criterion(model: Model, target: str) -> tuple[list[SCC], list[str]]:
    """One class per element of a finite (extensional) set: every literal
    of an enum, plus a single collapsed class for the numeric base of an
    extended sort.  `target` is "input" or a state variable name."""
    if target == "input":
        sort = model.input_sort
        subject: Expr = Ref("x")
        make = lambda p: make_scc(TRUE, p, "extensional", f"input x = {render_pred(p)}")
    else:
        try:
            sort = model.schema.sort_of(target)
        except KeyError:
            raise CriterionError(f"no state variable named {target}") from None
        subject = Ref(target)
        make = lambda p: make_scc(p, TRUE, "extensional", f"state {target}: {render_pred(p)}")

    preds: list[Predicate] = []
    if isinstance(sort, EnumSort):
        preds = [Cmp("=", subject, Const(Lit(l))) for l in sort.literals]
    elif isinstance(sort, ExtSort):
        if not is_numeric(ext_base(sort)):
            raise CriterionError("extensional criterion requires an enumerated set")
        preds = [InBase(subject)]
        preds += [Cmp("=", subject, Const(Lit(l))) for l in ext_literals(sort)]
    else:
        raise CriterionError("extensional criterion requires an enumerated set")
    return _number([make(p) for p in preds]), []


# ---------------------------------------------------------------------------
# intentional sets

def intentional_criterion(
    model: Model, kind: str, pred: Predicate
) -> tuple[list[SCC], list[str]]:
    """Split a set comprehension along the disjuncts of its defining
    predicate's DNF (at most `dnf.DEFAULT_CLAUSE_CAP` clauses): one class
    per clause.  `kind` is "state" or "input"."""
    clauses = to_dnf(pred)
    sccs: list[SCC] = []
    for i, clause in enumerate(clauses, start=1):
        body = clause.predicate()
        target = f"{kind} clause {i}/{len(clauses)}"
        if kind == "state":
            sccs.append(make_scc(body, TRUE, "intentional", target))
        elif kind == "input":
            bad = free_vars(body) - {"x"}
            if bad:
                raise CriterionError(
                    "input comprehension may only mention x, found "
                    + ", ".join(sorted(bad))
                )
            sccs.append(make_scc(TRUE, body, "intentional", target))
        else:
            raise CriterionError(f"unknown intentional target {kind}")
    return _number(sccs), []


# ---------------------------------------------------------------------------
# standard partitions

_DEFAULT_OPS = ("<", ">", "<=", ">=")


class Occurrence(Record):
    __slots__ = ("function", "case_id", "ops")

    def __init__(self, function: str, case_id: int,
                 ops: tuple[str, ...] = _DEFAULT_OPS) -> None:
        self.function = function  # dext | dint | lambda
        self.case_id = case_id
        self.ops = ops


def standard_partition_criterion(
    table: StandardPartition, occurrences: list[Occurrence], ctx: Context
) -> tuple[list[SCC], list[str]]:
    """Apply a partition table at comparison occurrences inside case
    guards.

    For each matched atom the table's cells are instantiated with the
    atom's operands and conjoined with the remaining guard context (the
    atom itself removed, so cells contradicting it still appear: that is
    how the missing-case cells show up).  Cells unsatisfiable within
    bounds are dropped and counted.  Sibling occurrences often give the
    same cells, so each distinct cell is decided once per call, keyed by
    its occurrence's context and the instantiated cell: a repeat is the
    first one's class under its own target, with the first one's verdict,
    and counts as a drop or an unknown as the first did.
    """
    model = ctx.model
    undefined = sorted({n.op for cell in table.cells for n in walk(cell) if isinstance(n, Apply)}
                       - {op.name for op in model.operators})
    if undefined:
        raise CriterionError(f"partition {table.name} applies {', '.join(undefined)}, "
                             "which the model does not define")
    notes: list[str] = []
    sccs: list[SCC] = []
    dropped = 0
    unknown = 0
    space = ctx.state_space
    decided: dict[tuple, tuple[SCC, str]] = {}  # (context, cell) -> first class, verdict
    for occ in occurrences:
        try:
            cases = model.cases(occ.function)
        except KeyError:
            raise CriterionError(f"unknown function {occ.function}") from None
        case = next((c for c in cases if c.id == occ.case_id), None)
        if case is None:
            raise CriterionError(f"{occ.function} has no case {occ.case_id}")
        atoms, context = _split_guard(model, case, occ.ops)
        if not atoms:
            notes.append(
                f"no comparison occurrence in {occ.function} case {occ.case_id}"
            )
            continue
        if table.arity != 2:
            raise CriterionError(
                f"partition {table.name} has arity {table.arity}, "
                "comparison occurrences are binary"
            )
        states, joint, pairs = _occurrence_context(ctx, occ.function, context)
        occurrence = (tuple(states), tuple(joint), pairs)
        for atom in atoms:
            cells = instantiate(table, [atom.left, atom.right])
            for cell_no, cell in enumerate(cells, start=1):
                target = (
                    f"operator {atom.op} ({render_expr(atom.left)}, "
                    f"{render_expr(atom.right)}) at {occ.function} case "
                    f"{occ.case_id} cell {cell_no}"
                )
                first = decided.get((occurrence, cell))
                if first is None:
                    scc = make_scc(conj(states + conjuncts(cell)), pairs, "standard", target,
                                   joint=conj(joint + conjuncts(cell)))
                    init = prepare_conjuncts(conjuncts(scc.init_states), ctx)
                    status = satisfiable(init, space, ctx).status
                    decided[occurrence, cell] = scc, status
                else:
                    scc, status = first
                    scc = SCC(0, scc.init_states, scc.input_pairs, "standard", target,
                              joint=scc.joint)
                if status == "unsat":
                    dropped += 1
                    continue
                if status == "unknown":
                    unknown += 1
                sccs.append(scc)
    if dropped:
        notes.append(f"standard partition: {dropped} infeasible cells dropped")
    if unknown:
        notes.append(f"standard partition: {unknown} cells kept with unknown feasibility")
    return _number(sccs), notes


def _split_guard(model: Model, case: GuardedCase, ops: tuple[str, ...]):
    """(matched atoms, remaining context) for one case guard.  An atom
    matches when its operator is selected and both operands are numeric
    expressions over state variables only."""
    state_names = set(model.schema.names())
    matched: list[Cmp] = []
    context: list[Predicate] = []
    for c in conjuncts(normalize(case.guard)):
        vs = free_vars(c)
        if (
            isinstance(c, Cmp)
            and c.op in ops
            and vs
            and vs <= state_names
            and _numeric_operands(model, c)
        ):
            matched.append(c)
        else:
            context.append(c)
    return matched, conj(context)


def _numeric_operands(model: Model, atom: Cmp) -> bool:
    for name in free_vars(atom):
        sort = model.schema.sort_of(name)
        if isinstance(sort, ExtSort):
            sort = ext_base(sort)
        if not is_numeric(sort):
            return False
    return True


def _occurrence_context(ctx, fn, context):
    """(state conjuncts, joint conjuncts, input pairs) that every cell at
    an occurrence in a case of `fn` with guard context `context` adds to
    the cell; a dext context constrains the states through its projection
    onto the state variables."""
    if fn == "dext":
        drop = [("e", TIME), ("x", ctx.model.input_sort)]
        states = conjuncts(project_exists(context, drop, ctx))
        return states, conjuncts(_e_to_t(context)), TRUE
    return conjuncts(context), conjuncts(context) + conjuncts(TAU_PAIR), TAU_PAIR


# ---------------------------------------------------------------------------
# time partitions

class TimeSpec(Record):
    """Key time intervals and points for the time criterion; each
    segment's classes are those of `t` cut at its points (`cuts`).

    With refine=True all endpoints are merged into one ascending chain,
    and the classes are the atoms of the partition of t >= 0 that the
    chain induces: no class below 0 when the least endpoint is 0.
    """

    __slots__ = ("intervals", "points", "refine")

    def __init__(self, intervals: tuple[tuple[Expr, Expr], ...] = (),
                 points: tuple[Expr, ...] = (), refine: bool = False) -> None:
        self.intervals = intervals
        self.points = points
        self.refine = refine


def time_partition_criterion(spec: TimeSpec, ctx: Context) -> tuple[list[SCC], list[str]]:
    """The classes of `spec`, labelled by their texts: after `interval [A, B]: `
    with the endpoints shown as a and b, after `point P: ` with the point
    shown as p.  Each endpoint is a finite number >= 0 under the constant
    bindings; a class that no time sample is in is dropped with a note."""
    notes: list[str] = []

    def value_of(e: Expr) -> Rational:
        try:
            v = eval_expr(e, ctx.consts, ctx)
        except EvalError as err:
            raise CriterionError(
                f"time endpoint {render_expr(e)} cannot be evaluated: {err}") from None
        if isinstance(v, Inf) or not isinstance(v, Num):
            raise CriterionError(f"time endpoint {render_expr(e)} is not finite")
        if v.value < 0:
            raise CriterionError(f"time endpoint {render_expr(e)} is negative")
        return v.value

    for a, b in spec.intervals:
        if not value_of(a) < value_of(b):
            raise CriterionError(f"interval needs {render_expr(a)} < {render_expr(b)} "
                                 "under the constant bindings")
    chain: dict[Rational, Expr] = {}
    for e in (*spec.points, *(e for ab in spec.intervals for e in ab)):
        chain.setdefault(value_of(e), e)
    t = Ref("t")
    if spec.refine:
        if not chain:
            raise CriterionError("refined time spec needs at least one endpoint")
        classes = cuts(t, [chain[v] for v in sorted(chain)], below=min(chain) != 0)
    else:
        classes = [(p, f"interval [{render_expr(a)}, {render_expr(b)}]: {text}")
                   for a, b in spec.intervals
                   for p, text in cuts(t, [a, b], {a: "a", b: "b"}.get)]
        classes += [(p, f"point {render_expr(pnt)}: {text}")
                    for pnt in spec.points for p, text in cuts(t, [pnt], lambda _: "p")]

    sccs: list[SCC] = []
    tspace = [("t", ctx.times)]
    for pred, label in classes:
        verdict = satisfiable(pred, tspace, ctx)
        if verdict.status == "unsat":
            notes.append(f"time class {label} empty within bounds, dropped")
            continue
        sccs.append(make_scc(TRUE, pred, "time", label))
    return _number(sccs), notes


def _number(sccs: list[SCC]) -> list[SCC]:
    return [s.renumbered(i) for i, s in enumerate(sccs, start=1)]
