"""Combining classes by intersection and pruning the empty results.

Intersecting two classes conjoins their state predicates and their
input-pair predicates, and, when either side has a joint predicate, their
member predicates into the combined joint.  Normalization flattens and
orders conjuncts, so intersection is commutative and associative up to
structural equality.  A combination is empty when its operands' member
forms conjoined have no witness over the joint space within bounds.
Each group is decided before it is built (Stocks & Carrington prune
empty test templates before instantiating them): only the kept ones are
intersected and numbered, after the base classes.  A combination whose
emptiness could not be decided within the attempt budget is kept and
flagged rather than silently losing coverage.
"""

from __future__ import annotations

import itertools
from functools import reduce
from operator import and_

from .context import Context
from .sat import satisfiable
from .scc import SCC, make_scc
from .selector import member_form
from .syntax import conj
from .values import Record, Struct


class CombinationPlan(Record):
    __slots__ = ("groups", "all_pairs", "max_arity", "budget")

    def __init__(self, groups: tuple[tuple[int, ...], ...] = (), all_pairs: bool = False,
                 max_arity: int = 2, budget: int = 1000) -> None:
        for name, value in (("max_arity", max_arity), ("budget", budget)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        for scc_id in (i for group in groups for i in group):
            if isinstance(scc_id, bool) or not isinstance(scc_id, int):
                raise ValueError(f"a group's class ids must be integers, not {scc_id!r}")
        if not isinstance(all_pairs, bool):
            raise ValueError(f"all_pairs must be true or false, not {all_pairs!r}")
        if max_arity < 2:
            raise ValueError("max_arity must be at least 2")
        if budget < 0:
            raise ValueError("budget must be at least 0")
        self.groups = groups
        self.all_pairs = all_pairs
        self.max_arity = max_arity
        self.budget = budget


class CombineReport(Struct):
    """What one `combine_and_prune` run attempted, kept, dropped and noted."""

    __slots__ = ("attempted", "kept", "dropped", "unknown", "budget_exhausted", "notes")

    def __init__(self, attempted: int = 0, kept: int = 0, dropped: int = 0, unknown: int = 0,
                 budget_exhausted: bool = False, notes: list[str] | None = None) -> None:
        self.attempted = attempted
        self.kept = kept
        self.dropped = dropped
        self.unknown = unknown
        self.budget_exhausted = budget_exhausted
        self.notes = [] if notes is None else notes


def _lineage(*classes: SCC) -> tuple[tuple[int, ...], str]:
    ancestry = tuple(sorted(set().union(*(s.ancestry() for s in classes))))
    return ancestry, "+".join(str(i) for i in ancestry)


def intersect(a: SCC, b: SCC) -> SCC:
    """Class intersection: conjunction on both components and, when either
    operand has a joint predicate, of both member predicates; ancestry is
    the sorted union of the operands' ancestries."""
    ancestry, target = _lineage(a, b)
    joint = None
    if a.joint is not None or b.joint is not None:
        joint = conj(a.member + b.member)
    return make_scc(
        conj([a.init_states, b.init_states]),
        conj([a.input_pairs, b.input_pairs]),
        "combined",
        target,
        joint=joint,
        combined_from=ancestry,
    )


def combine_and_prune(
    base: list[SCC], plan: CombinationPlan, ctx: Context
) -> tuple[list[SCC], CombineReport]:
    """Run a combination plan over a base catalog.

    Returns the full catalog (all base classes followed by the kept
    combinations in ascending ancestry, numbered after the last base id,
    each given, in `ctx`, the member form it was decided on) and the
    counts.
    """
    report = CombineReport()
    by_id = {s.id: s for s in base}
    groups: list[tuple[int, ...]] = [tuple(g) for g in plan.groups]
    if plan.all_pairs:
        groups.extend(itertools.combinations(sorted(by_id), 2))

    space = ctx.joint_space
    kept = []
    seen: set[tuple[int, ...]] = set()
    for group in groups:
        if len(group) < 2 or len(group) > plan.max_arity:
            report.notes.append(
                f"group {group}: size outside 2..{plan.max_arity}, skipped"
            )
            continue
        missing = [i for i in group if i not in by_id]
        if missing:
            report.notes.append(f"group {group}: unknown ids {missing}, skipped")
            continue
        if len(set(group)) < len(group):
            report.notes.append(f"group {group}: repeated id, skipped")
            continue
        key = tuple(sorted(group))
        if key in seen:
            report.notes.append(f"group {group}: repeated, skipped")
            continue
        if report.attempted >= plan.budget:
            report.budget_exhausted = True
            report.notes.append("combination budget exhausted; partial result")
            break
        report.attempted += 1
        seen.add(key)
        operands = [by_id[i] for i in key]
        form = reduce(and_, (member_form(s, ctx) for s in operands))
        verdict = satisfiable(form, space, ctx)
        if verdict.status == "unsat":
            report.dropped += 1
            continue
        ancestry, target = _lineage(*operands)
        if verdict.status == "unknown":
            report.unknown += 1
            report.notes.append(f"combination {target}: emptiness unknown within budget, kept")
        report.kept += 1
        kept.append((ancestry, operands, form))

    catalog = list(base)
    first = max((s.id for s in base), default=0) + 1
    for next_id, (_, operands, form) in enumerate(sorted(kept, key=lambda k: k[0]), first):
        combo = reduce(intersect, operands).renumbered(next_id)
        ctx.forms(combo).member = form
        catalog.append(combo)
    return catalog, report
