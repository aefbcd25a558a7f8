"""Simulation configuration classes.

A class pairs a predicate over the state variables (which initial states
belong to it) with a predicate over an input pair (x, t), where x ranges
over the input events plus the no-event marker tau and t over time.
Classes produced by the cases criterion also carry a joint predicate
linking state and input through the original guard.

A class is a set of configurations, and `SCC.member` is its one
definition: the joint predicate when there is one, else the state and
pair predicates together.  Combination, selection and chaining all
decide on it.  A class is plain data: the forms prepared from it for a
model and bounds live in that pair's `context.Context`.
"""

from __future__ import annotations

from .syntax import Predicate, conjuncts, normalize, render_pred
from .values import Record


class SCC(Record):
    """A simulation configuration class (see the module docstring)."""

    __slots__ = ("id", "init_states", "input_pairs", "criterion", "target", "combined_from",
                 "joint")

    def __init__(self, id: int, init_states: Predicate, input_pairs: Predicate,
                 criterion: str, target: str, combined_from: tuple[int, ...] = (),
                 joint: Predicate | None = None) -> None:
        self.id = id
        self.init_states = init_states
        self.input_pairs = input_pairs
        self.criterion = criterion
        self.target = target
        self.combined_from = combined_from
        self.joint = joint

    def key(self) -> tuple[str, str]:
        return (render_pred(self.init_states), render_pred(self.input_pairs))

    @property
    def member(self) -> list[Predicate]:
        """Conjuncts every configuration of the class satisfies."""
        if self.joint is not None:
            return conjuncts(self.joint)
        return conjuncts(self.init_states) + conjuncts(self.input_pairs)

    def renumbered(self, id: int) -> SCC:
        """This class under `id`."""
        return SCC(id, self.init_states, self.input_pairs, self.criterion, self.target,
                   self.combined_from, self.joint)

    def ancestry(self) -> tuple[int, ...]:
        return self.combined_from if self.combined_from else (self.id,)


def make_scc(
    init_states: Predicate,
    input_pairs: Predicate,
    criterion: str,
    target: str,
    joint: Predicate | None = None,
    id: int = 0,
    combined_from: tuple[int, ...] = (),
) -> SCC:
    return SCC(
        id=id,
        init_states=normalize(init_states),
        input_pairs=normalize(input_pairs),
        criterion=criterion,
        target=target,
        combined_from=combined_from,
        joint=normalize(joint) if joint is not None else None,
    )


def assign_ids(sccs: list[SCC], start: int = 1) -> tuple[list[SCC], int]:
    """Renumber sequentially, dropping duplicates within each criterion.

    A criterion re-deriving the same class twice (the partition table
    applied to sibling cases of one occurrence, say) is noise and is
    removed.  The same shape arriving from two different criteria is
    kept under both provenances, the way the worked catalogs count them;
    `shape_overlaps` reports those.
    """
    out: list[SCC] = []
    seen: set[tuple[str, str, str]] = set()
    dropped = 0
    for scc in sccs:
        k = (scc.criterion, *scc.key())
        if k in seen:
            dropped += 1
            continue
        seen.add(k)
        out.append(scc.renumbered(start + len(out)))
    return out, dropped


def shape_overlaps(sccs: list[SCC]) -> list[str]:
    """Structurally equal classes produced by different criteria."""
    by_shape: dict[tuple[str, str], list[SCC]] = {}
    for scc in sccs:
        by_shape.setdefault(scc.key(), []).append(scc)
    notes = []
    for group in by_shape.values():
        if len({s.criterion for s in group}) > 1:
            ids = ", ".join(str(s.id) for s in group)
            notes.append(
                f"classes {ids} share one shape under different criteria"
            )
    return notes

