"""Disjunctive normal form conversion.

The classic pipeline: eliminate implication, push negation down to the
atoms, then distribute conjunction over disjunction.  Results are
clauses of literals (atoms or negated atoms).  Structural-hashing
memoization keeps shared subformulas from being expanded twice, and a
hard clause cap turns pathological blowups into a clean error naming
the offending subformula.
"""

from __future__ import annotations

from .syntax import (
    And,
    BoolConst,
    Cmp,
    Exists,
    FALSE,
    Implies,
    InBase,
    InSet,
    Not,
    Or,
    Predicate,
    TRUE,
    conj,
    render_pred,
)
from .values import Record

DEFAULT_CLAUSE_CAP = 4096


class DnfCapError(Exception):
    def __init__(self, subformula: Predicate, cap: int):
        super().__init__(
            f"DNF clause cap {cap} exceeded while expanding {render_pred(subformula)}"
        )
        self.subformula = subformula


class DNFClause(Record):
    """A conjunction of literals; the empty clause is the trivial true."""

    __slots__ = ("literals",)

    def __init__(self, literals: tuple[Predicate, ...]) -> None:
        self.literals = literals

    def predicate(self) -> Predicate:
        return conj(list(self.literals))


def _atomic(p: Predicate) -> bool:
    return isinstance(p, (Cmp, InSet, InBase, BoolConst))


def _nnf(p: Predicate, positive: bool) -> Predicate:
    """Negation normal form; implication eliminated on the way."""
    if isinstance(p, Exists):
        raise ValueError("DNF conversion needs a quantifier-free predicate")
    if isinstance(p, Not):
        return _nnf(p.arg, not positive)
    if isinstance(p, Implies):
        return _nnf(Or((Not(p.left), p.right)), positive)
    if isinstance(p, And):
        items = tuple(_nnf(q, positive) for q in p.items)
        return And(items) if positive else Or(items)
    if isinstance(p, Or):
        items = tuple(_nnf(q, positive) for q in p.items)
        return Or(items) if positive else And(items)
    if isinstance(p, BoolConst):
        return p if positive else BoolConst(not p.value)
    return p if positive else Not(p)


def to_dnf(p: Predicate, cap: int = DEFAULT_CLAUSE_CAP) -> list[DNFClause]:
    """Clauses whose disjunction is logically equivalent to p.

    Clauses containing a literal together with its negation are dropped;
    duplicate literals and duplicate clauses are removed.  Order follows
    the structure of the input, so the two clauses of `a => b` come out
    as [!a] then [b].
    """
    nnf = _nnf(p, True)
    memo: dict[Predicate, list[tuple[Predicate, ...]]] = {}

    def expand(q: Predicate) -> list[tuple[Predicate, ...]]:
        if q in memo:
            return memo[q]
        if _atomic(q) or isinstance(q, Not):
            out = [(q,)]
        elif isinstance(q, Or):
            out = []
            for item in q.items:
                out.extend(expand(item))
                if len(out) > cap:
                    raise DnfCapError(q, cap)
        elif isinstance(q, And):
            out = [()]
            for item in q.items:
                branches = expand(item)
                out = [c + b for c in out for b in branches]
                if len(out) > cap:
                    raise DnfCapError(q, cap)
        else:
            raise ValueError(f"unexpected node in NNF: {q!r}")
        memo[q] = out
        return out

    clauses: list[DNFClause] = []
    seen: set[tuple[tuple[bool, str], ...]] = set()
    for raw in expand(nnf):
        lits: list[Predicate] = []
        keys: set[tuple[bool, str]] = set()
        contradictory = False
        for lit in raw:
            sign, atom = (False, lit.arg) if isinstance(lit, Not) else (True, lit)
            if atom == TRUE or atom == FALSE:
                if (atom == TRUE) != sign:
                    contradictory = True
                    break
                continue
            key = (sign, render_pred(atom))
            if (not sign, key[1]) in keys:
                contradictory = True
                break
            if key in keys:
                continue
            keys.add(key)
            lits.append(lit)
        if contradictory:
            continue
        if not lits:
            # a clause reduced to `true`: the whole formula is valid
            return [DNFClause(())]
        signature = tuple(sorted(keys))
        if signature in seen:
            continue
        seen.add(signature)
        clauses.append(DNFClause(tuple(lits)))
    return clauses
