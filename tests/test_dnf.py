import itertools
import random

import pytest

from devs_scc.dnf import DnfCapError, to_dnf
from oracle import eval_pred, pred_vars
from devs_scc.syntax import (
    And,
    BinOp,
    Cmp,
    Const,
    Implies,
    Not,
    Or,
    Predicate,
    Ref,
    render_pred,
)
from devs_scc.values import num


def n_times_m_positive_implies_n_greater():
    return Implies(
        Cmp(">", BinOp("*", Ref("n"), Ref("m")), Const(num(0))),
        Cmp(">", Ref("n"), Ref("m")),
    )


def clauses_as_disjunction(clauses) -> Predicate:
    return Or(tuple(c.predicate() for c in clauses))


def equivalent_on_grid(p: Predicate, q: Predicate, lo=-3, hi=3) -> bool:
    """Truth-table comparison over a bounded integer grid."""
    names = sorted(pred_vars(p) | pred_vars(q))
    for combo in itertools.product(range(lo, hi + 1), repeat=len(names)):
        env = {n: num(v) for n, v in zip(names, combo)}
        if eval_pred(p, env) != eval_pred(q, env):
            return False
    return True


def test_implication_example_yields_two_clauses():
    p = n_times_m_positive_implies_n_greater()
    clauses = to_dnf(p)
    assert [render_pred(c.predicate()) for c in clauses] == [
        "!(n * m > 0)",
        "n > m",
    ]
    assert equivalent_on_grid(p, clauses_as_disjunction(clauses))


def test_atomic_predicate_is_already_dnf():
    p = Cmp("<", Ref("a"), Const(num(1)))
    clauses = to_dnf(p)
    assert len(clauses) == 1
    assert clauses[0].literals == (p,)


def test_negated_conjunction_with_disjunct():
    # !(a0 /\ (b0 \/ c0)) over atoms a: a0 = (a > 0) etc.
    a, b, c = (Cmp(">", Ref(v), Const(num(0))) for v in "abc")
    p = Not(And((a, Or((b, c)))))
    clauses = to_dnf(p)
    rendered = [render_pred(cl.predicate()) for cl in clauses]
    assert rendered == ["!(a > 0)", "!(b > 0) /\\ !(c > 0)"]
    # oracle: full truth table over the 8 sign combinations and more
    assert equivalent_on_grid(p, clauses_as_disjunction(clauses), -1, 1)


def test_contradictory_clauses_are_dropped():
    a = Cmp(">", Ref("a"), Const(num(0)))
    p = Or((And((a, Not(a))), Cmp("<", Ref("b"), Const(num(0)))))
    clauses = to_dnf(p)
    assert [render_pred(c.predicate()) for c in clauses] == ["b < 0"]


def test_clause_cap_names_the_subformula():
    # (a1 \/ b1) /\ (a2 \/ b2) /\ ... blows up exponentially
    parts = []
    for i in range(8):
        parts.append(
            Or((
                Cmp("=", Ref(f"a{i}"), Const(num(0))),
                Cmp("=", Ref(f"b{i}"), Const(num(0))),
            ))
        )
    with pytest.raises(DnfCapError):
        to_dnf(And(tuple(parts)), cap=100)


def random_predicate(rng: random.Random, depth: int = 3) -> Predicate:
    names = ["p", "q", "r"]
    if depth == 0 or rng.random() < 0.35:
        return Cmp(
            rng.choice(["<", "<=", "=", ">", ">=", "!="]),
            Ref(rng.choice(names)),
            Const(num(rng.randint(-1, 1))),
        )
    kind = rng.randrange(4)
    if kind == 0:
        return Not(random_predicate(rng, depth - 1))
    if kind == 1:
        return Implies(random_predicate(rng, depth - 1), random_predicate(rng, depth - 1))
    items = tuple(random_predicate(rng, depth - 1) for _ in range(rng.randint(2, 3)))
    return And(items) if kind == 2 else Or(items)


def test_equivalence_on_generated_predicates():
    rng = random.Random(20240811)
    for _ in range(100):
        p = random_predicate(rng)
        clauses = to_dnf(p)
        q = clauses_as_disjunction(clauses) if clauses else Or(())
        if not clauses:
            # empty disjunction is false
            q = And((Cmp("<", Ref("p"), Const(num(0))), Cmp(">", Ref("p"), Const(num(0)))))
        assert equivalent_on_grid(p, q, -2, 2), render_pred(p)
