"""The amount of search a campaign makes, pinned.

Each module that searches looks `satisfiable` up in its own namespace;
the counters below wrap that name in every such module, the way the
benchmark's traced runs do, and count calls, attempts and `unknown`
verdicts.  The numbers are deterministic: a change that alters them
changes which nodes the searches visit, and must say why.
"""

import importlib
from collections import Counter

import pytest

from devs_scc.campaign import Campaign, load_plan, run_campaign

from tests.conftest import ELEVATOR_SELECTIONS, FIXTURES

SEARCHING = ("sat", "criteria", "algebra", "selector", "sequencer")


@pytest.fixture
def search_counts(monkeypatch):
    counts = {name: Counter() for name in SEARCHING}
    for name in SEARCHING:
        module = importlib.import_module(f"devs_scc.{name}")

        def counted(*args, _search=module.satisfiable, _count=counts[name], **kwargs):
            verdict = _search(*args, **kwargs)
            _count["calls"] += 1
            _count["attempts"] += verdict.attempts
            _count["unknown"] += verdict.status == "unknown"
            return verdict

        monkeypatch.setattr(module, "satisfiable", counted)
    return counts


def _totals(counts):
    return sum(counts.values(), Counter())


def test_worked_elevator_campaign_search_counts(
    search_counts, elevator, elevator_bounds, elevator_tables
):
    plan = load_plan(str(FIXTURES / "elevator.plan.json"))
    run_campaign(Campaign(elevator, elevator_bounds, elevator_tables,
                          list(ELEVATOR_SELECTIONS), plan=plan))
    by_module = {name: (c["calls"], c["attempts"]) for name, c in search_counts.items()}
    # each cell of sibling partition occurrences, each projection cluster
    # of the cases criterion and each class a post-state rejected is
    # searched once per campaign
    assert by_module == {
        "sat": (24, 114),  # project_exists, for the cases criterion
        "criteria": (36, 359),
        "algebra": (4, 107),
        "selector": (92, 2655),
        "sequencer": (70, 686),
    }
    totals = _totals(search_counts)
    assert (totals["calls"], totals["attempts"], totals["unknown"]) == (226, 3921, 0)


def test_elevator_probe_search_counts(search_counts, elevator, elevator_bounds, elevator_tables):
    run_campaign(Campaign(elevator, elevator_bounds, elevator_tables,
                          list(ELEVATOR_SELECTIONS), probe_k=4))
    totals = _totals(search_counts)
    assert (totals["calls"], totals["attempts"], totals["unknown"]) == (419, 10394, 0)
