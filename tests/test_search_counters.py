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

from devs_scc import CombinationPlan, validate_model
from devs_scc.campaign import Campaign, load_plan, run_campaign

from tests.conftest import ELEVATOR_SELECTIONS, FIXTURES

SEARCHING = ("sat", "criteria", "algebra", "selector", "sequencer", "check")


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
        "check": (0, 0),
    }
    totals = _totals(search_counts)
    assert (totals["calls"], totals["attempts"], totals["unknown"]) == (226, 3921, 0)


def test_elevator_probe_search_counts(search_counts, elevator, elevator_bounds, elevator_tables):
    run_campaign(Campaign(elevator, elevator_bounds, elevator_tables,
                          list(ELEVATOR_SELECTIONS), probe_k=4))
    totals = _totals(search_counts)
    assert (totals["calls"], totals["attempts"], totals["unknown"]) == (419, 10394, 0)


def test_elevator_all_pairs_search_counts(
    search_counts, elevator, elevator_bounds, elevator_tables
):
    run_campaign(Campaign(elevator, elevator_bounds, elevator_tables, list(ELEVATOR_SELECTIONS),
                          plan=CombinationPlan(all_pairs=True, budget=10000), probe_k=4))
    by_module = {name: (c["calls"], c["attempts"]) for name, c in search_counts.items()}
    assert by_module == {
        "sat": (24, 114),
        "criteria": (36, 359),
        "algebra": (3828, 99353),  # one emptiness search per pair
        "selector": (1964, 65526),
        "sequencer": (6253, 103706),
        "check": (0, 0),
    }
    totals = _totals(search_counts)
    assert (totals["calls"], totals["attempts"], totals["unknown"]) == (12105, 269058, 0)


def test_elevator_model_check_search_counts(search_counts, elevator, elevator_bounds):
    """`validate_model` with bounds: the coverage searches of the case
    tables through `sat`, and one search per argument of ta's min."""
    validate_model(elevator, elevator_bounds)
    by_module = {name: (c["calls"], c["attempts"]) for name, c in search_counts.items()
                 if c["calls"]}
    assert by_module == {"sat": (66, 8763), "check": (5, 105)}
    assert _totals(search_counts)["unknown"] == 0
