"""Workloads of the campaign benchmark: their inputs, their set-up and the
check each campaign's artifacts must pass.

All three workloads run the elevator fixture with the five criteria of
scripts/run_elevator_campaign.py, which give 88 base classes.

- worked: the shipped combination plan (fixtures/elevator.plan.json).
- pairs: 120 pairs of base classes drawn from the seed, as plan groups.
- probe: no plan, uniformity probe with k = 4 over the base classes.

Set-up goes through the public API only: parse_model_file,
parse_bounds_file, load_tables and validate_model, then a Campaign built
without the CLI and without `jobs`.
"""

from __future__ import annotations

import importlib
import itertools
import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
REFERENCE = BENCH / "reference"

WORKLOADS = ("worked", "pairs", "probe")

SELECTIONS = (
    "cases",
    "extensional input",
    "extensional state:eng,d,ws,ds,a,sw,fc,nt",
    "standard ordcmp dint:6,7,13,14",
    "time chain:0,TD1,TD2,TA,TGF",
)
BASE_CLASSES = 88
PAIRS_DRAWN = 120
PROBE_K = 4

# Classes the probe flags as non-uniform at the reference commit; the
# probe's verdicts must not change.
PROBE_FLAGS = frozenset({37, 38, 39, 40, 41, 42, 43, 45, 48, 52, 54, 56, 58, 60, 79})

# Sequence steps of the worked campaign whose simulation fails: the two
# undefined transitions of the output function.
WORKED_FAILED_STEPS = 2


class SetupError(Exception):
    pass


def require_sources() -> None:
    """Fail before any work when the checkout lacks the program or its
    fixtures."""
    missing = [p for p in (SRC / "devs_scc" / "__init__.py", FIXTURES / "elevator.devs")
               if not p.is_file()]
    if missing:
        raise SetupError("missing " + ", ".join(str(p.relative_to(ROOT)) for p in missing))


def import_devs_scc():
    """A fresh import of the package and of its campaign module, so that
    every set-up pays for it."""
    for name in [n for n in sys.modules if n == "devs_scc" or n.startswith("devs_scc.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("devs_scc")
    importlib.import_module("devs_scc.campaign")
    return pkg


def pair_strata() -> tuple[list[tuple[int, int]], str]:
    """All pairs of base ids in ascending order, with the combination
    verdict each had at the reference commit (k kept, d dropped,
    u unknown)."""
    ref = json.loads((REFERENCE / "pair_verdicts.json").read_text(encoding="utf-8"))
    pairs = list(itertools.combinations(range(1, BASE_CLASSES + 1), 2))
    verdicts = ref["verdicts"]
    if len(verdicts) != len(pairs):
        raise SetupError("pair_verdicts.json does not cover every pair of base classes")
    return pairs, verdicts


def draw_pairs(seed: int) -> list[tuple[int, int]]:
    """PAIRS_DRAWN distinct pairs, drawn from the seed.

    The draw is stratified by each pair's verdict at the reference
    commit, with largest-remainder quotas proportional to the strata.
    Within a stratum it is a systematic sample in ascending pair order
    from a seeded random start, which spreads the draw over the class
    ids.  Almost all of the campaign's time goes to the few pairs whose
    witness search runs out of budget, and their cost depends on the
    classes involved: a plain random draw would make the campaign time
    depend on how many of those pairs, and which, the seed picks (from
    2 to 14 of 120).
    """
    pairs, verdicts = pair_strata()
    strata: dict[str, list[tuple[int, int]]] = {}
    for pair, verdict in zip(pairs, verdicts):
        strata.setdefault(verdict, []).append(pair)
    exact = {v: PAIRS_DRAWN * len(members) / len(pairs) for v, members in strata.items()}
    quota = {v: int(share) for v, share in exact.items()}
    by_remainder = sorted(strata, key=lambda v: (quota[v] - exact[v], v))
    for v in by_remainder[: PAIRS_DRAWN - sum(quota.values())]:
        quota[v] += 1
    rng = random.Random(seed)
    drawn: list[tuple[int, int]] = []
    for v in sorted(strata):
        members = strata[v]
        step = len(members) / quota[v]
        start = rng.random() * step
        drawn.extend(members[int(start + i * step)] for i in range(quota[v]))
    return sorted(drawn)


def set_up(pkg, workload: str, seed: int):
    """Parse, check and plan one campaign; returns the Campaign."""
    campaign_mod = sys.modules["devs_scc.campaign"]
    model, report = pkg.parse_model_file(str(FIXTURES / "elevator.devs"))
    if not report.usable:
        raise SetupError("model rejected: " + "; ".join(report.errors))
    bounds = pkg.parse_bounds_file(str(FIXTURES / "elevator.bounds"))
    tables, _ = campaign_mod.load_tables([str(FIXTURES / "elevator.parts")])
    _, checked = pkg.validate_model(model, bounds)
    if not checked.usable:
        raise SetupError("model fails its bounded checks: " + "; ".join(checked.errors))
    plan = None
    if workload == "worked":
        plan = campaign_mod.load_plan(str(FIXTURES / "elevator.plan.json"))
    elif workload == "pairs":
        plan = pkg.CombinationPlan(groups=tuple(draw_pairs(seed)), max_arity=2)
    return campaign_mod.Campaign(
        model=model,
        bounds=bounds,
        tables=tables,
        selections=list(SELECTIONS),
        plan=plan,
        probe_k=PROBE_K if workload == "probe" else 0,
    )


# ---------------------------------------------------------------------------
# output checks

def read_artifacts(out_dir: Path) -> dict:
    def load(name: str):
        return json.loads((out_dir / name).read_text(encoding="utf-8"))

    events = [json.loads(line) for line in
              (out_dir / "traces.jsonl").read_text(encoding="utf-8").splitlines()]
    return {
        "report": load("report.json"),
        "catalog": load("catalog.json")["classes"],
        "configs": load("configs.json")["configs"],
        "sequences": load("sequences.json")["sequences"],
        "traces": events,
    }


def check_artifacts(workload: str, out_dir: Path) -> list[str]:
    """Problems with one campaign's artifacts; empty when it passes.

    Finding strings are never compared: their format is due to change.
    """
    art = read_artifacts(out_dir)
    report = art["report"]
    problems: list[str] = []
    if workload == "worked":
        ref = json.loads((REFERENCE / "worked.json").read_text(encoding="utf-8"))
        for name in ("catalog", "configs", "sequences", "traces"):
            if art[name] != ref[name]:
                problems.append(f"{name} differs from the reference")
        failed_steps = sum(1 for seq in art["sequences"] for st in seq["steps"]
                           if "error" in st and st["state"])
        if failed_steps != WORKED_FAILED_STEPS:
            problems.append(f"{failed_steps} failed simulation steps, "
                            f"want {WORKED_FAILED_STEPS}")
    elif workload == "pairs":
        combined = report.get("combined", {})
        if report["base_classes"] != BASE_CLASSES:
            problems.append(f"{report['base_classes']} base classes, want {BASE_CLASSES}")
        if combined.get("attempted") != PAIRS_DRAWN:
            problems.append(f"{combined.get('attempted')} combinations attempted, "
                            f"want {PAIRS_DRAWN}")
        if report["base_classes"] + combined.get("kept", 0) != report["catalog_size"]:
            problems.append("report does not reconcile: base + kept != catalog")
        catalog_ids = sorted(c["id"] for c in art["catalog"])
        if len(catalog_ids) != report["catalog_size"]:
            problems.append("catalog.json size differs from the report")
        covered = sorted(i for seq in art["sequences"] for i in seq["covered"])
        if covered != catalog_ids:
            problems.append("sequences do not partition the catalog")
    elif workload == "probe":
        flagged = {p["scc"] for p in report["probe_flags"]}
        if flagged != PROBE_FLAGS:
            problems.append(f"probe flags {sorted(flagged)}, want {sorted(PROBE_FLAGS)}")
    return problems
