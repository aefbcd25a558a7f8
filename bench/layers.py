"""Per-layer counters and busy times, taken by rebinding public names.

A module that does `from .sat import satisfiable` looks the name up in
its own namespace, so the trace rebinds each name where the importing
module looks it up, times and counts the calls, and puts the original
back afterwards.  Nothing under src/ changes.  A missing target is an
error: the trace would otherwise report zeros for a layer that still
does the work.

Busy times are inclusive: `criteria.busy_s` contains the `satisfiable`
calls made by the criteria, which `sat.criteria.busy_s` reports on
their own.  Every `satisfiable` call is charged to the campaign stage
that is running when it is made, so the selector's searches made by the
sequencer's re-selection count under `sat.sequencer`.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

SAT_STAGES = ("criteria", "algebra", "selector", "sequencer")
TOP_CLASSES = 5


class TraceError(Exception):
    pass


class Rebinder:
    """Rebinds module attributes and restores them in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, module, name: str, make) -> None:
        if not hasattr(module, name):
            raise TraceError(f"trace target {module.__name__}.{name} is missing")
        original = getattr(module, name)
        setattr(module, name, make(original))
        self._saved.append((module, name, original))

    def restore(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)


def _modules(*names: str) -> list:
    return [sys.modules[f"devs_scc.{n}"] for n in names]


class SetupTrace:
    """Busy time of the parser and of the checker during one set-up.

    parse_model_file validates the model it parses; that nested call is
    charged to the checker, not to the parser.
    """

    def __init__(self) -> None:
        self.parser_s = 0.0
        self.check_s = 0.0

    def install(self, pkg, rebinder: Rebinder) -> None:
        parser, campaign = _modules("parser", "campaign")
        for module, name in ((pkg, "parse_model_file"), (pkg, "parse_bounds_file"),
                             (campaign, "load_tables")):
            rebinder.wrap(module, name, self._parse)
        for module in (pkg, parser):
            rebinder.wrap(module, "validate_model", self._check)

    def _parse(self, fn):
        def traced(*args, **kwargs):
            check_before = self.check_s
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.parser_s += elapsed - (self.check_s - check_before)
        return traced

    def _check(self, fn):
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.check_s += time.perf_counter() - start
        return traced


class CampaignTrace:
    """Counters and busy times of one traced campaign."""

    def __init__(self) -> None:
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.sat: dict[str, Counter] = {s: Counter() for s in SAT_STAGES}
        self.sat_total: Counter = Counter()
        self.attempts_by_class: dict[str, Counter] = {s: Counter() for s in SAT_STAGES}
        self.stage: str | None = None
        self.current_class: dict[str, str] = {}
        self.sampling = False

    def install(self, rebinder: Rebinder) -> None:
        (campaign, algebra, selector, sequencer, criteria, sat,
         simulator) = _modules("campaign", "algebra", "selector", "sequencer",
                               "criteria", "sat", "simulator")
        w = rebinder.wrap
        w(campaign, "apply_selection", self._stage(
            "criteria", label=lambda text, *a: f"selection {text!r}",
            after=self._after_selection))
        w(campaign, "combine_and_prune", self._stage(
            "algebra", after=self._after_combine))
        w(campaign, "select_config", self._stage(
            "selector", label=lambda scc, *a: f"class {scc.id}",
            after=self._after_select))
        w(campaign, "build_sequences", self._stage(
            "sequencer", after=self._after_sequences))
        w(campaign, "replay_sequence", self._stage(
            "replay", after=self._after_replay))
        w(campaign, "uniformity_probe", self._stage(
            "probe", after=self._after_probe))
        for module in (algebra, selector, sequencer, criteria, sat):
            w(module, "satisfiable", self._satisfiable)
        w(algebra, "intersect", self._intersect)
        w(sequencer, "select_config", self._reselect)
        w(simulator, "sample_configs", self._sample_configs)
        w(simulator, "run_config", self._run_config)
        w(selector, "eval_pred", self._eval_pred)

    # -- campaign stages ----------------------------------------------------

    def _stage(self, stage: str, label=None, after=None):
        def make(fn):
            def traced(*args, **kwargs):
                outer = self.stage
                self.stage = stage
                self.counts[f"{stage}.calls"] += 1
                if label is not None:
                    self.current_class[stage] = label(*args)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.busy[stage] += time.perf_counter() - start
                    self.stage = outer
                if after is not None:
                    after(result)
                return result
            return traced
        return make

    def _after_selection(self, result) -> None:
        self.counts["criteria.classes"] += len(result[1])

    def _after_combine(self, result) -> None:
        report = result[1]
        for name in ("attempted", "kept", "dropped", "unknown"):
            self.counts[f"algebra.{name}"] += getattr(report, name)

    def _after_select(self, result) -> None:
        self.counts["selector.configs"] += 1

    def _after_sequences(self, result) -> None:
        sequences = result[0]
        self.counts["sequencer.sequences"] += len(sequences)
        self.counts["sequencer.steps"] += sum(len(s.steps) for s in sequences)

    def _after_replay(self, trace) -> None:
        self.counts["simulator.trace_events"] += len(trace.events)
        self.counts["simulator.findings"] += len(trace.findings)

    def _after_probe(self, probe) -> None:
        self.counts["simulator.probe_flags"] += not probe.uniform

    # -- layers below the stages ----------------------------------------------

    def _satisfiable(self, fn):
        def traced(*args, **kwargs):
            start = time.perf_counter()
            verdict = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            buckets = [self.sat_total]
            if self.stage in self.sat:
                buckets.append(self.sat[self.stage])
                key = self.current_class.get(self.stage, "none")
                self.attempts_by_class[self.stage][key] += verdict.attempts
            for bucket in buckets:
                bucket["calls"] += 1
                bucket["attempts"] += verdict.attempts
                bucket["busy_s"] += elapsed
                if verdict.status == "unknown":
                    bucket["unknown"] += 1
                    bucket["wasted_attempts"] += verdict.attempts
            return verdict
        return traced

    def _intersect(self, fn):
        def traced(*args, **kwargs):
            combo = fn(*args, **kwargs)
            self.current_class["algebra"] = f"combination {combo.target}"
            return combo
        return traced

    def _reselect(self, fn):
        def traced(scc, *args, **kwargs):
            self.counts["sequencer.reselect_calls"] += 1
            self.current_class["sequencer"] = f"sequence from class {scc.id}"
            return fn(scc, *args, **kwargs)
        return traced

    def _sample_configs(self, fn):
        def traced(scc, k, *args, **kwargs):
            self.counts["selector.sample_calls"] += 1
            self.counts["selector.sample_requested"] += k
            self.sampling = True
            start = time.perf_counter()
            try:
                samples = fn(scc, k, *args, **kwargs)
            finally:
                self.busy["sample"] += time.perf_counter() - start
                self.sampling = False
            self.counts["selector.sample_returned"] += len(samples)
            return samples
        return traced

    def _eval_pred(self, fn):
        def traced(*args, **kwargs):
            if self.sampling:
                self.counts["selector.sample_evals"] += 1
            return fn(*args, **kwargs)
        return traced

    def _run_config(self, fn):
        def traced(*args, **kwargs):
            self.counts["simulator.run_config_calls"] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.busy["run_config"] += time.perf_counter() - start
        return traced

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        c, b = self.counts, self.busy
        m: dict[str, float] = {
            "criteria.busy_s": b["criteria"],
            "criteria.classes": c["criteria.classes"],
            "algebra.busy_s": b["algebra"],
        }
        for name in ("attempted", "kept", "dropped", "unknown"):
            m[f"algebra.{name}"] = c[f"algebra.{name}"]
        m.update(_sat_metrics("sat", self.sat_total))
        for stage in SAT_STAGES:
            m.update(_sat_metrics(f"sat.{stage}", self.sat[stage]))
        requested = c["selector.sample_requested"]
        m.update({
            "selector.busy_s": b["selector"],
            "selector.configs": c["selector.configs"],
            "selector.errors": c["selector.calls"] - c["selector.configs"],
            "selector.sample_busy_s": b["sample"],
            "selector.sample_calls": c["selector.sample_calls"],
            "selector.sample_evals": c["selector.sample_evals"],
            "selector.sample_yield": c["selector.sample_returned"] / requested if requested else 0.0,
            "sequencer.busy_s": b["sequencer"],
            "sequencer.sequences": c["sequencer.sequences"],
            "sequencer.steps": c["sequencer.steps"],
            "sequencer.reselect_calls": c["sequencer.reselect_calls"],
            "campaign.replay_busy_s": b["replay"],
            "simulator.trace_events": c["simulator.trace_events"],
            "simulator.findings": c["simulator.findings"],
            "simulator.probe_busy_s": b["probe"],
            "simulator.run_config_calls": c["simulator.run_config_calls"],
            "simulator.run_config_busy_s": b["run_config"],
            "simulator.probe_flags": c["simulator.probe_flags"],
        })
        return m

    def top_classes(self) -> dict[str, list[list]]:
        return {
            stage: [[key, n] for key, n in self.attempts_by_class[stage].most_common(TOP_CLASSES)]
            for stage in SAT_STAGES
        }


def deterministic(metrics: dict[str, float]) -> dict[str, float]:
    """The counters that must repeat exactly for a fixed seed: everything
    but times and rates."""
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


def _sat_metrics(prefix: str, bucket: Counter) -> dict[str, float]:
    attempts, busy = bucket["attempts"], bucket["busy_s"]
    return {
        f"{prefix}.calls": bucket["calls"],
        f"{prefix}.attempts": attempts,
        f"{prefix}.unknown": bucket["unknown"],
        f"{prefix}.busy_s": float(busy),
        f"{prefix}.attempts_per_s": attempts / busy if busy else 0.0,
        f"{prefix}.wasted_attempt_ratio": bucket["wasted_attempts"] / attempts if attempts else 0.0,
    }
