"""Campaign orchestration: criteria -> combine -> select -> sequence ->
simulate -> report.

A campaign is fully deterministic: identical inputs produce byte-identical
artifacts (no timestamps, sorted JSON keys, canonical predicate text).
Stage failures are recorded in the report and the remaining artifacts are
still written.

Criterion selections use a small text form, one per --criteria flag:

    cases
    extensional input
    extensional state:eng,d,ws
    intentional state 0 < d /\\ d < np
    intentional input x in {c25, c50}
    standard ordcmp dint:6,7,13,14
    standard ordcmp dint:6 ops:<,>
    time chain:0,TD1,TD2,TA,TGF
    time interval:TD1..TD2 point:TA
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field

from .algebra import CombinationPlan, CombineReport, combine_and_prune
from .bounds import Bounds, const_env
from .criteria import (
    Occurrence,
    TimeSpec,
    cases_criterion,
    extensional_criterion,
    intentional_criterion,
    standard_partition_criterion,
    time_partition_criterion,
)
from .model import Model
from .parser import Parser, _parse_value, parse_expr_text, parse_pred_text
from .partitions import StandardPartition, builtin_tables, check_partition
from .scc import SCC, assign_ids, scc_to_json, shape_overlaps
from .selector import SelectError, SimulationConfig, select_config
from .sequencer import SeqStep, SimulationSequence, build_sequences
from .simulator import (
    SimError,
    Trace,
    TraceEvent,
    UndefinedTransition,
    advance,
    init,
    uniformity_probe,
)
from .syntax import Apply, Cmp, InBase, InSet, expr_nodes, iter_subpreds
from .values import EvalError, Num, Value

SCHEMA = "devs-scc/1"


class CampaignError(Exception):
    pass


# the comparison operators a standard selection's `ops:` may name
_COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")


# ---------------------------------------------------------------------------
# criterion selections

def apply_selection(
    text: str,
    model: Model,
    bounds: Bounds,
    tables: dict[str, StandardPartition],
    include_otherwise: bool,
) -> tuple[str, list[SCC], list[str]]:
    """Run one selection string; returns (label, classes, notes)."""
    words = text.strip().split()
    if not words:
        raise CampaignError("empty criteria selection")
    kind = words[0]
    if kind == "cases":
        sccs, notes = cases_criterion(model, bounds, include_otherwise)
        return "cases", sccs, notes
    if kind == "extensional":
        if len(words) != 2:
            raise CampaignError("extensional needs one target: input or state:<vars>")
        target = words[1]
        if target == "input":
            sccs, notes = extensional_criterion(model, "input")
            return "extensional input", sccs, notes
        if target.startswith("state:"):
            all_sccs: list[SCC] = []
            notes = []
            for var in target[len("state:"):].split(","):
                sccs, n = extensional_criterion(model, var)
                all_sccs.extend(sccs)
                notes.extend(n)
            return f"extensional {target}", all_sccs, notes
        raise CampaignError(f"bad extensional target {target!r}")
    if kind == "intentional":
        if len(words) < 3 or words[1] not in ("state", "input"):
            raise CampaignError("intentional needs: state|input <predicate>")
        pred = parse_pred_text(" ".join(words[2:]))
        from .check import bind_pred, ext_ctx, state_ctx

        ctx = state_ctx(model) if words[1] == "state" else ext_ctx(model)
        pred = bind_pred(pred, ctx)
        sccs, notes = intentional_criterion(model, words[1], pred)
        return f"intentional {words[1]}", sccs, notes
    if kind == "standard":
        if len(words) < 3:
            raise CampaignError("standard needs: <table> <fn>:<case,...> [ops:<,>]")
        table_name = words[1]
        if table_name not in tables:
            raise CampaignError(f"unknown partition table {table_name!r}")
        ops: tuple[str, ...] | None = None
        occurrences: list[Occurrence] = []
        for word in words[2:]:
            if word.startswith("ops:"):
                ops = tuple(word[len("ops:"):].split(","))
                if not set(ops) <= set(_COMPARISONS):
                    raise CampaignError(
                        f"bad operators {word!r}, want some of {' '.join(_COMPARISONS)}"
                    )
                continue
            if ":" not in word:
                raise CampaignError(f"bad occurrence {word!r}, want fn:case,...")
            fn, ids = word.split(":", 1)
            for cid in ids.split(","):
                if not cid.isdigit():
                    raise CampaignError(f"bad case id {cid!r} in {word!r}")
                occurrences.append(Occurrence(fn, int(cid)))
        if ops is not None:
            occurrences = [Occurrence(o.function, o.case_id, ops) for o in occurrences]
        sccs, notes = standard_partition_criterion(
            model, tables[table_name], occurrences, bounds
        )
        return f"standard {table_name}", sccs, notes
    if kind == "time":
        intervals: list[tuple] = []
        points: list = []
        chain: list = []
        for word in words[1:]:
            if word.startswith("interval:"):
                lo, _, hi = word[len("interval:"):].partition("..")
                intervals.append((parse_expr_text(lo), parse_expr_text(hi)))
            elif word.startswith("point:"):
                points.append(parse_expr_text(word[len("point:"):]))
            elif word.startswith("chain:"):
                chain.extend(parse_expr_text(p) for p in word[len("chain:"):].split(","))
            else:
                raise CampaignError(f"bad time segment {word!r}")
        if chain and (intervals or points):
            raise CampaignError("time chain cannot mix with interval/point segments")
        spec = (
            TimeSpec(points=tuple(chain), refine=True)
            if chain
            else TimeSpec(intervals=tuple(intervals), points=tuple(points))
        )
        spec = _bind_timespec(spec, model)
        sccs, notes = time_partition_criterion(model, spec, bounds)
        return "time", sccs, notes
    raise CampaignError(f"unknown criterion {kind!r}")


def _bind_timespec(spec: TimeSpec, model: Model) -> TimeSpec:
    from .check import check_expr, state_ctx
    from .values import TIME

    ctx = state_ctx(model, "time spec")
    fix = lambda e: check_expr(e, ctx, TIME)
    return TimeSpec(
        intervals=tuple((fix(a), fix(b)) for a, b in spec.intervals),
        points=tuple(fix(p) for p in spec.points),
        refine=spec.refine,
    )


def load_tables(parts_paths: list[str]) -> tuple[dict[str, StandardPartition], list[str]]:
    """Built-in tables plus user tables, with registration health checks."""
    from .parser import parse_parts_file

    notes: list[str] = []
    tables = builtin_tables()
    for path in parts_paths:
        for table in parse_parts_file(path):
            if _plain_cells(table):
                disjoint, exhaustive = check_partition(table)
                if not disjoint:
                    notes.append(f"partition {table.name}: cells overlap on the check grid")
                if not exhaustive:
                    notes.append(f"partition {table.name}: cells leave gaps on the check grid")
            tables[table.name] = table
    return tables, notes


def _plain_cells(table: StandardPartition) -> bool:
    atoms = [p for cell in table.cells for p in iter_subpreds(cell)]
    exprs = [e for p in atoms if isinstance(p, Cmp) for e in (p.left, p.right)]
    exprs += [p.expr for p in atoms if isinstance(p, (InSet, InBase))]
    return not any(isinstance(n, Apply) for e in exprs for n in expr_nodes(e))


# ---------------------------------------------------------------------------
# plans

def load_plan(path: str) -> CombinationPlan:
    def build(raw) -> CombinationPlan:
        raw = _shaped(raw, dict, "a plan")
        return CombinationPlan(
            groups=tuple(tuple(_shaped(g, list, "a group"))
                         for g in _shaped(raw.get("groups", []), list, "groups")),
            all_pairs=raw.get("allPairs", False),
            max_arity=raw.get("maxArity", 2),
            budget=raw.get("budget", 1000),
        )
    return _load_json(path, build)


_JSON_KINDS = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
               int: "a number", float: "a number", type(None): "null"}


def _shaped(value, kind: type, what: str):
    """`value`, which must be a JSON `kind` (dict, list or str); a
    ValueError naming `what` otherwise."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be {_JSON_KINDS[kind]}, not {_JSON_KINDS[type(value)]}")
    return value


def _load_json(path: str, build):
    """`build` applied to the JSON in `path`; a malformed file, or one of
    the wrong shape, is a CampaignError."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return build(json.loads(text))
    except json.JSONDecodeError as err:
        raise CampaignError(f"{path}: invalid JSON: {err}") from None
    except KeyError as err:
        raise CampaignError(f"{path}: missing field {err}") from None
    except ValueError as err:
        raise CampaignError(f"{path}: {err}") from None


# ---------------------------------------------------------------------------
# report

@dataclass
class Report:
    model: str = ""
    criteria_counts: list[tuple[str, int]] = field(default_factory=list)
    duplicates_removed: int = 0
    base_count: int = 0
    combine: CombineReport | None = None
    catalog_size: int = 0
    configs_selected: int = 0
    config_errors: list[str] = field(default_factory=list)
    sequence_count: int = 0
    trace_events: int = 0
    findings: list[str] = field(default_factory=list)
    probe_flags: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def reconciles(self) -> bool:
        combined_kept = self.combine.kept if self.combine else 0
        return self.base_count + combined_kept == self.catalog_size

    def to_json(self) -> dict:
        rec = {
            "schema": SCHEMA,
            "model": self.model,
            "criteria": [{"selection": k, "classes": n} for k, n in self.criteria_counts],
            "duplicates_removed": self.duplicates_removed,
            "base_classes": self.base_count,
            "catalog_size": self.catalog_size,
            "reconciles": self.reconciles(),
            "configs_selected": self.configs_selected,
            "config_errors": self.config_errors,
            "sequences": self.sequence_count,
            "trace_events": self.trace_events,
            "findings": self.findings,
            "probe_flags": self.probe_flags,
            "notes": self.notes,
        }
        if self.combine:
            rec["combined"] = {
                "attempted": self.combine.attempted,
                "kept": self.combine.kept,
                "dropped": self.combine.dropped,
                "unknown": self.combine.unknown,
                "budget_exhausted": self.combine.budget_exhausted,
            }
        return rec


# ---------------------------------------------------------------------------
# campaign

@dataclass
class Campaign:
    model: Model
    bounds: Bounds
    tables: dict[str, StandardPartition]
    selections: list[str]
    plan: CombinationPlan | None = None
    include_otherwise: bool = False
    probe_k: int = 0


@dataclass
class CampaignResult:
    report: Report
    catalog: list[SCC]
    configs: dict[int, SimulationConfig]
    sequences: list[SimulationSequence]

    def catalog_json(self) -> dict:
        return {"schema": SCHEMA, "classes": [scc_to_json(s) for s in self.catalog]}

    def configs_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "configs": [self.configs[i].to_json() for i in sorted(self.configs)],
        }

    def sequences_json(self) -> dict:
        return {"schema": SCHEMA, "sequences": [s.to_json() for s in self.sequences]}


# Pipeline stages a campaign can stop after, in order; "simulate" tallies
# the traces the sequencer recorded and runs the uniformity probe.
STAGES = ("combine", "select", "sequence", "simulate")


def run_campaign(c: Campaign, stop_after: str = "simulate") -> CampaignResult:
    """Run the pipeline up to and including the stage `stop_after`; the
    artifacts of the stages after it stay empty."""
    if stop_after not in STAGES:
        raise ValueError(f"unknown stage {stop_after!r}, want one of {STAGES}")
    report = Report(model=c.model.name)
    raw: list[SCC] = []
    for text in c.selections:
        label, sccs, notes = apply_selection(
            text, c.model, c.bounds, c.tables, c.include_otherwise
        )
        report.criteria_counts.append((label, len(sccs)))
        report.notes.extend(notes)
        raw.extend(sccs)
    base, dup = assign_ids(raw)
    report.duplicates_removed = dup
    report.base_count = len(base)
    if dup:
        report.notes.append(f"{dup} duplicate classes merged within criteria")
    report.notes.extend(shape_overlaps(base))

    if c.plan is not None:
        catalog, combine_report = combine_and_prune(base, c.plan, c.model, c.bounds)
        report.combine = combine_report
        report.notes.extend(combine_report.notes)
    else:
        catalog = base
    report.catalog_size = len(catalog)
    result = CampaignResult(report, catalog, configs={}, sequences=[])
    if stop_after == "combine":
        return result

    # each class's representative or SelectError, handed to the sequencer
    selected: dict[int, SimulationConfig | SelectError] = {}
    for scc in catalog:
        try:
            selected[scc.id] = result.configs[scc.id] = select_config(
                scc, c.model, c.bounds
            )
        except SelectError as err:
            selected[scc.id] = err
            report.config_errors.append(str(err))
    report.configs_selected = len(result.configs)
    if stop_after == "select":
        return result

    result.sequences, seq_notes = build_sequences(c.model, catalog, c.bounds, selected)
    report.notes.extend(seq_notes)
    report.sequence_count = len(result.sequences)
    if stop_after == "sequence":
        return result

    for seq in result.sequences:
        report.trace_events += len(seq.trace.events)
        report.findings.extend(seq.trace.findings)

    if c.probe_k >= 2:
        for scc in base:
            probe = uniformity_probe(c.model, scc, c.probe_k, c.bounds)
            if not probe.uniform:
                report.probe_flags.append(probe.to_json())

    return result


def replay_sequence(model: Model, seq: SimulationSequence, bounds: Bounds) -> Trace:
    """Re-execute a recorded sequence step by step, collecting the trace."""
    consts = const_env(bounds, model)
    trace = Trace()
    sim = None
    for s in seq.steps:
        if s.error is not None:
            trace.findings.append(f"class {s.scc_id}: {s.error}")
            continue
        try:
            if sim is None:
                sim = init(model, s.state_used)
            sim, ev = advance(model, sim, consts, s.event, s.time)
            trace.events.append(ev)
        except UndefinedTransition as err:
            trace.findings.append(str(err))
            trace.events.append(
                TraceEvent(at=Num(sim.clock if sim else 0), kind="error", fired=None,
                           state_after=dict(sim.state) if sim else {}, error=str(err))
            )
            break
        except (SimError, EvalError) as err:
            trace.findings.append(f"step failed: {err}")
            break
    return trace


# ---------------------------------------------------------------------------
# artifact files

def dump_json(obj) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)` and a newline, byte for
    byte, written by `_write_json` rather than the standard library's
    pure-Python encoder, which it takes whenever `indent` is set."""
    out: list[str] = []
    _write_json(obj, "\n", out)
    out.append("\n")
    return "".join(out)


_encode_str = json.encoder.encode_basestring_ascii


def _write_json(obj, newline: str, out: list[str]) -> None:
    """Append the text of `obj` to `out`, its nested lines starting with
    `newline`.  Strings go through the encoder `json.dumps` uses and ints
    through `int.__repr__`, as there; other scalars, and a dict with a
    key that is not a string (which `json.dumps` converts or rejects), go
    through `json.dumps` itself."""
    if isinstance(obj, dict) and all(isinstance(key, str) for key in obj):
        items = [(_encode_str(key) + ": ", obj[key]) for key in sorted(obj)]
        opening, closing = "{", "}"
    elif isinstance(obj, (list, tuple)):
        items = [("", item) for item in obj]
        opening, closing = "[", "]"
    elif isinstance(obj, str):
        out.append(_encode_str(obj))
        return
    else:
        out.append(json.dumps(obj, sort_keys=True, indent=2).replace("\n", newline))
        return
    if not items:
        out.append(opening + closing)
        return
    inner = newline + "  "
    sep = opening + inner
    for label, value in items:
        cls = value.__class__
        if cls is str:
            out.append(sep + label + _encode_str(value))
        elif cls is int:
            out.append(sep + label + int.__repr__(value))
        else:
            out.append(sep + label)
            _write_json(value, inner, out)
        sep = "," + inner
    out.append(newline + closing)


def write_artifacts(result: CampaignResult, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)

    def write(name: str, text: str) -> None:
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)

    write("catalog.json", dump_json(result.catalog_json()))
    write("configs.json", dump_json(result.configs_json()))
    write("sequences.json", dump_json(result.sequences_json()))
    lines = []
    for i, seq in enumerate(result.sequences):
        for ev in seq.trace.events:
            lines.append(json.dumps({"sequence": i, **ev.to_json()}, sort_keys=True))
    write("traces.jsonl", "\n".join(lines) + ("\n" if lines else ""))
    write("report.json", dump_json(result.report.to_json()))
    write("report.csv", _report_csv(result))


def _report_csv(result: CampaignResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "criterion", "target", "config", "covered_in_sequence"])
    seq_of = {}
    for i, seq in enumerate(result.sequences):
        for scc_id in seq.covered:
            seq_of[scc_id] = i
    for scc in result.catalog:
        cfg = result.configs.get(scc.id)
        writer.writerow([
            scc.id,
            scc.criterion,
            scc.target,
            "yes" if cfg else "none",
            seq_of.get(scc.id, ""),
        ])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# config / sequence files for the simulate command

def load_config(path: str) -> SimulationConfig:
    def build(raw) -> SimulationConfig:
        raw = _shaped(raw, dict, "a config")
        event, time = _pair(raw["input"])
        return SimulationConfig(raw.get("scc", 0), _state(raw["state"]), event, time)
    return _load_json(path, build)


def load_sequences(path: str) -> list[SimulationSequence]:
    return _load_json(path, _sequences)


def _sequences(raw) -> list[SimulationSequence]:
    out = []
    for rec in _shaped(_shaped(raw, dict, "a sequence file")["sequences"], list, "sequences"):
        rec = _shaped(rec, dict, "a sequence")
        seq = SimulationSequence(covered=list(_shaped(rec["covered"], list, "covered")))
        for s in _shaped(rec["steps"], list, "steps"):
            s = _shaped(s, dict, "a step")
            event, time = _pair(s["input"])
            seq.steps.append(SeqStep(
                scc_id=s["scc"],
                state_used=_state(s["state"]),
                event=event,
                time=time,
                error=s.get("error"),
            ))
        out.append(seq)
    return out


def _state(raw) -> dict[str, Value]:
    return {k: _value(v) for k, v in _shaped(raw, dict, "a state").items()}


def _pair(raw) -> tuple[Value, Value]:
    raw = _shaped(raw, dict, "an input")
    return _value(raw["event"]), _value(raw["time"])


def _value(text) -> Value:
    return parse_value_text(_shaped(text, str, "a value"))


def parse_value_text(text: str) -> Value:
    p = Parser(text)
    v = _parse_value(p)
    if p.tok.kind != "eof":
        raise CampaignError(f"bad value literal {text!r}")
    return v
