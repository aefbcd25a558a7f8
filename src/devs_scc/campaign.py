"""Campaign orchestration: criteria -> combine -> select -> sequence ->
simulate -> report.

A campaign is fully deterministic: identical inputs produce byte-identical
artifacts (no timestamps, sorted JSON keys, canonical predicate text).
Its result is one record, `CampaignResult`: the catalog, each class's
step and the sequences, beside the few facts only the run knows.  The
report reads every other count and list from those three, so it cannot
disagree with the artifacts.  Stage failures are recorded in the report
and the remaining artifacts are still written.

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

from .algebra import CombinationPlan, CombineReport, combine_and_prune
from .bounds import Bounds
from .context import Context
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
from .parser import ParseFailure, _parse_value, _whole, parse_expr_text, parse_pred_text
from .partitions import StandardPartition, builtin_tables, check_partition
from .scc import SCC, assign_ids, shape_overlaps
from .selector import SimulationConfig, select_config
from .sequencer import SimulationSequence, build_sequences
from .simulator import events, failures, run_steps, uniformity_probe
from .syntax import Apply, render_pred, walk
from .values import Lit, Num, Struct, Value, render_value, value_key

SCHEMA = "devs-scc/1"


class CampaignError(Exception):
    pass


# the comparison operators a standard selection's `ops:` may name
_COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")


# ---------------------------------------------------------------------------
# criterion selections

def apply_selection(
    text: str,
    ctx: Context,
    tables: dict[str, StandardPartition],
    include_otherwise: bool,
) -> tuple[str, list[SCC], list[str]]:
    """Run one selection string; returns (label, classes, notes)."""
    model = ctx.model
    words = text.strip().split()
    if not words:
        raise CampaignError("empty criteria selection")
    kind = words[0]
    if kind == "cases":
        if len(words) != 1:
            raise CampaignError(f"cases takes no target, not {' '.join(words[1:])!r}")
        sccs, notes = cases_criterion(ctx, include_otherwise)
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
                if not var:
                    raise CampaignError(f"empty state variable name in {' '.join(words)!r}")
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

        where = f"intentional {words[1]}"
        scope = state_ctx(model, where) if words[1] == "state" else ext_ctx(model, where)
        pred = bind_pred(pred, scope)
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
        if not occurrences:
            raise CampaignError("standard needs at least one occurrence <fn>:<case,...>")
        if ops is not None:
            occurrences = [Occurrence(o.function, o.case_id, ops) for o in occurrences]
        sccs, notes = standard_partition_criterion(tables[table_name], occurrences, ctx)
        return f"standard {table_name}", sccs, notes
    if kind == "time":
        if len(words) == 1:
            raise CampaignError("time needs a segment: chain:, interval: or point:")
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
        sccs, notes = time_partition_criterion(spec, ctx)
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
    return not any(isinstance(n, Apply) for cell in table.cells for n in walk(cell))


# ---------------------------------------------------------------------------
# plans

def load_plan(path: str) -> CombinationPlan:
    return _load_json(path, build_plan)


_PLAN_KEYS = ("groups", "allPairs", "maxArity", "budget")


def build_plan(raw) -> CombinationPlan:
    """The plan of a plan file's mapping, or of the one the combination
    flags build; an omitted key takes `CombinationPlan`'s default, and
    any other key is an error."""
    raw = _shaped(raw, dict, "a plan")
    for key in raw:
        if key not in _PLAN_KEYS:
            raise ValueError(f"unknown plan key {key!r}, want one of {', '.join(_PLAN_KEYS)}")
    limits = {name: raw[key] for key, name in (("maxArity", "max_arity"), ("budget", "budget"))
              if key in raw}
    return CombinationPlan(
        groups=tuple(tuple(_shaped(g, list, "a group"))
                     for g in _shaped(raw.get("groups", []), list, "groups")),
        all_pairs=raw.get("allPairs", False),
        **limits,
    )


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
# campaign

class Campaign(Struct):
    """The inputs of one campaign: model, bounds, tables, selections, plan.
    Its runs share one `Context`, built by the first; that is neither
    compared nor shown."""

    __slots__ = ("model", "bounds", "tables", "selections", "plan", "include_otherwise",
                 "probe_k", "_context")
    _fields = __slots__[:-1]

    def __init__(self, model: Model, bounds: Bounds, tables: dict[str, StandardPartition],
                 selections: list[str], plan: CombinationPlan | None = None,
                 include_otherwise: bool = False, probe_k: int = 0) -> None:
        self.model = model
        self.bounds = bounds
        self.tables = tables
        self.selections = selections
        self.plan = plan
        self.include_otherwise = include_otherwise
        self.probe_k = probe_k
        self._context: Context | None = None

    def context(self) -> Context:
        if self._context is None:
            self._context = Context(self.model, self.bounds)
        return self._context


class CampaignResult(Struct):
    """One campaign's record.  It holds what only the run knows: the
    model's name, the classes each selection made, the duplicates merged,
    the combination counts, the non-uniform probes and the notes.  Beside
    them are the catalog, each class's step (its representative, or the
    failed step selection returned) and the sequences, from which the
    report reads every other count and list."""

    __slots__ = ("model", "criteria_counts", "duplicates_removed", "combine", "probe_flags",
                 "notes", "catalog", "configs", "sequences")

    def __init__(self, model: str, criteria_counts: list[tuple[str, int]] | None = None,
                 duplicates_removed: int = 0, combine: CombineReport | None = None,
                 probe_flags: list[dict] | None = None, notes: list[str] | None = None,
                 catalog: list[SCC] | None = None,
                 configs: dict[int, SimulationConfig] | None = None,
                 sequences: list[SimulationSequence] | None = None) -> None:
        self.model = model
        self.criteria_counts = [] if criteria_counts is None else criteria_counts
        self.duplicates_removed = duplicates_removed
        self.combine = combine
        self.probe_flags = [] if probe_flags is None else probe_flags
        self.notes = [] if notes is None else notes
        self.catalog = [] if catalog is None else catalog
        self.configs = {} if configs is None else configs
        self.sequences = [] if sequences is None else sequences

    def base(self) -> list[SCC]:
        """The catalog's classes that no combination made."""
        return [s for s in self.catalog if not s.combined_from]

    def reconciles(self) -> bool:
        combined_kept = self.combine.kept if self.combine else 0
        return len(self.base()) + combined_kept == len(self.catalog)

    def report_json(self) -> dict:
        errors = failures(self.configs.values())[1]
        ran = [step for seq in self.sequences for step in seq.steps]
        rec = {
            "schema": SCHEMA,
            "model": self.model,
            "criteria": [{"selection": k, "classes": n} for k, n in self.criteria_counts],
            "duplicates_removed": self.duplicates_removed,
            "base_classes": len(self.base()),
            "catalog_size": len(self.catalog),
            "reconciles": self.reconciles(),
            "configs_selected": len(self.configs) - len(errors),
            "config_errors": errors,
            "sequences": len(self.sequences),
            "trace_events": len(events(ran)),
            "findings": failures(ran)[0],
            "probe_flags": self.probe_flags,
            "notes": self.notes + self._chained_notes(),
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

    def _chained_notes(self) -> list[str]:
        """A note for each class in `config_errors` that a chained step
        covers, naming that step's sequence."""
        ran_in = {step.scc_id: n for n, seq in enumerate(self.sequences)
                  for step in seq.steps if step.state}
        return [f"class {i}: selection found no representative, "
                f"but sequence {ran_in[i]} covers it with a chained step"
                for i, step in sorted(self.configs.items())
                if step.error is not None and not step.state and i in ran_in]


# Pipeline stages a campaign can stop after, in order; the sequencer has
# run every step, so "simulate" only runs the uniformity probe.
STAGES = ("combine", "select", "sequence", "simulate")


def run_campaign(c: Campaign, stop_after: str = "simulate") -> CampaignResult:
    """Run the pipeline up to and including the stage `stop_after`; the
    artifacts of the stages after it stay empty.  The forms its context
    prepares for the classes live until it returns; a syntax node lives
    while something refers to it, such as a class, a kept form or a
    stage's memo."""
    if stop_after not in STAGES:
        raise ValueError(f"unknown stage {stop_after!r}, want one of {STAGES}")
    ctx = c.context()
    try:
        return _run(c, ctx, stop_after)
    finally:
        ctx.classes.clear()


def _run(c: Campaign, ctx: Context, stop_after: str) -> CampaignResult:
    result = CampaignResult(c.model.name)
    raw: list[SCC] = []
    for text in c.selections:
        label, sccs, notes = apply_selection(text, ctx, c.tables, c.include_otherwise)
        result.criteria_counts.append((label, len(sccs)))
        result.notes.extend(notes)
        raw.extend(sccs)
    base, dup = assign_ids(raw)
    result.duplicates_removed = dup
    if dup:
        result.notes.append(f"{dup} duplicate classes merged within criteria")
    result.notes.extend(shape_overlaps(base))

    result.catalog = base
    if c.plan is not None:
        result.catalog, result.combine = combine_and_prune(base, c.plan, ctx)
        result.notes.extend(result.combine.notes)
    if stop_after == "combine":
        return result

    # each class's step: its representative, or the reason it has none
    for scc in result.catalog:
        result.configs[scc.id] = select_config(scc, ctx)
    if stop_after == "select":
        return result

    result.sequences, seq_notes = build_sequences(result.catalog, ctx, result.configs)
    result.notes.extend(seq_notes)
    if stop_after == "sequence":
        return result

    if c.probe_k >= 2:
        seen: dict[tuple, str] = {}
        for scc in base:
            probe = uniformity_probe(scc, c.probe_k, ctx, seen)
            if not probe.uniform:
                result.probe_flags.append(probe.to_json())

    return result


def replay_sequence(seq: SimulationSequence, ctx: Context) -> list[SimulationConfig]:
    """Re-execute a recorded sequence step by step; its steps as they ran."""
    return run_steps(seq.steps, ctx)


# ---------------------------------------------------------------------------
# artifact files

def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


_encode_str = json.encoder.encode_basestring_ascii


def write_artifacts(result: CampaignResult, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)

    def write(name: str, text: str) -> None:
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)

    writer = StepWriter()
    write("catalog.json", writer.catalog(result.catalog))
    write("configs.json", writer.configs(result.configs))
    write("sequences.json", writer.sequences(result.sequences))
    write("traces.jsonl", writer.traces([seq.steps for seq in result.sequences]))
    write("report.json", dump_json(result.report_json()))
    write("report.csv", _report_csv(result))


_SCHEMA_TEXT = _encode_str(SCHEMA)


class StepWriter:
    """The text of `catalog.json`, `configs.json`, `sequences.json` and
    `traces.jsonl`: what `dump_json` of their layouts writes for the three
    files, and `json.dumps(event, sort_keys=True)` for each trace line,
    byte for byte, filled into fixed templates of those layouts.

    A class writes its id, criterion and target, the texts of its state
    and pair predicates and, when it has one, of its joint predicate, and
    the ids it was `combined_from` when a combination made it.
    A step holds its class id, its `state`, its `input` (event and time)
    and either the function and case its trace event `fired` or its
    `error`.  A step that ran writes a trace line: its event's `at`,
    `fired` and `state`, with `output` and `tie` when the event has them,
    its `kind`, `external` for a `dext` step, which also writes the step's
    event as `input`, else `internal`, and the index of its run as
    `sequence`.  A failed step writes none: its `error` is on the step.
    The writer renders each distinct value and each distinct state once,
    keyed on what they hold (`value_key`), so one writer serves the files
    of a campaign, where a chained step starts from the state the trace
    event before it left."""

    __slots__ = ("_values", "_states")

    def __init__(self) -> None:
        # value_key(value) -> its text
        self._values: dict = {}
        # the state's names, then the keys of their values -> (indented
        # text, compact text)
        self._states: dict[tuple, tuple[str, str]] = {}

    def catalog(self, classes: list[SCC]) -> str:
        """`catalog.json`: the classes in their order."""
        texts = []
        for scc in classes:
            combined = joint = ""
            if scc.combined_from:
                combined = ('\n      "combined_from": '
                            + _items([int.__repr__(i) for i in scc.combined_from], "\n      ")
                            + ",")
            if scc.joint is not None:
                joint = '\n      "joint": ' + _encode_str(render_pred(scc.joint)) + ","
            texts.append(
                '{%s\n      "criterion": %s,\n      "id": %s,\n      "init_states": %s,'
                '\n      "input_pairs": %s,%s\n      "target": %s\n    }' % (
                    combined, _encode_str(scc.criterion), int.__repr__(scc.id),
                    _encode_str(render_pred(scc.init_states)),
                    _encode_str(render_pred(scc.input_pairs)), joint,
                    _encode_str(scc.target)))
        return ('{\n  "classes": ' + _items(texts, "\n  ")
                + ',\n  "schema": ' + _SCHEMA_TEXT + "\n}\n")

    def configs(self, configs: dict[int, SimulationConfig]) -> str:
        """`configs.json`: each class's representative in id order; a
        class selection could not represent has none."""
        steps = [self._step(configs[i], "\n    ") for i in sorted(configs)
                 if configs[i].error is None]
        return ('{\n  "configs": ' + _items(steps, "\n  ")
                + ',\n  "schema": ' + _SCHEMA_TEXT + "\n}\n")

    def sequences(self, sequences: list[SimulationSequence]) -> str:
        """`sequences.json`: each sequence's steps and the ids they cover."""
        texts = [
            '{\n      "covered": %s,\n      "steps": %s\n    }' % (
                _items([int.__repr__(i) for i in seq.covered], "\n      "),
                _items([self._step(s, "\n        ") for s in seq.steps], "\n      "))
            for seq in sequences
        ]
        return ('{\n  "schema": ' + _SCHEMA_TEXT
                + ',\n  "sequences": ' + _items(texts, "\n  ") + "\n}\n")

    def traces(self, runs: list[list[SimulationConfig]]) -> str:
        """The events of the steps of `runs` as JSON lines, each naming the
        index of its run as its `sequence`: a campaign's `traces.jsonl`, or
        what `simulate` writes."""
        value = self._value
        lines = []
        for i, steps in enumerate(runs):
            sequence = int.__repr__(i)
            for step in steps:
                ev = step.outcome
                if ev is None:
                    continue
                function, case = ev.fired
                line = '{"at": %s, "fired": {"case": %s, "function": %s}' % (
                    value(ev.at), int.__repr__(case), _encode_str(function))
                if function == "dext":
                    line += ', "input": ' + value(step.event) + ', "kind": "external"'
                else:
                    line += ', "kind": "internal"'
                if ev.output is not None:
                    line += ', "output": ' + value(ev.output)
                line += ', "sequence": ' + sequence + ', "state": ' + self._state(ev.state_after)[1]
                lines.append(line + (', "tie": true}\n' if ev.tie else "}\n"))
        return "".join(lines)

    def _step(self, step: SimulationConfig, newline: str) -> str:
        """A step's object, its lines starting with `newline`."""
        inner = newline + "  "
        deeper = inner + "  "
        head = ""
        if step.outcome is not None:
            function, case = step.outcome.fired
            head = (f'{inner}"fired": {{{deeper}"case": {int.__repr__(case)},'
                    f'{deeper}"function": {_encode_str(function)}{inner}}},')
        elif step.error is not None:
            head = f'{inner}"error": {_encode_str(step.error)},'
        # encoded names and values escape their newlines, so the raw ones
        # are the state's line breaks
        state = self._state(step.state)[0].replace("\n", inner)
        value = self._value
        return (f'{{{head}{inner}"input": {{{deeper}"event": {value(step.event)},'
                f'{deeper}"time": {value(step.time)}{inner}}},'
                f'{inner}"scc": {int.__repr__(step.scc_id)},'
                f'{inner}"state": {state}{newline}}}')

    def _state(self, state: dict[str, Value]) -> tuple[str, str]:
        """A state's object, its variables in name order: indented, as
        `dump_json` writes it at the top level, and on one line."""
        # `value_key` of each value, its two common cases inlined
        key = (*state, *[v.value if v.__class__ is Num else v.name if v.__class__ is Lit
                         else value_key(v) for v in state.values()])
        texts = self._states.get(key)
        if texts is None:
            value = self._value
            entries = [f"{_encode_str(name)}: {value(state[name])}" for name in sorted(state)]
            texts = self._states[key] = (_items(entries, "\n", "{}"),
                                         "{" + ", ".join(entries) + "}")
        return texts

    def _value(self, v: Value) -> str:
        cls = v.__class__
        key = v.value if cls is Num else v.name if cls is Lit else value_key(v)
        text = self._values.get(key)
        if text is None:
            text = self._values[key] = _encode_str(render_value(v))
        return text


def _items(texts: list[str], newline: str, brackets: str = "[]") -> str:
    """The items' texts in `brackets`, one a line, indented one level
    deeper than `newline`; the bare brackets when there are none."""
    if not texts:
        return brackets
    inner = newline + "  "
    return brackets[0] + inner + ("," + inner).join(texts) + newline + brackets[1]


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
            "none" if cfg is None or cfg.error is not None else "yes",
            seq_of.get(scc.id, ""),
        ])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# config / sequence files for the simulate command

def load_config(path: str) -> SimulationConfig:
    return _load_json(path, lambda raw: _step(raw, "a config", scc_optional=True))


def load_sequences(path: str) -> list[SimulationSequence]:
    return _load_json(path, _sequences)


def _sequences(raw) -> list[SimulationSequence]:
    """The sequences of a sequences file; each one's `covered` must list
    its steps' class ids, in order."""
    out = []
    for rec in _shaped(_shaped(raw, dict, "a sequence file")["sequences"], list, "sequences"):
        rec = _shaped(rec, dict, "a sequence")
        covered = _shaped(rec["covered"], list, "covered")
        seq = SimulationSequence([_step(s, "a step") for s in _shaped(rec["steps"], list, "steps")])
        if covered != seq.covered:
            raise ValueError(f"covered {covered} is not its steps' classes {seq.covered}")
        out.append(seq)
    return out


def _step(raw, what: str, scc_optional: bool = False) -> SimulationConfig:
    """A configuration or sequence step from the JSON `StepWriter`
    writes: its class id `scc`, an integer which only a config may omit
    (read as 0), its `state`, its `input` and the `error` it was recorded
    with, if any, which is a non-empty string, as the writer writes one.
    The trace event it fired is not read back.  A state names a
    variable: an empty one records a class that never ran, and its
    error."""
    raw = _shaped(raw, dict, what)
    pair = _shaped(raw["input"], dict, "an input")
    event, time = _value(pair["event"]), _value(pair["time"])
    scc_id = raw.get("scc", 0) if scc_optional else raw["scc"]
    if isinstance(scc_id, bool) or not isinstance(scc_id, int):
        raise ValueError(f"scc must be an integer, not {scc_id!r}")
    state = {k: _value(v) for k, v in _shaped(raw["state"], dict, "a state").items()}
    error = _shaped(raw["error"], str, "an error") if "error" in raw else None
    if error == "":
        raise ValueError("an error must be a non-empty string, not ''")
    if not state and error is None:
        raise ValueError(f"{what} without an error must have a state")
    return SimulationConfig(scc_id, state, event, time, error=error)


def _value(text) -> Value:
    text = _shaped(text, str, "a value")
    try:
        return _whole(text, _parse_value)
    except ParseFailure:
        raise ValueError(f"bad value literal {text!r}") from None
