"""Command-line driver.

Subcommands mirror the pipeline: parse, criteria, combine, select,
sequence, simulate, campaign, report.  Exit codes: 0 clean, 2 parse or
usage error; `simulate` alone also returns 3 when a run meets an
undefined transition and 4 when an execution error stops one.  The
pipeline commands, `campaign` included, exit 0 whatever they find and
count their findings in the report.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bounds import Bounds, BoundsError
from .campaign import (
    Campaign,
    CampaignError,
    _load_json,
    _shaped,
    dump_json,
    load_config,
    load_plan,
    load_sequences,
    load_tables,
    replay_sequence,
    run_campaign,
    write_artifacts,
)
from .check import BindError, bounds_errors, validate_model
from .criteria import CriterionError
from .dnf import DnfCapError
from .model import Model
from .parser import (
    ParseFailure,
    parse_bounds_file,
    parse_model_file,
)
from .selector import SelectError
from .simulator import run_config

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_FINDING = 3
EXIT_EXEC = 4


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="devs-scc",
        description="partition-criteria simulation campaigns for atomic DEVS models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_parse = sub.add_parser("parse", help="parse and validate a model")
    p_parse.add_argument("model")
    p_parse.add_argument("--bounds", help="enables bounded guard-coverage checks")

    for name in ("criteria", "combine", "select", "sequence", "campaign"):
        p = sub.add_parser(name)
        p.add_argument("--model", required=True)
        p.add_argument("--bounds", required=True)
        p.add_argument("--criteria", action="append", default=[], metavar="SPEC",
                       help="criterion selection, repeatable")
        p.add_argument("--parts", action="append", default=[],
                       help="standard-partition table file, repeatable")
        p.add_argument("--include-otherwise", action="store_true")
        p.add_argument("--plan", help="combination plan JSON")
        p.add_argument("--all-pairs", action="store_true",
                       help="combine every pair of base classes")
        p.add_argument("--group", action="append", default=[], metavar="IDS",
                       help="combine these comma-separated class ids, repeatable")
        p.add_argument("--max-arity", type=int, default=2)
        p.add_argument("--budget", type=int, default=1000)
        p.add_argument("--out", help="output directory (campaign) or file")
        p.add_argument("--probe-k", type=int, default=0)

    p_sim = sub.add_parser("simulate", help="run a config or sequence file")
    p_sim.add_argument("--model", required=True)
    p_sim.add_argument("--bounds", required=True)
    group = p_sim.add_mutually_exclusive_group(required=True)
    group.add_argument("--config")
    group.add_argument("--sequence")
    p_sim.add_argument("--out", help="trace output file (JSON lines)")

    p_rep = sub.add_parser("report", help="summarize a report.json")
    p_rep.add_argument("report")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ParseFailure as err:
        for d in err.diagnostics:
            print(f"error: {d}", file=sys.stderr)
        return EXIT_PARSE
    except (BindError, BoundsError, CampaignError, CriterionError, DnfCapError,
            SelectError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE


def _dispatch(args) -> int:
    if args.command == "parse":
        return _cmd_parse(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    return _cmd_pipeline(args)


def _cmd_parse(args) -> int:
    model, report = parse_model_file(args.model)
    if args.bounds and report.usable:
        bounds = parse_bounds_file(args.bounds)
        model, report = validate_model(model, bounds)
    for err in report.errors:
        print(f"error: {err}", file=sys.stderr)
    for warn in report.warnings:
        print(f"warning: {warn}", file=sys.stderr)
    for note in report.notes:
        print(f"note: {note}", file=sys.stderr)
    print(f"{model.name}: {report.summary()}")
    return EXIT_OK if report.usable else EXIT_PARSE


def _load_model_and_bounds(args) -> tuple[Model, Bounds]:
    """The usable model and the bounds checked against its sorts."""
    model, report = parse_model_file(args.model)
    if not report.usable:
        raise CampaignError("model rejected: " + "; ".join(report.errors))
    bounds = parse_bounds_file(args.bounds)
    errors = bounds_errors(model, bounds)
    if errors:
        raise BoundsError("; ".join(errors))
    return model, bounds


def _build_campaign(args) -> tuple[Campaign, list[str]]:
    if args.probe_k == 1 or args.probe_k < 0:
        # one sample cannot disagree with itself
        raise CampaignError("--probe-k must be 0 (off) or at least 2")
    model, bounds = _load_model_and_bounds(args)
    tables, notes = load_tables(args.parts)
    plan = load_plan(args.plan) if args.plan else None
    if plan is None and (args.all_pairs or args.group):
        from .algebra import CombinationPlan

        try:
            plan = CombinationPlan(
                groups=tuple(
                    tuple(int(i) for i in group.split(",")) for group in args.group
                ),
                all_pairs=args.all_pairs,
                max_arity=args.max_arity,
                budget=args.budget,
            )
        except ValueError as err:
            raise CampaignError(f"bad combination flags: {err}") from None
    campaign = Campaign(
        model=model,
        bounds=bounds,
        tables=tables,
        selections=args.criteria,
        plan=plan,
        include_otherwise=args.include_otherwise,
        probe_k=args.probe_k,
    )
    return campaign, notes


# The last stage each pipeline subcommand needs: `criteria` prints the
# catalog, which holds the combined classes when a plan is given.
_STOP_AFTER = {"criteria": "combine", "combine": "combine", "select": "select",
               "sequence": "sequence", "campaign": "simulate"}


def _cmd_pipeline(args) -> int:
    campaign, table_notes = _build_campaign(args)
    result = run_campaign(campaign, stop_after=_STOP_AFTER[args.command])
    result.report.notes = table_notes + result.report.notes

    if args.command == "criteria":
        _emit(args, dump_json(result.catalog_json()))
        for label, n in result.report.criteria_counts:
            print(f"{label}: {n} classes")
        print(f"base catalog: {result.report.base_count} classes")
        return EXIT_OK
    if args.command == "combine":
        _emit(args, dump_json(result.catalog_json()))
        if result.report.combine:
            c = result.report.combine
            print(f"combinations: {c.attempted} attempted, {c.kept} kept, "
                  f"{c.dropped} dropped, {c.unknown} unknown")
        print(f"catalog: {result.report.catalog_size} classes")
        return EXIT_OK
    if args.command == "select":
        _emit(args, dump_json(result.configs_json()))
        print(f"configs: {len(result.configs)} selected, "
              f"{len(result.report.config_errors)} failed")
        return EXIT_OK
    if args.command == "sequence":
        _emit(args, dump_json(result.sequences_json()))
        print(f"sequences: {len(result.sequences)}")
        return EXIT_OK
    # campaign
    out_dir = args.out or "campaign-out"
    write_artifacts(result, out_dir)
    print(f"campaign artifacts written to {out_dir}")
    for label, n in result.report.criteria_counts:
        print(f"  {label}: {n} classes")
    print(f"  catalog: {result.report.catalog_size}, "
          f"sequences: {result.report.sequence_count}, "
          f"findings: {len(result.report.findings)}")
    return EXIT_OK


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")


def _cmd_simulate(args) -> int:
    model, bounds = _load_model_and_bounds(args)
    traces = []
    if args.config:
        traces.append(run_config(model, load_config(args.config), bounds))
    else:
        for seq in load_sequences(args.sequence):
            traces.append(replay_sequence(model, seq, bounds))
    lines = []
    findings: list[str] = []
    exec_errors: list[str] = []
    for i, trace in enumerate(traces):
        for ev in trace.events:
            lines.append(json.dumps({"trace": i, **ev.to_json()}, sort_keys=True))
        for f in trace.findings:
            (findings if "undefined transition" in f else exec_errors).append(f)
    _emit(args, "\n".join(lines) + ("\n" if lines else ""))
    for f in findings:
        print(f"finding: {f}", file=sys.stderr)
    for f in exec_errors:
        print(f"error: {f}", file=sys.stderr)
    if findings:
        return EXIT_FINDING
    if exec_errors:
        return EXIT_EXEC
    return EXIT_OK


def _cmd_report(args) -> int:
    print("\n".join(_load_json(args.report, _report_lines)))
    return EXIT_OK


def _report_lines(raw) -> list[str]:
    """The summary of a report.json; a missing field is a KeyError and a
    field of the wrong shape a ValueError."""
    rec = _shaped(raw, dict, "a report")
    lines = [f"model: {rec['model']}"]
    for entry in _shaped(rec["criteria"], list, "criteria"):
        entry = _shaped(entry, dict, "a criteria entry")
        lines.append(f"  {entry['selection']}: {entry['classes']} classes")
    lines.append(f"base classes: {rec['base_classes']}")
    if "combined" in rec:
        c = _shaped(rec["combined"], dict, "combined")
        lines.append(f"combined: {c['attempted']} attempted, {c['kept']} kept, "
                     f"{c['dropped']} dropped, {c['unknown']} unknown")
    lines.append(f"catalog: {rec['catalog_size']} (reconciles: {rec['reconciles']})")
    lines.append(f"configs: {rec['configs_selected']}, sequences: {rec['sequences']}, "
                 f"trace events: {rec['trace_events']}")
    findings = _shaped(rec["findings"], list, "findings")
    if findings:
        lines.append("findings:")
        lines += [f"  {f}" for f in findings]
    flags = _shaped(rec["probe_flags"], list, "probe_flags")
    if flags:
        lines.append("non-uniform classes:")
        for p in flags:
            p = _shaped(p, dict, "a probe flag")
            lines.append(f"  class {p['scc']}: {p['note']}")
    lines += [f"note: {note}" for note in _shaped(rec["notes"], list, "notes")]
    return lines


if __name__ == "__main__":
    sys.exit(main())
