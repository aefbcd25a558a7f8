import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import devs_scc.campaign as campaign_mod
from devs_scc.campaign import (
    Campaign,
    StepWriter,
    build_plan,
    dump_json,
    load_config,
    load_plan,
    load_sequences,
    load_tables,
    run_campaign,
    write_artifacts,
)
from devs_scc.cli import main
from devs_scc.context import Context
from devs_scc.parser import parse_pred_text
from devs_scc.scc import SCC
from devs_scc.selector import SimulationConfig
from devs_scc.sequencer import SimulationSequence
from devs_scc.simulator import TraceEvent
from devs_scc.syntax import TRUE
from devs_scc.values import INF, TAU, Inf, Lit, Num, Tup, num
from tests.conftest import (
    ELEVATOR_SELECTIONS,
    FIXTURES,
    SODA_PAIRS_SELECTIONS,
    SODA_SELECTIONS,
    values_unhashed,
)
from tests import oracle


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "devs_scc.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_parse_command_accepts_fixtures():
    code, out, _ = run_cli("parse", str(FIXTURES / "elevator.devs"))
    assert code == 0
    assert "18/18/25" in out


def test_parse_command_rejects_malformed_input(tmp_path):
    bad = tmp_path / "bad.devs"
    bad.write_text("model broken {\n  state {\n")
    code, _, err = run_cli("parse", str(bad))
    assert code == 2
    assert "error:" in err and ":" in err


def test_invalid_bounds_exit_2_without_a_traceback(tmp_path):
    bad = tmp_path / "bad.bounds"
    bad.write_text("bounds { nat default = 5..0; }")
    code, out, err = run_cli(
        "criteria",
        "--model", str(FIXTURES / "soda.devs"),
        "--bounds", str(bad),
        "--criteria", "cases",
    )
    assert code == 2
    assert out == ""
    assert err == "error: empty range for default: 5..0\n"


def test_criteria_command_counts_soda_cases(tmp_path):
    out_file = tmp_path / "catalog.json"
    code, out, _ = run_cli(
        "criteria",
        "--model", str(FIXTURES / "soda.devs"),
        "--bounds", str(FIXTURES / "soda.bounds"),
        "--criteria", "cases",
        "--out", str(out_file),
    )
    assert code == 0
    assert "cases: 11 classes" in out
    catalog = json.loads(out_file.read_text())
    assert len(catalog["classes"]) == 11


def test_empty_criteria_selection_is_a_clean_campaign(tmp_path):
    code, out, _ = run_cli(
        "campaign",
        "--model", str(FIXTURES / "soda.devs"),
        "--bounds", str(FIXTURES / "soda.bounds"),
        "--out", str(tmp_path / "out"),
    )
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["catalog_size"] == 0
    assert report["reconciles"] is True


def test_simulate_config_reproduces_the_missed_case_finding(tmp_path):
    code, _, err = run_cli(
        "simulate",
        "--model", str(FIXTURES / "soda.devs"),
        "--bounds", str(FIXTURES / "soda.bounds"),
        "--config", str(FIXTURES / "soda-missed-case.config.json"),
        "--out", str(tmp_path / "trace.jsonl"),
    )
    assert code == 3
    assert err.startswith("finding: class 0: undefined transition: no dext case matches (m=idle, ")
    # the failed step fired no event: its finding is its one record
    expected = FIXTURES / "expected" / "soda-missed-case.trace.jsonl"
    assert (tmp_path / "trace.jsonl").read_text() == expected.read_text() == ""


@pytest.mark.parametrize("change, message", [
    ({"bogus": "7"}, "initial state names unknown variable bogus"),
    ({"d": None}, "initial state misses variable d"),
], ids=["unknown", "missing"])
def test_simulate_config_whose_state_names_other_variables_fails_setup(change, message, tmp_path):
    """A config state that names a variable the schema lacks, or lacks
    one it has, fails set-up: exit 4, no trace line."""
    config = json.loads((FIXTURES / "soda-missed-case.config.json").read_text())
    config["state"].update(change)
    config["state"] = {k: v for k, v in config["state"].items() if v is not None}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(
        "simulate",
        "--model", str(FIXTURES / "soda.devs"),
        "--bounds", str(FIXTURES / "soda.bounds"),
        "--config", str(path),
    )
    assert (code, out, err) == (4, "", f"error: class 0: setup failed: {message}\n")


def test_simulate_tau_on_passive_state_is_an_execution_error(tmp_path):
    config = {
        "schema": "devs-scc/1",
        "scc": 0,
        "state": {
            "m": "idle", "d": "0", "ot": "infinity", "np": "50", "dp": "25",
            "it": "infinity", "ms": "(0, 0, 0)", "om": "(0, 0, 0)",
            "mr": "(0, 0, 0)",
        },
        "input": {"event": "tau", "time": "0"},
    }
    path = tmp_path / "passive.config.json"
    path.write_text(json.dumps(config))
    code, _, err = run_cli(
        "simulate",
        "--model", str(FIXTURES / "soda.devs"),
        "--bounds", str(FIXTURES / "soda.bounds"),
        "--config", str(path),
    )
    assert code == 4
    assert "passive state" in err


def test_simulate_clean_config_exits_zero(tmp_path):
    config = {
        "schema": "devs-scc/1",
        "scc": 0,
        "state": {
            "m": "idle", "d": "0", "ot": "infinity", "np": "50", "dp": "25",
            "it": "300", "ms": "(1, 1, 1)", "om": "(0, 0, 0)",
            "mr": "(0, 0, 0)",
        },
        "input": {"event": "c25", "time": "1"},
    }
    path = tmp_path / "coin.config.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(
        "simulate",
        "--model", str(FIXTURES / "soda.devs"),
        "--bounds", str(FIXTURES / "soda.bounds"),
        "--config", str(path),
    )
    assert code == 0, err
    event = json.loads(out.splitlines()[0])
    assert event["fired"] == {"function": "dext", "case": 1}


def _elevator_campaign(plan=None) -> Campaign:
    from devs_scc.parser import parse_bounds_file, parse_model_file

    model, report = parse_model_file(str(FIXTURES / "elevator.devs"))
    assert report.usable
    bounds = parse_bounds_file(str(FIXTURES / "elevator.bounds"))
    tables, _ = load_tables([str(FIXTURES / "elevator.parts")])
    return Campaign(
        model=model,
        bounds=bounds,
        tables=tables,
        selections=list(ELEVATOR_SELECTIONS),
        plan=load_plan(str(FIXTURES / "elevator.plan.json")) if plan else None,
    )


def test_elevator_campaign_counts_reconcile(tmp_path):
    campaign = _elevator_campaign(plan=True)
    result = run_campaign(campaign)
    assert len(result.base()) == 88
    assert result.combine.kept == 4
    assert len(result.catalog) == 92
    assert result.reconciles()
    write_artifacts(result, str(tmp_path / "out"))
    for name in ("catalog.json", "configs.json", "sequences.json",
                 "traces.jsonl", "report.json", "report.csv"):
        assert (tmp_path / "out" / name).exists()
    configs = json.loads((tmp_path / "out" / "configs.json").read_text())
    assert len(configs["configs"]) == 92


def test_campaign_cli_end_to_end(tmp_path):
    out = tmp_path / "artifacts"
    code, stdout, stderr = run_cli(
        "campaign",
        "--model", str(FIXTURES / "elevator.devs"),
        "--bounds", str(FIXTURES / "elevator.bounds"),
        "--parts", str(FIXTURES / "elevator.parts"),
        "--plan", str(FIXTURES / "elevator.plan.json"),
        *[arg for sel in ELEVATOR_SELECTIONS for arg in ("--criteria", sel)],
        "--out", str(out),
    )
    assert code == 0, stderr
    report = json.loads((out / "report.json").read_text())
    assert report["base_classes"] == 88
    assert report["catalog_size"] == 92

    code, summary, _ = run_cli("report", str(out / "report.json"))
    assert code == 0
    assert "catalog: 92" in summary


def _soda_campaign() -> Campaign:
    """The shipped soda campaign (scripts/run_soda_campaign.py)."""
    from devs_scc.parser import parse_bounds_file, parse_model_file

    model, report = parse_model_file(str(FIXTURES / "soda.devs"))
    assert report.usable
    tables, _ = load_tables([])
    return Campaign(model, parse_bounds_file(str(FIXTURES / "soda.bounds")), tables,
                    list(SODA_SELECTIONS), probe_k=4)


def test_simulate_sequence_file_replays(tmp_path):
    """`simulate --sequence` on a campaign's own sequences.json runs every
    step again, failed ones included, and replays its traces.jsonl byte
    for byte and its report's findings, which no trace line holds."""
    for name, campaign, events in (("elevator", _elevator_campaign(plan=True), 90),
                                   ("soda", _soda_campaign(), 31)):
        out = tmp_path / name
        result = run_campaign(campaign)
        write_artifacts(result, str(out))
        code, _, stderr = run_cli(
            "simulate",
            "--model", str(FIXTURES / f"{name}.devs"),
            "--bounds", str(FIXTURES / f"{name}.bounds"),
            "--sequence", str(out / "sequences.json"),
            "--out", str(out / "replay.jsonl"),
        )
        # both catalogs include classes that reveal model gaps
        assert code == 3, name
        assert "undefined transition" in stderr
        recorded = (out / "traces.jsonl").read_text()
        assert len(recorded.splitlines()) == events
        assert (out / "replay.jsonl").read_text() == recorded, name
        findings = [line.split(": ", 1)[1] for line in stderr.splitlines()
                    if line.startswith(("finding: ", "error: "))]
        assert sorted(findings) == sorted(result.report_json()["findings"]), name
        assert_no_error_in_traces(recorded)


def assert_no_error_in_traces(text: str) -> None:
    """A failure is recorded on its step only: no trace line names one."""
    for line in text.splitlines():
        event = json.loads(line)
        assert "error" not in event and event["kind"] in ("internal", "external"), line


def test_select_and_sequence_commands(tmp_path):
    code, out, _ = run_cli(
        "select",
        "--model", str(FIXTURES / "soda.devs"),
        "--bounds", str(FIXTURES / "soda.bounds"),
        "--criteria", "cases",
        "--out", str(tmp_path / "configs.json"),
    )
    assert code == 0 and "11 selected" in out
    code, out, _ = run_cli(
        "sequence",
        "--model", str(FIXTURES / "soda.devs"),
        "--bounds", str(FIXTURES / "soda.bounds"),
        "--criteria", "cases",
        "--out", str(tmp_path / "sequences.json"),
    )
    assert code == 0
    seqs = json.loads((tmp_path / "sequences.json").read_text())
    covered = [i for s in seqs["sequences"] for i in s["covered"]]
    assert sorted(covered) == list(range(1, 12))


def test_combine_command_reports_counts(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"groups": [[1, 49], [1, 57], [36, 87], [13, 59, 85]],
                                "maxArity": 3}))
    code, out, _ = run_cli(
        "combine",
        "--model", str(FIXTURES / "elevator.devs"),
        "--bounds", str(FIXTURES / "elevator.bounds"),
        "--parts", str(FIXTURES / "elevator.parts"),
        "--plan", str(plan),
        *[arg for sel in ELEVATOR_SELECTIONS for arg in ("--criteria", sel)],
    )
    assert code == 0
    assert "4 attempted, 4 kept, 0 dropped" in out


def test_validation_warns_about_overlapping_output_cases(tmp_path):
    # the elevator's output function has open-door cases that shadow a
    # later alarm-driven one; the bounded coverage check says so
    code, out, err = run_cli(
        "parse",
        str(FIXTURES / "elevator.devs"),
        "--bounds", str(FIXTURES / "elevator.bounds"),
    )
    assert code == 0
    assert "lambda cases" in err and "overlap" in err


def test_elevator_first_class_config_simulates_cleanly(tmp_path):
    from devs_scc.criteria import cases_criterion
    from devs_scc.parser import parse_bounds_file, parse_model_file
    from devs_scc.selector import select_config

    model, _ = parse_model_file(str(FIXTURES / "elevator.devs"))
    bounds = parse_bounds_file(str(FIXTURES / "elevator.bounds"))
    ctx = Context(model, bounds)
    sccs, _ = cases_criterion(ctx)
    cfg = select_config(sccs[0], ctx)
    path = tmp_path / "scc1.config.json"
    path.write_text(json.dumps({"schema": "devs-scc/1", **oracle.step_layout(cfg)}))
    code, out, err = run_cli(
        "simulate",
        "--model", str(FIXTURES / "elevator.devs"),
        "--bounds", str(FIXTURES / "elevator.bounds"),
        "--config", str(path),
    )
    assert code == 0, err
    event = json.loads(out.splitlines()[0])
    assert event["fired"] == {"function": "dext", "case": 1}


def test_combine_via_cli_flags(tmp_path):
    code, out, _ = run_cli(
        "combine",
        "--model", str(FIXTURES / "elevator.devs"),
        "--bounds", str(FIXTURES / "elevator.bounds"),
        "--parts", str(FIXTURES / "elevator.parts"),
        "--group", "1,49",
        "--group", "13,59,85",
        "--max-arity", "3",
        *[arg for sel in ELEVATOR_SELECTIONS for arg in ("--criteria", sel)],
    )
    assert code == 0
    assert "2 attempted, 2 kept, 0 dropped" in out


ELEVATOR_ARGS = [
    "--model", str(FIXTURES / "elevator.devs"),
    "--bounds", str(FIXTURES / "elevator.bounds"),
    "--parts", str(FIXTURES / "elevator.parts"),
    "--group", "1,49",
    "--group", "13,59,85",
    "--max-arity", "3",
    *[arg for sel in ELEVATOR_SELECTIONS for arg in ("--criteria", sel)],
]
LATER_STAGES = {
    "combine": ("select_config", "build_sequences", "uniformity_probe"),
    "select": ("build_sequences", "uniformity_probe"),
    "sequence": ("uniformity_probe",),
}


@pytest.mark.parametrize("command, artifact, last_stage", [
    ("criteria", "catalog.json", "combine"),
    ("combine", "catalog.json", "combine"),
    ("select", "configs.json", "select"),
    ("sequence", "sequences.json", "sequence"),
])
def test_pipeline_commands_stop_after_their_stage(
    command, artifact, last_stage, tmp_path, monkeypatch, capsys
):
    assert main(["campaign", *ELEVATOR_ARGS, "--probe-k", "2", "--out", str(tmp_path / "full")]) == 0
    capsys.readouterr()

    def unreachable(*args, **kwargs):
        raise AssertionError(f"{command} ran a stage after {last_stage}")

    for name in LATER_STAGES[last_stage]:
        monkeypatch.setattr(campaign_mod, name, unreachable)
    assert main([command, *ELEVATOR_ARGS, "--out", str(tmp_path / artifact)]) == 0
    assert (tmp_path / artifact).read_bytes() == (tmp_path / "full" / artifact).read_bytes()


def test_run_campaign_rejects_an_unknown_stage():
    with pytest.raises(ValueError, match="unknown stage"):
        run_campaign(_elevator_campaign(), stop_after="replay")


# a model, a bounds file for it with a value outside its sort, and the error
_OUTSIDE_SORT = [
    ("toggle", "bounds { set m = {C}; time samples = {0, 1, 2}; }",
     "bounds set m holds C, outside its sort enum {A, B}"),
    ("elevator", (FIXTURES / "elevator.bounds").read_text()
     .replace("const TD1 = 2;", "const TD1 = -2;"),
     "bounds const TD1 holds -2, outside its sort time"),
]


@pytest.mark.parametrize("name, text, error", _OUTSIDE_SORT, ids=["set", "const"])
def test_a_bounds_value_outside_its_sort_exits_2(name, text, error, tmp_path):
    bad = tmp_path / "bad.bounds"
    bad.write_text(text)
    message = f"error: {error}\n"
    code, out, err = run_cli("parse", str(FIXTURES / f"{name}.devs"), "--bounds", str(bad))
    assert code == 2
    assert err.startswith(message)
    code, out, err = run_cli(
        "select",
        "--model", str(FIXTURES / f"{name}.devs"),
        "--bounds", str(bad),
        "--criteria", "cases",
    )
    assert (code, out, err) == (2, "", message)


def test_simulate_sequence_with_an_infinite_external_time_exits_4(tmp_path):
    step = {"scc": 1, "state": {"m": "A"}, "input": {"event": "go", "time": "infinity"}}
    sequences = tmp_path / "sequences.json"
    sequences.write_text(json.dumps({
        "schema": "devs-scc/1",
        "sequences": [{"steps": [step], "covered": [1]}],
    }))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"schema": "devs-scc/1", **step}))
    toggle = ["--model", str(FIXTURES / "toggle.devs"), "--bounds", str(FIXTURES / "toggle.bounds")]
    for source in (["--sequence", str(sequences)], ["--config", str(config)]):
        code, out, err = run_cli("simulate", *toggle, *source)
        assert code == 4
        assert err == "error: class 1: external event needs a finite time\n"
        # in both modes the failed step fired no event, so no trace line
        assert out == ""


def test_simulate_an_unusable_first_state_fails_setup_in_both_modes(tmp_path):
    step = {"scc": 1, "state": {"m": "C"}, "input": {"event": "go", "time": "0"}}
    sequences = tmp_path / "sequences.json"
    sequences.write_text(json.dumps({"sequences": [{"steps": [step], "covered": [1]}]}))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(step))
    toggle = ["--model", str(FIXTURES / "toggle.devs"), "--bounds", str(FIXTURES / "toggle.bounds")]
    for source in (["--sequence", str(sequences)], ["--config", str(config)]):
        assert run_cli("simulate", *toggle, *source) == (
            4, "", "error: class 1: setup failed: value C does not fit sort enum {A, B} in initial m\n")


def test_a_step_that_fails_while_running_names_its_class_and_ends_its_run(tmp_path, capsys):
    """A `--sequence` step that fails while running prints `error: class
    N: …` for its own class, writes no trace line, ends its run, and exits
    4; a class after it that never ran is still noted.  A config without
    `scc` is class 0."""
    steps = [
        {"scc": 1, "state": {"m": "A"}, "input": {"event": "go", "time": "1"}},
        {"scc": 2, "state": {"m": "B"}, "input": {"event": "tau", "time": "0"}},
        {"scc": 3, "state": {"m": "A"}, "input": {"event": "go", "time": "1"}},
        {**UNSELECTED, "scc": 4},
    ]
    sequences = tmp_path / "sequences.json"
    sequences.write_text(json.dumps({"sequences": [{"steps": steps, "covered": [1, 2, 3, 4]}]}))
    assert main(["simulate", *TOGGLE_ARGS, "--sequence", str(sequences)]) == 4
    assert capsys.readouterr() == (
        '{"at": "1", "fired": {"case": 1, "function": "dext"}, "input": "go", "kind": "external", '
        '"sequence": 0, "state": {"m": "B"}}\n',
        "error: class 2: passive state, no internal transition\n"
        "note: class 4: no representative within bounds\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"state": {"m": "A"}, "input": {"event": "tau", "time": "0"}}))
    assert main(["simulate", *TOGGLE_ARGS, "--config", str(config)]) == 4
    assert capsys.readouterr() == ("", "error: class 0: passive state, no internal transition\n")


UNSELECTED = {"scc": 3, "state": {}, "input": {"event": "tau", "time": "0"},
              "error": "no representative within bounds"}
UNDEFINED = {"scc": 1, "state": {"m": "A"}, "input": {"event": "go", "time": "1"},
             "error": "undefined transition: no dext case matches (m=A, x=go, e=1)"}
FAILED = {"scc": 2, "state": {"m": "B"}, "input": {"event": "go", "time": "infinity"},
          "error": "external event needs a finite time"}
# recorded with errors that running them does not give
BOGUS = {"scc": 1, "state": {"m": "A"}, "input": {"event": "go", "time": "0"},
         "error": "undefined transition: bogus"}
PASSIVE = {"scc": 2, "state": {"m": "B"}, "input": {"event": "tau", "time": "0"},
           "error": "undefined transition: no dext case matches (m=B, x=go, e=0)"}


def _fired_go(at: str) -> str:
    return ('{"at": "%s", "fired": {"case": 1, "function": "dext"}, "input": "go", '
            '"kind": "external", "sequence": 0, "state": {"m": "B"}}\n' % at)


def _outside_the_input_sort(event: str) -> dict:
    return {"scc": 4, "state": {"m": "A"}, "input": {"event": event, "time": "0"}}


@pytest.mark.parametrize("step, code, out, err", [
    (UNSELECTED, 0, "", "note: class 3: no representative within bounds\n"),
    (UNDEFINED, 0, _fired_go("1"), ""),
    (BOGUS, 0, _fired_go("0"), ""),
    (FAILED, 4, "", "error: class 2: external event needs a finite time\n"),
    (PASSIVE, 4, "", "error: class 2: passive state, no internal transition\n"),
    (_outside_the_input_sort("foo"), 4, "",
     "error: class 4: value foo does not fit sort enum {go} in input\n"),
    (_outside_the_input_sort("5"), 4, "",
     "error: class 4: value 5 does not fit sort enum {go} in input\n"),
], ids=["unselected", "undefined", "bogus", "failed", "passive", "foo", "5"])
def test_simulate_runs_each_step_with_a_state_whatever_error_it_records(
    step, code, out, err, tmp_path, capsys
):
    """A step is read from a config file as from a sequences file, and
    run if it has a state, whatever error it was recorded with: its exit
    code, trace and findings are the run's.  One with no state is a class
    that selection could not represent, which never ran: a note, exit 0.
    An event outside the model's input sort is an execution error, exit 4."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(step))
    sequences = tmp_path / "sequences.json"
    sequences.write_text(json.dumps({"sequences": [{"steps": [step], "covered": [step["scc"]]}]}))
    for source in (["--config", str(config)], ["--sequence", str(sequences)]):
        assert main(["simulate", *TOGGLE_ARGS, *source]) == code
        assert capsys.readouterr() == (out, err)


def test_only_the_steps_that_ran_set_the_simulate_exit_code(tmp_path, capsys):
    sequences = tmp_path / "sequences.json"
    sequences.write_text(json.dumps({"sequences": [
        {"steps": [UNSELECTED], "covered": [3]},
        {"steps": [{"scc": 1, "state": {"m": "A"}, "input": {"event": "go", "time": "0"}}],
         "covered": [1]},
    ]}))
    assert main(["simulate", *TOGGLE_ARGS, "--sequence", str(sequences)]) == 0
    assert capsys.readouterr() == (
        '{"at": "0", "fired": {"case": 1, "function": "dext"}, "input": "go", "kind": "external", '
        '"sequence": 1, "state": {"m": "B"}}\n',
        "note: class 3: no representative within bounds\n")


def test_a_config_and_a_step_share_one_layout_and_one_reader(tmp_path):
    """`configs.json` and `sequences.json` write one layout, read back by
    one reader: a configuration and a step recorded with an error come
    back equal, an executed step without the trace event it fired."""
    config = SimulationConfig(2, {"m": Lit("B")}, Lit("go"), num(1))
    unselected = SimulationConfig(3, {}, TAU, num(0), error="no representative within bounds")
    fired = TraceEvent(num(0), ("dext", 1), {"m": Lit("B")})
    ran = SimulationConfig(1, {"m": Lit("A")}, Lit("go"), num(0), outcome=fired)
    path = tmp_path / "input.json"
    for step in (config, unselected):
        path.write_text(dump_json(oracle.step_layout(step)))
        assert load_config(str(path)) == step
    sequence = SimulationSequence([ran, config, unselected])
    path.write_text(StepWriter().sequences([sequence]))
    assert load_sequences(str(path)) == [SimulationSequence(
        [SimulationConfig(1, {"m": Lit("A")}, Lit("go"), num(0)), config, unselected])]


def test_unselectable_class_is_selected_once_and_named_once(toggle, toggle_bounds, monkeypatch):
    import devs_scc.sequencer as sequencer

    calls = []
    select = campaign_mod.select_config

    def counting(scc, *args):
        calls.append(scc.id)
        return select(scc, *args)

    def refuse(*args):
        raise AssertionError("class selected twice")

    monkeypatch.setattr(campaign_mod, "select_config", counting)
    monkeypatch.setattr(sequencer, "select_config", refuse)
    result = run_campaign(Campaign(
        model=toggle,
        bounds=toggle_bounds,
        tables={},
        selections=["cases", "intentional state m = A /\\ m = B"],
    ))
    message = "class 3: no representative within bounds"
    assert calls == [1, 2, 3]
    # named in config_errors only: the step never ran, so it is no finding,
    # and the sequencer adds no note
    report = result.report_json()
    assert report["config_errors"] == [message]
    assert report["findings"] == []
    assert not any("class 3" in note for note in result.notes)
    assert result.sequences[-1].steps[0].error == "no representative within bounds"


def test_run_campaign_runs_each_sequence_step_once(monkeypatch):
    import devs_scc.simulator as simulator

    calls = []
    advance = simulator.advance

    def counting(*args):
        calls.append(args)
        return advance(*args)

    monkeypatch.setattr(simulator, "advance", counting)
    result = run_campaign(_elevator_campaign(plan=True))
    steps = [step for seq in result.sequences for step in seq.steps]
    # an unselectable head's step has no state and never runs
    ran = [step for step in steps if step.state]
    assert len(calls) == len(ran) == 92
    assert sum(1 for step in ran if step.error) == 2
    assert len(result.report_json()["findings"]) == 2


def test_a_campaign_probes_each_distinct_configuration_once(monkeypatch):
    """The probe runs each distinct sampled state, event and time once a
    campaign and gives every class that samples it the signature of that
    run: its reports are those of probes that share nothing."""
    import devs_scc.simulator as simulator

    runs = []
    run_config = simulator.run_config

    def counting(cfg, ctx):
        runs.append((tuple(cfg.state.items()), cfg.event, cfg.time))
        return run_config(cfg, ctx)

    campaign = _elevator_campaign()
    campaign.probe_k = 4
    monkeypatch.setattr(simulator, "run_config", counting)
    result = run_campaign(campaign)
    assert len(runs) == len(set(runs)) == 87
    monkeypatch.undo()
    alone = [simulator.uniformity_probe(scc, 4, campaign.context()) for scc in result.base()]
    assert result.probe_flags == [p.to_json() for p in alone if not p.uniform]
    assert len(result.probe_flags) == 15


TOGGLE_ARGS = ["--model", str(FIXTURES / "toggle.devs"), "--bounds", str(FIXTURES / "toggle.bounds")]


@pytest.mark.parametrize("command, flags, text, message", [
    ("combine", ["--all-pairs", "--max-arity", "1"], None,
     "bad combination flags: max_arity must be at least 2"),
    ("combine", ["--plan"], '{"maxArity": 1}', "max_arity must be at least 2"),
    ("combine", ["--group", "1,x"], None,
     "bad combination flags: invalid literal for int() with base 10: 'x'"),
    ("combine", ["--plan"], '{"groups": [', "invalid JSON: "),
    ("simulate", ["--config"], '{"state": ', "invalid JSON: "),
    ("simulate", ["--sequence"], '{"sequences": [}', "invalid JSON: "),
    ("simulate", ["--config"], '{"input": {"event": "go", "time": "1"}}',
     "missing field 'state'"),
    ("simulate", ["--sequence"], '{"schema": "devs-scc/1"}', "missing field 'sequences'"),
    ("combine", ["--plan"], '{"groups": [[1, 3]], "budget": "x"}',
     "budget must be an integer, not 'x'"),
    ("combine", ["--plan"], '{"maxArity": "3"}', "max_arity must be an integer, not '3'"),
    ("combine", ["--plan"], '{"groups": 5}', "groups must be an array, not a number"),
    ("combine", ["--plan"], '[1, 2]', "a plan must be an object, not an array"),
    ("simulate", ["--config"], '{"state": [1], "input": {"event": "go", "time": "0"}}',
     "a state must be an object, not an array"),
    ("simulate", ["--config"], '{"state": {"m": 5}, "input": {"event": "go", "time": "0"}}',
     "a value must be a string, not a number"),
    ("simulate", ["--config"], '{"state": {"m": "A"}, "input": "go"}',
     "an input must be an object, not a string"),
    ("simulate", ["--sequence"], '{"sequences": 3}', "sequences must be an array, not a number"),
    ("simulate", ["--sequence"],
     '{"sequences": [{"covered": [1], "steps": [{"state": {}, "input": {"event": "go", "time": "0"}}]}]}',
     "missing field 'scc'"),
    ("simulate", ["--config"], '{"state": {}, "input": {"event": "go", "time": "0"}}',
     "a config without an error must have a state"),
    ("simulate", ["--sequence"],
     '{"sequences": [{"covered": [1], "steps": [{"scc": 1, "state": {}, "input": {"event": "go", "time": "0"}}]}]}',
     "a step without an error must have a state"),
    ("simulate", ["--sequence"],
     '{"sequences": [{"covered": [2], "steps": [{"scc": 1, "state": {"m": "A"}, "input": {"event": "go", "time": "0"}}]}]}',
     "covered [2] is not its steps' classes [1]"),
    ("simulate", ["--sequence"],
     '{"sequences": [{"covered": [2, 1], "steps": ['
     '{"scc": 1, "state": {"m": "A"}, "input": {"event": "go", "time": "0"}}, '
     '{"scc": 2, "state": {"m": "B"}, "input": {"event": "go", "time": "0"}}]}]}',
     "covered [2, 1] is not its steps' classes [1, 2]"),
    ("combine", ["--plan", str(FIXTURES / "elevator.plan.json"), "--all-pairs"], None,
     "--plan cannot be combined with --all-pairs, --group, --max-arity or --budget"),
    ("combine", ["--group", "1,2", "--plan", str(FIXTURES / "elevator.plan.json")], None,
     "--plan cannot be combined with --all-pairs, --group, --max-arity or --budget"),
    ("combine", ["--plan", str(FIXTURES / "elevator.plan.json"), "--budget", "0"], None,
     "--plan cannot be combined with --all-pairs, --group, --max-arity or --budget"),
    ("combine", ["--max-arity", "3", "--plan", str(FIXTURES / "elevator.plan.json")], None,
     "--plan cannot be combined with --all-pairs, --group, --max-arity or --budget"),
    ("combine", ["--all-pairs", "--budget", "-5"], None,
     "bad combination flags: budget must be at least 0"),
    ("combine", ["--budget", "10"], None, "--max-arity and --budget need --all-pairs or --group"),
    ("campaign", ["--max-arity", "3"], None, "--max-arity and --budget need --all-pairs or --group"),
    ("combine", ["--plan"], '{"allPairs": true, "budget": -1}', "budget must be at least 0"),
    ("combine", ["--plan"], '{"groups": [[[1], 2]]}',
     "a group's class ids must be integers, not [1]"),
    ("combine", ["--plan"], '{"groups": [[true, 2]]}',
     "a group's class ids must be integers, not True"),
    ("combine", ["--plan"], '{"groups": [[1.0, 2]]}',
     "a group's class ids must be integers, not 1.0"),
    ("combine", ["--plan"], '{"allpairs": true}',
     "unknown plan key 'allpairs', want one of groups, allPairs, maxArity, budget"),
    ("simulate", ["--config"], '{"scc": "x", "state": {"m": "A"}, "input": {"event": "go", "time": "0"}}',
     "scc must be an integer, not 'x'"),
    ("simulate", ["--config"], '{"scc": true, "state": {"m": "A"}, "input": {"event": "go", "time": "0"}}',
     "scc must be an integer, not True"),
    ("simulate", ["--config"], '{"scc": 1.5, "state": {"m": "A"}, "input": {"event": "go", "time": "0"}}',
     "scc must be an integer, not 1.5"),
    ("simulate", ["--config"], '{"scc": null, "state": {"m": "A"}, "input": {"event": "go", "time": "0"}}',
     "scc must be an integer, not None"),
    ("simulate", ["--sequence"],
     '{"sequences": [{"covered": ["x"], "steps": [{"scc": "x", "state": {"m": "A"}, "input": {"event": "go", "time": "0"}}]}]}',
     "scc must be an integer, not 'x'"),
    ("simulate", ["--config"], '{"error": 5, "state": {}, "input": {"event": "go", "time": "0"}}',
     "an error must be a string, not a number"),
    ("simulate", ["--sequence"],
     '{"sequences": [{"covered": [1], "steps": [{"scc": 1, "error": null, "state": {}, "input": {"event": "go", "time": "0"}}]}]}',
     "an error must be a string, not null"),
    ("simulate", ["--config"], '{"error": "", "state": {"m": "A"}, "input": {"event": "go", "time": "0"}}',
     "an error must be a non-empty string, not ''"),
    ("simulate", ["--sequence"],
     '{"sequences": [{"covered": [1], "steps": [{"scc": 1, "error": "", "state": {}, "input": {"event": "go", "time": "0"}}]}]}',
     "an error must be a non-empty string, not ''"),
])
def test_malformed_combination_or_simulation_input_exits_2(
    command, flags, text, message, tmp_path, capsys
):
    args = [command, *TOGGLE_ARGS, *flags]
    if text is not None:
        path = tmp_path / "input.json"
        path.write_text(text)
        args.append(str(path))
        message = f"{path}: {message}"
    if command == "combine":
        args += ["--criteria", "cases"]
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flags, plan, attempted", [
    (["--all-pairs"], {"allPairs": True}, 3),
    (["--all-pairs", "--budget", "0"], {"allPairs": True, "budget": 0}, 0),
    (["--group", "1,3", "--max-arity", "3", "--budget", "1"],
     {"groups": [[1, 3]], "maxArity": 3, "budget": 1}, 1),
])
def test_the_combination_flags_build_the_plan_a_plan_file_holds(
    flags, plan, attempted, tmp_path, capsys
):
    """A plan built from the flags is the plan read from a file of the
    same mapping; a limit that neither gives is `CombinationPlan`'s."""
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    args = ["combine", *TOGGLE_ARGS, "--criteria", "cases", "--criteria", "extensional input"]
    assert main([*args, *flags]) == 0
    from_flags = capsys.readouterr()
    assert main([*args, "--plan", str(path)]) == 0
    assert capsys.readouterr() == from_flags
    assert f"combinations: {attempted} attempted" in from_flags.out


def _fixture_args(name):
    return ["--model", str(FIXTURES / f"{name}.devs"), "--bounds", str(FIXTURES / f"{name}.bounds")]


@pytest.mark.parametrize("fixture, selection, message", [
    ("toggle", "intentional state m = Q", "unbound variable Q"),
    ("toggle", "intentional input x in {foo}", "foo is not a literal of enum {go}"),
    ("toggle", "time chain:0,NOPE", "unbound variable NOPE"),
    # a time endpoint names no state variable and evaluates to a number
    ("elevator", "time point:f", "unbound variable f (in time spec)\n"),
    ("elevator", "time chain:0,at", "unbound variable at (in time spec)\n"),
    ("elevator", "time interval:0..f", "unbound variable f (in time spec)\n"),
    ("elevator", "time point:TD1*infinity",
     "time endpoint TD1 * infinity cannot be evaluated: cannot multiply 2 and infinity\n"),
    ("elevator", "time point:TD1-infinity",
     "time endpoint TD1 - infinity cannot be evaluated: cannot subtract infinity from 2\n"),
    ("soda", "standard >= dext:x", "bad case id 'x' in 'dext:x'"),
    ("soda", "standard >= dext:2 ops:~", "bad operators 'ops:~', want some of = != < <= > >="),
    ("soda", "standard >= dext:2 ops:", "bad operators 'ops:', want some of = != < <= > >="),
    ("soda", "standard >= dext:2 ops:>=,", "bad operators 'ops:>=,'"),
    ("elevator", "intentional state " + " /\\ ".join(["(f = 0 \\/ f = 1)"] * 13),
     "DNF clause cap 4096 exceeded"),
    ("toggle", "extensional state:zz", "no state variable named zz"),
    ("toggle", "extensional state:", "empty state variable name in 'extensional state:'\n"),
    ("toggle", "extensional state:m,,m", "empty state variable name in 'extensional state:m,,m'\n"),
    ("elevator", "time chain:TD1,TA interval:TD1..TD2",
     "time chain cannot mix with interval/point segments"),
    ("elevator", "time interval:TA..TD1", "interval needs TA < TD1 under the constant bindings"),
    ("toggle", "intentional state q = A",
     "unbound variables q and A in q = A (in intentional state)\n"),
    ("toggle", "intentional state q in {A}", "unbound variable q (in intentional state)\n"),
    ("toggle", "intentional state min(q, 1) = 0", "unbound variable q (in intentional state)\n"),
    ("toggle", "intentional state q.1 = A", "unbound variable q (in intentional state)\n"),
    ("toggle", "intentional input q + 1 = 2", "unbound variable q (in intentional input)\n"),
    ("toggle", "cases extra", "cases takes no target, not 'extra'\n"),
    ("toggle", "time", "time needs a segment: chain:, interval: or point:\n"),
    ("soda", "standard >= ops:<",
     "standard needs at least one occurrence <fn>:<case,...>\n"),
])
def test_a_selection_that_cannot_be_applied_exits_2(fixture, selection, message, capsys):
    assert main(["criteria", *_fixture_args(fixture), "--criteria", selection]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["criteria", "select", "campaign"])
@pytest.mark.parametrize("cell, message", [
    ("c < b", "3:3: a cell of partition s names c, not one of its operands a, b"),
    ("a = on", "3:3: a cell of partition s names on, not one of its operands a, b"),
    ("a < TD1", "3:3: a cell of partition s names TD1, not one of its operands a, b"),
    ("f(a) < b", "partition s applies f, which the model does not define"),
])
def test_a_parts_cell_that_names_more_than_its_operands_exits_2(
        command, cell, message, tmp_path, capsys):
    """A cell names its operands and numbers only, and applies only the
    operators the model defines."""
    parts = tmp_path / "bad.parts"
    parts.write_text(f'partition "s" (a, b) {{\n  a < b;\n  {cell};\n}}\n')
    assert main([command, *_fixture_args("elevator"), "--parts", str(parts),
                 "--criteria", "standard s dint:6", "--out", str(tmp_path / "out")]) == 2
    out, err = capsys.readouterr()
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("selection, classes", [
    ("time interval:TD1..TD2 point:TA", [
        ("interval [TD1, TD2]: t < a", "t < TD1"),
        ("interval [TD1, TD2]: t = a", "t = TD1"),
        ("interval [TD1, TD2]: a < t < b", "t < TD2 /\\ t > TD1"),
        ("interval [TD1, TD2]: t = b", "t = TD2"),
        ("interval [TD1, TD2]: t > b", "t > TD2"),
        ("point TA: t < p", "t < TA"),
        ("point TA: t = p", "t = TA"),
        ("point TA: t > p", "t > TA"),
    ]),
    # a chain whose first point is not 0 starts below it
    ("time chain:TD1,TA", [
        ("t < TD1", "t < TD1"),
        ("t = TD1", "t = TD1"),
        ("TD1 < t < TA", "t < TA /\\ t > TD1"),
        ("t = TA", "t = TA"),
        ("t > TA", "t > TA"),
    ]),
])
def test_time_selections_on_elevator(selection, classes, tmp_path, capsys):
    out_file = tmp_path / "catalog.json"
    assert main(["criteria", *_fixture_args("elevator"), "--criteria", selection,
                 "--out", str(out_file)]) == 0
    assert f"time: {len(classes)} classes" in capsys.readouterr().out
    catalog = json.loads(out_file.read_text())["classes"]
    assert [(c["target"], c["input_pairs"]) for c in catalog] == classes
    assert all(c["criterion"] == "time" and c["init_states"] == "true" for c in catalog)


DIVIDING_MODEL = """model divides {
  state {
    n: nat;
  }
  input enum {go};
  output enum {ping};
  ta = infinity;
  dext(s, e, x) {
    case x = go /\\ 2 div n <= e -> n + 1;
  }
  dint(s) {
  }
  lambda(s) {
    otherwise -> ping;
  }
}
"""


@pytest.mark.parametrize("command", ["select", "campaign"])
def test_a_point_where_an_existential_fails_to_evaluate_witnesses_nothing(command, tmp_path):
    """The class's input pairs `(exists n: nat . 2 div n <= t) /\\ x = go`
    fail to evaluate at n = 0, the first point scanned; the scan goes on
    to the points that do evaluate, and the campaign selects n = 3."""
    model, bounds = tmp_path / "divides.devs", tmp_path / "divides.bounds"
    model.write_text(DIVIDING_MODEL)
    bounds.write_text("bounds {\n  nat n = 0..3;\n  time samples = {0, 1, 2};\n}\n")
    out = tmp_path / ("configs.json" if command == "select" else "out")
    assert main([command, "--model", str(model), "--bounds", str(bounds),
                 "--criteria", "cases", "--out", str(out)]) == 0
    configs = json.loads((out if command == "select" else out / "configs.json").read_text())
    assert configs["configs"] == [
        {"input": {"event": "go", "time": "0"}, "scc": 1, "state": {"n": "3"}}]


@pytest.mark.parametrize("kind, text, message", [
    ("model", (FIXTURES / "toggle.devs").read_text().replace("ta = infinity;", "ta = 1/0;"),
     "10:8: division by zero, found '1/0'"),
    ("bounds", "bounds {\n  const Tchg = 1/0;\n}\n", "2:16: division by zero, found '1/0'"),
    ("bounds", "bounds {\n  const Tchg = 1 div 0;\n}\n", "2:16: division by zero"),
    ("bounds", "bounds {\n  const Tchg = Tfoo + 1;\n}\n", "2:16: unbound variable Tfoo"),
])
def test_a_number_that_cannot_be_evaluated_exits_2(kind, text, message, tmp_path, capsys):
    path = tmp_path / f"input.{kind}"
    path.write_text(text)
    if kind == "model":
        args = ["parse", str(path)]
    else:
        args = ["parse", str(FIXTURES / "toggle.devs"), "--bounds", str(path)]
    assert main(args) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("source", ["--config", "--sequence"])
@pytest.mark.parametrize("text", ["go x", "1/0", "(1,", "-"])
def test_a_bad_value_literal_names_its_file_and_exits_2(text, source, tmp_path, capsys):
    step = {"scc": 1, "state": {"m": "A"}, "input": {"event": "go", "time": text}}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(
        step if source == "--config" else {"sequences": [{"steps": [step], "covered": [1]}]}))
    assert main(["simulate", *TOGGLE_ARGS, source, str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: bad value literal {text!r}\n")


@pytest.mark.parametrize("command", [
    ["parse", str(FIXTURES / "toggle.devs")],
    ["select", "--model", str(FIXTURES / "toggle.devs"), "--criteria", "cases"],
])
def test_a_set_that_names_no_state_variable_exits_2(command, tmp_path, capsys):
    bad = tmp_path / "bad.bounds"
    bad.write_text("bounds { set zz = {1}; time samples = {0, 1, 2}; }")
    assert main([*command, "--bounds", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert err == "error: bounds set zz names no state variable\n"
    assert out == ("toggle: rejected: 2/0/1 cases (dext/dint/lambda), 1 errors, 0 warnings\n"
                   if command[0] == "parse" else "")


@pytest.mark.parametrize("name, text, error", _OUTSIDE_SORT, ids=["set", "const"])
def test_simulate_checks_the_bounds_as_select_does(name, text, error, tmp_path, capsys):
    bad = tmp_path / "bad.bounds"
    bad.write_text(text)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"state": {"m": "A"}, "input": {"event": "go", "time": "0"}}))
    model = ["--model", str(FIXTURES / f"{name}.devs"), "--bounds", str(bad)]
    for command in (["select", *model, "--criteria", "cases"], ["simulate", *model, "--config", str(config)]):
        assert main(command) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")


@pytest.mark.parametrize("text, message", [
    ('{"model": 1', "invalid JSON: "),
    ("[]", "a report must be an object, not an array"),
    ("{}", "missing field 'model'"),
    ('{"model": "m", "criteria": 5}', "criteria must be an array, not a number"),
    ('{"model": "m", "criteria": [["cases", 3]]}', "a criteria entry must be an object, not an array"),
])
def test_a_malformed_report_exits_2(text, message, tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(text)
    assert main(["report", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {path}: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, k", [
    ("campaign", "1"), ("campaign", "-3"),
    ("criteria", "4"), ("combine", "4"), ("select", "4"), ("sequence", "4"),
])
def test_a_probe_k_that_cannot_probe_exits_2(command, k, tmp_path, capsys):
    args = [command, *TOGGLE_ARGS, "--criteria", "cases", "--probe-k", k, "--out", str(tmp_path / "out")]
    if command == "campaign":
        assert main(args) == 2
        assert capsys.readouterr() == ("", "error: --probe-k must be 0 (off) or at least 2\n")
    else:
        # the commands that stop before the probe do not take the option
        with pytest.raises(SystemExit) as stop:
            main(args)
        assert stop.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith(f"error: unrecognized arguments: --probe-k {k}\n")
    assert not (tmp_path / "out").exists()


def test_help_describes_every_command_and_pipeline_option(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for name in ("parse", "criteria", "combine", "select", "sequence", "campaign",
                 "simulate", "report"):
        described = [line.split() for line in lines if line.split()[:1] == [name]]
        assert described and len(described[0]) > 1, name
    for name in ("criteria", "combine", "select", "sequence", "campaign"):
        with pytest.raises(SystemExit):
            main([name, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for phrase in ("--include-otherwise the cases criterion adds the catch-all cases",
                       "largest group a plan combines (default 2)",
                       "--budget BUDGET most combinations attempted"):
            assert phrase in text, (name, phrase)
        probe = ("--probe-k K uniformity probe: sample up to K distinct executable "
                 "members of each base class; 0 (off) or at least 2")
        assert probe in text if name == "campaign" else "--probe-k" not in text, name


@pytest.mark.parametrize("case", [
    "campaign --out an existing file",
    "campaign --out under a file",
    "parse a directory",
    "report a directory",
])
def test_a_file_system_error_exits_2(case, tmp_path, capsys):
    a_file = tmp_path / "a-file"
    a_file.write_text("")
    campaign = ["campaign", *TOGGLE_ARGS, "--criteria", "cases", "--out"]
    args, path = {
        "campaign --out an existing file": (campaign + [str(a_file)], a_file),
        "campaign --out under a file": (campaign + [str(a_file / "sub")], a_file / "sub"),
        "parse a directory": (["parse", str(FIXTURES)], FIXTURES),
        "report a directory": (["report", str(tmp_path)], tmp_path),
    }[case]
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: [Errno ") and f"'{path}'" in err
    assert err.count("\n") == 1
    if case.startswith("campaign"):
        assert out == ""


# ---------------------------------------------------------------------------
# the step writer against the reference layouts dumped by the standard library

_names = st.sampled_from(["m", "a", "a b", "é", "\x00", '"']) | st.text(max_size=3)
_texts = (st.text() | st.text(st.characters(max_codepoint=0x1F))
          | st.sampled_from(["", 'say "hi"', "back\\slash", "é 😀", "\x00\x1f\n\x7f"]))
_values = st.recursive(
    (st.integers() | st.fractions(max_denominator=60)).map(num)
    | st.just(INF) | _names.map(Lit),
    lambda inner: st.lists(inner, min_size=2, max_size=3).map(lambda items: Tup(tuple(items))),
    max_leaves=6,
)
_states = st.dictionaries(_names, _values, max_size=4)
_fired = st.tuples(st.sampled_from(["dext", "dint", "lambda", "é\""]), st.integers(0, 40))


@st.composite
def _copy(draw, v):
    """A value equal to `v` made of new objects, each whole number held as
    an int or as an integral Fraction, as a `Num` built around one is."""
    cls = v.__class__
    if cls is Num:
        x = v.value
        return Num(Fraction(x) if x.__class__ is int and draw(st.booleans()) else x)
    if cls is Lit:
        return Lit(v.name)
    if cls is Tup:
        return Tup(tuple(draw(_copy(item)) for item in v.items))
    return Inf()


def _pooled(pool: list):
    """An item of `pool`, or a copy of one that is equal but shares no object."""
    return st.sampled_from(pool) | st.sampled_from(pool).flatmap(
        lambda v: st.fixed_dictionaries({n: _copy(x) for n, x in v.items()})
        if isinstance(v, dict) else _copy(v))


@st.composite
def _runs(draw) -> tuple[dict, list[SimulationSequence]]:
    """Steps by class id and sequences of them, their states and values
    drawn from small pools so that the writer meets each more than once,
    as the same objects or as equal ones."""
    value = _pooled(draw(st.lists(_values, min_size=2, max_size=3)))
    # most of them over the same variables, so that they differ in values only
    names = draw(st.lists(_names, unique=True, min_size=1, max_size=4))
    state = _pooled(draw(st.lists(
        st.fixed_dictionaries({n: value for n in names}) | _states, min_size=2, max_size=3)))

    def step(scc_id: int) -> SimulationConfig:
        # a step keeps the event it fired or its error, or neither
        error = draw(st.none() | _texts)
        outcome = None
        if error is None and draw(st.booleans()):
            outcome = draw(st.builds(TraceEvent, value, _fired, state,
                                     output=st.none() | value, tie=st.booleans()))
        return SimulationConfig(scc_id, draw(state), draw(value), draw(value),
                                outcome=outcome, error=error)

    ids = draw(st.lists(st.integers(0, 99), unique=True, min_size=1, max_size=5))
    sequences = [SimulationSequence([step(i) for i in chunk])
                 for chunk in draw(st.lists(st.lists(st.sampled_from(ids), max_size=3),
                                            min_size=1, max_size=3))]
    return {i: step(i) for i in ids}, sequences


@given(_runs())
@example(({}, []))
@example(({}, [SimulationSequence()]))
@example(({}, [SimulationSequence([
    SimulationConfig(1, {"m": Lit("A")}, Lit("go"), num(0),
                     outcome=TraceEvent(num(0), ("dext", 1), {"m": Lit("B")}, tie=True)),
    SimulationConfig(2, {"m": Lit("B")}, TAU, num(0),
                     outcome=TraceEvent(num(5), ("dint", 2), {"m": Lit("A")}, Lit("ping")))])]))
@example(({7: SimulationConfig(7, {}, TAU, num(0))}, [SimulationSequence(
    [SimulationConfig(7, {}, TAU, num(0), error="")])]))
@example(({i: SimulationConfig(i, {"m": v}, Lit("go"), num(Fraction(-1, 2)))
           for i, v in enumerate([Lit("A"), num(1), Tup((INF, Lit("A")))])}, []))
@example(({i: SimulationConfig(i, {"m": v, "n": Lit("A")}, Lit("go"), t) for i, (v, t) in
           enumerate([(num(2), num(3)), (Num(Fraction(2)), Num(Fraction(3))),
                      (Tup((Num(Fraction(2)), Inf())), INF), (Tup((num(2), INF)), Inf())])}, []))
def test_the_step_writer_writes_what_the_reference_layouts_dump(run):
    """One writer's three files, its memo shared among them, are the
    reference layouts as `json.dumps` writes them: indented for
    `configs.json` and `sequences.json`, compact for each trace line."""
    configs, sequences = run
    writer = StepWriter()
    assert writer.configs(configs) == oracle.configs_json(configs)
    assert writer.sequences(sequences) == oracle.sequences_json(sequences)
    runs = [seq.steps for seq in sequences] + [list(configs.values())]
    assert writer.traces(runs) == oracle.trace_lines(runs)


_preds = st.sampled_from(["true", "m = A", "0 < d /\\ d < np", "x in {c25, c50}",
                          "!(t <= TA) \\/ d + 1 = 2"]).map(parse_pred_text)
_classes = st.builds(
    SCC, st.integers(0, 10**6), _preds, _preds, _texts, _texts,
    st.lists(st.integers(0, 10**6), max_size=3).map(tuple), st.none() | _preds)


@given(st.lists(_classes, max_size=4))
@example([])
@example([SCC(1, TRUE, TRUE, "cases", 'say "hi" \\ é 😀', (2, 3), TRUE)])
def test_the_catalog_template_writes_what_the_reference_layout_dumps(classes):
    """A catalog's text is its reference layout as `dump_json` writes it,
    whether its classes were combined or not, have a joint predicate or
    not, and whatever their criteria and targets hold."""
    assert StepWriter().catalog(classes) == json.dumps(
        oracle.catalog_layout(classes), sort_keys=True, indent=2) + "\n"


def test_the_catalog_template_writes_the_fixture_catalogs_as_the_reference_does(
    toggle, toggle_bounds
):
    tables, _ = load_tables([])
    for campaign in (Campaign(toggle, toggle_bounds, tables,
                              ["cases", "extensional input", "extensional state:m"],
                              plan=build_plan({"allPairs": True})),
                     _soda_campaign(), _elevator_campaign(plan=True)):
        catalog = run_campaign(campaign, stop_after="combine").catalog
        assert StepWriter().catalog(catalog) == oracle.catalog_json(catalog)


WORKED_CAMPAIGNS = {
    "toggle": [*TOGGLE_ARGS, "--criteria", "cases", "--criteria", "extensional input",
               "--criteria", "extensional state:m"],
    "soda": ["--model", str(FIXTURES / "soda.devs"), "--bounds", str(FIXTURES / "soda.bounds"),
             *[arg for sel in SODA_SELECTIONS for arg in ("--criteria", sel)], "--probe-k", "4"],
    "elevator": ["--model", str(FIXTURES / "elevator.devs"),
                 "--bounds", str(FIXTURES / "elevator.bounds"),
                 "--parts", str(FIXTURES / "elevator.parts"),
                 "--plan", str(FIXTURES / "elevator.plan.json"),
                 *[arg for sel in ELEVATOR_SELECTIONS for arg in ("--criteria", sel)]],
}


def campaign_artifacts(args: list[str], out) -> dict:
    assert main(["campaign", *args, "--out", str(out)]) == 0
    art = {name: json.loads((out / f"{name}.json").read_text())
           for name in ("report", "catalog", "configs", "sequences")}
    art["traces"] = (out / "traces.jsonl").read_text().splitlines()
    return art


@pytest.mark.parametrize("name", ["soda", "elevator"])
def test_the_shipped_campaigns_write_the_committed_artifacts(name, tmp_path, capsys):
    """The campaign of `scripts/run_<name>_campaign.py`, written to a
    fresh directory, is the committed `out/<name>/` byte for byte."""
    assert main(["campaign", *WORKED_CAMPAIGNS[name], "--out", str(tmp_path)]) == 0
    committed = FIXTURES.parent / "out" / name
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in committed.iterdir())
    for path in committed.iterdir():
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize("name", ["soda", "elevator"])
def test_the_artifacts_are_written_without_hashing_a_value(name, tmp_path):
    """The writer keys its memos on what values hold: with the hashes of
    `Num` and `Lit` raising, the shipped campaigns still write the
    committed `out/<name>/` byte for byte."""
    campaign = _soda_campaign() if name == "soda" else _elevator_campaign(plan=True)
    result = run_campaign(campaign)
    with values_unhashed():
        write_artifacts(result, str(tmp_path))
    committed = FIXTURES.parent / "out" / name
    for path in committed.iterdir():
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


def assert_pinned_digests(out, name: str) -> None:
    """Every file `fixtures/expected/<name>.sha256` names has its digest in `out`."""
    pinned = {}
    for line in (FIXTURES / "expected" / f"{name}.sha256").read_text().splitlines():
        digest, file = line.split()
        pinned[file] = digest
    assert {file: hashlib.sha256((out / file).read_bytes()).hexdigest()
            for file in pinned} == pinned


def test_soda_all_pairs_matches_its_pinned_digests(tmp_path, capsys):
    assert main(["campaign", "--model", str(FIXTURES / "soda.devs"),
                 "--bounds", str(FIXTURES / "soda.bounds"),
                 *[arg for sel in SODA_PAIRS_SELECTIONS for arg in ("--criteria", sel)],
                 "--all-pairs", "--probe-k", "4", "--out", str(tmp_path)]) == 0
    assert_pinned_digests(tmp_path, "soda-all-pairs")


def test_elevator_all_pairs_matches_its_pinned_digests(tmp_path, capsys):
    assert main(["campaign", "--model", str(FIXTURES / "elevator.devs"),
                 "--bounds", str(FIXTURES / "elevator.bounds"),
                 "--parts", str(FIXTURES / "elevator.parts"),
                 *[arg for sel in ELEVATOR_SELECTIONS for arg in ("--criteria", sel)],
                 "--all-pairs", "--budget", "10000", "--probe-k", "4",
                 "--out", str(tmp_path)]) == 0
    assert_pinned_digests(tmp_path, "elevator-all-pairs")


@pytest.mark.parametrize("name", list(WORKED_CAMPAIGNS))
def test_every_report_count_is_what_the_other_artifacts_hold(name, tmp_path, capsys):
    art = campaign_artifacts(WORKED_CAMPAIGNS[name], tmp_path / name)
    report, classes, sequences = art["report"], art["catalog"]["classes"], art["sequences"]["sequences"]
    failed = [step for seq in sequences for step in seq["steps"] if "error" in step]
    assert report["catalog_size"] == len(classes)
    assert report["base_classes"] == sum("combined_from" not in c for c in classes)
    assert report["reconciles"]
    assert report["configs_selected"] == len(art["configs"]["configs"])
    assert report["sequences"] == len(sequences)
    assert report["trace_events"] == len(art["traces"])
    assert_no_error_in_traces("\n".join(art["traces"]))
    # a failed step with a state is a finding; one with none never ran
    for key, ran in (("findings", True), ("config_errors", False)):
        assert report[key] == [f"class {s['scc']}: {s['error']}" for s in failed
                               if bool(s["state"]) is ran]
    for seq in sequences:
        assert seq["covered"] == [step["scc"] for step in seq["steps"]]


def test_a_class_selection_could_not_represent_may_still_be_chained(tmp_path, capsys):
    """With a 3-attempt search budget selection finds no representative of
    classes 2 and 5; both are named in `config_errors` and left out of
    `configs.json`, yet chaining covers each with a step that runs, which
    a note of the report names."""
    bounds = tmp_path / "frugal.bounds"
    bounds.write_text((FIXTURES / "toggle.bounds").read_text().replace("10000", "3"))
    art = campaign_artifacts([*WORKED_CAMPAIGNS["toggle"], "--bounds", str(bounds)], tmp_path / "out")
    report = art["report"]
    assert [e.split(":")[0] for e in report["config_errors"]] == ["class 2", "class 5"]
    assert [c["scc"] for c in art["configs"]["configs"]] == [1, 3, 4]
    assert report["configs_selected"] + len(report["config_errors"]) == report["catalog_size"]
    ran_in = {s["scc"]: (n, s) for n, seq in enumerate(art["sequences"]["sequences"])
              for s in seq["steps"]}
    assert sorted(ran_in) == [1, 2, 3, 4, 5]
    assert all(ran_in[i][1]["state"] and "error" not in ran_in[i][1] for i in (2, 5))
    # and the report says which sequence covers each
    assert [note for note in report["notes"] if "chained" in note] == [
        f"class {i}: selection found no representative, "
        f"but sequence {ran_in[i][0]} covers it with a chained step" for i in (2, 5)]


def test_a_campaign_stopped_after_sequencing_reports_the_findings_of_its_steps():
    result = run_campaign(_elevator_campaign(plan=True), stop_after="sequence")
    ran = [step for seq in result.sequences for step in seq.steps if step.state]
    findings = result.report_json()["findings"]
    assert findings == [step.failure() for step in ran if step.error is not None]
    assert len(findings) == 2 and result.probe_flags == []
