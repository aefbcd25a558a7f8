import json
import subprocess
import sys

import pytest
from hypothesis import example, given, strategies as st

import devs_scc.campaign as campaign_mod
from devs_scc.campaign import (
    Campaign,
    dump_json,
    load_plan,
    load_tables,
    run_campaign,
    write_artifacts,
)
from devs_scc.cli import main
from tests.conftest import ELEVATOR_SELECTIONS, FIXTURES


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
    assert "undefined transition" in err


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
    report = result.report
    assert report.base_count == 88
    assert report.combine.kept == 4
    assert report.catalog_size == 92
    assert report.reconciles()
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


def test_simulate_sequence_file_replays(tmp_path):
    campaign = _elevator_campaign()
    result = run_campaign(campaign)
    write_artifacts(result, str(tmp_path / "out"))
    code, stdout, stderr = run_cli(
        "simulate",
        "--model", str(FIXTURES / "elevator.devs"),
        "--bounds", str(FIXTURES / "elevator.bounds"),
        "--sequence", str(tmp_path / "out" / "sequences.json"),
        "--out", str(tmp_path / "trace.jsonl"),
    )
    # the elevator catalog includes classes that reveal model gaps
    assert code == 3
    assert "undefined transition" in stderr


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
    sccs, _ = cases_criterion(model, bounds)
    cfg = select_config(sccs[0], model, bounds)
    path = tmp_path / "scc1.config.json"
    path.write_text(json.dumps({"schema": "devs-scc/1", **cfg.to_json()}))
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
    "--probe-k", "2",
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
    assert main(["campaign", *ELEVATOR_ARGS, "--out", str(tmp_path / "full")]) == 0
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


def test_set_value_outside_its_sort_exits_2(tmp_path):
    bad = tmp_path / "bad.bounds"
    bad.write_text("bounds { set m = {C}; time samples = {0, 1, 2}; }")
    message = "error: bounds set m holds C, outside its sort enum {A, B}\n"
    code, out, err = run_cli("parse", str(FIXTURES / "toggle.devs"), "--bounds", str(bad))
    assert code == 2
    assert err.startswith(message)
    code, out, err = run_cli(
        "select",
        "--model", str(FIXTURES / "toggle.devs"),
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
        code, _, err = run_cli("simulate", *toggle, *source)
        assert code == 4
        assert err == "error: step failed: external event needs a finite time\n"


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
    assert result.report.config_errors == [message]
    assert result.report.findings == [message]
    assert result.report.notes.count(message) == 1
    assert result.sequences[-1].to_json()["steps"][0]["error"] == "no representative within bounds"


def test_run_campaign_runs_each_sequence_step_once(monkeypatch):
    import devs_scc.sequencer as sequencer
    import devs_scc.simulator as simulator

    calls = []
    advance = simulator.advance

    def counting(*args):
        calls.append(args)
        return advance(*args)

    for module in (simulator, sequencer, campaign_mod):
        monkeypatch.setattr(module, "advance", counting)
    result = run_campaign(_elevator_campaign(plan=True))
    steps = [step for seq in result.sequences for step in seq.steps]
    # an unselectable head's step has no state and never runs
    ran = [step for step in steps if step.state_used]
    assert len(calls) == len(ran) == 92
    assert sum(1 for step in ran if step.error) == 2
    assert len(result.report.findings) == 2


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
    ("combine", ["--all-pairs", "--budget", "-5"], None,
     "bad combination flags: budget must be at least 0"),
    ("combine", ["--plan"], '{"allPairs": true, "budget": -1}', "budget must be at least 0"),
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


def _fixture_args(name):
    return ["--model", str(FIXTURES / f"{name}.devs"), "--bounds", str(FIXTURES / f"{name}.bounds")]


@pytest.mark.parametrize("fixture, selection, message", [
    ("toggle", "intentional state m = Q", "unbound variable Q"),
    ("toggle", "intentional input x in {foo}", "foo is not a literal of enum {go}"),
    ("toggle", "time chain:0,NOPE", "unbound variable NOPE"),
    ("soda", "standard >= dext:x", "bad case id 'x' in 'dext:x'"),
    ("soda", "standard >= dext:2 ops:~", "bad operators 'ops:~', want some of = != < <= > >="),
    ("soda", "standard >= dext:2 ops:", "bad operators 'ops:', want some of = != < <= > >="),
    ("soda", "standard >= dext:2 ops:>=,", "bad operators 'ops:>=,'"),
    ("elevator", "intentional state " + " /\\ ".join(["(f = 0 \\/ f = 1)"] * 13),
     "DNF clause cap 4096 exceeded"),
    ("toggle", "extensional state:zz", "no state variable named zz"),
])
def test_a_selection_that_cannot_be_applied_exits_2(fixture, selection, message, capsys):
    assert main(["criteria", *_fixture_args(fixture), "--criteria", selection]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("kind, text, message", [
    ("config", '{"state": {"m": "A"}, "input": {"event": "go", "time": "1/0"}}',
     "1:1: division by zero, found '1/0'"),
    ("model", (FIXTURES / "toggle.devs").read_text().replace("ta = infinity;", "ta = 1/0;"),
     "10:8: division by zero, found '1/0'"),
    ("bounds", "bounds {\n  const Tchg = 1/0;\n}\n", "2:16: division by zero, found '1/0'"),
    ("bounds", "bounds {\n  const Tchg = 1 div 0;\n}\n", "2:16: division by zero"),
    ("bounds", "bounds {\n  const Tchg = Tfoo + 1;\n}\n", "2:16: unbound variable Tfoo"),
])
def test_a_number_that_cannot_be_evaluated_exits_2(kind, text, message, tmp_path, capsys):
    path = tmp_path / f"input.{kind}"
    path.write_text(text)
    if kind == "config":
        args = ["simulate", *TOGGLE_ARGS, "--config", str(path)]
    elif kind == "model":
        args = ["parse", str(path)]
    else:
        args = ["parse", str(FIXTURES / "toggle.devs"), "--bounds", str(path)]
    assert main(args) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_simulate_checks_the_bounds_as_select_does(tmp_path, capsys):
    bad = tmp_path / "bad.bounds"
    bad.write_text("bounds { set m = {C}; time samples = {0, 1, 2}; }")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"state": {"m": "A"}, "input": {"event": "go", "time": "0"}}))
    model = ["--model", str(FIXTURES / "toggle.devs"), "--bounds", str(bad)]
    for command in (["select", *model, "--criteria", "cases"], ["simulate", *model, "--config", str(config)]):
        assert main(command) == 2
        assert capsys.readouterr() == ("", "error: bounds set m holds C, outside its sort enum {A, B}\n")


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


@pytest.mark.parametrize("k", ["1", "-3"])
def test_a_probe_k_that_cannot_probe_exits_2(k, tmp_path, capsys):
    args = ["campaign", *TOGGLE_ARGS, "--criteria", "cases", "--probe-k", k, "--out", str(tmp_path / "out")]
    assert main(args) == 2
    assert capsys.readouterr() == ("", "error: --probe-k must be 0 (off) or at least 2\n")
    assert not (tmp_path / "out").exists()


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
# the indented JSON writer against the standard library's

_json_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text() | st.text(st.characters(max_codepoint=0x1F)) | st.sampled_from(["é", " ", "\x7f", "😀"])
)
_json_keys = st.text() | st.sampled_from(["", "é", "\x00", "\n", "a b"])
_json_values = st.recursive(
    _json_scalars,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_json_keys, inner, max_size=4)
        | st.dictionaries(st.integers(), inner, max_size=3)
    ),
    max_leaves=24,
)


@given(_json_values)
@example({"a": [], "b": {}, "c": ((), [{}]), "d": [1.5, float("inf"), True, False, None]})
@example({"non-ascii é": "\x00\x1f\"\\   😀", "": {3: {"x": (1, 2)}, 1: []}})
def test_dump_json_writes_what_the_standard_library_writes(obj):
    assert dump_json(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_dump_json_refuses_what_the_standard_library_refuses():
    for obj in ({"a": {1: 2, "b": 3}}, [{None: 1, 2: 3}], {"a": object()}):
        with pytest.raises(TypeError):
            json.dumps(obj, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            dump_json(obj)
