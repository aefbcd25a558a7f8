"""The bounded model checks of `validate_model`: case-table coverage and
disjointness, and the sign of the time advance, decided by the search."""

import pytest

from devs_scc.check import validate_model
from devs_scc.cli import main
from devs_scc.parser import parse_bounds_text, parse_model_file, parse_model_text
from tests.conftest import FIXTURES


@pytest.mark.parametrize("name", ["soda", "toggle", "elevator"])
def test_parse_with_bounds_prints_the_least_witness_of_each_check(name, capsys):
    code = main(["parse", str(FIXTURES / f"{name}.devs"),
                 "--bounds", str(FIXTURES / f"{name}.bounds")])
    out, err = capsys.readouterr()
    assert code == 0
    assert err + out == (FIXTURES / "expected" / f"{name}-parse-bounds.txt").read_text()
    assert "undecided" not in err
    # elevator dext case 18 is `otherwise`, which overlaps no guarded case
    assert "dext cases" not in err


def _undecided_form(warning):
    """The warning a check gives in place of `warning` when it runs out
    of budget after one attempt."""
    if " is not exhaustive " in warning:
        return warning.split(" is not exhaustive ")[0] + ": exhaustiveness undecided within 1 attempts"
    return warning.split(" overlap ")[0] + ": overlap undecided within 1 attempts"


@pytest.mark.parametrize("name", ["soda", "elevator"])
def test_a_check_out_of_budget_says_undecided(name):
    model, _ = parse_model_file(str(FIXTURES / f"{name}.devs"))
    text = (FIXTURES / f"{name}.bounds").read_text()
    assert "max attempts = 200000;" in text
    _, full = validate_model(model, parse_bounds_text(text))
    _, starved = validate_model(
        model, parse_bounds_text(text.replace("max attempts = 200000;", "max attempts = 1;"))
    )
    # no witness fits in one attempt, so every check that found one
    # before is undecided now, and nothing passes for want of budget
    assert full.warnings
    assert all(w.endswith(" undecided within 1 attempts") for w in starved.warnings)
    assert {_undecided_form(w) for w in full.warnings} <= set(starved.warnings)
    assert "ta: non-negativity undecided within 1 attempts" in starved.warnings


COUNTER = """
model counter {
  state {
    c: nat;
  }
  input enum {tick};
  output enum {ping};
  ta = %s;
  dext(s, e, x) {
    otherwise -> c + 1;
  }
  dint(s) {
    otherwise -> c;
  }
  lambda(s) {
    otherwise -> ping;
  }
}
"""


@pytest.mark.parametrize("ta, warnings", [
    ("c - 1", ["ta is negative within bounds, e.g. c=0"]),
    ("min(c + 1, 3 - c)", ["ta is negative within bounds, e.g. c=4"]),
    ("min(c, 2 - c, 1 - c)", ["ta is negative within bounds, e.g. c=2"]),
    ("min(c, 5 - c)", []),
    ("infinity", []),
])
def test_a_negative_time_advance_is_found_at_its_least_state(ta, warnings):
    model, report = parse_model_text(COUNTER % ta)
    assert report.usable, report.errors
    _, checked = validate_model(model, parse_bounds_text("bounds { nat default = 0..5; }"))
    assert checked.warnings == warnings
