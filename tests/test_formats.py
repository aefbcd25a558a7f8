"""Bounds and partition file formats, plus criteria selections through
the text interface."""

from fractions import Fraction

import pytest

from devs_scc.bounds import BoundsError, grid
from devs_scc.campaign import CampaignError, apply_selection, load_tables
from devs_scc.context import Context
from devs_scc.criteria import cases_criterion
from devs_scc.parser import ParseFailure, parse_bounds_text, parse_model_text, parse_parts_text
from devs_scc.syntax import render_pred
from devs_scc.values import INF, Lit, NAT, RAT, Num, Tup, num


def test_bounds_ranges_sets_and_constant_expressions():
    b = parse_bounds_text(
        """
        bounds {
          const A = 4;
          const B = A + 2;
          const HALF = B div 2;
          nat default = 0..3;
          nat f = 1..2;
          int k = -2..2;
          rational d = 0..1 step 1/2;
          set bag = {(0, 0), (1, 2), infinity, idle};
          time samples = {0, A, B};
          max attempts = 777;
        }
        """
    )
    assert b.const_values["B"] == num(6)
    assert b.const_values["HALF"] == num(3)
    assert grid(b, "f", NAT) == [num(1), num(2)]
    assert grid(b, "other", NAT) == [num(0), num(1), num(2), num(3)]
    assert grid(b, "d", RAT) == [num(0), num(Fraction(1, 2)), num(1)]
    assert b.value_sets["bag"] == [
        Tup((num(0), num(0))), Tup((num(1), num(2))), INF, Lit("idle"),
    ]
    assert Context(None, b).times == [num(0), num(4), num(6)]
    assert b.max_attempts == 777


def test_default_time_samples_cover_the_constant_gaps():
    b = parse_bounds_text(
        """
        bounds {
          const A = 2;
          const B = 5;
        }
        """
    )
    times = [t.value for t in Context(None, b).times]
    assert Fraction(0) in times and Fraction(2) in times and Fraction(5) in times
    assert Fraction(7, 2) in times  # midpoint between the constants
    assert Fraction(6) in times  # one beyond the largest


def test_time_samples_must_contain_zero():
    with pytest.raises(BoundsError, match="contain 0"):
        parse_bounds_text("bounds { time samples = {1, 2}; }")


def test_negative_time_sample_is_rejected():
    with pytest.raises(BoundsError, match="must not be negative"):
        parse_bounds_text("bounds { time samples = {0, -1}; }")


def test_empty_range_is_rejected():
    with pytest.raises(BoundsError, match="empty range"):
        parse_bounds_text("bounds { nat f = 3..1; }")


def test_nat_range_below_zero_is_rejected():
    with pytest.raises(BoundsError, match="empty range"):
        parse_bounds_text("bounds { nat f = -3..-1; }")


def test_empty_rational_range_is_rejected():
    with pytest.raises(BoundsError, match="empty range"):
        parse_bounds_text("bounds { rational d = 2..1; }")


def test_zero_rational_step_is_rejected():
    with pytest.raises(BoundsError, match="step must be positive"):
        parse_bounds_text("bounds { rational default = 0..1 step 0; }")


def test_negative_rational_step_is_rejected():
    with pytest.raises(BoundsError, match="step must be positive"):
        parse_bounds_text("bounds { rational d = 0..1 step -1/2; }")


def test_negative_max_attempts_is_rejected():
    with pytest.raises(BoundsError, match="max attempts"):
        parse_bounds_text("bounds { max attempts = -1; }")


def test_parts_file_round_trip():
    tables = parse_parts_text(
        """
        partition "band" (a, b) {
          a < b;
          a = b;
          a > b;
        }
        """
    )
    assert len(tables) == 1
    assert tables[0].name == "band"
    assert tables[0].formals == ("a", "b")
    assert render_pred(tables[0].cells[1]) == "a = b"


@pytest.mark.parametrize("cell, names", [
    ("c < b", "c"), ("a = on", "on"), ("a < TD1", "TD1"), ("a < c /\\ d > b", "c, d"),
])
def test_a_parts_cell_names_only_its_operands(cell, names):
    """A cell that names anything but its operands and numbers fails at
    its own line and column."""
    text = f'partition "s" (a, b) {{\n  a < b;\n    {cell};\n}}\n'
    with pytest.raises(ParseFailure) as err:
        parse_parts_text(text)
    assert str(err.value) == f"3:5: a cell of partition s names {names}, not one of its operands a, b"
    assert len(parse_parts_text('partition "s" (a, b) { a < 1/2 /\\ b = 0; a >= 1/2; }')) == 1


def test_unhealthy_user_table_is_noted(tmp_path):
    path = tmp_path / "bad.parts"
    path.write_text(
        """
        partition "gappy" (a, b) {
          a < b;
          a > b;
        }
        """
    )
    tables, notes = load_tables([str(path)])
    assert "gappy" in tables
    assert any("leave gaps" in n for n in notes)


def test_unknown_selection_is_rejected(soda, soda_bounds):
    ctx = Context(soda, soda_bounds)
    with pytest.raises(CampaignError, match="unknown criterion"):
        apply_selection("mystery", ctx, {}, False)
    with pytest.raises(CampaignError, match="unknown partition table"):
        apply_selection("standard nope dint:1", ctx, {}, False)


def test_elapsed_time_constrained_guard_is_flagged():
    model, report = parse_model_text(
        """
        model rush {
          const K: time;
          state { n: nat; clk: time @time; }
          input enum {go};
          output nat;
          ta = clk;
          dext(s, e, x) { case x = go /\\ e < K -> (n + 1, clk - e); }
          dint(s) { case true -> (n, infinity); }
          lambda(s) { otherwise -> n; }
        }
        """
    )
    assert report.usable, report.errors
    bounds = parse_bounds_text("bounds { const K = 3; }")
    sccs, notes = cases_criterion(Context(model, bounds))
    assert any("constrains the elapsed time" in n for n in notes)
    ext = sccs[0]
    # with t standing in for the elapsed time, the pair inherits the bound
    assert render_pred(ext.input_pairs) == "t < K /\\ x = go"
    assert render_pred(ext.init_states) == "true"
