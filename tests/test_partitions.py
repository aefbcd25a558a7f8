import pytest

from devs_scc.campaign import load_tables
from devs_scc.partitions import (
    StandardPartition,
    builtin_tables,
    check_partition,
    domain_propagation,
    instantiate,
)
from devs_scc.syntax import Cmp, Ref, TRUE, render_pred


def test_builtin_less_than_has_nine_cells():
    table = builtin_tables()["<"]
    assert len(table.cells) == 9


def test_builtin_less_than_is_disjoint_and_exhaustive():
    disjoint, exhaustive = check_partition(builtin_tables()["<"])
    assert disjoint and exhaustive


def test_every_builtin_table_is_healthy():
    for name, table in builtin_tables().items():
        disjoint, exhaustive = check_partition(table)
        assert disjoint and exhaustive, name


def test_ordcmp_fixture_table_is_healthy(elevator_tables):
    table = elevator_tables["ordcmp"]
    assert len(table.cells) == 13
    disjoint, exhaustive = check_partition(table)
    assert disjoint and exhaustive


def test_a_table_is_checked_around_the_numbers_its_cells_mention(tmp_path):
    """A gap or an overlap at a number the cells mention shows on the
    check grid, wherever that number lies."""
    path = tmp_path / "around.parts"
    path.write_text(
        'partition "gap" (a) { a < 5; a > 5; }\n'
        'partition "overlap" (a) { a <= 5; a >= 5; }\n'
        'partition "half" (a, b) { a < 1/2 /\\ b = 0; a > 1/2 /\\ b = 0; b != 0; }\n'
        'partition "healthy" (a) { a < -7; a >= -7; }\n')
    _, notes = load_tables([str(path)])
    assert notes == [
        "partition gap: cells leave gaps on the check grid",
        "partition overlap: cells overlap on the check grid",
        "partition half: cells leave gaps on the check grid",
    ]


def test_instantiation_substitutes_operands():
    table = builtin_tables()["<"]
    cells = instantiate(table, [Ref("fc"), Ref("f")])
    assert render_pred(cells[0]) == "fc < 0 /\\ f < 0"
    with pytest.raises(ValueError):
        instantiate(table, [Ref("a")])


def test_domain_propagation_multiplies_cell_counts():
    sign = builtin_tables()["+"]  # 9 cells
    order = builtin_tables()["min"]  # 3 cells
    composed = domain_propagation(sign, order, feed=1)
    assert len(composed.cells) == 3 * 9
    assert composed.formals == ("i1", "i2", "o2")


def test_domain_propagation_with_trivial_inner_is_identity_sized():
    outer = builtin_tables()["<"]
    unit = StandardPartition("unit", ("u",), (TRUE,))
    composed = domain_propagation(outer, unit, feed=1)
    assert len(composed.cells) == len(outer.cells)


def test_domain_propagation_cells_conjoin_inner_and_outer():
    outer = StandardPartition(
        "pos", ("a", "b"), (Cmp("<", Ref("a"), Ref("b")), Cmp(">=", Ref("a"), Ref("b")))
    )
    inner = builtin_tables()["min"]
    composed = domain_propagation(outer, inner, feed=1)
    assert len(composed.cells) == 6
    first = render_pred(composed.cells[0])
    assert "i1 < i2" in first and "min(i1, i2) < o2" in first


def test_change_operator_composition_reaches_351_cells(elevator_tables):
    """The change computation decomposes into three coin-count minima and
    one overall amount comparison; with the three-way order table on each
    min and the 13-cell refined comparison table on the amount the product
    has 3*3*3*13 = 351 cells before pruning."""
    order = builtin_tables()["min"]
    composed = elevator_tables["ordcmp"]
    for feed in (1, 1, 1):
        composed = domain_propagation(composed, order, feed=feed)
    assert len(composed.cells) == 351
