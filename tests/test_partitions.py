import pytest

from devs_scc.campaign import load_tables
from devs_scc.partitions import (
    StandardPartition,
    builtin_tables,
    check_partition,
    cuts,
    domain_propagation,
    instantiate,
)
from devs_scc.syntax import And, Cmp, Const, Ref, TRUE, render_pred
from devs_scc.values import Num


def test_builtin_tables_are_the_sign_and_order_tables():
    """Each built-in cell renders as it always has and is the one node
    that building it by hand gives."""
    tables = builtin_tables()
    assert list(tables) == ["<", "<=", ">", ">=", "=", "+", "-", "*", "div", "min"]
    a, b, zero = Ref("a"), Ref("b"), Const(Num(0))
    signs = [(la, lb) for la in "<=>" for lb in "<=>"]
    for name, table in tables.items():
        assert table.name == name and table.formals == ("a", "b")
        if name == "min":
            assert [render_pred(c) for c in table.cells] == ["a < b", "a = b", "a > b"]
            assert all(c is Cmp(op, a, b) for c, op in zip(table.cells, "<=>", strict=True))
            continue
        assert [render_pred(c) for c in table.cells] == [
            f"a {la} 0 /\\ b {lb} 0" for la, lb in signs]
        assert all(c is And((Cmp(la, a, zero), Cmp(lb, b, zero)))
                   for c, (la, lb) in zip(table.cells, signs, strict=True))


def test_cuts_at_one_point():
    x, zero = Ref("x"), Const(Num(0))
    assert cuts(x, [zero]) == [(Cmp("<", x, zero), "x < 0"), (Cmp("=", x, zero), "x = 0"),
                               (Cmp(">", x, zero), "x > 0")]
    assert cuts(x, [zero], below=False) == cuts(x, [zero])[1:]


def test_cuts_at_several_points_with_their_texts():
    t, lo, mid, hi = Ref("t"), Const(Num(0)), Ref("TD1"), Ref("TA")
    assert [text for _, text in cuts(t, [lo, mid, hi])] == [
        "t < 0", "t = 0", "0 < t < TD1", "t = TD1", "TD1 < t < TA", "t = TA", "t > TA"]
    classes = cuts(t, [lo, mid, hi], below=False)
    assert [text for _, text in classes] == [
        "t = 0", "0 < t < TD1", "t = TD1", "TD1 < t < TA", "t = TA", "t > TA"]
    assert classes[1][0] is And((Cmp(">", t, lo), Cmp("<", t, mid)))
    assert classes[-1][0] is Cmp(">", t, hi)


def test_cuts_show_the_points_as_given():
    t, a, b = Ref("t"), Ref("TD1"), Ref("TD2")
    assert [text for _, text in cuts(t, [a, b], {a: "a", b: "b"}.get)] == [
        "t < a", "t = a", "a < t < b", "t = b", "t > b"]
    assert [text for _, text in cuts(t, [a], lambda _: "p", below=False)] == ["t = p", "t > p"]
    assert [p for p, _ in cuts(t, [a, b], {a: "a", b: "b"}.get)] == [p for p, _ in cuts(t, [a, b])]


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
