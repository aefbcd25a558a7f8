from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from devs_scc.values import (
    EnumSort,
    EvalError,
    ExtSort,
    INF,
    Lit,
    NAT,
    Num,
    RAT,
    TIME,
    Tup,
    TupleSort,
    coerce,
    compare,
    ext_base,
    ext_literals,
    num,
    parse_number,
    render_value,
    v_add,
    v_div,
    v_min,
    v_sub,
    value_conforms,
    value_key,
)

import oracle


def test_exact_number_parsing():
    assert parse_number("0.50") == Fraction(1, 2)
    assert parse_number("7") == 7
    assert parse_number("1/3") == Fraction(1, 3)


def test_render_round_trips_fractions():
    for text in ("0", "7", "3/2", "-5/4"):
        assert render_value(Num(parse_number(text))) == text


def test_min_treats_infinity_as_top():
    assert v_min([INF, INF]) == INF
    assert v_min([INF, num(3)]) == num(3)
    assert v_min([num(2), num(5), INF]) == num(2)


def test_infinity_arithmetic():
    assert v_sub(INF, num(4)) == INF
    assert v_add(INF, num(1)) == INF
    with pytest.raises(EvalError):
        v_sub(num(1), INF)
    with pytest.raises(EvalError):
        v_sub(INF, INF)


def test_floor_division_is_exact():
    assert v_div(num(Fraction(7, 4)), num(1)) == num(1)
    assert v_div(num(Fraction(3, 4)), num(Fraction(1, 2))) == num(1)
    with pytest.raises(EvalError):
        v_div(num(1), num(0))


def test_comparison_with_incomparable_literal_is_false():
    empty = Lit("none")
    assert compare(">", empty, num(0)) is False
    assert compare("<", empty, num(5)) is False
    assert compare("=", empty, num(0)) is False
    assert compare("!=", empty, num(0)) is True
    assert compare("=", empty, Lit("none")) is True


def test_time_order_with_infinity():
    assert compare("<", num(3), INF)
    assert compare("<=", INF, INF)
    assert not compare("<", INF, num(3))


_scalars = st.one_of(
    # a number as `num` holds it (an int when integral) or as a Fraction
    st.builds(lambda n, d, raw: Num(Fraction(n, d)) if raw else num(Fraction(n, d)),
              st.integers(-2, 2), st.integers(1, 2), st.booleans()),
    st.just(INF),
    st.sampled_from([Lit("A"), Lit("B")]),
)
_values = st.recursive(
    _scalars, lambda inner: st.builds(lambda xs: Tup(tuple(xs)), st.lists(inner, min_size=2, max_size=3)),
    max_leaves=4,
)


@given(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), _values, _values)
def test_compare_agrees_with_the_ranking_oracle(op, a, b):
    assert compare(op, a, b) == oracle.compare(op, a, b)


# literals named as a number or infinity renders
_keyed = st.recursive(
    _scalars | st.sampled_from([Lit("0"), Lit("1"), Lit("infinity")]),
    lambda inner: st.builds(lambda xs: Tup(tuple(xs)), st.lists(inner, min_size=2, max_size=3)),
    max_leaves=4,
)


@given(_keyed, _keyed)
def test_two_values_have_equal_keys_exactly_when_they_are_equal(a, b):
    assert (value_key(a) == value_key(b)) is (a == b)
    if a == b:
        assert hash(value_key(a)) == hash(value_key(b))
    # infinity's key is a float, whose hash runs in C
    assert value_key(INF).__class__ is float


def test_an_unknown_comparison_is_an_evaluation_error():
    for decide in (compare, oracle.compare):
        with pytest.raises(EvalError, match="^unknown comparison ~$"):
            decide("~", num(1), num(1))


def test_nat_coercion_rejects_negative_and_fractional():
    with pytest.raises(EvalError):
        coerce(num(-1), NAT, "f")
    with pytest.raises(EvalError):
        coerce(num(Fraction(1, 2)), NAT)
    assert coerce(num(3), NAT) == num(3)


def test_extended_sort_membership():
    fc = ExtSort(NAT, "none")
    assert value_conforms(Lit("none"), fc)
    assert value_conforms(num(2), fc)
    assert not value_conforms(num(-2), fc)
    assert not value_conforms(Lit("other"), fc)


def test_extension_chain_literals():
    chain = ExtSort(ExtSort(NAT, "a"), "b")
    assert ext_literals(chain) == ("a", "b")
    assert ext_base(chain) == NAT


def test_tuple_conformance():
    coins = TupleSort((NAT, NAT, NAT))
    assert value_conforms(Tup((num(1), num(0), num(2))), coins)
    assert not value_conforms(Tup((num(1), num(0))), coins)
    assert not value_conforms(Tup((num(1), num(0), num(Fraction(1, 2)))), coins)


def test_time_conformance():
    assert value_conforms(INF, TIME)
    assert value_conforms(num(0), TIME)
    assert not value_conforms(num(-1), TIME)
    assert value_conforms(num(Fraction(-1, 2)), RAT)


def test_enum_sort_requires_distinct_literals():
    with pytest.raises(Exception):
        EnumSort(("a", "a"))
