"""The value, sort and syntax records: slotted classes on `values.Record`
that behave as the frozen dataclasses they replace did.  Equality is on
class and fields, the hash is the hash of the field tuple (so set and
dict orders stay as they were), the repr is the dataclass's text, which
error messages embed, and each constructor keeps its signature and its
checks."""

import copy
import dataclasses
import inspect
import pickle
from fractions import Fraction

import pytest

from devs_scc.algebra import CombinationPlan
from devs_scc.criteria import Occurrence, TimeSpec
from devs_scc.dnf import DNFClause
from devs_scc.model import GuardedCase, OperatorDef, StateSchema
from devs_scc.partitions import StandardPartition
from devs_scc.selector import SimulationConfig
from devs_scc.syntax import (
    FALSE,
    TRUE,
    And,
    Apply,
    BinOp,
    BoolConst,
    Cmp,
    Const,
    ConstRef,
    Exists,
    Implies,
    InBase,
    InSet,
    MinOp,
    Neg,
    Node,
    Not,
    Or,
    Proj,
    Ref,
    TupleExpr,
)
from devs_scc.values import (
    INF,
    INT,
    NAT,
    RAT,
    TAU,
    TIME,
    EnumSort,
    ExtSort,
    Inf,
    IntSort,
    Lit,
    NatSort,
    Num,
    RatSort,
    Record,
    SortError,
    Struct,
    TimeSort,
    Tup,
    TupleSort,
)

X, Y = Ref("x"), Ref("y")
ONE = Const(Num(1))
LESS = Cmp("<", X, ONE)
MORE = Cmp(">=", Y, Const(Num(2)))

# one or more instances of every record class; instances of one class
# differ in at least one field
SAMPLES = [
    NAT, INT, RAT, TIME,
    EnumSort(("idle", "busy")), EnumSort(("idle",)),
    TupleSort((NAT, TIME)),
    ExtSort(NAT, "none"), ExtSort(ExtSort(NAT, "none"), "stop"),
    Num(1), Num(2), Num(Fraction(1, 3)), Num(-4),
    INF,
    Lit("1"), Lit("idle"),
    Tup((Num(1), Lit("idle"))),
    Const(Num(1)), Const(Lit("idle")), Const(INF),
    Ref("x"), Ref("y"), ConstRef("x"),
    BinOp("+", X, ONE), BinOp("-", X, ONE),
    Neg(X), MinOp((X, Y)), TupleExpr((X, Y)), Proj(TupleExpr((X, Y)), 2),
    Apply("f", (X,)), Apply("g", (X,)),
    TRUE, FALSE,
    LESS, MORE,
    InSet(X, ("idle", "busy")), InBase(X),
    And((LESS, MORE)), Or((LESS, MORE)), Not(LESS), Not(X),
    Implies(LESS, MORE), Exists((("y", NAT),), MORE),
    StateSchema((("x", NAT), ("t", TIME)), ("t",)), StateSchema((("x", NAT),)),
    GuardedCase(1, LESS, X), GuardedCase(1, LESS, X, True),
    OperatorDef("f", (("a", NAT),), NAT, (GuardedCase(1, TRUE, Ref("a")),)),
    Occurrence("dint", 6), Occurrence("dint", 6, ("<",)),
    TimeSpec(), TimeSpec(points=(ONE,), refine=True),
    DNFClause((LESS,)), DNFClause(()),
    StandardPartition("sign", ("a",), (Cmp("<", Ref("a"), Const(Num(0))),)),
    CombinationPlan(groups=((1, 2),), max_arity=2), CombinationPlan(all_pairs=True, budget=10),
    SimulationConfig(1, {"x": Num(1)}, TAU, Num(0)),
    SimulationConfig(3, {}, TAU, Num(0), None, "no representative within bounds"),
]

IDS = [f"{type(s).__name__}-{i}" for i, s in enumerate(SAMPLES)]


def fields(record) -> tuple:
    return tuple(getattr(record, name) for name in record.__slots__)


def record_classes() -> set[type]:
    out, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("devs_scc."):
                out.add(sub)
            todo.append(sub)
    return out


def test_every_record_class_has_samples():
    # `syntax.Node` is the interning base of the 18 syntax classes and
    # `values.Struct` that of the mutable records, neither instantiated
    # itself; the model, its classes and the mutable records are checked
    # in `test_slotted_classes.py`
    from tests.test_slotted_classes import CLASSES

    classes = record_classes() - {Node, Struct}
    assert classes == {type(s) for s in SAMPLES} | set(CLASSES)
    assert len(SAMPLES_CLASSES := {type(s) for s in SAMPLES}) == 38 and len(classes) == 38 + 14
    assert not SAMPLES_CLASSES & set(CLASSES)
    assert Node in record_classes()
    assert set(Node.__subclasses__()) == {c for c in classes if c.__module__ == "devs_scc.syntax"}
    assert len(Node.__subclasses__()) == 18


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_the_slots_are_the_constructor_parameters_in_order(record):
    params = list(inspect.signature(type(record)).parameters)
    assert params == list(record.__slots__)
    assert type(record)(*fields(record)) == record
    assert type(record)(**dict(zip(params, fields(record)))) == record


def test_constructor_defaults_are_kept():
    assert fields(CombinationPlan()) == ((), False, 2, 1000)
    assert fields(TimeSpec()) == ((), (), False)
    assert Occurrence("dext", 1).ops == ("<", ">", "<=", ">=")
    assert GuardedCase(1, TRUE, X).is_otherwise is False
    assert StateSchema((("x", NAT),)).time_vars == ()


@pytest.mark.parametrize("a", SAMPLES, ids=IDS)
def test_equal_on_class_and_fields(a):
    for b in SAMPLES:
        same = type(a) is type(b) and fields(a) == fields(b)
        assert (a == b) is same, b
        assert (a != b) is not same, b
    twin = copy.copy(a)
    # a syntax node is interned, so its copy is the node itself
    assert (twin is a) is isinstance(a, Node)
    assert twin == a and not twin != a


def test_records_of_different_classes_with_equal_fields_differ():
    assert Ref("x") != ConstRef("x") and not Ref("x") == ConstRef("x")
    assert Num(1) != Lit("1")
    assert And((LESS, MORE)) != Or((LESS, MORE))
    assert Neg(X) != Not(X)
    assert Num(1) != 1 and Num(1) != (1,)
    assert NAT != INT and NatSort() == NAT and IntSort() == INT
    assert RatSort() == RAT and TimeSort() == TIME and Inf() == INF


@pytest.mark.parametrize("record", [s for s in SAMPLES if not isinstance(s, SimulationConfig)],
                         ids=[i for s, i in zip(SAMPLES, IDS) if not isinstance(s, SimulationConfig)])
def test_the_hash_is_the_hash_of_the_fields(record):
    assert hash(record) == hash(fields(record))


def test_a_record_holding_a_dict_is_unhashable_as_its_fields_are():
    config = SimulationConfig(1, {"x": Num(1)}, TAU, Num(0))
    with pytest.raises(TypeError):
        hash(config)
    with pytest.raises(TypeError):
        hash(fields(config))


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_the_repr_is_the_dataclass_repr(record):
    cls = type(record)
    mirror = dataclasses.make_dataclass(cls.__name__, list(cls.__slots__), frozen=True)
    assert repr(record) == repr(mirror(*fields(record)))


def test_repr_text_of_nested_records():
    assert repr(Cmp("<", Ref("x"), Const(Num(1)))) == (
        "Cmp(op='<', left=Ref(name='x'), right=Const(value=Num(value=1)))")
    assert repr(NAT) == "NatSort()"
    assert repr(Num(Fraction(1, 3))) == "Num(value=Fraction(1, 3))"
    assert repr(ExtSort(NAT, "none")) == "ExtSort(base=NatSort(), literal='none')"


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_no_instance_dict(record):
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_copies_and_pickles_are_equal(record):
    for twin in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record and type(twin) is type(record)


@pytest.mark.parametrize("first", ["==", "!=", "hash"])
def test_the_first_comparison_or_hash_of_a_class_is_right(first):
    class Pair(Record):
        __slots__ = ("a", "b")

        def __init__(self, a, b):
            self.a = a
            self.b = b

    if first == "==":
        assert Pair(1, 2) == Pair(1, 2) and not Pair(1, 2) == Pair(1, 3)
    elif first == "!=":
        assert Pair(1, 2) != Pair(1, 3) and not Pair(1, 2) != Pair(1, 2)
    else:
        assert hash(Pair(1, 2)) == hash((1, 2))
    assert Pair(1, 2) == Pair(1, 2) != Pair(2, 1)
    assert hash(Pair(1, 2)) == hash((1, 2))
    assert Pair(1, 2) != (1, 2)


@pytest.mark.parametrize("build, error, message", [
    (lambda: EnumSort(()), SortError, "enum sort needs at least one literal"),
    (lambda: EnumSort(("a", "a")), SortError, "enum literals must be distinct"),
    (lambda: TupleSort((NAT,)), SortError, "tuple sort needs at least two components"),
    (lambda: StateSchema((("x", NAT), ("x", INT))), ValueError, "duplicate state variable names"),
    (lambda: StateSchema((("x", NAT),), ("t",)), ValueError, "@time variable t is not declared"),
    (lambda: StateSchema((("x", NAT),), ("x",)), ValueError, "@time variable x must have sort time"),
    (lambda: CombinationPlan(max_arity=1), ValueError, "max_arity must be at least 2"),
    (lambda: CombinationPlan(budget=-1), ValueError, "budget must be at least 0"),
    (lambda: CombinationPlan(budget=True), ValueError, "budget must be an integer, not True"),
    (lambda: CombinationPlan(max_arity="3"), ValueError, "max_arity must be an integer, not '3'"),
    (lambda: CombinationPlan(all_pairs=1), ValueError, "all_pairs must be true or false, not 1"),
])
def test_constructor_checks_still_raise(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert str(raised.value) == message
