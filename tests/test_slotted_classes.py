"""The model, its classes, and the package's reports, traces and other
results: slotted `Record` classes (the mutable ones `Struct`s) that
behave as the dataclasses they replace did.  Each is checked against
that dataclass, rebuilt with `dataclasses.make_dataclass` from the
fields, defaults and field options it had, for `==`, `!=`, `repr` and
hashability; no two instances share a default list or dict; and
importing the package loads neither `dataclasses` nor `inspect`."""

import dataclasses
import functools
import os
import subprocess
import sys
import weakref

import pytest

from devs_scc.algebra import CombineReport
from devs_scc.bounds import Bounds
from devs_scc.campaign import Campaign, CampaignResult
from devs_scc.check import Ctx
from devs_scc.model import Model, ValidationReport
from devs_scc.parser import Diagnostic
from devs_scc.sat import SatResult
from devs_scc.scc import SCC
from devs_scc.sequencer import SimulationSequence
from devs_scc.simulator import ProbeReport, SimState, TraceEvent
from devs_scc.values import Record, Struct

from tests.conftest import ROOT

REQUIRED = dataclasses.MISSING
HIDDEN = {"init": False, "repr": False, "compare": False}

# each class as the dataclass it was: whether it was frozen, and each
# field with its default (a type: its default factory) and its options
DATACLASSES = {
    Model: (True, [
        ("name", REQUIRED), ("schema", REQUIRED), ("input_sort", REQUIRED),
        ("output_sort", REQUIRED), ("delta_ext", REQUIRED), ("delta_int", REQUIRED),
        ("output_fn", REQUIRED), ("ta", REQUIRED), ("constants", ()), ("operators", ()),
        ("validated", None, HIDDEN),
    ]),
    SCC: (True, [
        ("id", REQUIRED), ("init_states", REQUIRED), ("input_pairs", REQUIRED),
        ("criterion", REQUIRED), ("target", REQUIRED), ("combined_from", ()), ("joint", None),
    ]),
    ValidationReport: (False, [
        ("errors", list), ("warnings", list), ("notes", list),
        ("ext_cases", 0), ("int_cases", 0), ("out_cases", 0),
    ]),
    Bounds: (False, [
        ("nat_ranges", dict), ("int_ranges", dict), ("rat_grids", dict), ("value_sets", dict),
        ("time_samples", None), ("const_values", dict), ("max_attempts", 200_000),
    ]),
    SatResult: (False, [("status", REQUIRED), ("witness", None), ("attempts", 0), ("index", None)]),
    CombineReport: (False, [
        ("attempted", 0), ("kept", 0), ("dropped", 0), ("unknown", 0),
        ("budget_exhausted", False), ("notes", list),
    ]),
    Ctx: (False, [("vars", REQUIRED), ("consts", REQUIRED), ("operators", REQUIRED), ("where", "")]),
    Diagnostic: (False, [("line", REQUIRED), ("col", REQUIRED), ("message", REQUIRED)]),
    SimState: (False, [("state", REQUIRED), ("clock", REQUIRED)]),
    TraceEvent: (False, [
        ("at", REQUIRED), ("fired", REQUIRED), ("state_after", REQUIRED),
        ("output", None), ("tie", False),
    ]),
    ProbeReport: (False, [
        ("scc_id", REQUIRED), ("uniform", REQUIRED), ("signatures", REQUIRED), ("note", ""),
    ]),
    SimulationSequence: (False, [("steps", list)]),
    Campaign: (False, [
        ("model", REQUIRED), ("bounds", REQUIRED), ("tables", REQUIRED), ("selections", REQUIRED),
        ("plan", None), ("include_otherwise", False), ("probe_k", 0),
        ("_context", None, HIDDEN),
    ]),
    CampaignResult: (False, [
        ("model", REQUIRED), ("criteria_counts", list), ("duplicates_removed", 0),
        ("combine", None), ("probe_flags", list), ("notes", list), ("catalog", list),
        ("configs", dict), ("sequences", list),
    ]),
}
CLASSES = list(DATACLASSES)
IDS = [cls.__name__ for cls in CLASSES]


def spec(cls):
    frozen, fields = DATACLASSES[cls]
    return frozen, [(f[0], f[1], f[2] if len(f) > 2 else {}) for f in fields]


@functools.cache
def mirror_class(cls):
    frozen, fields = spec(cls)
    made = []
    for name, default, options in fields:
        if isinstance(default, type):
            options = {"default_factory": default, **options}
        elif default is not REQUIRED:
            options = {"default": default, **options}
        made.append((name, object, dataclasses.field(**options)))
    return dataclasses.make_dataclass(cls.__name__, made, frozen=frozen)


def mirror(instance):
    """The dataclass twin of `instance`, hidden fields included."""
    _, fields = spec(type(instance))
    twin = mirror_class(type(instance))(**{
        name: getattr(instance, name) for name, _, options in fields if options.get("init", True)})
    for name, _, options in fields:
        if not options.get("init", True):
            object.__setattr__(twin, name, getattr(instance, name))
    return twin


def samples(cls) -> list:
    """Instances of `cls` with hashable field values: one of the given
    values, one more for each field changed on its own, and one whose
    hidden fields are set."""
    _, fields = spec(cls)
    given = {name: (name, 1) for name, _, options in fields if options.get("init", True)}
    out = [cls(**given)]
    for name in given:
        out.append(cls(**{**given, name: (name, 2)}))
    for name, _, options in fields:
        if not options.get("init", True):
            hidden = cls(**given)
            setattr(hidden, name, (name, 3))
            out.append(hidden)
    return out


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_equality_is_the_dataclass_equality(cls):
    some = samples(cls)
    twins = [mirror(s) for s in some]
    for a, ma in zip(some, twins):
        for b, mb in zip(some, twins):
            assert (a == b) is (ma == mb)
            assert (a != b) is (ma != mb)
        assert a != ma and not a == ma
        assert a != (1,) and a != None  # noqa: E711


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_the_repr_is_the_dataclass_repr(cls):
    for s in samples(cls):
        assert repr(s) == repr(mirror(s))


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_hashable_as_the_dataclass_was(cls):
    for s in samples(cls):
        twin = mirror(s)
        if type(twin).__hash__ is None:
            with pytest.raises(TypeError):
                hash(s)
        else:
            assert hash(s) == hash(twin)
    assert (cls.__hash__ is None) is (not spec(cls)[0])


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_defaults_are_the_dataclass_defaults_and_not_shared(cls):
    _, fields = spec(cls)
    required = {name: (name, 1) for name, default, _ in fields if default is REQUIRED}
    first, second = cls(**required), cls(**required)
    assert repr(first) == repr(mirror_class(cls)(**required))
    for name, default, _ in fields:
        if isinstance(default, type):
            assert getattr(first, name) == default()
            assert getattr(first, name) is not getattr(second, name)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_slotted_with_the_fields_in_order(cls):
    _, fields = spec(cls)
    assert issubclass(cls, Record) and (issubclass(cls, Struct) is not spec(cls)[0])
    assert [s for s in cls.__slots__ if s != "__weakref__"] == [name for name, _, _ in fields]
    instance = samples(cls)[0]
    assert not hasattr(instance, "__dict__")
    with pytest.raises(AttributeError):
        instance.extra = 1


def test_a_model_can_be_weakly_referred_to():
    model = samples(Model)[0]
    ref = weakref.ref(model)
    assert ref() is model
    del model
    assert ref() is None


@pytest.mark.parametrize("code", [
    "import devs_scc, devs_scc.campaign, devs_scc.cli",
    "import devs_scc.cli",
])
def test_importing_the_package_loads_no_dataclasses_or_inspect(code):
    check = f"{code}; import sys; print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                         check=True, cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.strip() == "[]"
