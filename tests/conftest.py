import gc
import pathlib
from contextlib import contextmanager

import hypothesis
import pytest

from devs_scc.campaign import load_tables
from devs_scc.parser import parse_bounds_file, parse_model_file
from devs_scc.scc import make_scc
from devs_scc.syntax import TRUE, Cmp, Const, Ref, conj
from devs_scc.values import Lit, Num

hypothesis.settings.register_profile("ci", deadline=None, max_examples=60)
hypothesis.settings.load_profile("ci")

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

ELEVATOR_SELECTIONS = [
    "cases",
    "extensional input",
    "extensional state:eng,d,ws,ds,a,sw,fc,nt",
    "standard ordcmp dint:6,7,13,14",
    "time chain:0,TD1,TD2,TA,TGF",
]

SODA_SELECTIONS = [
    "cases",
    "extensional state:m",
    "extensional input",
    "standard >= dext:2,3 ops:>=",
    "time chain:0,Tchg,Tret,Tincr",
]

# the criteria of the soda all-pairs campaign the README describes
SODA_PAIRS_SELECTIONS = [
    "cases",
    "extensional input",
    "extensional state:m",
    "time chain:0,Tchg,Tret,Tincr",
    "standard >= dext:2,3",
]


def soda_contradiction(id: int):
    """A hand-built soda class whose pair predicate has members but whose
    joint predicate has none, so no configuration can represent it."""
    diet, normal = (Cmp("=", Ref("x"), Const(Lit(v))) for v in ("getDiet", "getNormal"))
    return make_scc(TRUE, normal, "manual", "contradiction", joint=conj([diet, normal]), id=id)


@pytest.fixture(scope="session")
def soda():
    model, report = parse_model_file(str(FIXTURES / "soda.devs"))
    assert report.usable, report.errors
    return model


@pytest.fixture(scope="session")
def soda_bounds():
    return parse_bounds_file(str(FIXTURES / "soda.bounds"))


@pytest.fixture(scope="session")
def elevator():
    model, report = parse_model_file(str(FIXTURES / "elevator.devs"))
    assert report.usable, report.errors
    return model


@pytest.fixture(scope="session")
def elevator_bounds():
    return parse_bounds_file(str(FIXTURES / "elevator.bounds"))


@pytest.fixture(scope="session")
def elevator_tables():
    tables, notes = load_tables([str(FIXTURES / "elevator.parts")])
    assert notes == []
    return tables


@pytest.fixture(scope="session")
def toggle():
    model, report = parse_model_file(str(FIXTURES / "toggle.devs"))
    assert report.usable, report.errors
    return model


@pytest.fixture(scope="session")
def toggle_bounds():
    return parse_bounds_file(str(FIXTURES / "toggle.bounds"))


def _hashed(value):
    raise AssertionError(f"{value!r} was hashed")


@contextmanager
def values_unhashed():
    """A block in which hashing a `Num` or a `Lit` raises: a memo keyed
    on such values, not on what they hold, fails in it.  The syntax
    nodes no longer in use are collected before it, and those in use
    must outlive it, as their table's keys hold values."""
    gc.collect()
    with pytest.MonkeyPatch.context() as patch:
        for cls in (Num, Lit):
            patch.setattr(cls, "__hash__", _hashed)
        yield
