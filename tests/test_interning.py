"""Forms prepared once per model and bounds: interned conjuncts, shared
search spaces, kept depth splits and one compiled test per class."""

import sys
from collections import Counter

import pytest

import devs_scc.sat as sat
from devs_scc.algebra import CombinationPlan
from devs_scc.bounds import joint_space, state_space, var_grid
from devs_scc.campaign import Campaign, load_plan, load_tables, run_campaign
from devs_scc.check import validate_model
from devs_scc.parser import parse_bounds_file, parse_bounds_text, parse_model_file
from devs_scc.sat import prepare, prepare_conjuncts, satisfiable
from devs_scc.sequencer import build_sequences
from devs_scc.selector import runnable_form, select_config
from devs_scc.syntax import Cmp, Const, Exists, Ref, conjuncts, iter_subpreds, normalize, render_pred
from devs_scc.values import NAT, num

from tests.conftest import (
    ELEVATOR_SELECTIONS,
    FIXTURES,
    SODA_PAIRS_SELECTIONS,
)


def _fresh(name):
    """A model parsed for this test alone, so nothing it keeps comes from
    another test, with its bounds."""
    model, report = parse_model_file(str(FIXTURES / f"{name}.devs"))
    assert report.usable, report.errors
    return model, parse_bounds_file(str(FIXTURES / f"{name}.bounds"))


def _worked_campaign(model, bounds, stop_after="simulate"):
    tables, _ = load_tables([str(FIXTURES / "elevator.parts")])
    return run_campaign(Campaign(
        model=model,
        bounds=bounds,
        tables=tables,
        selections=list(ELEVATOR_SELECTIONS),
        plan=load_plan(str(FIXTURES / "elevator.plan.json")),
    ), stop_after=stop_after)


# ---------------------------------------------------------------------------
# interned conjuncts


def test_a_worked_campaign_builds_one_conjunct_per_text(monkeypatch):
    built: Counter = Counter()

    class Counting(sat.Conjunct):
        __slots__ = ()

        def __init__(self, pred, text, model, bounds):
            super().__init__(pred, text, model, bounds)
            if model is not None:
                built[(text, id(model), id(bounds))] += 1

    monkeypatch.setattr(sat, "Conjunct", Counting)
    model, bounds = _fresh("elevator")
    _, report = validate_model(model, bounds)
    assert report.usable
    result = _worked_campaign(model, bounds)
    assert result.report.catalog_size == 92
    assert {key[1:] for key in built} == {(id(model), id(bounds))}
    assert len(built) > 50
    assert max(built.values()) == 1


def test_prepared_forms_share_their_conjuncts(elevator, elevator_bounds):
    result = _worked_campaign(elevator, elevator_bounds, stop_after="select")
    by_text: dict[str, sat.Conjunct] = {}
    for scc in result.catalog:
        for c in runnable_form(scc, elevator, elevator_bounds).items:
            assert by_text.setdefault(c.text, c) is c
    again = prepare_conjuncts(result.catalog[0].member, elevator, elevator_bounds)
    assert all(c is by_text[c.text] for c in again.items)


def test_other_bounds_get_their_own_existential_closure_and_verdict():
    model, _ = _fresh("toggle")
    k_above_3 = Exists((("k", NAT),), Cmp(">", Ref("k"), Const(num(3))))
    narrow = parse_bounds_text("bounds { nat k = 0..2; }")
    wide = parse_bounds_text("bounds { nat k = 0..5; }")
    assert var_grid(narrow, "k", NAT)[-1] == num(2) and var_grid(wide, "k", NAT)[-1] == num(5)
    forms = {}
    for bounds, want in ((narrow, "unsat"), (wide, "sat"), (narrow, "unsat"), (wide, "sat")):
        form = prepare(k_above_3, model, bounds)
        assert satisfiable(form, [], bounds, model).status == want
        forms.setdefault(id(bounds), []).append(form.items[0])
    (a, _), (b, _) = forms.values()
    assert a.text == b.text
    assert a is not b and a.test is not b.test
    # back-to-back asks under one bounds object share the conjunct
    assert prepare(k_above_3, model, wide).items[0] is prepare(k_above_3, model, wide).items[0]


def _catalog(fixture, selections, plan):
    model, bounds = _fresh(fixture)
    tables, _ = load_tables([str(FIXTURES / f"{fixture}.parts")] if fixture == "elevator" else [])
    return model, run_campaign(Campaign(
        model=model, bounds=bounds, tables=tables, selections=list(selections), plan=plan,
    ), stop_after="combine").catalog


@pytest.mark.parametrize("name", ["elevator worked plan", "soda all-pairs"])
def test_equal_text_means_equal_predicates(name):
    """Interning on the canonical text is sound: over every case guard of
    the three fixtures and every predicate of the two catalogs, two
    predicates that render alike are structurally equal."""
    preds = []
    for fixture in ("soda", "toggle", "elevator"):
        model, _ = _fresh(fixture)
        for case in (*model.delta_ext, *model.delta_int, *model.output_fn):
            if not case.is_otherwise:
                preds.append(normalize(case.guard))
    if name == "soda all-pairs":
        _, catalog = _catalog("soda", SODA_PAIRS_SELECTIONS, CombinationPlan(all_pairs=True))
        assert len(catalog) == 373
    else:
        _, catalog = _catalog("elevator", ELEVATOR_SELECTIONS,
                              load_plan(str(FIXTURES / "elevator.plan.json")))
        assert len(catalog) == 92
    for scc in catalog:
        preds += [scc.init_states, scc.input_pairs, *scc.member]
        if scc.joint is not None:
            preds.append(scc.joint)
    by_text: dict[str, object] = {}
    checked = 0
    for pred in preds:
        for part in [*conjuncts(pred), *iter_subpreds(pred)]:
            first = by_text.setdefault(render_pred(part), part)
            assert first == part, render_pred(part)
            checked += 1
    assert checked > len(by_text) > 50


# ---------------------------------------------------------------------------
# shared spaces and kept splits


def test_spaces_are_built_once_per_model_and_bounds(elevator):
    b = parse_bounds_file(str(FIXTURES / "elevator.bounds"))
    assert joint_space(elevator, b) is joint_space(elevator, b)
    assert state_space(elevator, b) is state_space(elevator, b)
    other = parse_bounds_text((FIXTURES / "elevator.bounds").read_text())
    assert joint_space(elevator, other) is not joint_space(elevator, b)
    assert joint_space(elevator, other) == joint_space(elevator, b)


def test_a_form_keeps_its_split_while_searched_over_one_order(elevator, elevator_bounds, monkeypatch):
    split = sat._split
    made = []

    def counting(form, names):
        made.append(names)
        return split(form, names)

    monkeypatch.setattr(sat, "_split", counting)
    result = _worked_campaign(elevator, elevator_bounds, stop_after="select")
    form = runnable_form(result.catalog[0], elevator, elevator_bounds)
    space = joint_space(elevator, elevator_bounds)
    made.clear()
    for _ in range(3):
        assert satisfiable(form, space, elevator_bounds, elevator).sat
    assert made == []
    for _ in range(3):
        assert satisfiable(form, space[::-1], elevator_bounds, elevator).sat
    assert made == [tuple(n for n, _ in space[::-1])]


# ---------------------------------------------------------------------------
# one compiled test per class


def test_selection_and_chaining_compile_each_class_state_test_once(monkeypatch):
    model, bounds = _fresh("elevator")
    # a first campaign compiles the simulator's cases and interns every
    # conjunct the catalog's forms need
    _worked_campaign(model, bounds)
    catalog = _worked_campaign(model, bounds, stop_after="combine").catalog
    # every caller of the compiler, which itself recurses through its name
    compiled = []
    for name, module in list(sys.modules.items()):
        if (name.startswith("devs_scc.") and name != "devs_scc.evaluator"
                and hasattr(module, "compile_pred")):
            def counting(pred, *args, _name=name, _compile=module.compile_pred):
                compiled.append((_name, pred))
                return _compile(pred, *args)
            monkeypatch.setattr(module, "compile_pred", counting)
    configs = {scc.id: select_config(scc, model, bounds) for scc in catalog}
    # selection re-checks each representative on its class's state and
    # pair tests, compiled once each ...
    assert compiled == [
        ("devs_scc.selector", pred) for scc in catalog for pred in (scc.init_states, scc.input_pairs)
    ]
    assert [select_config(scc, model, bounds) for scc in catalog] == list(configs.values())
    assert len(compiled) == 2 * len(catalog)
    # ... and chaining tests states on the same kept state tests
    sequences, _ = build_sequences(model, catalog, bounds, configs)
    assert sum(len(s.covered) for s in sequences) == len(catalog)
    assert len(compiled) == 2 * len(catalog)
