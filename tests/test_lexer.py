"""The lexer and parser pinned against what they gave before their
rewrite: the one-pattern lexer against the character scanner it replaced
(`oracle.lex`), token for token, and the precedence-climbing parser by
the exact diagnostics and trees it gives on malformed and mutated
sources."""

import hashlib

import oracle
import pytest
from hypothesis import given, strategies as st

import devs_scc.parser as parser
from devs_scc.parser import (
    ParseFailure,
    lex,
    parse_bounds_text,
    parse_expr_text,
    parse_model_file,
    parse_model_text,
    parse_parts_text,
    parse_pred_text,
)
from devs_scc.render import render_model
from tests.conftest import FIXTURES

FIXTURE_FILES = sorted(p for p in FIXTURES.iterdir() if p.suffix in (".devs", ".bounds", ".parts"))


def outcome(lexer, text: str):
    """The tokens of `text`, or the diagnostic that rejects it."""
    try:
        return lexer(text)
    except ParseFailure as err:
        return str(err)


@pytest.mark.parametrize("path", FIXTURE_FILES, ids=lambda p: p.name)
def test_fixture_tokens_are_unchanged(path):
    text = path.read_text(encoding="utf-8")
    tokens = lex(text)
    assert tokens == oracle.lex(text)
    assert all(type(t) is tuple and len(t) == 4 for t in tokens)


def _soda_source() -> str:
    model, _ = parse_model_file(str(FIXTURES / "soda.devs"))
    return render_model(model)


def test_mutated_source_tokens_are_unchanged():
    # the mutations of `test_parser.py`: a run of words dropped
    words = _soda_source().split(" ")
    for drop in (1, 2, 8):
        for k in range(0, len(words) - 1, 3):
            mutated = " ".join(words[:k] + words[k + drop:])
            assert outcome(lex, mutated) == outcome(oracle.lex, mutated), (k, drop)


# ASCII text of the token language, blanks, Unicode symbols, letters and
# decimal digits (category Nd), numeric characters that are not digits,
# and characters the language has no use for
_ALPHABET = st.sampled_from(
    list("abxyz_' \t\r\n\n0123456789\"-./\\{}(),;:=<>!+*|@#$?&%")
    + list("∧∨¬⇒≠≤≥∞τ÷−")
    + list("éßΩλжあ٣٤७７")
    + list("½Ⅻ〇́\x0b\xa0")
)
_WORDS = st.sampled_from([
    "--", "->", "..", "/\\", "\\/", "=>", "1.5", "2/3", "1..4", "min(", "x.1", '"a b"', "-- c\n",
])


@given(st.lists(st.one_of(_ALPHABET, _WORDS), max_size=40).map("".join))
def test_generated_text_tokens_are_unchanged(text):
    assert outcome(lex, text) == outcome(oracle.lex, text)


def test_a_digit_that_is_not_decimal_is_an_unexpected_character():
    # the scanner read `²` as a number, which `Fraction` then could not
    # read (a ValueError); the pattern reads decimal digits only
    with pytest.raises(ParseFailure) as err:
        parse_expr_text("x + 1²")
    assert str(err.value) == "1:6: unexpected character '²'"
    assert lex("x²") == [("ident", "x²", 1, 1), ("eof", "", 1, 3)]


@pytest.mark.parametrize("parse, text, message", [
    (parse_model_text, "", "1:1: expected 'model', found 'end of input'"),
    (parse_model_text, "-- nothing but a comment\n   -- and another",
     "1:1: expected 'model', found 'end of input'"),
    (parse_model_text, "model m { -- and nothing more",
     "1:11: expected a model section, found 'end of input'"),
    (parse_parts_text, 'partition "sign(a) {\n  a < 0;\n}\n', "1:11: unterminated string"),
    (parse_model_text, "model m {\n  state { n: nat; }\n  input nat; $\n}",
     "3:14: unexpected character '$'"),
    (parse_model_text, "model m {\n  state { n: nat; }\n  ta = n + ;\n}",
     "3:12: expected an expression, found ';'"),
    (parse_model_text, "model m {\n  state { n: nat; }\n  ta = n *",
     "3:11: expected an expression, found 'end of input'"),
    (parse_model_text, "model m {\n  state { n: nat; }\n  ta = (n, n).0 + 1;\n}",
     "3:17: projection index must be a positive integer, found '+'"),
    (parse_model_text, "model m {\n  state { n: nat; }\n  input nat;\n  ta = infinity;\n}\n",
     "6:1: missing sections: output, dext, dint, lambda"),
    (parse_pred_text, "a < 1 /\\ (b", "1:12: expected ')', found 'end of input'"),
    (parse_pred_text, "(a + 1) b", "1:9: expected a comparison or membership, found 'b'"),
    (parse_pred_text, "a = 1 => ", "1:10: expected an expression, found 'end of input'"),
    (parse_pred_text, '"a" = 1', "1:1: expected an expression, found 'a'"),
    (parse_expr_text, "min(a)", "1:7: min needs at least two arguments, found 'end of input'"),
    (parse_expr_text, "a + b)", "1:6: unexpected trailing input, found ')'"),
])
def test_diagnostics_are_pinned(parse, text, message):
    with pytest.raises(ParseFailure) as err:
        parse(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text, tree", [
    ("a - b - c", "BinOp(op='-', left=BinOp(op='-', left=Ref(name='a'), right=Ref(name='b')), "
                  "right=Ref(name='c'))"),
    ("a + b * c div d", "BinOp(op='+', left=Ref(name='a'), right=BinOp(op='div', "
                        "left=BinOp(op='*', left=Ref(name='b'), right=Ref(name='c')), "
                        "right=Ref(name='d')))"),
    ("- -2", "Const(value=Num(value=2))"),
    ("-x.1", "Neg(arg=Proj(base=Ref(name='x'), index=1))"),
    ("(a, b).2 * 3", "BinOp(op='*', left=Proj(base=TupleExpr(items=(Ref(name='a'), "
                     "Ref(name='b'))), index=2), right=Const(value=Num(value=3)))"),
])
def test_expression_trees(text, tree):
    assert repr(parse_expr_text(text)) == tree


def test_predicate_trees():
    a, b, c, d = (parse_pred_text(f"{v} = 0") for v in "abcd")
    p = parse_pred_text
    assert p("a = 0 /\\ b = 0 /\\ c = 0 \\/ d = 0") == p("((a = 0 /\\ b = 0 /\\ c = 0) \\/ d = 0)")
    assert repr(p("a = 0 \\/ b = 0 /\\ c = 0 => d = 0 => a = 0")) == repr(
        p("(a = 0 \\/ (b = 0 /\\ c = 0)) => (d = 0 => a = 0)"))
    assert p("a = 0 /\\ b = 0 /\\ c = 0").items == (a, b, c)
    assert p("!(a = 0) \\/ (b = 0)").items[1] == b
    assert p("(a + 1) = 2") == p("a + 1 = 2")
    assert p("(a) in nat") == p("a in nat")


# the elevator bounds as they were when the digests below were taken,
# with an explicit `time samples` line (the fixture now derives that grid)
ELEVATOR_BOUNDS_WITH_SAMPLES = """\
-- Enumeration bounds for the elevator fixture.
-- Timer constants ordered TD1 < TD2 < TA < TGF; the sample set has an
-- inhabitant strictly inside every gap and one point past the largest.

bounds {
  const TD1 = 2;
  const TD2 = 3;
  const TA = 5;
  const TGF = 8;

  nat default = 0..3;

  time samples = {0, 1, TD1, 5/2, TD2, 4, TA, 13/2, TGF, 9};
  max attempts = 200000;
}
"""

# digests of the outcomes (the tree's repr, or the diagnostic) of parsing
# every fifth drop point of three sources with 1, 2, 3 and 8 words
# dropped, as the recursive-descent parser gave them; checks are stubbed
# out, so this pins the syntax alone
MUTATION_DIGESTS = {
    "model": (504, "2c6e5333f535ab1b68e4c7fef2d70deab34c1a488f52a71bb1ea5b3cccbbab9b"),
    "parts": (144, "5d612305460997ded519afeddfdf56893969f060c1ecf02c7ef021d8345bf77c"),
    "bounds": (64, "758982f1b8904e2ffe5bd6076f472e8bc792d8839a9845530832ff49cc5759d5"),
}


@pytest.mark.parametrize("name", sorted(MUTATION_DIGESTS))
def test_mutated_source_outcomes_are_pinned(name, monkeypatch):
    source, parse = {
        "model": (_soda_source, parse_model_text),
        "parts": ((FIXTURES / "elevator.parts").read_text, parse_parts_text),
        "bounds": (lambda: ELEVATOR_BOUNDS_WITH_SAMPLES, parse_bounds_text),
    }[name]
    words = source().split(" ")
    monkeypatch.setattr(parser, "validate_model", lambda model: (model, None))
    digest, count = hashlib.sha256(), 0
    for drop in (1, 2, 3, 8):
        for k in range(0, len(words) - 1, 5):
            mutated = " ".join(words[:k] + words[k + drop:])
            try:
                out = repr(parse(mutated))
            except ParseFailure as err:
                out = str(err)
            digest.update(out.encode() + b"\n")
            count += 1
    assert (count, digest.hexdigest()) == MUTATION_DIGESTS[name]
