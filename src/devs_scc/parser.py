"""Lexer and recursive-descent parser for the model DSL; expressions and
predicates are parsed by precedence climbing.

Three file kinds share one token language: `.devs` models, `.parts`
standard-partition tables and `.bounds` enumeration bounds.  Unicode
math is accepted with ASCII fallbacks (/\\ \\/ ! => != <= >= infinity
tau div), comments run from -- to end of line, and every rejected input
carries at least one line:column diagnostic.
"""

from __future__ import annotations

import re

from .bounds import Bounds
from .check import validate_model
from .model import FUNCTIONS, GuardedCase, Model, OperatorDef, StateSchema, ValidationReport
from .partitions import StandardPartition
from .syntax import (
    And,
    Apply,
    BinOp,
    Cmp,
    Const,
    Expr,
    FALSE,
    Implies,
    InBase,
    InSet,
    MinOp,
    Neg,
    Not,
    Or,
    Predicate,
    Proj,
    Ref,
    TRUE,
    TupleExpr,
    free_vars,
    subst,
)
from .values import (
    EnumSort,
    EvalError,
    ExtSort,
    INF,
    INT,
    Lit,
    NAT,
    Num,
    RAT,
    Rational,
    Sort,
    Struct,
    TAU,
    TIME,
    Tup,
    TupleSort,
    Value,
    parse_number,
    v_neg,
)


class Diagnostic(Struct):
    """A message about the source text at a line and column."""

    __slots__ = ("line", "col", "message")

    def __init__(self, line: int, col: int, message: str) -> None:
        self.line = line
        self.col = col
        self.message = message

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


class ParseFailure(Exception):
    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


# ---------------------------------------------------------------------------
# lexer

# the token each Unicode symbol reads as: its kind and its ASCII text
_UNICODE = {
    "∧": ("sym", "/\\"),
    "∨": ("sym", "\\/"),
    "¬": ("sym", "!"),
    "⇒": ("sym", "=>"),
    "≠": ("sym", "!="),
    "≤": ("sym", "<="),
    "≥": ("sym", ">="),
    "∞": ("ident", "infinity"),
    "τ": ("ident", "tau"),
    "÷": ("ident", "div"),
    "−": ("sym", "-"),
}

# One pattern for every token, tried where the previous one ends: the
# tokenizer recipe of the `re` documentation.  Blanks before a token are
# skipped; a comment takes its newline with it; `end` takes a comment
# that ends the input, so the end of input sits where that comment
# starts.  A `word` (one starting outside ASCII) is a name only when its
# first character is a letter; `bad` is any other character, or a quote
# that opens no string.
_TOKEN = re.compile(r"""[ \t\r]*(?:
     (?P<ident>[A-Za-z_][\w']*)
    |(?P<sym>/\\|\\/|=>|!=|<=|>=|->|\.\.|-(?!-)|[{}(),;:=<>!+*.|@])
    |(?P<newline>\n)
    |(?P<number>\d+(?:[./]\d+)?)
    |(?P<comment>--[^\n]*\n)
    |(?P<end>(?:--[^\n]*)?\Z)
    |(?P<unicode>[%s])
    |(?P<string>"[^"]*")
    |(?P<word>[^\W\d][\w']*)
    |(?P<bad>.))""" % "".join(_UNICODE), re.VERBOSE)


def lex(text: str) -> list[tuple[str, str, int, int]]:
    """The tokens of `text`, each `(kind, text, line, col)` with kind
    ident, number, string, sym or eof; a string's text is what its quotes
    enclose.  Lines are counted at each newline outside a string."""
    tokens: list[tuple[str, str, int, int]] = []
    append = tokens.append
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        start, stop = m.span(kind)
        if kind == "ident" or kind == "sym" or kind == "number":
            append((kind, text[start:stop], line, start - line_start + 1))
        elif kind == "newline" or kind == "comment":
            line += 1
            line_start = stop
        elif kind == "end":
            break
        elif kind == "unicode":
            append((*_UNICODE[text[start]], line, start - line_start + 1))
        elif kind == "string":
            append(("string", text[start + 1:stop - 1], line, start - line_start + 1))
        elif kind == "word" and text[start].isalpha():
            append(("ident", text[start:stop], line, start - line_start + 1))
        else:
            c = text[start]
            message = "unterminated string" if c == '"' else f"unexpected character {c!r}"
            raise ParseFailure([Diagnostic(line, start - line_start + 1, message)])
    append(("eof", "", line, start - line_start + 1) if tokens else ("eof", "", 1, 1))
    return tokens


# ---------------------------------------------------------------------------
# parser core

# the token kinds that `at`, `accept` and `expect` match by their text
_WORD_KINDS = ("sym", "ident")

# how tightly each binary operator binds, for precedence climbing: `=>`
# loosest and to the right, the others to the left
_ARITH = {"+": 1, "-": 1, "*": 2, "div": 2}
_CONNECTIVES = {"=>": 1, "\\/": 2, "/\\": 3}
_COMPARISONS = ("!=", "<=", ">=", "=", "<", ">")
# what makes a parenthesized predicate part of an expression instead
_EXPR_FOLLOWS = (*_COMPARISONS, ".")


class Parser:
    def __init__(self, text: str):
        self.tokens = lex(text)
        self.pos = 0

    @property
    def tok(self) -> tuple[str, str, int, int]:
        return self.tokens[self.pos]

    def fail(self, message: str) -> ParseFailure:
        kind, text, line, col = self.tokens[self.pos]
        shown = text if kind != "eof" else "end of input"
        return ParseFailure([Diagnostic(line, col, f"{message}, found {shown!r}")])

    # `at`, `accept`, `expect`, `ident` and `number` run for nearly every
    # token, so each reads the current token once, not through `tok`

    def at(self, text: str) -> bool:
        t = self.tokens[self.pos]
        return t[1] == text and t[0] in _WORD_KINDS

    def accept(self, text: str) -> bool:
        t = self.tokens[self.pos]
        if t[1] == text and t[0] in _WORD_KINDS:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> None:
        t = self.tokens[self.pos]
        if t[1] != text or t[0] not in _WORD_KINDS:
            raise self.fail(f"expected {text!r}")
        self.pos += 1

    def ident(self, what: str = "identifier") -> str:
        t = self.tokens[self.pos]
        if t[0] != "ident":
            raise self.fail(f"expected {what}")
        self.pos += 1
        return t[1]

    def number(self) -> Rational:
        t = self.tokens[self.pos]
        if t[0] != "number":
            raise self.fail("expected number")
        try:
            value = parse_number(t[1])
        except ZeroDivisionError:
            raise self.fail("division by zero") from None
        self.pos += 1
        return value

    def listed(self, item, close: str) -> list:
        """`item()`, again after each comma, then the token `close`."""
        items = [item()]
        while self.accept(","):
            items.append(item())
        self.expect(close)
        return items

    # ---- sorts ------------------------------------------------------------

    def sort(self, aliases: dict[str, Sort]) -> Sort:
        s = self._sort_atom(aliases)
        while self.accept("|"):
            s = ExtSort(s, self.ident("extension literal"))
        return s

    def _sort_atom(self, aliases: dict[str, Sort]) -> Sort:
        if self.accept("nat"):
            return NAT
        if self.accept("int"):
            return INT
        if self.accept("rational"):
            return RAT
        if self.accept("time"):
            return TIME
        if self.accept("enum"):
            self.expect("{")
            return EnumSort(tuple(self.listed(lambda: self.ident("enum literal"), "}")))
        if self.accept("("):
            items = self.listed(lambda: self.sort(aliases), ")")
            if len(items) < 2:
                raise self.fail("tuple sort needs at least two components")
            return TupleSort(tuple(items))
        kind, text = self.tokens[self.pos][:2]
        if kind == "ident" and text in aliases:
            self.pos += 1
            return aliases[text]
        raise self.fail("expected a sort")

    # ---- expressions -------------------------------------------------------

    def expr(self, floor: int = 1) -> Expr:
        """An expression of operands joined by operators that bind at least
        as tightly as `floor`."""
        e = self._operand()
        while True:
            t = self.tokens[self.pos]
            power = _ARITH.get(t[1], 0)
            if power < floor or t[0] not in _WORD_KINDS:
                return e
            self.pos += 1
            e = BinOp(t[1], e, self.expr(power + 1))

    def _operand(self) -> Expr:
        """A negated operand, or a primary expression and its projections."""
        if self.accept("-"):
            arg = self._operand()
            if isinstance(arg, Const) and isinstance(arg.value, Num):
                return Const(v_neg(arg.value))
            return Neg(arg)
        kind, text = self.tokens[self.pos][:2]
        if kind == "number":
            e = Const(Num(self.number()))
        elif kind == "ident":
            self.pos += 1
            if text == "infinity":
                e = Const(INF)
            elif text == "tau":
                e = Const(TAU)
            elif text == "min":
                self.expect("(")
                args = self.listed(self.expr, ")")
                if len(args) < 2:
                    raise self.fail("min needs at least two arguments")
                e = MinOp(tuple(args))
            elif self.accept("("):
                e = Apply(text, tuple(self.listed(self.expr, ")")))
            else:
                e = Ref(text)
        elif self.accept("("):
            items = self.listed(self.expr, ")")
            e = items[0] if len(items) == 1 else TupleExpr(tuple(items))
        else:
            raise self.fail("expected an expression")
        while self.accept("."):
            idx = self.number()
            if idx.denominator != 1 or idx < 1:
                raise self.fail("projection index must be a positive integer")
            e = Proj(e, int(idx))
        return e

    # ---- predicates --------------------------------------------------------

    def pred(self, floor: int = 1) -> Predicate:
        """A predicate of literals joined by connectives that bind at least
        as tightly as `floor`; a run of one connective `/\\` or `\\/` is
        one And or Or."""
        left = self._literal()
        while True:
            t = self.tokens[self.pos]
            power = _CONNECTIVES.get(t[1], 0)
            if power < floor or t[0] not in _WORD_KINDS:
                return left
            self.pos += 1
            if power == 1:
                left = Implies(left, self.pred(1))
                continue
            items = [left, self.pred(power + 1)]
            while self.accept(t[1]):
                items.append(self.pred(power + 1))
            left = (And if power == 3 else Or)(tuple(items))

    def _literal(self) -> Predicate:
        """A negation, a truth constant, a parenthesized predicate, or a
        comparison or membership test of expressions."""
        if self.accept("!"):
            return Not(self._literal())
        if self.accept("true"):
            return TRUE
        if self.accept("false"):
            return FALSE
        if self.at("("):
            # read on as an expression when the parentheses turn out to
            # hold none, or one that is compared, projected or tested
            mark = self.pos
            self.pos += 1
            try:
                inner = self.pred()
                self.expect(")")
            except ParseFailure:
                pass
            else:
                kind, text = self.tokens[self.pos][:2]
                if not (kind == "sym" and text in _EXPR_FOLLOWS) and not self.at("in"):
                    return inner
            self.pos = mark
        left = self.expr()
        if self.accept("in"):
            if self.accept("nat"):
                return InBase(left)
            self.expect("{")
            return InSet(left, tuple(self.listed(lambda: self.ident("literal"), "}")))
        kind, text = self.tokens[self.pos][:2]
        if text in _COMPARISONS and kind in _WORD_KINDS:
            self.pos += 1
            return Cmp(text, left, self.expr())
        raise self.fail("expected a comparison or membership")


# ---------------------------------------------------------------------------
# model files

def parse_model_text(text: str) -> tuple[Model, ValidationReport]:
    """Parse, bind and validate a model.  Syntax problems raise
    ParseFailure; sort problems land in the report."""
    p = Parser(text)
    p.expect("model")
    name = p.ident("model name")
    p.expect("{")

    aliases: dict[str, Sort] = {}
    constants: list[tuple[str, Sort]] = []
    schema: StateSchema | None = None
    input_sort: Sort | None = None
    output_sort: Sort | None = None
    operators: list[OperatorDef] = []
    ta: Expr | None = None
    bodies: dict[str, tuple[GuardedCase, ...]] = {}  # dext, dint and lambda

    while not p.at("}"):
        if p.accept("const"):
            cname = p.ident("constant name")
            p.expect(":")
            constants.append((cname, p.sort(aliases)))
            p.expect(";")
        elif p.accept("sort"):
            aname = p.ident("sort alias")
            p.expect("=")
            aliases[aname] = p.sort(aliases)
            p.expect(";")
        elif p.accept("state"):
            schema = _parse_state(p, aliases)
        elif p.accept("input"):
            input_sort = p.sort(aliases)
            p.expect(";")
        elif p.accept("output"):
            output_sort = p.sort(aliases)
            p.expect(";")
        elif p.accept("op"):
            operators.append(_parse_opdef(p, aliases))
        elif p.accept("ta"):
            p.expect("=")
            ta = p.expr()
            p.expect(";")
        elif any(map(p.at, FUNCTIONS)):
            fn = p.ident()
            params = ("s", ",", "e", ",", "x") if fn == "dext" else ("s",)
            for expected in ("(", *params, ")"):
                p.expect(expected)
            bodies[fn] = _parse_fnbody(p)
        else:
            raise p.fail("expected a model section")
    p.expect("}")

    missing = [
        what
        for what, val in (
            ("state", schema),
            ("input", input_sort),
            ("output", output_sort),
            ("ta", ta),
            *((fn, bodies.get(fn)) for fn in FUNCTIONS),
        )
        if val is None
    ]
    if missing:
        _, _, line, col = p.tok
        raise ParseFailure([Diagnostic(line, col, "missing sections: " + ", ".join(missing))])

    return validate_model(Model(name, schema, input_sort, output_sort,
                                *(bodies[fn] for fn in FUNCTIONS), ta, tuple(constants),
                                tuple(operators)))


def _parse_state(p: Parser, aliases: dict[str, Sort]) -> StateSchema:
    p.expect("{")
    vars_: list[tuple[str, Sort]] = []
    time_vars: list[str] = []
    while not p.at("}"):
        vname = p.ident("state variable")
        p.expect(":")
        vsort = p.sort(aliases)
        if p.accept("@"):
            p.expect("time")
            time_vars.append(vname)
        p.expect(";")
        vars_.append((vname, vsort))
    p.expect("}")
    if not vars_:
        raise p.fail("state block needs at least one variable")
    return StateSchema(tuple(vars_), tuple(time_vars))


def _parse_opdef(p: Parser, aliases: dict[str, Sort]) -> OperatorDef:
    def param() -> tuple[str, Sort]:
        pname = p.ident("parameter name")
        p.expect(":")
        return pname, p.sort(aliases)

    name = p.ident("operator name")
    p.expect("(")
    params = [] if p.accept(")") else p.listed(param, ")")
    p.expect(":")
    result = p.sort(aliases)
    p.expect("{")
    lets = _parse_lets(p)
    if p.at("case") or p.at("otherwise"):
        cases = _parse_cases(p, lets)
    else:
        body = subst(p.expr(), lets)
        p.expect(";")
        cases = [GuardedCase(1, TRUE, body)]
    p.expect("}")
    return OperatorDef(name, tuple(params), result, tuple(cases))


def _parse_fnbody(p: Parser) -> tuple[GuardedCase, ...]:
    p.expect("{")
    cases = _parse_cases(p, _parse_lets(p))
    p.expect("}")
    return tuple(cases)


def _parse_lets(p: Parser) -> dict[str, Expr]:
    """The `let` block opening a body; each binding may use the earlier
    ones, which are substituted in."""
    lets: dict[str, Expr] = {}
    while p.accept("let"):
        lname = p.ident("let name")
        p.expect("=")
        lets[lname] = subst(p.expr(), lets)
        p.expect(";")
    return lets


def _parse_cases(p: Parser, lets: dict[str, Expr]) -> list[GuardedCase]:
    """Guarded cases, numbered from 1, with the `let` names substituted."""
    cases: list[GuardedCase] = []
    while p.at("case") or p.at("otherwise"):
        otherwise = p.ident() == "otherwise"
        guard = TRUE if otherwise else subst(p.pred(), lets)
        p.expect("->")
        result = subst(p.expr(), lets)
        p.expect(";")
        cases.append(GuardedCase(len(cases) + 1, guard, result, otherwise))
    return cases


# ---------------------------------------------------------------------------
# partition tables

def parse_parts_text(text: str) -> list[StandardPartition]:
    p = Parser(text)
    tables: list[StandardPartition] = []
    while p.tok[0] != "eof":
        p.expect("partition")
        kind, name = p.tok[:2]
        if kind != "string":
            raise p.fail("expected a quoted partition name")
        p.pos += 1
        p.expect("(")
        formals = p.listed(lambda: p.ident("operand name"), ")")
        p.expect("{")
        cells: list[Predicate] = []
        while not p.at("}"):
            line, col = p.tok[2:]
            cells.append(p.pred())
            stray = free_vars(cells[-1]).difference(formals)
            if stray:
                raise ParseFailure([Diagnostic(line, col, (
                    f"a cell of partition {name} names {', '.join(sorted(stray))}, "
                    f"not one of its operands {', '.join(formals)}"))])
            p.expect(";")
        p.expect("}")
        if not cells:
            raise p.fail("partition needs at least one cell")
        tables.append(StandardPartition(name, tuple(formals), tuple(cells)))
    return tables


# ---------------------------------------------------------------------------
# bounds files

def parse_bounds_text(text: str) -> Bounds:
    p = Parser(text)
    b = Bounds()
    p.expect("bounds")
    p.expect("{")
    while not p.at("}"):
        if p.at("nat") or p.at("int") or p.at("rational"):
            kind = p.ident()
            read = _signed_number if kind == "rational" else _signed_int
            key = _range_key(p)
            p.expect("=")
            lo = read(p)
            p.expect("..")
            hi = read(p)
            if kind == "rational":
                b.rat_grids[key] = (lo, hi, _signed_number(p) if p.accept("step") else 1)
            else:
                (b.nat_ranges if kind == "nat" else b.int_ranges)[key] = (lo, hi)
            p.expect(";")
        elif p.accept("set"):
            vname = p.ident("variable name")
            p.expect("=")
            p.expect("{")
            b.value_sets[vname] = p.listed(lambda: _parse_value(p), "}")
            p.expect(";")
        elif p.accept("const"):
            cname = p.ident("constant name")
            p.expect("=")
            b.const_values[cname] = _const_value(p, b)
            p.expect(";")
        elif p.accept("time"):
            p.expect("samples")
            p.expect("=")
            p.expect("{")
            samples = p.listed(lambda: _const_number(p, b), "}")
            p.expect(";")
            b.time_samples = sorted(set(samples))
        elif p.accept("max"):
            p.expect("attempts")
            p.expect("=")
            b.max_attempts = _signed_int(p)
            p.expect(";")
        else:
            raise p.fail("expected a bounds item")
    p.expect("}")
    b.validate()
    return b


def _range_key(p: Parser) -> str:
    if p.accept("default"):
        return ""
    return p.ident("variable name or 'default'")


def _signed_int(p: Parser) -> int:
    f = _signed_number(p)
    if f.denominator != 1:
        raise p.fail("expected an integer")
    return int(f)


def _signed_number(p: Parser) -> Rational:
    neg = p.accept("-")
    v = p.number()
    return -v if neg else v


def _parse_value(p: Parser) -> Value:
    if p.accept("infinity"):
        return INF
    if p.accept("("):
        return Tup(tuple(p.listed(lambda: _parse_value(p), ")")))
    if p.tok[0] == "ident":
        return Lit(p.ident())
    if p.accept("-"):
        return Num(-p.number())
    return Num(p.number())


def _const_value(p: Parser, b: Bounds) -> Value:
    if p.accept("infinity"):
        return INF
    return Num(_const_number(p, b))


def _const_number(p: Parser, b: Bounds) -> Rational:
    """A constant arithmetic expression over previously defined constants."""
    from .evaluator import eval_expr

    _, _, line, col = p.tok
    expr = p.expr()
    try:
        v = eval_expr(expr, dict(b.const_values))
    except EvalError as err:
        raise ParseFailure([Diagnostic(line, col, str(err))]) from None
    if not isinstance(v, Num):
        raise p.fail("expected a finite number")
    return v.value


# ---------------------------------------------------------------------------
# file helpers

def parse_model_file(path: str) -> tuple[Model, ValidationReport]:
    with open(path, encoding="utf-8") as fh:
        return parse_model_text(fh.read())


def parse_parts_file(path: str) -> list[StandardPartition]:
    with open(path, encoding="utf-8") as fh:
        return parse_parts_text(fh.read())


def parse_bounds_file(path: str) -> Bounds:
    with open(path, encoding="utf-8") as fh:
        return parse_bounds_text(fh.read())


def parse_pred_text(text: str) -> Predicate:
    """A bare predicate, used by CLI criterion selections."""
    return _whole(text, Parser.pred)


def parse_expr_text(text: str) -> Expr:
    return _whole(text, Parser.expr)


def _whole(text: str, parse):
    """`parse` of a parser over `text`, which it must read to the end."""
    p = Parser(text)
    out = parse(p)
    if p.tok[0] != "eof":
        raise p.fail("unexpected trailing input")
    return out
