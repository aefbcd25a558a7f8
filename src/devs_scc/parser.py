"""Lexer and recursive-descent parser for the model DSL.

Three file kinds share one token language: `.devs` models, `.parts`
standard-partition tables and `.bounds` enumeration bounds.  Unicode
math is accepted with ASCII fallbacks (/\\ \\/ ! => != <= >= infinity
tau div), comments run from -- to end of line, and every rejected input
carries at least one line:column diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import Bounds
from .check import validate_model
from .model import GuardedCase, Model, OperatorDef, StateSchema, ValidationReport
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
    subst_expr,
    subst_pred,
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
    TAU,
    TIME,
    Tup,
    TupleSort,
    Value,
    parse_number,
    v_neg,
)


@dataclass
class Diagnostic:
    """A message about the source text at a line and column."""
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


class ParseFailure(Exception):
    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


# ---------------------------------------------------------------------------
# lexer

_UNICODE = {
    "∧": "/\\",
    "∨": "\\/",
    "¬": "!",
    "⇒": "=>",
    "≠": "!=",
    "≤": "<=",
    "≥": ">=",
    "∞": "infinity",
    "τ": "tau",
    "÷": "div",
    "−": "-",
}

_TWO = {"/\\", "\\/", "=>", "!=", "<=", ">=", "->", ".."}
_ONE = set("{}(),;:=<>!+-*.|@")


@dataclass
class Token:
    """One lexical token and where it starts."""
    kind: str  # ident, number, string, sym, eof
    text: str
    line: int
    col: int


def lex(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(text)

    def push(kind: str, s: str, ln: int, cl: int) -> None:
        tokens.append(Token(kind, s, ln, cl))

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        ln, cl = line, col
        if c in _UNICODE:
            push("sym" if _UNICODE[c] not in ("infinity", "tau", "div") else "ident",
                 _UNICODE[c], ln, cl)
            i += 1
            col += 1
            continue
        if c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 1
            if j >= n:
                raise ParseFailure([Diagnostic(ln, cl, "unterminated string")])
            push("string", text[i + 1:j], ln, cl)
            col += j + 1 - i
            i = j + 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            elif j < n and text[j] == "/" and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            push("number", text[i:j], ln, cl)
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            push("ident", text[i:j], ln, cl)
            col += j - i
            i = j
            continue
        if text[i:i + 2] in _TWO:
            push("sym", text[i:i + 2], ln, cl)
            i += 2
            col += 2
            continue
        if c in _ONE:
            push("sym", c, ln, cl)
            i += 1
            col += 1
            continue
        raise ParseFailure([Diagnostic(ln, cl, f"unexpected character {c!r}")])
    tokens.append(Token("eof", "", line, col if tokens else 1))
    if not tokens[:-1]:
        tokens[-1] = Token("eof", "", 1, 1)
    return tokens


# ---------------------------------------------------------------------------
# parser core

# the token kinds that `at`, `accept` and `expect` match by their text
_WORD_KINDS = ("sym", "ident")


class Parser:
    def __init__(self, text: str):
        self.tokens = lex(text)
        self.pos = 0

    @property
    def tok(self) -> Token:
        return self.tokens[self.pos]

    def save(self) -> int:
        return self.pos

    def restore(self, mark: int) -> None:
        self.pos = mark

    def fail(self, message: str) -> ParseFailure:
        t = self.tok
        shown = t.text if t.kind != "eof" else "end of input"
        return ParseFailure([Diagnostic(t.line, t.col, f"{message}, found {shown!r}")])

    # `at`, `accept`, `expect`, `ident` and `number` run for nearly every
    # token, so each reads the current token once, not through `tok`

    def at(self, text: str) -> bool:
        t = self.tokens[self.pos]
        return t.text == text and t.kind in _WORD_KINDS

    def accept(self, text: str) -> bool:
        t = self.tokens[self.pos]
        if t.text == text and t.kind in _WORD_KINDS:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        t = self.tokens[self.pos]
        if t.text != text or t.kind not in _WORD_KINDS:
            raise self.fail(f"expected {text!r}")
        self.pos += 1
        return t

    def ident(self, what: str = "identifier") -> str:
        t = self.tokens[self.pos]
        if t.kind != "ident":
            raise self.fail(f"expected {what}")
        self.pos += 1
        return t.text

    def number(self) -> Rational:
        t = self.tokens[self.pos]
        if t.kind != "number":
            raise self.fail("expected number")
        try:
            value = parse_number(t.text)
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
        if self.tok.kind == "ident" and self.tok.text in aliases:
            return aliases[self.ident()]
        raise self.fail("expected a sort")

    # ---- expressions -------------------------------------------------------

    def expr(self) -> Expr:
        e = self._mul()
        while self.at("+") or self.at("-"):
            op = self.tok.text
            self.pos += 1
            e = BinOp(op, e, self._mul())
        return e

    def _mul(self) -> Expr:
        e = self._unary()
        while self.at("*") or self.at("div"):
            op = self.tok.text
            self.pos += 1
            e = BinOp(op, e, self._unary())
        return e

    def _unary(self) -> Expr:
        if self.accept("-"):
            arg = self._unary()
            if isinstance(arg, Const) and isinstance(arg.value, Num):
                return Const(v_neg(arg.value))
            return Neg(arg)
        return self._postfix()

    def _postfix(self) -> Expr:
        e = self._primary()
        while self.at("."):
            self.pos += 1
            idx = self.number()
            if idx.denominator != 1 or idx < 1:
                raise self.fail("projection index must be a positive integer")
            e = Proj(e, int(idx))
        return e

    def _primary(self) -> Expr:
        if self.tok.kind == "number":
            return Const(Num(self.number()))
        if self.accept("infinity"):
            return Const(INF)
        if self.accept("tau"):
            return Const(TAU)
        if self.accept("min"):
            self.expect("(")
            args = self.listed(self.expr, ")")
            if len(args) < 2:
                raise self.fail("min needs at least two arguments")
            return MinOp(tuple(args))
        if self.tok.kind == "ident":
            name = self.ident()
            if self.accept("("):
                return Apply(name, tuple(self.listed(self.expr, ")")))
            return Ref(name)
        if self.accept("("):
            items = self.listed(self.expr, ")")
            return items[0] if len(items) == 1 else TupleExpr(tuple(items))
        raise self.fail("expected an expression")

    # ---- predicates --------------------------------------------------------

    def pred(self) -> Predicate:
        left = self._or()
        if self.accept("=>"):
            return Implies(left, self.pred())
        return left

    def _or(self) -> Predicate:
        items = [self._and()]
        while self.accept("\\/"):
            items.append(self._and())
        return items[0] if len(items) == 1 else Or(tuple(items))

    def _and(self) -> Predicate:
        items = [self._punary()]
        while self.accept("/\\"):
            items.append(self._punary())
        return items[0] if len(items) == 1 else And(tuple(items))

    def _punary(self) -> Predicate:
        if self.accept("!"):
            return Not(self._punary())
        if self.accept("true"):
            return TRUE
        if self.accept("false"):
            return FALSE
        if self.at("("):
            mark = self.save()
            self.pos += 1
            try:
                inner = self.pred()
                self.expect(")")
            except ParseFailure:
                self.restore(mark)
            else:
                if not (self.tok.kind == "sym" and self.tok.text in ("=", "!=", "<", "<=", ">", ">=", ".")) \
                        and not self.at("in"):
                    return inner
                self.restore(mark)
        return self._atom()

    def _atom(self) -> Predicate:
        left = self.expr()
        if self.accept("in"):
            if self.accept("nat"):
                return InBase(left)
            self.expect("{")
            return InSet(left, tuple(self.listed(lambda: self.ident("literal"), "}")))
        for op in ("!=", "<=", ">=", "=", "<", ">"):
            if self.accept(op):
                return Cmp(op, left, self.expr())
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
        elif p.at("dext") or p.at("dint") or p.at("lambda"):
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
            *((fn, bodies.get(fn)) for fn in ("dext", "dint", "lambda")),
        )
        if val is None
    ]
    if missing:
        raise ParseFailure(
            [Diagnostic(p.tok.line, p.tok.col, "missing sections: " + ", ".join(missing))]
        )

    model = Model(
        name=name,
        schema=schema,
        input_sort=input_sort,
        output_sort=output_sort,
        delta_ext=bodies["dext"],
        delta_int=bodies["dint"],
        output_fn=bodies["lambda"],
        ta=ta,
        constants=tuple(constants),
        operators=tuple(operators),
    )
    return validate_model(model)


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
        body = subst_expr(p.expr(), lets)
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
        lets[lname] = subst_expr(p.expr(), lets)
        p.expect(";")
    return lets


def _parse_cases(p: Parser, lets: dict[str, Expr]) -> list[GuardedCase]:
    """Guarded cases, numbered from 1, with the `let` names substituted."""
    cases: list[GuardedCase] = []
    while p.at("case") or p.at("otherwise"):
        otherwise = p.ident() == "otherwise"
        guard = TRUE if otherwise else subst_pred(p.pred(), lets)
        p.expect("->")
        result = subst_expr(p.expr(), lets)
        p.expect(";")
        cases.append(GuardedCase(len(cases) + 1, guard, result, otherwise))
    return cases


# ---------------------------------------------------------------------------
# partition tables

def parse_parts_text(text: str) -> list[StandardPartition]:
    p = Parser(text)
    tables: list[StandardPartition] = []
    while not p.tok.kind == "eof":
        p.expect("partition")
        if p.tok.kind != "string":
            raise p.fail("expected a quoted partition name")
        name = p.tok.text
        p.pos += 1
        p.expect("(")
        formals = p.listed(lambda: p.ident("operand name"), ")")
        p.expect("{")
        cells: list[Predicate] = []
        while not p.at("}"):
            cells.append(p.pred())
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
    if p.tok.kind == "ident":
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

    start = p.tok
    expr = p.expr()
    try:
        v = eval_expr(expr, dict(b.const_values))
    except EvalError as err:
        raise ParseFailure([Diagnostic(start.line, start.col, str(err))]) from None
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
    if p.tok.kind != "eof":
        raise p.fail("unexpected trailing input")
    return out
