"""Exact parser for the polynomial text grammar used by the CLI.

Grammar (whitespace ignored, case-insensitive variable names):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor | factor)*      -- adjacency = '*'
    factor  := ('+' | '-')* atom ('^' INT)?
    atom    := INT | 'i' | VAR | '(' expr ')'
    VAR     := 'z' INT   (1-based variable index)
    list    := expr? (',' expr?)*                         -- for --ideal

Coefficients such as ``1/2``, ``2i``, ``(1/2)i`` or ``(3+2i)`` all parse
exactly; division is only allowed by a constant.  No floating-point literals
are accepted: parsing is exact or it is an error.  Errors carry 1-based
line/column positions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .algebra import G_I, GaussianRational, GradedPolynomial
from .errors import ParseError

_OPS = set("+-*/^(),")


class _Token(NamedTuple):
    kind: str  # 'int' | 'var' | 'i' | op character | 'end'
    text: str
    pos: int


def _line_col(text: str, pos: int) -> tuple[int, int]:
    line = text.count("\n", 0, pos) + 1
    last_nl = text.rfind("\n", 0, pos)
    col = pos - last_nl if last_nl >= 0 else pos + 1
    return line, col


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], i))
            i = j
            continue
        if ch in "iI" and (i + 1 >= n or not text[i + 1].isdigit()):
            tokens.append(_Token("i", "i", i))
            i += 1
            continue
        if ch in "zZ":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                line, col = _line_col(text, i)
                raise ParseError("variable name needs an index, e.g. z1", line, col)
            tokens.append(_Token("var", text[i:j], i))
            i = j
            continue
        line, col = _line_col(text, i)
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, m: int):
        self.text = text
        self.m = m
        self.tokens = _tokenize(text)
        self.k = 0

    def _error(self, message: str, tok: _Token) -> ParseError:
        line, col = _line_col(self.text, tok.pos)
        return ParseError(message, line, col)

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def advance(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def parse(self) -> GradedPolynomial:
        poly = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise self._error(f"unexpected {tok.text!r}", tok)
        return poly

    def parse_list(self) -> list[GradedPolynomial]:
        """Polynomials between top-level commas, empty entries skipped."""
        out = []
        while True:
            if self.peek().kind not in (",", "end"):
                out.append(self.expr())
            tok = self.advance()
            if tok.kind == "end":
                return out
            if tok.kind != ",":
                raise self._error(f"unexpected {tok.text!r}", tok)

    def expr(self) -> GradedPolynomial:
        acc = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            acc = acc + rhs if op.kind == "+" else acc - rhs
        return acc

    def term(self) -> GradedPolynomial:
        acc = self.factor()
        while True:
            tok = self.peek()
            if tok.kind in ("*", "/"):
                self.advance()
                rhs = self.factor()
                if tok.kind == "*":
                    acc = acc * rhs
                else:
                    acc = self._divide(acc, rhs, tok)
            elif tok.kind in ("int", "var", "i", "("):
                acc = acc * self.factor()  # implicit multiplication
            else:
                return acc

    def _divide(
        self, num: GradedPolynomial, den: GradedPolynomial, tok: _Token
    ) -> GradedPolynomial:
        if den.degree not in (0, None):
            raise self._error("division only by a nonzero constant", tok)
        c = den.coefficient((0,) * self.m)
        if not c:
            raise self._error("division by zero", tok)
        return num.scale(GaussianRational.of(1) / c)

    def factor(self) -> GradedPolynomial:
        sign = 1
        while self.peek().kind in ("+", "-"):
            if self.advance().kind == "-":
                sign = -sign
        base = self.atom()
        if self.peek().kind == "^":
            self.advance()
            tok = self.peek()
            if tok.kind != "int":
                raise self._error("exponent must be a nonnegative integer", tok)
            self.advance()
            e = int(tok.text)
            out = GradedPolynomial.constant(self.m, 1)
            for _ in range(e):
                out = out * base
            base = out
        return base if sign == 1 else -base

    def atom(self) -> GradedPolynomial:
        tok = self.advance()
        if tok.kind == "int":
            return GradedPolynomial.constant(self.m, Fraction(int(tok.text)))
        if tok.kind == "i":
            return GradedPolynomial.constant(self.m, G_I)
        if tok.kind == "var":
            idx = int(tok.text[1:])
            if not 1 <= idx <= self.m:
                raise self._error(
                    f"variable {tok.text} out of range for m={self.m}", tok
                )
            return GradedPolynomial.variable(self.m, idx - 1)
        if tok.kind == "(":
            inner = self.expr()
            closing = self.advance()
            if closing.kind != ")":
                raise self._error("expected ')'", closing)
            return inner
        raise self._error(
            "expected a number, variable, 'i' or '('"
            if tok.kind == "end"
            else f"unexpected {tok.text!r}",
            tok,
        )


def parse_polynomial(text: str, m: int) -> GradedPolynomial:
    """Parse ``text`` into an exact polynomial in m variables."""
    return _Parser(text, m).parse()


def parse_polynomial_list(text: str, m: int) -> list[GradedPolynomial]:
    """Parse a comma-separated list (--ideal); error positions are in the whole text."""
    return _Parser(text, m).parse_list()
