"""Recursive-descent parser for polynomial text.

Grammar (whitespace insignificant):

    expression := ('+'|'-')? term (('+'|'-') term)*
    term       := coefficient ('*' factor)* | factor ('*' factor)*
    factor     := variable ('^' integer)?
    variable   := 'x' integer
    coefficient:= integer | integer '/' integer

Variables are x0..x{nvars-1}.  The optional leading sign is accepted so
that every canonical printout (which may open with a negative term over Q)
parses back to the same polynomial.  Coefficients are reduced into the
field, so '5' over F_3 means 2 and '1/2' over F_7 means 4.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import DivisionByZero, ParseError, UnknownVariable, require_memory
from .fields import FieldSpec
from .poly import Monomial, Polynomial

_TOKEN = re.compile(r"\s*(?:(x[0-9]+)|([0-9]+)|([+\-*/^])|(\S))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        var, num, op, bad = m.groups()
        start = m.end() - len(m.group().lstrip())
        if bad is not None:
            raise ParseError(f"unexpected character {bad!r}", start)
        if var is not None:
            tokens.append(("var", var, start))
        elif num is not None:
            tokens.append(("int", num, start))
        else:
            tokens.append(("op", op, start))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, nvars: int, field: FieldSpec):
        self.tokens = _tokenize(text)
        self.index = 0
        self.nvars = nvars
        self.field = field

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect_int(self) -> tuple[int, int]:
        kind, text, pos = self.advance()
        if kind != "int":
            raise ParseError(f"expected an integer, found {text or 'end of input'!r}", pos)
        return int(text), pos

    def parse(self) -> Polynomial:
        pairs = []
        negate = False
        kind, text, pos = self.peek()
        if kind == "op" and text in "+-":
            self.advance()
            negate = text == "-"
        while True:
            monomial, coeff = self.term()
            pairs.append((monomial, -coeff if negate else coeff))
            kind, text, pos = self.peek()
            if kind == "end":
                return Polynomial.from_terms(self.field, self.nvars, pairs)
            if kind == "op" and text in "+-":
                self.advance()
                negate = text == "-"
                continue
            raise ParseError(f"expected '+' or '-', found {text!r}", pos)

    def term(self) -> tuple[Monomial, int | Fraction]:
        kind, text, pos = self.peek()
        exponents = [0] * self.nvars
        if kind == "int":
            coeff = self.coefficient()
        elif kind == "var":
            coeff = 1
            self.factor(exponents)
        else:
            raise ParseError(f"expected a term, found {text or 'end of input'!r}", pos)
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text == "*":
                self.advance()
                self.factor(exponents)
            else:
                return tuple(exponents), coeff

    def coefficient(self) -> int | Fraction:
        """The coefficient's value; Polynomial.from_terms reduces it."""
        num, pos = self.expect_int()
        kind, text, _ = self.peek()
        if kind == "op" and text == "/":
            self.advance()
            den, dpos = self.expect_int()
            if den == 0:
                raise ParseError("zero denominator", dpos)
            try:
                return self.field.scalar(Fraction(num, den)).value
            except DivisionByZero:
                raise ParseError(
                    f"denominator {den} is not invertible in {self.field}", dpos
                ) from None
        return num

    def factor(self, exponents: list[int]) -> None:
        kind, text, pos = self.advance()
        if kind != "var":
            raise ParseError(f"expected a variable, found {text or 'end of input'!r}", pos)
        index = int(text[1:])
        if index >= self.nvars:
            raise UnknownVariable(
                f"variable {text} outside x0..x{self.nvars - 1}", pos
            )
        exp = 1
        kind, op, _ = self.peek()
        if kind == "op" and op == "^":
            self.advance()
            exp, _ = self.expect_int()
        exponents[index] += exp


def parse_poly(text: str, nvars: int, field: FieldSpec) -> Polynomial:
    """Parse polynomial text into canonical form; ParseError has a position.

    Each term is read into a list of nvars exponents and kept as a tuple
    of them: ResourceLimit, before anything is allocated, when that list
    and tuple alone pass the memory budget (require_memory)."""
    if nvars < 1:
        raise ParseError("need at least one variable", None)
    slot = sys.getsizeof((0,)) - sys.getsizeof(())
    require_memory(sys.getsizeof([]) + sys.getsizeof(()) + 2 * slot * nvars, f"a term in {nvars} variables")
    return _Parser(text, nvars, field).parse()
