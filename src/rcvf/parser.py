"""Recursive-descent parser for the shared expression grammar.

    expr     := ('-')? term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := base ('^' exponent)?
    base     := rational | 'eps' | ident | '(' expr ')' | '-' base
    exponent := ('-')? integer | '(' rational ')'
    rational := ('-')? integer ('/' positive-integer)?

Rational literals are lexed greedily ("3/2" is one literal, "3/x" a
division).  Variables are x1..xn or single letters; digits are ASCII only.
Results are classified as FieldElement (no variables), Polynomial (no
variable denominator) or RationalFunction; scalar division by a multi-term
scalar truncates at the working order, everything else stays exact.

A monomial term of a sum (c*eps^w*x1^a*...) is read by one regex match;
everything else goes through the recursive descent, which lexes a token at a
time and refuses parentheses nested deeper than _MAX_NESTING.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Union

from .errors import DivisionByZero, ParseError
from .poly import Polynomial, RationalFunction, variable_sort_key
from .series import _EXPONENT_DENOMINATOR_CAP, FieldElement

_TOKEN_RE = re.compile(r"\s*(?:([0-9]+)|(eps\b)|([a-zA-Z][0-9]*)|([+\-*/^()]))")
_STRAY_RE = re.compile(r"[^0-9a-zA-Z+\-*/^()\s]")  # a character that starts no token
_NAME_RE = re.compile(r"eps\b|[a-zA-Z][0-9]*")  # the tokens that name eps or a variable
_MAX_NESTING = 64  # parentheses open at once; deeper input is refused, not recursed into

INT, EPS, IDENT, OP, END = "int", "eps", "ident", "op", "end"
_KINDS = {2: EPS, 3: IDENT, 4: OP}  # token kind by the regex group that matched

# Before each factor of a monomial term but the first: '*'.  No factor follows a
# letter, digit or ')' directly, so no name matches part of a longer one (x1 of
# x12, eps of epsx): nothing could read the rest of it.
_JOIN = r"(?:\*|(?<![0-9a-zA-Z)]))"
_DENOMINATOR = r"(0*[1-9][0-9]*)"  # a zero one is left to the general path, which raises


def _term_regex(frame: tuple[str, ...]):
    """A monomial term c*eps^w*x1^a*... (factors optional, variables in frame
    order) and the '+' or '-' after it, or its end at ')' or the end of text.
    Groups: '-' and numerator and denominator of c; eps, its integer exponent or
    numerator and denominator; per variable '' or '^a'; the '+' or '-'."""
    return re.compile(
        r"\s*(?:(-)(?=[0-9])|(?=[0-9a-zA-Z]))(?:([0-9]+)(?:/" + _DENOMINATOR + r")?)?"
        r"(?:" + _JOIN + r"(eps)(?:\^(?:(-?[0-9]+)|\((-?[0-9]+)(?:/" + _DENOMINATOR + r")?\)))?)?"
        + "".join(r"(?:" + _JOIN + name + r"(\^[0-9]+|))?" for name in frame)
        + r"\s*(?:([+-])|(?=\)|\Z))")


# Parsed values are carried in one of three domains and promoted on demand.
Value = Union[FieldElement, Polynomial, RationalFunction]


def _is_scalar(v) -> bool:
    return isinstance(v, FieldElement)


def _promote_pair(a: Value, b: Value):
    ra = 0 if _is_scalar(a) else 1 if isinstance(a, Polynomial) else 2
    rb = 0 if _is_scalar(b) else 1 if isinstance(b, Polynomial) else 2
    rank = max(ra, rb)
    if rank == 0:
        return a, b
    frame = None
    for v in (a, b):
        if isinstance(v, Polynomial):
            frame = v.variables
        elif isinstance(v, RationalFunction):
            frame = v.variables
    def up(v):
        if _is_scalar(v):
            v = Polynomial.constant(v, frame)
        if rank == 2 and isinstance(v, Polynomial):
            v = RationalFunction(v)
        return v
    return up(a), up(b)


_ZERO, _ONE, _MINUS_ONE = Fraction(0), Fraction(1), Fraction(-1)


class _Parser:
    """Recursive descent over the text, lexing one token ahead on demand."""

    def __init__(self, text: str, frame: tuple[str, ...]):
        self.text = text
        self.frame = frame
        self.term_re = _term_regex(frame)
        self.pos = 0  # where the next token is lexed
        self.tok, self.after = None, 0  # the lexed next token, if any, and the offset after it
        self.depth = 0  # parentheses open

    def peek(self):
        if self.tok is None:
            m = _TOKEN_RE.match(self.text, self.pos)
            if m is None:  # only whitespace is left: parse_expression rejected stray characters
                self.tok, self.after = (END, None, len(self.text)), len(self.text)
            else:
                group = m.lastindex
                val = m.group(group)
                self.tok = (INT, int(val), m.start(group)) if group == 1 else (_KINDS[group], val, m.start(group))
                self.after = m.end()
        return self.tok

    def next(self):
        t = self.peek()
        self.pos, self.tok = self.after, None
        return t

    def expect_op(self, symbol: str):
        kind, val, pos = self.peek()
        if kind == OP and val == symbol:
            return self.next()
        raise ParseError("unexpected token", pos, expected={symbol})

    def at_op(self, *symbols) -> bool:
        kind, val, _ = self.peek()
        return kind == OP and val in symbols

    # -- grammar ---------------------------------------------------------

    def parse(self) -> Value:
        v = self.expr()
        kind, _, pos = self.peek()
        if kind != END:
            raise ParseError("trailing input", pos, expected={"end of input"})
        return v

    def expr(self) -> Value:
        """The sum of the terms, signs applied to each.

        Monomial terms go into one table in a single pass; the other terms are
        added to its total.  That regrouping keeps every value, since exact
        sums do not depend on grouping and a truncated sum keeps the least
        precision whatever the order.  Quotients are kept unreduced, so from
        the first quotient term on the sum proceeds pairwise, as written.
        """
        negative = self.at_op("-")
        if negative:
            self.next()
        table = {}  # exponent vector -> {eps exponent (an int if integral, to hash fast): coefficient}
        others = []  # the other terms, as FieldElements and Polynomials
        polynomial = False  # whether a term has a variable
        first = True
        while True:
            mono = self._monomial(negative)
            if mono is None:
                v = self.term()
                if negative:
                    v = -v
                if isinstance(v, RationalFunction):
                    if not first:
                        a, b = _promote_pair(self._total(table, others, polynomial), v)
                        v = a + b
                    return self._pairwise(v)
                others.append(v)
                polynomial = polynomial or isinstance(v, Polynomial)
                sign = self.next()[1] if self.at_op("+", "-") else None
            else:
                expv, w, c, variables, sign = mono
                polynomial = polynomial or variables
                if c:
                    coefficients = table.setdefault(expv, {})
                    old = coefficients.get(w)
                    coefficients[w] = c if old is None else old + c
            if sign is None:
                return self._total(table, others, polynomial)
            negative = sign == "-"
            first = False

    def _pairwise(self, v: Value) -> Value:
        """v plus the remaining terms, one at a time."""
        while self.at_op("+", "-"):
            _, op, _ = self.next()
            rhs = self.term()
            a, b = _promote_pair(v, rhs)
            v = a + b if op == "+" else a - b
        return v

    def _total(self, table: dict, others: list, polynomial: bool) -> Value:
        terms = {}
        for expv, coefficients in table.items():
            known = tuple(sorted((Fraction(w), c) for w, c in coefficients.items() if c))
            if known:
                terms[expv] = FieldElement.from_canonical(known)
        if polynomial:
            total = Polynomial.from_canonical(self.frame, terms)
        else:  # no term has a variable, so the one key is the zero vector
            total = terms.popitem()[1] if terms else FieldElement.from_canonical(())
        for v in others:
            a, b = _promote_pair(total, v)
            total = a + b
        return total

    def _monomial(self, negative: bool):
        """(exponent vector, eps exponent, coefficient with the term's sign, has
        a variable, the sign after the term or None) for a term that one match
        of the term regex reads, with the term and that sign consumed;
        otherwise None, with nothing consumed.

        Anything else, and an eps exponent whose denominator exceeds the cap
        (the general path decides whether that raises ExponentBlowup), goes to
        the general path from the term's first token.
        """
        m = self.term_re.match(self.text, self.pos)
        if m is None:
            return None
        minus, num, den, eps, e, e_num, e_den, *powers, sign = m.groups()
        if minus:  # '-' binds to the literal only: -x^2 is (-x)^2, so the regex takes no '-' before a letter
            negative = not negative
        if eps is None:
            w = 0
        elif e_den is None:
            w = int(e or e_num or 1)
        else:
            w = Fraction(int(e_num), int(e_den))
            if w.denominator > _EXPONENT_DENOMINATOR_CAP:
                return None
        if num is None:
            c = _MINUS_ONE if negative else _ONE
        else:
            n = -int(num) if negative else int(num)
            c = Fraction(n, int(den)) if den else Fraction(n)
        expv = tuple([0 if p is None else int(p[1:]) if p else 1 for p in powers])
        self.pos, self.tok = m.end(), None
        return expv, w, c, powers.count(None) < len(powers), sign

    def term(self) -> Value:
        v = self.factor()
        while self.at_op("*", "/"):
            _, op, _ = self.next()
            rhs = self.factor()
            if op == "*":
                a, b = _promote_pair(v, rhs)
                v = a * b
            else:
                v = self._divide(v, rhs)
        return v

    def factor(self) -> Value:
        base = self.base()
        if self.at_op("^"):
            _, _, caret_pos = self.next()
            e = self.exponent()
            return self._power(base, e, caret_pos)
        return base

    def base(self) -> Value:
        kind, val, pos = self.next()
        negative = False
        while kind == OP and val == "-":  # a run of signs, read in a loop: no recursion per sign
            negative = not negative
            kind, val, pos = self.next()
        if kind == INT:
            q = self._finish_rational(val, pos)
            v = FieldElement.from_canonical(((_ZERO, q),) if q else ())
        elif kind == EPS:
            v = FieldElement.from_canonical(((_ONE, _ONE),))
        elif kind == IDENT:
            v = Polynomial.variable(val, self.frame)
        elif kind == OP and val == "(":
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {_MAX_NESTING}", pos)
            v = self.expr()
            self.expect_op(")")
            self.depth -= 1
        else:
            raise ParseError("expected a value", pos, expected={"integer", "eps", "variable", "("})
        return -v if negative else v

    def _finish_rational(self, intval: int, pos: int) -> Fraction:
        # Greedy: INT '/' INT is a rational literal.
        if self.at_op("/"):
            m = _TOKEN_RE.match(self.text, self.after)
            if m is not None and m.lastindex == 1:
                self.next()
                _, den, dpos = self.next()
                if den == 0:
                    raise ParseError("zero denominator in rational literal", dpos)
                return Fraction(intval, den)
        return Fraction(intval)

    def exponent(self) -> Fraction:
        kind, val, pos = self.peek()
        if kind == INT:
            self.next()
            return Fraction(val)
        if kind == OP and val == "-":
            self.next()
            kind2, val2, pos2 = self.next()
            if kind2 != INT:
                raise ParseError("expected an integer exponent", pos2, expected={"integer"})
            return Fraction(-val2)
        if kind == OP and val == "(":
            self.next()
            neg = False
            if self.at_op("-"):
                self.next()
                neg = True
            kind2, num, pos2 = self.next()
            if kind2 != INT:
                raise ParseError("expected a rational exponent", pos2, expected={"integer"})
            num = Fraction(num)
            if self.at_op("/"):
                self.next()
                kind3, den, pos3 = self.next()
                if kind3 != INT or den == 0:
                    raise ParseError("expected a positive denominator", pos3, expected={"positive integer"})
                num = Fraction(num, den)
            self.expect_op(")")
            return -num if neg else num
        raise ParseError("expected an exponent", pos, expected={"integer", "("})

    # -- semantics ---------------------------------------------------------

    def _divide(self, a: Value, b: Value) -> Value:
        if _is_scalar(b):
            if b.is_exact_zero():
                raise DivisionByZero("division by zero")
            if len(b.terms) == 1 and b.precision is None:
                inv = b.invert()
                if _is_scalar(a):
                    return a * inv
                if isinstance(a, Polynomial):
                    return a.scale(inv)
                return a * RationalFunction.constant(inv, a.variables)
            if _is_scalar(a):
                return a / b  # truncating field division
            b = Polynomial.constant(b, a.variables)
        a2, b2 = _promote_pair(a, b)
        if isinstance(a2, Polynomial):
            a2, b2 = RationalFunction(a2), RationalFunction(b2)
        return a2 / b2

    def _power(self, base: Value, e: Fraction, pos: int) -> Value:
        if e.denominator == 1:
            n = e.numerator
            if _is_scalar(base):
                if n < 0 and base.is_exact_zero():
                    raise DivisionByZero("zero to a negative power")
                return base**n
            if isinstance(base, Polynomial):
                if n >= 0:
                    return base**n
                return RationalFunction(Polynomial.constant(1, base.variables), base ** (-n))
            return base**n
        if _is_scalar(base) and len(base.terms) == 1 and base.precision is None:
            (exp0, c0) = base.terms[0]
            croot = _rational_power(c0, e)
            if croot is not None:
                return FieldElement.eps_power(exp0 * e, croot)
        raise ParseError("fractional exponent needs an eps-monomial base with an exact rational root", pos)


def _rational_power(c: Fraction, e: Fraction):
    """c**e when the result is rational, else None."""
    if c == 1:
        return Fraction(1)
    if c <= 0:
        return None
    root = _nth_root(c.numerator, e.denominator)
    rootd = _nth_root(c.denominator, e.denominator)
    if root is None or rootd is None:
        return None
    base = Fraction(root, rootd)
    n = e.numerator
    return base**n if n >= 0 else 1 / base ** (-n)


def _nth_root(n: int, k: int):
    if n < 0:
        return None
    if n in (0, 1):
        return n
    lo, hi = 1, n
    while lo <= hi:
        mid = (lo + hi) // 2
        p = mid**k
        if p == n:
            return mid
        if p < n:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


def _refuse_long_number(text: str) -> None:
    """ParseError at the first run of digits (a literal, or a variable's index)
    over the interpreter's limit on integer conversion, where int() raises a
    ValueError; no-op without one.  Variable names are read first and literals
    in text order, so the first long run is the one that raised."""
    limit = sys.get_int_max_str_digits()
    long_run = limit and re.search(f"[0-9]{{{limit + 1},}}", text)
    if long_run:
        raise ParseError(f"number longer than {limit} digits", long_run.start()) from None


def parse_expression(text: str) -> Value:
    """Parse text into a FieldElement, Polynomial or RationalFunction."""
    stray = _STRAY_RE.search(text)
    if stray:
        raise ParseError(f"unexpected character {stray.group()!r}", stray.start())
    try:
        frame = tuple(sorted(set(_NAME_RE.findall(text)) - {"eps"}, key=variable_sort_key))
        value = _Parser(text, frame).parse()
    except ValueError:
        _refuse_long_number(text)
        raise
    if isinstance(value, FieldElement) and frame:
        value = Polynomial.constant(value, frame)
    return value

