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
from functools import lru_cache
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


@lru_cache(maxsize=128)
def _term_regex(frame: tuple[str, ...]):
    """A monomial term c*eps^w*x1^a*... (factors optional, variables in frame
    order) and the '+' or '-' after it, or its end at ')' or the end of text.
    Groups: '-' and numerator and denominator of c; eps, its integer exponent or
    numerator and denominator; per variable '' or '^a'; the '+' or '-'.
    Compiled once per frame: the pattern is the only thing kept between parses."""
    return re.compile(
        r"\s*(?:(-)(?=[0-9])|(?=[0-9a-zA-Z]))(?:([0-9]+)(?:/" + _DENOMINATOR + r")?)?"
        r"(?:" + _JOIN + r"(eps)(?:\^(?:(-?[0-9]+)|\((-?[0-9]+)(?:/" + _DENOMINATOR + r")?\)))?)?"
        + "".join(r"(?:" + _JOIN + name + r"(\^[0-9]+|))?" for name in frame)
        + r"\s*(?:([+-])|(?=\)|\Z))")


class _Exact(dict):
    """Small ints -> their Fractions, built once; any other int as a new
    Fraction, and a Fraction as itself."""

    def __missing__(self, q):
        return q if isinstance(q, Fraction) else Fraction(q)


class _Powers(dict):
    """A variable's group of the term regex -> its exponent: None (absent) 0,
    '' 1, '^k' k; small powers built once."""

    def __missing__(self, power):
        return int(power[1:])


_FRACTIONS = _Exact((k, Fraction(k)) for k in range(-64, 65))
_POWERS = _Powers({None: 0, "": 1, **{f"^{k}": k for k in range(65)}})


def _eps_fraction(num: str, den: str):
    """The eps exponent num/den, None past the exponent-denominator cap (the
    general path decides whether that raises ExponentBlowup)."""
    w = Fraction(int(num), int(den))
    return None if w.denominator > _EXPONENT_DENOMINATOR_CAP else w


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


_ZERO, _ONE = Fraction(0), Fraction(1)


class _Parser:
    """Recursive descent over the text, lexing one token ahead on demand."""

    def __init__(self, text: str, frame: tuple[str, ...]):
        self.text = text
        self.frame = frame
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

        Monomial terms go into one table in a single pass: one match of the
        frame's term regex each, its ints, one Fraction and one insert.  An
        eps exponent is kept as read, an int or (off the integers) a Fraction.
        Every other term, and an eps exponent whose denominator exceeds the
        cap, goes to the general path from the term's first token; its value
        is added to the table's total.  That regrouping keeps every value,
        since exact sums do not depend on grouping and a truncated sum keeps
        the least precision whatever the order.  Quotients are kept
        unreduced, so from the first quotient term on the sum proceeds
        pairwise, as written.
        """
        negative = self.at_op("-")
        if negative:
            self.next()
        self.tok = None  # the table's pass reads from self.pos; the general path lexes afresh
        table = {}  # exponent vector -> {eps exponent as read: coefficient}
        others = []  # the other terms, as FieldElements and Polynomials
        polynomial = False  # whether a term has a variable
        first = True
        match, text, absent = _term_regex(self.frame).match, self.text, (None,) * len(self.frame)
        power = _POWERS.__getitem__
        while True:
            m = match(text, self.pos)
            if m is not None:
                g = m.groups()  # see _term_regex
                w = 0 if g[3] is None else int(g[4] or g[5] or 1) if g[6] is None else _eps_fraction(g[5], g[6])
                if w is None:
                    m = None
            if m is None:
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
                n = int(g[1]) if g[1] else 1
                # A '-' before the literal flips the term's sign; '-' binds to the
                # literal only: -x^2 is (-x)^2, so the regex takes no '-' before a letter.
                if negative != (g[0] is not None):
                    n = -n
                c = Fraction(n, int(g[2])) if g[2] else _FRACTIONS[n]
                powers = g[7:-1]
                expv = tuple(map(power, powers))
                polynomial = polynomial or powers != absent
                at = table.get(expv)
                if at is None:
                    table[expv] = {w: c}
                else:
                    at[w] = at[w] + c if w in at else c
                self.pos = m.end()
                sign = g[-1]
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
        """The table's sum plus the other terms.  Each eps exponent turns into
        its Fraction once, the exponents of a coefficient sorted as read."""
        terms = {}
        for expv, at in table.items():
            if len(at) == 1:
                [(w, c)] = at.items()
                if c:
                    terms[expv] = FieldElement.from_canonical(((_FRACTIONS[w], c),))
            else:
                known = tuple([(_FRACTIONS[w], c) for w, c in sorted(at.items()) if c])
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

