"""Recursive-descent parser for the shared expression grammar.

    expr     := ('-')? term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := base ('^' exponent)?
    base     := rational | 'eps' | ident | '(' expr ')'
    exponent := ('-')? integer | '(' rational ')'
    rational := ('-')? integer ('/' positive-integer)?

Rational literals are lexed greedily ("3/2" is one literal, "3/x" a
division).  Variables are x1..xn or single letters.  Results are classified
as FieldElement (no variables), Polynomial (no variable denominator) or
RationalFunction; scalar division by a multi-term scalar truncates at the
working order, everything else stays exact.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from .errors import DivisionByZero, ParseError
from .poly import Polynomial, RationalFunction, variable_sort_key
from .series import _EXPONENT_DENOMINATOR_CAP, FieldElement

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|(eps\b)|([a-zA-Z]\d*)|([+\-*/^()]))")

INT, EPS, IDENT, OP, END = "int", "eps", "ident", "op", "end"
_KINDS = {2: EPS, 3: IDENT, 4: OP}  # token kind by the regex group that matched


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        group = m.lastindex
        val = m.group(group)
        tokens.append((INT, int(val), m.start(group)) if group == 1 else (_KINDS[group], val, m.start(group)))
        pos = m.end()
    tokens.append((END, None, len(text)))
    return tokens


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
    def __init__(self, tokens: list, frame: tuple[str, ...]):
        self.tokens = tokens
        self.i = 0
        self.frame = frame
        self.slots = {v: i for i, v in enumerate(frame)}

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        t = self.tokens[self.i]
        self.i += 1
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
        table = {}  # exponent vector -> {eps exponent: rational coefficient}
        others = []  # the other terms, as FieldElements and Polynomials
        polynomial = False  # whether a term has a variable
        first = True
        while True:
            mono = self._monomial()
            if mono is None:
                v = self.term()
                if negative:
                    v = self._neg(v)
                if isinstance(v, RationalFunction):
                    if not first:
                        a, b = _promote_pair(self._total(table, others, polynomial), v)
                        v = a + b
                    return self._pairwise(v)
                others.append(v)
                polynomial = polynomial or isinstance(v, Polynomial)
            else:
                expv, w, c, variables = mono
                polynomial = polynomial or variables
                if c:
                    coefficients = table.setdefault(expv, {})
                    coefficients[w] = coefficients.get(w, 0) + (-c if negative else c)
            if not self.at_op("+", "-"):
                return self._total(table, others, polynomial)
            negative = self.next()[1] == "-"
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
            known = tuple(sorted((w, c) for w, c in coefficients.items() if c))
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

    def _monomial(self):
        """(exponent vector, eps exponent, coefficient, has a variable) for a term
        that is a product of rational literals, powers of eps and non-negative
        integer powers of variables; otherwise None, with nothing consumed.

        Such a term is read straight into its one monomial.  Anything else, and
        any eps exponent whose denominator, or that of a partial product,
        exceeds the cap (the general path decides whether that raises
        ExponentBlowup), goes to the general path from the term's first token.
        """
        start = self.i
        tokens = self.tokens
        expv = [0] * len(self.frame)
        w, c, variables = _ZERO, _ONE, False
        while True:
            kind, val, pos = tokens[self.i]
            self.i += 1
            if kind == INT:
                q = self._finish_rational(val, pos)
                if self.at_op("^"):
                    break
                c *= q
            elif kind == EPS:
                e = _ONE
                if self.at_op("^"):
                    self.i += 1
                    e = self.exponent()
                w += e
                if e.denominator > _EXPONENT_DENOMINATOR_CAP or w.denominator > _EXPONENT_DENOMINATOR_CAP:
                    break
            elif kind == IDENT:
                variables = True
                slot = self.slots[val]
                if self.at_op("^"):
                    kind, e, _ = tokens[self.i + 1]
                    if kind != INT:
                        break
                    self.i += 2
                    expv[slot] += e
                else:
                    expv[slot] += 1
            else:
                break
            if self.at_op("*"):
                self.i += 1
            elif self.at_op("/"):
                break
            else:
                return tuple(expv), w, c, variables
        self.i = start
        return None

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
        if kind == INT:
            q = self._finish_rational(val, pos)
            return FieldElement.from_canonical(((_ZERO, q),) if q else ())
        if kind == EPS:
            return FieldElement.from_canonical(((_ONE, _ONE),))
        if kind == IDENT:
            return Polynomial.variable(val, self.frame)
        if kind == OP and val == "(":
            v = self.expr()
            self.expect_op(")")
            return v
        if kind == OP and val == "-":
            inner = self.base()
            return self._neg(inner)
        raise ParseError("expected a value", pos, expected={"integer", "eps", "variable", "("})

    def _finish_rational(self, intval: int, pos: int) -> Fraction:
        # Greedy: INT '/' INT is a rational literal.
        if self.at_op("/"):
            kind2, val2, _ = self.tokens[self.i + 1]
            if kind2 == INT:
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

    @staticmethod
    def _neg(v: Value) -> Value:
        return -v

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


def parse_expression(text: str) -> Value:
    """Parse text into a FieldElement, Polynomial or RationalFunction."""
    tokens = _tokenize(text)
    frame = tuple(sorted({val for kind, val, _ in tokens if kind == IDENT}, key=variable_sort_key))
    value = _Parser(tokens, frame).parse()
    if isinstance(value, FieldElement) and frame:
        value = Polynomial.constant(value, frame)
    return value

