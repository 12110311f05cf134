"""Truncated Puiseux series in ``eps`` with rational coefficients and exponents.

The scalar domain is the ordered valued field of finite rational-exponent
series over the rationals, with ``eps`` a positive infinitesimal.  Every
element carries an explicit precision: terms with exponent >= ``precision``
are unknown (``precision is None`` means the element is exact).  Addition,
subtraction and multiplication of exact elements stay exact; inversion and
square roots of non-monomials truncate at the working order
(:func:`working_truncation`).

Sign, valuation and residue queries never guess: an element whose known
terms all vanish at finite precision raises :class:`PrecisionExhausted`.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from math import ceil, isqrt
from typing import Iterator, Optional, Union

from .errors import (
    DivisionByZero,
    ExponentBlowup,
    NegativeElement,
    NonSquareLeadingCoefficient,
    NotIntegral,
    NumberTooLong,
    PrecisionExhausted,
)

Rational = Union[int, Fraction]

_TRUNCATION: ContextVar[Fraction] = ContextVar("rcvf_truncation", default=Fraction(32))
_EXPONENT_DENOMINATOR_CAP = 64


@contextmanager
def working_truncation(order: Rational) -> Iterator[None]:
    """Truncate inversion and square roots at relative order ``order`` inside the block.

    The order is held in a context variable, so it holds for this thread (or
    task) only and is restored on exit.
    """
    order = Fraction(order)
    if order <= 0:
        raise ValueError("truncation order must be positive")
    token = _TRUNCATION.set(order)
    try:
        yield
    finally:
        _TRUNCATION.reset(token)


def default_truncation() -> Fraction:
    """The working relative precision used when inversion/sqrt must truncate."""
    return _TRUNCATION.get()


def rational_sqrt(q: Fraction) -> Optional[Fraction]:
    """Exact square root of a non-negative rational, or None if irrational."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


class ValueGroupElement:
    """An element of the value group (a rational), or TOP = valuation of zero.

    TOP compares strictly greater than every rational value and absorbs
    addition.
    """

    __slots__ = ("value",)

    def __init__(self, value: Optional[Rational]):
        self.value = None if value is None else Fraction(value)

    @property
    def is_top(self) -> bool:
        return self.value is None

    def __eq__(self, other) -> bool:
        try:
            other = _coerce_gamma(other)
        except TypeError:
            return NotImplemented
        return self.value == other.value

    def __lt__(self, other) -> bool:
        other = _coerce_gamma(other)
        if self.is_top:
            return False
        if other.is_top:
            return True
        return self.value < other.value

    def __le__(self, other) -> bool:
        other = _coerce_gamma(other)
        return self == other or self < other

    def __gt__(self, other) -> bool:
        return _coerce_gamma(other) < self

    def __ge__(self, other) -> bool:
        return _coerce_gamma(other) <= self

    def __add__(self, other) -> "ValueGroupElement":
        other = _coerce_gamma(other)
        if self.is_top or other.is_top:
            return TOP
        return ValueGroupElement(self.value + other.value)

    __radd__ = __add__

    def __sub__(self, other) -> "ValueGroupElement":
        other = _coerce_gamma(other)
        if other.is_top:
            raise ValueError("cannot subtract TOP")
        if self.is_top:
            return TOP
        return ValueGroupElement(self.value - other.value)

    def __neg__(self) -> "ValueGroupElement":
        if self.is_top:
            raise ValueError("cannot negate TOP")
        return ValueGroupElement(-self.value)

    def __hash__(self):
        return hash(self.value)

    def __str__(self) -> str:
        return "TOP" if self.is_top else format_rational(self.value)

    def __repr__(self) -> str:
        return f"ValueGroupElement({self})"


def _coerce_gamma(x) -> ValueGroupElement:
    if isinstance(x, ValueGroupElement):
        return x
    if isinstance(x, (int, Fraction)):
        return ValueGroupElement(x)
    raise TypeError(f"cannot compare value-group element with {type(x).__name__}")


TOP = ValueGroupElement(None)

# Order verdicts for compare_order.
LT, EQ, GT = "LT", "EQ", "GT"


def _check_exponent(e: Fraction) -> None:
    if e.denominator > _EXPONENT_DENOMINATOR_CAP:
        raise ExponentBlowup(f"exponent denominator {e.denominator} exceeds cap {_EXPONENT_DENOMINATOR_CAP}")


class FieldElement:
    """A truncated Puiseux series: sorted (exponent, coefficient) terms plus precision.

    Invariants: exponents strictly increasing; no zero coefficients; every
    listed exponent < precision (when the precision is finite).
    """

    __slots__ = ("terms", "precision")

    def __init__(self, terms=(), precision: Optional[Rational] = None):
        prec = None if precision is None else Fraction(precision)
        merged: dict[Fraction, Fraction] = {}
        for e, c in terms:
            e, c = Fraction(e), Fraction(c)
            merged[e] = merged.get(e, Fraction(0)) + c
        kept = []
        for e in sorted(merged):
            c = merged[e]
            if c == 0:
                continue
            if prec is not None and e >= prec:
                continue
            _check_exponent(e)
            kept.append((e, c))
        object.__setattr__(self, "terms", tuple(kept))
        object.__setattr__(self, "precision", prec)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(q: Rational) -> "FieldElement":
        q = Fraction(q)
        return FieldElement(((Fraction(0), q),) if q != 0 else ())

    @staticmethod
    def eps_power(e: Rational, coeff: Rational = 1) -> "FieldElement":
        c = Fraction(coeff)
        return FieldElement(((Fraction(e), c),) if c != 0 else ())

    @staticmethod
    def from_canonical(terms: tuple) -> "FieldElement":
        """The exact element with these terms, taken as they are.

        For callers whose terms are already canonical: a tuple of
        ``(Fraction, Fraction)`` pairs, exponents strictly increasing and within
        the exponent-denominator cap, coefficients non-zero.  Nothing is checked.
        """
        x = object.__new__(FieldElement)
        object.__setattr__(x, "terms", terms)
        object.__setattr__(x, "precision", None)
        return x

    @staticmethod
    def zero() -> "FieldElement":
        return FieldElement()

    @staticmethod
    def one() -> "FieldElement":
        return FieldElement.from_rational(1)

    # -- structure queries -------------------------------------------------

    def is_exact_zero(self) -> bool:
        return not self.terms and self.precision is None

    def is_exact_one(self) -> bool:
        return self.precision is None and len(self.terms) == 1 and self.terms[0] == (0, 1)

    def is_visibly_zero(self) -> bool:
        """No known terms; may still be nonzero below a finite precision."""
        return not self.terms

    def leading(self) -> tuple[Fraction, Fraction]:
        """Leading (exponent, coefficient); raises if none is visible."""
        if self.terms:
            return self.terms[0]
        if self.precision is None:
            raise DivisionByZero("element is exactly zero")
        raise PrecisionExhausted(f"no visible term below precision {self.precision}")

    def valuation_lower_bound(self) -> ValueGroupElement:
        """A sound lower bound for the valuation, never raising."""
        if self.terms:
            return ValueGroupElement(self.terms[0][0])
        if self.precision is None:
            return TOP
        return ValueGroupElement(self.precision)

    def valuation(self) -> ValueGroupElement:
        """Leading exponent; TOP for exact zero; raises PrecisionExhausted otherwise."""
        if self.terms:
            return ValueGroupElement(self.terms[0][0])
        if self.precision is None:
            return TOP
        raise PrecisionExhausted(f"valuation unknown below precision {self.precision}")

    def residue(self) -> Fraction:
        """Coefficient of eps^0 for an integral element; raises NotIntegral below O_K."""
        v = self.valuation()
        if v < 0:
            raise NotIntegral(f"valuation {v} < 0")
        for e, c in self.terms:
            if e == 0:
                return c
            if e > 0:
                break
        return Fraction(0)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            return other
        if isinstance(other, (int, Fraction)):
            return FieldElement.from_rational(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        prec = _min_precision(self.precision, other.precision)
        return FieldElement(self.terms + other.terms, prec)

    __radd__ = __add__

    def __neg__(self) -> "FieldElement":
        return FieldElement(tuple((e, -c) for e, c in self.terms), self.precision)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_exact_zero() or other.is_exact_zero():
            return FieldElement()
        # Unknown part: self * O(eps^p_b) + O(eps^p_a) * other; neither operand
        # is exact zero here, so the valuation lower bounds are rational.
        prec = None
        if self.precision is not None:
            prec = _min_precision(prec, self.precision + other.valuation_lower_bound().value)
        if other.precision is not None:
            prec = _min_precision(prec, other.precision + self.valuation_lower_bound().value)
        terms = []
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                terms.append((e1 + e2, c1 * c2))
        return FieldElement(terms, prec)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "FieldElement":
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer; use sqrt/eps_power for fractional powers")
        if n < 0:
            return self.invert() ** (-n)
        result = FieldElement.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def invert(self) -> "FieldElement":
        """Multiplicative inverse, truncated at the working order when needed."""
        e0, c0 = self.leading()
        return self._binomial(FieldElement.eps_power(-e0, Fraction(1) / c0), Fraction(-1))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.invert()

    def __rtruediv__(self, other):
        return FieldElement.from_rational(other) / self

    def sqrt(self) -> "FieldElement":
        """Square root; requires a non-negative element with square leading rational."""
        if self.is_exact_zero():
            return FieldElement()
        cmp = compare_order(self, FieldElement.zero())
        if cmp == LT:
            raise NegativeElement("element is negative in the field order")
        e0, c0 = self.leading()
        root = rational_sqrt(c0)
        if root is None:
            raise NonSquareLeadingCoefficient(f"{c0} has no rational square root")
        return self._binomial(FieldElement.eps_power(e0 / 2, root), Fraction(1, 2))

    def _binomial(self, lead: "FieldElement", alpha: Fraction) -> "FieldElement":
        """lead * (1+u)^alpha, self = c0 eps^e0 (1+u) with a visible leading term.

        u has strictly positive valuation; the binomial series
        sum binom(alpha, k) u^k runs at relative order rel, so intermediate term
        counts stay bounded, and the result is known below eps^(shift + rel),
        shift the exponent of lead.  For alpha = -1 every coefficient is 1 once
        u is negated.
        """
        e0, c0 = self.terms[0]
        tail = FieldElement(self.terms[1:], self.precision)
        if tail.is_exact_zero():
            return lead
        rel = (self.precision - e0) if self.precision is not None else _TRUNCATION.get()
        u = _clamp(tail * FieldElement.eps_power(-e0, 1 / c0), rel)
        inverse = alpha == -1
        if inverse:
            u = -u
        acc = power = FieldElement.one()
        coeff = Fraction(1)
        # u is clamped, so never exact: v(u^k) = k*v(u) below rel, and u^k is
        # past rel from the first k with k*v(u) >= rel on.
        for k in range(1, ceil(rel / u.valuation_lower_bound().value)):
            power = _clamp(power * u, rel)
            if inverse:
                acc = acc + power
            else:
                coeff = coeff * (alpha - (k - 1)) / k
                acc = acc + power * coeff
        result = acc * lead
        return FieldElement(result.terms, _min_precision(result.precision, lead.terms[0][0] + rel))

    # -- order -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        """Agreement up to the combined precision (exact equality for exact elements)."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).is_visibly_zero()

    __hash__ = None  # semantic equality is precision-relative; not hashable

    def __lt__(self, other) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return compare_order(self, o) == LT

    def __le__(self, other) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return compare_order(self, o) in (LT, EQ)

    def __gt__(self, other) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return compare_order(self, o) == GT

    def __ge__(self, other) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return compare_order(self, o) in (GT, EQ)

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        tail = "" if self.precision is None else f" + O(eps^{self.precision})"
        return f"<{format_element(self)}{tail}>"


def _min_precision(a: Optional[Fraction], b: Optional[Fraction]) -> Optional[Fraction]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _clamp(x: FieldElement, precision: Fraction) -> FieldElement:
    """Drop information beyond a working precision (series-loop internals only)."""
    return FieldElement(x.terms, _min_precision(x.precision, precision))


def compare_order(a: FieldElement, b: FieldElement) -> str:
    """Order verdict LT/EQ/GT for a vs b; eps is a positive infinitesimal.

    Raises PrecisionExhausted when a-b has no visible term at finite precision.
    """
    d = a - b
    if d.terms:
        return GT if d.terms[0][1] > 0 else LT
    if d.precision is None:
        return EQ
    raise PrecisionExhausted(f"difference indistinguishable from zero below precision {d.precision}")


def field_arith(op: str, a: FieldElement, b: FieldElement) -> FieldElement:
    """Named arithmetic entry point: op in {'add','sub','mul'}."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise ValueError(f"unknown op {op!r}")


def valuation(a: FieldElement) -> ValueGroupElement:
    return a.valuation()


def residue(a: FieldElement) -> Fraction:
    return a.residue()


def invert(a: FieldElement) -> FieldElement:
    return a.invert()


def sqrt(a: FieldElement) -> FieldElement:
    return a.sqrt()


# -- canonical rendering ----------------------------------------------------


def format_rational(q: Rational) -> str:
    """Canonical text of a rational, n or n/d as str(Fraction) writes it.

    Writing an integer past sys.get_int_max_str_digits() raises ValueError,
    the only one formatting can meet; it becomes NumberTooLong.
    """
    try:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    except ValueError:
        raise NumberTooLong() from None


def _format_exponent(e: Fraction) -> str:
    return format_rational(e) if e.denominator == 1 else f"({format_rational(e)})"


def _format_term(e: Fraction, c: Fraction) -> str:
    if e == 0:
        return format_rational(c)
    eps = "eps" if e == 1 else f"eps^{_format_exponent(e)}"
    if c == 1:
        return eps
    return f"{format_rational(c)}*{eps}"


def format_element(a: FieldElement) -> str:
    """Canonical text for an element; parses back to the same exact terms."""
    if not a.terms:
        return "0"
    parts = [_format_term(*a.terms[0])]
    for e, c in a.terms[1:]:
        if c > 0:
            parts.append(f" + {_format_term(e, c)}")
        else:
            parts.append(f" - {_format_term(e, -c)}")
    return "".join(parts)
