"""Exception hierarchy shared by all rcvf modules."""

import sys


class RcvfError(Exception):
    """Base class for all library errors."""


class DivisionByZero(RcvfError, ZeroDivisionError):
    """Inversion of an exactly-zero element, or a denominator vanishing at a point."""


class PrecisionExhausted(RcvfError):
    """A sign/valuation/residue query on an element whose known terms all vanish.

    Raised instead of guessing: at finite precision an element with no visible
    terms may or may not be zero.
    """


class NegativeElement(RcvfError):
    """Square root of an element that is negative in the field order."""


class NonSquareLeadingCoefficient(RcvfError):
    """Square root whose leading rational coefficient has no rational square root."""


class NotIntegral(RcvfError):
    """Residue of an element with negative valuation."""


class ExponentBlowup(RcvfError):
    """An exponent denominator exceeded the configured cap."""


class UndefinedGauss(RcvfError):
    """Gauss valuation of a quotient with zero denominator polynomial."""


class NotInfinitesimalDefinite(RcvfError):
    """Infinitesimal decomposition requested for a function of non-positive Gauss valuation."""


class CoefficientsNotIntegral(RcvfError):
    """A polynomial required to have integral coefficients has one of negative valuation."""


class NumberTooLong(RcvfError):
    """A result holds an integer with more digits than the interpreter writes
    as text (sys.get_int_max_str_digits), so it has no canonical text."""

    def __init__(self):
        super().__init__(f"result has an integer longer than the output limit of "
                         f"{sys.get_int_max_str_digits()} digits")


class ParseError(RcvfError):
    """Expression text does not conform to the grammar.

    Attributes:
        position: character offset of the offending token.
        expected: tokens that would have been accepted there.
    """

    def __init__(self, message, position, expected=()):
        super().__init__(f"{message} at offset {position}" + (f" (expected {', '.join(sorted(expected))})" if expected else ""))
        self.position = position
        self.expected = frozenset(expected)
