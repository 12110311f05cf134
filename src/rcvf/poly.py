"""Multivariate polynomials and rational functions over the series field.

One sparse core serves two coefficient rings: :class:`Polynomial` has
:class:`FieldElement` coefficients, :class:`ResiduePolynomial` has exact
``Fraction`` ones (the residue polynomials of the SOS layer).  Exponent
vectors are tuples of non-negative ints keyed to an ordered variable tuple.
Rational functions are kept unreduced; equality is the cross-multiplication
identity.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import reduce
from math import lcm
from typing import Mapping, Sequence, Union

from .errors import DivisionByZero, UndefinedGauss
from .series import TOP, FieldElement, ValueGroupElement, _min_precision, format_element

Scalar = Union[int, Fraction, FieldElement]

_VAR_RE = re.compile(r"^([a-zA-Z]+?)(\d*)$")


def variable_sort_key(name: str):
    """Natural order: x1 < x2 < x10; plain letters alphabetically."""
    m = _VAR_RE.match(name)
    if not m:
        return (name, -1)
    stem, digits = m.groups()
    return (stem, int(digits) if digits else -1)


def merge_variables(a: Sequence[str], b: Sequence[str]) -> tuple[str, ...]:
    return tuple(sorted(set(a) | set(b), key=variable_sort_key))


def _as_coeff(c: Scalar) -> FieldElement:
    if isinstance(c, FieldElement):
        return c
    return FieldElement.from_rational(c)


class _SparsePolynomial:
    """terms: exponent-vector -> nonzero coefficient, sorted by exponent vector.

    The one sparse-polynomial core; each subclass fixes the coefficient ring
    through ``_coeff`` (coercion of a scalar), ``_scalars`` (types taken as
    constants), ``_zero`` (the zero element) and ``_is_zero`` (the exact-zero
    test).  The test is per ring because series equality is only up to
    precision: ``c == 0`` would drop an ``O(eps^k)`` coefficient.  Each
    subclass also supplies its own ``evaluate`` kernel.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms=()):
        variables = tuple(variables)
        coeff, is_zero = self._coeff, self._is_zero
        clean = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for expv, c in items:
            expv = tuple(int(e) for e in expv)
            if len(expv) != len(variables):
                raise ValueError(f"exponent vector {expv} does not match arity {len(variables)}")
            if any(e < 0 for e in expv):
                raise ValueError("polynomial exponents must be non-negative")
            c = coeff(c)
            if expv in clean:
                c = clean[expv] + c
            if is_zero(c):
                clean.pop(expv, None)
            else:
                clean[expv] = c
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", dict(sorted(clean.items())))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, c, variables: Sequence[str] = ()):
        vs = tuple(variables)
        return cls(vs, {(0,) * len(vs): c})

    @classmethod
    def variable(cls, name: str, variables: Sequence[str] | None = None):
        vs = tuple(variables) if variables is not None else (name,)
        if name not in vs:
            raise ValueError(f"{name} not among {vs}")
        return cls(vs, {tuple(1 if v == name else 0 for v in vs): 1})

    def with_variables(self, variables: Sequence[str]):
        """Re-embed into a larger variable frame (must contain the current one)."""
        variables = tuple(variables)
        idx = []
        for v in self.variables:
            if v not in variables:
                raise ValueError(f"variable {v} missing from target frame {variables}")
            idx.append(variables.index(v))
        terms = {}
        for expv, c in self.terms.items():
            new = [0] * len(variables)
            for pos, e in zip(idx, expv):
                new[pos] = e
            terms[tuple(new)] = c
        return type(self)(variables, terms)

    # -- queries --------------------------------------------------------------

    def is_exactly_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in expv) for expv in self.terms)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        for c in self.terms.values():
            return c
        return self._zero()

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def max_degrees(self) -> tuple[int, ...]:
        out = [0] * len(self.variables)
        for e in self.terms:
            for i, d in enumerate(e):
                out[i] = max(out[i], d)
        return tuple(out)

    def _exponents(self) -> tuple[tuple[int, ...], ...]:
        """Per variable, the distinct exponents that occur in the terms, ascending."""
        if not self.terms:
            return ((),) * len(self.variables)
        return tuple(tuple(sorted(set(column))) for column in zip(*self.terms))

    # -- arithmetic -------------------------------------------------------------

    def _aligned(self, other):
        if isinstance(other, self._scalars):
            other = self.constant(other, self.variables)
        if not isinstance(other, type(self)):
            if isinstance(other, _SparsePolynomial):
                raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
            return NotImplemented, NotImplemented
        if self.variables == other.variables:
            return self, other
        vs = merge_variables(self.variables, other.variables)
        return self.with_variables(vs), other.with_variables(vs)

    def __add__(self, other):
        a, b = self._aligned(other)
        if a is NotImplemented:
            return NotImplemented
        return type(self)(a.variables, list(a.terms.items()) + list(b.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        a, b = self._aligned(other)
        if a is NotImplemented:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._aligned(other)
        if a is NotImplemented:
            return NotImplemented
        terms = []
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                terms.append((tuple(x + y for x, y in zip(e1, e2)), c1 * c2))
        return type(self)(a.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial; use RationalFunction")
        result = self.constant(1, self.variables)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- equality ---------------------------------------------------------------

    def __eq__(self, other) -> bool:
        a, b = self._aligned(other)
        if a is NotImplemented:
            return NotImplemented
        return (a - b).is_exactly_zero()

    __hash__ = None


class Polynomial(_SparsePolynomial):
    """Polynomial with FieldElement coefficients."""

    __slots__ = ()
    _coeff = staticmethod(_as_coeff)
    _scalars = (int, Fraction, FieldElement)
    _zero = staticmethod(FieldElement.zero)
    _is_zero = staticmethod(FieldElement.is_exact_zero)

    # Bound in this class's own namespace so that per-class instrumentation
    # (perfbench/tracing.py) times Polynomial calls apart from residue ones.
    __add__ = __radd__ = _SparsePolynomial.__add__
    __mul__ = __rmul__ = _SparsePolynomial.__mul__

    def evaluate(self, point: Sequence) -> FieldElement:
        """Exact value at a point; each power of a coordinate that occurs is built once.

        x^e is the product of the squares x^(2^k) over the set bits k of e, and a
        coordinate's squares are shared by all its exponents: O(log e) products
        per power, as ``x**e`` takes, and none for powers that do not occur.  A
        truncated product's precision, min_i(p_i + sum_{j!=i} v_j), is symmetric
        in the factors, so these powers equal ``x**e`` term for term and
        precision for precision.  The terms are multiplied and summed one
        monomial at a time, as written: regrouping them could let a cancellation
        raise a partial sum's precision and change the result.
        """
        if len(point) != len(self.variables):
            raise ValueError(f"point arity {len(point)} != {len(self.variables)}")
        rows = []
        for x, exps in zip(point, self._exponents()):
            squares, row = [_as_coeff(x)], {}
            for e in exps:
                if e:
                    while 1 << len(squares) <= e:
                        squares.append(squares[-1] * squares[-1])
                    row[e] = reduce(operator.mul, [sq for k, sq in enumerate(squares) if e >> k & 1])
            rows.append(row)
        total = FieldElement.zero()
        for expv, c in self.terms.items():
            for row, e in zip(rows, expv):
                if e:
                    c *= row[e]
            total += c
        return total

    def coefficient(self, expv: tuple[int, ...]) -> FieldElement:
        return self.terms.get(tuple(expv), FieldElement.zero())

    def scale(self, c: Scalar) -> "Polynomial":
        c = _as_coeff(c)
        return Polynomial(self.variables, {e: co * c for e, co in self.terms.items()})

    def scale_coefficients(self, f) -> "Polynomial":
        """Apply an exact map to every coefficient (used for eps-power shifts)."""
        return Polynomial(self.variables, {e: f(c) for e, c in self.terms.items()})

    # -- substitution and valuation ----------------------------------------------

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Polynomial substitution variable_i -> images[i] (images share one frame)."""
        if len(images) != len(self.variables):
            raise ValueError("substitution arity mismatch")
        if not images:
            return self
        frame = images[0].variables
        acc = Polynomial(frame)
        for expv, c in self.terms.items():
            term = Polynomial.constant(c, frame)
            for img, e in zip(images, expv):
                for _ in range(e):
                    term = term * img
            acc = acc + term
        return acc

    def substitute_rational(self, images: Sequence["RationalFunction"]) -> "RationalFunction":
        """Substitution by rational functions, exactly, via common denominators."""
        if len(images) != len(self.variables):
            raise ValueError("substitution arity mismatch")
        if not images:
            return RationalFunction(self, Polynomial.constant(1, self.variables))
        frame = images[0].num.variables
        acc = RationalFunction(Polynomial(frame), Polynomial.constant(1, frame))
        for expv, c in self.terms.items():
            term = RationalFunction(Polynomial.constant(c, frame), Polynomial.constant(1, frame))
            for img, e in zip(images, expv):
                for _ in range(e):
                    term = term * img
            acc = acc + term
        return acc

    def gauss_valuation(self) -> ValueGroupElement:
        """Minimum coefficient valuation; TOP for the zero polynomial."""
        if not self.terms:
            return TOP
        best: ValueGroupElement | None = None
        for c in self.terms.values():
            v = c.valuation()
            if best is None or v < best:
                best = v
        return best

    def residue_shift(self, gamma: Fraction) -> "Polynomial":
        """Divide every coefficient by eps^gamma (exact)."""
        shift = FieldElement.eps_power(-gamma)
        return self.scale_coefficients(lambda c: c * shift)

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self)})"


class ResiduePolynomial(_SparsePolynomial):
    """Polynomial with exact rational coefficients (residue polynomials)."""

    # _plan: (L, ((expv, c*L), ...), _exponents()) with L the lcm of the
    # coefficient denominators, built by the first evaluate (terms never change).
    __slots__ = ("_plan",)
    _coeff = Fraction
    _scalars = (int, Fraction)
    _zero = Fraction
    _is_zero = staticmethod(operator.not_)

    @classmethod
    def coordinate_square_sum(cls, variables: Sequence[str]) -> "ResiduePolynomial":
        vs = tuple(variables)
        return cls(vs, {tuple(2 if j == i else 0 for j in range(len(vs))): 1 for i in range(len(vs))})

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact value at a rational point, in integers over one common denominator.

        With x_i = n_i/q_i and D_i the largest exponent of variable i, the value
        is sum_t (c_t*L) * prod_i n_i^e_i * q_i^(D_i-e_i) over L * prod_i q_i^D_i;
        only the exponents that occur are raised.
        """
        if len(point) != len(self.variables):
            raise ValueError(f"point arity {len(point)} != {len(self.variables)}")
        try:
            den, numerators, exponents = self._plan
        except AttributeError:
            den = lcm(*(c.denominator for c in self.terms.values()))
            numerators = tuple((e, c.numerator * (den // c.denominator)) for e, c in self.terms.items())
            exponents = self._exponents()
            object.__setattr__(self, "_plan", (den, numerators, exponents))
        rows = []
        for x, exps in zip(point, exponents):
            x = Fraction(x)
            n, q = x.numerator, x.denominator
            d = exps[-1] if exps else 0
            # row[e] = n^e * q^(d-e): x^e over the common denominator q^d.
            rows.append({e: n**e * q ** (d - e) for e in exps})
            den *= q**d
        total = 0
        for expv, c in numerators:
            for row, e in zip(rows, expv):
                c *= row[e]
            total += c
        return Fraction(total, den)

    def __repr__(self):
        if not self.terms:
            return "ResiduePolynomial(0)"
        bits = []
        for e, c in self.terms.items():
            mono = "*".join(f"{v}^{d}" for v, d in zip(self.variables, e) if d)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "ResiduePolynomial(" + " + ".join(bits) + ")"


class RationalFunction:
    """Unreduced quotient of polynomials; denominator not the zero polynomial."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        if den is None:
            den = Polynomial.constant(1, num.variables)
        if den.is_exactly_zero():
            raise DivisionByZero("zero denominator polynomial")
        if num.variables != den.variables:
            vs = merge_variables(num.variables, den.variables)
            num, den = num.with_variables(vs), den.with_variables(vs)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @staticmethod
    def constant(c: Scalar, variables: Sequence[str] = ()) -> "RationalFunction":
        return RationalFunction(Polynomial.constant(c, variables))

    @property
    def variables(self) -> tuple[str, ...]:
        return self.num.variables

    def with_variables(self, variables: Sequence[str]) -> "RationalFunction":
        return RationalFunction(self.num.with_variables(variables), self.den.with_variables(variables))

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Polynomial):
            return RationalFunction(other)
        if isinstance(other, (int, Fraction, FieldElement)):
            return RationalFunction(Polynomial.constant(other, self.variables))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.num.is_exactly_zero():
            raise DivisionByZero("division by the zero rational function")
        return RationalFunction(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o / self

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            return (RationalFunction.constant(1, self.variables) / self) ** (-n)
        return RationalFunction(self.num**n, self.den**n)

    def substitute_rational(self, images: Sequence["RationalFunction"]) -> "RationalFunction":
        return self.num.substitute_rational(images) / self.den.substitute_rational(images)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self.num * o.den - o.num * self.den).is_exactly_zero()

    __hash__ = None

    def __str__(self) -> str:
        if self.den.is_constant() and self.den.constant_value() == FieldElement.one():
            return format_polynomial(self.num)
        return f"({format_polynomial(self.num)})/({format_polynomial(self.den)})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


def poly_eval(q: Union[Polynomial, RationalFunction], point: Sequence[FieldElement]) -> FieldElement:
    """Exact evaluation; quotients raise DivisionByZero on vanishing denominators."""
    if isinstance(q, Polynomial):
        return q.evaluate(point)
    num = q.num.evaluate(point)
    den = q.den.evaluate(point)
    if den.is_exact_zero():
        raise DivisionByZero("denominator vanishes at the point")
    return num / den


def _initial(x: FieldElement):
    """(v, a, g) for a series with a visible term: leading exponent and coefficient,
    and the distance to its next known term or to its precision (None if exact)."""
    v, a = x.terms[0]
    if len(x.terms) > 1:
        return v, a, x.terms[1][0] - v
    return v, a, None if x.precision is None else x.precision - v


def leading_value(p: Polynomial, point: Sequence) -> FieldElement:
    """p(point) up to its leading term, read off the initial form; exactly if need be.

    With b_i = a_i eps^v_i + (terms from v_i + g_i on) and each coefficient
    c_t = c eps^w_t + (from w_t + g_t on), every monomial is
    c a^e eps^L_t + (from L_t + its least gap on), L_t = w_t + sum_i e_i v_i.
    Monomials with a positive power of an exactly zero coordinate vanish.  Let
    m be the least L_t, S the sum of c a^e over the monomials with L_t = m, and
    P the least of: L_t of every other monomial, m plus the least gap of each
    monomial at m, and k + sum_i e_i v_i for each coefficient that is only
    O(eps^k).  Every part of p(point) other than S eps^m lies at P or above, so
    if S != 0 and m < P the value is S eps^m + O(eps^P), and its sign and
    valuation are the exact ones.  Otherwise (the initial form cancels, an
    O(eps^k) coefficient reaches m, every monomial vanishes, or a coordinate
    has no visible term) the exact ``p.evaluate(point)`` is returned, so exact
    zeros and refusals (``PrecisionExhausted`` on the queries) are those of
    the exact value.  Terms above the leading one are never formed.
    """
    if len(point) != len(p.variables):
        raise ValueError(f"point arity {len(point)} != {len(p.variables)}")
    coords = []  # (v, a, g) per coordinate; None for an exact zero
    for x in point:
        if not isinstance(x, FieldElement):
            x = Fraction(x)
            coords.append((0, x, None) if x else None)
        elif x.terms:
            coords.append(_initial(x))
        elif x.precision is None:
            coords.append(None)
        else:
            return p.evaluate(point)
    bound = None  # P, the least exponent at which anything but S eps^m can sit
    initial = []  # (L_t, least gap, leading coefficient, exponent vector)
    for expv, c in p.terms.items():
        shift, gap = 0, None
        for e, x in zip(expv, coords):
            if e:
                if x is None:
                    break
                v, _, g = x
                if v:
                    shift += e * v
                gap = _min_precision(gap, g)
        else:
            if not c.terms:
                bound = _min_precision(bound, c.precision + shift)
                continue
            w, lead, g = _initial(c)
            initial.append((w + shift, _min_precision(gap, g), lead, expv))
    if not initial:
        return p.evaluate(point)
    m = min(t[0] for t in initial)
    total = 0
    for low, gap, lead, expv in initial:
        if low != m:
            bound = _min_precision(bound, low)
            continue
        if gap is not None:
            bound = _min_precision(bound, m + gap)
        for e, x in zip(expv, coords):
            if e:
                lead *= x[1] ** e
        total += lead
    if total and (bound is None or m < bound):
        return FieldElement(((m, total),), bound)
    return p.evaluate(point)


def valuation_at(q: Union[Polynomial, RationalFunction], point: Sequence[FieldElement]) -> ValueGroupElement:
    """Exact valuation of q(point), from the leading terms of numerator and denominator."""
    if isinstance(q, Polynomial):
        return leading_value(q, point).valuation()
    num = leading_value(q.num, point)
    den = leading_value(q.den, point)
    if den.is_exact_zero():
        raise DivisionByZero("denominator vanishes at the point")
    return num.valuation() - den.valuation()


def gauss_valuation(q: Union[Polynomial, RationalFunction]) -> ValueGroupElement:
    """Min coefficient valuation for polynomials; num minus den for quotients."""
    if isinstance(q, Polynomial):
        return q.gauss_valuation()
    if q.den.is_exactly_zero():
        raise UndefinedGauss("zero denominator polynomial")
    den_g = q.den.gauss_valuation()
    if den_g.is_top:
        raise UndefinedGauss("zero denominator polynomial")
    return q.num.gauss_valuation() - den_g


# -- canonical rendering -------------------------------------------------------


def _format_power(v: str, e: int) -> str:
    return v if e == 1 else f"{v}^{e}"


def format_polynomial(p: Polynomial) -> str:
    """Canonical text, graded-lex descending; parses back to the same polynomial."""
    if not p.terms:
        return "0"
    keys = sorted(p.terms, key=lambda ev: (sum(ev), ev), reverse=True)
    parts = []
    for expv in keys:
        c = p.terms[expv]
        monos = [_format_power(v, e) for v, e in zip(p.variables, expv) if e]
        if len(c.terms) == 1 and c.precision is None:
            coeff_txt = format_element(c)
            wrap = False
        else:
            coeff_txt = f"({format_element(c)})"
            wrap = True
        if not monos:
            parts.append(coeff_txt)
        elif not wrap and coeff_txt == "1":
            parts.append("*".join(monos))
        else:
            parts.append(coeff_txt + "*" + "*".join(monos))
    return " + ".join(parts)
