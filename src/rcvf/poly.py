"""Multivariate polynomials and rational functions over the series field.

One sparse core serves two coefficient rings: :class:`Polynomial` has
:class:`FieldElement` coefficients, :class:`ResiduePolynomial` has exact
``Fraction`` ones (the residue polynomials of the SOS layer).  Exponent
vectors are tuples of non-negative ints keyed to an ordered variable tuple.
Rational functions are kept unreduced.  Equality of exact rational functions
is checked in the flat ring of :mod:`rcvf.rings`, where values are factored
quotients; equality of inexact ones is the cross-multiplication identity.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import partial
from math import lcm
from typing import Mapping, Sequence, Union

from .errors import DivisionByZero, UndefinedGauss
from .series import (
    GT,
    LT,
    TOP,
    FieldElement,
    ValueGroupElement,
    _check_exponent,
    compare_order,
    format_element,
    format_rational,
)

Scalar = Union[int, Fraction, FieldElement]

_VAR_RE = re.compile(r"^([a-zA-Z]+?)(\d*)$")


def variable_sort_key(name: str):
    """Natural order: x1 < x2 < x10; plain letters alphabetically."""
    m = _VAR_RE.match(name)
    if not m:
        return (name, -1)
    stem, digits = m.groups()
    return (stem, int(digits) if digits else -1)


def merge_variables(*frames: Sequence[str]) -> tuple[str, ...]:
    return tuple(sorted(set().union(*frames), key=variable_sort_key))


def _as_coeff(c: Scalar) -> FieldElement:
    if isinstance(c, FieldElement):
        return c
    return FieldElement.from_rational(c)


class _SparsePolynomial:
    """terms: exponent-vector -> nonzero coefficient, sorted by exponent vector.

    The one sparse-polynomial core; each subclass fixes the coefficient ring
    through ``_coeff`` (coercion of a scalar), ``_scalars`` (types taken as
    constants), ``_zero`` (the zero element), ``_is_zero`` and ``_is_one``
    (the exact-zero and exact-one tests).  The tests are per ring because
    series equality is only up to precision: ``c == 0`` would drop an
    ``O(eps^k)`` coefficient.
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

    @classmethod
    def from_canonical(cls, variables: tuple, terms: dict):
        """The polynomial with these terms, taken as they are.

        For callers whose terms are already canonical, the core's own sums and
        products first: exponent vectors are tuples of ints of the frame's
        arity, coefficients are of the ring and none is an exact zero.  Nothing
        is checked; only the order of the terms is restored.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "variables", variables)
        object.__setattr__(p, "terms", dict(sorted(terms.items())))
        return p

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, c, variables: Sequence[str] = ()):
        vs = tuple(variables)
        c = cls._coeff(c)
        return cls.from_canonical(vs, {} if cls._is_zero(c) else {(0,) * len(vs): c})

    @classmethod
    def variable(cls, name: str, variables: Sequence[str] | None = None):
        vs = tuple(variables) if variables is not None else (name,)
        if name not in vs:
            raise ValueError(f"{name} not among {vs}")
        return cls.from_canonical(vs, {tuple(1 if v == name else 0 for v in vs): cls._coeff(1)})

    def with_variables(self, variables: Sequence[str], names: Mapping[str, str] | None = None):
        """Re-embed into a larger variable frame (must contain the current one),
        each variable read through the name table names (name -> the name it
        reads as; see sets.name_table) first, if one is given; the polynomial
        itself where that changes nothing."""
        variables = tuple(variables)
        read = self.variables if names is None else tuple(names.get(v, v) for v in self.variables)
        if variables == read:
            return self if read == self.variables else self.from_canonical(variables, self.terms)
        idx = []
        for v in read:
            if v not in variables:
                raise ValueError(f"variable {v} missing from target frame {variables}")
            idx.append(variables.index(v))
        terms = {}
        for expv, c in self.terms.items():
            new = [0] * len(variables)
            for pos, e in zip(idx, expv):
                new[pos] = e
            terms[tuple(new)] = c
        return self.from_canonical(variables, terms)

    # -- queries --------------------------------------------------------------

    def is_exactly_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        """Whether this is exactly the constant 1 (an exact coefficient for series)."""
        if len(self.terms) != 1:
            return False
        (expv, c), = self.terms.items()
        return self._is_one(c) and not any(expv)

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

    def evaluate(self, point: Sequence):
        """Exact value at a point: each coefficient times ``x**e`` per coordinate."""
        if len(point) != len(self.variables):
            raise ValueError(f"point arity {len(point)} != {len(self.variables)}")
        return self._power_sum([self._coeff(x) for x in point], self._zero())

    def _power_sum(self, values: Sequence, total):
        """total plus each coefficient times ``values[i]**e`` per variable.

        The one loop that puts values into a polynomial: points (``evaluate``)
        and images (``Polynomial.substitute``).  The terms are multiplied and
        summed one monomial at a time, as written: regrouping them could let a
        cancellation raise a partial sum's precision and change the result.
        Each power ``values[i]**e`` is raised once per call and shared by the
        monomials that use it.
        """
        powers = {}
        for expv, c in self.terms.items():
            for i, e in enumerate(expv):
                if e:
                    xe = powers.get((i, e))
                    if xe is None:
                        xe = powers[(i, e)] = values[i] ** e
                    c *= xe
            total += c
        return total

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
        is_zero = self._is_zero
        terms = dict(a.terms)
        for e, c in b.terms.items():
            if e in terms:
                c = terms[e] + c
                if is_zero(c):
                    del terms[e]
                    continue
            terms[e] = c
        return self.from_canonical(a.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return self.from_canonical(self.variables, {e: -c for e, c in self.terms.items()})

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
        terms = {}
        get = terms.get
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(map(operator.add, e1, e2))
                c = get(e)
                terms[e] = c1 * c2 if c is None else c + c1 * c2
        is_zero = self._is_zero
        return self.from_canonical(a.variables, {e: c for e, c in terms.items() if not is_zero(c)})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial; use RationalFunction")
        if not n:
            return self.constant(1, self.variables)
        result, base = None, self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    # -- equality ---------------------------------------------------------------

    def __eq__(self, other) -> bool:
        a, b = self._aligned(other)
        if a is NotImplemented:
            return NotImplemented
        return (a - b).is_exactly_zero()

    __hash__ = None


class Polynomial(_SparsePolynomial):
    """Polynomial with FieldElement coefficients."""

    # _plan: the initial-form plan of sign and valuation queries (see _initial_form_plan),
    # built by the first one (terms never change).
    __slots__ = ("_plan",)
    _coeff = staticmethod(_as_coeff)
    _scalars = (int, Fraction, FieldElement)
    _zero = staticmethod(FieldElement.zero)
    _is_zero = staticmethod(FieldElement.is_exact_zero)
    _is_one = staticmethod(FieldElement.is_exact_one)

    # Bound in this class's own namespace so that per-class instrumentation
    # (perfbench/tracing.py) times Polynomial calls apart from residue ones.
    __add__ = __radd__ = _SparsePolynomial.__add__
    __mul__ = __rmul__ = _SparsePolynomial.__mul__
    evaluate = _SparsePolynomial.evaluate

    def scale(self, c: Scalar) -> "Polynomial":
        c = _as_coeff(c)
        return Polynomial(self.variables, {e: co * c for e, co in self.terms.items()})

    # -- substitution and valuation ----------------------------------------------

    def substitute(self, images: Sequence):
        """variable_i -> images[i]: Polynomials or RationalFunctions of one frame.

        The value is summed into the zero of the images' ring, so even a
        constant polynomial comes back as a Polynomial or a RationalFunction in
        the images' frame.  With no variables there are no images: self.
        """
        if len(images) != len(self.variables):
            raise ValueError("substitution arity mismatch")
        if not images:
            return self
        frame = images[0].variables
        zero = Polynomial(frame)
        if isinstance(images[0], RationalFunction):
            zero = RationalFunction(zero, Polynomial.constant(1, frame))
        return self._power_sum(images, zero)

    def gauss_valuation(self) -> ValueGroupElement:
        """Minimum coefficient valuation; TOP for the zero polynomial.

        A coefficient that is only O(eps^k) has a valuation of k or more, so
        the minimum is decided when a coefficient with a known term reaches the
        least lower bound; otherwise PrecisionExhausted is raised, as the first
        coefficient with no known term raises it.
        """
        if not self.terms:
            return TOP
        coeffs = self.terms.values()
        least = min(c.valuation_lower_bound() for c in coeffs)
        if not any(not c.is_visibly_zero() and c.valuation() == least for c in coeffs):
            next(c for c in coeffs if c.is_visibly_zero()).valuation()  # raises PrecisionExhausted
        return least

    def residue_shift(self, gamma: Fraction) -> "Polynomial":
        """Divide every coefficient by eps^gamma (exact): an exponent shift.

        Each term (e, c) becomes (e - gamma, c), and a truncated coefficient
        keeps its precision minus gamma.  As the product by eps^(-gamma) would,
        a gamma or a shifted exponent over the exponent-denominator cap raises
        ExponentBlowup.
        """
        _check_exponent(gamma)
        if not gamma:
            return self
        terms = {}
        for expv, c in self.terms.items():
            shifted = tuple((e - gamma, a) for e, a in c.terms)
            if c.precision is None:
                for e, _ in shifted:
                    _check_exponent(e)
                terms[expv] = FieldElement.from_canonical(shifted)
            else:
                terms[expv] = FieldElement(shifted, c.precision - gamma)
        return Polynomial.from_canonical(self.variables, terms)

    def without_slice(self, gamma: Fraction, monomials) -> "Polynomial":
        """self minus the eps^gamma term of its coefficient at each of monomials;
        a truncated coefficient keeps its precision."""
        terms = dict(self.terms)
        for expv in monomials:
            c = terms[expv]
            rest = tuple(t for t in c.terms if t[0] != gamma)
            if c.precision is not None:
                terms[expv] = FieldElement(rest, c.precision)
            elif rest:
                terms[expv] = FieldElement.from_canonical(rest)
            else:
                del terms[expv]
        return Polynomial.from_canonical(self.variables, terms)

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self)})"


class ResiduePolynomial(_SparsePolynomial):
    """Polynomial with exact rational coefficients (residue polynomials)."""

    __slots__ = ()
    _coeff = Fraction
    _scalars = (int, Fraction)
    _zero = Fraction
    _is_zero = staticmethod(operator.not_)
    _is_one = staticmethod(partial(operator.eq, 1))

    @classmethod
    def coordinate_square_sum(cls, variables: Sequence[str]) -> "ResiduePolynomial":
        vs = tuple(variables)
        return cls(vs, {tuple(2 if j == i else 0 for j in range(len(vs))): 1 for i in range(len(vs))})

    def lift(self, variables: Sequence[str], exponent: Fraction = Fraction(0)) -> Polynomial:
        """self over the series, each rational coefficient c as the exact c eps^exponent."""
        _check_exponent(exponent)
        return Polynomial.from_canonical(
            tuple(variables), {e: FieldElement.from_canonical(((exponent, c),)) for e, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "ResiduePolynomial(0)"
        bits = []
        for e, c in self.terms.items():
            mono = "*".join(f"{v}^{d}" for v, d in zip(self.variables, e) if d)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "ResiduePolynomial(" + " + ".join(bits) + ")"


def _times(a: _SparsePolynomial, b: _SparsePolynomial) -> _SparsePolynomial:
    """a * b, where a factor that is exactly 1 (most denominators) costs no product.

    The other factor is returned in its own frame; the sums and quotients
    that take it re-embed it as the product would have been.
    """
    if b.is_one():
        return a
    if a.is_one():
        return b
    return a * b


# The coefficient of every default denominator, built once by the trusted constructor.
_EXACT_ONE = FieldElement.from_canonical(((Fraction(0), Fraction(1)),))


class RationalFunction:
    """Unreduced quotient of polynomials; denominator not the zero polynomial."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        if den is None:
            den = Polynomial.from_canonical(num.variables, {(0,) * len(num.variables): _EXACT_ONE})
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

    def with_variables(self, variables: Sequence[str], names: Mapping[str, str] | None = None) -> "RationalFunction":
        """Numerator and denominator re-embedded (see Polynomial.with_variables);
        self where that changes neither."""
        num, den = self.num.with_variables(variables, names), self.den.with_variables(variables, names)
        return self if num is self.num and den is self.den else RationalFunction(num, den)

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
        return RationalFunction(_times(self.num, o.den) + _times(o.num, self.den), _times(self.den, o.den))

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
        return RationalFunction(self.num * o.num, _times(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.num.is_exactly_zero():
            raise DivisionByZero("division by the zero rational function")
        return RationalFunction(_times(self.num, o.den), _times(self.den, o.num))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o / self

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            return (RationalFunction.constant(1, self.variables) / self) ** (-n)
        return RationalFunction(self.num**n, self.den**n)

    def __eq__(self, other) -> bool:
        """Equality of the images in the flat ring when both sides are exact, else
        the cross-multiplication identity."""
        from .rings import FlatRing, NotFlat  # rings builds on this module

        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        ring = FlatRing.over(merge_variables(self.variables, o.variables))
        try:
            return ring(self) == ring(o)
        except NotFlat:
            return (_times(self.num, o.den) - _times(o.num, self.den)).is_exactly_zero()

    __hash__ = None

    def __str__(self) -> str:
        if self.den.is_constant():
            c = self.den.constant_value()
            # An exact 1 is read off its terms; a truncated one is 1 up to its precision.
            if c.is_exact_one() or (c.precision is not None and c == FieldElement.one()):
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
    """(v, a, r) for a series with a visible term: leading exponent and coefficient,
    and the exponent of its next known term or its precision (None if neither)."""
    v, a = x.terms[0]
    return v, a, x.terms[1][0] if len(x.terms) > 1 else x.precision


def _over(r, den: int) -> int:
    """The numerator of the rational r over den (a multiple of its denominator)."""
    return r.numerator * (den // r.denominator)


def _initial_form_plan(p: Polynomial):
    """p's initial-form plan, built by the first query (terms never change).

    (E, known, unknown): with L the lcm of the denominators of the
    coefficients' leading coefficients and E that of every exponent below,
    known holds (expv, positions, w*E, c*L, g*E) per monomial whose
    coefficient c eps^w + (from w + g on) has a visible term (g None if
    exact), positions being its (i, e) with e > 0; unknown holds
    (positions, k*E) per coefficient that is only O(eps^k).
    """
    try:
        return p._plan
    except AttributeError:
        pass
    known, unknown = [], []
    for expv, c in p.terms.items():
        positions = tuple((i, e) for i, e in enumerate(expv) if e)
        if c.terms:
            known.append((expv, positions, *_initial(c)))
        else:
            unknown.append((positions, c.precision))
    den = lcm(*(a.denominator for _, _, _, a, _ in known))
    unit = lcm(*(x.denominator for _, _, w, _, r in known for x in (w, r) if x is not None),
               *(k.denominator for _, k in unknown))
    known = tuple((expv, positions, _over(w, unit), _over(a, den), None if r is None else _over(r - w, unit))
                  for expv, positions, w, a, r in known)
    unknown = tuple((positions, _over(k, unit)) for positions, k in unknown)
    plan = (unit, known, unknown)
    object.__setattr__(p, "_plan", plan)
    return plan


def point_form(point: Sequence):
    """A point's integer initial form (D, coords), the input of the sign kernel.

    Per coordinate b_i = a_i eps^v_i + (terms from v_i + g_i on) with
    a_i = n_i/q_i: (v_i*D, n_i, q_i, g_i*D), D the lcm of the denominators of
    every v_i and g_i (g_i None if b_i has nothing after its leading term), or
    None for an exact zero.  None in place of the form if a coordinate has no
    visible term (it is only O(eps^k)): no initial form decides there.  Sampled
    points carry theirs from the draws (``SetDescriptor.stream_forms``).
    """
    coords = []  # (v, n, q, r) per coordinate, r its next exponent or its precision
    den = 1
    for x in point:
        if not isinstance(x, FieldElement):
            x = Fraction(x)
            coords.append((0, x.numerator, x.denominator, None) if x else None)
        elif x.terms:
            v, a, r = _initial(x)
            den = lcm(den, v.denominator, 1 if r is None else r.denominator)
            coords.append((v, a.numerator, a.denominator, r))
        elif x.precision is None:
            coords.append(None)
        else:
            return None
    return den, [None if x is None else
                 (_over(x[0], den), x[1], x[2], None if x[3] is None else _over(x[3] - x[0], den))
                 for x in coords]


def _leading_term(p: Polynomial, point: Sequence, form=None):
    """(m, s, P) with p(point) = (s/d) eps^m + O(eps^P) for some d > 0, s != 0 and
    m < P (P None if nothing else is there); None if the initial form does not decide.

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
    has no visible term) None is returned and the caller evaluates exactly.

    The point is read through its form (``point_form``), which a sampled point
    carries; without one it is derived here.  Exponents are compared as
    integers over one denominator, the lcm of the plan's and the form's.  S is
    summed in integers too: with a_i = n_i/q_i and T_i the largest exponent of
    variable i among the monomials at m,
    S = s/d for s = sum_t (c_t*L) * prod_i n_i^e_i * q_i^(T_i-e_i) and
    d = L * prod_i q_i^T_i, so s carries the sign of S and d is never formed.
    As building S eps^m would, an m over the exponent-denominator cap raises
    ExponentBlowup.  Terms above the leading one are never formed.
    """
    if len(point) != len(p.variables):
        raise ValueError(f"point arity {len(point)} != {len(p.variables)}")
    if form is None:
        form = point_form(point)
        if form is None:
            return None
    unit, known, unknown = _initial_form_plan(p)
    den, coords = form
    lifted = lcm(unit, den)  # every exponent below is over it
    up, den = lifted // den, lifted
    if up != 1:
        coords = [None if x is None else (x[0] * up, x[1], x[2], None if x[3] is None else x[3] * up)
                  for x in coords]
    scale = den // unit
    bound = None  # P, the least exponent at which anything but S eps^m can sit
    for positions, k in unknown:
        k *= scale
        for i, e in positions:
            x = coords[i]
            if x is None:
                break
            k += e * x[0]
        else:
            if bound is None or k < bound:
                bound = k
    m, at_m = None, []  # at_m: (exponent vector, c*L, least gap) of the monomials at m
    for expv, positions, low, c, gap in known:
        low *= scale
        if gap is not None:
            gap *= scale
        for i, e in positions:
            x = coords[i]
            if x is None:
                break
            v, _, _, g = x
            low += e * v
            if g is not None and (gap is None or g < gap):
                gap = g
        else:
            if m is None or low < m:
                if m is not None and (bound is None or m < bound):
                    bound = m
                m, at_m = low, [(expv, c, gap)]
            elif low == m:
                at_m.append((expv, c, gap))
            elif bound is None or low < bound:
                bound = low
    if m is None:
        return None
    for _, _, gap in at_m:
        if gap is not None and (bound is None or m + gap < bound):
            bound = m + gap
    if bound is not None and m >= bound:
        return None
    # a^e over the common denominator q^t, t the largest exponent at m of the
    # variable: n^e * q^(t-e).  A variable with t = 0 contributes nothing.
    tops = [max(column) for column in zip(*(expv for expv, _, _ in at_m))]
    s = 0
    for expv, c, _ in at_m:
        for x, e, t in zip(coords, expv, tops):
            if t:
                c *= x[1] ** e * x[2] ** (t - e)
        s += c
    if not s:
        return None
    m = Fraction(m, den)
    _check_exponent(m)
    return m, s, None if bound is None else Fraction(bound, den)


def leading_sign(p: Polynomial, point: Sequence, form=None) -> str:
    """``compare_order(p.evaluate(point), 0)``, read off the initial form when it
    decides; form is the point's ``point_form``, if the caller has it."""
    lead = _leading_term(p, point, form)
    if lead is None:
        return compare_order(p.evaluate(point), FieldElement.zero())
    return GT if lead[1] > 0 else LT


def valuation_at(q: Union[Polynomial, RationalFunction], point: Sequence[FieldElement],
                 form=None) -> ValueGroupElement:
    """Exact valuation of q(point), from the leading terms of numerator and denominator.

    A part whose initial form does not decide is evaluated exactly, so exact
    zeros and refusals (``PrecisionExhausted``) are those of the exact values.
    form is the point's ``point_form``, if the caller has it; otherwise it is
    derived once for both parts.
    """
    if form is None:
        form = point_form(point)
    values = []  # per part: its leading exponent when the initial form decides, else its exact value
    for part in (q,) if isinstance(q, Polynomial) else (q.num, q.den):
        lead = None if form is None else _leading_term(part, point, form)
        values.append(part.evaluate(point) if lead is None else lead[0])
    if len(values) == 2 and isinstance(values[1], FieldElement) and values[1].is_exact_zero():
        raise DivisionByZero("denominator vanishes at the point")
    num, *den = [v.valuation().value if isinstance(v, FieldElement) else v for v in values]
    return ValueGroupElement(num if not den or num is None else num - den[0])


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
    return v if e == 1 else f"{v}^{format_rational(e)}"


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
