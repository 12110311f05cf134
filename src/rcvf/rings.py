"""The ring exact identities are checked and denoted in.

:class:`FlatRing` maps exact rational functions over the series field into
Q[eps^Q][x], the group algebra of the value group Q over the rationals,
where every certificate identity and the equality of exact rational
functions are checked.  A ring is what its three operations give: the image
of a value (``__call__``), an image built once and handed out again
(``once``), and the sum of images (``sum``); everything denoted in it is
built from these and the images' own ``+ * / **`` and ``==``.  A ring maps
each distinct value once and reads each variable name through one table,
name -> coordinate, as it maps the value.  Its values are factored quotients
(:class:`FlatQuotient`): products concatenate factors, a sum of any number
of values multiplies out only what their denominators do not share, and
equality cancels the non-zero factors the two sides share before it
cross-multiplies the rest.  Inexact data has no image there.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import DivisionByZero
from .poly import Polynomial, RationalFunction, ResiduePolynomial, _times
from .series import FieldElement

# The eps slot of a flat frame: the parser never reads "eps" as a variable name.
FLAT_EPS = "eps"


class NotFlat(Exception):
    """A value has no image in a flat ring: an inexact coefficient, or a
    variable outside its frame."""


def holds(identity) -> bool:
    """identity(), False where a value it maps has no image in its flat ring."""
    try:
        return identity()
    except NotFlat:
        return False


class FlatRing:
    """Exact rational functions over the series field as quotients in Q[eps^Q][x].

    An exact coefficient sum_j a_j eps^(w_j) maps to itself, each exponent
    w_j in the eps slot of an exponent vector: an int when w_j is an
    integer (ints add faster; an int and an equal Fraction are one key),
    else the Fraction, so exponent vectors add as the exponents of eps do,
    and may be negative or of any denominator there.  The map is an
    injective ring homomorphism, so an exact identity holds in one ring
    exactly when it holds in the other, and products here build no series.
    Images are factored quotients (:class:`FlatQuotient`) over the frame
    (FLAT_EPS, *coordinates).

    names is a table name -> coordinate, or a sequence of names, each its own
    coordinate.  The ring reads each name of a value through the table as it
    maps the value, so no value is copied; a name outside it, or eps, has no
    image.

    A ring keeps the image of each polynomial and scalar it maps, and of each
    ring expression denoted in it (see once), keyed by the object: p and the h.den
    a decode reads from the same text are one object, mapped once.  A ring
    lives for one verification and serves each of its identities.
    """

    __slots__ = ("variables", "_slots", "_images")

    def __init__(self, names):
        if isinstance(names, dict):
            frame = tuple(dict.fromkeys(names.values()))
        else:
            frame = tuple(names)
            names = dict(zip(frame, frame))
        self.variables = (FLAT_EPS,) + frame
        self._slots = {name: frame.index(v) + 1 for name, v in names.items() if name != FLAT_EPS}
        self._images = {}  # id of a value mapped here -> (the value, its image)

    @classmethod
    def over(cls, names) -> "FlatRing":
        """The flat ring over names.  Every ring an identity runs in is built
        here, so a test can hand out a reference ring in its place."""
        return cls(names)

    def sum(self, values: Sequence["FlatQuotient"]) -> "FlatQuotient":
        """The sum of values of this ring (at least one); see flat_sum."""
        return flat_sum(values)

    def once(self, value, image):
        """image(value), built the first time and handed out again while this
        ring lives; the ring holds value, so its id names nothing else
        meanwhile."""
        hit = self._images.get(id(value))
        if hit is None:
            hit = self._images[id(value)] = (value, image(value))
        return hit[1]

    def _terms(self, p: Polynomial) -> tuple:
        """(unit, factors) of the image of p (see _content), its terms read in
        one pass.

        Each term goes to the key (eps exponent, *exponent vector), the
        exponent vector's entries in the slots the name table gives p's names.
        Where those are the first slots in order, the vector is the key's
        tail as it stands.  The lcm of the coefficients' denominators is taken
        as the pass goes, so the image's integer coefficients are read off
        once.
        """
        slots = self._slots
        if any(v not in slots for v in p.variables):
            raise NotFlat(f"variables {p.variables} outside the frame {self.variables[1:]}")
        slots = [slots[v] for v in p.variables]
        width = len(self.variables) - 1
        pad = (0,) * (width - len(slots)) if slots == list(range(1, len(slots) + 1)) else None
        out = {}
        lift = 1
        for expv, c in p.terms.items():
            if c.precision is not None:
                raise NotFlat("inexact coefficient")
            if pad is None:
                key = [0] * width
                for i, e in zip(slots, expv):
                    key[i - 1] = e
                expv = tuple(key)
            else:
                expv += pad
            for w, a in c.terms:
                d = a.denominator
                if d != 1 and lift % d:
                    lift = lcm(lift, d)
                out[(w.numerator if w.denominator == 1 else w,) + expv] = a
        unit, factors = _content(self.variables, {e: a.numerator * (lift // a.denominator) for e, a in out.items()})
        return Fraction(unit, lift), factors

    def _image(self, q) -> tuple:
        """(unit, factors) of the image of a Polynomial or scalar (see _content)."""
        if isinstance(q, Polynomial):
            return self._terms(q)
        if isinstance(q, FieldElement):
            return self._terms(Polynomial.constant(q))
        q = Fraction(q)
        if q:
            return q, ()
        unit, zero = _content(self.variables, {})
        return Fraction(unit), zero

    def __call__(self, q) -> "FlatQuotient":
        """The image of a scalar, Polynomial or RationalFunction over names of the table."""
        if isinstance(q, RationalFunction):
            (unit, num), (den_unit, den) = self.once(q.num, self._image), self.once(q.den, self._image)
            return FlatQuotient(self.variables, unit / den_unit, num, den)
        unit, num = self.once(q, self._image)
        return FlatQuotient(self.variables, unit, num, ())


def _content(variables: tuple, terms: dict) -> tuple:
    """(c, factors) with c times the product of factors the polynomial of these
    integer coefficients over variables: one primitive factor whose first
    coefficient is positive, none for a constant, and the zero polynomial
    (c = 1) for zero."""
    if not terms:
        return 1, (ResiduePolynomial.from_canonical(variables, {}),)
    c = gcd(*terms.values())
    if terms[min(terms)] < 0:
        c = -c
    if c != 1:
        terms = {e: a // c for e, a in terms.items()}
    f = ResiduePolynomial.from_canonical(variables, terms)
    return c, () if f.is_one() else (f,)


def _product(variables: tuple, factors: tuple) -> ResiduePolynomial:
    """The product of factors; the constant 1 over variables for none."""
    if not factors:
        return ResiduePolynomial.from_canonical(variables, {(0,) * len(variables): 1})
    out = factors[0]
    for f in factors[1:]:
        out = out * f
    return out


def _shared(xs: tuple, ys: tuple) -> tuple:
    """(shared, the rest of xs, the rest of ys): the factors xs and ys have in
    common, each matched once, and the others.  Callers pass no zero factor."""
    ys, shared, rest = list(ys), [], []
    for x in xs:
        for i, y in enumerate(ys):
            if y is x or y.terms == x.terms:
                shared.append(ys.pop(i))
                break
        else:
            rest.append(x)
    return tuple(shared), tuple(rest), tuple(ys)


def flat_sum(values: Sequence["FlatQuotient"]) -> "FlatQuotient":
    """The sum of values of one flat ring (at least one) over the least common
    denominator of their factors, content taken once.

    Each value's numerator is multiplied out by the factors of that
    denominator its own lacks; a zero term is skipped and a single non-zero
    one handed back as it is.
    """
    terms = [v for v in values if not v.is_zero()]
    if len(terms) < 2:
        return terms[0] if terms else values[0]
    variables = terms[0].variables
    den = terms[0].den
    for v in terms[1:]:
        den += _shared(v.den, den)[1]
    scale = lcm(*(v.unit.denominator for v in terms))
    out = {}
    for v in terms:
        # unit*x/d = (unit*scale)*x*(den/d) / (scale*den)
        k = v.unit.numerator * (scale // v.unit.denominator)
        for e, c in _times(v.numerator(), _product(variables, _shared(den, v.den)[1])).terms.items():
            c = out.get(e, 0) + k * c
            if c:
                out[e] = c
            else:
                del out[e]
    unit, num = _content(variables, out)
    return FlatQuotient(variables, Fraction(unit, scale), num, den)


class FlatQuotient:
    """An element of a flat ring, kept factored: unit * prod(num) / prod(den).

    unit is a non-zero Fraction; num and den are tuples of integer
    ResiduePolynomial factors over variables, the ring's own frame tuple, by
    whose identity values of two rings are told apart.  Each factor is
    primitive (coprime coefficients, the first one positive), so one
    polynomial is one factor whatever scale its image was cleared with; a
    factor 1 is dropped.  Zero is a numerator with the zero polynomial among
    its factors; a denominator factor is never zero (RationalFunction's
    invariant, and division checks its divisor).  Products, quotients and
    powers concatenate factor tuples; a sum (see flat_sum) multiplies out only
    what the denominators do not share.  Equality cancels the non-zero factors
    the two sides of the cross-multiplication share and multiplies out the
    rest: Z[eps^Q][x] is an integral domain (Q is torsion-free), so cancelling
    a non-zero factor keeps the verdict of the full cross-multiplication.  A
    quotient multiplies out its own numerator at most once.
    """

    __slots__ = ("variables", "unit", "num", "den", "_num_product")

    def __init__(self, variables: tuple, unit: Fraction, num: tuple, den: tuple):
        self.variables, self.unit, self.num, self.den = variables, unit, num, den
        self._num_product = None

    def _peer(self, other) -> "FlatQuotient | None":
        """other if it is a value of this ring, None if it is no FlatQuotient."""
        if not isinstance(other, FlatQuotient):
            return None
        if other.variables is not self.variables:  # its slots may hold other names
            raise ValueError("values of two flat rings")
        return other

    def is_zero(self) -> bool:
        return any(not f.terms for f in self.num)

    def numerator(self) -> ResiduePolynomial:
        """The product of num, multiplied out once."""
        if self._num_product is None:
            self._num_product = _product(self.variables, self.num)
        return self._num_product

    def __add__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        return flat_sum((self, o))

    def __mul__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        return FlatQuotient(self.variables, self.unit * o.unit, self.num + o.num, self.den + o.den)

    def __truediv__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise DivisionByZero("division by the zero rational function")
        return FlatQuotient(self.variables, self.unit / o.unit, self.num + o.den, self.den + o.num)

    def __pow__(self, n: int) -> "FlatQuotient":
        if n < 0:
            if self.is_zero():
                raise DivisionByZero("division by the zero rational function")
            return FlatQuotient(self.variables, 1 / self.unit, self.den, self.num) ** -n
        return FlatQuotient(self.variables, self.unit**n, self.num * n, self.den * n)

    def __eq__(self, other) -> bool:
        o = self._peer(other)
        if o is None:
            return NotImplemented
        zero = self.is_zero()
        if zero or o.is_zero():
            return zero and o.is_zero()  # a zero factor is never cancelled
        _, left, right = _shared(self.num + o.den, o.num + self.den)
        left, right = _product(self.variables, left).terms, _product(self.variables, right).terms
        if left.keys() != right.keys():
            return False
        a, b = self.unit, o.unit
        ka, kb = a.numerator * b.denominator, b.numerator * a.denominator
        return all(ka * c == kb * right[e] for e, c in left.items())

    __hash__ = None
