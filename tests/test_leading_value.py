"""The initial-form kernel decides sign and valuation exactly as the exact evaluation does.

``_leading_term`` may only decide where a Fraction reference of its
(m, S, P) does, and then with the same leading exponent, sign and bound;
the exact value is S eps^m + O(eps^P) there.  The front ends
(``leading_sign``, ``valuation_at``) must equal the exact answers, errors
included: refusals (PrecisionExhausted) and exact zeros are unchanged.
"""

import random
from fractions import Fraction
from functools import partial
from math import prod

import pytest

from rcvf.errors import DivisionByZero, ExponentBlowup, PrecisionExhausted, RcvfError
from rcvf.poly import Polynomial, RationalFunction, _leading_term, leading_sign, point_form, valuation_at
from rcvf.sampling import SampleConfig
from rcvf.series import TOP, FieldElement, compare_order
from rcvf.sets import AffineModuleMap, SetDescriptor

from conftest import small_fraction

F = Fraction
EPS = FieldElement.eps_power(1)
ZERO = FieldElement.zero()


def verdict(query):
    """A query's answer, "refused" for PrecisionExhausted, or the type of another library error."""
    try:
        return query()
    except PrecisionExhausted:
        return "refused"
    except RcvfError as exc:
        return type(exc)


def exact_valuation(q, pt):
    """The valuation of q(pt) from the exact values of numerator and denominator."""
    if isinstance(q, Polynomial):
        return q.evaluate(pt).valuation()
    num, den = q.num.evaluate(pt), q.den.evaluate(pt)
    if den.is_exact_zero():
        raise DivisionByZero("denominator vanishes at the point")
    return num.valuation() - den.valuation()


def initial(x):
    """Leading exponent and coefficient, and the gap to the next term or the precision."""
    v, a = x.terms[0]
    rest = x.terms[1][0] if len(x.terms) > 1 else x.precision
    return v, a, None if rest is None else rest - v


def reference_leading_term(p, point):
    """The initial form's (m, S, P) in Fraction arithmetic, monomial by monomial;
    None where it does not decide (see ``poly._leading_term``)."""
    coords = []
    for x in point:
        if not x.terms and x.precision is not None:
            return None
        coords.append(initial(x) if x.terms else None)
    known, others = [], []  # (L_t, c a^e, least gap); exponents where anything else may sit
    for expv, c in p.terms.items():
        factors = [(coords[i], e) for i, e in enumerate(expv) if e]
        if any(x is None for x, _ in factors):
            continue
        shift = sum(e * x[0] for x, e in factors)
        if not c.terms:
            others.append(c.precision + shift)
            continue
        w, lead, gap = initial(c)
        gaps = [g for g in [gap] + [x[2] for x, _ in factors] if g is not None]
        known.append((w + shift, lead * prod(x[1] ** e for x, e in factors), min(gaps, default=None)))
    if not known:
        return None
    m = min(low for low, _, _ in known)
    s = sum(value for low, value, _ in known if low == m)
    others += [low for low, _, _ in known if low != m]
    others += [m + gap for low, _, gap in known if low == m and gap is not None]
    bound = min(others, default=None)
    if s == 0 or (bound is not None and m >= bound):
        return None
    return m, s, bound


def sign_of(x):
    return (x > 0) - (x < 0)


def assert_same_decisions(p, point):
    """The kernel's (m, sign of S, P) against the reference's, which the exact value
    bears out; returns the kernel's answer (None where it does not decide)."""
    exact = p.evaluate(point)
    lead = _leading_term(p, point)
    ref = reference_leading_term(p, point)
    if ref is None:
        assert lead is None
    else:
        m, s, bound = ref
        assert lead is not None and (lead[0], sign_of(lead[1]), lead[2]) == (m, sign_of(s), bound)
        assert exact.terms[0] == (m, s)
        assert FieldElement(((m, s),), bound) == exact
    # The front ends build no value, and must answer (or refuse) as the exact one.
    assert verdict(lambda: leading_sign(p, point)) == verdict(lambda: compare_order(exact, ZERO))
    assert verdict(lambda: valuation_at(p, point)) == verdict(exact.valuation)
    return lead


def random_coefficient(rng):
    """Exact rational, eps-bearing, O(eps^k)-truncated, or only O(eps^k)."""
    kind = rng.randrange(4)
    if kind == 3:
        return FieldElement((), F(rng.randint(1, 6), rng.choice((1, 2))))
    c = FieldElement.from_rational(small_fraction(rng, nonzero=True))
    if kind == 0:
        return c
    e = rng.choice((-1, 1, 1, 1)) * F(rng.randint(1, 6), rng.choice((1, 2)))
    c = c + FieldElement.eps_power(e, small_fraction(rng, nonzero=True))
    if kind == 1:
        return c
    return FieldElement(c.terms, c.terms[0][0] + F(rng.randint(1, 8), rng.choice((1, 2))))


def random_polynomial(rng, n):
    variables = tuple(f"x{i + 1}" for i in range(n))
    terms = []
    for _ in range(rng.randint(1, 6)):
        expv = [0] * n
        for _ in range(rng.randint(0, 8)):
            expv[rng.randrange(n)] += 1
        terms.append((tuple(expv), random_coefficient(rng)))
    return Polynomial(variables, terms)


def truncated(point, rng):
    """Some coordinates cut to a finite precision above their leading term."""
    out = []
    for x in point:
        if x.terms and rng.random() < 0.5:
            x = FieldElement(x.terms, x.terms[0][0] + F(rng.randint(1, 6), rng.choice((1, 2))))
        out.append(x)
    return out


def sample_sets(n):
    centers = tuple(FieldElement.from_rational(F(1, i + 1)) + EPS for i in range(n))
    scales = tuple(FieldElement.eps_power(i + 1, -2) for i in range(n))
    return SetDescriptor.unit_polydisc(n), SetDescriptor.affine_module(AffineModuleMap(centers, scales))


@pytest.mark.parametrize("seed", range(6))
def test_random_polynomials_at_sample_points(seed):
    rng = random.Random(seed)
    n = seed % 3 + 1
    points = []
    for sd in sample_sets(n):
        points += sd.sample_points(SampleConfig(seed=seed, samples=24))
    points += [truncated(pt, rng) for pt in points[::3]]
    decided_by_kernel = 0
    previous = None
    for _ in range(12):
        p = random_polynomial(rng, n)
        # Quotients of consecutive corpus polynomials, at every third point.
        quotient = None if previous is None else RationalFunction(previous, p)
        for k, pt in enumerate(points):
            decided_by_kernel += assert_same_decisions(p, pt) is not None
            if quotient is not None and k % 3 == 0:
                assert verdict(lambda: valuation_at(quotient, pt)) == verdict(lambda: exact_valuation(quotient, pt))
        previous = p
    # The kernel is doing the work, not the exact fallback.
    assert decided_by_kernel > 6 * len(points)


def assert_answers(p, pt, sign, val):
    """The kernel's decisions as the exact value's, and the expected sign and valuation."""
    assert_same_decisions(p, pt)
    assert verdict(lambda: leading_sign(p, pt)) == sign
    got = verdict(lambda: valuation_at(p, pt))
    assert got == val if val is not None else got.is_top


X = Polynomial.variable("x", ("x", "y"))
Y = Polynomial.variable("y", ("x", "y"))


def point(*coords):
    return [c if isinstance(c, FieldElement) else FieldElement.from_rational(c) for c in coords]


@pytest.mark.parametrize("p, pt, sign, val", [
    # An exactly zero coordinate stays exact: x*y + eps*x vanishes exactly.
    (X * Y + X.scale(EPS), point(0, 1 + EPS), "EQ", None),
    (X * Y + EPS * EPS, point(0, 3 - EPS), "GT", F(2)),
    # p vanishes exactly although every coordinate is a multi-term series.
    (X * X - Y * Y, point(1 + EPS + EPS ** 3, 1 + EPS + EPS ** 3), "EQ", None),
    # Residue-level cancellation: the cut value shows no term, the exact one does.
    (X - 1, point(1 + EPS ** 3, 0), "GT", F(3)),
    (X * X - 2 * X + 1, point(1 - EPS ** 2 + EPS ** 5, 7), "GT", F(4)),
    # Coordinates with finite precision: decided, and refused like the exact value.
    (X * X - 4, point(FieldElement(((0, 2), (1, -1)), 3), 0), "LT", F(1)),
    (X + (FieldElement.eps_power(F(3, 4)) - 1), point(FieldElement(((0, 1),), F(1, 2)), 0), "refused", "refused"),
    (X + (EPS ** 2 - 1), point(FieldElement(((0, 1), (F(1, 2), 1)), F(3, 2)), 0), "GT", F(1, 2)),
])
def test_hand_built_cases(p, pt, sign, val):
    assert_answers(p, pt, sign, val)


def test_valuation_at_quotient():
    h = RationalFunction(X * X + 1, X - 1)
    assert valuation_at(h, point(1 + EPS ** 3, 0)) == -3
    assert valuation_at(h, point(EPS, 0)) == 0


def test_terms_beyond_the_window_are_never_formed():
    # The exact value's eps^(1/33 + 3/2) term overflows the exponent-denominator
    # cap; the leading term is decided without forming it.
    p = Polynomial(("x",), {(1,): FieldElement.eps_power(F(1, 33)), (0,): 1})
    pt = [1 + FieldElement.eps_power(F(3, 2))]
    with pytest.raises(ExponentBlowup):
        p.evaluate(pt)
    assert _leading_term(p, pt)[:2] == (0, 1)
    assert (leading_sign(p, pt), valuation_at(p, pt)) == ("GT", 0)


# -- the initial-form kernel ------------------------------------------------------


def big_o(k):
    return FieldElement((), F(k))


def poly(terms):
    return Polynomial(("x", "y"), terms)


@pytest.mark.parametrize("p, pt, sign, val", [
    # The initial form cancels at a residue zero; the exact value decides.
    (X * Y - 1, point(1 + EPS, 1 - EPS), "LT", F(2)),
    (X * X - Y * Y, point(1 + EPS, 1 - EPS), "GT", F(1)),
    # An O(eps^k) coefficient below m falls back and refuses like the exact value.
    (poly({(1, 0): EPS ** 2, (0, 0): big_o(1)}), point(1, 3), "refused", "refused"),
    # P = m exactly: O(eps) * x^2 at x = eps^(1/2) reaches the initial form eps^2.
    (poly({(0, 0): EPS ** 2, (2, 0): big_o(1)}), point(FieldElement.eps_power(F(1, 2)), 0), "refused", "refused"),
    # An O(eps^k) coefficient above m only bounds the precision.
    (poly({(1, 0): -EPS, (0, 1): big_o(3)}), point(5, 7), "LT", F(1)),
    # The next term of a coordinate bounds the precision: 2*(1 + eps) is not 2.
    (X * Y, point(1 + EPS, 2), "GT", F(0)),
    (X * Y + EPS * Y, point(FieldElement(((0, 1),), F(1, 2)), 1 + EPS ** 3), "GT", F(0)),
    # An exactly zero coordinate kills every monomial it divides, O(eps^k) ones too.
    (poly({(1, 1): 1, (0, 1): big_o(-1), (0, 0): 3}), point(F(1, 2), 0), "GT", F(0)),
    (poly({(0, 1): 1, (0, 2): FieldElement.eps_power(-2)}), point(F(1, 2), 0), "EQ", None),
    # A coordinate with no visible term: the exact value decides, or refuses.
    (X + 1, point(FieldElement((), F(1, 2)), 0), "GT", F(0)),
    (X * Y, point(FieldElement((), 1), 1), "refused", "refused"),
])
def test_initial_form_cases(p, pt, sign, val):
    assert_answers(p, pt, sign, val)


@pytest.mark.parametrize("rest", [
    FieldElement.zero(),
    # P = m: the O(eps^k) monomial reaches the initial form, so it is not returned.
    big_o(F(17, 72)),
])
def test_leading_exponent_over_the_cap_raises(rest):
    # eps^(1/8) * x at x = eps^(1/9) has leading exponent 17/72, over the cap of 64.
    p = Polynomial(("x",), {(1,): FieldElement.eps_power(F(1, 8)), (0,): rest})
    pt = [FieldElement.eps_power(F(1, 9))]
    for query in (p.evaluate, partial(leading_sign, p), partial(valuation_at, p),
                  partial(valuation_at, RationalFunction(p, p.constant(2, p.variables)))):
        with pytest.raises(ExponentBlowup):
            query(pt)


def test_random_corpus_rarely_needs_exact_evaluation(monkeypatch):
    # The corpus of test_random_polynomials_at_sample_points; every seventh point
    # is also checked against the exact value (the full check is that test's).
    # Where the kernel decides, the front ends evaluate nothing.
    exact_evaluate = Polynomial.evaluate
    calls = []
    monkeypatch.setattr(Polynomial, "evaluate", lambda p, pt: calls.append(1) or exact_evaluate(p, pt))
    decided = total = 0
    for seed in range(6):
        rng = random.Random(seed)
        n = seed % 3 + 1
        points = []
        for sd in sample_sets(n):
            points += sd.sample_points(SampleConfig(seed=seed, samples=24))
        points += [truncated(pt, rng) for pt in points[::3]]
        for _ in range(12):
            p = random_polynomial(rng, n)
            for pt in points:
                del calls[:]
                lead = _leading_term(p, pt)
                answers = verdict(lambda: leading_sign(p, pt)), verdict(lambda: valuation_at(p, pt))
                if lead is not None:
                    assert not calls
                    decided += 1
                total += 1
                if total % 7 == 0:
                    exact = exact_evaluate(p, pt)
                    assert answers == (verdict(lambda: compare_order(exact, ZERO)), verdict(exact.valuation))
                    if lead is not None:
                        assert (exact.terms[0][0], sign_of(exact.terms[0][1])) == (lead[0], sign_of(lead[1]))
    assert decided >= 0.9 * total, (decided, total)



@pytest.mark.parametrize("q, pt, val", [
    # The denominator's initial form cancels: the exact value decides.
    (RationalFunction(X * X + 1, X - 1), point(1 + EPS ** 3, 0), F(-3)),
    (RationalFunction(X * Y + EPS, Y - 1), point(1 - EPS, 1 + EPS), F(-1)),
    # The numerator vanishes exactly.
    (RationalFunction(X * Y, Y + 1), point(0, 2 + EPS), TOP),
    # The numerator is refused.
    (RationalFunction(X * Y, Y + 1), point(FieldElement((), 1), 1), "refused"),
    # The denominator vanishes exactly, with and without its initial form cancelling.
    (RationalFunction(X + 1, X - 1), point(1, 5), DivisionByZero),
    (RationalFunction(Y, X * Y), point(3, 0), DivisionByZero),
])
def test_quotient_valuations(q, pt, val):
    got = verdict(lambda: valuation_at(q, pt))
    assert got == verdict(lambda: exact_valuation(q, pt))
    assert got == val


def form_as_rationals(form):
    """A point form's coordinates with their exponents as Fractions, whatever its denominator."""
    den, coords = form
    return [None if x is None else (F(x[0], den), x[1], x[2], None if x[3] is None else F(x[3], den))
            for x in coords]


@pytest.mark.parametrize("seed", range(3))
def test_carried_forms_decide_as_derived_ones(seed):
    # stream_forms hands the kernel each sampled point's form from its draws.  It
    # must be the form point_form derives, and every answer, fallback and error
    # must be the same with it as without; an eps^(1/3) coefficient puts the
    # plan's denominator off the form's.
    rng = random.Random(seed)
    n = seed + 1
    pairs = list(SetDescriptor.unit_polydisc(n).stream_forms(SampleConfig(seed=seed, samples=60)))
    assert len(pairs) == 60
    for pt, form in pairs:
        assert form_as_rationals(form) == form_as_rationals(point_form(pt))
    assert {form[0] for _, form in pairs} == {1, 2}  # structured points derive theirs; draws are in halves
    fallbacks = decided = 0
    for _ in range(10):
        p = random_polynomial(rng, n)
        for q in (p, p.scale(FieldElement.eps_power(F(1, 3)))):
            for pt, form in pairs:
                lead = verdict(lambda: _leading_term(q, pt, form))
                assert lead == verdict(lambda: _leading_term(q, pt))
                fallbacks += lead is None
                decided += isinstance(lead, tuple)
                assert verdict(lambda: leading_sign(q, pt, form)) == verdict(lambda: leading_sign(q, pt))
                assert verdict(lambda: valuation_at(q, pt, form)) == verdict(lambda: valuation_at(q, pt))
                quotient = RationalFunction(q, p + 1)
                assert verdict(lambda: valuation_at(quotient, pt, form)) == verdict(lambda: valuation_at(quotient, pt))
    assert fallbacks and decided > fallbacks


def test_carried_form_raises_exponent_blowup_as_derived():
    # eps^(1/33) times a coordinate whose leading exponent is an odd number of
    # halves has valuation k/66, over the cap of 64.
    pairs = SetDescriptor.unit_polydisc(1).stream_forms(SampleConfig(seed=1, samples=200))
    pt, form = next((pt, form) for pt, form in pairs
                    if form[1][0] is not None and F(form[1][0][0], form[0]).denominator == 2)
    p = Polynomial(("x",), {(1,): FieldElement.eps_power(F(1, 33))})
    for query in (partial(_leading_term, p), partial(leading_sign, p), partial(valuation_at, p)):
        for carried in (form, None):
            with pytest.raises(ExponentBlowup):
                query(pt, carried)
