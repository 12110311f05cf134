"""leading_value decides sign and valuation exactly as the exact evaluation does.

The cut evaluation may only be returned when it shows a term, and then its
leading term is the exact one; otherwise the exact value itself comes back,
so refusals (PrecisionExhausted) and exact zeros are unchanged.
"""

import random
from fractions import Fraction

import pytest

from rcvf.errors import ExponentBlowup, PrecisionExhausted
from rcvf.poly import Polynomial, RationalFunction, leading_value, valuation_at
from rcvf.sampling import SampleConfig
from rcvf.series import FieldElement, compare_order
from rcvf.sets import AffineModuleMap, SetDescriptor

from conftest import small_fraction

F = Fraction
EPS = FieldElement.eps_power(1)
ZERO = FieldElement.zero()


def verdict(query):
    try:
        return query()
    except PrecisionExhausted:
        return "refused"


def assert_same_decisions(p, point):
    exact = p.evaluate(point)
    fast = leading_value(p, point)
    if fast.terms:
        assert fast.terms[0] == exact.terms[0]
    else:
        assert (fast.terms, fast.precision) == (exact.terms, exact.precision)
    assert verdict(lambda: compare_order(fast, ZERO)) == verdict(lambda: compare_order(exact, ZERO))
    assert verdict(fast.valuation) == verdict(exact.valuation)
    return fast


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
    decided_by_cut = 0
    for _ in range(12):
        p = random_polynomial(rng, n)
        for pt in points:
            fast = assert_same_decisions(p, pt)
            decided_by_cut += bool(fast.terms) and fast.precision is not None
    # The filter is doing the work, not the exact fallback.
    assert decided_by_cut > 6 * len(points)


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
    fast = assert_same_decisions(p, pt)
    assert verdict(lambda: compare_order(fast, ZERO)) == sign
    got = verdict(fast.valuation)
    assert got == val if val is not None else got.is_top


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
    assert leading_value(p, pt).terms[0] == (0, 1)


# -- the initial-form kernel ------------------------------------------------------


def assert_sound(p, pt):
    """Same decisions as the exact value, and agreement with it up to both precisions."""
    fast = assert_same_decisions(p, pt)
    assert fast == p.evaluate(pt)
    return fast


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
    fast = assert_sound(p, pt)
    assert verdict(lambda: compare_order(fast, ZERO)) == sign
    got = verdict(fast.valuation)
    assert got == val if val is not None else got.is_top


@pytest.mark.parametrize("rest", [
    FieldElement.zero(),
    # P = m: the O(eps^k) monomial reaches the initial form, so it is not returned.
    big_o(F(17, 72)),
])
def test_leading_exponent_over_the_cap_raises(rest):
    # eps^(1/8) * x at x = eps^(1/9) has leading exponent 17/72, over the cap of 64.
    p = Polynomial(("x",), {(1,): FieldElement.eps_power(F(1, 8)), (0,): rest})
    pt = [FieldElement.eps_power(F(1, 9))]
    with pytest.raises(ExponentBlowup):
        p.evaluate(pt)
    with pytest.raises(ExponentBlowup):
        leading_value(p, pt)


def test_random_corpus_rarely_needs_exact_evaluation(monkeypatch):
    # The corpus of test_random_polynomials_at_sample_points; every seventh call
    # is also checked against the exact value (the full check is that test's).
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
                fast = leading_value(p, pt)
                decided += not calls
                total += 1
                if total % 7 == 0:
                    exact = exact_evaluate(p, pt)
                    if fast.terms:
                        assert fast.terms[0] == exact.terms[0]
                    assert fast == exact
    assert decided >= 0.9 * total, (decided, total)
