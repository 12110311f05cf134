"""Gauss criterion vs pointwise oracle, module pullback, infinitesimal split."""

import math
import random
from fractions import Fraction

import pytest

from rcvf import integrality, poly
from rcvf.errors import DivisionByZero, NotInfinitesimalDefinite, PrecisionExhausted, RcvfError
from rcvf.integrality import (
    COUNTEREXAMPLE_FOUND,
    NO_COUNTEREXAMPLE_FOUND,
    IntegralityVerdict,
    generic_type_integral,
    infinitesimal_decompose,
    module_pullback,
    pointwise_integral_oracle,
    polydisc_frame,
)
from rcvf.poly import Polynomial, RationalFunction, gauss_valuation, poly_eval, valuation_at
from rcvf.sampling import SampleConfig, _rng
from rcvf.series import FieldElement, ValueGroupElement
from rcvf.parser import parse_expression
from rcvf.sets import AffineModuleMap, SetDescriptor, align_to_set

from conftest import random_exact_element, random_truncated_element, small_fraction

F = Fraction
EPS = FieldElement.eps_power(1)
X = Polynomial.variable("x", ("x",))
BALL1 = SetDescriptor.unit_polydisc(1)


class TestGaussCriterion:
    def test_sos_inverse_integral_and_oracle_agrees(self):
        h = RationalFunction(Polynomial.constant(1, ("x",)),
                             Polynomial.constant(1, ("x",)) + X * X)
        assert generic_type_integral(h, BALL1)
        verdict = pointwise_integral_oracle(h, BALL1, SampleConfig(seed=5, samples=1000))
        assert verdict.kind == NO_COUNTEREXAMPLE_FOUND
        assert verdict.samples >= 900

    def test_x_over_eps_not_integral(self):
        h = RationalFunction(X, Polynomial.constant(EPS, ("x",)))
        assert not generic_type_integral(h, BALL1)
        assert gauss_valuation(h) == ValueGroupElement(-1)
        verdict = pointwise_integral_oracle(h, BALL1, SampleConfig(seed=5, samples=200))
        assert verdict.found_counterexample

    def test_divergence_case(self):
        # Gauss-integral, yet pointwise the value at x = eps^2 is 1 + eps^-1.
        h = RationalFunction(X + Polynomial.constant(EPS, ("x",)), X)
        assert generic_type_integral(h, BALL1)
        value = poly_eval(h, [FieldElement.eps_power(2)])
        assert value == FieldElement([(-1, 1), (0, 1)])
        verdict = pointwise_integral_oracle(h, BALL1, SampleConfig(seed=5, samples=500))
        assert verdict.found_counterexample
        assert valuation_at(h, list(verdict.point)) < 0

    def test_strict_constraints_rejected(self):
        sd = SetDescriptor.unit_polydisc(1, strict_constraints=[X])
        with pytest.raises(ValueError):
            generic_type_integral(RationalFunction(X), sd)


class TestOracleSoundness:
    def test_gauss_negative_verdicts_have_counterexamples(self, rng):
        # Polynomial h with gauss < 0: a generic-residue probe must hit a
        # point of negative valuation.
        frame = ("x1", "x2")
        ball2 = SetDescriptor.unit_polydisc(2)
        for i in range(40):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                expv = (rng.randint(0, 2), rng.randint(0, 2))
                c = random_exact_element(rng, max_terms=2, allow_negative_exponents=True)
                if c.is_visibly_zero():
                    continue
                terms[expv] = c
            q = Polynomial(frame, terms)
            if q.is_exactly_zero():
                continue
            g = gauss_valuation(q)
            if g >= 0:
                continue
            r = _rng(123, i)
            found = False
            for pt in ball2.generic_residue_points(r, 100, 4000):
                v = valuation_at(q, pt)
                if not v.is_top and v.value < 0:
                    found = True
                    break
            assert found

    def test_gauss_positive_polynomials_pointwise_integral(self, rng):
        frame = ("x1", "x2")
        ball2 = SetDescriptor.unit_polydisc(2)
        config = SampleConfig(seed=6, samples=50)
        points = ball2.sample_points(config)
        checked = 0
        for _ in range(60):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                expv = (rng.randint(0, 2), rng.randint(0, 2))
                terms[expv] = random_exact_element(rng, max_terms=2)
            q = Polynomial(frame, terms)
            if q.is_exactly_zero() or not generic_type_integral(q, ball2):
                continue
            checked += 1
            for b in points:
                v = valuation_at(q, b)
                assert v.is_top or v.value >= 0
        assert checked > 10


class TestModulePullback:
    def test_scaling_map(self):
        mm = AffineModuleMap((FieldElement.zero(),), (EPS,))
        h = RationalFunction(X, Polynomial.constant(EPS, ("x",)))
        assert module_pullback(h, mm) == RationalFunction(X)

    def test_identity_map(self):
        mm = AffineModuleMap((FieldElement.zero(),), (FieldElement.one(),))
        h = RationalFunction(X + Polynomial.constant(EPS, ("x",)), X)
        assert module_pullback(h, mm) == h

    def test_shifted_map(self):
        mm = AffineModuleMap((FieldElement.one(),), (EPS,))
        q = X - Polynomial.constant(1, ("x",))
        pulled = module_pullback(q, mm)
        assert pulled == X.scale(EPS)
        assert gauss_valuation(pulled) == ValueGroupElement(1)

    def test_pullback_coherence(self, rng):
        # h(g(y)) agrees with pullback(h)(y) on sampled polydisc points.
        frame = ("x",)
        ball = SetDescriptor.unit_polydisc(1)
        config = SampleConfig(seed=8, samples=5)
        pts = ball.sample_points(config)
        count = 0
        for _ in range(200):
            num_terms = {(rng.randint(0, 3),): random_exact_element(rng, 2) for _ in range(2)}
            den_terms = {(rng.randint(0, 2),): random_exact_element(rng, 2) for _ in range(2)}
            num, den = Polynomial(frame, num_terms), Polynomial(frame, den_terms)
            if den.is_exactly_zero():
                continue
            h = RationalFunction(num, den)
            center = random_exact_element(rng, 2)
            scale = random_exact_element(rng, 2)
            if scale.is_visibly_zero():
                continue
            mm = AffineModuleMap((center,), (scale,))
            pulled = module_pullback(h, mm)
            for y in pts:
                xpt = mm.apply(y)
                # Cross-multiplied agreement avoids truncating division.
                lhs = h.num.evaluate(xpt) * pulled.den.evaluate(y)
                rhs = pulled.num.evaluate(y) * h.den.evaluate(xpt)
                assert lhs == rhs
                count += 1
        assert count > 100

    def test_affine_set_integrality_matches_pullback(self):
        # x/eps is integral on the eps-ball around 0 (|x| <= |eps|).
        mm = AffineModuleMap((FieldElement.zero(),), (EPS,))
        module = SetDescriptor.affine_module(mm)
        h = RationalFunction(Polynomial.variable("x1", ("x1",)),
                             Polynomial.constant(EPS, ("x1",)))
        assert generic_type_integral(h, module)
        verdict = pointwise_integral_oracle(h, module, SampleConfig(seed=4, samples=300))
        assert verdict.kind == NO_COUNTEREXAMPLE_FOUND


def _module(centers, scales, strict=None):
    parse = parse_expression
    return SetDescriptor.affine_module(AffineModuleMap(tuple(map(parse, centers)), tuple(map(parse, scales))),
                                       strict)


# The benchmark's affine set, and one with half-integer and negative exponents.
MODULES = [(("1", "0"), ("eps", "1")), (("1/2 + eps", "-3"), ("eps^(1/2)", "-1/2*eps^(-1)"))]


def _strict(module_args):
    """The same set with the strict constraint x1 + x2 > 0, which rejects some samples."""
    vs = ("x1", "x2")
    return _module(*module_args, [Polynomial.variable("x1", vs) + Polynomial.variable("x2", vs)])


def _random_h(rng, vanishing):
    """A seeded exact quotient in x1, x2; with vanishing, its denominator is
    x1 - (1 + eps), zero on the images of the benchmark module's corners y1 = 1."""
    vs = ("x1", "x2")

    def poly(terms):
        return Polynomial(vs, {(rng.randint(0, 2), rng.randint(0, 2)): random_exact_element(rng, 2)
                               for _ in range(terms)})

    num = poly(3)
    den = (Polynomial.variable("x1", vs) - parse_expression("1 + eps")) if vanishing else poly(2)
    return None if den.is_exactly_zero() else RationalFunction(num, den)


def _same_points(a, b):
    return a is b is None or (len(a) == len(b) and all((x.terms, x.precision) == (y.terms, y.precision)
                                                       for x, y in zip(a, b)))


class TestPolydiscFrame:
    """On an affine set the oracle tests the pulled-back function at polydisc
    points; verdicts, counts and reported points must be the ones of testing
    the function itself at the images, which is the oracle with the frame off."""

    @pytest.mark.parametrize("module_args", MODULES)
    def test_frames(self, module_args):
        h = RationalFunction(Polynomial.variable("x1", ("x1", "x2")))
        for sd in (_module(*module_args), _strict(module_args)):
            pulled, mm = polydisc_frame(h, sd)
            assert mm is not None and pulled == module_pullback(h, mm)
        assert polydisc_frame(h, BALL1)[1] is None
        # Truncated data keeps the mapped points.
        truncated = _module(("1", "1/(1 + eps)"), ("eps", "1"))
        assert polydisc_frame(h, truncated)[1] is None

    @pytest.mark.parametrize("strict", [False, True], ids=["plain", "strict"])
    @pytest.mark.parametrize("module_args", MODULES)
    def test_oracle_matches_the_mapped_oracle(self, module_args, strict, monkeypatch):
        sd = (_strict if strict else lambda args: _module(*args))(module_args)
        rng = random.Random(11)
        cases = []
        for k in range(40):
            h = _random_h(rng, vanishing=k % 4 == 0)
            if h is not None:
                config = SampleConfig(seed=k, samples=40)
                cases.append((h, config, pointwise_integral_oracle(h, sd, config)))
        monkeypatch.setattr(integrality, "polydisc_frame", lambda q, _: (q, None))
        kinds, skipped = set(), 0
        for h, config, got in cases:
            want = pointwise_integral_oracle(h, sd, config)
            assert (got.kind, got.samples, got.skipped, got.value_valuation) == \
                (want.kind, want.samples, want.skipped, want.value_valuation)
            assert _same_points(got.point, want.point)
            if got.point is not None:
                assert valuation_at(h, list(got.point)) == got.value_valuation
            kinds.add(got.kind)
            skipped += got.skipped
        assert kinds == {COUNTEREXAMPLE_FOUND, NO_COUNTEREXAMPLE_FOUND}
        if module_args == MODULES[0]:
            assert skipped > 0  # the vanishing denominators were met

    def test_strict_constraint_rejects_samples(self):
        config = SampleConfig(seed=3, samples=40)
        sd = _strict(MODULES[0])
        plain = [y for y, _ in _module(*MODULES[0]).stream_forms(config, on_polydisc=True)]
        strict = [y for y, _ in sd.stream_forms(config, on_polydisc=True)]
        assert len(strict) == len(plain) and _points_differ(strict, plain)
        assert all(sd.contains(sd.module_map.apply(y)) for y in strict)


def _points_differ(a, b):
    return any(not _same_points(x, y) for x, y in zip(a, b))


def reference_oracle(h, set_descriptor, config):
    """The oracle with valuation_at(h, b, form) at every point: the numerator is
    always evaluated, before the denominator."""
    h = align_to_set(h if isinstance(h, RationalFunction) else RationalFunction(h), set_descriptor)
    h, module_map = polydisc_frame(h, set_descriptor)
    tested = skipped = 0
    for b, form in integrality._oracle_points(set_descriptor, config, module_map is not None):
        try:
            v = valuation_at(h, b, form)
        except (DivisionByZero, PrecisionExhausted):
            skipped += 1
            continue
        tested += 1
        if not v.is_top and v.value < 0:
            point = b if module_map is None else module_map.apply(b)
            return IntegralityVerdict(COUNTEREXAMPLE_FOUND, point=tuple(point), value_valuation=v,
                                      samples=tested, skipped=skipped)
    return IntegralityVerdict(NO_COUNTEREXAMPLE_FOUND, samples=tested, skipped=skipped)


def _oracle_cases():
    """(set, h, config): seeded exact and truncated quotients on ball:1, ball:2
    and the benchmark's affine set, with zero numerators, denominators that
    vanish at sampled points, negative Gauss gaps and exponent denominators
    that meet the points' halves beyond the cap."""
    rng = random.Random(4040)
    sets = [BALL1, SetDescriptor.unit_polydisc(2), _module(*MODULES[0])]
    for sd in sets:
        vs = sd.variables()
        x1 = Polynomial.variable("x1", vs)

        def poly(count, element):
            return Polynomial(vs, {tuple(rng.randint(0, 2) for _ in vs): element() for _ in range(count)})

        def exact():
            return random_exact_element(rng, 2)

        def rational():
            return FieldElement.from_rational(small_fraction(rng, nonzero=True))

        for k in range(48):
            num, den = poly(3, exact), poly(2, exact)
            kind = k % 8
            if kind == 1:
                num = Polynomial(vs)
            elif kind == 2:  # zero at the corners y1 = 1 (and their images on the affine set)
                den = x1 - parse_expression("1 + eps" if sd.kind == "affine" else "1")
            elif kind == 3:
                den = den.scale(FieldElement.eps_power(rng.randint(1, 3)))
            elif kind == 4:
                num = poly(3, rational).scale(FieldElement.eps_power(F(1, rng.choice((63, 33, 5)))))
            elif kind == 5:  # a third term whose exponent only the exact evaluation meets
                num = poly(3, rational).scale(parse_expression("1 + eps^(1/2) + eps^(64/63)"))
            elif kind == 6:
                num = poly(3, lambda: random_truncated_element(rng))
            elif kind == 7:
                den = poly(2, lambda: random_truncated_element(rng))
            if not den.is_exactly_zero():
                yield sd, RationalFunction(num, den), SampleConfig(seed=k, samples=30)
    yield sets[1], parse_expression("eps^(1/63)*x1*x2/(1 + x1^2)"), SampleConfig(seed=0, samples=120)
    # The initial form cancels at drawn points 1 + a*eps^(1/2) + ..., and the
    # exact value meets 64/63 + 1/2: the lcm of the leading and next exponents
    # (2) would not show it, the lcm of every exponent (126) does.
    yield BALL1, parse_expression("(1 + eps^(1/2) + eps^(64/63))*(x1 - 1)"), SampleConfig(seed=0, samples=120)


def _outcome(call):
    try:
        return call()
    except RcvfError as exc:
        return type(exc).__name__, str(exc)


class TestGaussBoundSkip:
    """Where the numerator's Gauss valuation decides, the oracle does not
    evaluate the numerator; verdicts, points, counts and errors must be those
    of evaluating h at every point."""

    def test_matches_evaluating_every_point(self):
        kinds = set()
        for sd, h, config in _oracle_cases():
            got = _outcome(lambda: pointwise_integral_oracle(h, sd, config))
            want = _outcome(lambda: reference_oracle(h, sd, config))
            if isinstance(want, tuple):
                assert got == want, (sd, h)
                kinds.add(want[0])
                continue
            assert (got.kind, got.value_valuation, got.samples, got.skipped) == \
                (want.kind, want.value_valuation, want.samples, want.skipped), (sd, h)
            assert _same_points(got.point, want.point)
            kinds.add(got.kind)
            if want.skipped:
                kinds.add("skipped")
        assert kinds == {COUNTEREXAMPLE_FOUND, NO_COUNTEREXAMPLE_FOUND, "skipped", "ExponentBlowup"}

    def test_numerator_is_read_only_where_the_bound_does_not_decide(self, monkeypatch):
        # 1/(1 + x1^2) on ball:1: the numerator's Gauss valuation 0 bounds
        # v(den(b)) = 0 at every point but x1 = i, which is no sampled point.
        # The denominator's initial term decides at each, so the oracle calls
        # the kernel once per sample, on the denominator, and evaluates nothing.
        h = parse_expression("1/(1 + x1^2)")
        config = SampleConfig(seed=5, samples=200)
        calls, valuations = [], []
        initial_term, valuation = integrality._initial_term, integrality.valuation_at
        monkeypatch.setattr(integrality, "_initial_term", lambda q, *a: calls.append(q) or initial_term(q, *a))
        monkeypatch.setattr(integrality, "valuation_at", lambda q, *a: valuations.append(q) or valuation(q, *a))
        verdict = pointwise_integral_oracle(h, BALL1, config)
        assert verdict.kind == NO_COUNTEREXAMPLE_FOUND and verdict.samples > 0
        assert len(calls) == verdict.samples and all(q is h.den for q in calls)
        assert valuations == []

    @pytest.mark.parametrize("text, n", [("1/(x1 - 1)", 1), ("x1/(x1^2 - 1)", 1), ("1/(x1 + x2 - 1)", 2)])
    def test_kernel_runs_once_per_point_on_the_denominator(self, monkeypatch, text, n):
        # Each denominator's initial form cancels at some sampled points (x1 = 1
        # among them, where it vanishes); there its exact value decides, and
        # the kernel is not run on it again.  Calls are counted through both
        # bindings, so a second run inside valuation_at would show.
        h = parse_expression(text)
        calls = []
        for module in (poly, integrality):
            monkeypatch.setattr(module, "_initial_term",
                                lambda q, *a, _kernel=module._initial_term: calls.append(q) or _kernel(q, *a))
        verdict = pointwise_integral_oracle(h, SetDescriptor.unit_polydisc(n), SampleConfig(seed=1, samples=200))
        assert verdict.skipped > 0
        assert sum(q is h.den for q in calls) == verdict.samples + verdict.skipped

    def test_integer_test_agrees_with_valuation_at(self):
        # At every sampled point the oracle's test is valuation_at's valuation,
        # or None where that is not negative, and it raises
        # what valuation_at raises: exact quotients on ball:1 and ball:2, a zero
        # numerator, a denominator zero at the corner 1 and one whose
        # eps^(1/33) meets the draws' halves beyond the cap.
        rng = random.Random(3030)
        outcomes = set()
        for n in (1, 2):
            sd = SetDescriptor.unit_polydisc(n)
            vs = sd.variables()
            x1, one = Polynomial.variable("x1", vs), Polynomial.constant(1, vs)

            def poly(count):
                return Polynomial(vs, {tuple(rng.randint(0, 2) for _ in vs): random_exact_element(rng, 2)
                                       for _ in range(count)})

            cases = [RationalFunction(poly(3), den) for den in (poly(2) for _ in range(12))
                     if not den.is_exactly_zero()]
            cases += [RationalFunction(Polynomial(vs), one + x1 * x1), RationalFunction(one, x1 - one),
                      RationalFunction(one, x1.scale(FieldElement.eps_power(F(1, 33))))]
            for h in cases:
                g = h.num.gauss_valuation()
                bound = (None if g.is_top else g.value), math.lcm(*(w.denominator for c in h.num.terms.values()
                                                                    for w, _ in c.terms))
                for b, form in sd.stream_forms(SampleConfig(seed=n, samples=40)):
                    want = _outcome(lambda: valuation_at(h, b, form))
                    got = _outcome(lambda: integrality._oracle_valuation(h, b, form, bound))
                    if isinstance(want, tuple):
                        assert got == want
                        outcomes.add(want[0])
                    elif got is None:
                        assert want.is_top or want.value >= 0
                        outcomes.add("top" if want.is_top else "bounded")
                    else:
                        assert got == want
                        outcomes.add("evaluated" if want.is_top or want.value >= 0 else "negative")
        assert outcomes == {"DivisionByZero", "ExponentBlowup", "top", "bounded", "evaluated", "negative"}


class TestInfinitesimalDecompose:
    def test_examples(self):
        m, g = infinitesimal_decompose((X * X).scale(EPS), BALL1)
        assert m == EPS
        assert g == RationalFunction(Polynomial.variable("x1", ("x1",)) ** 2)
        m2, g2 = infinitesimal_decompose(
            (Polynomial.constant(1, ("x",)) + X).scale(FieldElement.eps_power(F(1, 2))), BALL1)
        assert m2 == FieldElement.eps_power(F(1, 2))
        assert g2 == RationalFunction(Polynomial.constant(1, ("x1",)) + Polynomial.variable("x1", ("x1",)))

    def test_not_infinitesimal(self):
        with pytest.raises(NotInfinitesimalDefinite):
            infinitesimal_decompose(X, BALL1)

    def test_zero_input(self):
        m, g = infinitesimal_decompose(Polynomial(("x",)), BALL1)
        assert m.is_exact_zero()
        assert g.num.is_exactly_zero()

    def test_round_trip(self, rng):
        frame = ("x",)
        for _ in range(100):
            terms = {(rng.randint(0, 3),): random_exact_element(rng, 2) for _ in range(3)}
            q = Polynomial(frame, terms).scale(FieldElement.eps_power(F(rng.randint(1, 4), 2)))
            if q.is_exactly_zero():
                continue
            g = gauss_valuation(q)
            if g.is_top or g.value <= 0:
                continue
            m, part = infinitesimal_decompose(q, BALL1)
            assert m.valuation() > 0
            assert gauss_valuation(part) == ValueGroupElement(0)
            recomposed = part.num.scale(m)
            aligned = align_to_set(q, BALL1)
            assert recomposed == aligned * part.den
