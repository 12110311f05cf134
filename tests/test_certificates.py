"""Certificate verification, generation round-trips, Dickmann forms, probe."""

import random
from fractions import Fraction

import pytest

from rcvf import certificates
from rcvf.certificates import (
    CANDIDATE,
    CERTIFICATE,
    CONSISTENT_NONNEG,
    NEGATIVITY_WITNESS,
    UNKNOWN,
    DickmannCertificate,
    DickmannTerm,
    GenerationBudget,
    IntegralityWitness,
    NonnegCertificate,
    QuotientCoefficient,
    check_general_characterization,
    falsify_nonnegativity,
    generate_ball_certificate,
    verify_dickmann_certificate,
    verify_nonneg_certificate,
)
from rcvf.errors import CoefficientsNotIntegral, ExponentBlowup, PrecisionExhausted
from rcvf.integrality import module_pullback
from rcvf.poly import Polynomial, RationalFunction
from rcvf.ringexpr import ConstExpr, GenExpr, PerturbedUnit, ProdExpr, SOSExpr
from rcvf.sampling import SampleConfig
from rcvf.series import EQ, GT, LT, FieldElement, compare_order
from rcvf.parser import parse_expression
from rcvf.poly import gauss_valuation
from rcvf.sets import AffineModuleMap, SetDescriptor, align_to_set
from rcvf.sos import SOS, SosBudget, residue_sos_decomposition

F = Fraction
EPS = FieldElement.eps_power(1)
BALL1 = SetDescriptor.unit_polydisc(1)
BALL2 = SetDescriptor.unit_polydisc(2)
X1 = Polynomial.variable("x1")
CONFIG = SampleConfig(seed=17, samples=200)


def one_minus_eps_x2():
    return Polynomial.constant(1, ("x1",)) - (X1 * X1).scale(EPS)


def reference_certificate():
    p = one_minus_eps_x2()
    h = RationalFunction(X1 * X1, p)
    witness = IntegralityWitness(ProdExpr([GenExpr(0), GenExpr(0)]),
                                 PerturbedUnit(-EPS, ProdExpr([GenExpr(0), GenExpr(0)])))
    r = SOSExpr([RationalFunction(Polynomial.constant(1, ("x1",)))])
    return p, NonnegCertificate(r, EPS, h, witness)


class TestVerifyExamples:
    def test_one_minus_eps_x_squared(self):
        # (1 - eps x^2) + eps x^2 = 1: the identity behind r=[1], m=eps.
        p, cert = reference_certificate()
        lhs = (RationalFunction(p)
               * (RationalFunction.constant(1, ("x1",))
                  + RationalFunction.constant(EPS, ("x1",)) * cert.h))
        assert lhs == RationalFunction(Polynomial.constant(1, ("x1",)))
        assert verify_nonneg_certificate(p, cert, BALL1).ok

    def test_x_squared_plus_eps_pure_sos(self):
        p = X1 * X1 + Polynomial.constant(EPS, ("x1",))
        cert = NonnegCertificate(
            SOSExpr([RationalFunction(X1),
                     RationalFunction(Polynomial.constant(FieldElement.eps_power(F(1, 2)), ("x1",)))]),
            FieldElement.zero(), RationalFunction.constant(0, ("x1",)),
            IntegralityWitness.trivial())
        assert verify_nonneg_certificate(p, cert, BALL1).ok

    def test_identity_failure_reported(self):
        p = Polynomial.constant(EPS, ("x1",)) - X1 * X1
        cert = NonnegCertificate(SOSExpr([RationalFunction(Polynomial.constant(1, ("x1",)))]),
                                 FieldElement.zero(), RationalFunction.constant(0, ("x1",)),
                                 IntegralityWitness.trivial())
        result = verify_nonneg_certificate(p, cert, BALL1)
        assert not result.ok and result.reason == "identity_failed"
        assert falsify_nonnegativity(p, BALL1, SampleConfig(CONFIG.seed, 100)) is not None

    def test_bad_m_rejected(self):
        p, cert = reference_certificate()
        bad = NonnegCertificate(cert.r, FieldElement.one(), cert.h, cert.witness)
        result = verify_nonneg_certificate(p, bad, BALL1)
        assert not result.ok and result.reason in ("m_not_infinitesimal", "identity_failed")

    def test_bad_witness_rejected(self):
        p, cert = reference_certificate()
        wrong = IntegralityWitness(GenExpr(0), cert.witness.denominator)
        bad = NonnegCertificate(cert.r, cert.m, cert.h, wrong)
        result = verify_nonneg_certificate(p, bad, BALL1)
        assert not result.ok and result.reason == "witness_identity_failed"

    def test_non_integral_constant_in_witness_rejected(self):
        p, cert = reference_certificate()
        wrong = IntegralityWitness(ConstExpr(FieldElement.eps_power(-1)), cert.witness.denominator)
        result = verify_nonneg_certificate(p, NonnegCertificate(cert.r, cert.m, cert.h, wrong), BALL1)
        assert not result.ok and result.reason == "witness_numerator_membership"

    def test_monic_witness_accepted(self):
        # h = x1 satisfies h^2 - x1^2 = 0 with -x1^2 in the generated ring.
        p = X1 * X1
        h = RationalFunction(X1)
        monic = (QuotientCoefficient(ProdExpr([ConstExpr(-1), GenExpr(0), GenExpr(0)]),
                                     PerturbedUnit.trivial()),
                 QuotientCoefficient(ConstExpr(0), PerturbedUnit.trivial()))
        witness = IntegralityWitness(ConstExpr(0), PerturbedUnit.trivial(), monic)
        cert = NonnegCertificate(SOSExpr([RationalFunction(X1)]), FieldElement.zero(), h, witness)
        assert verify_nonneg_certificate(p, cert, BALL1).ok

    def test_monic_witness_identity_checked(self):
        p = X1 * X1
        h = RationalFunction(X1)
        monic = (QuotientCoefficient(ConstExpr(1), PerturbedUnit.trivial()),
                 QuotientCoefficient(ConstExpr(0), PerturbedUnit.trivial()))
        witness = IntegralityWitness(ConstExpr(0), PerturbedUnit.trivial(), monic)
        cert = NonnegCertificate(SOSExpr([RationalFunction(X1)]), FieldElement.zero(), h, witness)
        result = verify_nonneg_certificate(p, cert, BALL1)
        assert not result.ok and result.reason == "witness_monic_identity_failed"


class TestVerifierSoundness:
    def test_verified_certificates_pointwise_nonneg(self):
        cases = [reference_certificate()]
        p2 = X1 * X1 + Polynomial.constant(EPS, ("x1",))
        cases.append((p2, NonnegCertificate(
            SOSExpr([RationalFunction(X1),
                     RationalFunction(Polynomial.constant(FieldElement.eps_power(F(1, 2)), ("x1",)))]),
            FieldElement.zero(), RationalFunction.constant(0, ("x1",)),
            IntegralityWitness.trivial())))
        config = SampleConfig(seed=23, samples=1000)
        for p, cert in cases:
            assert verify_nonneg_certificate(p, cert, BALL1).ok
            for b in BALL1.sample_points(config):
                assert compare_order(p.evaluate(b), FieldElement.zero()) in (GT, EQ)

    def test_witness_values_integral_on_samples(self):
        p, cert = reference_certificate()
        config = SampleConfig(seed=29, samples=300)
        for b in BALL1.sample_points(config):
            num = cert.h.num.evaluate(b)
            den = cert.h.den.evaluate(b)
            v = num.valuation() - den.valuation()
            assert v.is_top or v.value >= 0


class TestGeneration:
    def test_reproduces_reference_certificate(self):
        p = one_minus_eps_x2()
        out = generate_ball_certificate(p, BALL1, config=CONFIG)
        assert out.kind == CERTIFICATE
        cert = out.certificate
        assert cert.m == EPS
        assert cert.h == RationalFunction(X1 * X1, p)
        assert verify_nonneg_certificate(p, cert, BALL1).ok

    def test_negativity_for_eps_minus_x_squared(self):
        p = Polynomial.constant(EPS, ("x1",)) - X1 * X1
        out = generate_ball_certificate(p, BALL1, config=CONFIG)
        assert out.kind == NEGATIVITY_WITNESS
        assert compare_order(p.evaluate(list(out.point)), FieldElement.zero()) == LT

    def test_exact_gram_cross_terms(self):
        x1, x2 = Polynomial.variable("x1", ("x1", "x2")), Polynomial.variable("x2", ("x1", "x2"))
        p = x1 * x1 + (x1 * x2).scale(2) + (x2 * x2).scale(2)
        out = generate_ball_certificate(p, BALL2, config=CONFIG)
        assert out.kind == CERTIFICATE
        assert out.certificate.m.is_exact_zero()
        assert verify_nonneg_certificate(p, out.certificate, BALL2).ok

    def test_layered_eps_structure(self):
        x1, x2 = Polynomial.variable("x1", ("x1", "x2")), Polynomial.variable("x2", ("x1", "x2"))
        p = Polynomial.constant(1, ("x1", "x2")) + (x1 * x1).scale(EPS) + (x2**4).scale(FieldElement.eps_power(3))
        out = generate_ball_certificate(p, BALL2, config=CONFIG)
        assert out.kind == CERTIFICATE
        assert verify_nonneg_certificate(p, out.certificate, BALL2).ok

    def test_zero_polynomial(self):
        out = generate_ball_certificate(Polynomial(("x1",)), BALL1, config=CONFIG)
        assert out.kind == CERTIFICATE
        assert verify_nonneg_certificate(Polynomial(("x1",)), out.certificate, BALL1).ok

    def test_round_trip_corpus(self):
        # Every produced certificate passes the verifier.
        x1, x2 = Polynomial.variable("x1", ("x1", "x2")), Polynomial.variable("x2", ("x1", "x2"))
        corpus = [
            one_minus_eps_x2(),
            X1 * X1 + Polynomial.constant(EPS, ("x1",)),
            x1 * x1 + (x1 * x2).scale(2) + (x2 * x2).scale(2),
            Polynomial.constant(4, ("x1",)),
            (X1 ** 4) + (X1 * X1).scale(2) + Polynomial.constant(1, ("x1",)),
            X1 * X1 + Polynomial.constant(1, ("x1",)) + X1.scale(EPS),
        ]
        for p in corpus:
            out = generate_ball_certificate(p, SetDescriptor.unit_polydisc(len(p.variables)),
                                            config=CONFIG)
            assert out.kind == CERTIFICATE, str(p)
            sd = SetDescriptor.unit_polydisc(len(p.variables))
            assert verify_nonneg_certificate(p, out.certificate, sd).ok

    def test_sos_inverse_witness_route(self):
        # Denominator recognized as (1 + SOS) * (perturbed unit).
        p = X1 * X1 + Polynomial.constant(1, ("x1",)) + X1.scale(EPS)
        out = generate_ball_certificate(p, BALL1, config=CONFIG)
        assert out.kind == CERTIFICATE
        assert out.certificate.m == EPS
        assert verify_nonneg_certificate(p, out.certificate, BALL1).ok

    def test_unwitnessed_candidate_demoted_to_unknown(self):
        # Here the peeled h is genuinely non-integral (r was too greedy), so
        # the oracle rejects the candidate and the outcome is unknown.
        p = X1 * X1 + Polynomial.constant(EPS, ("x1",)) + X1.scale(EPS)
        out = generate_ball_certificate(p, BALL1, config=CONFIG)
        assert out.kind == UNKNOWN
        assert out.oracle is not None and out.oracle.found_counterexample

    def test_affine_module_transport(self):
        # p = x^2 on the shifted ball 1 + eps*O: nonneg, certificate transports.
        mm = AffineModuleMap((FieldElement.one(),), (EPS,))
        module = SetDescriptor.affine_module(mm)
        p = X1 * X1
        out = generate_ball_certificate(p, module, config=CONFIG)
        assert out.kind == CERTIFICATE
        assert verify_nonneg_certificate(p, out.certificate, module).ok

    def test_affine_module_negativity(self):
        # p = -x on the module centered at 1: p(1) = -1 < 0.
        mm = AffineModuleMap((FieldElement.one(),), (EPS,))
        module = SetDescriptor.affine_module(mm)
        p = -X1
        out = generate_ball_certificate(p, module, config=CONFIG)
        assert out.kind == NEGATIVITY_WITNESS
        assert module.contains(list(out.point))
        assert compare_order(p.evaluate(list(out.point)), FieldElement.zero()) == LT

    def test_strict_constraints_rejected(self):
        sd = SetDescriptor.unit_polydisc(1, strict_constraints=[X1])
        with pytest.raises(ValueError):
            generate_ball_certificate(X1 * X1, sd, config=CONFIG)


def _nonneg_sos_input(rng):
    """Shaped like the benchmark's nonneg_sos inputs: squares of seeded affine and
    quadratic forms plus a positive-definite diagonal."""
    x, y = (Polynomial.variable(v, ("x1", "x2")) for v in ("x1", "x2"))

    def c():
        return rng.choice((-1, 1)) * rng.randint(1, 2)

    lin = [x.scale(c()) + y.scale(c()) + c() for _ in range(2)]
    p = lin[0] * lin[0] + (x * y).scale(c()) ** 2 + (x * x + y.scale(c())) ** 2
    p = p + (lin[1] * lin[1]).scale(EPS)
    return p + (1 + x * x + y * y + x ** 4 + x * x * y * y).scale(rng.randint(1, 2))


class TestLayerPeeling:
    """A layer is peeled as residual - eps^gamma * lift(rbar), which must equal
    subtracting the squares of its summands, product by product."""

    def peel_each_layer(self, p, depth=3):
        """Runs generation's layer loop; returns the number of layers peeled."""
        vs = p.variables
        residual, layers = p, 0
        while layers < depth and not residual.is_exactly_zero():
            gamma = gauss_valuation(residual).value
            rbar = certificates._residue_polynomial(residual.residue_shift(gamma))
            search = residue_sos_decomposition(rbar, SosBudget(max_basis=16, denominator_cap=0))
            assert search.kind == SOS and search.power == 0
            summands, peeled = certificates._peel_layer(residual, rbar, search.squares, gamma, vs)
            by_products = residual
            for s in summands:
                assert s.den.is_one()
                by_products = by_products - s.num * s.num
            assert peeled.terms == by_products.terms and peeled.variables == by_products.variables
            residual, layers = peeled, layers + 1
        assert residual.is_exactly_zero()
        return layers

    @pytest.mark.parametrize("seed", range(6))
    def test_nonneg_sos_shaped_inputs(self, seed):
        assert self.peel_each_layer(_nonneg_sos_input(random.Random(seed))) == 2

    def test_two_layers_and_a_constant_residue(self):
        # The second layer's residue is the constant 7, a sum of four rational squares.
        p = parse_expression("(x1^2 + x2)^2 + (x1*x2 + 1)^2 + 2*(1 + x1^2 + x2^2 + x1^4) + 7*eps^(3/2)")
        assert self.peel_each_layer(p) == 2
        assert self.peel_each_layer(parse_expression("3 + eps*x1^2 + eps^2")) == 3

    def test_generation_certificates_verify(self):
        for seed in range(3):
            p = _nonneg_sos_input(random.Random(seed))
            outcome = generate_ball_certificate(p, BALL2)
            assert (outcome.kind, outcome.layers) == (CERTIFICATE, 2)
            assert verify_nonneg_certificate(p, outcome.certificate, BALL2)


# x1 = 1 + eps*y1, x2 = y2: the benchmark's affine set.
AFFINE2 = SetDescriptor.affine_module(AffineModuleMap((FieldElement.one(), FieldElement.zero()),
                                                      (EPS, FieldElement.one())))

# x1 = 1/(1+eps) + eps*y1, x2 = y2: AFFINE2 with a center known to O(eps^32).
AFFINE2_TRUNCATED = SetDescriptor.affine_module(AffineModuleMap(
    (parse_expression("1/(1+eps)"), FieldElement.zero()), (EPS, FieldElement.one())))


def _order_corpus(rng):
    """(text, set) pairs: certified, negative, Motzkin-type and truncated inputs
    on ball:1, ball:2, AFFINE2 and AFFINE2_TRUNCATED, with coefficients drawn from rng."""

    def c(bound=2):
        return rng.choice((-1, 1)) * rng.randint(1, bound)

    def lin(n):
        return f"({c()}*x1" + (f" + {c()}*x2" if n == 2 else "") + f" + {rng.randint(-2, 2)})"

    def eps_power():
        return rng.choice(("eps", "eps^2", "eps^(1/2)", "eps^(3/2)"))

    corpus = []
    for where, n in ((BALL1, 1), (BALL2, 2), (AFFINE2, 2), (AFFINE2_TRUNCATED, 2)):
        x = rng.choice(("x1", "x2")[:n])
        corpus += [
            # certified: SOS + eps-layer, and c^2 - eps*q with c = 1 + a*x^2
            (f"{lin(n)}^2 + ({x}^2 + {c()})^2 + {rng.randint(1, 2)}*(1 + {x}^2) + {eps_power()}*{lin(n)}^2", where),
            (f"(1 + {rng.randint(1, 2)}*{x}^2)^2 - eps*({c()}*{x}^2 + {c()}*{x} + {c()})", where),
            # negative: a dip of the residue, a depth of -eps^k, an odd leading form
            (f"{lin(n)}^2 - {rng.randint(1, 4)}/{rng.randint(1, 4)}", where),
            (f"{lin(n)}^2 + {rng.randint(1, 3)}*{lin(n)}^2 - {eps_power()}", where),
            (f"{lin(n)}^3 + {rng.randint(1, 3)}*eps", where),
            # truncated: 1/(1+eps) has 32 known terms, 1/(1+eps^40) only its 1
            ("1/(1+eps)*x1^2", where),
            (f"1/(1+eps)*{lin(n)}^2 - {eps_power()}", where),
            (f"1/(1+eps^40)*{lin(n)}^2 - {eps_power()}", where),
        ]
    s1, s2 = rng.randint(1, 2), rng.randint(1, 2)
    motzkin = (f"{s1**4 * s2**2}*x1^4*x2^2 + {s1**2 * s2**4}*x1^2*x2^4 - {3 * s1**2 * s2**2}*x1^2*x2^2 + 1"
               f" + {rng.randint(1, 3)}*eps*(x1^2 + x2^2)")
    return corpus + [(motzkin, BALL2), (motzkin, AFFINE2)]


def _falsified(p, where, config):
    """The point the falsifier reports for p, in the frame generation samples:
    on an affine set the image of its point for p pulled back to the polydisc."""
    if where.kind != "affine":
        return falsify_nonnegativity(align_to_set(p, where), where, config)
    ball = SetDescriptor.unit_polydisc(where.n)
    pulled = align_to_set(module_pullback(align_to_set(p, where), where.module_map), ball)
    point = falsify_nonnegativity(pulled, ball, config)
    return None if point is None else where.module_map.apply(point)


class TestCertifyBeforeFalsifying:
    """Generation samples only after the exact stages end without a certificate;
    every outcome is the one falsifying first gives, and every certificate verifies."""

    @pytest.mark.parametrize("seed", range(3))
    def test_outcomes_match_falsifying_first(self, seed):
        rng = random.Random(seed)
        kinds = set()
        for text, where in _order_corpus(rng):
            p = parse_expression(text)
            config = SampleConfig(seed=rng.randint(0, 9), samples=rng.choice((60, 150)))
            point = _falsified(p, where, config)
            # Peeling, gauss_valuation and the witness search run before the
            # falsifier: none of them may raise where its point answers.
            try:
                outcome = generate_ball_certificate(p, where, config=config)
            except PrecisionExhausted:
                assert point is None, text  # the error stands only without a point
                continue
            kinds.add(outcome.kind)
            if outcome.kind == CERTIFICATE:
                assert point is None, text
                assert falsify_nonnegativity(align_to_set(p, where), where, config) is None, text
                # Truncated data, in p or in the set's centers, never yields one.
                assert verify_nonneg_certificate(p, outcome.certificate, where), text
            if point is not None:
                assert (outcome.kind, outcome.point) == (NEGATIVITY_WITNESS, tuple(point)), text
            else:
                assert outcome.kind != NEGATIVITY_WITNESS, text
        assert kinds == {CERTIFICATE, NEGATIVITY_WITNESS, CANDIDATE, UNKNOWN}

    # Each input peels x1^2 (or eps^(1/64)*x1^2) first.  Then either the next
    # layer's valuation is hidden, since the x1^2 coefficient left is O(eps^32)
    # with no known term and the known eps^40 lies above it, or the layer's
    # summand would need eps^(1/128), past the exponent cap.
    @pytest.mark.parametrize("text, error", [("1/(1+eps^40)*x1^2", PrecisionExhausted),
                                             ("eps^(1/64)*x1^2", ExponentBlowup)])
    def test_exact_stage_error_defers_to_the_falsifier(self, text, error):
        with pytest.raises(error):
            generate_ball_certificate(parse_expression(text + " + eps^40"), BALL1, config=CONFIG)
        # Non-negative: no point answers, so the error stands.
        assert falsify_nonnegativity(parse_expression(text + " + eps^40"), BALL1, CONFIG) is None
        # Negative: the falsifier's point answers.
        p = parse_expression(text + " - eps^40")
        outcome = generate_ball_certificate(p, BALL1, config=CONFIG)
        assert outcome.kind == NEGATIVITY_WITNESS
        assert outcome.point == tuple(falsify_nonnegativity(p, BALL1, CONFIG))

    def test_known_valuation_below_a_hidden_one_decides_the_layer(self):
        # O(eps^32)*x1^2 + eps, left by the x1^2 layer, has Gauss valuation 1;
        # its residue is hidden at x1^2, so peeling stops and the rest is folded.
        outcome = generate_ball_certificate(parse_expression("1/(1+eps^40)*x1^2 + eps"), BALL1, config=CONFIG)
        assert (outcome.kind, outcome.layers) in {(CANDIDATE, 1), (UNKNOWN, 1)}


class TestGeneratedCertificatesVerify:
    """Truncated data, in p or pulled back through a truncated module map,
    proves no identity, so the exact stages report a candidate for it."""

    @pytest.mark.parametrize("text, where", [
        ("1/(1+eps) + x1^2", BALL1), ("1/(1+eps) + x1^2", BALL2), ("1/(1+eps)*x1^2", AFFINE2),
        ("1/(1+eps)*x1^2", BALL2), ("1 + x1^2", AFFINE2_TRUNCATED), ("1 - eps*x1^2", AFFINE2_TRUNCATED),
    ])
    def test_truncated_data_ends_as_a_candidate(self, text, where):
        outcome = generate_ball_certificate(parse_expression(text), where, config=CONFIG)
        assert outcome.kind == CANDIDATE, text

    def test_exact_input_on_a_truncated_set_keeps_its_certificate(self):
        # x2 keeps its exact center, so the pulled-back p is exact.
        p = parse_expression("1 - eps*x2^2")
        outcome = generate_ball_certificate(p, AFFINE2_TRUNCATED, config=CONFIG)
        assert outcome.kind == CERTIFICATE
        assert verify_nonneg_certificate(p, outcome.certificate, AFFINE2_TRUNCATED)


class TestDickmann:
    def build_valid(self, rng, frame=("x1",)):
        """A certificate whose value is a polynomial by construction.

        Plain terms contribute 1 + m*q^2; unit terms (q1 = q2, m1 = m2)
        contribute exactly 1.
        """
        x = Polynomial.variable(frame[0], frame)
        terms = []
        p = Polynomial(frame)
        for _ in range(rng.randint(1, 3)):
            q1 = x.scale(rng.randint(1, 3)) + Polynomial.constant(rng.randint(0, 2), frame)
            m1 = FieldElement.eps_power(rng.randint(1, 3), rng.randint(1, 4))
            if rng.random() < 0.5:
                terms.append(DickmannTerm(m1, q1, FieldElement.zero(), Polynomial.constant(0, frame)))
                p = p + Polynomial.constant(1, frame) + (q1 * q1).scale(m1)
            else:
                terms.append(DickmannTerm(m1, q1, m1, q1))
                p = p + Polynomial.constant(1, frame)
        return p, DickmannCertificate(tuple(terms))

    def test_examples(self):
        p = Polynomial.constant(1, ("x1",)) + (X1 * X1).scale(EPS)
        cert = DickmannCertificate((DickmannTerm(EPS, X1, FieldElement.zero(),
                                                 Polynomial.constant(0, ("x1",))),))
        assert verify_dickmann_certificate(p, cert).ok

        x1, x2 = Polynomial.variable("x1", ("x1", "x2")), Polynomial.variable("x2", ("x1", "x2"))
        p2 = Polynomial.constant(2, ("x1", "x2")) + (x1 * x1).scale(EPS) + (x2 * x2).scale(EPS)
        cert2 = DickmannCertificate((
            DickmannTerm(EPS, x1, FieldElement.zero(), Polynomial.constant(0, ("x1", "x2"))),
            DickmannTerm(EPS, x2, FieldElement.zero(), Polynomial.constant(0, ("x1", "x2"))),
        ))
        assert verify_dickmann_certificate(p2, cert2).ok

    def test_terms_in_names_p_lacks(self):
        # 1 = (1 + 0*y^2)/(1 + 0*0^2): q1 names y, which p over x does not.
        p = Polynomial.constant(1, ("x",))
        cert = DickmannCertificate((DickmannTerm(FieldElement.zero(), Polynomial.variable("y"),
                                                 FieldElement.zero(), Polynomial.constant(0)),))
        assert verify_dickmann_certificate(p, cert).ok
        wrong = DickmannCertificate((DickmannTerm(EPS, Polynomial.variable("y"),
                                                  FieldElement.zero(), Polynomial.constant(0)),))
        result = verify_dickmann_certificate(p, wrong)
        assert (result.ok, result.reason) == (False, "identity_failed")

    def test_non_integral_p_rejected(self):
        p = Polynomial.constant(FieldElement.eps_power(-1), ("x1",)) + X1 * X1
        cert = DickmannCertificate(())
        with pytest.raises(CoefficientsNotIntegral):
            verify_dickmann_certificate(p, cert)

    def test_constructed_verify_and_mutations_fail(self, rng):
        for _ in range(50):
            p, cert = self.build_valid(rng)
            assert verify_dickmann_certificate(p, cert).ok
            mutated = _mutate_dickmann(cert, rng)
            result = verify_dickmann_certificate(p, mutated)
            assert not result.ok

    def test_structural_mutations_rejected_even_when_identity_holds(self):
        # 1 + eps x^2 rewritten with m = eps^-1 and q = eps x: same value,
        # broken invariants.
        p = Polynomial.constant(1, ("x1",)) + (X1 * X1).scale(EPS)
        bad_m = DickmannCertificate((DickmannTerm(FieldElement.eps_power(-1), X1.scale(EPS),
                                                  FieldElement.zero(), Polynomial.constant(0, ("x1",))),))
        result = verify_dickmann_certificate(p, bad_m)
        assert not result.ok and result.reason == "m_not_infinitesimal"
        bad_q = DickmannCertificate((DickmannTerm(FieldElement.eps_power(3), X1.scale(FieldElement.eps_power(-1)),
                                                  FieldElement.zero(), Polynomial.constant(0, ("x1",))),))
        result2 = verify_dickmann_certificate(p, bad_q)
        assert not result2.ok and result2.reason == "q_not_integral"

    def test_verified_implies_sampled_nonneg(self, rng):
        p, cert = self.build_valid(rng)
        assert verify_dickmann_certificate(p, cert).ok
        for b in BALL1.sample_points(SampleConfig(seed=31, samples=300)):
            assert compare_order(p.evaluate(b), FieldElement.zero()) in (GT, EQ)


def _mutate_dickmann(cert: DickmannCertificate, rng) -> DickmannCertificate:
    terms = list(cert.terms)
    i = rng.randrange(len(terms))
    t = terms[i]
    if rng.random() < 0.5:
        terms[i] = DickmannTerm(t.m1 + FieldElement.eps_power(1, 3), t.q1, t.m2, t.q2)
    else:
        terms[i] = DickmannTerm(t.m1, t.q1 + Polynomial.constant(1, t.q1.variables), t.m2, t.q2)
    return DickmannCertificate(tuple(terms))


class TestCharacterizationProbe:
    def test_nonneg_consistent(self):
        report = check_general_characterization(X1 * X1, BALL1, SampleConfig(seed=3, samples=300))
        assert report.verdict == CONSISTENT_NONNEG

    def test_negativity_constructs_c(self):
        p = Polynomial.constant(EPS, ("x1",)) - X1 * X1
        report = check_general_characterization(p, BALL1, SampleConfig(seed=3, samples=300))
        assert report.verdict == NEGATIVITY_WITNESS
        assert report.c is not None
        # c^2 = -1/p(point) up to the working order
        v = p.evaluate(list(report.point))
        prod = report.c * report.c * v
        assert (prod + FieldElement.one()).is_visibly_zero()
        # confirmation point exhibits valuation(1/(1+c^2 p)) < 0
        w = FieldElement.one() + report.c * report.c * p.evaluate(list(report.confirm_point))
        assert w.valuation() > 0

    def test_zero_polynomial(self):
        report = check_general_characterization(Polynomial(("x1",)), BALL1,
                                                SampleConfig(seed=3, samples=100))
        assert report.verdict == CONSISTENT_NONNEG

    def test_non_square_leading_reports_obstruction(self):
        # p = x^2 - 3 is negative at rational points, but -1/p(b) has leading
        # coefficient 1/(3 - z^2), rarely a rational square; either a witness
        # is constructed from a lucky sample or the obstruction is reported.
        p = X1 * X1 - Polynomial.constant(3, ("x1",))
        report = check_general_characterization(p, BALL1, SampleConfig(seed=3, samples=200))
        assert report.verdict == NEGATIVITY_WITNESS
        assert (report.c is not None) or (report.obstruction is not None)

    def test_coherence_on_mixed_corpus(self):
        x1 = X1
        nonneg = [x1 * x1, Polynomial.constant(4, ("x1",)), one_minus_eps_x2()]
        negative = [Polynomial.constant(EPS, ("x1",)) - x1 * x1,
                    x1 - Polynomial.constant(1, ("x1",)),
                    x1 * x1 - Polynomial.constant(4, ("x1",))]
        config = SampleConfig(seed=19, samples=300)
        for p in nonneg:
            report = check_general_characterization(p, BALL1, config)
            assert report.verdict == CONSISTENT_NONNEG
        for p in negative:
            report = check_general_characterization(p, BALL1, config)
            assert report.verdict == NEGATIVITY_WITNESS
            assert report.c is not None
