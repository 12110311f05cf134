"""Non-negativity certificates: data model, exact verification, best-effort generation.

A certificate for p on a set asserts p * (1 + m*h) = r with r a sum of
squares, m infinitesimal (or zero), and h witnessed integral on the set.  The
verifier checks the identity symbolically and the witness structurally; a
verified certificate is pointwise sound because on-set every sum of squares
is non-negative and every perturbed unit 1 + m*(integral value) is a positive
unit.

Generation peels residue layers: scale p by its Gauss valuation, decompose
the residue polynomial as an exact SOS, subtract the lift, and repeat; any
nonzero remainder is folded into the m*h correction.  Existence proofs behind
the certificate shape are non-constructive, so generation is best-effort and
an explicit candidate-without-witness outcome is kept distinct from success.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import CoefficientsNotIntegral, DivisionByZero, NotIntegral, PrecisionExhausted
from .integrality import pointwise_integral_oracle, IntegralityVerdict, module_pullback
from .poly import Polynomial, RationalFunction, gauss_valuation
from .ringexpr import (
    ConstExpr,
    PerturbedUnit,
    ProdExpr,
    RingExpr,
    SOSExpr,
    SosInverseExpr,
    infinitesimal_or_zero,
    polynomial_to_ring_expr,
    ring_expr_to_rational,
    verify_ring_membership,
)
from .sampling import SampleConfig, _rng
from .series import EQ, GT, LT, FieldElement, compare_order, rational_sqrt
from .sets import SetDescriptor, align_to_set, canonical_variables
from .sos import (
    NEGATIVITY,
    SOS,
    ResiduePolynomial,
    SosBudget,
    psd_falsify,
    residue_sos_search,
)


@dataclass(frozen=True)
class QuotientCoefficient:
    """An element of the localized ring: ring expression over a perturbed unit."""

    num: RingExpr
    den: PerturbedUnit


@dataclass(frozen=True)
class IntegralityWitness:
    """Witness that h is integral on the set.

    Without ``monic``: h must equal num/den identically.  With ``monic`` =
    [c_0..c_{d-1}]: h^d + sum c_i h^i = 0 must hold with each c_i in the
    localized ring.
    """

    numerator: RingExpr
    denominator: PerturbedUnit
    monic: Optional[tuple[QuotientCoefficient, ...]] = None

    @staticmethod
    def trivial() -> "IntegralityWitness":
        return IntegralityWitness(ConstExpr(0), PerturbedUnit.trivial())


@dataclass(frozen=True)
class NonnegCertificate:
    r: SOSExpr
    m: FieldElement
    h: RationalFunction
    witness: IntegralityWitness


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def verify_nonneg_certificate(p: Polynomial, cert: NonnegCertificate,
                              set_descriptor: SetDescriptor) -> VerificationResult:
    """Exact check of p*(1+m*h) = sum r_i^2 plus the integrality witness."""
    p = align_to_set(p, set_descriptor)
    h = align_to_set(cert.h, set_descriptor)
    vs = set_descriptor.variables()
    if not infinitesimal_or_zero(cert.m):
        return VerificationResult(False, "m_not_infinitesimal")
    one = RationalFunction.constant(1, vs)
    m_rf = RationalFunction.constant(cert.m, vs)
    lhs = RationalFunction(p) * (one + m_rf * h)
    rhs = None
    for s in cert.r.summands:
        s = align_to_set(s, set_descriptor)
        sq = s * s
        rhs = sq if rhs is None else rhs + sq
    if lhs != rhs:
        return VerificationResult(False, "identity_failed")
    w = cert.witness
    if not verify_ring_membership(w.numerator, set_descriptor):
        return VerificationResult(False, "witness_numerator_membership")
    if not w.denominator.is_well_formed():
        return VerificationResult(False, "witness_denominator_not_unit")
    if not verify_ring_membership(w.denominator.a, set_descriptor):
        return VerificationResult(False, "witness_denominator_membership")
    if w.monic is None:
        num_rf = ring_expr_to_rational(w.numerator, set_descriptor)
        den_rf = w.denominator.denote(set_descriptor)
        if h * den_rf != num_rf:
            return VerificationResult(False, "witness_identity_failed")
    else:
        d = len(w.monic)
        if d == 0:
            return VerificationResult(False, "witness_monic_empty")
        for c in w.monic:
            if not verify_ring_membership(c.num, set_descriptor):
                return VerificationResult(False, "witness_monic_membership")
            if not c.den.is_well_formed() or not verify_ring_membership(c.den.a, set_descriptor):
                return VerificationResult(False, "witness_monic_denominator")
        total = h**d
        for i, c in enumerate(w.monic):
            ci = ring_expr_to_rational(c.num, set_descriptor) / c.den.denote(set_descriptor)
            total = total + ci * h**i
        if total != RationalFunction.constant(0, vs):
            return VerificationResult(False, "witness_monic_identity_failed")
    return VerificationResult(True)


# -- Dickmann-style certificates over the valuation ring -----------------------


@dataclass(frozen=True)
class DickmannTerm:
    m1: FieldElement
    q1: Polynomial
    m2: FieldElement
    q2: Polynomial


@dataclass(frozen=True)
class DickmannCertificate:
    terms: tuple[DickmannTerm, ...]


def _coefficients_integral(p: Polynomial) -> bool:
    for c in p.terms.values():
        if c.valuation() < 0:
            return False
    return True


def verify_dickmann_certificate(p: Polynomial, cert: DickmannCertificate) -> VerificationResult:
    """p = sum (1 + m1*q1^2)/(1 + m2*q2^2) with integral q's and infinitesimal m's."""
    if not _coefficients_integral(p):
        raise CoefficientsNotIntegral("certificate form requires coefficients in the valuation ring")
    vs = p.variables
    for t in cert.terms:
        if not (infinitesimal_or_zero(t.m1) and infinitesimal_or_zero(t.m2)):
            return VerificationResult(False, "m_not_infinitesimal")
        if not (_coefficients_integral(t.q1) and _coefficients_integral(t.q2)):
            return VerificationResult(False, "q_not_integral")
    total = RationalFunction.constant(0, vs)
    one = RationalFunction.constant(1, vs)
    for t in cert.terms:
        q1 = t.q1.with_variables(vs) if t.q1.variables != vs else t.q1
        q2 = t.q2.with_variables(vs) if t.q2.variables != vs else t.q2
        num = one + RationalFunction.constant(t.m1, vs) * RationalFunction(q1 * q1)
        den = one + RationalFunction.constant(t.m2, vs) * RationalFunction(q2 * q2)
        total = total + num / den
    if total != RationalFunction(p):
        return VerificationResult(False, "identity_failed")
    return VerificationResult(True)


# -- generation ------------------------------------------------------------------


CERTIFICATE = "certificate"
NEGATIVITY_WITNESS = "negativity_witness"
CANDIDATE = "candidate_without_witness"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class GenerationOutcome:
    kind: str
    certificate: Optional[NonnegCertificate] = None
    point: Optional[tuple[FieldElement, ...]] = None
    r: Optional[SOSExpr] = None
    m: Optional[FieldElement] = None
    h: Optional[RationalFunction] = None
    oracle: Optional[IntegralityVerdict] = None
    gauss: Optional[Fraction] = None
    gauss_in_two_gamma: bool = True
    layers: int = 0


@dataclass(frozen=True)
class GenerationBudget:
    depth: int = 3
    sos: SosBudget = field(default_factory=lambda: SosBudget(max_basis=16, denominator_cap=0))
    falsifier_samples: int = 400


def _residue_polynomial(p: Polynomial) -> ResiduePolynomial:
    terms = {}
    for expv, c in p.terms.items():
        terms[expv] = c.residue()
    return ResiduePolynomial(p.variables, terms)


def _lift_residue(q: ResiduePolynomial, variables) -> Polynomial:
    return Polynomial(variables, q.terms)


def _embed_rational_point(point: Sequence[Fraction]) -> list[FieldElement]:
    return [FieldElement.from_rational(x) for x in point]


def generate_ball_certificate(p: Polynomial, set_descriptor: SetDescriptor,
                              budget: Optional[GenerationBudget] = None,
                              config: Optional[SampleConfig] = None) -> GenerationOutcome:
    """Falsify or certify non-negativity of p on a polydisc or affine module."""
    if set_descriptor.has_strict_constraints:
        raise ValueError("generation supports polydiscs and affine modules without strict constraints")
    budget = budget or GenerationBudget()
    config = config or SampleConfig(seed=2024, samples=budget.falsifier_samples)
    p = align_to_set(p, set_descriptor)
    if set_descriptor.kind == "affine":
        ball = SetDescriptor.unit_polydisc(set_descriptor.n)
        pulled = align_to_set(module_pullback(p, set_descriptor.module_map), ball)
        inner = generate_ball_certificate(pulled, ball, budget, config)
        return _transport_to_module(inner, set_descriptor)
    vs = set_descriptor.variables()
    if p.is_exactly_zero():
        cert = NonnegCertificate(SOSExpr([RationalFunction.constant(0, vs)]),
                                 FieldElement.zero(),
                                 RationalFunction.constant(0, vs),
                                 IntegralityWitness.trivial())
        return GenerationOutcome(CERTIFICATE, certificate=cert, gauss=None)

    # Stage 1: pointwise falsification.
    witness_point = falsify_nonnegativity(p, set_descriptor, config, budget.falsifier_samples)
    if witness_point is not None:
        return GenerationOutcome(NEGATIVITY_WITNESS, point=tuple(witness_point))

    gamma = gauss_valuation(p)
    gamma_val = gamma.value  # p nonzero, so rational
    # Value group is the rationals, hence divisible: gamma/2 always exists.
    in_two_gamma = True

    # Stage 2: peel residue layers.
    summands: list[RationalFunction] = []
    layers = 0
    residual = p
    while layers < budget.depth:
        if residual.is_exactly_zero():
            cert = NonnegCertificate(SOSExpr([RationalFunction(s) if isinstance(s, Polynomial) else s
                                              for s in summands]),
                                     FieldElement.zero(),
                                     RationalFunction.constant(0, vs),
                                     IntegralityWitness.trivial())
            return GenerationOutcome(CERTIFICATE, certificate=cert, gauss=gamma_val,
                                     gauss_in_two_gamma=in_two_gamma, layers=layers)
        layer_gauss = gauss_valuation(residual).value
        scaled = residual.residue_shift(layer_gauss)
        try:
            rbar = _residue_polynomial(scaled)
        except NotIntegral:
            break
        search = residue_sos_search(rbar, budget.sos, config)
        if search.kind == NEGATIVITY:
            if layers == 0:
                pt = _embed_rational_point(search.point)
                if compare_order(p.evaluate(pt), FieldElement.zero()) == LT:
                    return GenerationOutcome(NEGATIVITY_WITNESS, point=tuple(pt))
            break
        if search.kind != SOS:
            break
        half = FieldElement.eps_power(Fraction(layer_gauss, 2))
        layer_polys = []
        for quot in search.quotients:
            num = _lift_residue(quot.num, vs).scale(half)
            den = _lift_residue(quot.den, vs)
            layer_polys.append(RationalFunction(num, den))
        layer_sum = Polynomial(vs)
        plain = all(q.den.is_constant() for q in search.quotients)
        if not plain:
            break  # rational layers would make the residual a quotient; stop peeling
        for rf in layer_polys:
            summands.append(rf)
            layer_sum = layer_sum + rf.num * rf.num  # den == 1 here
        residual = residual - layer_sum
        layers += 1

    if not summands:
        return GenerationOutcome(UNKNOWN, gauss=gamma_val, gauss_in_two_gamma=in_two_gamma,
                                 layers=layers)
    if residual.is_exactly_zero():
        cert = NonnegCertificate(SOSExpr(summands), FieldElement.zero(),
                                 RationalFunction.constant(0, vs), IntegralityWitness.trivial())
        return GenerationOutcome(CERTIFICATE, certificate=cert, gauss=gamma_val,
                                 gauss_in_two_gamma=in_two_gamma, layers=layers)

    # Stage 3: fold the remainder into m*h.  q = r - p has Gauss valuation
    # strictly above p's, so m is infinitesimal and h = q/(p*m) Gauss-integral.
    q = -residual  # r_acc - p
    q_gauss = gauss_valuation(q).value
    if q_gauss <= gamma_val:
        return GenerationOutcome(UNKNOWN, gauss=gamma_val, gauss_in_two_gamma=in_two_gamma,
                                 layers=layers)
    m = FieldElement.eps_power(q_gauss - gamma_val)
    q_scaled = q.residue_shift(q_gauss - gamma_val)  # q/m, a polynomial
    h = RationalFunction(q_scaled, p)
    r_sos = SOSExpr(summands)

    witness = _syntactic_witness(p, q, gamma_val, q_gauss, set_descriptor)
    if witness is not None:
        cert = NonnegCertificate(r_sos, m, h, witness)
        return GenerationOutcome(CERTIFICATE, certificate=cert, gauss=gamma_val,
                                 gauss_in_two_gamma=in_two_gamma, layers=layers)
    oracle = pointwise_integral_oracle(h, set_descriptor,
                                       config.with_seed(config.seed + 1))
    # A candidate is only worth reporting when the oracle backs its h; a
    # counterexample to integrality demotes the outcome to unknown.
    kind = UNKNOWN if oracle.found_counterexample else CANDIDATE
    return GenerationOutcome(kind, r=r_sos, m=m, h=h, oracle=oracle,
                             gauss=gamma_val, gauss_in_two_gamma=in_two_gamma, layers=layers)


def falsify_nonnegativity(p: Polynomial, set_descriptor: SetDescriptor, config: SampleConfig,
                          samples: int) -> Optional[list[FieldElement]]:
    """Exact p(b) < 0 search: sampled points plus the residue-level falsifier."""
    pts = set_descriptor.sample_points(config, count=samples)
    for b in pts:
        try:
            if compare_order(p.evaluate(b), FieldElement.zero()) == LT:
                return list(b)
        except PrecisionExhausted:
            continue
    gamma = gauss_valuation(p)
    if gamma.is_top:
        return None
    scaled = p.residue_shift(gamma.value)
    try:
        rbar = _residue_polynomial(scaled)
    except NotIntegral:
        return None
    z = psd_falsify(rbar, config)
    if z is not None:
        pt = _embed_rational_point(z)
        try:
            on_set = set_descriptor.contains(pt)
        except PrecisionExhausted:
            on_set = False
        if on_set and compare_order(p.evaluate(pt), FieldElement.zero()) == LT:
            return pt
    return None


def _syntactic_witness(p: Polynomial, q: Polynomial, gamma: Fraction, q_gauss: Fraction,
                       set_descriptor: SetDescriptor) -> Optional[IntegralityWitness]:
    """Recognize the denominator of h = q1/P as (1 + SOS) * (perturbed unit).

    P = p/eps^gamma has Gauss valuation 0.  When its residue polynomial is
    1 + s with s an exact residue SOS, P factors as
    (1 + s~)(1 + m2 * a/(1 + s~)) with s~ the lift of s, so

        h = [q1 * inv(1+s~)] / (1 + m2 * [a * inv(1+s~)])

    where inv(1+s~) is an SOS-inverse leaf: numerator and perturbation both
    live in the generated ring, which is the localized witness shape.
    """
    P = p.residue_shift(gamma)
    try:
        pbar = _residue_polynomial(P)
    except NotIntegral:
        return None
    vs = set_descriptor.variables()
    q1 = q.residue_shift(q_gauss)  # q/(eps^gamma * m): Gauss valuation 0
    q1_expr = polynomial_to_ring_expr(q1, set_descriptor)
    shift = pbar - ResiduePolynomial.constant(1, pbar.variables)
    if shift.is_exactly_zero():
        correction = P - Polynomial.constant(1, P.variables)
        if correction.is_exactly_zero():
            return IntegralityWitness(q1_expr, PerturbedUnit.trivial())
        delta = gauss_valuation(correction).value
        if delta <= 0:
            return None
        a_poly = correction.residue_shift(delta)
        den = PerturbedUnit(FieldElement.eps_power(delta),
                            polynomial_to_ring_expr(a_poly, set_descriptor))
        return IntegralityWitness(q1_expr, den)
    search = residue_sos_search(shift, SosBudget(max_basis=16, denominator_cap=0))
    if search.kind != SOS or any(not t.den.is_constant() for t in search.quotients):
        return None
    sos_lift = SOSExpr([RationalFunction(_lift_residue(t.num, vs)) for t in search.quotients])
    inv_leaf = SosInverseExpr(sos_lift)
    one_plus_s = Polynomial.constant(1, vs) + _lift_residue(shift, vs)
    correction = P.with_variables(vs) if P.variables != vs else P
    correction = correction - one_plus_s
    if correction.is_exactly_zero():
        return IntegralityWitness(ProdExpr([q1_expr, inv_leaf]), PerturbedUnit.trivial())
    delta = gauss_valuation(correction).value
    if delta <= 0:
        return None
    a_poly = correction.residue_shift(delta)
    den = PerturbedUnit(FieldElement.eps_power(delta),
                        ProdExpr([polynomial_to_ring_expr(a_poly, set_descriptor), inv_leaf]))
    return IntegralityWitness(ProdExpr([q1_expr, inv_leaf]), den)


def _transport_to_module(outcome: GenerationOutcome,
                         module_set: SetDescriptor) -> GenerationOutcome:
    """Move a polydisc result through the module map.

    Ring-expression trees transport verbatim (generator leaves re-denote);
    SOS summands and h compose with the inverse coordinate map.
    """
    mm = module_set.module_map
    if outcome.kind == NEGATIVITY_WITNESS:
        return GenerationOutcome(NEGATIVITY_WITNESS, point=tuple(mm.apply(list(outcome.point))))
    gens = module_set.generators()

    def compose(rf: RationalFunction) -> RationalFunction:
        return rf.substitute_rational(gens)

    if outcome.kind == CERTIFICATE:
        cert = outcome.certificate
        new_r = SOSExpr([compose(align_to_set(s, module_set)) for s in cert.r.summands])
        new_h = compose(align_to_set(cert.h, module_set))
        new_cert = NonnegCertificate(new_r, cert.m, new_h, cert.witness)
        return GenerationOutcome(CERTIFICATE, certificate=new_cert, gauss=outcome.gauss,
                                 gauss_in_two_gamma=outcome.gauss_in_two_gamma,
                                 layers=outcome.layers)
    if outcome.kind == CANDIDATE:
        new_r = SOSExpr([compose(align_to_set(s, module_set)) for s in outcome.r.summands])
        new_h = compose(align_to_set(outcome.h, module_set))
        return GenerationOutcome(CANDIDATE, r=new_r, m=outcome.m, h=new_h, oracle=outcome.oracle,
                                 gauss=outcome.gauss, gauss_in_two_gamma=outcome.gauss_in_two_gamma,
                                 layers=outcome.layers)
    return outcome


# -- general characterization probe ----------------------------------------------


CONSISTENT_NONNEG = "consistent_nonneg"


@dataclass(frozen=True)
class CharacterizationReport:
    verdict: str
    point: Optional[tuple[FieldElement, ...]] = None
    c: Optional[FieldElement] = None
    confirm_point: Optional[tuple[FieldElement, ...]] = None
    obstruction: Optional[str] = None
    samples_tested: int = 0
    c_values_tested: int = 0

    @property
    def found_negativity(self) -> bool:
        return self.verdict == NEGATIVITY_WITNESS


def _c_pool(config: SampleConfig, count: int) -> list[FieldElement]:
    rng = _rng(config.seed, 0xCEE)
    pool = [FieldElement.from_rational(Fraction(k, 2)) for k in (0, 1, 2, 3, 4)]
    pool.append(FieldElement.eps_power(1))
    pool.append(FieldElement.eps_power(-1))
    while len(pool) < count:
        pool.append(FieldElement.from_rational(Fraction(rng.randint(-12, 12), rng.randint(1, 6))))
    return pool[:count]


def check_general_characterization(p: Polynomial, set_descriptor: SetDescriptor,
                                   config: Optional[SampleConfig] = None,
                                   c_values: int = 10) -> CharacterizationReport:
    """Probe: p negative somewhere on sampled points iff some 1/(1+c^2 p) value
    is non-integral (with c constructed from the negativity when representable)."""
    config = config or SampleConfig(seed=11, samples=500)
    p = align_to_set(p, set_descriptor)
    points = set_descriptor.sample_points(config)
    cs = _c_pool(config, c_values)
    tested = 0
    negative_points: list[list[FieldElement]] = []
    for b in points:
        try:
            v = p.evaluate(b)
            sign = compare_order(v, FieldElement.zero())
        except PrecisionExhausted:
            continue
        tested += 1
        if sign == LT:
            negative_points.append(list(b))
    # Integrality spot checks with the fixed c pool.  For p >= 0 on samples
    # these can never fire (1 + c^2 p(b) >= 1 forces valuation <= 0, so the
    # inverse is integral); the check guards the equivalence anyway.
    if not negative_points:
        for b in points[: max(1, len(points) // 4)]:
            for c in cs:
                w = FieldElement.one() + c * c * p.evaluate(b)
                if w.terms and w.terms[0][0] > 0:
                    return CharacterizationReport(NEGATIVITY_WITNESS, point=tuple(b), c=c,
                                                  confirm_point=tuple(b),
                                                  samples_tested=tested, c_values_tested=len(cs))
        return CharacterizationReport(CONSISTENT_NONNEG, samples_tested=tested,
                                      c_values_tested=len(cs))
    # Construct c with c^2 = -1/p(b) from a negative sample, then confirm a
    # nearby point where 1 + c^2 p has strictly positive visible valuation.
    obstruction = None
    for b in negative_points:
        v = p.evaluate(b)
        try:
            c = (-v.invert()).sqrt()
        except Exception as exc:
            obstruction = type(exc).__name__
            continue
        for cc in (c, c * (FieldElement.one() + FieldElement.eps_power(1))):
            confirm = _confirm_non_integrality(p, cc, b, points, set_descriptor)
            if confirm is not None:
                return CharacterizationReport(NEGATIVITY_WITNESS, point=tuple(b), c=cc,
                                              confirm_point=tuple(confirm),
                                              samples_tested=tested, c_values_tested=len(cs))
    return CharacterizationReport(NEGATIVITY_WITNESS, point=tuple(negative_points[0]), c=None,
                                  obstruction=obstruction or "no_confirmation_point",
                                  samples_tested=tested, c_values_tested=len(cs))


def _confirm_non_integrality(p: Polynomial, c: FieldElement, b: list[FieldElement],
                             points, set_descriptor: SetDescriptor):
    """A point b' with visible valuation(1 + c^2 p(b')) > 0, i.e. the inverse
    has negative valuation there."""
    candidates = []
    n = set_descriptor.n
    for k in (1, 2):
        for i in range(n):
            shifted = list(b)
            shifted[i] = shifted[i] + FieldElement.eps_power(k)
            candidates.append(shifted)
    candidates.extend(points[:50])
    c2 = c * c
    for bp in candidates:
        try:
            if not set_descriptor.contains(bp):
                continue
            w = FieldElement.one() + c2 * p.evaluate(bp)
        except PrecisionExhausted:
            continue
        if w.terms and w.terms[0][0] > 0:
            return bp
    return None
