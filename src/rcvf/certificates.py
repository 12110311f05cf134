"""Non-negativity certificates: data model, exact verification, best-effort generation.

A certificate for p on a set asserts p * (1 + m*h) = r with r a sum of
squares, m infinitesimal (or zero), and h witnessed integral on the set.  The
verifier checks the identity symbolically and the witness structurally; a
verified certificate is pointwise sound because on-set every sum of squares
is non-negative and every perturbed unit 1 + m*(integral value) is a positive
unit.

Generation peels residue layers: read the residue polynomial at p's Gauss
valuation gamma, decompose it as an exact SOS, drop the eps^gamma slice that
its squares account for, and repeat; any nonzero remainder is folded into the
m*h correction.  Points are sampled only when these exact stages end without a
certificate.  Existence proofs behind the certificate shape are
non-constructive, so generation is best-effort and an explicit
candidate-without-witness outcome is kept distinct from success.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .errors import CoefficientsNotIntegral, NotIntegral, PrecisionExhausted, RcvfError
from .integrality import IntegralityVerdict, module_pullback, pointwise_integral_oracle
from .poly import (
    Polynomial,
    RationalFunction,
    gauss_valuation,
    leading_sign,
    merge_variables,
    valuation_at,
)
from .ringexpr import (
    ConstExpr,
    PerturbedUnit,
    ProdExpr,
    RingExpr,
    SOSExpr,
    SosInverseExpr,
    infinitesimal_or_zero,
    leaf_summands,
    polynomial_to_ring_expr,
    ring_expr_to_rational,
    verify_ring_membership,
)
from .rings import FlatRing, holds
from .sampling import SampleConfig
from .series import LT, FieldElement
from .sets import SetDescriptor, align_to_set
from .sos import (
    SOS,
    ResiduePolynomial,
    SosBudget,
    psd_falsify,
    residue_sos_decomposition,
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
    """Exact check of p*(1+m*h) = sum r_i^2 plus the integrality witness.

    Every name is read through one table, built before any identity is
    checked and read by the rings as they map each value: the set's table
    (see sets.name_table) extended by the names of p, h and r, then by the
    names only witness leaves use (a leaf's summands together), so the main
    identity reads the same whatever the witness says.  cert find writes p in
    its caller's names, h and r in the set's.

    Every identity runs in one flat ring over the table (see FlatRing), which
    maps each value once for all of them.  Inexact data proves no identity:
    p, m, h or r inexact fails the main identity, an inexact leaf the
    identity it is in.
    """
    h, r, w = cert.h, cert.r, cert.witness
    trees = (w.numerator, w.denominator.a, *(e for c in w.monic or () for e in (c.num, c.den.a)))
    names = set_descriptor.read_names(
        [set(v.variables) for v in (p, h, *r.summands)],
        [set().union(*(s.variables for s in summands)) for e in trees for summands in leaf_summands(e)])
    if not infinitesimal_or_zero(cert.m):
        return VerificationResult(False, "m_not_infinitesimal")
    ring = FlatRing.over(names)
    if not holds(lambda: ring(p) * (ring(1) + ring(cert.m) * ring(h)) == r.denote(ring)):
        return VerificationResult(False, "identity_failed")
    if not verify_ring_membership(w.numerator, set_descriptor):
        return VerificationResult(False, "witness_numerator_membership")
    if not w.denominator.is_well_formed():
        return VerificationResult(False, "witness_denominator_not_unit")
    if not verify_ring_membership(w.denominator.a, set_descriptor):
        return VerificationResult(False, "witness_denominator_membership")
    if w.monic is None:
        def witness():
            num = ring_expr_to_rational(w.numerator, set_descriptor, ring)
            return ring(h) * w.denominator.denote(set_descriptor, ring) == num

        if not holds(witness):
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

        def monic():
            hr = ring(h)
            total = hr**d
            for i, c in enumerate(w.monic):
                ci = ring_expr_to_rational(c.num, set_descriptor, ring) / c.den.denote(set_descriptor, ring)
                total = total + ci * hr**i
            return total == ring(0)

        if not holds(monic):
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
    for t in cert.terms:
        if not (infinitesimal_or_zero(t.m1) and infinitesimal_or_zero(t.m2)):
            return VerificationResult(False, "m_not_infinitesimal")
        if not (_coefficients_integral(t.q1) and _coefficients_integral(t.q2)):
            return VerificationResult(False, "q_not_integral")
    ring = FlatRing.over(merge_variables(p.variables, *(q.variables for t in cert.terms for q in (t.q1, t.q2))))

    def identity():
        total = ring(0)
        one = ring(1)
        for t in cert.terms:
            q1, q2 = ring(t.q1), ring(t.q2)
            num = one + ring(t.m1) * (q1 * q1)
            den = one + ring(t.m2) * (q2 * q2)
            total = total + num / den
        return total == ring(p)

    if not holds(identity):
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
    layers: int = 0


@dataclass(frozen=True)
class GenerationBudget:
    depth: int = 3
    sos: SosBudget = SosBudget(max_basis=16, denominator_cap=0)  # frozen: safe to share


def _residue_polynomial(p: Polynomial) -> ResiduePolynomial:
    return ResiduePolynomial(p.variables, {expv: c.residue() for expv, c in p.terms.items()})


def generate_ball_certificate(p: Polynomial, set_descriptor: SetDescriptor,
                              budget: Optional[GenerationBudget] = None,
                              config: Optional[SampleConfig] = None) -> GenerationOutcome:
    """Certify or falsify non-negativity of p on a polydisc or affine module.

    The exact stages run first.  A certificate they build is sound, so no
    sampled point could refute it; points are drawn only for a p they leave
    without one.
    """
    if set_descriptor.has_strict_constraints:
        raise ValueError("generation supports polydiscs and affine modules without strict constraints")
    budget = budget or GenerationBudget()
    config = config or SampleConfig(seed=2024, samples=400)
    p = align_to_set(p, set_descriptor)
    if set_descriptor.kind == "affine":
        ball = SetDescriptor.unit_polydisc(set_descriptor.n)
        pulled = module_pullback(p, set_descriptor.module_map)
        inner = generate_ball_certificate(pulled, ball, budget, config)
        return _transport_to_module(inner, set_descriptor)
    vs = set_descriptor.variables()
    if p.is_exactly_zero():
        zero = RationalFunction.constant(0, vs)
        cert = NonnegCertificate(SOSExpr([zero]), FieldElement.zero(), zero, IntegralityWitness.trivial())
        return GenerationOutcome(CERTIFICATE, certificate=cert, gauss=None)

    try:
        outcome, failure = _exact_stages(p, set_descriptor, budget), None
    except RcvfError as exc:
        # A layer can fail where sampling does not: truncation hides its
        # valuation, or a summand's exponent passes the cap.  A point the
        # falsifier finds still refutes p; only without one does the error stand.
        outcome, failure = None, exc
    if outcome is not None and outcome.kind == CERTIFICATE:
        return outcome

    # Stage 3: pointwise falsification, for a p no certificate proves non-negative.
    witness_point = falsify_nonnegativity(p, set_descriptor, config)
    if witness_point is not None:
        return GenerationOutcome(NEGATIVITY_WITNESS, point=tuple(witness_point))
    if failure is not None:
        raise failure
    if outcome.kind != CANDIDATE:
        return outcome
    oracle = pointwise_integral_oracle(outcome.h, set_descriptor,
                                       SampleConfig(config.seed + 1, config.samples))
    # A candidate is only worth reporting when the oracle backs its h; a
    # counterexample to integrality demotes the outcome to unknown.
    kind = UNKNOWN if oracle.found_counterexample else CANDIDATE
    return replace(outcome, kind=kind, oracle=oracle)


def _exact_stages(p: Polynomial, set_descriptor: SetDescriptor,
                  budget: GenerationBudget) -> GenerationOutcome:
    """A certificate for a nonzero p, or the unknown or candidate (its oracle
    not yet run) that peeling and folding end at."""
    vs = set_descriptor.variables()
    gamma_val = gauss_valuation(p).value  # p nonzero, so rational

    # Stage 1: peel residue layers.  No point has been sampled yet; an rbar
    # negative somewhere has no exact SOS, so peeling stops there all the same.
    summands: list[RationalFunction] = []
    layers = 0
    residual = p
    while layers < budget.depth and not residual.is_exactly_zero():
        layer_gauss = gauss_valuation(residual).value
        scaled = residual.residue_shift(layer_gauss)
        try:
            rbar = _residue_polynomial(scaled)
        except (NotIntegral, PrecisionExhausted):  # truncation can hide a residue: fold the rest
            break
        search = residue_sos_decomposition(rbar, budget.sos)
        if search.kind != SOS:
            break
        if search.power:
            break  # a multiplier would make the residual a quotient; stop peeling
        layer, residual = _peel_layer(residual, rbar, search.squares, layer_gauss, vs)
        summands += layer
        layers += 1

    if not summands:
        return GenerationOutcome(UNKNOWN, gauss=gamma_val, layers=layers)
    if residual.is_exactly_zero():  # so p is exact: a truncated coefficient leaves a residual
        cert = NonnegCertificate(SOSExpr(summands), FieldElement.zero(),
                                 RationalFunction.constant(0, vs), IntegralityWitness.trivial())
        return GenerationOutcome(CERTIFICATE, certificate=cert, gauss=gamma_val, layers=layers)

    # Stage 2: fold the remainder into m*h.  q = r - p has Gauss valuation
    # strictly above p's, so m is infinitesimal and h = q/(p*m) Gauss-integral.
    q = -residual  # r_acc - p
    q_gauss = gauss_valuation(q).value
    if q_gauss <= gamma_val:
        return GenerationOutcome(UNKNOWN, gauss=gamma_val, layers=layers)
    m = FieldElement.eps_power(q_gauss - gamma_val)
    q_scaled = q.residue_shift(q_gauss - gamma_val)  # q/m, a polynomial
    h = RationalFunction(q_scaled, p)
    r_sos = SOSExpr(summands)

    # Truncated data proves no identity: for an inexact p, r, m and h stay a candidate.
    exact = all(c.precision is None for c in p.terms.values())
    witness = _syntactic_witness(p, q, gamma_val, q_gauss, set_descriptor, budget.sos) if exact else None
    if witness is not None:
        cert = NonnegCertificate(r_sos, m, h, witness)
        return GenerationOutcome(CERTIFICATE, certificate=cert, gauss=gamma_val, layers=layers)
    return GenerationOutcome(CANDIDATE, r=r_sos, m=m, h=h, gauss=gamma_val, layers=layers)


def _peel_layer(residual: Polynomial, rbar: ResiduePolynomial, squares, gamma: Fraction, vs):
    """(summands t_i eps^(gamma/2), residual minus their squares) for a layer whose
    residue rbar = sum t_i^2 with no multiplier, as the search found it.

    The search checked that identity exactly (in integers, as
    verify_residue_sos does, or by rational_square_terms for a constant), and
    lifting is a ring map, so the squares add up to eps^gamma * lift(rbar).
    That is the residual's eps^gamma slice: each monomial of rbar has its
    coefficient at eps^gamma, the residue rbar was read from, in the residual.
    So the layer is peeled by dropping that slice, and each summand
    coefficient is the single term c eps^(gamma/2).
    """
    # The value group is the rationals, hence divisible: gamma/2 always exists.
    half = Fraction(gamma, 2)
    summands = [RationalFunction(t.lift(vs, half)) for t in squares]
    return summands, residual.without_slice(gamma, rbar.terms)


def falsify_nonnegativity(p: Polynomial, set_descriptor: SetDescriptor,
                          config: SampleConfig) -> Optional[list[FieldElement]]:
    """Exact p(b) < 0 search: config.samples sampled points plus the residue-level falsifier."""
    for b, form in set_descriptor.stream_forms(config):
        try:
            if leading_sign(p, b, form) == LT:
                return list(b)
        except PrecisionExhausted:
            continue
    gamma = gauss_valuation(p)
    if gamma.is_top:
        return None
    scaled = p.residue_shift(gamma.value)
    try:
        rbar = _residue_polynomial(scaled)
    except (NotIntegral, PrecisionExhausted):
        return None
    z = psd_falsify(rbar, config)
    if z is not None:
        pt = [FieldElement.from_rational(x) for x in z]
        try:
            on_set = set_descriptor.contains(pt)
        except PrecisionExhausted:
            on_set = False
        if on_set and leading_sign(p, pt) == LT:
            return pt
    return None


def _syntactic_witness(p: Polynomial, q: Polynomial, gamma: Fraction, q_gauss: Fraction,
                       set_descriptor: SetDescriptor, sos_budget: SosBudget) -> Optional[IntegralityWitness]:
    """Recognize the denominator of h = q1/P as (1 + SOS) * (perturbed unit).

    P = p/eps^gamma has Gauss valuation 0.  When its residue polynomial is
    1 + s with s an exact residue SOS, P factors as
    (1 + s~)(1 + m2 * a/(1 + s~)) with s~ the lift of s, so

        h = [q1 * inv(1+s~)] / (1 + m2 * [a * inv(1+s~)])

    where inv(1+s~) is an SOS-inverse leaf: numerator and perturbation both
    live in the generated ring, which is the localized witness shape.  When
    s = 0 there is no leaf and h = q1 / (1 + m2 * a).
    """
    P = p.residue_shift(gamma)
    try:
        pbar = _residue_polynomial(P)
    except NotIntegral:
        return None
    vs = set_descriptor.variables()
    shift = pbar - ResiduePolynomial.constant(1, pbar.variables)
    inv_leaf = None
    if not shift.is_exactly_zero():
        search = residue_sos_decomposition(shift, sos_budget)
        if search.kind != SOS or search.power:
            return None
        sos_lift = SOSExpr([RationalFunction(t.lift(vs)) for t in search.squares])
        inv_leaf = SosInverseExpr(sos_lift)

    def over_one_plus_s(e: RingExpr) -> RingExpr:
        return e if inv_leaf is None else ProdExpr([e, inv_leaf])

    q1 = q.residue_shift(q_gauss)  # q/(eps^gamma * m): Gauss valuation 0
    num = over_one_plus_s(polynomial_to_ring_expr(q1, set_descriptor))
    one_plus_s = Polynomial.constant(1, vs) + shift.lift(vs)
    correction = P - one_plus_s
    if correction.is_exactly_zero():
        return IntegralityWitness(num, PerturbedUnit.trivial())
    delta = gauss_valuation(correction).value
    if delta <= 0:
        return None
    a_poly = correction.residue_shift(delta)
    den = PerturbedUnit(FieldElement.eps_power(delta),
                        over_one_plus_s(polynomial_to_ring_expr(a_poly, set_descriptor)))
    return IntegralityWitness(num, den)


def _transport_to_module(outcome: GenerationOutcome,
                         module_set: SetDescriptor) -> GenerationOutcome:
    """Move a polydisc result through the module map.

    Ring-expression trees transport verbatim (generator leaves re-denote);
    SOS summands and h compose with the inverse coordinate map.
    """
    if outcome.kind == NEGATIVITY_WITNESS:
        return replace(outcome, point=tuple(module_set.module_map.apply(outcome.point)))
    gens = module_set.generators()

    def compose(rf: RationalFunction) -> RationalFunction:
        return rf.num.substitute(gens) / rf.den.substitute(gens)

    def moved(x):  # a certificate or a candidate outcome: r and h compose
        return replace(x, r=SOSExpr([compose(s) for s in x.r.summands]), h=compose(x.h))

    if outcome.kind == CERTIFICATE:
        return replace(outcome, certificate=moved(outcome.certificate))
    if outcome.kind == CANDIDATE:
        return moved(outcome)
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


def check_general_characterization(p: Polynomial, set_descriptor: SetDescriptor,
                                   config: Optional[SampleConfig] = None) -> CharacterizationReport:
    """Probe: p negative somewhere on sampled points iff some 1/(1+c^2 p) value
    is non-integral (with c constructed from the negativity when representable).
    With no negative sample no c is tested: p(b) >= 0 makes 1 + c^2 p(b) >= 1, of
    valuation <= 0, so its inverse is integral."""
    config = config or SampleConfig(seed=11, samples=500)
    p = align_to_set(p, set_descriptor)
    points = set_descriptor.sample_points(config)
    tested = 0
    negative_points: list[list[FieldElement]] = []
    for b in points:
        try:
            sign = leading_sign(p, b)
        except PrecisionExhausted:
            continue
        tested += 1
        if sign == LT:
            negative_points.append(list(b))
    if not negative_points:
        return CharacterizationReport(CONSISTENT_NONNEG, samples_tested=tested)
    # Construct c with c^2 = -1/p(b) from a negative sample, then confirm a
    # nearby point where 1 + c^2 p has strictly positive visible valuation.
    obstruction = None
    for b in negative_points:
        v = p.evaluate(b)
        try:
            c = (-v.invert()).sqrt()
        except RcvfError as exc:
            obstruction = type(exc).__name__
            continue
        for cc in (c, c * (FieldElement.one() + FieldElement.eps_power(1))):
            confirm = _confirm_non_integrality(p, cc, b, points, set_descriptor)
            if confirm is not None:
                return CharacterizationReport(NEGATIVITY_WITNESS, point=tuple(b), c=cc,
                                              confirm_point=tuple(confirm),
                                              samples_tested=tested)
    return CharacterizationReport(NEGATIVITY_WITNESS, point=tuple(negative_points[0]), c=None,
                                  obstruction=obstruction or "no_confirmation_point",
                                  samples_tested=tested)


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
    w = p.scale(c * c) + 1
    for bp in candidates:
        try:
            if not set_descriptor.contains(bp):
                continue
            v = valuation_at(w, bp)
        except PrecisionExhausted:
            continue
        if not v.is_top and v.value > 0:
            return bp
    return None
