"""Exact arithmetic over truncated Puiseux series, integrality oracles on
valuation-defined sets, and sum-of-squares non-negativity certificates."""

from .errors import (
    CoefficientsNotIntegral,
    DivisionByZero,
    ExponentBlowup,
    NegativeElement,
    NonSquareLeadingCoefficient,
    NotIntegral,
    NotInfinitesimalDefinite,
    ParseError,
    PrecisionExhausted,
    RcvfError,
    UndefinedGauss,
)
from .series import (
    EQ,
    GT,
    LT,
    TOP,
    FieldElement,
    ValueGroupElement,
    compare_order,
    default_truncation,
    field_arith,
    invert,
    residue,
    set_default_truncation,
    sqrt,
    valuation,
)
from .sampling import SampleConfig, sample_ball
from .poly import (
    Polynomial,
    RationalFunction,
    ResiduePolynomial,
    gauss_valuation,
    poly_eval,
    valuation_at,
)
from .sets import AffineModuleMap, SetDescriptor
from .ringexpr import (
    ConeExpr,
    ConeInverseExpr,
    ConstExpr,
    GenExpr,
    PerturbedUnit,
    ProdExpr,
    RingExpr,
    SOSExpr,
    SosInverseExpr,
    SumExpr,
    eval_ring_expr,
    ring_expr_to_rational,
    verify_ring_membership,
    verify_sos_expression,
)
from .integrality import (
    IntegralityVerdict,
    generic_type_integral,
    infinitesimal_decompose,
    module_pullback,
    pointwise_integral_oracle,
)
from .sos import (
    ResidueQuotient,
    SosBudget,
    psd_falsify,
    residue_sos_search,
    verify_residue_sos,
)
from .certificates import (
    CharacterizationReport,
    DickmannCertificate,
    DickmannTerm,
    GenerationBudget,
    GenerationOutcome,
    IntegralityWitness,
    NonnegCertificate,
    QuotientCoefficient,
    VerificationResult,
    check_general_characterization,
    generate_ball_certificate,
    verify_dickmann_certificate,
    verify_nonneg_certificate,
)
from .parser import parse_expression

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
