"""Quick deterministic property suite behind `rcvf selftest`."""

from __future__ import annotations

from fractions import Fraction

from .integrality import generic_type_integral, pointwise_integral_oracle
from .parser import parse_expression
from .poly import Polynomial, RationalFunction, gauss_valuation, valuation_at
from .sampling import SampleConfig, _rng, random_element, random_positive_element
from .series import FieldElement
from .sets import SetDescriptor


def run_selftest(seed: int) -> dict:
    checks = []

    def check(name, ok):
        checks.append({"name": name, "ok": bool(ok)})

    config = SampleConfig(seed=seed, samples=200)

    ok = True
    for i in range(300):
        rng = _rng(seed, 1000 + i)
        a = random_positive_element(rng)
        b = a + random_positive_element(rng)
        if not (a.valuation() >= b.valuation()):
            ok = False
            break
    check("order_valuation_axiom", ok)

    ok = True
    for i in range(100):
        rng = _rng(seed, 2000 + i)
        r = FieldElement.zero()
        for _ in range(rng.randint(1, 3)):
            s = random_element(rng, Fraction(-2))
            r = r + s * s
        w = FieldElement.one() + r
        if not (-w.valuation()) >= 0:
            ok = False
            break
    check("sos_unit_integral", ok)

    ok = True
    ball = SetDescriptor.unit_polydisc(1)
    x = Polynomial.variable("x1")
    q = x * x - x + Polynomial.constant(FieldElement.eps_power(1), ("x1",))
    g = gauss_valuation(q)
    for b in ball.sample_points(config, count=100):
        if valuation_at(q, b) < g:
            ok = False
            break
    check("gauss_lower_bound", ok)

    h = RationalFunction(x + Polynomial.constant(FieldElement.eps_power(1), ("x1",)), x)
    verdict = pointwise_integral_oracle(h, ball, config)
    check("divergence_counterexample", generic_type_integral(h, ball) and verdict.found_counterexample)

    ok = True
    for text in ("1 - eps*x^2", "eps^(3/2)", "(x + eps)/(x)", "3/2*eps + x^2"):
        v = parse_expression(text)
        v2 = parse_expression(str(v) if not isinstance(v, RationalFunction)
                              else f"({v.num})/({v.den})")
        if isinstance(v, FieldElement):
            same = (v - v2).is_exact_zero()
        else:
            same = v == v2
        if not same:
            ok = False
            break
    check("print_parse_round_trip", ok)

    return {"passed": all(c["ok"] for c in checks), "checks": checks}
