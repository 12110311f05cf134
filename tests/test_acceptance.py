"""Acceptance criteria, one test per criterion, printing one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All randomized pieces are seeded and reproducible.
"""

import contextlib
import io
import json
import random
from fractions import Fraction

import pytest

from rcvf.certificates import (
    CERTIFICATE,
    CONSISTENT_NONNEG,
    NEGATIVITY_WITNESS,
    DickmannCertificate,
    DickmannTerm,
    check_general_characterization,
    generate_ball_certificate,
    verify_dickmann_certificate,
    verify_nonneg_certificate,
)
from rcvf.cli import run
from rcvf.integrality import generic_type_integral
from rcvf.poly import Polynomial, RationalFunction, gauss_valuation, valuation_at
from rcvf.sampling import SampleConfig, _rng
from rcvf.series import EQ, GT, LT, FieldElement, compare_order
from rcvf.sets import SetDescriptor

F = Fraction
EPS = FieldElement.eps_power(1)
X1 = Polynomial.variable("x1")


def report(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(list(argv))
    return code, buf.getvalue()


def random_positive(rng, max_terms=3):
    from conftest import random_exact_element

    while True:
        x = random_exact_element(rng, max_terms=max_terms, allow_negative_exponents=True)
        if x.is_visibly_zero():
            continue
        return x if x.terms[0][1] > 0 else -x


def test_criterion_1_order_valuation_axiom():
    rng = random.Random(101)
    failures = 0
    for _ in range(10_000):
        a = random_positive(rng)
        b = a + random_positive(rng)
        if not b.valuation() <= a.valuation():
            failures += 1
    report(1, failures == 0, f"10000 ordered pairs 0<a<=b keep val(b)<=val(a); failures={failures}")


def test_criterion_2_sos_unit_suite():
    from conftest import random_exact_element

    rng = random.Random(202)
    failures = 0
    for _ in range(500):
        r = FieldElement.zero()
        for _ in range(rng.randint(1, 4)):
            s = random_exact_element(rng, max_terms=3, allow_negative_exponents=True)
            r = r + s * s
        inv = (FieldElement.one() + r).invert()
        if not inv.valuation() >= 0:
            failures += 1
    report(2, failures == 0, f"500 SOS units: val(1/(1+r)) >= 0; failures={failures}")


def _gauss_corpus(rng, count=100):
    from conftest import random_exact_element

    corpus = []
    while len(corpus) < count:
        n = rng.choice((1, 2))
        frame = tuple(f"x{i+1}" for i in range(n))
        terms = {}
        for _ in range(rng.randint(1, 5)):
            expv = tuple(rng.randint(0, 3) for _ in frame)
            c = random_exact_element(rng, max_terms=2, allow_negative_exponents=True)
            if c.is_visibly_zero():
                continue
            terms[expv] = c
        q = Polynomial(frame, terms)
        if not q.is_exactly_zero():
            corpus.append(q)
    return corpus


def test_criterion_3_gauss_criterion_suite():
    rng = random.Random(303)
    corpus = _gauss_corpus(rng)
    points_by_dim = {
        1: SetDescriptor.unit_polydisc(1).sample_points(SampleConfig(seed=33, samples=500)),
        2: SetDescriptor.unit_polydisc(2).sample_points(SampleConfig(seed=34, samples=500)),
    }
    lower_bound_failures = 0
    for q in corpus:
        g = gauss_valuation(q)
        for b in points_by_dim[len(q.variables)]:
            if not valuation_at(q, b) >= g:
                lower_bound_failures += 1
    part_a = lower_bound_failures == 0

    genericity_hits = 0
    for i, q in enumerate(corpus):
        g = gauss_valuation(q)
        pool = 1000 * max(1, len(q.terms))
        r = _rng(3030, i)
        sd = SetDescriptor.unit_polydisc(len(q.variables))
        for pt in sd.generic_residue_points(r, 100, pool):
            if valuation_at(q, pt) == g:
                genericity_hits += 1
                break
    part_b = genericity_hits >= 99

    code, out = run_cli("integral", "--h", "(x+eps)/x", "--set", "ball:1", "--seed", "7")
    payload = json.loads(out)
    part_c = (code == 1 and payload["gauss"]["integral"] is True
              and payload["pointwise"]["verdict"] == "counterexample_found"
              and payload["pointwise"]["point"] == ["eps^2"])

    report(3, part_a and part_b and part_c,
           f"(a) 100x500 lower-bound failures={lower_bound_failures}; "
           f"(b) genericity hits={genericity_hits}/100; "
           f"(c) divergence (x+eps)/x exit=1 with gauss-true/pointwise-counterexample={part_c}")


def _certificate_corpus():
    vs2 = ("x1", "x2")
    x1, x2 = Polynomial.variable("x1", vs2), Polynomial.variable("x2", vs2)
    return [
        Polynomial.constant(1, ("x1",)) - (X1 * X1).scale(EPS),
        x1 * x1 + (x1 * x2).scale(2) + (x2 * x2).scale(2),
        Polynomial.constant(1, vs2) + (x1 * x1).scale(EPS) + (x2**4).scale(FieldElement.eps_power(3)),
        X1 * X1 + Polynomial.constant(EPS, ("x1",)),
        X1 * X1 + Polynomial.constant(1, ("x1",)) + X1.scale(EPS),
        X1**4 + (X1 * X1).scale(2) + Polynomial.constant(1, ("x1",)),
        x1 * x1 + (x1 * x2).scale(2) + x2 * x2,
        (X1 * X1 + Polynomial.constant(1, ("x1",))).scale(EPS),
        X1 * X1 + Polynomial.constant(F(9, 4), ("x1",)),
        (x1 * x1).scale(2) - (x1 * x2).scale(2) + x2 * x2,
    ]


def test_criterion_4_certificate_round_trip():
    config = SampleConfig(seed=44, samples=300)
    check_config = SampleConfig(seed=45, samples=1000)
    all_ok = True
    details = []
    for idx, p in enumerate(_certificate_corpus()):
        sd = SetDescriptor.unit_polydisc(len(p.variables))
        out = generate_ball_certificate(p, sd, config=config)
        if out.kind != CERTIFICATE:
            all_ok = False
            details.append(f"case {idx}: {out.kind}")
            continue
        if not verify_nonneg_certificate(p, out.certificate, sd).ok:
            all_ok = False
            details.append(f"case {idx}: verify failed")
            continue
        for b in sd.sample_points(check_config):
            if compare_order(p.evaluate(b), FieldElement.zero()) == LT:
                all_ok = False
                details.append(f"case {idx}: negative sample")
                break
        if idx == 0:
            cert = out.certificate
            expected_h = RationalFunction(X1 * X1, p.with_variables(("x1",)))
            if not (cert.m == EPS and cert.h == expected_h
                    and len(cert.r.summands) == 1
                    and cert.r.summands[0] == RationalFunction.constant(1, ("x1",))):
                all_ok = False
                details.append("case 0: expected r=[1], m=eps, h=x^2/(1-eps x^2)")
    report(4, all_ok,
           "10-case corpus generates, verifies, and stays nonneg on 1000 points each"
           + ("; " + "; ".join(details) if details else ""))


def test_criterion_5_falsification():
    rng = random.Random(505)
    cases = ["eps - x^2", "x - 1"]
    for _ in range(5):
        while True:
            a, b, c = rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4)
            if a < 0 or c < 0 or b * b > 4 * a * c:
                if a or b or c:
                    break
        cases.append(f"{a}*x^2 + {b}*x*y + {c}*y^2")
    all_ok = True
    details = []
    for expr in cases:
        code, out = run_cli("psd", "--p", expr, "--set", "ball:2" if "y" in expr else "ball:1",
                            "--falsify", "--seed", "55")
        payload = json.loads(out)
        if code != 1 or payload.get("witness") is None:
            all_ok = False
            details.append(f"{expr}: exit={code}")
            continue
        from rcvf.parser import parse_expression

        value = parse_expression(payload["witness"]["value"])
        if not compare_order(value, FieldElement.zero()) == LT:
            all_ok = False
            details.append(f"{expr}: witness value not negative")
    report(5, all_ok, "falsification witnesses with exact p(b)<0, exit 1"
           + ("; " + "; ".join(details) if details else ""))


def _probe_corpus():
    vs2 = ("x1", "x2")
    x1, x2 = Polynomial.variable("x1", vs2), Polynomial.variable("x2", vs2)
    one1 = Polynomial.constant(1, ("x1",))
    nonneg = [
        X1 * X1,
        Polynomial.constant(4, ("x1",)),
        one1 - (X1 * X1).scale(EPS),
        X1 * X1 + Polynomial.constant(EPS, ("x1",)),
        X1**4 + one1,
        one1 + X1.scale(2) + X1 * X1,
        (X1 * X1).scale(EPS) + Polynomial.constant(EPS, ("x1",)),
        x1 * x1 + (x1 * x2).scale(2) + (x2 * x2).scale(2),
        Polynomial(("x1",)),
        X1 * X1 + Polynomial.constant(F(9, 4), ("x1",)),
    ]
    negative = [
        Polynomial.constant(EPS, ("x1",)) - X1 * X1,
        X1 - one1,
        X1 * X1 - Polynomial.constant(4, ("x1",)),
        -(X1 * X1),
        X1 - Polynomial.constant(2, ("x1",)),
        X1.scale(EPS) - one1,
        X1 * X1 - one1,
        X1 * X1 + X1 - Polynomial.constant(4, ("x1",)),
        X1**4 - one1,
        X1.scale(2) - Polynomial.constant(2, ("x1",)),
    ]
    return nonneg, negative


def test_criterion_6_characterization_probe():
    nonneg, negative = _probe_corpus()
    incoherent = []
    for i, p in enumerate(nonneg + negative):
        sd = SetDescriptor.unit_polydisc(len(p.variables))
        config = SampleConfig(seed=606 + i, samples=500)
        report_obj = check_general_characterization(p, sd, config)
        sampled_negative = i >= len(nonneg)
        witnessed = (report_obj.verdict == NEGATIVITY_WITNESS and report_obj.c is not None
                     and report_obj.confirm_point is not None)
        if sampled_negative != witnessed:
            incoherent.append(i)
    report(6, not incoherent,
           f"20-polynomial corpus, 500 points: negativity found <=> "
           f"non-integral value exhibited; incoherent={incoherent}")


def test_criterion_7_dickmann_suite():
    rng = random.Random(707)
    frame = ("x1",)
    x = Polynomial.variable("x1", frame)
    verified = rejected = 0
    nonneg_failures = 0
    points = SetDescriptor.unit_polydisc(1).sample_points(SampleConfig(seed=77, samples=1000))
    for i in range(50):
        terms = []
        p = Polynomial(frame)
        for _ in range(rng.randint(1, 3)):
            q1 = x.scale(rng.randint(1, 3)) + Polynomial.constant(rng.randint(0, 2), frame)
            m1 = FieldElement.eps_power(rng.randint(1, 3), rng.randint(1, 4))
            if rng.random() < 0.4:
                terms.append(DickmannTerm(m1, q1, m1, q1))
                p = p + Polynomial.constant(1, frame)
            else:
                terms.append(DickmannTerm(m1, q1, FieldElement.zero(), Polynomial.constant(0, frame)))
                p = p + Polynomial.constant(1, frame) + (q1 * q1).scale(m1)
        cert = DickmannCertificate(tuple(terms))
        if verify_dickmann_certificate(p, cert).ok:
            verified += 1
        idx = rng.randrange(len(terms))
        t = terms[idx]
        if rng.random() < 0.5:
            mutated = DickmannTerm(t.m1 + FieldElement.eps_power(1, 5), t.q1, t.m2, t.q2)
        else:
            mutated = DickmannTerm(t.m1, t.q1 + Polynomial.constant(1, frame), t.m2, t.q2)
        bad = DickmannCertificate(tuple(terms[:idx] + [mutated] + terms[idx + 1:]))
        if not verify_dickmann_certificate(p, bad).ok:
            rejected += 1
        if i < 5:
            for b in points:
                if compare_order(p.evaluate(b), FieldElement.zero()) == LT:
                    nonneg_failures += 1
                    break
    report(7, verified == 50 and rejected == 50 and nonneg_failures == 0,
           f"50/{verified} constructed verify, 50/{rejected} mutations rejected, "
           f"sampled nonnegativity failures={nonneg_failures}")


def test_criterion_8_determinism():
    commands = [
        ("integral", "--h", "(x+eps)/x", "--set", "ball:1", "--seed", "9"),
        ("psd", "--p", "eps - x^2", "--set", "ball:1", "--falsify", "--seed", "9"),
        ("psd", "--p", "1 - eps*x^2", "--set", "ball:1", "--generate", "--seed", "9"),
        ("psd", "--p", "x^2 - 4", "--set", "ball:1", "--probe41", "--seed", "9", "--samples", "300"),
        ("cert", "find", "--p", "x^2 + 2*x*y + 2*y^2", "--set", "ball:2", "--seed", "9"),
        ("selftest", "--seed", "9"),
    ]
    stable = True
    for argv in commands:
        code1, out1 = run_cli(*argv)
        code2, out2 = run_cli(*argv)
        if code1 != code2 or out1 != out2:
            stable = False
    report(8, stable, "randomized commands byte-identical across two runs at fixed seed")
