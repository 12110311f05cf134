"""Exact SOS search, PSD falsification, quadratic-form completeness."""

import itertools
import random
from fractions import Fraction

import pytest

from rcvf.sampling import SampleConfig
from rcvf.sos import (
    NEGATIVITY,
    NOT_SOS_IN_BUDGET,
    SOS,
    ResiduePolynomial,
    ResidueQuotient,
    SosBudget,
    four_squares,
    psd_falsify,
    rational_square_terms,
    residue_sos_search,
    verify_residue_sos,
)

F = Fraction


def rp(variables, terms):
    return ResiduePolynomial(variables, terms)


def x_of(frame, name):
    return ResiduePolynomial.variable(name, frame)


class TestSearchExamples:
    def test_shifted_square(self):
        vs = ("x", "y")
        x, y = x_of(vs, "x"), x_of(vs, "y")
        q = x * x - 2 * (x * y) + 2 * (y * y)
        result = residue_sos_search(q)
        assert result.kind == SOS
        assert verify_residue_sos(q, result.quotients)

    def test_one_plus_x_squared(self):
        vs = ("x",)
        x = x_of(vs, "x")
        q = ResiduePolynomial.constant(1, vs) + x * x
        result = residue_sos_search(q)
        assert result.kind == SOS
        assert verify_residue_sos(q, result.quotients)

    def test_motzkin_like_not_in_budget(self):
        # PSD but not a polynomial SOS; with denominator cap 0 the search must
        # give up without a negativity witness.
        vs = ("x", "y")
        x, y = x_of(vs, "x"), x_of(vs, "y")
        q = (x**4) * (y**2) + (x**2) * (y**4) - 3 * (x**2) * (y**2) + ResiduePolynomial.constant(1, vs)
        result = residue_sos_search(q, SosBudget(max_basis=40, denominator_cap=0))
        assert result.kind == NOT_SOS_IN_BUDGET
        assert psd_falsify(q) is None

    def test_zero_polynomial(self):
        q = ResiduePolynomial(("x",))
        result = residue_sos_search(q)
        assert result.kind == SOS and result.quotients == ()
        assert verify_residue_sos(q, ())

    def test_negative_constant(self):
        q = ResiduePolynomial.constant(-2, ("x",))
        result = residue_sos_search(q)
        assert result.kind == NEGATIVITY
        assert q.evaluate(result.point) < 0

    def test_positive_constant_four_squares(self):
        q = ResiduePolynomial.constant(F(7, 3), ("x",))
        result = residue_sos_search(q)
        assert result.kind == SOS
        assert verify_residue_sos(q, result.quotients)


class TestFalsify:
    def test_x_squared_minus_three(self):
        vs = ("x",)
        x = x_of(vs, "x")
        q = x * x - ResiduePolynomial.constant(3, vs)
        assert psd_falsify(q) == [F(0)]

    def test_positive_definite_none(self):
        vs = ("x",)
        x = x_of(vs, "x")
        assert psd_falsify(ResiduePolynomial.constant(1, vs) + x * x) is None

    def test_odd_power(self):
        vs = ("x",)
        q = x_of(vs, "x") ** 3
        pt = psd_falsify(q)
        assert pt is not None and q.evaluate(pt) < 0
        assert pt == [F(-1)]

    def test_points_are_exact_witnesses(self, rng):
        vs = ("x", "y")
        x, y = x_of(vs, "x"), x_of(vs, "y")
        for _ in range(50):
            q = (x * x) * rng.randint(-3, 3) + (x * y) * rng.randint(-3, 3) + (y * y) * rng.randint(-3, 3)
            pt = psd_falsify(q)
            if pt is not None:
                assert q.evaluate(pt) < 0


class TestQuadraticFormCompleteness:
    def test_psd_gram_forms_succeed(self):
        rng = random.Random(4242)
        for trial in range(200):
            n = rng.choice((2, 2, 3))
            vs = tuple(f"x{i+1}" for i in range(n))
            A = [[F(rng.randint(-6, 6)) for _ in range(n)] for _ in range(n)]
            q = ResiduePolynomial(vs)
            for i in range(n):
                row = ResiduePolynomial(vs, {tuple(1 if k == j else 0 for k in range(n)): A[i][j]
                                             for j in range(n)})
                q = q + row * row
            result = residue_sos_search(q)
            assert result.kind == SOS, f"trial {trial}"
            assert verify_residue_sos(q, result.quotients)

    def test_indefinite_forms_falsified(self):
        rng = random.Random(2323)
        done = 0
        while done < 200:
            n = rng.choice((2, 3))
            vs = tuple(f"x{i+1}" for i in range(n))
            terms = {}
            for i in range(n):
                for j in range(i, n):
                    e = [0] * n
                    e[i] += 1
                    e[j] += 1
                    terms[tuple(e)] = F(rng.randint(-5, 5))
            q = ResiduePolynomial(vs, terms)
            # keep only genuinely indefinite instances
            res = residue_sos_search(q, SosBudget(denominator_cap=0))
            if res.kind != NEGATIVITY:
                continue
            done += 1
            assert q.evaluate(res.point) < 0


class TestVerify:
    def test_examples(self):
        vs = ("x", "y")
        x, y = x_of(vs, "x"), x_of(vs, "y")
        q = x * x - 2 * (x * y) + 2 * (y * y)
        dec = (ResidueQuotient.of(x - y), ResidueQuotient.of(y))
        assert verify_residue_sos(q, dec)
        q2 = ResiduePolynomial.constant(1, ("x",)) + x_of(("x",), "x") ** 2
        assert not verify_residue_sos(q2, (ResidueQuotient.of(x_of(("x",), "x")),))
        assert verify_residue_sos(ResiduePolynomial(("x",)), ())

    def test_search_results_always_verify(self, rng):
        vs = ("x", "y")
        x, y = x_of(vs, "x"), x_of(vs, "y")
        for _ in range(40):
            a, b, c = rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(0, 4)
            p1 = x * a + y * b + ResiduePolynomial.constant(c, vs)
            p2 = x * b - y * a
            q = p1 * p1 + p2 * p2
            result = residue_sos_search(q)
            assert result.kind == SOS
            assert verify_residue_sos(q, result.quotients)


class TestHelpers:
    def test_four_squares(self):
        rng = random.Random(60120)
        seeded = [rng.randrange(10**59, 10**60) for _ in range(4)]
        seeded += [rng.randrange(10**119, 10**120) for _ in range(4)]
        # A pivot product from a rational-coefficient certificate search.
        tail = int("29765787517249407386567496874665954109363876731318677347375091747042025200"
                   "659837020179581166972819201935175171114326138662337780448196")
        for n in itertools.chain(range(10**5), (2021, 9999991, tail), seeded):
            parts = four_squares(n)
            assert sum(v * v for v in parts) == n, n

    def test_rational_square_terms(self):
        for q in (F(0), F(1), F(7, 3), F(13, 8), F(2)):
            parts = rational_square_terms(q)
            assert sum(v * v for v in parts) == q


class TestDenominatorSearch:
    def test_multiplier_enables_decomposition(self):
        # (x^2+y^2) * q is SOS for this PSD-but-borderline quartic shape;
        # allow denominators and check the quotient identity exactly.
        vs = ("x", "y")
        x, y = x_of(vs, "x"), x_of(vs, "y")
        q = x**4 - 2 * (x**3 * y) + 2 * (x * x * y * y) - 2 * (x * y**3) + y**4
        result = residue_sos_search(q, SosBudget(max_basis=24, denominator_cap=2))
        if result.kind == SOS:
            assert verify_residue_sos(q, result.quotients)
        else:
            assert result.kind == NOT_SOS_IN_BUDGET
