"""The shared sparse-polynomial core: Polynomial and ResiduePolynomial agree."""

import random
import resource
import subprocess
import sys
from fractions import Fraction

import pytest

from rcvf.poly import Polynomial, ResiduePolynomial
from rcvf.series import FieldElement

from conftest import random_exact_element, random_truncated_element, small_fraction, subprocess_env

F = Fraction
FRAME = ("x1", "x2", "x3")


def random_residue(rng, frame=FRAME, max_deg=3, max_terms=5):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        expv = tuple(rng.randint(0, max_deg) for _ in frame)
        terms.append((expv, small_fraction(rng)))
    return ResiduePolynomial(frame, terms)


def lift(q):
    return Polynomial(q.variables, {e: FieldElement.from_rational(c) for e, c in q.terms.items()})


def same(p, q):
    """Identical frames and term-by-term identical exact coefficients."""
    return (p.variables == q.variables
            and list(p.terms) == list(q.terms)
            and all(c.precision is None and c == FieldElement.from_rational(d)
                    for c, d in zip(p.terms.values(), q.terms.values())))


class TestSameResultsOnBothRings:
    def test_arithmetic(self):
        rng = random.Random(7)
        for _ in range(60):
            a, b = random_residue(rng), random_residue(rng)
            n = rng.randint(0, 3)
            assert same(lift(a) + lift(b), a + b)
            assert same(lift(a) - lift(b), a - b)
            assert same(lift(a) * lift(b), a * b)
            assert same(lift(a) ** n, a**n)
            assert same(-lift(a), -a)

    def test_scalars(self):
        rng = random.Random(8)
        for _ in range(30):
            a = random_residue(rng)
            k, c = rng.randint(-3, 3), small_fraction(rng)
            assert same(k * lift(a) + c, k * a + c)
            assert same(c - lift(a), c - a)

    def test_evaluate(self):
        rng = random.Random(9)
        for _ in range(60):
            a = random_residue(rng)
            pt = [small_fraction(rng) for _ in FRAME]
            value = lift(a).evaluate([FieldElement.from_rational(x) for x in pt])
            assert value.precision is None
            assert value == FieldElement.from_rational(a.evaluate(pt))

    def test_equality(self):
        rng = random.Random(10)
        for _ in range(60):
            a, b = random_residue(rng), random_residue(rng)
            assert (lift(a) == lift(b)) == (a == b)
            assert a == a + b - b
            assert lift(a) == lift(a + b - b)

    def test_frames_merge(self):
        x = ResiduePolynomial.variable("x1", ("x1",))
        y = ResiduePolynomial.variable("x2", ("x2",))
        s = x + y
        assert s.variables == ("x1", "x2")
        assert same(lift(x) + lift(y), s)

    def test_negative_exponent_refused(self):
        with pytest.raises(ValueError):
            ResiduePolynomial(("x",), {(-1,): 1})


class TestSeriesCoefficients:
    def test_order_term_is_kept(self):
        big_o = FieldElement((), precision=3)
        p = Polynomial(("x",), {(1,): big_o})
        assert not p.is_exactly_zero()
        assert p != Polynomial(("x",))

    def test_inexact_coefficient_differs_from_exact(self):
        one_plus_o = FieldElement(((0, 1),), precision=3)
        assert Polynomial(("x",), {(1,): one_plus_o}) != Polynomial.variable("x")


class TestRingsDoNotMix:
    def test_add(self):
        p, q = Polynomial.variable("x"), ResiduePolynomial.variable("x")
        with pytest.raises(TypeError):
            p + q
        with pytest.raises(TypeError):
            q + p

    def test_mul_and_eq(self):
        p, q = Polynomial.variable("x"), ResiduePolynomial.variable("x")
        with pytest.raises(TypeError):
            p * q
        with pytest.raises(TypeError):
            p == q

    def test_series_scalar_is_not_a_residue_constant(self):
        with pytest.raises(TypeError):
            ResiduePolynomial.variable("x") + FieldElement.eps_power(1)

    def test_sibling_classes(self):
        assert not isinstance(ResiduePolynomial.variable("x"), Polynomial)
        assert not isinstance(Polynomial.variable("x"), ResiduePolynomial)


def reference_evaluate(p, point):
    """The plain loop ``evaluate`` must match: ``x**e`` for every monomial."""
    if len(point) != len(p.variables):
        raise ValueError("arity")
    point = [p._coeff(x) for x in point]
    total = p._zero()
    for expv, c in p.terms.items():
        v = c
        for x, e in zip(point, expv):
            if e:
                v *= x**e
        total += v
    return total


def random_coordinate(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return random_exact_element(rng, allow_negative_exponents=True)
    if kind == 1:
        return random_truncated_element(rng)
    if kind == 2:
        return FieldElement((), precision=Fraction(rng.randint(1, 6), rng.choice((1, 2))))
    if kind == 3:
        return FieldElement.zero()
    return small_fraction(rng)


def random_series(rng, frame, max_deg=4, max_terms=5, exponents=None):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        expv = tuple(rng.choice(exponents) if exponents else rng.randint(0, max_deg) for _ in frame)
        c = random_truncated_element(rng) if rng.random() < 0.4 else random_exact_element(rng)
        terms.append((expv, c))
    return Polynomial(frame, terms)


def identical(got, want):
    return repr(got) == repr(want) and (got.terms, got.precision) == (want.terms, want.precision)


class TestEvaluationPlans:
    """The one evaluation loop equals the reference in both coefficient rings."""

    FRAMES = [(), ("x",), ("x1", "x2"), FRAME]

    def test_series_random(self):
        rng = random.Random(11)
        for _ in range(300):
            frame = rng.choice(self.FRAMES)
            p = random_series(rng, frame)
            pt = [random_coordinate(rng) for _ in frame]
            assert identical(p.evaluate(pt), reference_evaluate(p, pt)), (p, pt)

    def test_series_sparse_exponents(self):
        # Sparse exponents with gaps between them.
        rng = random.Random(15)
        for _ in range(150):
            frame = rng.choice(self.FRAMES)
            p = random_series(rng, frame, exponents=(0, 1, 3, 4, 7, 11))
            pt = [random_coordinate(rng) for _ in frame]
            assert identical(p.evaluate(pt), reference_evaluate(p, pt)), (p, pt)

    def test_series_special_shapes(self):
        rng = random.Random(12)
        o3 = FieldElement((), precision=3)
        truncated = FieldElement(((0, 2), (1, -1)), precision=Fraction(5, 2))
        polys = [
            Polynomial(FRAME),
            Polynomial.constant(7, FRAME),
            Polynomial.constant(truncated, FRAME),
            Polynomial(FRAME, {(4, 0, 3): truncated}),
            Polynomial(FRAME, {(0, 2, 0): o3}),
            Polynomial(FRAME, {(1, 0, 0): 1, (4, 4, 4): FieldElement.eps_power(Fraction(-1, 2))}),
        ]
        points = [
            [FieldElement.zero()] * 3,
            [o3, FieldElement.eps_power(1), 2],
            [truncated, o3, FieldElement((), precision=Fraction(1, 2))],
            [random_coordinate(rng) for _ in FRAME],
        ]
        for p in polys:
            for pt in points:
                assert identical(p.evaluate(pt), reference_evaluate(p, pt)), (p, pt)

    def test_series_cancellation_is_not_regrouped(self):
        # x*y - y at x = 1 + O(eps^2), y = 1 + O(eps): monomial by monomial the
        # value is O(eps); (x - 1)*y would cancel first and claim O(eps^2).
        p = Polynomial(("x", "y"), {(1, 1): 1, (0, 1): -1})
        pt = [FieldElement(((0, 1),), precision=2), FieldElement(((0, 1),), precision=1)]
        value = p.evaluate(pt)
        assert identical(value, reference_evaluate(p, pt))
        assert (value.terms, value.precision) == ((), 1)

    def test_series_no_variables(self):
        for c in (0, Fraction(-3, 4), FieldElement((), precision=2),
                  FieldElement(((1, 1),), precision=4)):
            p = Polynomial.constant(c)
            assert identical(p.evaluate([]), reference_evaluate(p, []))

    def test_residue_random(self):
        rng = random.Random(13)
        for _ in range(300):
            a = random_residue(rng, max_deg=4)
            pt = [rng.choice((0, rng.randint(-5, 5), small_fraction(rng, bound=7))) for _ in FRAME]
            got = a.evaluate(pt)
            assert type(got) is Fraction
            assert got == reference_evaluate(a, pt)

    def test_residue_sparse_exponents(self):
        rng = random.Random(16)
        for _ in range(150):
            terms = [(tuple(rng.choice((0, 2, 5, 6, 13)) for _ in FRAME), small_fraction(rng))
                     for _ in range(rng.randint(0, 5))]
            a = ResiduePolynomial(FRAME, terms)
            pt = [rng.choice((0, rng.randint(-5, 5), small_fraction(rng, bound=7))) for _ in FRAME]
            got = a.evaluate(pt)
            assert type(got) is Fraction and got == reference_evaluate(a, pt)

    def test_residue_plan_is_reused(self):
        # Repeated evaluations of one polynomial at different points.
        rng = random.Random(14)
        for _ in range(50):
            a = random_residue(rng, max_deg=4)
            for _ in range(3):
                pt = [small_fraction(rng) for _ in FRAME]
                got = a.evaluate(pt)
                assert type(got) is Fraction and got == reference_evaluate(a, pt)

    def test_residue_shapes(self):
        pt = [F(-2, 3), 0, F(5, 2)]
        for a in (ResiduePolynomial(FRAME), ResiduePolynomial.constant(F(-7, 6), FRAME),
                  ResiduePolynomial(FRAME, {(3, 0, 1): F(1, 4)})):
            got = a.evaluate(pt)
            assert type(got) is Fraction and got == reference_evaluate(a, pt)
        assert ResiduePolynomial.constant(F(2, 3)).evaluate([]) == F(2, 3)

    def test_arity_mismatch(self):
        for cls in (Polynomial, ResiduePolynomial):
            p = cls.variable("x1", ("x1", "x2"))
            with pytest.raises(ValueError):
                p.evaluate([1])
            with pytest.raises(ValueError):
                p.evaluate([1, 2, 3])

    def test_sparse_high_degree_is_cheap(self):
        # Only the powers that occur are built: x^100000 + y + 1 costs O(log 100000)
        # products, not a row of 100000 powers.  The child's address space is capped,
        # so a row-building kernel fails with MemoryError instead of exhausting memory.
        script = (
            "from fractions import Fraction as F\n"
            "from rcvf.poly import Polynomial, ResiduePolynomial\n"
            "from rcvf.series import FieldElement\n"
            "terms = {(100000, 0): 1, (0, 1): 1, (0, 0): 1}\n"
            "p, r = Polynomial(('x', 'y'), terms), ResiduePolynomial(('x', 'y'), terms)\n"
            "for x in (F(1, 3), F(-1, 2), 1):\n"
            "    assert r.evaluate([x, 2]) == x**100000 + 3\n"
            "    assert p.evaluate([x, 2]) == FieldElement.from_rational(x**100000 + 3)\n"
            "assert p.evaluate([FieldElement.eps_power(1), 2]) == FieldElement(((0, 3), (100000, 1)))\n"
        )
        limit = 1 << 30

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=20, env=subprocess_env(), preexec_fn=cap_memory)
        assert proc.returncode == 0, proc.stderr
