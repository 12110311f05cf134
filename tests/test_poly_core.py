"""The shared sparse-polynomial core: Polynomial and ResiduePolynomial agree."""

import random
import resource
import subprocess
import sys
from fractions import Fraction

import pytest

from rcvf.poly import Polynomial, RationalFunction, ResiduePolynomial
from rcvf.series import FieldElement
from rcvf.sets import AffineModuleMap, SetDescriptor

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


def reference_substitute(p, images):
    """The repeated-product loops ``substitute`` replaced: per monomial, the
    coefficient times each image once per unit of its exponent, summed in
    order into 0 (a polynomial image) or 0/1 (a rational one)."""
    frame = images[0].variables
    if isinstance(images[0], RationalFunction):
        def wrap(q):
            return RationalFunction(q, Polynomial.constant(1, frame))
    else:
        def wrap(q):
            return q
    acc = wrap(Polynomial(frame))
    for expv, c in p.terms.items():
        term = wrap(Polynomial.constant(c, frame))
        for img, e in zip(images, expv):
            for _ in range(e):
                term = term * img
        acc = acc + term
    return acc


def reference_power(p, n):
    result = Polynomial.constant(1, p.variables)
    for _ in range(n):
        result = result * p
    return result


def layout(q):
    """Type, frame, and every coefficient's terms and precision, numerator and denominator apart."""
    if isinstance(q, RationalFunction):
        return "quotient", layout(q.num), layout(q.den)
    return type(q).__name__, q.variables, [(e, c.terms, c.precision) for e, c in q.terms.items()]


IMAGE_FRAME = ("y1", "y2")


def random_linear_images(rng, arity, truncated, rational, shared):
    """arity linear images over IMAGE_FRAME: a + s*y_i per coordinate, as a
    module map's, or with shared, a + s1*y1 + s2*y2; with rational, each over
    a constant (a generator's (y - a)/s has that shape)."""
    def coefficient():
        if truncated and rng.random() < 0.5:
            return random_truncated_element(rng)
        return random_exact_element(rng, max_terms=2)

    def nonzero():
        while True:
            c = coefficient()
            if not c.is_visibly_zero():
                return c

    images = []
    for i in range(arity):
        ys = IMAGE_FRAME if shared else (IMAGE_FRAME[i % 2],)
        q = Polynomial.constant(coefficient(), IMAGE_FRAME)
        for y in ys:
            q = q + coefficient() * Polynomial.variable(y, IMAGE_FRAME)
        images.append(RationalFunction(q, Polynomial.constant(nonzero(), IMAGE_FRAME)) if rational else q)
    return images


class TestSubstitution:
    """``substitute`` shares ``evaluate``'s loop and equals the repeated products it replaced."""

    FRAMES = [("x",), ("x1", "x2"), FRAME]

    @pytest.mark.parametrize("rational", [False, True], ids=["polynomial", "rational"])
    @pytest.mark.parametrize("truncated", [False, True], ids=["exact", "truncated"])
    def test_linear_images(self, rational, truncated):
        rng = random.Random(17 + 2 * rational + truncated)
        for _ in range(80):
            frame = rng.choice(self.FRAMES)
            p = random_series(rng, frame, max_deg=2, max_terms=4)
            images = random_linear_images(rng, len(frame), truncated, rational, shared=rng.random() < 0.3)
            assert layout(p.substitute(images)) == layout(reference_substitute(p, images)), (p, images)

    def test_module_map_images(self):
        # The pullback's images and the transport's generators.
        rng = random.Random(23)
        for _ in range(60):
            frame = rng.choice(self.FRAMES)
            n = len(frame)
            centers = [random_truncated_element(rng) for _ in range(n)]
            scales = []
            while len(scales) < n:
                s = random_truncated_element(rng)
                if not s.is_visibly_zero():
                    scales.append(s)
            mm = AffineModuleMap(tuple(centers), tuple(scales))
            vs = tuple(f"x{i + 1}" for i in range(n))
            p = random_series(rng, vs, max_deg=2, max_terms=4)
            images = mm.apply([Polynomial.variable(v, vs) for v in vs])
            assert layout(p.substitute(images)) == layout(reference_substitute(p, images))
            gens = SetDescriptor.affine_module(mm).generators()
            assert layout(p.substitute(gens)) == layout(reference_substitute(p, gens))

    def test_zero_and_constant_land_in_the_image_frame(self):
        rng = random.Random(29)
        o2 = FieldElement((), precision=2)
        for rational in (False, True):
            images = random_linear_images(rng, 2, True, rational, shared=False)
            kind = RationalFunction if rational else Polynomial
            for p in (Polynomial(("x1", "x2")), Polynomial.constant(F(-3, 2), ("x1", "x2")),
                      Polynomial.constant(o2, ("x1", "x2"))):
                got = p.substitute(images)
                assert type(got) is kind and got.variables == IMAGE_FRAME, (p, got)
                assert layout(got) == layout(reference_substitute(p, images))
        for c in (0, F(5, 7), o2):
            p = Polynomial.constant(c)
            got = p.substitute([])
            assert type(got) is Polynomial and got.variables == () and layout(got) == layout(p)

    def test_arity_mismatch(self):
        p = Polynomial.variable("x1", ("x1", "x2"))
        with pytest.raises(ValueError):
            p.substitute([Polynomial.variable("y1")])

    def test_power_equals_repeated_products(self):
        rng = random.Random(31)
        for _ in range(80):
            frame = rng.choice([(), ("x",), ("x1", "x2")])
            p = random_series(rng, frame, max_deg=2, max_terms=3)
            for n in range(7):
                assert layout(p**n) == layout(reference_power(p, n)), (p, n)
