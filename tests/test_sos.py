"""Exact SOS search, PSD falsification, quadratic-form completeness."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcvf import sos
from rcvf.sampling import SampleConfig, _rng
from rcvf.sos import (
    NEGATIVITY,
    NOT_SOS_IN_BUDGET,
    SOS,
    ResiduePolynomial,
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
        assert verify_residue_sos(q, result.squares, result.power)

    def test_one_plus_x_squared(self):
        vs = ("x",)
        x = x_of(vs, "x")
        q = ResiduePolynomial.constant(1, vs) + x * x
        result = residue_sos_search(q)
        assert result.kind == SOS
        assert verify_residue_sos(q, result.squares, result.power)

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
        assert result.kind == SOS and result.squares == () and result.power == 0
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
        assert verify_residue_sos(q, result.squares, result.power)


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
            assert verify_residue_sos(q, result.squares, result.power)

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
        assert verify_residue_sos(q, (x - y, y))
        q2 = ResiduePolynomial.constant(1, ("x",)) + x_of(("x",), "x") ** 2
        assert not verify_residue_sos(q2, (x_of(("x",), "x"),))
        assert verify_residue_sos(ResiduePolynomial(("x",)), ())
        # With a multiplier: (x^2 + y^2)(x^2 + y^2) = x^4 + 2x^2y^2 + y^4, and
        # q*s^2 = (t*s)^2 for q = t^2.
        assert verify_residue_sos(x * x + y * y, (x * x, y * y, x * y, x * y), power=1)
        assert not verify_residue_sos(x * x + y * y, (x * x, y * y), power=1)
        assert verify_residue_sos(q, ((x - y) * (x * x + y * y), y * (x * x + y * y)), power=2)

    def test_integer_guard_is_the_polynomial_identity(self, rng):
        # The identity is summed over ints; it must agree with q*s^k == sum t^2
        # in ResiduePolynomial arithmetic, also where the squares leave a term
        # that q lacks or their cross terms cancel, at powers 1 and 2, and for
        # a square in a wider frame than q.  Where the cross-multiplied check
        # of quotients gave a verdict, this one gives the same and never raises.
        vs = ("x", "y")
        x, y = x_of(vs, "x"), x_of(vs, "y")
        assert not verify_residue_sos(x * x, (x, y))
        assert verify_residue_sos(2 * (x * x) + 2 * (y * y), (x + y, x - y))
        for _ in range(60):
            ts = [_random_poly(rng, 2, 2, 3) for _ in range(rng.randint(1, 4))]
            q = sum((t * t for t in ts), rp(_frame(2), {}))
            if rng.random() < 0.5:
                q = q + _random_poly(rng, 2, 4, 1, den_bound=3)
            assert verify_residue_sos(q, ts) == (q == sum((t * t for t in ts), rp(_frame(2), {})))
        s = ResiduePolynomial.coordinate_square_sum(_frame(2))
        xs = [x_of(_frame(2), v) for v in _frame(2)]
        seen = set()
        for _ in range(90):
            power = rng.randint(0, 2)
            us = [_random_poly(rng, 2, 2, 3) for _ in range(rng.randint(1, 3))]
            q = sum((u * u for u in us), rp(_frame(2), {}))
            # q*s = sum (u*x_i)^2 and q*s^2 = sum (u*s)^2.
            ts = ([u * xi for u in us for xi in xs] if power == 1 else
                  [u * s for u in us] if power == 2 else us)
            if rng.random() < 0.4:
                q = q + _random_poly(rng, 2, 3, 1, den_bound=3)
            wider = rng.random() < 0.4
            if wider:  # one square in the frame (x1, x2, x3), x3 in it half the time
                i = rng.randrange(len(ts))
                extra = _random_poly(rng, 3, 1, 1) if rng.random() < 0.5 else rp(_frame(3), {})
                ts[i] = ts[i].with_variables(_frame(3)) + extra
            want = q * s**power == sum((t * t for t in ts), rp(_frame(2), {}))
            got = verify_residue_sos(q, ts, power)
            assert got == want
            assert got == _cross_multiplied(q, _as_quotients(ts, power, s, xs))
            seen.add((power, wider, got))
        assert {(k, w, v) for k in range(3) for w in (False, True) for v in (False, True)} <= seen

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
            assert verify_residue_sos(q, result.squares, result.power)


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
        # q = (x^2 - xy)^2 + (xy - y^2)^2; its Gram matrices are all singular
        # (q vanishes on x = y), and the search must still land on one.
        vs = ("x", "y")
        x, y = x_of(vs, "x"), x_of(vs, "y")
        q = x**4 - 2 * (x**3 * y) + 2 * (x * x * y * y) - 2 * (x * y**3) + y**4
        assert q == (x * x - x * y) ** 2 + (x * y - y * y) ** 2
        result = residue_sos_search(q, SosBudget(max_basis=24, denominator_cap=2))
        assert result.kind == SOS
        assert verify_residue_sos(q, result.squares, result.power)

    def test_motzkin_with_one_multiplier(self):
        # (x^2 + y^2) * M is a sum of squares although M is not.
        vs = ("x", "y")
        x, y = x_of(vs, "x"), x_of(vs, "y")
        M = (x**4) * (y**2) + (x**2) * (y**4) - 3 * (x**2) * (y**2) + ResiduePolynomial.constant(1, vs)
        result = sos.residue_sos_decomposition(M, SosBudget(max_basis=40, denominator_cap=1))
        assert result.kind == SOS
        assert result.power == 1
        assert verify_residue_sos(M, result.squares, 1)
        assert not verify_residue_sos(M, result.squares)


# -- the integer LDL against the elimination in Fractions --------------------------


def reference_ldl_psd(G):
    """ldl_psd as it eliminated in Fractions, kept as the reference."""
    n = len(G)
    M = [list(row) for row in G]
    active = list(range(n))
    squares, eliminations = [], []
    while active:
        p = None
        best = None
        for i in active:
            if M[i][i] != 0:
                mag = abs(M[i][i])
                if best is None or mag > best:
                    best, p = mag, i
        if p is None:
            for i, j in itertools.combinations(active, 2):
                if M[i][j] != 0:
                    sgn = 1 if M[i][j] > 0 else -1
                    basis = _reference_eliminated_basis(n, eliminations)
                    return "indefinite", [a - sgn * b for a, b in zip(basis[i], basis[j])]
            break
        d = M[p][p]
        if d < 0:
            return "indefinite", _reference_eliminated_basis(n, eliminations)[p]
        v = [M[p][j] / d for j in range(n)]
        squares.append((d, v))
        support = [(j, x) for j, x in enumerate(v) if x]
        factors = []
        for i in range(n):
            if M[i][p] != 0 or M[p][i] != 0:
                row, f = M[i], M[i][p]
                for j, x in support:
                    row[j] -= f * x
                if i != p:
                    factors.append((i, f / d))
        eliminations.append((p, factors))
        active.remove(p)
    return "psd", squares


def _reference_eliminated_basis(n, eliminations):
    basis = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for p, factors in eliminations:
        for i, li in factors:
            basis[i] = [a - li * b for a, b in zip(basis[i], basis[p])]
    return basis


# A fixed pool of small rationals: st.fractions would take several times as
# long to draw as the eliminations take to run.
_ENTRIES = st.sampled_from(sorted({Fraction(a, b) for a in range(-12, 13) for b in (1, 2, 3, 5, 6)}, key=abs))


def _gram(rows):
    return [[sum((x * y for x, y in zip(a, b)), Fraction(0)) for b in rows] for a in rows]


@st.composite
def symmetric_matrices(draw):
    """(G, verdict): a rational symmetric n x n matrix, 1 <= n <= 6, and the
    verdict its construction fixes.

    - B B^T with B of rank below n is PSD, and zero is.
    - B B^T - c u u^T with c = (u^T B B^T u + delta) / (u^T u)^2, delta > 0,
      is indefinite, as u shows; its diagonal is mostly positive, so the
      elimination mostly finds that late.
    - B B^T whose rows i and j are combinations of the others, plus e != 0
      at (i, j) and (j, i), is indefinite: some x with B^T x = 0 has x_i = 1
      and x_i x_j e < 0.  Its Schur complement on {i, j} has a zero
      diagonal, reached after the other pivots (at once when n = 2).
    """
    kind = draw(st.sampled_from(("rank_deficient_psd", "indefinite", "zero_diagonal", "zero")))
    n = draw(st.integers(2 if kind == "zero_diagonal" else 1, 6))
    if kind == "zero":
        return [[Fraction(0)] * n for _ in range(n)], "psd"
    r = draw(st.integers(0, n - 1)) if kind == "rank_deficient_psd" else n
    B = [draw(st.lists(_ENTRIES, min_size=r, max_size=r)) for _ in range(n)]
    if kind == "rank_deficient_psd":
        return _gram(B), "psd"
    if kind == "indefinite":
        G = _gram(B)
        u = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any))
        uGu = sum(u[i] * G[i][j] * u[j] for i in range(n) for j in range(n))
        c = (uGu + draw(_ENTRIES.filter(lambda x: x > 0))) / sum(x * x for x in u) ** 2
        return [[G[i][j] - c * u[i] * u[j] for j in range(n)] for i in range(n)], "indefinite"
    i, j = draw(st.sampled_from(list(itertools.combinations(range(n), 2))))
    others = [k for k in range(n) if k not in (i, j)]
    for t in (i, j):
        mix = draw(st.lists(st.integers(-2, 2), min_size=len(others), max_size=len(others)))
        B[t] = [sum((m * B[k][c] for m, k in zip(mix, others)), Fraction(0)) for c in range(r)]
    G = _gram(B)
    e = draw(_ENTRIES.filter(bool))
    G[i][j] += e
    G[j][i] += e
    return G, "indefinite"


class TestIntegerLDL:
    # The fraction-free elimination must give the verdicts, squares and
    # directions of the elimination in Fractions, and each must be exact.
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(case=symmetric_matrices())
    def test_same_as_the_elimination_in_fractions(self, case):
        G, expected = case
        verdict, payload = sos.ldl_psd(G)
        assert verdict == expected
        assert (verdict, payload) == reference_ldl_psd(G)
        n = len(G)
        if verdict == "psd":
            assert all(sum((d * v[i] * v[j] for d, v in payload), Fraction(0)) == G[i][j]
                       for i in range(n) for j in range(n))
        else:
            assert sum(payload[i] * G[i][j] * payload[j] for i in range(n) for j in range(n)) < 0


def _gram_family(q):
    """(reduced basis, particular Gram matrix, null directions) of q's Gram family."""
    basis = sos._half_basis(q)
    G0, directions = sos._gram_family(q, basis)
    return basis, G0, directions


# -- the Gram family against Gauss-Jordan elimination ---------------------------


def reference_solve_affine(rows, rhs):
    """Solve A y = b over the rationals by Gauss-Jordan elimination: (particular,
    nullspace basis) or None when inconsistent."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    aug = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    pivots = []
    row = 0
    for col in range(n):
        sel = next((r for r in range(row, m) if aug[r][col] != 0), None)
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        inv = Fraction(1) / aug[row][col]
        aug[row] = [v * inv for v in aug[row]]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    if any(aug[r][n] != 0 for r in range(row, m)):
        return None
    particular = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        particular[col] = aug[r][n]
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -aug[r][fc]
        basis.append(vec)
    return particular, basis


def reference_gram_family(q, basis):
    """(G0, null matrices) from the linear system over the upper-triangular Gram
    entries, one row per monomial, solved by Gauss-Jordan; None if unsolvable."""
    pairs = [(i, j) for i in range(len(basis)) for j in range(i, len(basis))]
    rows_by_mono = {}
    for k, (i, j) in enumerate(pairs):
        mono = tuple(a + b for a, b in zip(basis[i], basis[j]))
        rows_by_mono.setdefault(mono, {})[k] = Fraction(1 if i == j else 2)
    rows, rhs = [], []
    for mono in sorted(set(rows_by_mono) | set(q.terms)):
        target = q.terms.get(mono, Fraction(0))
        if mono not in rows_by_mono:
            if target != 0:
                return None
            continue
        row = [Fraction(0)] * len(pairs)
        for k, v in rows_by_mono[mono].items():
            row[k] = v
        rows.append(row)
        rhs.append(target)
    solved = reference_solve_affine(rows, rhs)
    if solved is None:
        return None

    def matrix(vec):
        G = [[Fraction(0)] * len(basis) for _ in basis]
        for (i, j), v in zip(pairs, vec):
            G[i][j] = G[j][i] = v
        return G

    particular, nullbasis = solved
    return matrix(particular), [matrix(v) for v in nullbasis]


def _gram_targets():
    """(target, basis) pairs in 1-3 variables of degree 2-6: half bases, and
    random sub-bases of the degree box that miss some monomials."""
    rng = random.Random(2020)
    out = []
    for _ in range(150):
        n, degree = rng.randint(1, 3), rng.randint(2, 6)
        q = ResiduePolynomial(_frame(n))
        for _ in range(rng.randint(1, 3)):  # squares: their monomials are reachable
            t = _random_poly(rng, n, degree // 2, 4)
            q = q + t * t
        if rng.random() < 0.3:  # any monomials of degree <= 6
            q = q + _random_poly(rng, n, degree, rng.randint(1, 4))
        if q.is_exactly_zero():
            continue
        out.append((q, sos._half_basis(q)))
        box = [e for e in itertools.product(range(degree // 2 + 1), repeat=n) if sum(e) <= degree // 2]
        out.append((q, sorted(rng.sample(box, rng.randint(1, len(box))))))
    return out


class TestGramFamily:
    def test_closed_form_is_gauss_jordan(self):
        solvable = unsolvable = 0
        for q, basis in _gram_targets():
            got, want = sos._gram_family(q, basis), reference_gram_family(q, basis)
            if want is None:
                assert got is None, (q, basis)
                unsolvable += 1
                continue
            G0, directions = got
            want_G0, nullmats = want
            assert G0 == want_G0, (q, basis)
            assert all(type(v) is Fraction for row in G0 for v in row)
            # The directions are the null matrices' non-zero entries, in row-major order.
            assert directions == [[(i, j, v) for i, row in enumerate(N) for j, v in enumerate(row) if v]
                                  for N in nullmats], (q, basis)
            solvable += 1
        assert solvable >= 200 and unsolvable >= 80

    def test_unsupported_monomial(self):
        vs = ("x",)
        x = x_of(vs, "x")
        q = x**4 + x**3
        assert sos._gram_family(q, [(0,), (2,)]) is None
        assert sos._gram_family(q, [(0,), (1,), (2,)]) is not None


class TestGramSearch:
    @pytest.mark.parametrize("a", (4, 9))
    def test_no_constant_term(self, a):
        # The constant monomial forces a zero Gram row; the full degree box
        # kept it and missed these.
        vs = ("x",)
        x = x_of(vs, "x")
        q = a * x**2 + 4 * x**4
        assert sos._half_basis(q) == [(1,), (2,)]
        result = sos.residue_sos_decomposition(q, SosBudget(denominator_cap=0))
        assert result.kind == SOS
        assert verify_residue_sos(q, result.squares, result.power)

    def test_sums_of_squares_without_constant_term(self):
        # As many random squares as basis monomials, so some Gram matrix is
        # positive definite on the reduced basis (see test_half_basis_drops_*).
        rng = random.Random(1101)
        for trial in range(30):
            n = rng.choice((1, 2))
            vs = _frame(n)
            monos = [e for e in itertools.product(range(3), repeat=n) if 1 <= sum(e) <= 2]
            q = ResiduePolynomial(vs)
            for _ in monos:
                t = rp(vs, {m: F(rng.randint(-3, 3), rng.randint(1, 2)) for m in monos})
                q = q + t * t
            assert (0,) * n not in q.terms
            result = sos.residue_sos_decomposition(q, SosBudget(denominator_cap=0))
            assert result.kind == SOS, f"trial {trial}"
            assert verify_residue_sos(q, result.squares, result.power)

    def test_ellipsoid_wins_where_the_particular_solution_is_indefinite(self):
        # 1 - x + x^2 - x^3 + x^4 = (x^5 + 1)/(x + 1) > 0 on the reals.
        vs = ("x",)
        x = x_of(vs, "x")
        q = ResiduePolynomial.constant(1, vs) - x + x**2 - x**3 + x**4
        basis, G0, nullmats = _gram_family(q)
        assert basis == [(0,), (1,), (2,)] and len(nullmats) >= 1
        assert sos.ldl_psd(G0)[0] == "indefinite"
        result = sos.residue_sos_decomposition(q, SosBudget(denominator_cap=0))
        assert result.kind == SOS
        assert verify_residue_sos(q, result.squares, result.power)

    def test_ellipsoid_wins_in_three_dimensions(self):
        vs = ("x", "y")
        x, y = x_of(vs, "x"), x_of(vs, "y")
        one = ResiduePolynomial.constant(1, vs)
        q = (x * x - y + one) ** 2 + (x * y - 2 * x) ** 2 + (y * y - x) ** 2 + x * x + y * y + one
        basis, G0, nullmats = _gram_family(q)
        assert len(nullmats) >= 3
        assert sos.ldl_psd(G0)[0] == "indefinite"
        result = sos.residue_sos_decomposition(q, SosBudget(denominator_cap=0))
        assert result.kind == SOS
        assert verify_residue_sos(q, result.squares, result.power)

    @pytest.mark.parametrize("scale", (F(1, 10**9), F(1, 10**6), F(1, 7), 10**6))
    def test_scaled_inputs(self, scale):
        # Rounding must reach Gram entries far from 1 in size.
        vs = ("x",)
        x = x_of(vs, "x")
        q = (ResiduePolynomial.constant(1, vs) - x + x**2 - x**3 + x**4) * scale
        result = sos.residue_sos_decomposition(q, SosBudget(denominator_cap=0))
        assert result.kind == SOS
        assert verify_residue_sos(q, result.squares, result.power)

    def test_coefficients_beyond_float_range(self):
        # No float image: of the trace bound's mean in the first, of G0 alone in
        # the second (its mean is 10^400/5 - 2*10^399 + 1/3 + 1 = 4/3).  Only the
        # exact particular solution is tried, and it is indefinite.
        vs = ("x",)
        x, one = x_of(vs, "x"), ResiduePolynomial.constant(1, vs)
        for q, radius in ((10**400 * x**4 - x**3 + x**2 - x + one, 0.0),
                          (10**400 * x**4 - 2 * 10**399 * one + one - x**3 + x**2, None)):
            basis = sos._half_basis(q)
            G0, directions = sos._gram_family(q, basis)
            bound = sos._trace_bound(q, basis)
            assert bound == radius if radius is not None else bound > 0
            assert list(sos._psd_candidates(G0, directions, bound)) == [[0.0] * len(directions)]
            assert sos.ldl_psd(G0)[0] == "indefinite"
            result = sos.residue_sos_decomposition(q, SosBudget(denominator_cap=2))
            assert result.kind == NOT_SOS_IN_BUDGET

    def test_half_basis_drops_unsupported_squares(self):
        # Motzkin: the degree box has 8 monomials.  y^2 is dropped: its square
        # y^4 is not in the support, and no two other box monomials sum to it.
        vs = ("x", "y")
        x, y = x_of(vs, "x"), x_of(vs, "y")
        M = (x**4) * (y**2) + (x**2) * (y**4) - 3 * (x**2) * (y**2) + ResiduePolynomial.constant(1, vs)
        box = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1)]
        assert (0, 4) not in M.terms
        assert not any(a != b and (a[0] + b[0], a[1] + b[1]) == (0, 4) for a in box for b in box)
        assert sos._half_basis(M) == [(0, 0), (1, 1), (1, 2), (2, 1)]
        # A square whose root has no constant term keeps its decomposition
        # once the constant monomial is dropped.
        q = (x * y) ** 2 * (x * x + y * y - 2 * ResiduePolynomial.constant(1, vs)) ** 2
        assert (0, 0) not in sos._half_basis(q)
        result = sos.residue_sos_decomposition(q, SosBudget(denominator_cap=0))
        assert result.kind == SOS
        assert verify_residue_sos(q, result.squares, result.power)

    def test_min_eig(self):
        # Entries uniform in [-3, 3] times a scale; tolerances are 1e-12 times that scale.
        rng = random.Random(77)
        matrices = []
        for n in (1, 2, 3, 5, 8, 12, 16):
            for scale in (1e-9, 1.0, 1e9):
                for density in (1.0, 0.3):
                    A = [[0.0] * n for _ in range(n)]
                    for i in range(n):
                        for j in range(i, n):
                            if i == j or rng.random() < density:
                                A[i][j] = A[j][i] = rng.uniform(-3, 3) * scale
                    matrices.append((A, scale))
        matrices += [([[0.0]], 1.0), ([[2.5]], 1.0), ([[-1e9]], 1e9), ([[0.0] * 4 for _ in range(4)], 1.0),
                     ([[float(i - 2) if i == j else 0.0 for j in range(5)] for i in range(5)], 1.0)]
        for A, scale in matrices:
            n = len(A)
            lam, u = sos._min_eig(A)
            assert abs(sum(v * v for v in u) - 1) < 1e-12
            Au = [sum(a * v for a, v in zip(row, u)) for row in A]
            assert max(abs(a - lam * v) for a, v in zip(Au, u)) < 1e-12 * scale
            # lambda_min is the least Rayleigh quotient.
            for _ in range(20):
                w = [rng.uniform(-1, 1) for _ in range(n)]
                Aw = [sum(a * v for a, v in zip(row, w)) for row in A]
                assert sum(a * v for a, v in zip(Aw, w)) >= lam * sum(v * v for v in w) - 1e-12 * scale
        assert sos._min_eig([[0.0] * 3 for _ in range(3)]) == (0.0, [1.0, 0.0, 0.0])
        assert sos._min_eig([[3.0, 0.0], [0.0, -2.0]]) == (-2.0, [0.0, 1.0])

    def test_min_eig_keeps_u_in_one_block(self):
        # Two decoupled, interleaved blocks whose least eigenvalues are both 1
        # (up to rounding): a solve over the whole matrix leaves rounding
        # residue of one block's eigenvector in the other's rows, a solve per
        # block gives exact zeros there.
        def conjugated(eigenvalues, rng):
            n, Q = len(eigenvalues), []
            for _ in range(n):  # a random orthonormal basis, by Gram-Schmidt
                v = [rng.gauss(0, 1) for _ in range(n)]
                for q in Q:
                    d = sum(a * b for a, b in zip(v, q))
                    v = [a - d * b for a, b in zip(v, q)]
                norm = sum(a * a for a in v) ** 0.5
                Q.append([a / norm for a in v])
            return [[sum(Q[k][i] * eigenvalues[k] * Q[k][j] for k in range(n)) for j in range(n)]
                    for i in range(n)]

        rng = random.Random(1)
        blocks = ((0, 3), (1, 2, 4))
        for _ in range(10):
            A = [[0.0] * 5 for _ in range(5)]
            for eigenvalues, rows in (((1.0, 3.0), blocks[0]), ((1.0, 2.5, 4.0), blocks[1])):
                block = conjugated(eigenvalues, rng)
                for r, i in enumerate(rows):
                    for c, j in enumerate(rows):
                        A[i][j] = block[r][c]
            lam, u = sos._min_eig(A)
            assert abs(lam - 1) < 1e-12
            support = {i for i, v in enumerate(u) if v}
            assert any(support <= set(rows) for rows in blocks), u

    def test_large_family_converges(self, monkeypatch):
        # Motzkin in an (x, y, z) frame: at k = 2 the family has dimension 180
        # on a basis of 24.  Its Gram matrices split into decoupled blocks; an
        # eigenvector that mixes them slows the ellipsoid about sixfold.
        vs = ("x", "y", "z")
        x, y = x_of(vs, "x"), x_of(vs, "y")
        M = (x**4) * (y**2) + (x**2) * (y**4) - 3 * (x**2) * (y**2) + ResiduePolynomial.constant(1, vs)
        calls = []
        min_eig = sos._min_eig
        monkeypatch.setattr(sos, "_min_eig", lambda A: calls.append(len(A)) or min_eig(A))
        result = sos.residue_sos_decomposition(M, SosBudget(max_basis=40, denominator_cap=2))
        assert result.kind == NOT_SOS_IN_BUDGET
        assert 24 in calls
        assert len(calls) <= 1000


# -- the lattice falsifier against the Fraction one -----------------------------


def _reference_grid(n, cap=4000):
    if len(sos._GRID_VALUES) ** n <= cap:
        yield from itertools.product(sos._GRID_VALUES, repeat=n)
        return
    rng = _rng(99991, n)
    for _ in range(cap):
        yield tuple(rng.choice(sos._GRID_VALUES) for _ in range(n))


def reference_quadratic_gram(q):
    """The unique Gram matrix of a degree <= 2 polynomial in the basis [1, x1..xn],
    entry by entry, as psd_falsify once built it."""
    n = len(q.variables)
    size = n + 1
    G = [[Fraction(0)] * size for _ in range(size)]
    for expv, c in q.terms.items():
        ones = [i for i, e in enumerate(expv) if e]
        deg = sum(expv)
        if deg == 0:
            G[0][0] = c
        elif deg == 1:
            i = ones[0] + 1
            G[0][i] += c / 2
            G[i][0] += c / 2
        elif deg == 2 and len(ones) == 1:
            i = ones[0] + 1
            G[i][i] = c
        else:
            i, j = ones[0] + 1, ones[1] + 1
            G[i][j] += c / 2
            G[j][i] += c / 2
    return G


def reference_psd_falsify(q, config=None):
    """The same search as psd_falsify with every sign decided by an exact
    Fraction value of q."""
    if q.is_exactly_zero():
        return None
    n = len(q.variables)
    if n == 0:
        return [] if q.constant_value() < 0 else None
    if q.total_degree() <= 2:
        verdict, payload = sos.ldl_psd(reference_quadratic_gram(q))
        if verdict == "psd":
            return None
        for pt in _reference_grid(n, cap=600):
            if q.evaluate(pt) < 0:
                return list(pt)
        return sos._point_from_quadratic_direction(q, payload)
    for pt in _reference_grid(n):
        if q.evaluate(pt) < 0:
            return list(pt)
    config = config or SampleConfig(seed=20240601, samples=64)
    rng = _rng(config.seed, 0x5EED)
    steps = [F(1), F(-1), F(1, 2), F(-1, 2), F(1, 4), F(-1, 4), F(2), F(-2)]
    for start in range(24):
        pt = [F(rng.randint(-3 * 4, 3 * 4), 4) for _ in range(n)]
        val = q.evaluate(pt)
        if val < 0:
            return pt
        for _ in range(40):
            improved = False
            for i in range(n):
                for s in steps:
                    cand = list(pt)
                    cand[i] += s
                    v = q.evaluate(cand)
                    if v < val:
                        pt, val = cand, v
                        improved = True
                        if val < 0:
                            return pt
            if not improved:
                break
    for direction in itertools.product((-1, 0, 1), repeat=min(n, 6)):
        if not any(direction):
            continue
        d = list(direction) + [0] * (n - len(direction))
        for t in (4, 16, 64, 256, 1024):
            pt = [F(di * t) for di in d]
            if q.evaluate(pt) < 0:
                return pt
    return None


def _frame(n):
    return tuple(f"x{i + 1}" for i in range(n))


def _as_quotients(ts, power, s, xs):
    """(num, den) pairs with sum (num/den)^2 = sum t^2 / s^power, as the
    search once returned them: over s^(k/2) for an even k, and for an odd k
    each t lifted to t*x_i over s^((k+1)/2)."""
    if power % 2:
        return [(t * xi, s ** ((power + 1) // 2)) for t in ts for xi in xs]
    return [(t, s ** (power // 2)) for t in ts]


def _cross_multiplied(q, quotients):
    """q == sum (num/den)^2, cross-multiplied over the denominators as
    verify_residue_sos once checked every decomposition with a multiplier."""
    num_acc, den_acc = ResiduePolynomial.constant(0, q.variables), ResiduePolynomial.constant(1, q.variables)
    for num, den in quotients:
        d2 = den * den
        num_acc = num_acc * d2 + num * num * den_acc
        den_acc = den_acc * d2
    return q * den_acc == num_acc


def _random_poly(rng, n, degree, terms, den_bound=10):
    exps = [tuple(rng.randint(0, degree) for _ in range(n)) for _ in range(terms)]
    return rp(_frame(n), {e: F(rng.randint(-9, 9), rng.randint(1, den_bound))
                          for e in exps if sum(e) <= degree})


def _square_sum(rng, n, count, den_bound=3):
    q = ResiduePolynomial.constant(F(1, rng.randint(1, 4)), _frame(n))
    for _ in range(count):
        t = _random_poly(rng, n, 2, 3, den_bound)
        q = q + t * t
    return q


def _falsify_corpus():
    rng = random.Random(8080)
    corpus = []
    for n in range(8):  # n >= 4 subsamples the grid; n = 7 passes the six-coordinate ray cap
        for _ in range(2 if n > 3 else 4):
            corpus.append(_random_poly(rng, n, rng.choice((3, 4)), 5))
    for n in (0, 1, 3):  # zero and constant q
        corpus += [rp(_frame(n), {}), ResiduePolynomial.constant(F(-3, 7), _frame(n)),
                   ResiduePolynomial.constant(F(5, 2), _frame(n))]
    for n in (1, 2, 3):  # degree <= 2: PSD verdicts and grid hits
        for _ in range(6):
            corpus.append(_random_poly(rng, n, 2, 4))
        t = _random_poly(rng, n, 1, 3)
        corpus.append(t * t + ResiduePolynomial.constant(F(1, 3), _frame(n)))
    x, y = x_of(("x", "y"), "x"), x_of(("x", "y"), "y")
    one = ResiduePolynomial.constant(1, ("x", "y"))
    corpus += [  # degree 2, negative only off the grid: the quadratic-direction fallback
        10**6 * (x - F(1, 3)) ** 2 - one,
        10**6 * (7 * x - 3 * y) ** 2 - y * y,
    ]
    for n in (1, 2, 3, 5):  # coefficient denominators up to 10^6
        for _ in range(3):
            corpus.append(_random_poly(rng, n, 4, 6, den_bound=10**6))
    for n in (1, 2, 7):  # negative only far out on a ray; for n = 7 beyond the ray cap
        vs = _frame(n)
        corpus.append(ResiduePolynomial.constant(10**9, vs) - x_of(vs, vs[-1]) ** 3)
    for n in (2, 3):  # non-negative quartics: the whole descent runs
        for _ in range(3):
            corpus.append(_square_sum(rng, n, 2, den_bound=rng.choice((1, 7, 10**6))))
    return corpus


def _stage(q, pt):
    """The part of the search that produced pt (or why none came)."""
    if pt is None:
        return "none" if q.total_degree() <= 2 else "none_after_descent"
    if q.total_degree() <= 2:
        return "grid" if all(v in sos._GRID_VALUES for v in pt) else "direction"
    if any(v.denominator == 4 for v in pt):
        return "descent"
    return "ray" if max((abs(v) for v in pt), default=0) >= 4 else "grid"


class TestLatticeFalsifier:
    @pytest.mark.parametrize("seed", (20240601, 1))
    def test_matches_fraction_reference(self, seed):
        config = SampleConfig(seed=seed, samples=64)
        stages = set()
        for q in _falsify_corpus():
            got, want = psd_falsify(q, config), reference_psd_falsify(q, config)
            assert got == want, q
            if got is not None:
                assert [type(v) for v in got] == [type(v) for v in want] == [Fraction] * len(got)
                assert q.evaluate(got) < 0
            stages.add(_stage(q, want))
        assert stages == {"grid", "direction", "descent", "ray", "none", "none_after_descent"}

    def test_quadratic_gram_is_the_family_particular_solution(self):
        # psd_falsify reads a quadratic's Gram matrix off _gram_family in the
        # basis [1, x1..xn]; each monomial has one entry there, so the family
        # has no direction and G0 is the matrix built entry by entry.
        rng = random.Random(3000)
        for _ in range(300):
            n = rng.randint(1, 4)
            q = _random_poly(rng, n, 2, rng.randint(1, 8), den_bound=5)
            basis = [tuple(int(i == j) for j in range(n)) for i in range(-1, n)]
            G0, directions = sos._gram_family(q, basis)
            assert directions == [] and G0 == reference_quadratic_gram(q), q

    def test_search_constants_lie_on_the_lattice(self):
        lattice = sos._LATTICE
        assert lattice == 4
        for v in [*sos._GRID_VALUES, *sos._STEPS]:
            assert (v * lattice).denominator == 1, v
        assert lattice % sos._START_DENOMINATOR == 0
        assert sos._GRID_UNITS == [v * lattice for v in sos._GRID_VALUES]
        assert sos._STEP_UNITS == [s * lattice for s in sos._STEPS]
