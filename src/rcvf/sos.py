"""Exact sum-of-squares search and PSD falsification over the rationals.

Accepted answers are always exact: decompositions are built from rational
Gram matrices checked positive semidefinite by exact LDL^T with symmetric
pivoting, and every returned decomposition is re-verified symbolically.
Failures are reported as "not in budget", never guessed.

Degree <= 2 polynomials are decided completely (the Gram matrix in the
affine monomial basis is unique); higher degrees use a numerically seeded
rational search.  The search may multiply the target by powers of
(x_1^2+...+x_n^2), so results are quotients of polynomials.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Optional, Sequence

from .poly import ResiduePolynomial
from .sampling import SampleConfig, _rng

SOS = "sos"
NOT_SOS_IN_BUDGET = "not_sos_in_budget"
NEGATIVITY = "negativity_witness"


@dataclass(frozen=True)
class ResidueQuotient:
    """num/den with den a nonzero rational polynomial (1 when denominator-free)."""

    num: ResiduePolynomial
    den: ResiduePolynomial

    @staticmethod
    def of(num: ResiduePolynomial) -> "ResidueQuotient":
        return ResidueQuotient(num, ResiduePolynomial.constant(1, num.variables))


@dataclass(frozen=True)
class SosBudget:
    max_basis: int = 16
    denominator_cap: int = 2


@dataclass(frozen=True)
class SosSearchResult:
    kind: str
    quotients: tuple[ResidueQuotient, ...] = ()
    point: Optional[tuple[Fraction, ...]] = None


# -- exact linear algebra -----------------------------------------------------


def solve_affine(rows: list[list[Fraction]], rhs: list[Fraction]):
    """Solve A y = b over the rationals.

    Returns (particular, nullspace_basis) or None when inconsistent.
    """
    m = len(rows)
    n = len(rows[0]) if rows else 0
    aug = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    pivots = []
    row = 0
    for col in range(n):
        sel = None
        for r in range(row, m):
            if aug[r][col] != 0:
                sel = r
                break
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
    for r in range(row, m):
        if aug[r][n] != 0:
            return None
    particular = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        particular[col] = aug[r][n]
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -aug[r][fc]
        basis.append(vec)
    return particular, basis


def ldl_psd(G: list[list[Fraction]]):
    """Exact PSD test by outer-product elimination with diagonal pivoting.

    Returns ("psd", [(pivot, vector)...]) with G = sum pivot * v v^T, or
    ("indefinite", direction) with direction^T G direction < 0.
    """
    n = len(G)
    M = [list(row) for row in G]
    basis = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    active = list(range(n))
    squares = []
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
                    direction = [a - sgn * b for a, b in zip(basis[i], basis[j])]
                    return "indefinite", direction
            break
        d = M[p][p]
        if d < 0:
            return "indefinite", list(basis[p])
        v = [M[p][j] / d for j in range(n)]
        squares.append((d, v))
        for i in range(n):
            if M[i][p] != 0 or M[p][i] != 0:
                li = M[i][p] / d
                for j in range(n):
                    M[i][j] -= li * d * v[j]
                if i != p:
                    basis[i] = [a - li * b for a, b in zip(basis[i], basis[p])]
        active.remove(p)
    return "psd", squares


# -- four squares without factoring (Rabin & Shallit) ---------------------------

_SMALL_PRIMES = tuple(p for p in range(2, 100) if all(p % d for d in range(2, p)))
# Miller-Rabin with these bases is exact below 3.3e24.
_MR_BASES = _SMALL_PRIMES[:13]


def _is_probable_prime(n: int) -> bool:
    """Trial division below 100, then Miller-Rabin (exact below 3.3e24)."""
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 2:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_two_squares(p: int) -> Optional[tuple[int, int]]:
    """p = a^2 + b^2 for a prime p = 1 (mod 4), or None when no prime below
    100 is a quadratic non-residue of p.

    A non-residue g gives r = g^((p-1)/4), a square root of -1 mod p; Euclid's
    algorithm on (p, r) stops at the first remainder below sqrt(p).
    """
    for g in _SMALL_PRIMES:
        if pow(g, (p - 1) // 2, p) == p - 1:
            a, b = p, pow(g, (p - 1) // 4, p)
            while b * b > p:
                a, b = b, a % b
            return b, isqrt(p - b * b)
    return None


def two_squares(n: int):
    """n = a^2 + b^2 for n a square, 2, a probable prime p = 1 (mod 4) or 2p;
    None otherwise, also for some n that are sums of two squares.

    Every candidate costs one primality test and a bounded non-residue
    search, never a factorisation.  The final check keeps a pseudoprime
    (possible only above 3.3e24) from yielding a wrong pair.
    """
    if n < 0:
        return None
    r = isqrt(n)
    if r * r == n:
        return (r, 0)
    if n == 2:
        return (1, 1)
    p = n // 2 if n % 2 == 0 else n
    if p % 4 != 1 or not _is_probable_prime(p):
        return None
    pair = _prime_two_squares(p)
    if pair is None:
        return None
    a, b = pair
    if p != n:  # 2(a^2 + b^2) = (a - b)^2 + (a + b)^2
        a, b = abs(a - b), a + b
    if a * a + b * b != n:
        return None
    return (a, b)


def _three_squares(m: int) -> tuple[int, int, int]:
    """m = x^2 + y^2 + z^2 for m not of the form 4^a(8b+7).

    Takes the largest x whose remainder m - x^2 two_squares recognises.
    About one remainder in log m is a recognisable prime, so no factoring is
    needed (Rabin & Shallit 1986; Pollack & Trevino 2018).
    """
    if m == 0:
        return (0, 0, 0)
    shift = 0
    while m % 4 == 0:
        m //= 4
        shift += 1
    for x in range(isqrt(m), -1, -1):
        ts = two_squares(m - x * x)
        if ts is not None:
            return tuple(v << shift for v in (x, *ts))
    raise ValueError(f"no three-square decomposition for {m << (2 * shift)}")


def four_squares(n: int) -> tuple[int, int, int, int]:
    """Lagrange decomposition of a non-negative integer into four squares."""
    if n < 0:
        raise ValueError("negative integer")
    if n == 0:
        return (0, 0, 0, 0)
    shift = 0
    while n % 4 == 0:
        n //= 4
        shift += 1
    if n % 8 == 7:
        parts = (1, *_three_squares(n - 1))
    else:
        parts = (0, *_three_squares(n))
    return tuple(v << shift for v in parts)


def rational_square_terms(d: Fraction) -> list[Fraction]:
    """Non-negative rational d as a list s_i with d = sum s_i^2 (at most four)."""
    if d < 0:
        raise ValueError("negative pivot")
    if d == 0:
        return []
    num, den = d.numerator, d.denominator
    parts = four_squares(num * den)
    return [Fraction(a, den) for a in parts if a]


# -- falsification ------------------------------------------------------------

# Grid values, descent steps, descent starts k/_START_DENOMINATOR and the
# integer ray points all lie on (1/_LATTICE) Z^n; psd_falsify relies on it.
_LATTICE = 4
_GRID_VALUES = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
                Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 2),
                Fraction(3), Fraction(-3)]
_STEPS = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2),
          Fraction(1, 4), Fraction(-1, 4), Fraction(2), Fraction(-2)]
_START_DENOMINATOR = 4
_GRID_UNITS = [int(v * _LATTICE) for v in _GRID_VALUES]
_STEP_UNITS = [int(s * _LATTICE) for s in _STEPS]


def _grid_points(n: int, cap: int = 4000):
    """Grid points in lattice units."""
    if len(_GRID_UNITS) ** n <= cap:
        yield from itertools.product(_GRID_UNITS, repeat=n)
        return
    # Deterministic subsample of the grid for higher dimension.
    rng = _rng(99991, n)
    for _ in range(cap):
        yield tuple(rng.choice(_GRID_UNITS) for _ in range(n))


def _lattice_form(q: ResiduePolynomial):
    """Q(y) = L * _LATTICE^T * q(y/_LATTICE) as an integer evaluator, with L the
    lcm of q's coefficient denominators and T its total degree.

    The term of exponent e becomes c * L * _LATTICE^(T-|e|), an integer.  Since
    L * _LATTICE^T > 0, Q(y) has the sign of q(y/_LATTICE) and orders lattice
    points as q does.
    """
    total = q.total_degree()
    den = lcm(*(c.denominator for c in q.terms.values()))
    terms = [(c.numerator * (den // c.denominator) * _LATTICE ** (total - sum(expv)),
              tuple((i, e) for i, e in enumerate(expv) if e))
             for expv, c in q.terms.items()]

    def value(y) -> int:
        acc = 0
        for c, factors in terms:
            for i, e in factors:
                c *= y[i] ** e
            acc += c
        return acc

    return value


def _quadratic_gram(q: ResiduePolynomial):
    """Unique Gram matrix of a degree <= 2 polynomial in the basis [1, x1..xn]."""
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


def _point_from_quadratic_direction(q: ResiduePolynomial, direction: list[Fraction]):
    """Turn an indefinite direction of the [1,x] Gram matrix into q(point) < 0."""
    u0, rest = direction[0], direction[1:]
    if u0 != 0:
        pt = [u / u0 for u in rest]
        if q.evaluate(pt) < 0:
            return pt
    # Homogeneous-direction case: walk out along the ray until the quadratic
    # part dominates.
    t = Fraction(1)
    for _ in range(64):
        pt = [u * t for u in rest]
        if q.evaluate(pt) < 0:
            return pt
        pt_neg = [-u * t for u in rest]
        if q.evaluate(pt_neg) < 0:
            return pt_neg
        t *= 2
    return None


def psd_falsify(q: ResiduePolynomial, config: Optional[SampleConfig] = None):
    """A point with q(point) < 0, or None.

    Rational grid, exact Gram direction for degree <= 2, coordinate descent
    from seeded random starts, and boundary rays.  Grid, descent and ray
    points lie on (1/4) Z^n (_LATTICE = 4), so their signs and comparisons are
    decided in integers on y = 4x by Q(y) = L * 4^T * q(y/4) (see
    _lattice_form); only _point_from_quadratic_direction evaluates q itself.
    """
    if q.is_exactly_zero():
        return None
    n = len(q.variables)
    if n == 0:
        return [] if q.constant_value() < 0 else None
    if q.total_degree() <= 2:
        # Complete for quadratics: the [1,x] Gram matrix is unique, so the
        # exact LDL verdict decides.  Prefer a small grid point for output.
        verdict, payload = ldl_psd(_quadratic_gram(q))
        if verdict == "psd":
            return None
        value = _lattice_form(q)
        for y in _grid_points(n, cap=600):
            if value(y) < 0:
                return _from_lattice(y)
        return _point_from_quadratic_direction(q, payload)
    value = _lattice_form(q)
    for y in _grid_points(n):
        if value(y) < 0:
            return _from_lattice(y)
    config = config or SampleConfig(seed=20240601, samples=64)
    rng = _rng(config.seed, 0x5EED)
    span, unit = 3 * _START_DENOMINATOR, _LATTICE // _START_DENOMINATOR
    for start in range(24):
        y = [rng.randint(-span, span) * unit for _ in range(n)]
        val = value(y)
        if val < 0:
            return _from_lattice(y)
        for _ in range(40):
            improved = False
            for i in range(n):
                for s in _STEP_UNITS:
                    cand = list(y)
                    cand[i] += s
                    v = value(cand)
                    if v < val:
                        y, val = cand, v
                        improved = True
                        if val < 0:
                            return _from_lattice(y)
            if not improved:
                break
    for direction in itertools.product((-1, 0, 1), repeat=min(n, 6)):
        if not any(direction):
            continue
        d = list(direction) + [0] * (n - len(direction))
        for t in (4, 16, 64, 256, 1024):
            y = [di * t * _LATTICE for di in d]
            if value(y) < 0:
                return _from_lattice(y)
    return None


def _from_lattice(y) -> list[Fraction]:
    return [Fraction(v, _LATTICE) for v in y]


# -- Gram search ---------------------------------------------------------------


def _half_basis(q: ResiduePolynomial) -> list[tuple[int, ...]]:
    """Candidate square-root monomials: the degree box below half of q's degrees."""
    half_total = q.total_degree() // 2
    half_each = [d // 2 + (d % 2) for d in q.max_degrees()]
    out = []
    for expv in itertools.product(*(range(h + 1) for h in half_each)):
        if sum(expv) <= half_total:
            out.append(expv)
    return sorted(out)


def _gram_constraints(q: ResiduePolynomial, basis: list[tuple[int, ...]]):
    """Linear system over the upper-triangular Gram entries matching q exactly."""
    idx = {}
    pairs = []
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            idx[(i, j)] = len(pairs)
            pairs.append((i, j))
    rows_by_mono: dict[tuple[int, ...], dict[int, Fraction]] = {}
    for i, j in pairs:
        mono = tuple(a + b for a, b in zip(basis[i], basis[j]))
        rows_by_mono.setdefault(mono, {})[idx[(i, j)]] = Fraction(1 if i == j else 2)
    monos = sorted(set(rows_by_mono) | set(q.terms))
    rows, rhs = [], []
    for mono in monos:
        coeffs = rows_by_mono.get(mono)
        target = q.terms.get(mono, Fraction(0))
        if coeffs is None:
            if target != 0:
                return None
            continue
        row = [Fraction(0)] * len(pairs)
        for k, v in coeffs.items():
            row[k] = v
        rows.append(row)
        rhs.append(target)
    return pairs, rows, rhs


def _vec_to_matrix(pairs, vec, size):
    G = [[Fraction(0)] * size for _ in range(size)]
    for (i, j), v in zip(pairs, vec):
        G[i][j] = v
        G[j][i] = v
    return G


_DENOMINATOR_LADDER = (1, 2, 3, 4, 6, 8, 12, 16, 24, 48, 96,
                       10**3, 10**4, 10**6, 10**8, 10**10, 10**12)


def _numeric_psd_candidates(G0, nullvecs, size):
    """Float search for a PSD point of the affine Gram family; yields y vectors."""
    import numpy as np  # only this search needs numpy; keep it off the import path

    dims = len(nullvecs)
    g0 = np.array([[float(x) for x in row] for row in G0])
    mats = [np.array([[float(x) for x in row] for row in N]) for N in nullvecs]
    yield [Fraction(0)] * dims
    if dims == 0:
        return
    A = np.stack([m.reshape(-1) for m in mats], axis=1)
    y = np.zeros(dims)
    G = g0.copy()
    for _ in range(120):
        w, V = np.linalg.eigh((G + G.T) / 2)
        clipped = np.clip(w, 1e-9, None)
        target = (V * clipped) @ V.T
        sol, *_ = np.linalg.lstsq(A, (target - g0).reshape(-1), rcond=None)
        y = sol
        G = g0 + sum(float(y[i]) * mats[i] for i in range(dims))
    yield [Fraction(float(v)) for v in y]
    # Margin-aware denominator choice.
    w, _ = np.linalg.eigh((G + G.T) / 2)
    lam = float(w[0])
    if lam > 1e-12:
        lip = sum(float(np.abs(m).sum()) for m in mats) + 1.0
        den = int(lip / lam * 4) + 1
        yield [Fraction(float(v)).limit_denominator(den) for v in y]


def _extract_squares(squares, basis, variables, scale=Fraction(1)) -> list[ResiduePolynomial]:
    """Turn LDL pivots/vectors into polynomials t with sum t^2 = Gram form."""
    out = []
    for d, v in squares:
        row = ResiduePolynomial(variables, {basis[j]: v[j] for j in range(len(basis)) if v[j] != 0})
        for s in rational_square_terms(d * scale):
            out.append(row * s)
    return out


def _gram_search(target: ResiduePolynomial, basis: list[tuple[int, ...]]):
    """An exact PSD Gram matrix for target in the given basis, or None."""
    built = _gram_constraints(target, basis)
    if built is None:
        return None
    pairs, rows, rhs = built
    solved = solve_affine(rows, rhs)
    if solved is None:
        return None
    particular, nullbasis = solved
    size = len(basis)
    G0 = _vec_to_matrix(pairs, particular, size)
    nullmats = [_vec_to_matrix(pairs, v, size) for v in nullbasis]
    tried = set()
    for y in _numeric_psd_candidates(G0, nullmats, size):
        for den in _DENOMINATOR_LADDER:
            yr = tuple(Fraction(v).limit_denominator(den) for v in y)
            if yr in tried:
                continue
            tried.add(yr)
            M = [row[:] for row in G0]
            for coef, N in zip(yr, nullmats):
                if coef:
                    for i in range(size):
                        for j in range(size):
                            M[i][j] += coef * N[i][j]
            verdict, payload = ldl_psd(M)
            if verdict == "psd":
                return payload
    return None


def residue_sos_search(q: ResiduePolynomial, budget: Optional[SosBudget] = None,
                       config: Optional[SampleConfig] = None) -> SosSearchResult:
    """Exact SOS decomposition (quotients allowed), negativity witness, or give up."""
    if not q.is_constant():
        pt = psd_falsify(q, config)
        if pt is not None:
            return SosSearchResult(NEGATIVITY, point=tuple(pt))
    return residue_sos_decomposition(q, budget)


def residue_sos_decomposition(q: ResiduePolynomial,
                              budget: Optional[SosBudget] = None) -> SosSearchResult:
    """residue_sos_search for a q that psd_falsify has already searched in vain.

    Constants are still decided exactly (a negative one gets the origin as its
    witness); otherwise the result is an SOS or not_sos_in_budget.
    """
    budget = budget or SosBudget()
    vs = q.variables
    if q.is_exactly_zero():
        return SosSearchResult(SOS, quotients=())
    if q.is_constant():
        c = q.constant_value()
        if c < 0:
            return SosSearchResult(NEGATIVITY, point=tuple(Fraction(0) for _ in vs))
        quotients = tuple(ResidueQuotient.of(ResiduePolynomial.constant(s, vs))
                          for s in rational_square_terms(c))
        return SosSearchResult(SOS, quotients=quotients)
    if q.total_degree() % 2 == 1:
        return SosSearchResult(NOT_SOS_IN_BUDGET)
    square_sum = ResiduePolynomial.coordinate_square_sum(vs)
    one = ResiduePolynomial.constant(1, vs)
    for k in range(budget.denominator_cap + 1):
        target = q * (square_sum**k if k else one)
        basis = _half_basis(target)
        if len(basis) > budget.max_basis:
            break
        squares = _gram_search(target, basis)
        if squares is None:
            continue
        polys = _extract_squares(squares, basis, vs)
        if k == 0:
            quotients = tuple(ResidueQuotient.of(t) for t in polys)
        elif k % 2 == 0:
            den = square_sum ** (k // 2)
            quotients = tuple(ResidueQuotient(t, den) for t in polys)
        else:
            # sum t^2 * (sum x^2) is again a plain sum of squares (t*x_i terms).
            den = square_sum ** ((k + 1) // 2)
            lifted = []
            for t in polys:
                for i in range(len(vs)):
                    lifted.append(t * ResiduePolynomial.variable(vs[i], vs))
            quotients = tuple(ResidueQuotient(t, den) for t in lifted)
        result = SosSearchResult(SOS, quotients=quotients)
        if not verify_residue_sos(q, result.quotients):
            # Exactness guard; should be unreachable.
            continue
        return result
    return SosSearchResult(NOT_SOS_IN_BUDGET)


def verify_residue_sos(q: ResiduePolynomial, decomposition: Sequence[ResidueQuotient]) -> bool:
    """Exact identity q == sum (num/den)^2, cross-multiplied."""
    num_acc = ResiduePolynomial.constant(0, q.variables)
    den_acc = ResiduePolynomial.constant(1, q.variables)
    for quot in decomposition:
        n2 = quot.num * quot.num
        d2 = quot.den * quot.den
        num_acc = num_acc * d2 + n2 * den_acc
        den_acc = den_acc * d2
    return q * den_acc == num_acc
