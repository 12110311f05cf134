"""Exact sum-of-squares search and PSD falsification over the rationals.

Accepted answers are always exact: decompositions are built from rational
Gram matrices checked positive semidefinite by exact LDL^T with symmetric
pivoting, and every returned decomposition is re-verified symbolically.
Failures are reported as "not in budget", never guessed.

Degree <= 2 polynomials are decided completely (the Gram matrix in the
affine monomial basis is unique).  For higher degrees the Gram family is
read off in closed form on a reduced half basis (monomials forcing a zero
Gram row are dropped), and an ellipsoid method on block-wise Householder-QL
eigenpairs proposes float points of the family; each is rounded to small
denominators and accepted only by the exact LDL test.  The search may
multiply the target by powers of (x_1^2+...+x_n^2), so results are
quotients of polynomials.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import copysign, hypot, inf, isqrt, lcm, log, sqrt
from operator import mul
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


def ldl_psd(G: list[list[Fraction]]):
    """Exact PSD test by outer-product elimination with diagonal pivoting.

    Returns ("psd", [(pivot, vector)...]) with G = sum pivot * v v^T, or
    ("indefinite", direction) with direction^T G direction < 0.  Each
    elimination is recorded as (pivot, [(i, l_i)...]); the basis that the
    eliminations transform, whose rows give the direction, is built from that
    record only when a direction is returned.
    """
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
                    basis = _eliminated_basis(n, eliminations)
                    return "indefinite", [a - sgn * b for a, b in zip(basis[i], basis[j])]
            break
        d = M[p][p]
        if d < 0:
            return "indefinite", _eliminated_basis(n, eliminations)[p]
        v = [M[p][j] / d for j in range(n)]
        squares.append((d, v))
        support = [(j, x) for j, x in enumerate(v) if x]  # subtracting a zero changes no entry
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


def _eliminated_basis(n: int, eliminations) -> list[list[Fraction]]:
    """The identity basis with every recorded elimination applied, in order:
    row i loses l_i times the pivot's row."""
    basis = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for p, factors in eliminations:
        for i, li in factors:
            basis[i] = [a - li * b for a, b in zip(basis[i], basis[p])]
    return basis


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
    """Candidate square-root monomials of q.

    Starts from the degree box below half of q's degrees and repeatedly drops
    each monomial m whose square 2m is neither in q's support nor a sum a + b
    of two other basis monomials a != b.  The Gram diagonal entry of such an m
    must equal q's (zero) coefficient of 2m, and a PSD matrix with a zero
    diagonal entry has a zero row there, so no decomposition is lost
    (Loefberg, "Pre- and post-processing sum-of-squares programs in
    practice", IEEE TAC 2009).
    """
    half_total = q.total_degree() // 2
    half_each = [d // 2 + (d % 2) for d in q.max_degrees()]
    basis = sorted(expv for expv in itertools.product(*(range(h + 1) for h in half_each))
                   if sum(expv) <= half_total)
    while True:
        present = set(basis)
        kept = []
        for m in basis:
            twice = tuple(2 * e for e in m)
            if twice in q.terms or any(
                    a != m and tuple(t - e for t, e in zip(twice, a)) in present for a in basis):
                kept.append(m)
        if len(kept) == len(basis):
            return basis
        basis = kept


def _gram_family(target: ResiduePolynomial, basis: list[tuple[int, ...]]):
    """The affine family of Gram matrices of target in basis, as (G0, directions),
    or None if a monomial of target is no sum of two basis monomials.

    Gram entry (i, j) lies on the one monomial b_i + b_j (weight 1 on the
    diagonal, 2 off it), so the system over the upper-triangular entries is in
    reduced row echelon form once each monomial's row is scaled by its first
    entry in row-major order, the pivot: G0 puts the target's coefficient over
    the pivot's weight, and each other entry f gives the direction that is 1
    at f and -w_f/w_pivot at the pivot, as Gauss-Jordan elimination would.
    A direction lists its (i, j, v) over the whole matrix in row-major order.
    """
    size = len(basis)
    pivots, free = {}, []  # monomial -> (i, j, weight); (i, j, weight, pivot) per other entry
    for i in range(size):
        for j in range(i, size):
            entry = (i, j, 1 if i == j else 2)
            pivot = pivots.setdefault(tuple(a + b for a, b in zip(basis[i], basis[j])), entry)
            if pivot is not entry:
                free.append((*entry, pivot))
    if any(mono not in pivots for mono in target.terms):
        return None
    G0 = [[Fraction(0)] * size for _ in range(size)]
    for mono, (i, j, w) in pivots.items():
        G0[i][j] = G0[j][i] = Fraction(target.terms.get(mono, 0), w)
    directions = []
    for i, j, w, (pi, pj, pw) in free:
        cells = {(i, j): Fraction(1), (j, i): Fraction(1), (pi, pj): Fraction(-w, pw), (pj, pi): Fraction(-w, pw)}
        directions.append([(a, b, v) for (a, b), v in sorted(cells.items())])
    return G0, directions


# Denominators tried, in order, when a float point y is rounded for the exact
# LDL test.  Small ones land on the exact point of a singular face; the powers
# of ten serve inputs whose coefficients are far from 1 in size.
_DENOMINATOR_LADDER = (1, 2, 3, 4, 6, 8, 16, 10**3, 10**4, 10**6, 10**8, 10**10, 10**12)


def _min_eig(A: list[list[float]]) -> tuple[float, list[float]]:
    """Least eigenvalue of a symmetric float matrix and a unit eigenvector.

    Each connected component of A's non-zero pattern is solved on its own, and
    u is zero outside its component.  A solve over the whole matrix would mix
    decoupled blocks with nearly equal least eigenvalues; such a u is still a
    subgradient, but the ellipsoid then converges several times more slowly.
    """
    n = len(A)
    best, seen = None, [False] * n
    for start in range(n):
        if seen[start]:
            continue
        seen[start], block = True, [start]
        for i in block:  # grows while it is walked
            for j, x in enumerate(A[i]):
                if x and not seen[j]:
                    seen[j] = True
                    block.append(j)
        block.sort()
        lam, v = _least_eigenpair([[A[i][j] for j in block] for i in block])
        if best is None or lam < best[0]:
            best = lam, block, v
    lam, block, v = best
    u = dict(zip(block, v))
    return lam, [u.get(i, 0.0) for i in range(n)]


def _least_eigenpair(a: list[list[float]]) -> tuple[float, list[float]]:
    """Least eigenvalue and a unit eigenvector of a symmetric matrix (a is overwritten).

    Householder reflections reduce a to tridiagonal T = Q^T a Q, and QL with
    implicit shifts diagonalises T by plane rotations, as EISPACK's tred2 and
    tql2 (Wilkinson & Reinsch 1971).  Both are recorded, not accumulated:
    only the least eigenvector is carried back through them.
    """
    n = len(a)
    reflections = []
    for k in range(n - 2):
        v = [a[i][k] for i in range(k + 1, n)]
        if not any(v[1:]):
            continue
        alpha = -copysign(sqrt(sum(x * x for x in v)), v[0])  # H v_old = alpha e_1
        v[0] -= alpha
        beta = 2.0 / sum(x * x for x in v)  # H = I - beta v v^T
        p = [beta * sum(x * y for x, y in zip(row[k + 1:], v)) for row in a[k + 1:]]
        half = 0.5 * beta * sum(x * y for x, y in zip(p, v))
        q = [x - half * y for x, y in zip(p, v)]
        for row, vr, qr in zip(a[k + 1:], v, q):  # a <- H a H on the trailing block
            row[k + 1:] = [x - vr * qc - qr * vc for x, vc, qc in zip(row[k + 1:], v, q)]
        a[k + 1][k] = alpha
        reflections.append((k + 1, v, beta))
    d = [a[i][i] for i in range(n)]
    e = [a[i + 1][i] for i in range(n - 1)] + [0.0]
    rotations = []
    for low in range(n):
        for _ in range(30):
            m = low
            while m < n - 1 and abs(e[m]) > 2.2e-16 * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == low:
                break
            g = (d[low + 1] - d[low]) / (2.0 * e[low])
            r = hypot(g, 1.0)
            g = d[m] - d[low] + e[low] / (g + (r if g >= 0 else -r))
            s, c, p = 1.0, 1.0, 0.0
            for i in range(m - 1, low - 1, -1):
                f, b = s * e[i], c * e[i]
                r = e[i + 1] = hypot(f, g)
                if r == 0.0:  # the rotation underflowed: deflate and iterate again
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s, c = f / r, g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                rotations.append((i, c, s))
            else:
                d[low] -= p
                e[low] = g
                e[m] = 0.0
    least = min(range(n), key=d.__getitem__)
    u = [0.0] * n  # the least eigenvector of the diagonalised T, carried back to a's basis
    u[least] = 1.0
    for i, c, s in reversed(rotations):
        ui, uj = u[i], u[i + 1]
        u[i], u[i + 1] = c * ui + s * uj, c * uj - s * ui
    for k, v, beta in reversed(reflections):
        t = beta * sum(x * y for x, y in zip(v, u[k:]))
        u[k:] = [x - t * y for x, y in zip(u[k:], v)]
    return d[least], u


def _moment(expv) -> Fraction:
    """E[x^expv] for x uniform on [-1, 1]^n: 1/(e+1) per even e, 0 if any e is odd."""
    out = Fraction(1)
    for e in expv:
        if e % 2:
            return Fraction(0)
        out /= e + 1
    return out


def _trace_bound(target: ResiduePolynomial, basis: list[tuple[int, ...]]) -> float:
    """An upper bound on the trace of every PSD Gram matrix of target.

    For mu uniform on [-1, 1]^n and M the moment matrix of the basis under
    mu, target = z^T G z integrates to tr(G M) >= lambda_min(M) tr(G) when
    G is PSD.  The moments are exact (E[x^e] = 1/(e+1) for even e, else 0);
    lambda_min(M) is a float, kept off zero relative to tr(M) (M splits into
    parity blocks).  A mean with no float image gives 0, an empty ball.
    """
    try:
        mean = float(sum(c * _moment(expv) for expv, c in target.terms.items()))
    except OverflowError:
        return 0.0
    M = [[float(_moment(tuple(x + y for x, y in zip(a, b)))) for b in basis] for a in basis]
    floor = 1e-15 * sum(M[i][i] for i in range(len(M)))
    return max(mean, 0.0) / max(_min_eig(M)[0], floor)


# Relative accuracy to which the ellipsoid search pins down max lambda_min.
_ELLIPSOID_TOL = 1e-6


def _psd_candidates(G0, directions, radius: float):
    """Float points y of the affine Gram family G0 + sum y_k N_k; yields y vectors.
    Each N_k is given as a direction of _gram_family.

    Yields the zero vector first.  Then an ellipsoid method maximises the
    concave lambda_min(G(y)), whose subgradient is (u^T N_k u)_k for a unit
    least eigenvector u (Groetschel, Lovasz & Schrijver 1988).  It yields the
    first iterate with lambda_min > 0, each iterate that doubles the last
    yielded value, and finally the best.

    The y_k are distinct entries of G(y), so |y| <= |G|_F <= tr G for a PSD
    G(y): a ball whose radius bounds that trace (see _trace_bound) holds every
    PSD point, and so the maximiser whenever that is PSD.  Each cut keeps the
    y that can reach the level max(best, -tol) by the subgradient inequality
    (a deep cut; central while the centre is the best point).  The search
    stops when the upper bound lambda_min(centre) + |g|_P over the ellipsoid
    falls below -tol (no PSD point) or within tol of the best value.  The step
    cap is the count after which the ellipsoid's volume, falling by at least
    e^(-1/(2(n+1))) per step, is below that of a ball of radius tol.  In one
    dimension this is bisection.  A G0 with no float image yields only y = 0.
    """
    dims = len(directions)
    yield [0.0] * dims
    if dims == 0 or radius <= 0:
        return
    try:
        g0 = [[float(v) for v in row] for row in G0]
    except OverflowError:
        return
    entries = [[(i, j, float(v)) for i, j, v in d] for d in directions]
    tol = _ELLIPSOID_TOL * max(abs(v) for row in g0 for v in row)
    steps = int(2 * dims * (dims + 1) * log(radius / tol)) + 1 if radius > tol else 0
    y = [0.0] * dims
    P = [[radius * radius if i == j else 0.0 for j in range(dims)] for i in range(dims)]
    best, best_y, upper, last, last_y = -inf, y, inf, 0.0, y
    for _ in range(steps):
        G = [row[:] for row in g0]
        for yk, ent in zip(y, entries):
            for i, j, v in ent:
                G[i][j] += yk * v
        lam, u = _min_eig(G)
        g = [sum(v * u[i] * u[j] for i, j, v in ent) for ent in entries]
        Pg = [sum(map(mul, row, g)) for row in P]
        gPg = sum(a * b for a, b in zip(g, Pg))
        if lam > best:
            best, best_y = lam, y
            if lam > 0 and lam >= 2 * last:
                last, last_y = lam, y
                yield y
        if gPg <= 0:  # a zero subgradient: the centre is a maximiser
            break
        root = sqrt(gPg)
        upper = min(upper, lam + root)
        if upper < -tol or upper - best <= tol:
            break
        # Keep the y with g.(y - centre) >= level - lam; 0 <= alpha < 1 here.
        alpha = (max(best, -tol) - lam) / root
        b = [v / root for v in Pg]
        step = (1 + dims * alpha) / (dims + 1)
        y = [yk + step * bk for yk, bk in zip(y, b)]
        if dims == 1:
            P = [[P[0][0] * (1 - alpha) ** 2 / 4]]
        else:
            f = dims * dims * (1 - alpha * alpha) / (dims * dims - 1.0)
            h = 2 * step / (1 + alpha)
            P = [[f * (pij - hbi * bj) for pij, bj in zip(row, b)] for row, hbi in zip(P, [h * bi for bi in b])]
    if best_y is not last_y:
        yield best_y


def _extract_squares(squares, basis, variables) -> list[ResiduePolynomial]:
    """Turn LDL pivots/vectors into polynomials t with sum t^2 = Gram form."""
    out = []
    for d, v in squares:
        row = ResiduePolynomial(variables, {basis[j]: v[j] for j in range(len(basis)) if v[j] != 0})
        for s in rational_square_terms(d):
            out.append(row * s)
    return out


def _gram_search(target: ResiduePolynomial, basis: list[tuple[int, ...]]):
    """An exact PSD Gram matrix for target in the given basis, or None."""
    family = _gram_family(target, basis)
    if family is None:
        return None
    G0, directions = family
    tried = set()
    bound = _trace_bound(target, basis) if directions else 0.0
    for y in _psd_candidates(G0, directions, bound):
        for den in _DENOMINATOR_LADDER:
            yr = tuple(Fraction(v).limit_denominator(den) for v in y)
            if yr in tried:
                continue
            tried.add(yr)
            M = [row[:] for row in G0]
            for coef, direction in zip(yr, directions):
                if coef:
                    for i, j, v in direction:
                        M[i][j] += coef * v
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
    """residue_sos_search without its psd_falsify pass.

    Constants are still decided exactly (a negative one gets the origin as its
    witness); otherwise the result is an SOS or not_sos_in_budget, which is
    also the result for a q negative somewhere, since it has no exact SOS.
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
    """Exact identity q == sum (num/den)^2, cross-multiplied.

    A denominator 1 (every one of a search without multipliers) costs no
    product: its summand is num^2 over the denominators so far.
    """
    num_acc = ResiduePolynomial.constant(0, q.variables)
    den_acc = ResiduePolynomial.constant(1, q.variables)
    for quot in decomposition:
        n2 = quot.num * quot.num
        if quot.den.is_one():
            num_acc = num_acc + (n2 if den_acc.is_one() else n2 * den_acc)
            continue
        d2 = quot.den * quot.den
        num_acc = num_acc * d2 + n2 * den_acc
        den_acc = den_acc * d2
    return (q if den_acc.is_one() else q * den_acc) == num_acc
