"""Generation's exact stages against the series-arithmetic versions they replace.

``residue_shift`` shifts exponents, ``_peel_layer`` drops the residual's
``eps^gamma`` slice and ``ldl_psd`` builds its basis only for a returned
direction.  Each must give exactly what the older implementation, kept here
as a reference, gave: the same terms and precisions, the same summands, the
same verdict and payload, and the same refusals.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcvf import certificates, sos
from rcvf.errors import ExponentBlowup, RcvfError
from rcvf.poly import Polynomial, RationalFunction
from rcvf.series import FieldElement
from rcvf.sos import ResiduePolynomial

F = Fraction
VS = ("x1", "x2")


# -- the references --------------------------------------------------------------


def reference_residue_shift(p, gamma):
    """Every coefficient times eps^(-gamma), as a series product."""
    shift = FieldElement.eps_power(-gamma)
    return Polynomial(p.variables, {e: c * shift for e, c in p.terms.items()})


def reference_peel(residual, rbar, squares, gamma, vs):
    """Summands lifted and scaled by eps^(gamma/2), over the constant 1;
    residual - eps^gamma * lift(rbar)."""
    half = FieldElement.eps_power(F(gamma, 2))
    summands = [RationalFunction(Polynomial(vs, t.terms).scale(half), Polynomial.constant(1, vs))
                for t in squares]
    return summands, residual - Polynomial(vs, rbar.terms).scale(FieldElement.eps_power(gamma))


def reference_ldl_psd(G):
    """ldl_psd with the basis updated on every pivot; also names the exit taken."""
    n = len(G)
    M = [list(row) for row in G]
    basis = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
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
                    return ("indefinite", [a - sgn * b for a, b in zip(basis[i], basis[j])]), "zero_diagonal"
            break
        d = M[p][p]
        if d < 0:
            return ("indefinite", list(basis[p])), "negative_pivot"
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
    return ("psd", squares), "psd"


# -- strategies ----------------------------------------------------------------------

# Denominators up to the exponent cap (64), so that shifts and halvings can pass it.
exponents = st.builds(F, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 33, 63, 64)))
coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=5).filter(bool)


@st.composite
def series(draw):
    """An exact element, or a truncated one (possibly with no known term)."""
    terms = draw(st.lists(st.tuples(exponents, coefficients), max_size=3))
    if draw(st.booleans()):
        return FieldElement(terms)
    top = max((e for e, _ in terms), default=F(0))
    return FieldElement(terms, top + draw(st.builds(F, st.integers(0, 8), st.sampled_from((1, 2, 3)))))


@st.composite
def polynomials(draw):
    monomials = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=5, unique=True))
    return Polynomial(VS, {m: draw(series()) for m in monomials})


def exact_form(p):
    """A polynomial's terms with every coefficient as (terms, precision)."""
    return p.variables, {e: (c.terms, c.precision) for e, c in p.terms.items()}


def outcome(f, *args):
    """f(*args), or the type and message of the RcvfError it raised."""
    try:
        return f(*args)
    except RcvfError as exc:
        return type(exc), str(exc)


# -- residue_shift -------------------------------------------------------------------


@settings(max_examples=400, derandomize=True)
@given(p=polynomials(), gamma=exponents)
def test_residue_shift_matches_the_series_product(p, gamma):
    got, want = outcome(p.residue_shift, gamma), outcome(reference_residue_shift, p, gamma)
    if isinstance(want, Polynomial):
        assert exact_form(got) == exact_form(want)
    else:
        assert got == want


def test_residue_shift_past_the_cap_raises():
    p = Polynomial(VS, {(1, 0): FieldElement.eps_power(F(1, 63)), (0, 0): FieldElement.one()})
    for gamma in (F(1, 64), F(1, 65)):  # 1/63 - 1/64 = 1/4032; 1/65 itself
        with pytest.raises(ExponentBlowup) as got:
            p.residue_shift(gamma)
        with pytest.raises(ExponentBlowup) as want:
            reference_residue_shift(p, gamma)
        assert str(got.value) == str(want.value)
    with pytest.raises(ExponentBlowup):
        Polynomial(VS).residue_shift(F(1, 65))
    truncated = Polynomial(VS, {(1, 1): FieldElement([(F(1, 63), 1)], 2)})
    with pytest.raises(ExponentBlowup):
        truncated.residue_shift(F(1, 64))


# -- the slice peel --------------------------------------------------------------------


@st.composite
def layers(draw):
    """(residual, rbar, squares, gamma) as generation's loop has them, with
    squares drawn freely: the peel only lifts them."""
    p = draw(polynomials())
    try:
        gamma = p.gauss_valuation().value
        rbar = certificates._residue_polynomial(p.residue_shift(gamma)) if gamma is not None else None
    except RcvfError:
        rbar = None
    if rbar is None or rbar.is_exactly_zero():
        return None
    squares = []
    for _ in range(draw(st.integers(1, 3))):
        monomials = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=3,
                                  unique=True))
        squares.append(ResiduePolynomial(VS, {m: draw(coefficients) for m in monomials}))
    return p, rbar, squares, gamma


@settings(max_examples=400, derandomize=True)
@given(layer=layers())
def test_slice_peel_matches_subtracting_the_lift(layer):
    if layer is None:
        return
    got = outcome(certificates._peel_layer, *layer, VS)
    want = outcome(reference_peel, *layer, VS)
    if not isinstance(want, tuple) or isinstance(want[0], type):
        assert got == want
        return
    (summands, residual), (ref_summands, ref_residual) = got, want
    assert exact_form(residual) == exact_form(ref_residual)
    assert [(exact_form(s.num), exact_form(s.den)) for s in summands] == \
           [(exact_form(s.num), exact_form(s.den)) for s in ref_summands]


def test_slice_peel_of_a_truncated_layer_keeps_its_precision():
    # (1 + O(eps^32))*x1^2 + eps: the x1^2 layer leaves O(eps^32)*x1^2, not an exact zero.
    p = Polynomial(VS, {(2, 0): FieldElement([(0, 1)], 32), (0, 0): FieldElement.eps_power(1)})
    rbar = certificates._residue_polynomial(p)
    layer = (p, rbar, [ResiduePolynomial.variable("x1", VS)], F(0))
    (summands, residual), (_, ref_residual) = certificates._peel_layer(*layer, VS), reference_peel(*layer, VS)
    assert exact_form(residual) == exact_form(ref_residual)
    assert residual.terms[(2, 0)].precision == 32 and not residual.terms[(2, 0)].terms
    assert str(summands[0]) == "x1"


def test_slice_peel_past_the_cap_raises():
    # gamma = 1/33: gamma/2 = 1/66 passes the cap, as eps_power(gamma/2) did.
    p = Polynomial(VS, {(0, 0): FieldElement.eps_power(F(1, 33))})
    rbar = certificates._residue_polynomial(p.residue_shift(F(1, 33)))
    squares = [ResiduePolynomial.constant(1, VS)]
    for peel in (certificates._peel_layer, reference_peel):
        with pytest.raises(ExponentBlowup):
            peel(p, rbar, squares, F(1, 33), VS)


# -- ldl_psd -------------------------------------------------------------------------


def _random_symmetric(rng, n, kind):
    def q():
        return F(rng.randint(-4, 4), rng.randint(1, 3))

    if kind == "indefinite":
        G = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                G[i][j] = G[j][i] = q()
        return G
    if kind == "zero_diagonal":
        # T B T^T with B = D + [[0, a], [a, 0]]: a Schur complement with a zero
        # diagonal and a non-zero off-diagonal entry once D is eliminated.
        B = [[F(0)] * n for _ in range(n)]
        for i in range(n - 2):
            B[i][i] = F(rng.randint(1, 5), rng.randint(1, 3))
        B[n - 2][n - 1] = B[n - 1][n - 2] = q() or F(1)
        T = [[F(1) if i == j else (q() if j < i else F(0)) for j in range(n)] for i in range(n)]
        perm = list(range(n))
        rng.shuffle(perm)
        T = [T[i] for i in perm]
    else:
        # PSD of rank <= n; "singular" has rank below n and a zero row.
        rank = rng.randint(1, n - 1) if kind == "singular" else n
        T = [[q() for _ in range(rank)] for _ in range(n)]
        if kind == "singular":
            T[rng.randrange(n)] = [F(0)] * rank
        B = [[F(1) if i == j else F(0) for j in range(rank)] for i in range(rank)]
    k = len(B)
    TB = [[sum(T[i][a] * B[a][b] for a in range(k)) for b in range(k)] for i in range(n)]
    return [[sum(TB[i][b] * T[j][b] for b in range(k)) for j in range(n)] for i in range(n)]


def test_ldl_psd_matches_the_eager_basis():
    rng = random.Random(20261019)
    exits = set()
    for trial in range(600):
        kind = ("psd", "singular", "indefinite", "zero_diagonal")[trial % 4]
        n = rng.randint(2, 6)
        G = _random_symmetric(rng, n, kind)
        want, exit_taken = reference_ldl_psd(G)
        exits.add(exit_taken)
        assert sos.ldl_psd(G) == want, (kind, G)
    assert exits == {"psd", "negative_pivot", "zero_diagonal"}
    assert sos.ldl_psd([[F(0), F(1)], [F(1), F(0)]]) == ("indefinite", [F(1), F(-1)])
    assert sos.ldl_psd([]) == ("psd", [])
