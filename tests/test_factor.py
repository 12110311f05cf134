"""The in-house integer factoriser behind two_squares, and the sympy-free import."""

import math
import os
import subprocess
import sys
from pathlib import Path

import rcvf
from rcvf.sos import _brent_rho, _factor, two_squares

P10A, P10B = 1000000007, 2147483647  # primes of about ten digits


def test_one_has_no_factors():
    assert _factor(1) == {}


def test_prime_powers():
    for p, e in ((2, 1), (2, 40), (3, 5), (97, 3), (101, 2), (10007, 4), (P10A, 2)):
        assert _factor(p**e) == {p: e}


def test_product_of_two_ten_digit_primes():
    assert _factor(P10A * P10B) == {P10A: 1, P10B: 1}
    assert _factor(12 * P10A * P10B**2) == {2: 2, 3: 1, P10A: 1, P10B: 2}


def test_factors_beyond_the_rho_budget():
    # Rho's walk is capped; the elliptic-curve method finds 13-digit factors.
    p, q = 3000000000013, 7000000000009
    assert _brent_rho(p * q) is None
    assert _factor(p * q) == {p: 1, q: 1}
    a, b = two_squares(p * q)
    assert a * a + b * b == p * q


def test_factorisation_multiplies_back():
    for n in range(1, 3000):
        f = _factor(n)
        assert math.prod(p**e for p, e in f.items()) == n
        assert all(_factor(p) == {p: 1} for p in f)


def test_three_mod_four_prime_with_odd_exponent_is_not_two_squares():
    for p in (3, 7, 11, 10007, P10B):
        assert p % 4 == 3
        assert two_squares(p) is None
        assert two_squares(p**3 * 5) is None
        a, b = two_squares(p**2 * 5)
        assert a * a + b * b == p**2 * 5


def test_two_squares_large():
    n = 5 * 13 * 1000000009 * P10A**2
    a, b = two_squares(n)
    assert a * a + b * b == n


def test_import_does_not_load_sympy():
    code = "import rcvf, sys; assert 'sympy' not in sys.modules"
    src = str(Path(rcvf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
