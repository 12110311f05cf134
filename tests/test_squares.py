"""Sums of two and four squares without factoring, and the dependency-free import."""

import json
import subprocess
import sys

from rcvf.sos import four_squares, two_squares

from conftest import subprocess_env

P10A, P10B = 1000000007, 2147483647  # primes of about ten digits


def _assert_four_squares(n):
    parts = four_squares(n)
    assert len(parts) == 4 and min(parts) >= 0
    assert sum(v * v for v in parts) == n


def test_three_mod_four_prime_with_odd_exponent_is_not_two_squares():
    for p in (3, 7, 11, 10007, P10B):
        assert p % 4 == 3
        assert two_squares(p) is None
        assert two_squares(p**3 * 5) is None


def test_recognised_forms():
    for n in (0, 1, 2, 5, 10, 49, 13 * 2, P10A**2, 1000000009, 2 * 1000000009):
        a, b = two_squares(n)
        assert a * a + b * b == n


def test_four_squares_of_composites_with_large_factors():
    # Formerly split into two squares by factoring; four_squares needs no factors.
    for p in (3, 7, 11, 10007, P10B):
        _assert_four_squares(p**2 * 5)
    _assert_four_squares(5 * 13 * 1000000009 * P10A**2)
    _assert_four_squares(3000000000013 * 7000000000009)


def _import_leaves_out(module):
    code = f"import rcvf, rcvf.cli, sys; assert {module!r} not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env=subprocess_env())


def test_import_does_not_load_sympy():
    _import_leaves_out("sympy")


_BLOCK_NUMPY = """
import sys

class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "numpy":
            raise ImportError("numpy is blocked")

sys.meta_path.insert(0, BlockNumpy())
from rcvf.cli import run
code = run(["cert", "find", "--p", "x1^4 - x1^3 + x1^2 - x1 + 1", "--set", "ball:1", "--seed", "0"])
assert "numpy" not in sys.modules
sys.exit(code)
"""


def test_import_does_not_load_numpy():
    _import_leaves_out("numpy")
    # cert find runs the Gram search on a family of dimension 1 whose
    # particular solution is indefinite, with numpy unimportable.
    done = subprocess.run([sys.executable, "-c", _BLOCK_NUMPY], capture_output=True, text=True,
                          env=subprocess_env(), timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["outcome"] == "certificate"
