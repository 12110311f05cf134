"""Expression parsing, JSON encoding, subcommands, exit codes, determinism."""

import contextlib
import io
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from rcvf.cli import run
from rcvf.errors import ParseError
from rcvf.jsonio import (
    canonical_dumps,
    certificate_from_json,
    certificate_to_json,
    ring_expr_from_json,
    ring_expr_to_json,
    set_from_json,
    set_to_json,
)
from rcvf.parser import parse_expression
from rcvf.poly import Polynomial, RationalFunction
from rcvf.series import FieldElement
from rcvf.sets import AffineModuleMap, SetDescriptor

from conftest import random_exact_element, small_fraction, subprocess_env

F = Fraction


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(list(argv))
    return code, buf.getvalue()


class TestParser:
    def test_spec_examples(self):
        p = parse_expression("1 - eps*x^2")
        assert isinstance(p, Polynomial)
        rf = parse_expression("(x+eps)/x")
        assert isinstance(rf, RationalFunction)
        with pytest.raises(ParseError) as err:
            parse_expression("eps^(3/2")
        assert err.value.position == 8

    def test_round_trip_random_expressions(self):
        rng = random.Random(321)
        for _ in range(1000):
            kind = rng.randrange(3)
            if kind == 0:
                v = random_exact_element(rng, max_terms=4, allow_negative_exponents=True)
                v2 = parse_expression(str(v))
                assert isinstance(v2, FieldElement)
                assert (v - v2).is_exact_zero()
            elif kind == 1:
                v = _random_poly(rng)
                v2 = parse_expression(str(v))
                if isinstance(v2, FieldElement):
                    v2 = Polynomial.constant(v2, v.variables)
                assert (v - v2).is_exactly_zero()
            else:
                num, den = _random_poly(rng), _random_poly(rng)
                if den.is_exactly_zero():
                    continue
                v = RationalFunction(num, den)
                text = f"({v.num})/({v.den})"
                v2 = parse_expression(text)
                if not isinstance(v2, RationalFunction):
                    v2 = RationalFunction(v2 if isinstance(v2, Polynomial)
                                          else Polynomial.constant(v2))
                assert v == v2


def _random_poly(rng):
    frame = tuple(sorted(rng.sample(["x", "y", "x1", "x2"], rng.randint(1, 2))))
    terms = {}
    for _ in range(rng.randint(1, 4)):
        expv = tuple(rng.randint(0, 3) for _ in frame)
        c = random_exact_element(rng, max_terms=2)
        if not c.is_visibly_zero():
            terms[expv] = c
    return Polynomial(frame, terms)


class TestJsonRoundTrips:
    def test_set_round_trip(self):
        for sd in (SetDescriptor.unit_polydisc(2),
                   SetDescriptor.unit_polydisc(1, strict_constraints=[Polynomial.variable("x1")]),
                   SetDescriptor.affine_module(AffineModuleMap(
                       (FieldElement.one(),), (FieldElement.eps_power(1),)))):
            blob = canonical_dumps(set_to_json(sd))
            sd2 = set_from_json(json.loads(blob))
            assert canonical_dumps(set_to_json(sd2)) == blob
            assert sd2 == sd

    def test_certificate_bit_exact_round_trip(self):
        code, out = run_cli("cert", "find", "--p", "1 - eps*x^2", "--set", "ball:1", "--seed", "5")
        assert code == 0
        payload = json.loads(out)
        cert_json = payload["certificate"]
        p, sd, cert = certificate_from_json(cert_json)
        again = certificate_to_json(p, sd, cert)
        assert canonical_dumps(again) == canonical_dumps(cert_json)

    def test_ring_expr_round_trip(self):
        tree = {"op": "prod", "args": [{"op": "gen", "index": 0},
                                       {"op": "iord", "summands": [{"num": "x1", "den": "1"}]}]}
        expr = ring_expr_from_json(tree)
        assert canonical_dumps(ring_expr_to_json(expr)) == canonical_dumps(tree)


class TestExitCodes:
    def test_eval_ok(self):
        code, out = run_cli("eval", "--expr", "1 - eps*x^2")
        assert code == 0
        assert json.loads(out)["value"]["type"] == "poly"

    def test_parse_error_is_usage(self):
        code, out = run_cli("eval", "--expr", "eps^(3/2")
        assert code == 2
        assert json.loads(out)["error"]["position"] == 8

    def test_cert_verify_accepts_reference(self, tmp_path):
        code, out = run_cli("cert", "find", "--p", "1 - eps*x^2", "--set", "ball:1",
                            "--seed", "5", "--out", str(tmp_path / "cert.json"))
        assert code == 0
        code2, out2 = run_cli("cert", "verify", str(tmp_path / "cert.json"))
        assert code2 == 0
        assert json.loads(out2)["verified"] is True

    def test_cert_verify_rejects_corrupted(self, tmp_path):
        code, out = run_cli("cert", "find", "--p", "1 - eps*x^2", "--set", "ball:1",
                            "--seed", "5", "--out", str(tmp_path / "cert.json"))
        assert code == 0
        blob = json.loads((tmp_path / "cert.json").read_text())
        blob["m"] = "1"
        bad = tmp_path / "bad.json"
        bad.write_text(canonical_dumps(blob))
        code2, out2 = run_cli("cert", "verify", str(bad))
        assert code2 == 1
        assert json.loads(out2)["verified"] is False

    def test_psd_falsify_witness(self):
        code, out = run_cli("psd", "--p", "eps - x^2", "--set", "ball:1", "--falsify", "--seed", "7")
        assert code == 1
        witness = json.loads(out)["witness"]
        assert witness["point"] == ["1"]

    def test_psd_falsify_none(self):
        code, out = run_cli("psd", "--p", "x^2", "--set", "ball:1", "--falsify", "--seed", "7")
        assert code == 0
        assert json.loads(out)["witness"] is None

    def test_integral_divergence_case(self):
        code, out = run_cli("integral", "--h", "(x+eps)/x", "--set", "ball:1", "--seed", "7")
        assert code == 1
        payload = json.loads(out)
        assert payload["gauss"]["integral"] is True
        assert payload["pointwise"]["verdict"] == "counterexample_found"
        assert payload["pointwise"]["point"] == ["eps^2"]

    def test_integral_clean_case(self):
        code, out = run_cli("integral", "--h", "x^2", "--set", "ball:1", "--seed", "7",
                            "--samples", "200")
        assert code == 0

    def test_probe41(self):
        code, out = run_cli("psd", "--p", "eps - x^2", "--set", "ball:1", "--probe41",
                            "--seed", "7", "--samples", "200")
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] == "negativity_witness"
        assert payload["c"] is not None
        code2, out2 = run_cli("psd", "--p", "x^2", "--set", "ball:1", "--probe41",
                              "--seed", "7", "--samples", "200")
        assert code2 == 0

    def test_missing_seed_is_usage_error(self, capsys):
        code, _ = run_cli("integral", "--h", "x", "--set", "ball:1")
        assert code == 2

    def test_small_commands(self):
        assert run_cli("val", "--expr", "3*eps^2 + eps^5")[1].find('"3"') == -1  # valuation is 2
        code, out = run_cli("val", "--expr", "3*eps^2 + eps^5")
        assert json.loads(out)["valuation"] == "2"
        code, out = run_cli("val", "--expr", "0")
        assert json.loads(out)["valuation"] == "TOP"
        code, out = run_cli("res", "--expr", "3 + eps")
        assert json.loads(out)["residue"] == "3"
        code, out = run_cli("res", "--expr", "eps^-1")
        assert code == 2
        code, out = run_cli("cmp", "--a", "eps", "--b", "1/1000000000")
        assert json.loads(out)["order"] == "LT"
        code, out = run_cli("gauss", "--expr", "eps*x^2 + 3*y")
        assert json.loads(out)["gauss"] == "0"
        code, out = run_cli("gauss", "--expr", "(x+eps)/x")
        assert json.loads(out)["gauss"] == "0"

    def test_selftest(self):
        code, out = run_cli("selftest", "--seed", "11")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_large_power_by_repeated_squaring(self):
        # n multiplications would not finish; a child process turns a hang into a failure.
        proc = subprocess.run([sys.executable, "-m", "rcvf.cli", "eval", "--expr", "x^99999999"],
                              capture_output=True, text=True, timeout=20, env=subprocess_env())
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == {"type": "poly", "text": "x^99999999"}

    @pytest.mark.parametrize("degree", [60, 1000])
    def test_high_degree_falsifier_reads_leading_terms(self, degree):
        # The exact value of x^d at a k-term sample point has O(d*k) terms; the sign
        # needs only the leading one.  A child process turns a hang into a failure.
        argv = ["psd", "--p", f"x^{degree} + 1", "--set", "ball:1", "--falsify", "--seed", "1"]
        proc = subprocess.run([sys.executable, "-m", "rcvf.cli", *argv],
                              capture_output=True, text=True, timeout=20, env=subprocess_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == '{"command":"psd","mode":"falsify","samples":500,"witness":null}\n'

    def test_strict_constraint_signs_read_leading_terms(self, tmp_path):
        # Rejection sampling tests x^80 + 1 > 0 at every drawn point; exact values of
        # x^80 there have O(80*k) terms, the sign needs only the leading one.
        path = tmp_path / "strict.json"
        path.write_text(json.dumps({"kind": "ball", "n": 1, "strict": ["x^80 + 1"]}))
        argv = ["psd", "--p", "x^2 + 1", "--set", str(path), "--falsify", "--seed", "1"]
        proc = subprocess.run([sys.executable, "-m", "rcvf.cli", *argv],
                              capture_output=True, text=True, timeout=20, env=subprocess_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == '{"command":"psd","mode":"falsify","samples":500,"witness":null}\n'

    def test_internal_error_is_exit_2(self, monkeypatch):
        def crash(args):
            raise TypeError("boom")
        monkeypatch.setattr("rcvf.cli._cmd_eval", crash)
        code, out = run_cli("eval", "--expr", "x")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "internal"

    def test_trunc_flag_scopes_to_one_invocation(self):
        code, out = run_cli("eval", "--expr", "1/(1-eps)", "--trunc", "5")
        payload = json.loads(out)["value"]
        assert payload["text"] == "1 + eps + eps^2 + eps^3 + eps^4"
        assert payload["precision"] == "5"
        code2, out2 = run_cli("eval", "--expr", "1/(1-eps)")
        assert json.loads(out2)["value"]["precision"] == "32"


_TRIVIAL_WITNESS = {"num": {"op": "const", "value": "0"},
                    "den": {"m": "0", "a": {"op": "const", "value": "0"}}, "monic": None}
# 5 = 1^2 + 2^2 with m = 0 and the trivial witness; each case breaks one JSON type.
_WELL_FORMED = {"p": "5", "set": {"kind": "ball", "n": 1}, "r": ["1", "2"], "m": "0",
                "h": {"num": "0", "den": "1"}, "witness": _TRIVIAL_WITNESS}


def _zero_times(expr):
    """A witness numerator 0 * expr: the file verifies whatever expr denotes."""
    return dict(_TRIVIAL_WITNESS, num={"op": "prod", "args": [{"op": "const", "value": "0"}, expr]})


def _cone_inverse(factors):
    return {"op": "icone", "entries": [{"coeff": [{"num": "1", "den": "1"}], "factors": factors}]}


_STRICT_SET = {"kind": "ball", "n": 1, "strict": ["x1"]}


class TestMalformedCertificates:
    # The last five put a float or a boolean where a JSON integer belongs;
    # int() would read each one as a valid index or dimension.
    @pytest.mark.parametrize("blob", [
        dict(_WELL_FORMED, r="12"),  # a string would be read as the summands "1" and "2"
        [_WELL_FORMED],
        dict(_WELL_FORMED, witness=dict(_TRIVIAL_WITNESS, num={"op": "sum", "args": 5})),
        dict(_WELL_FORMED, set={"kind": "ball", "n": 1.7}),
        dict(_WELL_FORMED, set={"kind": "ball", "n": True}),
        dict(_WELL_FORMED, witness=_zero_times({"op": "gen", "index": 0.9})),
        dict(_WELL_FORMED, witness=_zero_times({"op": "gen", "index": False})),
        dict(_WELL_FORMED, set=_STRICT_SET, witness=_zero_times(_cone_inverse([0.5]))),
    ], ids=["string_r", "top_level_list", "integer_args", "float_n", "bool_n", "float_index",
            "bool_index", "float_factor"])
    def test_malformed_file_is_usage_error(self, tmp_path, blob):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(blob))
        code, out = run_cli("cert", "verify", str(path))
        assert code == 2
        assert json.loads(out)["error"]["type"] == "EncodingError"

    def test_well_formed_file_verifies(self, tmp_path):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(_WELL_FORMED))
        code, out = run_cli("cert", "verify", str(path))
        assert code == 0
        assert json.loads(out)["verified"] is True

    @pytest.mark.parametrize("blob", [
        dict(_WELL_FORMED, witness=_zero_times({"op": "gen", "index": 0})),
        dict(_WELL_FORMED, set=_STRICT_SET, witness=_zero_times(_cone_inverse([0]))),
    ], ids=["integer_index", "integer_factor"])
    def test_integer_fields_verify(self, tmp_path, blob):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(blob))
        code, out = run_cli("cert", "verify", str(path))
        assert code == 0
        assert json.loads(out)["verified"] is True


class TestDeterminism:
    COMMANDS = [
        ("integral", "--h", "(x+eps)/x", "--set", "ball:1", "--seed", "9", "--samples", "150"),
        ("psd", "--p", "eps - x^2", "--set", "ball:1", "--falsify", "--seed", "9", "--samples", "150"),
        ("psd", "--p", "1 - eps*x^2", "--set", "ball:1", "--generate", "--seed", "9", "--samples", "150"),
        ("psd", "--p", "x^2 - 4", "--set", "ball:1", "--probe41", "--seed", "9", "--samples", "150"),
        ("cert", "find", "--p", "x^2 + 2*x*y + 2*y^2", "--set", "ball:2", "--seed", "9", "--samples", "150"),
        ("selftest", "--seed", "9"),
    ]

    def test_byte_identical_reruns(self):
        for argv in self.COMMANDS:
            code1, out1 = run_cli(*argv)
            code2, out2 = run_cli(*argv)
            assert code1 == code2
            assert out1 == out2, argv


class TestAffineSetLoading:
    def test_affine_set_file(self, tmp_path):
        spec = {"kind": "affine", "centers": ["1"], "scales": ["eps"]}
        path = tmp_path / "module.json"
        path.write_text(json.dumps(spec))
        code, out = run_cli("integral", "--h", "x", "--set", f"affine:{path}", "--seed", "3",
                            "--samples", "100")
        assert code == 0

    def test_strict_constraint_file(self, tmp_path):
        spec = {"kind": "ball", "n": 1, "strict": ["x1"]}
        path = tmp_path / "set.json"
        path.write_text(json.dumps(spec))
        code, out = run_cli("psd", "--p", "x1", "--set", str(path), "--falsify", "--seed", "3",
                            "--samples", "150")
        # x1 > 0 on the set, so no witness
        assert code == 0
