"""Expression parsing, JSON encoding, subcommands, exit codes, determinism."""

import contextlib
import io
import json
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from rcvf import certificates, parser
from rcvf.cli import _parser, build_parser, run
from rcvf.errors import NumberTooLong, ParseError, RcvfError
from rcvf.jsonio import (
    EncodingError,
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


    def test_monomial_path_matches_general_path(self, monkeypatch):
        # Monomial terms are read by one match of the frame's term regex straight
        # into the sum; the general path (every term through term(), the sum
        # folded as it goes) must give the same value, term for term and
        # precision for precision, or the same error at the same offset.  The
        # pattern is the seam: recorded on the first run, and on the second one
        # that matches nothing, so every term takes the general path.
        rng = random.Random(654)
        texts = [_random_text(rng) for _ in range(400)]
        texts += ["0*x", "0*eps^(1/3)*eps^(1/64)", "eps^(1/3)*eps^(1/64)*x", "x*eps^(1/65)", "2^3*x",
                  "x^-1 + 1", "1 + x^-1 + x", "-x + x", "1/(1+eps)*x + x - x", "3/0*x", "x/0", "eps^(3/0)",
                  "x^(1/2)", "2*-x", "x^2^3", "eps(1)", "1 +", "(x + 1)*x - x^2 - x", "eps^(-5/64)*eps^(1/2)",
                  "0*x + 1/x", "0 - 1/x + x"]
        formatted = _formatted_texts(random.Random(657), 300)
        for piece in ("-1*eps*x1^2", ")*x", "eps^(1/2)", "eps^-1", "eps^(1/65)", " + -"):
            assert any(piece in t for t in formatted), piece
        texts += formatted + ["x12 + x1", "x1x2", "epsx", "eps1*x", "2eps", "3/00*x", "x^23x", "1 + -x^2",
                              "1 + -2^2*x", "--2*x", "x2*x1 - x1*x2", "1 - - 2*x", "1+-2/3*x-4", "(x) y"]
        shaped = _verify_shaped_texts(random.Random(658), 40)
        assert all(t.count("*x") >= 30 for t in shaped)  # 60-term sums
        for piece in ("eps^(1/64)", "eps^(1/65)", "eps^4*x1^2*x2^3 - 5/2*eps^4*x1^2*x2^3"):
            assert any(piece in t for t in shaped), piece
        texts += shaped
        reads = []
        term_regex = parser._term_regex

        class Recorded:
            def __init__(self, frame):
                self.pattern = term_regex(frame)

            def match(self, text, pos):
                m = self.pattern.match(text, pos)
                reads.append(m is not None)
                return m

        monkeypatch.setattr(parser, "_term_regex", Recorded)
        ran = [_parsed(t) for t in texts]
        assert reads.count(True) > 1000 and reads.count(False) > 1000  # both paths read many terms
        assert reads.count(True) > 2000 + len(shaped) * 40  # the shaped sums take the monomial pass
        values = [parse_expression(t) for t in shaped if "eps^(1/65)" not in t]
        assert len(values) >= 30 and all(isinstance(v, Polynomial) for v in values)
        one_key = [len(c.terms) == 1 for v in values for c in v.terms.values()]
        assert one_key.count(True) > 100 and one_key.count(False) > 100  # one-key and multi-key eps tables
        monkeypatch.setattr(parser, "_term_regex", lambda frame: re.compile(r"(?!)"))
        assert [_parsed(t) for t in texts] == ran
        assert len({r[0] for r in ran}) == 6  # scalars, polynomials, quotients and three kinds of error

    def test_nesting_is_bounded(self):
        deep = parse_expression("(" * 64 + "x" + ")" * 64)
        assert deep == parse_expression("x")
        with pytest.raises(ParseError) as err:
            parse_expression("1 + " + "(" * 65 + "x" + ")" * 65)
        assert err.value.position == 4 + 64
        # A run of signs is read in a loop, not one recursion per sign.
        assert parse_expression("2*" + "-" * 3001 + "x") == parse_expression("-2*x")

    def test_deep_nesting_is_a_parse_error_on_the_command_line(self):
        code, out = run_cli("eval", "--expr", "(" * 3000 + "1" + ")" * 3000)
        assert code == 2
        assert json.loads(out) == {"error": {"message": "parentheses nested deeper than 64 at offset 64",
                                             "position": 64, "type": "parse"}}

    @pytest.mark.parametrize("text, position", [
        ("9" * 5000, 0), ("2*x + 3/" + "1" * 4301, 8), ("x^" + "7" * 4400 + " + 1", 2),
        ("x1^2 + (1 - eps*x2)*" + "5" * 4301 + "*x1", 20), ("2*x" + "1" * 4301 + " + 1", 3)],
        ids=["literal", "denominator", "exponent", "factor", "variable"])
    def test_long_integer_literal_is_a_parse_error(self, text, position):
        # int() refuses more than sys.get_int_max_str_digits() digits with a ValueError.
        with pytest.raises(ParseError, match="number longer than 4300 digits") as err:
            parse_expression(text)
        assert err.value.position == position
        code, out = run_cli("eval", "--expr", text)
        assert code == 2 and json.loads(out)["error"]["position"] == position
        assert parse_expression("1" * 4300 + "*x") == parse_expression("x") * int("1" * 4300)

    @pytest.mark.parametrize("argv", [
        ("eval", "--expr", "2*x + 3*" + "9" * 4300), ("res", "--expr", "3*" + "9" * 4300),
        ("val", "--expr", "x*eps^" + "9" * 4300 + "*eps^" + "9" * 4300),
        ("eval", "--expr", "x^" + "9" * 4300 + "*x^" + "9" * 4300)],
        ids=["coefficient", "residue", "valuation", "exponent"])
    def test_long_integer_in_a_result_is_number_too_long(self, argv):
        # Each literal is within the limit; the result's integer is one digit longer.
        code, out = run_cli(*argv)
        assert code == 2
        assert json.loads(out) == {"error": {"type": "NumberTooLong", "message":
                                             "result has an integer longer than the output limit of 4300 digits"}}
        with pytest.raises(NumberTooLong):
            str(parse_expression(argv[2]))

    @pytest.mark.parametrize("text, position", [("x\u0661 + 1", 1), ("\u0663", 0), ("2*x1\u0663", 4),
                                                 ("eps^(1/\u0662)", 7)])
    def test_only_ascii_digits(self, text, position):
        # Arabic-Indic digits are Unicode digits; x\u0661 would sort as x1.
        with pytest.raises(ParseError) as err:
            parse_expression(text)
        assert err.value.position == position


def _random_text(rng, depth=0) -> str:
    terms = []
    for _ in range(rng.randint(1, 4)):
        factors = []
        for _ in range(rng.randint(1, 3)):
            k = rng.random()
            if k < 0.25:
                factors.append(rng.choice(["0", "1", "3", "2/3", "7/4", "-1"]))
            elif k < 0.45:
                factors.append("eps" + rng.choice(["", "^2", "^-1", "^0", "^(1/2)", "^(-2/3)", "^(1/64)",
                                                    "^(1/65)", "^(3/64)"]))
            elif k < 0.85 or depth >= 2:
                factors.append(rng.choice(["x", "y", "x1", "x2"]) + rng.choice(["", "", "^2", "^0", "^-1", "^(2)"]))
            else:
                factors.append("(" + _random_text(rng, depth + 1) + ")")
        terms.append("".join(f + rng.choice(["*", "*", "*", "/"]) for f in factors[:-1]) + factors[-1])
    return rng.choice(["", "-"]) + "".join(t + rng.choice([" + ", " - "]) for t in terms[:-1]) + terms[-1]


def _formatted_texts(rng, count) -> list:
    """Canonical texts of random polynomials (format_polynomial), and each one
    with an eps^(1/64) made eps^(1/65), beyond the exponent-denominator cap."""
    texts = []
    for _ in range(count):
        frame = tuple(sorted(rng.sample(["x", "y", "x1", "x2", "x10"], rng.randint(1, 3))))
        terms = {}
        for _ in range(rng.randint(1, 5)):
            terms[tuple(rng.randint(0, 3) for _ in frame)] = FieldElement(
                [(rng.choice([F(0), F(1), F(2), F(-1), F(1, 2), F(-2, 3), F(1, 64)]),
                  rng.choice([F(1), F(-1), F(2, 3), F(-5, 2), F(7)])) for _ in range(rng.choice((1, 1, 1, 2)))])
        texts.append(str(Polynomial(frame, terms)))
    return texts + [t.replace("eps^(1/64)", "eps^(1/65)") for t in texts if "eps^(1/64)" in t]


def _verify_shaped_texts(rng, count) -> list:
    """60-term sums written as certificate texts are: one term per monomial and
    eps power, so several terms share a monomial under distinct eps powers, and
    repeated monomials add up or cancel (each text repeats some of its terms
    with the opposite sign, and one with a changed coefficient); odd texts
    spread their terms over 64 monomials, so most have one eps power.  In every
    fourth text the last eps^(1/64) is made eps^(1/65), beyond the cap."""
    few = ["", "x1", "x2", "x1*x2", "x2^6", "x1^2*x2^3", "x1^3*x2", "x1^4*x2^2"]  # multi-key eps tables
    many = ["*".join(f for f in (f"x1^{i}" if i else "", f"x2^{j}" if j else "") if f)
            for i in range(8) for j in range(8)]  # mostly one key each
    powers = ["", "eps", "eps^2", "eps^4", "eps^-1", "eps^(1/2)", "eps^(2/3)", "eps^(1/64)"]
    texts = []
    for i in range(count):
        monomials = many if i % 2 else few
        terms = []
        for _ in range(51):
            c = rng.choice(["1", "2", "17", "1/3", "4/9", "25/4", "745/36"])
            terms.append((rng.choice(" -"), "*".join(f for f in (c, rng.choice(powers), rng.choice(monomials)) if f)))
        for sign, term in rng.sample(terms, 7):
            terms.append(("-" if sign == " " else " ", term))
        terms.append((" ", "eps^4*x1^2*x2^3"))
        terms.append(("-", "5/2*eps^4*x1^2*x2^3"))
        text = "".join((" - " if sign == "-" else " + ") + term for sign, term in terms)
        text = text[3:] if text.startswith(" + ") else "-" + text[3:]
        if i % 4 == 3 and "eps^(1/64)" in text:
            at = text.rindex("eps^(1/64)")
            text = text[:at] + "eps^(1/65)" + text[at + 10:]
        texts.append(text)
    return texts


def _canonical(v):
    if isinstance(v, FieldElement):
        return (v.terms, v.precision)
    if isinstance(v, RationalFunction):
        return (_canonical(v.num), _canonical(v.den))
    return (v.variables, [(e, _canonical(c)) for e, c in v.terms.items()])


def _parsed(text):
    try:
        v = parse_expression(text)
    except RcvfError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "position", None)
    return type(v).__name__, _canonical(v)


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

    def test_psd_falsify_aligns_p_to_the_set(self):
        # p names x1 only; the points of ball:2 have two coordinates.
        code, out = run_cli("psd", "--p", "x1^2 - 1/4", "--set", "ball:2", "--falsify", "--seed", "1")
        assert code == 1
        witness = json.loads(out)["witness"]
        point = [parse_expression(t) for t in witness["point"]]
        value = parse_expression("x1^2 - 1/4").evaluate(point[:1])
        assert len(point) == 2 and value < 0 and witness["value"] == str(value)
        code, out = run_cli("psd", "--p", "x1^2 - 1/4", "--set", "ball:2", "--generate", "--seed", "1")
        assert code == 1 and json.loads(out)["witness"]["point"] == witness["point"]

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

    def test_probe_without_negative_sample_tests_no_c(self):
        # p >= 0 on every sample: 1 + c^2 p(b) >= 1 is integral for every c, so the
        # probe needs no exact value of x^1000.  A child process turns a hang into a failure.
        argv = ["psd", "--p", "x^1000 + 1", "--set", "ball:1", "--probe41", "--seed", "1"]
        proc = subprocess.run([sys.executable, "-m", "rcvf.cli", *argv],
                              capture_output=True, text=True, timeout=20, env=subprocess_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ('{"command":"psd","mode":"probe41",'
                               '"samples_tested":500,"verdict":"consistent_nonneg"}\n')

    def test_probe_confirmation_reads_leading_terms(self):
        # Confirming a point needs only the leading term of 1 + c^2 p(b'), not an
        # exact value of x^120 at each candidate.  A child process turns a hang into a failure.
        argv = ["psd", "--p", "x^120 - 4", "--set", "ball:1", "--probe41", "--seed", "1"]
        proc = subprocess.run([sys.executable, "-m", "rcvf.cli", *argv],
                              capture_output=True, text=True, timeout=20, env=subprocess_env())
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ('{"c":"1/2 + 1/2*eps","command":"psd",'
                               '"confirm_point":["2*eps"],"mode":"probe41","point":["eps"],'
                               '"samples_tested":500,"verdict":"negativity_witness"}\n')

    @pytest.mark.parametrize("argv", [
        ("eval", "--expr", "1/(1+eps)", "--trunc", "-2"),
        ("eval", "--expr", "1/(1+eps)", "--trunc", "0"),
        ("psd", "--p", "x^2", "--set", "ball:1", "--falsify", "--seed", "1", "--samples", "0"),
        ("psd", "--p", "x^2", "--set", "ball:1", "--falsify", "--seed", "1", "--samples", "-5"),
        ("psd", "--p", "x^2", "--set", "ball:1", "--seed", "1", "--depth", "-1"),
        ("cert", "find", "--p", "x^2", "--set", "ball:1", "--seed", "1", "--max-basis", "-1"),
    ], ids=["trunc-negative", "trunc-zero", "samples-zero", "samples-negative", "depth",
            "max-basis"])
    def test_out_of_range_numeric_option_is_usage_error(self, argv, capsys):
        code, out = run_cli(*argv)
        assert (code, out) == (2, "")
        assert "must be at least" in capsys.readouterr().err

    def test_internal_error_is_exit_2(self, monkeypatch):
        def crash(args):
            raise TypeError("boom")
        monkeypatch.setattr("rcvf.cli._cmd_eval", crash)
        code, out = run_cli("eval", "--expr", "x")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "internal"

    def test_hidden_coefficient_above_a_known_valuation_is_no_error(self):
        # The second layer's residual O(eps^32)*x1^2 + eps has Gauss valuation 1.
        code, out = run_cli("cert", "find", "--p", "1/(1+eps^40)*x1^2 + eps", "--set", "ball:1", "--seed", "0")
        payload = json.loads(out)
        assert code in (0, 1) and "error" not in payload
        assert (payload["command"], payload["layers"]) == ("cert", 1)
        assert payload["outcome"] in ("candidate_without_witness", "unknown")

    def test_coefficients_beyond_float_range_are_no_error(self):
        # 10^400 has no float image, so the Gram search tries only the exact
        # particular solution; it is indefinite, and the search ends in budget.
        code, out = run_cli("cert", "find", "--p", "10^400*x1^4 - x1^3 + x1^2 - x1 + 1", "--set", "ball:1",
                            "--seed", "0", "--samples", "20")
        payload = json.loads(out)
        assert code == 0 and "error" not in payload
        assert (payload["command"], payload["outcome"]) == ("cert", "unknown")

    def test_trunc_flag_scopes_to_one_invocation(self):
        code, out = run_cli("eval", "--expr", "1/(1-eps)", "--trunc", "5")
        payload = json.loads(out)["value"]
        assert payload["text"] == "1 + eps + eps^2 + eps^3 + eps^4"
        assert payload["precision"] == "5"
        code2, out2 = run_cli("eval", "--expr", "1/(1-eps)")
        assert json.loads(out2)["value"]["precision"] == "32"

    def test_shared_parser_parses_as_a_fresh_one(self, capsys):
        # run() builds its parser once per process; mixed calls, usage errors and
        # --help must leave it as a fresh build_parser() would be.
        argvs = [
            ["psd", "--p", "x", "--set", "ball:1", "--probe41", "--seed", "1"],
            ["psd", "--p", "x", "--set", "ball:1", "--falsify", "--seed", "1"],
            ["psd", "--p", "x", "--set", "ball:1", "--falsify", "--probe41", "--seed", "1"],
            ["eval", "--expr", "x", "--trunc", "5", "--pretty"],
            ["eval", "--expr", "x"],
            ["cert", "find", "--p", "x", "--set", "ball:1", "--seed", "2", "--depth", "0"],
            ["cert", "verify", "c.json"],
            ["cert"],
            ["selftest", "--seed", "-1"],
            ["--help"],
            ["psd", "--help"],
        ]

        def parsed(parser, argv):
            try:
                return vars(parser.parse_args(argv))
            except SystemExit as exc:
                return exc.code

        fresh = []
        for argv in argvs:
            fresh.append((parsed(build_parser(), argv), capsys.readouterr()))
        for _ in range(2):
            for argv, want in zip(argvs, fresh):
                assert (parsed(_parser(), argv), capsys.readouterr()) == want, argv


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
    # Five put a float or a boolean where a JSON integer belongs; int() would
    # read each one as a valid index or dimension.  The last three hold a
    # truncated value (1/(1+eps) is cut at the working order), which verified
    # as false, exit 1, before.
    @pytest.mark.parametrize("blob", [
        dict(_WELL_FORMED, r="12"),  # a string would be read as the summands "1" and "2"
        [_WELL_FORMED],
        dict(_WELL_FORMED, witness=dict(_TRIVIAL_WITNESS, num={"op": "sum", "args": 5})),
        dict(_WELL_FORMED, set={"kind": "ball", "n": 1.7}),
        dict(_WELL_FORMED, set={"kind": "ball", "n": True}),
        dict(_WELL_FORMED, witness=_zero_times({"op": "gen", "index": 0.9})),
        dict(_WELL_FORMED, witness=_zero_times({"op": "gen", "index": False})),
        dict(_WELL_FORMED, set=_STRICT_SET, witness=_zero_times(_cone_inverse([0.5]))),
        dict(_WELL_FORMED, p="1/(1+eps)*x1^2"),
        dict(_WELL_FORMED, h={"num": "1/(1+eps)*x1^2", "den": "1"}),
        dict(_WELL_FORMED, witness=_zero_times({"op": "const", "value": "1/(1+eps)"})),
    ], ids=["string_r", "top_level_list", "integer_args", "float_n", "bool_n", "float_index",
            "bool_index", "float_factor", "truncated_p", "truncated_h_num", "truncated_witness_const"])
    def test_malformed_file_is_usage_error(self, tmp_path, blob):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(blob))
        code, out = run_cli("cert", "verify", str(path))
        assert code == 2
        assert json.loads(out)["error"]["type"] == "EncodingError"

    # A missing field or an empty list of summands was a KeyError or a
    # ValueError; each is now an EncodingError that names the field's path.
    @pytest.mark.parametrize("blob, path", [
        ({k: v for k, v in _WELL_FORMED.items() if k != "p"}, "missing field p"),
        (dict(_WELL_FORMED, set={"n": 1}), "missing field set.kind"),
        ({k: v for k, v in _WELL_FORMED.items() if k != "witness"}, "missing field witness"),
        (dict(_WELL_FORMED, witness=dict(_TRIVIAL_WITNESS, num={"op": "const"})), "missing field witness.num.value"),
        (dict(_WELL_FORMED, r=[]), "r must hold at least one summand"),
    ], ids=["missing_p", "missing_set_kind", "missing_witness", "missing_const_value", "empty_r"])
    def test_missing_field_is_usage_error(self, tmp_path, blob, path):
        file = tmp_path / "cert.json"
        file.write_text(json.dumps(blob))
        code, out = run_cli("cert", "verify", str(file))
        assert code == 2
        assert json.loads(out)["error"] == {"type": "EncodingError", "message": path}

    def test_nested_missing_field_names_its_path(self):
        blob = dict(_WELL_FORMED, witness=_zero_times({"op": "sum", "args": [{"op": "gen", "index": 0},
                                                                            {"op": "iord", "summands": [{"num": "1"}]}]}))
        with pytest.raises(EncodingError, match=r"missing field witness\.num\.args\[1\]\.args\[1\]\.summands\[0\]\.den$"):
            certificate_from_json(blob)

    @pytest.mark.parametrize("depth", [65, 600, 3000])
    def test_deeply_nested_ring_expression_is_usage_error(self, tmp_path, depth):
        # 600 levels overflowed json.load; deeper than 64 recursed through the
        # reader and the verifier.  Both are EncodingErrors (exit 2) now.
        # Written as text: json.dumps overflows on such an object too.
        nested = '{"op":"sum","args":[' * depth + '{"op":"const","value":"0"}' + "]}" * depth
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(dict(_WELL_FORMED, witness=_zero_times("LEAF"))).replace('"LEAF"', nested))
        code, out = run_cli("cert", "verify", str(path))
        assert code == 2
        assert json.loads(out)["error"]["type"] == "EncodingError"

    def test_ring_expression_nesting_limit(self):
        def nested(depth):
            leaf = {"op": "gen", "index": 0}
            for _ in range(depth):
                leaf = {"op": "prod", "args": [leaf]}
            return leaf

        ring_expr_from_json(nested(64))
        with pytest.raises(EncodingError, match=r"nested deeper than 64 at expression(\.args\[0\]){65}$"):
            ring_expr_from_json(nested(65))

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


def _ball2_certificate(p, r):
    """A certificate file body on ball:2 with m = 0 and the trivial witness."""
    return {"p": p, "set": {"kind": "ball", "n": 2}, "r": r, "m": "0", "h": {"num": "0", "den": "1"},
            "witness": _TRIVIAL_WITNESS}


# h = 1/(1 + y^2) with p and r over x, or over y.
_X_AND_Y = dict(_ball2_certificate("x^2 + 1", ["x", "1"]), h={"num": "1", "den": "1 + y^2"})
_Y_ONLY = dict(_ball2_certificate("y^2 + 1", ["y", "1"]), h={"num": "1", "den": "1 + y^2"})
_VERIFIED = {"verified": True, "reason": None}
_WITNESS_FAILED = {"verified": False, "reason": "witness_identity_failed"}


class TestVerdicts:
    def verify(self, tmp_path, blob):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(blob))
        code, out = run_cli("cert", "verify", str(path))
        return code, json.loads(out)

    def test_grid_past_the_exponent_cap_is_rejected(self, tmp_path):
        # (eps^(1/3) + eps^(1/64)*x1)^2 has the exponent 67/192: the identity
        # runs on the grid 1/192 and fails, where series arithmetic refused it.
        code, out = self.verify(tmp_path, _ball2_certificate("1", ["eps^(1/3) + eps^(1/64)*x1"]))
        assert (code, out["verified"], out["reason"]) == (1, False, "identity_failed")

    def test_grid_past_the_exponent_cap_verifies(self, tmp_path):
        code, out = self.verify(tmp_path, _ball2_certificate("eps^(1/3)*x1^2 + eps^(1/32)*x2^2",
                                                             ["eps^(1/6)*x1", "eps^(1/64)*x2"]))
        assert (code, out["verified"]) == (0, True)

    @pytest.mark.parametrize("p, r, message", [
        ("x2^2 + x5^4", ["x1", "x2^2"], "variables ('x2', 'x5') mix the set's names ('x1', 'x2') with other names"),
        ("x1^2 + y^2 + z^2", ["x1", "y", "z"], "expression has 3 variables but the set has 2"),
        ("x^2 + y^2 + z^2", ["x", "y", "z"], "expression has 3 variables but the set has 2")],
        ids=["mix", "mix_past_the_set", "past_the_set"])
    def test_mixed_variable_names_are_refused(self, tmp_path, p, r, message):
        # By position x2 and x5 would be x1 and x2 in p, while r's x2 stays x2.
        # Three names are one too many for ball:2, which is checked first.
        code, out = self.verify(tmp_path, _ball2_certificate(p, r))
        assert (code, out["error"]) == (2, {"message": message, "type": "ValueError"})

    @pytest.mark.parametrize("p, r", [("x2^2 + x1^4", ["x2", "x1^2"]), ("x^2 + 2*x*y + y^2", ["x + y"])],
                             ids=["canonical", "other"])
    def test_unmixed_variable_names_verify(self, tmp_path, p, r):
        code, out = self.verify(tmp_path, _ball2_certificate(p, r))
        assert (code, out["verified"]) == (0, True)

    @pytest.mark.parametrize("r, verified", [(["y", "x^2"], True), (["x", "y^2"], False)],
                             ids=["agrees", "disagrees"])
    def test_one_name_is_one_coordinate(self, tmp_path, r, verified):
        # p names x and y, r[0] names y alone: y is x2 in every value, as in p.
        code, out = self.verify(tmp_path, _ball2_certificate("y^2 + x^4", r))
        assert (code, out["verified"]) == (0 if verified else 1, verified)
        assert out["reason"] == (None if verified else "identity_failed")

    @pytest.mark.parametrize("monic", [False, True], ids=["numerator", "monic"])
    @pytest.mark.parametrize("body, leaf, code, answer", [
        (_X_AND_Y, "y", 0, _VERIFIED),
        (_X_AND_Y, "x", 1, _WITNESS_FAILED),
        (_X_AND_Y, "z", 2,
         {"error": {"message": "expression has 3 variables but the set has 2", "type": "ValueError"}}),
        (_Y_ONLY, "y", 0, _VERIFIED),
        (_Y_ONLY, "y + 0*z", 0, _VERIFIED),
        (_Y_ONLY, "y + 0*a", 0, _VERIFIED),
        (_Y_ONLY, "a", 1, _WITNESS_FAILED),
        (_X_AND_Y, "x + x2", 2, {"error": {
            "message": "variables ('x', 'x2') mix the set's names ('x1', 'x2') with other names",
            "type": "ValueError"}}),
        (_ball2_certificate("x^2 + y^2", ["x", "y"]), "z", 2,
         {"error": {"message": "expression has 3 variables but the set has 2", "type": "ValueError"}})],
        ids=["agrees", "disagrees", "beyond_the_set",
             "same_name", "leaf_name_after", "leaf_name_before", "leaf_name_alone",
             "leaf_mix", "leaf_name_past_the_set"])
    def test_one_name_is_one_coordinate_in_witness_leaves(self, tmp_path, body, leaf, code, answer, monic):
        # _X_AND_Y: p and r name x, h names y, so y is x2 in h and in the witness
        # leaf 1/(1 + y^2) = h (as the numerator over the unit 1, or in the monic
        # h - 1/(1 + y^2) = 0); the leaf 1/(1 + x^2) is another function, and
        # the leaf's z would be a third coordinate on ball:2.  _Y_ONLY: y is x1,
        # and a name only the leaf uses takes the next coordinate, x2, whether
        # it sorts before or after y: the leaf a alone is 1/(1 + x2^2), not h.
        blob = dict(body)
        leaf = {"op": "iord", "summands": [{"num": leaf, "den": "1"}]}
        if monic:
            minus_leaf = {"op": "prod", "args": [{"op": "const", "value": "-1"}, leaf]}
            blob["witness"] = dict(_TRIVIAL_WITNESS, monic=[{"num": minus_leaf, "den": _TRIVIAL_WITNESS["den"]}])
            if answer.get("reason"):
                answer = dict(answer, reason="witness_monic_identity_failed")
        else:
            blob["witness"] = dict(_TRIVIAL_WITNESS, num=leaf)
        got, out = self.verify(tmp_path, blob)
        assert got == code
        assert {k: out[k] for k in answer} == answer

    def test_strict_constraint_names_survive_a_round_trip(self, tmp_path):
        # The constraint y is x1, so h's z is x2, the generator gen(1).  The set
        # is written back in its own names: as x1, z would become x1 too.
        blob = {"p": "1 + z^2", "set": {"kind": "ball", "n": 2, "strict": ["y"]}, "r": ["1", "z"], "m": "0",
                "h": {"num": "z", "den": "1"}, "witness": dict(_TRIVIAL_WITNESS, num={"op": "gen", "index": 1})}
        again = certificate_to_json(*certificate_from_json(blob))
        assert again["set"] == blob["set"]
        for body in (blob, again):
            assert self.verify(tmp_path, body) == (0, _VERIFIED | {"command": "cert", "mode": "verify"})


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


class TestGenerationOutcomePath:
    """psd --generate and cert find run one generator under one budget and print
    one outcome body; only command and mode tell them apart."""

    @pytest.mark.parametrize("p, where, kind", [
        ("1 - eps*x^2", "ball:1", "certificate"),
        ("eps - x^2", "ball:1", "negativity_witness"),
        # Truncated coefficients prove no identity: a candidate, not an unwritable certificate.
        ("1/(1+eps) + x1^2", "ball:1", "candidate_without_witness"),
        ("x1^4*x2^2 + x1^2*x2^4 - 3*x1^2*x2^2 + 1", "ball:2", "unknown"),
    ])
    def test_psd_generate_and_cert_find_agree(self, p, where, kind):
        args = ("--p", p, "--set", where, "--seed", "0", "--samples", "150")
        psd_code, psd_out = run_cli("psd", "--generate", *args)
        find_code, find_out = run_cli("cert", "find", *args)
        psd, find = json.loads(psd_out), json.loads(find_out)
        assert (psd.pop("command"), psd.pop("mode")) == ("psd", "generate")
        assert (find.pop("command"), find.pop("mode")) == ("cert", "find")
        assert psd == find and psd_code == find_code
        assert psd["outcome"] == kind
        assert psd_code == (1 if kind == "negativity_witness" else 0)

    @pytest.mark.parametrize("command", [("psd", "--generate"), ("cert", "find")])
    def test_max_basis_reaches_every_sos_search(self, command, monkeypatch):
        budgets = []
        search = certificates.residue_sos_decomposition

        def recorded(rbar, budget):
            budgets.append((budget.max_basis, budget.denominator_cap))
            return search(rbar, budget)

        monkeypatch.setattr(certificates, "residue_sos_decomposition", recorded)
        code, out = run_cli(*command, "--p", "1 + x1^2 - eps*x1^4", "--set", "ball:1", "--seed", "1",
                            "--max-basis", "20")
        assert json.loads(out)["outcome"] == "certificate"
        # Two layers, then the witness's search on the residue of p.
        assert budgets == [(20, 0)] * 3


class TestPolynomialInputs:
    """--p is read as a certificate file's p is: one rule for both."""

    def test_quotient_by_a_constant_is_scaled(self):
        code, out = run_cli("psd", "--p", "(x1^2 + 1)/(x1 - x1 + 2)", "--set", "ball:1", "--generate",
                            "--seed", "1")
        assert (code, json.loads(out)["certificate"]["p"]) == (0, "1/2*x1^2 + 1/2")

    @pytest.mark.parametrize("text, message", [
        ("(x1^2 + 1)/x1", "--p: expected a polynomial, got a quotient: '(x1^2 + 1)/x1'"),
        ("x1/(1 + eps)", "--p: non-monomial constant denominator in 'x1/(1 + eps)'")])
    def test_other_quotients_are_refused(self, text, message):
        code, out = run_cli("psd", "--p", text, "--set", "ball:1", "--falsify", "--seed", "1")
        assert (code, json.loads(out)["error"]) == (2, {"message": message, "type": "EncodingError"})


class TestAffineSetLoading:
    def test_affine_set_file(self, tmp_path):
        spec = {"kind": "affine", "centers": ["1"], "scales": ["eps"]}
        path = tmp_path / "module.json"
        path.write_text(json.dumps(spec))
        code, out = run_cli("integral", "--h", "x", "--set", f"affine:{path}", "--seed", "3",
                            "--samples", "100")
        assert code == 0

    def test_integral_on_a_strict_set_runs_the_oracle(self, tmp_path):
        # The Gauss criterion does not apply on a set with strict constraints:
        # "gauss" is null and the oracle alone gives the exit code.  y > 0 and
        # z > 0 read as x1 > 0 and x2 > 0, so 1/y is not integral there and y is.
        path = tmp_path / "set.json"
        path.write_text(json.dumps({"kind": "ball", "n": 2, "strict": ["y", "z"]}))
        code, out = run_cli("integral", "--h", "1/y", "--set", str(path), "--seed", "1", "--samples", "50")
        assert code == 1
        payload = json.loads(out)
        assert payload["gauss"] is None and payload["pointwise"]["verdict"] == "counterexample_found"
        assert all(parse_expression(x) > 0 for x in payload["pointwise"]["point"])
        code, out = run_cli("integral", "--h", "y", "--set", str(path), "--seed", "1", "--samples", "50")
        assert code == 0
        assert json.loads(out) == {"command": "integral", "gauss": None, "pointwise": {
            "samples": 54, "skipped": 0, "verdict": "no_counterexample_found"}}

    def test_strict_constraint_file(self, tmp_path):
        spec = {"kind": "ball", "n": 1, "strict": ["x1"]}
        path = tmp_path / "set.json"
        path.write_text(json.dumps(spec))
        code, out = run_cli("psd", "--p", "x1", "--set", str(path), "--falsify", "--seed", "3",
                            "--samples", "150")
        # x1 > 0 on the set, so no witness
        assert code == 0

    @pytest.mark.parametrize("strict, p", [(["y", "z"], "z + 0*y"), (["y"], "y + 0*x")],
                             ids=["two_names", "a_name_after_the_set"])
    def test_strict_constraints_are_the_first_names(self, tmp_path, strict, p):
        # The constraints are read together and first: y is x1 and z is x2, so
        # both are positive on the set; a name p brings besides takes the next
        # coordinate.  By position, y and z were both x1, and p's y was x2.
        path = tmp_path / "set.json"
        path.write_text(json.dumps({"kind": "ball", "n": 2, "strict": strict}))
        code, out = run_cli("psd", "--p", p, "--set", str(path), "--falsify", "--seed", "1")
        assert (code, json.loads(out)["witness"]) == (0, None)

    # An affine set with no coordinates was accepted: integral exited 0, a
    # falsifier reported the empty point, and a certificate on it verified.
    @pytest.mark.parametrize("argv", [
        ("integral", "--h", "1", "--set", "SET", "--seed", "1"),
        ("psd", "--p", "-1", "--set", "SET", "--probe41", "--seed", "1"),
        ("psd", "--p", "-1", "--set", "SET", "--falsify", "--seed", "1"),
        ("cert", "find", "--p", "-1", "--set", "SET", "--seed", "1"),
        ("cert", "verify", "CERT"),
    ], ids=["integral", "psd-probe41", "psd-falsify", "cert-find", "cert-verify"])
    def test_zero_dimensional_affine_set_is_refused(self, tmp_path, argv):
        empty = {"kind": "affine", "centers": [], "scales": []}
        set_path, cert_path = tmp_path / "set.json", tmp_path / "cert.json"
        set_path.write_text(json.dumps(empty))
        cert_path.write_text(json.dumps(dict(_WELL_FORMED, p="1", r=["1"], set=empty)))
        paths = {"SET": str(set_path), "CERT": str(cert_path)}
        code, out = run_cli(*(paths.get(a, a) for a in argv))
        assert (code, out) == (2, '{"error":{"message":"affine descriptor needs a positive dimension",'
                                  '"type":"ValueError"}}\n')
