"""Golden CLI outputs: exact stdout and exit codes, fixed across versions.

The determinism tests compare two runs of one build; these pin the text
itself, so a change in any layer that alters an output (an evaluation
shortcut, a sampling order, a rendering) fails here.  The expected strings
were recorded from the CLI and are to be changed only with an intended,
documented output change.  Two pins on the exact SOS stage follow the table:
the route of one falsifier witness, and the squares that a search with a
multiplier returns through the library, read as quotients.
"""

import contextlib
import io
import json
import shlex
from fractions import Fraction

import pytest

from rcvf import sos
from rcvf.cli import run
from rcvf.sos import ResiduePolynomial

GOLDEN = [
    ("integral --h '(x+eps)/x' --set ball:1 --seed 9 --samples 150", 1,
     '{"command":"integral","gauss":{"gap":"0","integral":true},"pointwise":{"point":["eps^2'
     '"],"samples":5,"skipped":0,"value_valuation":"-1","verdict":"counterexample_found"}}'),
    ("psd --p 'eps - x^2' --set ball:1 --falsify --seed 9 --samples 150", 1,
     '{"command":"psd","mode":"falsify","witness":{"point":["1"],"value":"-1 + eps"}}'),
    ("psd --p '1 - eps*x^2' --set ball:1 --generate --seed 9 --samples 150", 0,
     '{"certificate":{"h":{"den":"-1*eps*x1^2 + 1","num":"x1^2"},"m":"eps","p":"-1*eps*x^2 +'
     ' 1","r":["1"],"set":{"kind":"ball","n":1},"witness":{"den":{"a":{"args":[{"op":"const"'
     ',"value":"-1"},{"index":0,"op":"gen"},{"index":0,"op":"gen"}],"op":"prod"},"m":"eps"},'
     '"monic":null,"num":{"args":[{"op":"const","value":"1"},{"index":0,"op":"gen"},{"index"'
     ':0,"op":"gen"}],"op":"prod"}}},"command":"psd","gauss":"0","layers":1,"mode":"generate'
     '","outcome":"certificate"}'),
    ("psd --p 'x^2 - 4' --set ball:1 --probe41 --seed 9 --samples 150", 1,
     '{"c":"1/2 + 1/16*eps^2 + 3/256*eps^4 + 5/2048*eps^6 + 35/65536*eps^8 + 63/524288*eps^1'
     '0 + 231/8388608*eps^12 + 429/67108864*eps^14 + 6435/4294967296*eps^16 + 12155/34359738'
     '368*eps^18 + 46189/549755813888*eps^20 + 88179/4398046511104*eps^22 + 676039/140737488'
     '355328*eps^24 + 1300075/1125899906842624*eps^26 + 5014575/18014398509481984*eps^28 + 9'
     '694845/144115188075855872*eps^30","command":"psd","confirm_point"'
     ':["2*eps"],"mode":"probe41","point":["eps"],"samples_tested":150,"verdict":"negativity'
     '_witness"}'),
    ("cert find --p 'x^2 + 2*x*y + 2*y^2' --set ball:2 --seed 9 --samples 150", 0,
     '{"certificate":{"h":{"den":"1","num":"0"},"m":"0","p":"x^2 + 2*x*y + 2*y^2","r":["1/2*'
     'x1 + x2","1/2*x1 + x2","1/2*x1","1/2*x1"],"set":{"kind":"ball","n":2},"witness":{"den"'
     ':{"a":{"op":"const","value":"0"},"m":"0"},"monic":null,"num":{"op":"const","value":"0"'
     '}}},"command":"cert","gauss":"0","layers":1,"mode":"find","outcome":"certificate"}'),
    # Three layers, with half-integer exponents in the summands.
    ("cert find --p 'x^2 + eps*y^2 + eps^3' --set ball:2 --seed 9 --samples 150", 0,
     '{"certificate":{"h":{"den":"1","num":"0"},"m":"0","p":"x^2 + eps*y^2 + eps^3","r":["x1'
     '","eps^(1/2)*x2","eps^(3/2)"],"set":{"kind":"ball","n":2},"witness":{"den":{"a":{"op":'
     '"const","value":"0"},"m":"0"},"monic":null,"num":{"op":"const","value":"0"}}},"command'
     '":"cert","gauss":"0","layers":3,"mode":"find","outcome":"certificate"}'),
    # An affine-set certificate whose remainder folds into m = eps.
    ("cert find --p '1 + 2*x^2 + x^4 - eps*x' --set 'affine:{module}' --seed 3 --samples 100", 0,
     '{"certificate":{"h":{"den":"eps^20*x1^4 + 2*eps^20*x1^2 + -1*eps^21*x1 + eps^20","num"'
     ':"-1*eps^19*x1^4 + -2*eps^19*x1^2 + eps^20*x1 + 3*eps^19"},"m":"eps","p":"x^4 + 2*x^2 '
     '+ -1*eps*x + 1","r":["2"],"set":{"centers":["1"],"kind":"affine","scales":["eps"]},"wi'
     'tness":{"den":{"a":{"args":[{"args":[{"op":"const","value":"-1"},{"args":[{"op":"const'
     '","value":"8 - eps"},{"index":0,"op":"gen"}],"op":"prod"},{"args":[{"op":"const","valu'
     'e":"8*eps"},{"index":0,"op":"gen"},{"index":0,"op":"gen"}],"op":"prod"},{"args":[{"op"'
     ':"const","value":"4*eps^2"},{"index":0,"op":"gen"},{"index":0,"op":"gen"},{"index":0,"'
     'op":"gen"}],"op":"prod"},{"args":[{"op":"const","value":"eps^3"},{"index":0,"op":"gen"'
     '},{"index":0,"op":"gen"},{"index":0,"op":"gen"},{"index":0,"op":"gen"}],"op":"prod"}],'
     '"op":"sum"},{"op":"iord","summands":[{"den":"1","num":"1"},{"den":"1","num":"1"},{"den'
     '":"1","num":"1"}]}],"op":"prod"},"m":"eps"},"monic":null,"num":{"args":[{"args":[{"op"'
     ':"const","value":"1"},{"args":[{"op":"const","value":"-8 + eps"},{"index":0,"op":"gen"'
     '}],"op":"prod"},{"args":[{"op":"const","value":"-8*eps"},{"index":0,"op":"gen"},{"inde'
     'x":0,"op":"gen"}],"op":"prod"},{"args":[{"op":"const","value":"-4*eps^2"},{"index":0,"'
     'op":"gen"},{"index":0,"op":"gen"},{"index":0,"op":"gen"}],"op":"prod"},{"args":[{"op":'
     '"const","value":"-1*eps^3"},{"index":0,"op":"gen"},{"index":0,"op":"gen"},{"index":0,"'
     'op":"gen"},{"index":0,"op":"gen"}],"op":"prod"}],"op":"sum"},{"op":"iord","summands":['
     '{"den":"1","num":"1"},{"den":"1","num":"1"},{"den":"1","num":"1"}]}],"op":"prod"}}},"c'
     'ommand":"cert","gauss":"0","layers":1,"mode":"find","outcome":"certificate"}'),
    # Shaped like the benchmark's nonneg_sos inputs: the ellipsoid and the exact
    # LDL find the first layer, and the eps part is a second one.
    ("cert find --p '6 + eps + 4*x2 - 2*eps*x2 + 6*x2^2 + eps*x2^2 + 4*x1 - 2*eps*x1"
     " + 2*eps*x1*x2 + 2*x1^2 + eps*x1^2 + 4*x1^2*x2 + 2*x1^2*x2^2 + 2*x1^4'"
     " --set ball:2 --seed 9 --samples 150", 0,
     '{"certificate":{"h":{"den":"1","num":"0"},"m":"0","p":"2*x1^4 + 2*x1^2*x2^2 + 4*x1^2*x'
     '2 + (2 + eps)*x1^2 + 2*eps*x1*x2 + (6 + eps)*x2^2 + (4 - 2*eps)*x1 + (4 - 2*eps)*x2 + '
     '(6 + eps)","r":["-1/3*x1^2 + 2/3*x1*x2 + 2/3*x1 + 2/3*x2 + 2","-1/6*x1^2 + 1/3*x1*x2 +'
     ' 1/3*x1 + 1/3*x2 + 1","-1/6*x1^2 + 1/3*x1*x2 + 1/3*x1 + 1/3*x2 + 1","1/12*x1^2 + -1/6*'
     'x1*x2 + -2/3*x1 + 4/3*x2","1/12*x1^2 + -1/6*x1*x2 + -2/3*x1 + 4/3*x2","1/12*x1^2 + -1/'
     '6*x1*x2 + -2/3*x1 + 4/3*x2","1/4*x1^2 + 1/2*x1*x2 + x1","1/4*x1^2 + 1/2*x1*x2 + x1","5'
     '/4*x1^2 + 5/54*x1*x2","1/4*x1^2 + 1/54*x1*x2","1/4*x1^2 + 1/54*x1*x2","2/27*x1*x2","22'
     '/27*x1*x2","2/9*x1*x2","4/27*x1*x2","-1*eps^(1/2)*x1 + -1*eps^(1/2)*x2 + eps^(1/2)"],"'
     'set":{"kind":"ball","n":2},"witness":{"den":{"a":{"op":"const","value":"0"},"m":"0"},"'
     'monic":null,"num":{"op":"const","value":"0"}}},"command":"cert","gauss":"0","layers":2'
     ',"mode":"find","outcome":"certificate"}'),
    # The same input at its --max-basis edge: its first layer's half basis has
    # five monomials, so 5 admits the Gram search and 4 does not.
    ("cert find --p '6 + eps + 4*x2 - 2*eps*x2 + 6*x2^2 + eps*x2^2 + 4*x1 - 2*eps*x1"
     " + 2*eps*x1*x2 + 2*x1^2 + eps*x1^2 + 4*x1^2*x2 + 2*x1^2*x2^2 + 2*x1^4'"
     " --set ball:2 --seed 9 --samples 150 --max-basis 5", 0,
     '{"certificate":{"h":{"den":"1","num":"0"},"m":"0","p":"2*x1^4 + 2*x1^2*x2^2 + 4*x1^2*x'
     '2 + (2 + eps)*x1^2 + 2*eps*x1*x2 + (6 + eps)*x2^2 + (4 - 2*eps)*x1 + (4 - 2*eps)*x2 + '
     '(6 + eps)","r":["-1/3*x1^2 + 2/3*x1*x2 + 2/3*x1 + 2/3*x2 + 2","-1/6*x1^2 + 1/3*x1*x2 +'
     ' 1/3*x1 + 1/3*x2 + 1","-1/6*x1^2 + 1/3*x1*x2 + 1/3*x1 + 1/3*x2 + 1","1/12*x1^2 + -1/6*'
     'x1*x2 + -2/3*x1 + 4/3*x2","1/12*x1^2 + -1/6*x1*x2 + -2/3*x1 + 4/3*x2","1/12*x1^2 + -1/'
     '6*x1*x2 + -2/3*x1 + 4/3*x2","1/4*x1^2 + 1/2*x1*x2 + x1","1/4*x1^2 + 1/2*x1*x2 + x1","5'
     '/4*x1^2 + 5/54*x1*x2","1/4*x1^2 + 1/54*x1*x2","1/4*x1^2 + 1/54*x1*x2","2/27*x1*x2","22'
     '/27*x1*x2","2/9*x1*x2","4/27*x1*x2","-1*eps^(1/2)*x1 + -1*eps^(1/2)*x2 + eps^(1/2)"],"'
     'set":{"kind":"ball","n":2},"witness":{"den":{"a":{"op":"const","value":"0"},"m":"0"},"'
     'monic":null,"num":{"op":"const","value":"0"}}},"command":"cert","gauss":"0","layers":2'
     ',"mode":"find","outcome":"certificate"}'),
    ("cert find --p '6 + eps + 4*x2 - 2*eps*x2 + 6*x2^2 + eps*x2^2 + 4*x1 - 2*eps*x1"
     " + 2*eps*x1*x2 + 2*x1^2 + eps*x1^2 + 4*x1^2*x2 + 2*x1^2*x2^2 + 2*x1^4'"
     " --set ball:2 --seed 9 --samples 150 --max-basis 4", 0,
     '{"command":"cert","gauss":"0","layers":0,"mode":"find","outcome":"unknown"}'),
    # Rational coefficients: the Gram family of (1 - x + x^2 - x^3 + x^4)/7 has
    # one free entry, and its squares carry sevenths.
    ("cert find --p '1/7 - 1/7*x + 1/7*x^2 - 1/7*x^3 + 1/7*x^4' --set ball:1 --seed 9 --samples 150", 0,
     '{"certificate":{"h":{"den":"1","num":"0"},"m":"0","p":"1/7*x^4 + -1/7*x^3 + 1/7*x^2 + -'
     '1/7*x + 1/7","r":["-1/14*x1^2 + 1/3*x1 + -1/14","-1/14*x1^2 + 1/3*x1 + -1/14","-1/14*x'
     '1^2 + 1/3*x1 + -1/14","-13/42*x1^2 + 5/14","11/63*x1^2","2/63*x1^2","1/63*x1^2"],"set"'
     ':{"kind":"ball","n":1},"witness":{"den":{"a":{"op":"const","value":"0"},"m":"0"},"moni'
     'c":null,"num":{"op":"const","value":"0"}}},"command":"cert","gauss":"0","layers":1,"mo'
     'de":"find","outcome":"certificate"}'),
    # (100x - 71)^2 - 1/1000 is negative only on (0.70999, 0.71001), which no
    # sample or grid point meets: the witness is read off the exact LDL's
    # indefinite direction (see test_falsify_witness_is_the_ldl_direction).
    ("psd --p '10000*x^2 - 14200*x + 5040999/1000' --set ball:1 --falsify --seed 9 --samples 150", 1,
     '{"command":"psd","mode":"falsify","witness":{"point":["71/100"],"value":"-1/1000"}}'),
    ('selftest --seed 9', 0,
     '{"checks":[{"name":"order_valuation_axiom","ok":true},{"name":"sos_unit_integral","ok"'
     ':true},{"name":"gauss_lower_bound","ok":true},{"name":"divergence_counterexample","ok"'
     ':true},{"name":"print_parse_round_trip","ok":true}],"command":"selftest","passed":true'
     '}'),
    ("cert find --p 'x1^4*x2^2 + x1^2*x2^4 - 3*x1^2*x2^2 + 1' --set ball:2"
     " --seed 9 --samples 150", 0,
     '{"command":"cert","gauss":"0","layers":0,"mode":"find","outcome":"unknown"}'),
    ("integral --h '(x-1)/eps' --set 'affine:{module}' --seed 3 --samples 100", 0,
     '{"command":"integral","gauss":{"gap":"0","integral":true},"pointwise":{"samples":104,"'
     'skipped":0,"verdict":"no_counterexample_found"}}'),
    ("integral --h 'eps/(x-1)' --set 'affine:{module}' --seed 3 --samples 100", 1,
     '{"command":"integral","gauss":{"gap":"0","integral":true},"pointwise":{"point":["1 + e'
     'ps^2"],"samples":3,"skipped":0,"value_valuation":"-1","verdict":"counterexample_found"'
     '}}'),
    # Denominators that vanish exactly at sampled points are skipped and counted.
    ("integral --h '(x^2-y^2)/(x-y)' --set ball:2 --seed 9 --samples 150", 0,
     '{"command":"integral","gauss":{"gap":"0","integral":true},"pointwise":{"samples":141,"'
     'skipped":13,"verdict":"no_counterexample_found"}}'),
    ("integral --h '(x*y+eps)/(x*y)' --set ball:2 --seed 9 --samples 150", 1,
     '{"command":"integral","gauss":{"gap":"0","integral":true},"pointwise":{"point":["eps",'
     '"eps"],"samples":5,"skipped":2,"value_valuation":"-1","verdict":"counterexample_found"}}'),
    # The numerator meets the points' half-integer exponents beyond the exponent
    # cap: in its leading term, and only in its exact value after the leading
    # terms cancel.
    ("integral --h 'eps^(1/63)*x1*x2/(1 + x1^2)' --set ball:2 --seed 0 --samples 120", 2,
     '{"error":{"message":"exponent denominator 126 exceeds cap 64","type":"ExponentBlowup"}}'),
    ("integral --h '(1 + eps^(1/2) + eps^(64/63))*(x - 1)' --set ball:1 --seed 0 --samples 120", 2,
     '{"error":{"message":"exponent denominator 126 exceeds cap 64","type":"ExponentBlowup"}}'),
    ("psd --p 'x^2 + eps*y^2' --set ball:2 --probe41 --seed 9 --samples 150", 0,
     '{"command":"psd","mode":"probe41","samples_tested":150,"verdict":"'
     'consistent_nonneg"}'),
    ("psd --p 'x^20 + 1' --set ball:1 --probe41 --seed 1", 0,
     '{"command":"psd","mode":"probe41","samples_tested":500,"verdict":"'
     'consistent_nonneg"}'),
    # Strict constraints are enforced on samples by rejection.
    ("psd --p 'x^2 + 1' --set {strict} --falsify --seed 1", 0,
     '{"command":"psd","mode":"falsify","samples":500,"witness":null}'),
    # Answers from late random draws.  The first integral counterexample is the
    # 85th random point, past the 37 structured ones; the falsifier's witness is
    # the draw of index 72, after 59 draws its strict constraints rejected.
    ("integral --h 'eps/(x1 + x2 - 7/6)' --set ball:2 --seed 2 --samples 150", 1,
     '{"command":"integral","gauss":{"gap":"1","integral":true},"pointwise":{"point":["-4/5*e'
     'ps^(5/2) - 2/3*eps^3","7/6"],"samples":122,"skipped":0,"value_valuation":"-3/2","verdi'
     'ct":"counterexample_found"}}'),
    ("psd --p 'x1 - x2^2 + 1/5' --set {cone} --falsify --seed 1 --samples 150", 1,
     '{"command":"psd","mode":"falsify","witness":{"point":["12","-11 + 10/3*eps^(5/2) + 10/'
     '9*eps^3"],"value":"-544/5 + 220/3*eps^(5/2) + 220/9*eps^3 - 100/9*eps^5 - 200/27*eps^('
     '11/2) - 100/81*eps^6"}}'),
    # On a set with strict constraints the Gauss criterion does not apply, and the
    # oracle alone decides; its counterexample is the 144th point the cone admits.
    # The pointwise part is the parent library oracle's answer on the same set.
    ("integral --h 'eps/(x1 - 1/3)' --set {cone} --seed 1 --samples 150", 1,
     '{"command":"integral","gauss":null,"pointwise":{"point":["1/3 + 12*eps^4","1/4"],"samples":144'
     ',"skipped":1,"value_valuation":"-3","verdict":"counterexample_found"}}'),
    # cert verify on a unit certificate, on the same with m doubled and with an
    # unclosed parenthesis in h.den (see the certificates fixture).
    ("cert verify {valid}", 0, '{"command":"cert","mode":"verify","reason":null,"verified":true}'),
    ("cert verify {mutant}", 1,
     '{"command":"cert","mode":"verify","reason":"identity_failed","verified":false}'),
    ("cert verify {malformed}", 2,
     '{"error":{"message":"unexpected token at offset 27 (expected ))","position":27,"type":"parse"}}'),
]

_LEAF = {"op": "prod", "args": [{"op": "gen", "index": 0}, {"op": "iord", "summands": [
    {"num": "x1", "den": "1"}, {"num": "x1", "den": "1"}, {"num": "x1^2", "den": "1"}]}]}
# p = (1 + x1^2)^2 - eps*x1, h = x1/p; the witness is [x1/(1+S)] / (1 - eps*[x1/(1+S)]).
_VALID = {"p": "1 + 2*x1^2 + x1^4 - eps*x1", "set": {"kind": "ball", "n": 1}, "r": ["1 + x1^2"], "m": "eps",
          "h": {"num": "x1", "den": "1 + 2*x1^2 + x1^4 - eps*x1"},
          "witness": {"num": _LEAF, "den": {"m": "-eps", "a": _LEAF}, "monic": None}}
CERTIFICATES = {"valid": _VALID, "mutant": dict(_VALID, m="2*eps"),
                "malformed": dict(_VALID, h={"num": "x1", "den": "1 + 2*x1^2 + (x1^4 - eps*x1"})}


@pytest.fixture
def module_file(tmp_path):
    path = tmp_path / "module.json"
    path.write_text(json.dumps({"kind": "affine", "centers": ["1"], "scales": ["eps"]}))
    return path


@pytest.fixture
def strict_file(tmp_path):
    path = tmp_path / "strict.json"
    path.write_text(json.dumps({"kind": "ball", "n": 1, "strict": ["x^80 + 1"]}))
    return path


@pytest.fixture
def cone_file(tmp_path):
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({"kind": "ball", "n": 2, "strict": ["x1 + x2", "x1 - x2"]}))
    return path


@pytest.fixture
def certificate_files(tmp_path):
    files = {}
    for name, cert in CERTIFICATES.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(cert))
    return files


@pytest.mark.parametrize("command, code, stdout", GOLDEN, ids=[c for c, _, _ in GOLDEN])
def test_golden_output(module_file, strict_file, cone_file, certificate_files, command, code, stdout):
    argv = [arg.format(module=module_file, strict=strict_file, cone=cone_file, **certificate_files)
            for arg in shlex.split(command)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        got = run(argv)
    assert (got, buf.getvalue()) == (code, stdout + "\n")


def test_falsify_witness_is_the_ldl_direction(monkeypatch):
    points = []
    original = sos._point_from_quadratic_direction

    def recorded(q, direction):
        points.append(original(q, direction))
        return points[-1]

    monkeypatch.setattr(sos, "_point_from_quadratic_direction", recorded)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(shlex.split("psd --p '10000*x^2 - 14200*x + 5040999/1000' --set ball:1 --falsify"
                               " --seed 9 --samples 150")) == 1
    assert points == [[Fraction(71, 100)]]


# The Motzkin polynomial has no SOS, but (x^2 + y^2) times it has: the search
# reaches it at multiplier power k = 1, and each of its squares t, lifted to
# t*x and t*y, gives two quotients over x^2 + y^2.
MOTZKIN_QUOTIENTS = [
    ("ResiduePolynomial(2*x^2*y^1 + -1*x^2*y^3 + -1*x^4*y^1)", "ResiduePolynomial(1*y^2 + 1*x^2)"),
    ("ResiduePolynomial(2*x^1*y^2 + -1*x^1*y^4 + -1*x^3*y^2)", "ResiduePolynomial(1*y^2 + 1*x^2)"),
    ("ResiduePolynomial(1*x^1*y^1 + -1*x^3*y^1)", "ResiduePolynomial(1*y^2 + 1*x^2)"),
    ("ResiduePolynomial(1*y^2 + -1*x^2*y^2)", "ResiduePolynomial(1*y^2 + 1*x^2)"),
    ("ResiduePolynomial(1*x^2 + -1*x^2*y^2)", "ResiduePolynomial(1*y^2 + 1*x^2)"),
    ("ResiduePolynomial(1*x^1*y^1 + -1*x^1*y^3)", "ResiduePolynomial(1*y^2 + 1*x^2)"),
]


def test_motzkin_quotients_with_a_multiplier():
    vs = ("x", "y")
    x, y = ResiduePolynomial.variable("x", vs), ResiduePolynomial.variable("y", vs)
    M = x**4 * y**2 + x**2 * y**4 - 3 * x**2 * y**2 + ResiduePolynomial.constant(1, vs)
    result = sos.residue_sos_decomposition(M, sos.SosBudget(max_basis=40, denominator_cap=1))
    assert result.kind == sos.SOS and result.power == 1
    # M = sum (t*x)^2/s + (t*y)^2/s over the squares t of M*s, s = x^2 + y^2.
    s = ResiduePolynomial.coordinate_square_sum(vs)
    assert [(repr(t * v), repr(s)) for t in result.squares for v in (x, y)] == MOTZKIN_QUOTIENTS
