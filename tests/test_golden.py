"""Golden CLI outputs: exact stdout and exit codes, fixed across versions.

The determinism tests compare two runs of one build; these pin the text
itself, so a change in any layer that alters an output (an evaluation
shortcut, a sampling order, a rendering) fails here.  The expected strings
were recorded from the CLI and are to be changed only with an intended,
documented output change.
"""

import contextlib
import io
import json
import shlex

import pytest

from rcvf.cli import run

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
     '694845/144115188075855872*eps^30","c_values_tested":10,"command":"psd","confirm_point"'
     ':["2*eps"],"mode":"probe41","point":["eps"],"samples_tested":150,"verdict":"negativity'
     '_witness"}'),
    ("cert find --p 'x^2 + 2*x*y + 2*y^2' --set ball:2 --seed 9 --samples 150", 0,
     '{"certificate":{"h":{"den":"1","num":"0"},"m":"0","p":"x^2 + 2*x*y + 2*y^2","r":["1/2*'
     'x1 + x2","1/2*x1 + x2","1/2*x1","1/2*x1"],"set":{"kind":"ball","n":2},"witness":{"den"'
     ':{"a":{"op":"const","value":"0"},"m":"0"},"monic":null,"num":{"op":"const","value":"0"'
     '}}},"command":"cert","mode":"find","outcome":"certificate"}'),
    ('selftest --seed 9', 0,
     '{"checks":[{"name":"order_valuation_axiom","ok":true},{"name":"sos_unit_integral","ok"'
     ':true},{"name":"gauss_lower_bound","ok":true},{"name":"divergence_counterexample","ok"'
     ':true},{"name":"print_parse_round_trip","ok":true}],"command":"selftest","passed":true'
     '}'),
    ("cert find --p 'x1^4*x2^2 + x1^2*x2^4 - 3*x1^2*x2^2 + 1' --set ball:2"
     " --seed 9 --samples 150", 0,
     '{"command":"cert","mode":"find","outcome":"unknown"}'),
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
    ("psd --p 'x^2 + eps*y^2' --set ball:2 --probe41 --seed 9 --samples 150", 0,
     '{"c_values_tested":10,"command":"psd","mode":"probe41","samples_tested":150,"verdict":"'
     'consistent_nonneg"}'),
    # Strict constraints are enforced on samples by rejection.
    ("psd --p 'x^2 + 1' --set {strict} --falsify --seed 1", 0,
     '{"command":"psd","mode":"falsify","samples":500,"witness":null}'),
]


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


@pytest.mark.parametrize("command, code, stdout", GOLDEN, ids=[c for c, _, _ in GOLDEN])
def test_golden_output(module_file, strict_file, command, code, stdout):
    argv = [arg.format(module=module_file, strict=strict_file) for arg in shlex.split(command)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        got = run(argv)
    assert (got, buf.getvalue()) == (code, stdout + "\n")
