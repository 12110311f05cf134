"""Source hygiene: no unused imports, no unread dataclass fields, no repeated work.

An ``ast`` scan of each module except ``__init__.py`` (whose imports are the
public re-exports): a name bound by ``import``/``from ... import`` must occur
as a name somewhere else in the module.  Two more scans require every field
of a dataclass in the package, and every method of a class there that is not
a dunder, to be read as an attribute (``.name``) somewhere in ``src/``,
``tests/`` or ``perfbench/``; another requires every target of the
benchmark's tracer to be defined where the tracer wraps it.  Three more scans
keep ``rcvf.cli`` printing only from ``run``, the package free of ``global``
statements, and name alignment out of ``rcvf.ringexpr`` and ``rcvf.rings``.
Structural guards count calls of hot functions on fixed inputs, so work that
comes back shows up as a count, not as a timing.
"""

import ast
import contextlib
import importlib
import importlib.util
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import rcvf
from rcvf import certificates, jsonio, poly, series, sets, sos
from rcvf.certificates import (
    CERTIFICATE,
    IntegralityWitness,
    NonnegCertificate,
    falsify_nonnegativity,
    generate_ball_certificate,
    verify_nonneg_certificate,
)
from rcvf.cli import run
from rcvf.parser import parse_expression
from rcvf.poly import Polynomial, RationalFunction, _SparsePolynomial
from rcvf.ringexpr import ConstExpr, ProdExpr, SumExpr
from rcvf.rings import FlatRing
from rcvf.sampling import SampleConfig
from rcvf.series import FieldElement
from rcvf.sets import SetDescriptor
from rcvf.sos import ResidueQuotient, ResiduePolynomial, psd_falsify, verify_residue_sos
from test_flat_identity import BALL, unit_certificate

MODULES = sorted(p for p in Path(rcvf.__file__).resolve().parent.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parents[1]
READERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_scan_sees_unused_and_used_names():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b, c as d\nd(os)\n"
    assert unused_imports(source) == ["b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _is_dataclass(decorator: ast.expr) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return getattr(decorator, "id", getattr(decorator, "attr", None)) == "dataclass"


def dataclass_fields(source: str) -> list[str]:
    """``Class.field`` for every annotated field of a ``@dataclass`` class."""
    fields = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
            fields += [f"{node.name}.{s.target.id}" for s in node.body
                       if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
    return fields


def attribute_reads(source: str) -> set[str]:
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_fields(fields: list[str], reads: set[str]) -> list[str]:
    return [f for f in fields if f.split(".", 1)[1] not in reads]


def test_field_scan_sees_unread_fields():
    source = ("from dataclasses import dataclass\n@dataclass(frozen=True)\nclass A:\n"
              "    kept: int\n    dropped: int = 0\n    written: int = 0\n"
              "class B:\n    plain: int\n"
              "a = A(1, dropped=2)\na.written = 3\nprint(a.kept)\n")
    fields = dataclass_fields(source)
    assert fields == ["A.kept", "A.dropped", "A.written"]
    assert unread_fields(fields, attribute_reads(source)) == ["A.dropped", "A.written"]


def test_no_unread_dataclass_fields():
    reads = set().union(*(attribute_reads(p.read_text()) for p in READERS))
    fields = [f for p in MODULES for f in dataclass_fields(p.read_text())]
    assert fields, "the scan found no dataclass fields"
    assert unread_fields(fields, reads) == []


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def class_methods(source: str) -> list[str]:
    """``Class.method`` for every method of every class that is not a dunder."""
    return [f"{node.name}.{f.name}" for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)
            for f in node.body
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _is_dunder(f.name)]


def method_reads(source: str) -> set[str]:
    """Attribute reads (``.name``), and the names a class body reads in its
    own assignments, such as the aliases ``__radd__ = __add__``."""
    aliases = {node.id for cls in ast.walk(ast.parse(source)) if isinstance(cls, ast.ClassDef)
               for stmt in cls.body if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value
               for node in ast.walk(stmt.value) if isinstance(node, ast.Name)}
    return attribute_reads(source) | aliases


def test_method_scan_sees_unread_methods():
    source = ("class A:\n    def __init__(self): self.used()\n    def used(self): pass\n"
              "    def dropped(self): pass\n    def aliased(self): pass\n    other = aliased\n"
              "    @property\n    def shown(self): pass\n"
              "def dropped_function(): pass\nprint(A().shown)\n")
    methods = class_methods(source)
    assert methods == ["A.used", "A.dropped", "A.aliased", "A.shown"]
    assert unread_fields(methods, method_reads(source)) == ["A.dropped"]


def test_no_unread_methods():
    reads = set().union(*(method_reads(p.read_text()) for p in READERS))
    methods = [m for p in MODULES for m in class_methods(p.read_text())]
    assert methods, "the scan found no methods"
    assert unread_fields(methods, reads) == []


def functions_calling(source: str, callee: str) -> list[str]:
    """Names of the functions whose bodies (nested functions included) call ``callee`` by name."""
    return sorted({fn.name for fn in ast.walk(ast.parse(source))
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id == callee})


def global_statements(source: str) -> list[str]:
    return [name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Global)
            for name in node.names]


def test_scans_see_calls_and_globals():
    source = "def a():\n    global x\n    _emit(1)\ndef b():\n    obj._emit(2)\n    c(_emit)\n"
    assert functions_calling(source, "_emit") == ["a"]
    assert global_statements(source) == ["x"]


def test_cli_emits_only_from_run():
    # Handlers return (payload, exit code); run prints once, so --pretty and the
    # error payloads have one path.
    cli = Path(rcvf.__file__).resolve().parent / "cli.py"
    assert functions_calling(cli.read_text(), "_emit") == ["run"]


@pytest.mark.parametrize("path", sorted(Path(rcvf.__file__).resolve().parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_global_statements(path):
    # Process-wide mutable settings (such as the working truncation) live in
    # context variables, scoped to a block and a thread.
    assert global_statements(path.read_text()) == []


def test_denotation_reads_no_names():
    # What a variable name means is decided once, by the verifier's name table;
    # rings and ring expressions embed what they are given by name.
    for module in ("ringexpr.py", "rings.py"):
        path = Path(rcvf.__file__).resolve().parent / module
        assert functions_calling(path.read_text(), "align_to_set") == [], module
    # The verifier rebuilds no value in the set's names: the rings read the table.
    certificates = Path(rcvf.__file__).resolve().parent / "certificates.py"
    assert functions_calling(certificates.read_text(), "align_to_set") == [
        "check_general_characterization", "generate_ball_certificate"]


def tracing_targets() -> list:
    """``TARGETS`` of perfbench/tracing.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_traced_targets_are_defined_where_they_are_wrapped():
    # The tracer replaces a method only in vars() of the class it names: a method
    # inherited from a base class would read 0 calls, not fail.
    targets = tracing_targets()
    assert targets
    for layer, module, attr, _ in targets:
        owner = importlib.import_module(module)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert name in vars(owner), (layer, module, attr)


def count_calls(monkeypatch, targets) -> list:
    """Replace each (owner, name) by a wrapper that records its calls in one list."""
    calls = []
    for owner, name in targets:
        original = getattr(owner, name)

        def wrapper(*args, _original=original, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_falsifier_search_evaluates_no_residue_polynomial(monkeypatch):
    # Non-negative, so grid, descent and rays all run; every sign is an integer one.
    vs = ("x", "y")
    x, y = ResiduePolynomial.variable("x", vs), ResiduePolynomial.variable("y", vs)
    q = (x * x - y) ** 2 + (x * y - 1) ** 2 + x * x * y * y
    evaluations = count_calls(monkeypatch, [(ResiduePolynomial, "evaluate")])
    assert psd_falsify(q) is None
    assert evaluations == []


def test_generation_samples_no_point_for_a_certified_input(monkeypatch):
    # Shaped like the benchmark's nonneg_sos inputs, with a second residue layer
    # (the eps part).  Both layers peel into a certificate, which no point could
    # refute, so neither the residue falsifier nor the sampler runs.
    p = parse_expression("(x^2 + y)^2 + (x*y + 1)^2 + (x + y + 1)^2 + 2*(1 + x^2 + y^2 + x^4)"
                         " + eps*(x^2 - y)^2")
    searches = count_calls(monkeypatch, [(sos, "psd_falsify"), (certificates, "psd_falsify")])
    streams = count_calls(monkeypatch, [(SetDescriptor, "stream_forms")])
    outcome = generate_ball_certificate(p, SetDescriptor.unit_polydisc(2))
    assert (outcome.kind, outcome.layers) == (CERTIFICATE, 2)
    assert searches == []
    assert streams == []


def test_falsifier_stops_drawing_at_a_negative_corner(monkeypatch):
    # x1*x2 - 2 is -1 at the first structured point, the corner (1, 1).
    draws = count_calls(monkeypatch, [(sets, "random_element")])
    point = falsify_nonnegativity(parse_expression("x1*x2 - 2"), SetDescriptor.unit_polydisc(2),
                                  SampleConfig(seed=1, samples=120))
    assert point == [FieldElement.one(), FieldElement.one()]
    assert draws == []


# FieldElement.__init__ calls of the run below: 703 when every sign test built
# its value and every random coordinate went through the general constructor,
# and 29 while the structured points built a zero and a -1 coordinate each
# time one was needed.
FALSIFY_INITS = 19


def test_falsifier_sign_tests_build_no_series(monkeypatch):
    # Non-negative, and its initial form never cancels on the ball, so all 120
    # sampled signs come from the initial-form kernel; the residue falsifier then
    # decides 1 + x1^2 + x2^2 by LDL.
    binders = [(module, "compare_order") for name, module in sorted(sys.modules.items())
               if name.startswith("rcvf") and getattr(module, "compare_order", None) is series.compare_order]
    assert (series, "compare_order") in binders
    comparisons = count_calls(monkeypatch, binders)
    inits = count_calls(monkeypatch, [(FieldElement, "__init__")])
    draws = count_calls(monkeypatch, [(sets, "random_element")])
    point = falsify_nonnegativity(parse_expression("1 + x1^2 + x2^2 + eps*x1*x2"), SetDescriptor.unit_polydisc(2),
                                  SampleConfig(seed=1, samples=120))
    assert point is None
    assert len(draws) == 2 * 90  # 30 structured points, 90 random ones of two coordinates
    assert comparisons == []
    assert len(inits) <= FALSIFY_INITS


# FieldElement.__init__ calls of the run below, parse included: 239 while a
# residue shift was a series product per coefficient and a layer was peeled by
# lifting its residue, scaling it by eps^gamma and subtracting it.
GENERATE_INITS = 6


def test_generation_shifts_and_peels_build_no_series(monkeypatch):
    # Shaped like the benchmark's nonneg_sos inputs: the first layer comes from
    # the ellipsoid and the exact LDL, the eps part is a second one.
    argv = ["cert", "find", "--p", "6 + eps + 4*x2 - 2*eps*x2 + 6*x2^2 + eps*x2^2 + 4*x1 - 2*eps*x1"
            " + 2*eps*x1*x2 + 2*x1^2 + eps*x1^2 + 4*x1^2*x2 + 2*x1^2*x2^2 + 2*x1^4",
            "--set", "ball:2", "--seed", "9", "--samples", "150"]
    inits = count_calls(monkeypatch, [(FieldElement, "__init__")])
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert run(argv) == 0
    assert '"layers":2' in out.getvalue() and '"outcome":"certificate"' in out.getvalue()
    assert len(inits) <= GENERATE_INITS


# _leading_term calls of the run below: 248 when the oracle read the numerator
# and the denominator at each of its 124 points.
ORACLE_LEADING_TERMS = 124


def test_oracle_reads_no_numerator_the_gauss_bound_decides(monkeypatch):
    # Shaped like the benchmark's int_ball inputs: Gauss gap 0, and the
    # denominator's residue 1 + 2*x2^2 + x1^2 never vanishes, so v(den(b)) = 1
    # is the numerator's Gauss valuation at every point.
    argv = ["integral", "--h", "(eps + eps*x2^2 + 1/2*eps^(3/2)*x1 + 1/2*eps^2*x1*x2 - eps^(3/2)*x1^2*x2)"
            "/(4*eps + 8*eps*x2^2 + 4*eps*x1^2)", "--set", "ball:2", "--seed", "0", "--samples", "120"]
    leads = count_calls(monkeypatch, [(poly, "_leading_term")])
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert run(argv) == 0
    assert '"samples":124' in out.getvalue() and '"no_counterexample_found"' in out.getvalue()
    assert len(leads) <= ORACLE_LEADING_TERMS


# FieldElement.__init__ calls of the checks below: 229 for the first when every
# product of the identities was built over series coefficients, and 636 for the
# second while a witness leaf off the main identity's grid reran the witness
# identity on series coefficients.  The two left build the set's generator
# functions.
VERIFY_INITS = 2

_LEAF = {"op": "prod", "args": [{"op": "gen", "index": 0}, {"op": "iord", "summands": [
    {"num": "x1", "den": "1"}, {"num": "x1", "den": "1"}, {"num": "x1^2", "den": "1"}]}]}
# p = c^2 - eps*x1 with c = 1 + x1^2 and h = x1/p; the witness is
# [x1/(1+S)] / (1 - eps*[x1/(1+S)]) with S = x1^2 + x1^2 + (x1^2)^2 = c^2 - 1.
_UNIT_CERTIFICATE = {"p": "1 + 2*x1^2 + x1^4 - eps*x1", "set": {"kind": "ball", "n": 1}, "r": ["1 + x1^2"],
                     "m": "eps", "h": {"num": "x1", "den": "1 + 2*x1^2 + x1^4 - eps*x1"},
                     "witness": {"num": _LEAF, "den": {"m": "-eps", "a": _LEAF}, "monic": None}}


def test_exact_identities_build_no_series(monkeypatch):
    # The unit certificate of test_flat_identity whose witness numerator gains
    # eps^(1/5) * 0: its other exponents are in halves and thirds.
    p, unit = unit_certificate(random.Random(4))
    w = unit.witness
    off = ProdExpr([ConstExpr(FieldElement.eps_power(Fraction(1, 5))), ConstExpr(0)])
    off_grid = NonnegCertificate(unit.r, unit.m, unit.h,
                                 IntegralityWitness(SumExpr([w.numerator, off]), w.denominator))
    for p, sd, cert in (jsonio.certificate_from_json(_UNIT_CERTIFICATE), (p, BALL, off_grid)):
        inits = count_calls(monkeypatch, [(FieldElement, "__init__")])
        assert verify_nonneg_certificate(p, cert, sd).ok
        assert len(inits) <= VERIFY_INITS
        monkeypatch.undo()


# FieldElement.__init__ calls of decoding _UNIT_CERTIFICATE: 1 while the default
# denominator of a RationalFunction built its constant 1 through the validating
# constructor.
DECODE_INITS = 0


def test_decoding_builds_no_series(monkeypatch):
    inits = count_calls(monkeypatch, [(FieldElement, "__init__")])
    p, sd, cert = jsonio.certificate_from_json(_UNIT_CERTIFICATE)
    assert cert.r.summands[0].den.is_one()  # r = [1 + x1^2] takes the default denominator
    assert len(inits) <= DECODE_INITS


def test_canonical_names_are_not_aligned(monkeypatch):
    # The rings read each name through the verifier's name table, so no value
    # is re-embedded in the set's names (as p, h and each r_i were while every
    # value was aligned), whatever names the certificate uses.
    for name in ("x1", "y"):
        p, sd, cert = jsonio.certificate_from_json(json.loads(json.dumps(_UNIT_CERTIFICATE).replace("x1", name)))
        alignments = count_calls(monkeypatch, [(_SparsePolynomial, "with_variables"),
                                               (RationalFunction, "with_variables")])
        assert verify_nonneg_certificate(p, cert, sd).ok
        assert alignments == [], name
        monkeypatch.undo()


# _truncated calls of decoding _UNIT_CERTIFICATE: 18 while every read of a text,
# memo hits included, scanned its value again; one per distinct text.
DECODE_SCANS = 7


def test_decoding_scans_each_distinct_text_once(monkeypatch):
    scans = count_calls(monkeypatch, [(jsonio, "_truncated")])
    jsonio.certificate_from_json(_UNIT_CERTIFICATE)
    assert len(scans) == DECODE_SCANS


# ResiduePolynomial.__mul__ calls of the check below: 19 while every image was
# one expanded quotient and each sum and equality multiplied out every
# denominator, 9 while the witness leaf was denoted once per copy, and 6 while
# the summand x1, written twice in S, was squared once per occurrence.  Kept
# factored, the main identity multiplies out c*c and m*q, and the witness
# identity only 1 + S (the squares x1*x1 and x1^2*x1^2) and m*x1, cancelling
# x1 and 1 + S.
VERIFY_PRODUCTS = 5

# FlatRing._terms calls (polynomial images built) of the same check: 25 while
# every mapping built its image afresh, p three times over (as p, as h.den and
# in the witness identity) and the leaf once per copy.  One image per object:
# p, x1 (h.num and the leaf's summand), 1 + x1^2, the generator x1, x1^2, eps,
# -eps, and four distinct objects that read 1 (a constant and summand
# denominators in their numerators' frames).
VERIFY_IMAGES = 11


def test_identities_cancel_shared_factors(monkeypatch):
    p, sd, cert = jsonio.certificate_from_json(_UNIT_CERTIFICATE)
    products = count_calls(monkeypatch, [(ResiduePolynomial, "__mul__")])
    assert verify_nonneg_certificate(p, cert, sd).ok
    assert len(products) <= VERIFY_PRODUCTS


def test_each_polynomial_is_mapped_once(monkeypatch):
    # Also with eps^(1/5) * 0 added to the witness numerator, an exponent off
    # the grid of every other value: the check's one ring maps it as it maps the
    # rest, so its two constants are the only new images.  2 rings, 21 images
    # and 9 products while such a leaf reran the witness identity on a finer
    # grid in a second ring, which mapped p and h afresh.
    p, sd, cert = jsonio.certificate_from_json(_UNIT_CERTIFICATE)
    w = cert.witness
    off = ProdExpr([ConstExpr(FieldElement.eps_power(Fraction(1, 5))), ConstExpr(0)])
    fifths = NonnegCertificate(cert.r, cert.m, cert.h, IntegralityWitness(SumExpr([w.numerator, off]), w.denominator))
    for checked, new_images in ((cert, 0), (fifths, 2)):
        rings = count_calls(monkeypatch, [(FlatRing, "__init__")])
        images = count_calls(monkeypatch, [(FlatRing, "_terms")])
        products = count_calls(monkeypatch, [(ResiduePolynomial, "__mul__")])
        assert verify_nonneg_certificate(p, checked, sd).ok
        assert len(rings) == 1
        assert len(images) <= VERIFY_IMAGES + new_images
        assert len(products) <= VERIFY_PRODUCTS
        monkeypatch.undo()


def test_each_polynomial_is_mapped_once_in_other_names(monkeypatch):
    # Every x1 written y: the rings read y as x1 through the name table, so the
    # check maps the decode's objects, the leaf's two copies as one, as in x1.
    p, sd, cert = jsonio.certificate_from_json(json.loads(json.dumps(_UNIT_CERTIFICATE).replace("x1", "y")))
    assert "y" in p.variables
    images = count_calls(monkeypatch, [(FlatRing, "_terms")])
    products = count_calls(monkeypatch, [(ResiduePolynomial, "__mul__")])
    assert verify_nonneg_certificate(p, cert, sd).ok
    assert len(images) <= VERIFY_IMAGES
    assert len(products) <= VERIFY_PRODUCTS


def test_decoding_parses_each_distinct_text_once_per_call(monkeypatch):
    # p is also h.den, and the witness leaf is in both its numerator and its
    # denominator: 18 texts, 7 distinct.  The memo serves one call only.
    parses = count_calls(monkeypatch, [(jsonio, "parse_expression")])
    first = jsonio.certificate_from_json(_UNIT_CERTIFICATE)
    texts = [text for text, in parses]
    assert sorted(texts) == sorted(set(texts)) and len(texts) == 7
    second = jsonio.certificate_from_json(_UNIT_CERTIFICATE)
    assert [text for text, in parses[7:]] == texts
    assert second[0] == first[0] and second[0] is not first[0]


def _leaf(summand="x1^2", index=0, op="prod") -> dict:
    """A copy of _LEAF, changed in one place if asked."""
    return {"op": op, "args": [{"op": "gen", "index": index}, {"op": "iord", "summands": [
        {"num": "x1", "den": "1"}, {"num": "x1", "den": "1"}, {"num": summand, "den": "1"}]}]}


def _witness_leaves(num: dict, den: dict) -> tuple:
    """The witness numerator and denominator tree of _UNIT_CERTIFICATE with
    these leaves, as one decode reads them."""
    cert = dict(_UNIT_CERTIFICATE, witness={"num": num, "den": {"m": "-eps", "a": den}, "monic": None})
    w = jsonio.certificate_from_json(cert)[2].witness
    return w.numerator, w.denominator.a


def test_decoding_shares_identical_subtrees_per_call():
    # One decode reads the two copies of the leaf as one object, and the
    # summand x1/1, written twice, as one summand.  The memo serves one call.
    num, den = _witness_leaves(_leaf(), _leaf())
    assert num is den and num.args[1].sos.summands[0] is num.args[1].sos.summands[1]
    again, _ = _witness_leaves(_leaf(), _leaf())
    assert again is not num and again.args[0] is not num.args[0]
    # A leaf that differs in one summand text, one index or its op is another
    # object; the children the two copies have in common are still one.
    for changed, shared in ((_leaf(summand="x1^3"), [True, False]), (_leaf(index=1), [False, True]),
                            (_leaf(op="sum"), [True, True])):
        num, den = _witness_leaves(_leaf(), changed)
        assert num is not den
        assert [a is b for a, b in zip(num.args, den.args)] == shared


def test_polynomial_arithmetic_skips_validation(monkeypatch):
    a = parse_expression("1 + eps*x1 - x2^2")
    b = parse_expression("x1 - (1/2)*eps^(1/2)*x3")
    inits = count_calls(monkeypatch, [(_SparsePolynomial, "__init__")])
    a + b, a - b, a * b, a**3, -a, 2 * a, a + 1, a.with_variables(("x1", "x2", "x3"))
    assert inits == []


def test_traced_polynomial_methods_stay_in_polynomial():
    # perfbench/tracing.py wraps these in Polynomial's own namespace.
    for name in ("__add__", "__radd__", "__mul__", "__rmul__", "evaluate"):
        assert name in vars(Polynomial), name


def test_products_by_one_are_skipped(monkeypatch):
    # Denominators 1 cost no product in quotient arithmetic, nor in the SOS
    # identity check; only num * num products are left.  Equality of exact
    # quotients runs on flat images, whose denominator 1 is no factor at all.
    a = RationalFunction(parse_expression("1 + eps*x1 - x2^2"))
    b = RationalFunction(parse_expression("x1 - 3*eps^(1/2)*x2"))  # integers: flat denominators are 1 too
    c = RationalFunction(a.num, b.num)
    products = count_calls(monkeypatch, [(Polynomial, "__mul__"), (Polynomial, "__rmul__"),
                                         (ResiduePolynomial, "__mul__")])
    total = a + b + 1
    assert products == []
    assert total == RationalFunction(a.num + b.num + 1) and not a == b
    assert products == []
    a * b
    assert len(products) == 1
    del products[:]
    a + c  # one cross product and the denominator of c itself
    assert len(products) == 1
    vs = ("x", "y")
    x, y = ResiduePolynomial.variable("x", vs), ResiduePolynomial.variable("y", vs)
    q, squares = x * x + 2 * y * y, [ResidueQuotient.of(x), ResidueQuotient.of(y), ResidueQuotient.of(y)]
    del products[:]
    assert verify_residue_sos(q, squares)
    assert len(products) == 3
