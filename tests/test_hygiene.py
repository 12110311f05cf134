"""Source hygiene: no unused imports, no unread dataclass fields, no repeated work.

An ``ast`` scan of each module except ``__init__.py`` (whose imports are the
public re-exports): a name bound by ``import``/``from ... import`` must occur
as a name somewhere else in the module.  Two more scans require every field
of a dataclass in the package, and every method of a class there that is not
a dunder, to be read as an attribute (``.name``) somewhere in ``src/``,
``tests/`` or ``perfbench/``, and one more every module-level function,
class and constant of the package to be read there (as a name, an
attribute, an imported name or a string); another requires every target of the
benchmark's tracer to be defined where the tracer wraps it.  Three more scans
keep ``rcvf.cli`` printing only from ``run``, the package free of ``global``
statements, and name alignment out of ``rcvf.ringexpr`` and ``rcvf.rings``;
one more keeps ``FlatRing`` the only ring class and no function branching on
a ring's type.
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
from rcvf import certificates, integrality, jsonio, poly, rings, series, sets, sos
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
from rcvf.sos import ResiduePolynomial, psd_falsify, verify_residue_sos
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


def module_names(source: str) -> list[str]:
    """Module-level functions, classes and assigned names that are not dunders."""
    names = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if not _is_dunder(n)]


def name_reads(source: str) -> set[str]:
    """Names loaded, attributes read, names imported from a module, and string
    constants (a lookup such as the CLI's ``handler="_cmd_..."``)."""
    reads = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            reads.update(a.name for a in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads.add(node.value)
    return reads


def test_module_name_scan_sees_unread_names():
    source = ("from m import imported as alias\nKEPT = 1\nDROPPED = 2\n_LOOKED_UP = 3\nA, (B, C) = 4, (5, 6)\n"
              "__version__ = '0'\nclass Unread:\n    INNER = 7\ndef unread(): return KEPT + B\n"
              "def used(): pass\nuse = used\nprint(getattr(obj, '_LOOKED_UP'), obj.C)\n")
    assert module_names(source) == ["KEPT", "DROPPED", "_LOOKED_UP", "A", "B", "C", "Unread", "unread",
                                    "used", "use"]
    reads = name_reads(source)
    assert "imported" in reads and "alias" not in reads
    assert [n for n in module_names(source) if n not in reads] == ["DROPPED", "A", "Unread", "unread", "use"]


def test_no_unread_module_names():
    # A name read by no module, test or benchmark script is dead code; the
    # package's own imports, __init__.py's re-exports among them, count as reads.
    reads = set().union(*(name_reads(p.read_text()) for p in READERS))
    names = [f"{p.stem}.{n}" for p in MODULES for n in module_names(p.read_text())]
    assert names, "the scan found no module names"
    assert [n for n in names if n.split(".", 1)[1] not in reads] == []


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


def ring_type_branches(source: str) -> list[str]:
    """Names of the functions that test a ring's type: an isinstance, issubclass
    or type call on a name ``ring``, or one naming ``FlatRing``."""
    return sorted({fn.name for fn in ast.walk(ast.parse(source))
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("isinstance", "issubclass", "type")
                   and {"ring", "FlatRing"} & {n.id for a in node.args for n in ast.walk(a) if isinstance(n, ast.Name)}})


def test_ring_branch_scan_sees_type_tests():
    source = ("def a(ring, values):\n    return f(values) if isinstance(ring, FlatRing) else g(values)\n"
              "def b(e, ring=None):\n    if type(ring) is R:\n        pass\n"
              "def c(q, ring):\n    return isinstance(q, Polynomial) and ring(q)\n")
    assert ring_type_branches(source) == ["a", "b"]


def test_one_ring_and_no_branch_on_its_type():
    # Everything denoted in a ring goes through its __call__, once and sum, so
    # the code reads the same whichever ring a test substitutes (FlatRing.over).
    assert [p.name for p in MODULES if ring_type_branches(p.read_text())] == []
    rings_with_images = [name for name, obj in vars(rings).items()
                         if isinstance(obj, type) and obj.__module__ == rings.__name__ and "__call__" in vars(obj)]
    assert rings_with_images == ["FlatRing"]


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
# 29 while the structured points built a zero and a -1 coordinate each time
# one was needed, and 19 while every stream built its structured points.
FALSIFY_INITS = 0


def test_falsifier_sign_tests_build_no_series(monkeypatch):
    # Non-negative, and its initial form never cancels on the ball, so all 120
    # sampled signs come from the initial-form kernel; the residue falsifier then
    # decides 1 + x1^2 + x2^2 by LDL.
    binders = [(module, "compare_order") for name, module in sorted(sys.modules.items())
               if name.startswith("rcvf") and getattr(module, "compare_order", None) is series.compare_order]
    assert (series, "compare_order") in binders
    p = parse_expression("1 + x1^2 + x2^2 + eps*x1*x2")
    ball = SetDescriptor.unit_polydisc(2)
    list(ball.structured_points())  # the probe table of ball:2, built once per process
    comparisons = count_calls(monkeypatch, binders)
    inits = count_calls(monkeypatch, [(FieldElement, "__init__")])
    draws = count_calls(monkeypatch, [(sets, "random_element")])
    point = falsify_nonnegativity(p, ball, SampleConfig(seed=1, samples=120))
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


# Initial-form kernel calls of the run below, through poly's binding and the
# oracle's: 248 when the oracle read the numerator and the denominator at each
# of its 124 points.
ORACLE_LEADING_TERMS = 124


def test_oracle_reads_no_numerator_the_gauss_bound_decides(monkeypatch):
    # Shaped like the benchmark's int_ball inputs: Gauss gap 0, and the
    # denominator's residue 1 + 2*x2^2 + x1^2 never vanishes, so v(den(b)) = 1
    # is the numerator's Gauss valuation at every point.
    argv = ["integral", "--h", "(eps + eps*x2^2 + 1/2*eps^(3/2)*x1 + 1/2*eps^2*x1*x2 - eps^(3/2)*x1^2*x2)"
            "/(4*eps + 8*eps*x2^2 + 4*eps*x1^2)", "--set", "ball:2", "--seed", "0", "--samples", "120"]
    leads = count_calls(monkeypatch, [(poly, "_initial_term"), (integrality, "_initial_term")])
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
    # identity check, which sums the squares over integers.  Equality of
    # exact quotients runs on flat images, whose denominator 1 is no factor at all.
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
    q, squares = x * x + 2 * y * y, [x, y, y]
    del products[:]
    assert verify_residue_sos(q, squares)
    assert products == []


# ResiduePolynomial products of checking Motzkin's squares at power 1: only
# q*s, as without a multiplier the squares are summed over integers.  The
# cross-multiplied check of the same squares as quotients over s formed five
# products per quotient.
VERIFY_MULTIPLIER_PRODUCTS = 1


def test_multiplier_identity_forms_one_product(monkeypatch):
    vs = ("x", "y")
    x, y = ResiduePolynomial.variable("x", vs), ResiduePolynomial.variable("y", vs)
    M = x**4 * y**2 + x**2 * y**4 - 3 * x**2 * y**2 + ResiduePolynomial.constant(1, vs)
    result = sos.residue_sos_decomposition(M, sos.SosBudget(max_basis=40, denominator_cap=1))
    assert result.kind == sos.SOS and result.power == 1 and len(result.squares) == 3
    products = count_calls(monkeypatch, [(ResiduePolynomial, "__mul__"), (ResiduePolynomial, "__rmul__")])
    assert verify_residue_sos(M, result.squares, result.power)
    assert len(products) <= VERIFY_MULTIPLIER_PRODUCTS


# Fraction constructions, arithmetic results included, of the two calls below:
# 115 and 319 while ldl_psd eliminated in Fractions and verify_residue_sos
# expanded sum t^2 over Fraction coefficients.  ldl_psd now builds only its
# pivots and the non-zero entries of its vectors.
LDL_FRACTIONS = 12
VERIFY_FRACTIONS = 0


def test_residue_sos_stage_eliminates_and_verifies_in_integers(monkeypatch):
    # A PSD Gram matrix that certify meets on the benchmark's nonneg_sos
    # inputs, and the 15 squares found for a residue of that shape, whose half
    # basis has five monomials.
    F = Fraction
    G = [[F(4), F(1), F(2), F(0), F(5, 4)], [F(1), F(7), F(3), F(0), F(1, 2)],
         [F(2), F(3), F(7, 2), F(3, 2), F(0)], [F(0), F(0), F(3, 2), F(3), F(0)],
         [F(5, 4), F(1, 2), F(0), F(0), F(3)]]
    vs = ("x1", "x2")
    x1, x2 = ResiduePolynomial.variable("x1", vs), ResiduePolynomial.variable("x2", vs)
    q = 2 * x1**4 + 2 * x1**2 * x2**2 + 4 * x1**2 * x2 + 2 * x1**2 + 6 * x2**2 + 4 * x1 + 4 * x2 + 6
    squares = sos.residue_sos_decomposition(q, sos.SosBudget(denominator_cap=0)).squares
    assert len(sos._half_basis(q)) == 5 and len(squares) == 15
    made = count_calls(monkeypatch, [(Fraction, "__new__")])
    assert sos.ldl_psd(G)[0] == "psd"
    assert len(made) <= LDL_FRACTIONS
    del made[:]
    assert verify_residue_sos(q, squares)
    assert len(made) <= VERIFY_FRACTIONS
