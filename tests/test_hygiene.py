"""Source hygiene: no unused imports and no unread dataclass fields.

An ``ast`` scan of each module except ``__init__.py`` (whose imports are the
public re-exports): a name bound by ``import``/``from ... import`` must occur
as a name somewhere else in the module.  A second scan requires every field
of a dataclass in the package to be read as an attribute (``.name``)
somewhere in ``src/``, ``tests/`` or ``perfbench/``.
"""

import ast
from pathlib import Path

import pytest

import rcvf

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
