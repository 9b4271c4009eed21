"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "primesig"


def test_no_assert_statements():
    # python -O strips asserts, so invariants must raise explicitly.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def _frozen_dataclass(node: ast.ClassDef) -> bool:
    # Whether @dataclass(frozen=True) decorates the class; a bare
    # @dataclass makes it mutable.
    for deco in node.decorator_list:
        if isinstance(deco, ast.Call) and getattr(
                deco.func, "id", getattr(deco.func, "attr", None)) == "dataclass":
            return any(kw.arg == "frozen" and getattr(kw.value, "value", None) is True
                       for kw in deco.keywords)
    return False


def test_frozen_dataclasses_validate():
    # A frozen dataclass costs 0.7-1 ms of import each and builds 2-3x
    # slower than a NamedTuple; a plain frozen record is a NamedTuple, and
    # @dataclass is kept for classes that validate (__post_init__) or mutate.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef) or not _frozen_dataclass(node):
                continue
            methods = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
            if "__post_init__" not in methods:
                found.append(f"{path.name}:{node.lineno} {node.name}")
    assert not found, found
