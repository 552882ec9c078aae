"""The public surface: ``dynmono.__all__`` against README's "Library API" list and quick start."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import json
import pkgutil
import re
from pathlib import Path

import pytest

import dynmono
from dynmono.bench import MethodSpec
from dynmono.constructors import MonopolySeed

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_all_names_resolve():
    assert len(set(dynmono.__all__)) == len(dynmono.__all__)
    for name in dynmono.__all__:
        assert getattr(dynmono, name) is not None, name


def test_all_matches_readme_library_api():
    bullets = [line for line in _section("Library API").splitlines() if line.startswith("- ")]
    listed = [name for line in bullets for name in re.findall(r"`(\w+)`", line)]
    assert listed == dynmono.__all__


def test_quick_start_imports_are_exported():
    block = re.search(r"from dynmono import \(([^)]*)\)", _section("Library quick start"))
    imported = re.findall(r"\w+", block.group(1))
    assert imported and set(imported) <= set(dynmono.__all__)


def test_sources_parse_as_the_oldest_supported_python():
    # syntax newer than requires-python fails here, not only on the oldest CI leg
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    oldest = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()))
    assert oldest == (3, 10)
    files = sorted((ROOT / "src" / "dynmono").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(files) > 20
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=oldest)
        if path.parent.name == "dynmono":  # the tests may run 3.11 code; the package may not
            assert _newer_stdlib_names(tree) == set(), path


def test_no_assert_statement_in_the_package():
    # python -O strips assert statements: every self-check in the package raises AssertionError explicitly instead
    files = sorted((ROOT / "src" / "dynmono").glob("*.py"))
    assert len(files) > 10
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name}: assert statement on line(s) {lines}"


def _private_imports(tree: ast.AST) -> list[str]:
    """The names with a leading underscore that ``tree`` imports from a ``dynmono`` module, relative or absolute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "dynmono"):
            found += [f"{node.module or '.'}.{alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


def test_modules_import_only_public_names_from_each_other():
    # a private name stays its module's own: another module reaches it through a public entry
    assert _private_imports(ast.parse("from .cascade import Cascade, _quotient\nfrom dynmono.graphs import _x")) == [
        "cascade._quotient", "dynmono.graphs._x"]
    assert _private_imports(ast.parse("from __future__ import annotations\nfrom os import _exit")) == []
    files = sorted((ROOT / "src" / "dynmono").glob("*.py"))
    assert len(files) > 10
    for path in files:
        private = _private_imports(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        assert private == [], f"{path.name} imports private name(s) {private}"


# Standard-library names new in 3.11, which parse as 3.10 syntax and fail only when 3.10 runs them
STDLIB_311 = {"tomllib", "typing.Self", "enum.StrEnum", "ExceptionGroup", "BaseExceptionGroup", "asyncio.TaskGroup",
              "datetime.UTC", "hashlib.file_digest", "contextlib.chdir", "math.cbrt", "math.exp2", "operator.call"}


def _newer_stdlib_names(tree: ast.AST) -> set[str]:
    """The names of STDLIB_311 that ``tree`` imports or reads: an import, a ``from`` import, a dotted or bare name."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            used |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            used |= {node.module or ""} | {f"{node.module}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            used.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return used & STDLIB_311


def test_the_newer_stdlib_check_sees_each_form():
    code = """
import tomllib
from typing import Self
from enum import StrEnum as S
import asyncio, math
asyncio.TaskGroup, math.cbrt(8.0), math.exp2(3)
try:
    pass
except ExceptionGroup:
    pass
from datetime import UTC
from hashlib import file_digest
from contextlib import chdir
import operator; operator.call(len, ())
"""
    assert _newer_stdlib_names(ast.parse(code)) == STDLIB_311 - {"BaseExceptionGroup"}
    assert _newer_stdlib_names(ast.parse("import math, typing\nmath.sqrt(2.0)\nfrom typing import NamedTuple")) == set()


def test_dataclasses_are_graph_and_generator_spec():
    # a @dataclass costs 0.5-1 ms of every import, a NamedTuple about 0.1 ms: Graph caches facts in its __dict__ and
    # GeneratorSpec refuses an unknown family in __post_init__, so only they pay it
    modules = [importlib.import_module(f"dynmono.{m.name}") for m in pkgutil.iter_modules(dynmono.__path__)]
    found = {
        f"{mod.__name__}.{name}"
        for mod in modules
        for name, obj in vars(mod).items()
        if isinstance(obj, type) and obj.__module__ == mod.__name__ and dataclasses.is_dataclass(obj)
    }
    assert found == {"dynmono.graphs.Graph", "dynmono.generators.GeneratorSpec"}


def test_record_defaults_are_read_only_and_empty():
    seed, method = MonopolySeed("v2", ()), MethodSpec("v2")
    for default in (seed.params, method.options):
        assert default == {}
        with pytest.raises(TypeError):
            default["rho"] = "1/2"
    assert seed == ("v2", (), {}, False, None)  # a record is a tuple of its fields
    assert json.dumps(seed.to_json_dict()) == '{"method": "v2", "params": {}, "seed": [], "size": 0, "verified": false}'
