"""The public surface: ``dynmono.__all__`` against README's "Library API" list and quick start."""

from __future__ import annotations

import re
from pathlib import Path

import dynmono

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


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
