"""The repository's own checking scripts."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import check_dead_helpers  # noqa: E402
from check_unused_imports import CHECKED, modules, unused_imports  # noqa: E402


def test_unused_imports_are_found(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from typing import Optional, Sequence\n"
        "from fractions import Fraction\n"
        "def f(x: 'Optional[int]') -> int:\n"
        "    return os.path.sep\n"
    )
    assert unused_imports(module) == [(3, "js"), (4, "Sequence"), (5, "Fraction")]


def _unused_under(top: str) -> dict:
    found = {
        str(path.relative_to(ROOT)): unused_imports(path)
        for path in modules()
        if path.relative_to(ROOT).parts[0] == top
    }
    assert found, f"no module checked under {top}/"
    return {name: names for name, names in found.items() if names}


def test_src_has_no_unused_imports():
    assert _unused_under("src") == {}


def test_tests_and_scripts_have_no_unused_imports():
    assert CHECKED == ("src", "tests", "scripts")
    assert _unused_under("tests") == {}
    assert _unused_under("scripts") == {}


def test_dead_private_helpers_are_found(tmp_path):
    first, second = tmp_path / "a.py", tmp_path / "b.py"
    first.write_text(
        "import b\n"
        "def _used():\n"
        "    return 1\n"
        "def _recursive(n):\n"
        "    return _recursive(n - 1) if n else 0\n"
        "class _Unused:\n"
        "    def _method(self):\n"
        "        return self._other()\n"
        "    def _other(self):\n"
        "        return 0\n"
        "    def __init__(self):\n"
        "        pass\n"
        "def public():\n"
        "    return _used() + b._imported()\n"
    )
    second.write_text("def _imported():\n    return 2\ndef _for_tests_only():\n    pass\n")
    found = check_dead_helpers.dead_helpers([first, second])
    assert [(path.name, line, name) for path, line, name in found] == [
        ("a.py", 4, "_recursive"),
        ("a.py", 6, "_Unused"),
        ("a.py", 7, "_method"),
        ("b.py", 3, "_for_tests_only"),
    ]


def test_src_has_no_dead_private_helpers():
    paths = check_dead_helpers.modules()
    assert all(path.relative_to(ROOT).parts[0] == "src" for path in paths)
    assert check_dead_helpers.dead_helpers(paths) == []
