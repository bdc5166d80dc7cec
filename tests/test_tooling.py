"""The repository's own checking scripts."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

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
