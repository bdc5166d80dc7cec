"""The repository's own checking scripts."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

from check_unused_imports import unused_imports  # noqa: E402


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


def test_src_has_no_unused_imports():
    found = {
        path.name: unused_imports(path)
        for path in (ROOT / "src").rglob("*.py")
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in found.items() if names} == {}
