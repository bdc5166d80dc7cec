"""List the private helpers of the package that the package never uses.

Run from the repository root:

    python3 scripts/check_dead_helpers.py

Every module under `src/` is parsed with `ast`.  A private helper is a
function, class or method whose name starts with one underscore (dunder
names such as `__init__` are left out).  It counts as used when some
module of `src/` names it, as a name or as an attribute, outside the
lines of its own definition, so a helper that only calls itself is still
reported.  Names are matched by spelling, not by scope: two helpers of one
name count as used when either is.  Tests and scripts do not count.  The
script prints one `path:line: name` per unused helper and exits 1 when
there is any, else 0.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def dead_helpers(paths) -> list[tuple[Path, int, str]]:
    """(path, line, name) of every private helper defined in the modules at
    paths that none of them references outside the helper's own lines."""
    helpers, uses = [], {}  # uses: name -> [(path, line)] of each reference
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, DEFINITIONS) and _is_private(node.name):
                helpers.append((path, node.lineno, node.end_lineno, node.name))
            elif isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                uses.setdefault(name, []).append((path, node.lineno))
    return sorted(
        (path, first, name)
        for path, first, last, name in helpers
        if not any(
            where != path or not first <= line <= last for where, line in uses.get(name, ())
        )
    )


def modules() -> list[Path]:
    """Every module of the package."""
    return sorted((ROOT / "src").rglob("*.py"))


def main() -> int:
    found = dead_helpers(modules())
    for path, line, name in found:
        print(f"{path.relative_to(ROOT)}:{line}: {name}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
