"""List the private helpers and public names of the package that nothing uses.

Run from the repository root:

    python3 scripts/check_dead_helpers.py

Every module under `src/` is parsed with `ast`.  A private helper is a
function, class or method whose name starts with one underscore (dunder
names such as `__init__` are left out).  It counts as used when some
module of `src/` names it, as a name or as an attribute, outside the
lines of its own definition, so a helper that only calls itself is still
reported.  Names are matched by spelling, not by scope: two helpers of one
name count as used when either is.  Tests and scripts do not count.

A public name is a top-level function or class of a module of `src/`
whose name does not start with an underscore.  It counts as used, in the
same way, when some module of `src/` or `benchmark/` names it, or when
`README.md` does.  The package's `__init__.py` only re-exports, so its
names do not count.

The script prints one `path:line: name` per unused helper or public name
and exits 1 when there is any, else 0.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def _unused(defined, paths) -> list[tuple[Path, int, str]]:
    """(path, first line, name) of every definition (path, first line, last
    line, name) that no module at paths references outside those lines,
    as a name or as an attribute."""
    uses = {}  # name -> [(path, line)] of each reference
    for path in paths:
        for node in ast.walk(_parse(path)):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                uses.setdefault(name, []).append((path, node.lineno))
    return sorted(
        (path, first, name)
        for path, first, last, name in defined
        if not any(
            where != path or not first <= line <= last for where, line in uses.get(name, ())
        )
    )


def dead_helpers(paths) -> list[tuple[Path, int, str]]:
    """(path, line, name) of every private helper defined in the modules at
    paths that none of them references outside the helper's own lines."""
    helpers = [
        (path, node.lineno, node.end_lineno, node.name)
        for path in paths
        for node in ast.walk(_parse(path))
        if isinstance(node, DEFINITIONS) and _is_private(node.name)
    ]
    return _unused(helpers, paths)


def dead_public_names(paths, users, readme: str) -> list[tuple[Path, int, str]]:
    """(path, line, name) of every public top-level function or class of the
    modules at paths that the readme text does not name and that no module
    at users references outside the definition's own lines."""
    names = [
        (path, node.lineno, node.end_lineno, node.name)
        for path in paths
        for node in _parse(path).body
        if isinstance(node, DEFINITIONS)
        and not node.name.startswith("_")
        and not re.search(rf"\b{node.name}\b", readme)
    ]
    return _unused(names, users)


def modules() -> list[Path]:
    """Every module of the package."""
    return sorted((ROOT / "src").rglob("*.py"))


def public_paths() -> tuple[list[Path], list[Path]]:
    """The modules whose public names are checked, and those whose uses count."""
    package = [path for path in modules() if path.name != "__init__.py"]
    return package, package + sorted((ROOT / "benchmark").rglob("*.py"))


def main() -> int:
    readme = (ROOT / "README.md").read_text()
    found = dead_helpers(modules()) + dead_public_names(*public_paths(), readme)
    for path, line, name in found:
        print(f"{path.relative_to(ROOT)}:{line}: {name}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
