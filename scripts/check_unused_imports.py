"""List the imports a module of the package, its tests or its scripts never uses.

Run from the repository root:

    python3 scripts/check_unused_imports.py

Every module under `src/`, `tests/` and `scripts/` except the
`__init__.py` files is parsed with `ast`.  A name bound by an import
counts as used when it appears anywhere in the module as a name, as the
root of an attribute chain, or inside a quoted annotation.  `from
__future__` imports are skipped.  The script prints one `path:line: name`
per unused import and exits 1 when there is any, else 0.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED = ("src", "tests", "scripts")


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.AST) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of every import of the module at path that it never uses."""
    tree = ast.parse(path.read_text(), str(path))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    used = _used_names(tree)
    return [(line, name) for line, name in bound if name not in used]


def modules():
    """Every checked module, `__init__.py` files left out."""
    for top in CHECKED:
        yield from (p for p in sorted((ROOT / top).rglob("*.py")) if p.name != "__init__.py")


def main() -> int:
    found = 0
    for path in modules():
        for line, name in unused_imports(path):
            print(f"{path.relative_to(ROOT)}:{line}: {name}")
            found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
