"""The repository's own checking scripts, and the README's Python example."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import check_dead_helpers  # noqa: E402
import mutation_gate  # noqa: E402
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
    assert CHECKED == ("src", "tests", "scripts", "benchmark")
    assert _unused_under("tests") == {}
    assert _unused_under("scripts") == {}
    assert _unused_under("benchmark") == {}


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


def test_dead_public_names_are_found(tmp_path):
    first, second, user = tmp_path / "a.py", tmp_path / "b.py", tmp_path / "user.py"
    first.write_text(
        "def used_here():\n"
        "    return 1\n"
        "def documented():\n"
        "    return 2\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else used_here()\n"
        "class Unused:\n"
        "    def method(self):\n"
        "        return 0\n"
        "def _private():\n"
        "    pass\n"
    )
    second.write_text("def imported():\n    return 3\ndef only_in_tests():\n    pass\n")
    user.write_text("from b import imported\nx = imported()\n")
    readme = "Call `documented()`; `documented_too` is another name."
    found = check_dead_helpers.dead_public_names([first, second], [first, second, user], readme)
    assert [(path.name, line, name) for path, line, name in found] == [
        ("a.py", 5, "recursive"),
        ("a.py", 7, "Unused"),
        ("b.py", 3, "only_in_tests"),
    ]


def test_src_has_no_dead_public_names():
    checked, users = check_dead_helpers.public_paths()
    names = {path.name for path in checked}
    assert "synthetic.py" in names and "__init__.py" not in names and "oracle.py" in names
    assert any(path.relative_to(ROOT).parts[0] == "benchmark" for path in users)
    readme = (ROOT / "README.md").read_text()
    assert check_dead_helpers.dead_public_names(checked, users, readme) == []


def test_mutation_catalog_edits_match_once():
    assert mutation_gate.CATALOG
    assert mutation_gate.unmatched() == []
    names = [name for name, *_ in mutation_gate.CATALOG]
    assert len(set(names)) == len(names)
    assert all(old != new for _, _, old, new, *_ in mutation_gate.CATALOG)


def test_mutation_catalog_names_tests_that_exist():
    for name, _, _, _, *tests in mutation_gate.CATALOG:
        assert tests, name
        for test in tests:
            path, *scopes = test.split("::")
            source = (ROOT / path).read_text()
            assert all(re.search(rf"^\s*(def|class) {scope}\b", source, re.M) for scope in scopes), test


def test_mutation_catalog_reports_an_edit_that_does_not_match(tmp_path):
    for _, path, *_ in mutation_gate.CATALOG:
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / path).write_text("")
    assert len(mutation_gate.unmatched(tmp_path)) == len(mutation_gate.CATALOG)


def test_mutation_gate_reports_a_survivor(tmp_path, capsys):
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "m.py").write_text("def double(x):\n    return x + x\n")
    (tmp_path / "tests" / "test_m.py").write_text("import m\n\n\ndef test_double():\n    assert m.double(3) == 6\n")
    catalog = (("same answers", "src/m.py", "x + x", "2 * x"), ("wrong answers", "src/m.py", "x + x", "x * x"))
    assert mutation_gate.main(tmp_path, catalog) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["SURVIVED", "killed", "1"]
    assert lines[-1] == "1 of 2 mutants killed"


def test_mutation_gate_reports_a_stale_entry(tmp_path, capsys):
    """A mutant that its named tests miss but tier-1 kills counts as killed,
    its line names the test that killed it, and a named test that kills
    its mutant is reported as the killer."""
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "m.py").write_text("def double(x):\n    return x + x\n")
    (tmp_path / "tests" / "test_m.py").write_text(
        "import m\n\n\ndef test_zero():\n    assert m.double(0) == 0\n\n\n"
        "def test_double():\n    assert m.double(3) == 6\n"
    )
    named = "tests/test_m.py::test_zero"
    catalog = (
        ("named tests miss it", "src/m.py", "x + x", "x * x", named),
        ("named tests kill it", "src/m.py", "x + x", "x + 1", named),
    )
    assert mutation_gate.main(tmp_path, catalog) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["killed", "killed", "1", "2"]
    assert "by tests/test_m.py::test_double (stale: its named tests pass): named tests miss it" in lines[0]
    assert lines[1].endswith(f"by {named}: named tests kill it")
    assert lines[-1] == "2 of 2 mutants killed"


def test_decision_digest_prints_its_pinned_line():
    script = ROOT / "scripts" / "decision_digest.py"
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (ROOT / "scripts" / "decision_digest.json").read_text()


def test_readme_python_example_shows_what_it_prints(capsys):
    """The README's Python API block, run as written: each comment line holds
    the next line it prints, and each `name = ...  # value` comment the repr
    of that name."""
    section = (ROOT / "README.md").read_text().split("## Python API", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    lines = code.splitlines()
    printed = [line[2:] for line in lines if line.startswith("# ")]
    values = [m.groups() for line in lines if (m := re.match(r"(\w+) = .*#\s*(.+)$", line))]
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert capsys.readouterr().out.splitlines() == printed
    assert {name: repr(namespace[name]) for name, _ in values} == dict(values)
    assert printed and values
