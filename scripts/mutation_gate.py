"""Mutation gate: every catalogued mutant of the program must fail tier-1.

Run from the repository root:

    python3 scripts/mutation_gate.py

Each catalog entry is one exact edit of one file under `src/`: an old
text that must occur exactly once and the new text that replaces it.
The repository, without its git data and caches, is copied once to a
temporary directory, and tier-1 must pass there unmutated: otherwise every
mutant would look killed.  Then each mutant is written there in turn,
tier-1 runs with `-x` against it, and the file is restored.  The test that
every catalog edit matches once is left out of these runs: it reads the
mutated file, so it would fail on every mutant and kill each one itself.
A mutant is killed when tier-1 fails or runs past `TIMEOUT_S`.  The script
prints one line per mutant and exits 1 when an edit does not match exactly
once, tier-1 fails on the copy, or a mutant survives, else 0.

Only non-equivalent mutants belong here: an edit that changes no answer
survives every test and says nothing about them.  Reading `any` for `all`
in the prune's test whether a rule can fire only weakens the prune, except
on a rule with no literal, which always fires; that is the mutant kept.
Dropping the trainer's stop at a node of one class only costs time: every
split of such a node has impurity 0, no gain, so the node still becomes a
leaf; that mutant is left out.  An entry changes only when the code it
edits is deleted or rewritten.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300
TIER1 = ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors")
TIER1 += ("--deselect", "tests/test_tooling.py::test_mutation_catalog_edits_match_once")
SKIPPED = (".git", ".bench_out", ".benchmarks", ".hypothesis", ".pytest_cache", "__pycache__")

ORACLE = "src/xinflate/oracle.py"
TRAINER = "src/xinflate/trainer.py"
CLASSIFIERS = "src/xinflate/classifiers.py"

# (name, path, old text, new text)
CATALOG = (
    (
        "list walk drops the part of a region that fails a literal",
        ORACLE,
        "                    stack.append((i, rest))\n",
        "",
    ),
    (
        "list walk keeps the whole region after a literal splits it",
        ORACLE,
        "                    stack.append((i, rest))\n                    b[f0] = r\n",
        "                    stack.append((i, rest))\n",
    ),
    (
        "list walk reads the next literal after one the region fails whole",
        ORACLE,
        "                    if not r:\n                        break\n",
        "                    if not r:\n                        continue\n",
    ),
    (
        "list walk skips the class check of a fired rule",
        ORACLE,
        "                if ci != ti:\n                    return False\n                break\n",
        "                break\n",
    ),
    (
        "list prune takes a rule with no literal as one that cannot fire",
        ORACLE,
        "        if ci != ti and all(box[f0] & m for f0, m in literals):\n",
        "        if ci != ti and any(box[f0] & m for f0, m in literals):\n",
    ),
    (
        "list prune takes a rule with one entailed literal as entailed",
        ORACLE,
        "        if not any(box[f0] & ~m for f0, m in literals):\n",
        "        if not all(box[f0] & ~m for f0, m in literals):\n",
    ),
    (
        "list prune ignores the default class",
        ORACLE,
        "    return default == ti\n",
        "    return True\n",
    ),
    (
        "trainer breaks a split tie toward the last split tried",
        TRAINER,
        "if best is None or score < best[0]:",
        "if best is None or score <= best[0]:",
    ),
    (
        "trainer takes a split without gain",
        TRAINER,
        "best[0] >= _gini(labels)",
        "best[0] > _gini(labels)",
    ),
    (
        "trainer puts an ordinal pivot on the upper value, not the midpoint",
        TRAINER,
        "((a + b) / 2 for a, b in",
        "(b for a, b in",
    ),
    (
        "trainer keeps a split whose two leaves agree",
        TRAINER,
        "        return left\n    return kind(",
        "        pass\n    return kind(",
    ),
    (
        "vote ties go to the highest class index",
        CLASSIFIERS,
        "max(classes, key=counts.__getitem__)",
        "max(reversed(classes), key=counts.__getitem__)",
    ),
)


def unmatched(root: Path = ROOT, catalog=CATALOG) -> list[str]:
    """The entries whose old text does not occur exactly once in their file."""
    return [
        f"{name}: {path} holds its old text {count} times"
        for name, path, old, _ in catalog
        if (count := (root / path).read_text().count(old)) != 1
    ]


def fails(copy: Path) -> bool:
    """Whether tier-1 fails, or runs past `TIMEOUT_S`, on the copy."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(
            (sys.executable, *TIER1), cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return True
    return done.returncode != 0


def killed(copy: Path, path: str, old: str, new: str) -> bool:
    """Whether tier-1 fails with the edit made in the copy."""
    target = copy / path
    original = target.read_text()
    target.write_text(original.replace(old, new, 1))
    try:
        return fails(copy)
    finally:
        target.write_text(original)


def main(root: Path = ROOT, catalog=CATALOG) -> int:
    problems = unmatched(root, catalog)
    for line in problems:
        print(f"unmatched: {line}")
    if problems:
        return 1
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(root, copy, ignore=shutil.ignore_patterns(*SKIPPED))
        if fails(copy):
            print("tier-1 fails on the unmutated copy")
            return 1
        for name, path, old, new in catalog:
            t0 = time.perf_counter()
            dead = killed(copy, path, old, new)
            survivors += not dead
            print(f"{'killed' if dead else 'SURVIVED'} in {time.perf_counter() - t0:.1f} s: {name}")
    print(f"{len(catalog) - survivors} of {len(catalog)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
