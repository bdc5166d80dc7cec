"""Mutation gate: every catalogued mutant of the program must fail tier-1.

Run from the repository root:

    python3 scripts/mutation_gate.py

Each catalog entry is one exact edit of one file under `src/`: an old
text that must occur exactly once and the new text that replaces it,
followed by the test nodes expected to kill it.  The repository, without
its git data and caches, is copied once to a temporary directory, and
tier-1 and every named test must pass there unmutated: otherwise every
mutant would look killed.  Then each mutant is written there in turn, its
named tests run with `-x`, then all of tier-1 with `-x` only when they
pass, and the file is restored.  The test that every catalog edit matches
once is left out of these runs: it reads the mutated file, so it would
fail on every mutant and kill each one itself.  A mutant is killed when a
run fails or runs past `TIMEOUT_S`; it survives only when all of tier-1
passes.  An entry whose named tests miss it, but which tier-1 kills, is
stale: it counts as killed, and its line says so.  The script prints one
line per mutant, with the test that killed it, and exits 1 when an edit
does not match exactly once, tier-1 or a named test fails on the copy, or
a mutant survives, else 0.

Only non-equivalent mutants belong here: an edit that changes no answer
survives every test and says nothing about them.  Reading `any` for `all`
in the prune's test whether a rule can fire only weakens the prune, except
on a rule with no literal, which always fires; that is the mutant kept.
Dropping the trainer's stop at a node of one class only costs time: every
split of such a node has impurity 0, no gain, so the node still becomes a
leaf; that mutant is left out.  In the vote search, a split on another
feature, or a reach that takes in leaves the box does not reach, changes
the nodes, never an answer: more leaves only loosen the bounds on the
votes, and the halves of a split are exact again.  Such mutants are
killed by the pinned node counts.  So is one that keeps the atoms an
admitted search has rejected in the nodes still on its stack: those
nodes are searched for nothing, and no answer changes.  An entry changes
only when the code it edits is deleted or rewritten.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300
TIER1 = ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors")
TIER1 += ("--deselect", "tests/test_tooling.py::test_mutation_catalog_edits_match_once")
SKIPPED = (".git", ".bench_out", ".benchmarks", ".hypothesis", ".pytest_cache", "__pycache__")

ORACLE = "src/xinflate/oracle.py"
TRAINER = "src/xinflate/trainer.py"
CLASSIFIERS = "src/xinflate/classifiers.py"
SERIALIZE = "src/xinflate/serialize.py"
MODEL = "src/xinflate/model.py"

# (name, path, old text, new text, test nodes expected to kill it...)
CATALOG = (
    (
        "list walk drops the part of a region that fails a literal",
        ORACLE,
        "                    stack.append((i, rest))\n",
        "",
        "tests/test_oracle.py::TestListShapes::test_two_literals_on_one_feature",
        "tests/test_oracle.py::TestBruteForceEquivalence::test_decision_lists_agree",
    ),
    (
        "list walk keeps the whole region after a literal splits it",
        ORACLE,
        "                    stack.append((i, rest))\n                    b[f0] = r\n",
        "                    stack.append((i, rest))\n",
        "tests/test_oracle.py::TestListShapes::test_label_and_label_set_on_one_feature",
        "tests/test_oracle.py::TestBruteForceEquivalence::test_decision_lists_agree",
    ),
    (
        "list walk reads the next literal after one the region fails whole",
        ORACLE,
        "                    if not r:\n                        break\n",
        "                    if not r:\n                        continue\n",
        "tests/test_oracle.py::TestBruteForceEquivalence::test_worked_examples_agree",
        "tests/test_oracle.py::TestListShapes::test_two_literals_on_one_feature",
    ),
    (
        "list walk skips the class check of a fired rule",
        ORACLE,
        "                if ci != ti:\n                    return False\n                break\n",
        "                break\n",
        "tests/test_oracle.py::TestBruteForceEquivalence::test_worked_examples_agree",
        "tests/test_oracle.py::TestListShapes::test_two_literals_on_one_feature",
    ),
    (
        "list prune takes a rule with no literal as one that cannot fire",
        ORACLE,
        "        if ci != ti and all(box[f0] & m for f0, m in literals):\n",
        "        if ci != ti and any(box[f0] & m for f0, m in literals):\n",
        "tests/test_oracle.py::TestBruteForceEquivalence::test_decision_lists_agree",
        "tests/test_oracle.py::TestBruteForceEquivalence::test_boundary_boxes_agree",
    ),
    (
        "list prune takes a rule with one entailed literal as entailed",
        ORACLE,
        "        if not any(box[f0] & ~m for f0, m in literals):\n",
        "        if not all(box[f0] & ~m for f0, m in literals):\n",
        "tests/test_oracle.py::TestListShapes::test_two_literals_on_one_feature",
        "tests/test_oracle.py::TestBruteForceEquivalence::test_decision_lists_agree",
    ),
    (
        "list prune ignores the default class",
        ORACLE,
        "    return default == ti\n",
        "    return True\n",
        "tests/test_oracle.py::TestListShapes::test_two_literals_on_one_feature",
        "tests/test_oracle.py::TestBruteForceEquivalence::test_decision_lists_agree",
    ),
    (
        "trainer breaks a split tie toward the last split tried",
        TRAINER,
        "if best is None or score < best[0]:",
        "if best is None or score <= best[0]:",
        "tests/test_trainer.py::TestTrainer::test_bench_seed_reproduces_the_bundled_forest",
    ),
    (
        "trainer takes a split without gain",
        TRAINER,
        "best[0] >= _gini(labels)",
        "best[0] > _gini(labels)",
        "tests/test_trainer.py::TestTrainer::test_a_split_without_gain_is_not_taken",
    ),
    (
        "trainer puts an ordinal pivot on the upper value, not the midpoint",
        TRAINER,
        "((a + b) / 2 for a, b in",
        "(b for a, b in",
        "tests/test_trainer.py::TestTrainer::test_bench_seed_reproduces_the_bundled_forest",
    ),
    (
        "trainer keeps a split whose two leaves agree",
        TRAINER,
        "        return left\n    return kind(",
        "        pass\n    return kind(",
        "tests/test_trainer.py::TestTrainer::test_bench_seed_reproduces_the_bundled_forest",
    ),
    (
        "lane test misses a slot whose last leaf alone is reached",
        ORACLE,
        "x = ((((x & body) + body) | x) & high) >> lane",
        "x = (((x & body) + body) & high) >> lane",
        "tests/test_oracle.py::TestBruteForceEquivalence::test_forests_agree",
        "tests/test_pieces.py::TestLanesAndRuns::test_decisions_match_the_scan",
    ),
    (
        "vote search gives a tie of sure votes and the target's ceiling to the higher class",
        ORACLE,
        "if sure > top or sure == top and ci < ti:",
        "if sure > top or sure == top and ci > ti:",
        "tests/test_oracle.py::TestBruteForceEquivalence::test_multiclass_forests_agree",
        "tests/test_pieces.py::TestLanesAndRuns::test_decisions_match_the_scan",
    ),
    (
        "vote search holds when a lower class's ceiling ties the target's sure votes",
        ORACLE,
        "holds = ceiling < floor or ceiling == floor and ci > ti",
        "holds = ceiling < floor or ceiling == floor and ci != ti",
        "tests/test_oracle.py::TestBruteForceEquivalence::test_multiclass_forests_agree",
        "tests/test_pieces.py::TestLanesAndRuns::test_decisions_match_the_scan",
    ),
    (
        "run reach reads the prefix OR at the run's lowest atom",
        ORACLE,
        "return pre[h] & suf[l]",
        "return pre[l] & suf[l]",
        "tests/test_oracle.py::TestBruteForceEquivalence::test_forests_agree",
        "tests/test_pieces.py::TestLanesAndRuns::test_decisions_match_the_scan",
    ),
    (
        "run reach takes a mask with a gap for a run",
        ORACLE,
        "if a == valid & ((2 << h) - (1 << l)):",
        "if a:",
        "tests/test_oracle.py::TestOracleContract::test_panel_decisions_and_nodes_are_pinned",
    ),
    (
        "ordinal meet lets through the leaves of the mask's lowest atom alone",
        ORACLE,
        "return rows[(a & -a).bit_length() - 1] & rows[a.bit_length() - 1]",
        "return rows[(a & -a).bit_length() - 1]",
        "tests/test_oracle.py::TestOracleContract::test_panel_decisions_and_nodes_are_pinned",
    ),
    (
        "a losing node of an admitted search rejects only its lowest atom",
        ORACLE,
        "                mask &= ~box[f0]\n",
        "                mask &= ~(box[f0] & -box[f0])\n",
        "tests/test_pieces.py::TestLanesAndRuns::test_admitted_atoms_match_the_scan",
        "tests/test_pieces.py::TestSession::test_a_session_answers_as_fresh_oracles",
    ),
    (
        "session memo answers another class from its admitted atoms",
        ORACLE,
        "if ci == class_id and box[:j] == seen[:j] and",
        "if box[:j] == seen[:j] and",
        "tests/test_pieces.py::TestSession::test_a_session_answers_as_fresh_oracles",
    ),
    (
        "session memo compares no feature after the probed one",
        ORACLE,
        "box[:j] == seen[:j] and box[j + 1 :] == seen[j + 1 :]:",
        "box[:j] == seen[:j]:",
        "tests/test_oracle.py::TestOracleContract::test_panel_decisions_and_nodes_are_pinned",
        "tests/test_pieces.py::TestSession::test_a_session_answers_as_fresh_oracles",
    ),
    (
        "vote ties go to the highest class index",
        CLASSIFIERS,
        "max(classes, key=counts.__getitem__)",
        "max(reversed(classes), key=counts.__getitem__)",
        "tests/test_classifiers.py::TestTrees::test_tie_breaks_to_lowest_class_index",
    ),
    (
        "validation returns only the first tree's thresholds, so a forest does not compile",
        CLASSIFIERS,
        "                cuts[key] = node.threshold\n",
        "                if t == 0:\n                    cuts[key] = node.threshold\n",
        "tests/test_oracle.py::TestBruteForceEquivalence::test_forests_agree",
        "tests/test_oracle.py::TestOracleContract::test_panel_decisions_and_nodes_are_pinned",
    ),
    (
        "validation returns each feature's thresholds unsorted",
        CLASSIFIERS,
        "    return tuple(tuple(sorted(cuts.values())) for cuts in splits)\n",
        "    return tuple(tuple(cuts.values()) for cuts in splits)\n",
        "tests/test_oracle.py::TestBruteForceEquivalence::test_decision_lists_agree",
        "tests/test_oracle.py::TestBruteForceEquivalence::test_integer_domains_agree",
    ),
    (
        "load compiles only monotone models, so a list's interval literals go unchecked",
        SERIALIZE,
        "    if isinstance(classifier, (MonotonicClassifier, DecisionList)):\n",
        "    if isinstance(classifier, (MonotonicClassifier,)):\n",
        "tests/test_serialize.py::TestRefusalTable::test_refused_with_its_path",
        "tests/test_serialize.py::TestWholeModelCheckAtLoad::test_compiles_per_load",
    ),
    (
        "a monotone model's common denominator leaves out the thresholds'",
        ORACLE,
        "scale = math.lcm(*(q.denominator for q in rationals))",
        "scale = math.lcm(*(q.denominator for q in classifier.weights))",
        "tests/test_inflate.py::TestCompiledProbes::test_shrink_cxp_matches_union_probes",
        "tests/test_oracle.py::TestBruteForceEquivalence::test_integer_monotone_boundary_boxes_agree",
    ),
    (
        "an open lower end at an integer on an integer domain keeps that integer",
        MODEL,
        "lo = math.ceil(lo) if lo_closed else math.floor(lo) + 1",
        "lo = math.ceil(lo)",
        "tests/test_inflate.py::TestGrowth::test_a_multi_atom_kept_is_topped_up_as_by_union_probes",
        "tests/test_oracle.py::TestBruteForceEquivalence::test_boundary_boxes_agree",
    ),
    (
        "continuous pieces that meet at one point merge only when both hold it",
        MODEL,
        "(cur.hi_closed or nxt.lo_closed)",
        "(cur.hi_closed and nxt.lo_closed)",
        "tests/test_model.py::TestIntervalUnion::test_half_open_pieces_touching_merge",
        "tests/test_acceptance.py::test_criterion_3_inflation_maximality",
    ),
)


def unmatched(root: Path = ROOT, catalog=CATALOG) -> list[str]:
    """The entries whose old text does not occur exactly once in their file."""
    return [
        f"{name}: {path} holds its old text {count} times"
        for name, path, old, *_ in catalog
        if (count := (root / path).read_text().count(old)) != 1
    ]


def first_failure(copy: Path, *tests: str) -> Optional[str]:
    """The first test that fails when the named tests, or all of tier-1
    when none is named, run on the copy; None when they pass."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        command = (sys.executable, *TIER1, *tests)
        done = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"a run past {TIMEOUT_S} s"
    if done.returncode == 0:
        return None
    failed = (line.split()[1] for line in done.stdout.splitlines() if line.startswith(("FAILED ", "ERROR ")))
    return next(failed, f"pytest exit {done.returncode}")


def killer(copy: Path, path: str, old: str, new: str, named: tuple) -> tuple[Optional[str], bool]:
    """The test that fails with the edit made in the copy (None when tier-1
    passes), and whether the named tests missed it."""
    target = copy / path
    original = target.read_text()
    target.write_text(original.replace(old, new, 1))
    try:
        if named and (test := first_failure(copy, *named)):
            return test, False
        return first_failure(copy), bool(named)
    finally:
        target.write_text(original)


def main(root: Path = ROOT, catalog=CATALOG) -> int:
    problems = unmatched(root, catalog)
    for line in problems:
        print(f"unmatched: {line}")
    if problems:
        return 1
    survivors = stale = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(root, copy, ignore=shutil.ignore_patterns(*SKIPPED))
        named = sorted({test for _, _, _, _, *tests in catalog for test in tests})
        if (test := first_failure(copy)) or named and (test := first_failure(copy, *named)):
            print(f"{test} fails on the unmutated copy")
            return 1
        for name, path, old, new, *tests in catalog:
            t0 = time.perf_counter()
            test, missed = killer(copy, path, old, new, tuple(tests))
            survivors += test is None
            stale += missed and test is not None
            took = f"in {time.perf_counter() - t0:.1f} s"
            if test is None:
                print(f"SURVIVED {took}: {name}")
            else:
                print(f"killed {took} by {test}{' (stale: its named tests pass)' * missed}: {name}")
    if stale:
        print(f"{stale} stale entries: name the test that killed each")
    print(f"{len(catalog) - survivors} of {len(catalog)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
