"""End-to-end acceptance gate: eight numbered criteria, one verdict line each.

Every criterion that can be cross-checked leans on the independent
brute-force routes in bruteforce.py rather than the library's own oracle,
so an implementation bug cannot vouch for itself.  Criterion 5 additionally
dumps any duality counterexample into artifacts/duality_violations.json
before failing the build.
"""

from __future__ import annotations

import json
import os
import time
from fractions import Fraction
from pathlib import Path

from acceptance_report import record
from bruteforce import bf_forces, harvested_thresholds
from pools import categorical_pool, forest_pool, make_problem, monotone_pool, soundness_pool

from xinflate.bench import run_bench
from xinflate.classifiers import MonotonicClassifier
from xinflate.duality import check_hits, enumerate_iaxps, enumerate_icxps
from xinflate.examples import risk_list
from xinflate.explain import (
    ExplanationProblem,
    enumerate_all,
    find_axp,
    find_cxp,
    minimal_hitting_sets,
)
from xinflate.inflate import (
    InflationConfig,
    inflate_atoms,
    inflate_axp,
    inflate_ordinal,
)
from xinflate.model import (
    CatSet,
    Categorical,
    Interval,
    Ordinal,
    interval_union,
    singleton_set,
    vs_subset,
    vs_union,
)
from xinflate.serialize import ModelFile, explanation_to_dict, load_model, model_to_dict
from xinflate.trainer import load_dataset

ROOT = Path(__file__).resolve().parent.parent
ARTIFACTS = ROOT / "artifacts"

MONOTONE_DELTA = Fraction(1, 4)


def _pins(problem, subset):
    return {
        j: singleton_set(problem.space.domain(j), problem.value_of(j)) for j in subset
    }


def _boundaries(classifier, space, j):
    """Cell boundaries for feature j harvested straight from the model text."""
    domain = space.domain(j)
    inner = sorted(
        t for t in harvested_thresholds(classifier, j) if domain.lo < t < domain.hi
    )
    return [domain.lo, *inner, domain.hi]


def _cells(domain, boundaries):
    cells = []
    for i in range(len(boundaries) - 1):
        last = i == len(boundaries) - 2
        cells.append(
            interval_union(
                domain, [Interval(boundaries[i], boundaries[i + 1], True, last)]
            )
        )
    return cells


def _piece_containing(value_set, value):
    for piece in value_set.intervals:
        lo_ok = value > piece.lo or (piece.lo_closed and value == piece.lo)
        hi_ok = value < piece.hi or (piece.hi_closed and value == piece.hi)
        if lo_ok and hi_ok:
            return piece
    raise AssertionError("instance value missing from its own inflated set")


def test_criterion_1_running_example_parity():
    clf, space = risk_list()
    started = time.perf_counter()
    problem = ExplanationProblem.from_point(clf, space, ("Junior", "Red"))
    axp = find_axp(problem)
    expl = inflate_axp(problem, axp, trusted=True)
    elapsed = time.perf_counter() - started
    ok = (
        axp == (1, 2)
        and set(expl.sets[1].labels) == {"Junior", "Senior"}
        and set(expl.sets[2].labels) == {"Red", "Blue", "Green", "Black"}
        and expl.probe_order == axp
        and elapsed < 1.0
    )
    assert record(
        1, ok, "bundled decision list reproduces the worked sets in probe order, under 1s"
    ), (axp, expl.sets, expl.probe_order, elapsed)


def test_criterion_2_extraction_soundness():
    problems = soundness_pool()
    violations = []
    for idx, (clf, space, point) in enumerate(problems):
        problem = make_problem(clf, space, point)
        target = problem.target
        axp = find_axp(problem)
        if not bf_forces(clf, space, _pins(problem, axp), target):
            violations.append((idx, "axp fails the sufficiency predicate", axp))
        for t in axp:
            rest = tuple(x for x in axp if x != t)
            if bf_forces(clf, space, _pins(problem, rest), target):
                violations.append((idx, "axp stays sufficient after deleting", t))
        cxp = find_cxp(problem)
        kept = tuple(j for j in space.features() if j not in cxp)
        if bf_forces(clf, space, _pins(problem, kept), target):
            violations.append((idx, "cxp admits no counterexample", cxp))
        for t in cxp:
            if not bf_forces(clf, space, _pins(problem, kept + (t,)), target):
                violations.append((idx, "cxp stays contrastive after deleting", t))
    ok = len(problems) >= 500 and not violations
    assert record(
        2,
        ok,
        f"minimal sound explanations on {len(problems)} random models, zero violations",
    ), violations[:5]


def test_criterion_3_inflation_maximality():
    problems = soundness_pool()
    violations = []
    for idx, (clf, space, point) in enumerate(problems):
        problem = make_problem(clf, space, point)
        target = problem.target
        axp = find_axp(problem)
        expl = inflate_axp(
            problem, axp, InflationConfig(delta=MONOTONE_DELTA), trusted=True
        )
        for j in expl.features:
            domain = space.domain(j)
            grown = expl.sets[j]
            others = {k: s for k, s in expl.sets.items() if k != j}

            def insufficient(candidate):
                trial = dict(others)
                trial[j] = candidate
                return not bf_forces(clf, space, trial, target)

            if isinstance(domain, Categorical):
                for label in domain.labels:
                    if label in grown.labels:
                        continue
                    if not insufficient(vs_union(domain, grown, CatSet((label,)))):
                        violations.append((idx, j, "label addition stays sufficient", label))
            elif isinstance(clf, MonotonicClassifier):
                if len(grown.intervals) != 1:
                    violations.append((idx, j, "grid result not a single interval", grown))
                    continue
                piece = grown.intervals[0]
                if piece.hi + MONOTONE_DELTA <= domain.hi:
                    wider = interval_union(
                        domain,
                        [Interval(piece.lo, piece.hi + MONOTONE_DELTA, True, True)],
                    )
                    if not insufficient(wider):
                        violations.append((idx, j, "sup + delta stays sufficient", piece))
                if piece.lo - MONOTONE_DELTA >= domain.lo:
                    wider = interval_union(
                        domain,
                        [Interval(piece.lo - MONOTONE_DELTA, piece.hi, True, True)],
                    )
                    if not insufficient(wider):
                        violations.append((idx, j, "inf - delta stays sufficient", piece))
            else:
                for cell in _cells(domain, _boundaries(clf, space, j)):
                    if vs_subset(domain, cell, grown):
                        continue
                    if not insufficient(vs_union(domain, grown, cell)):
                        violations.append((idx, j, "cell addition stays sufficient", cell))
    ok = not violations
    assert record(
        3, ok, "every label, cell, and delta-step widening breaks sufficiency"
    ), violations[:5]


def test_criterion_4_tree_cell_exactness():
    problems = forest_pool(100, seed=707)
    violations = []
    checked = 0
    for idx, (clf, space, point) in enumerate(problems):
        problem = make_problem(clf, space, point)
        axp = find_axp(problem)
        base = _pins(problem, axp)
        for j in axp:
            domain = space.domain(j)
            if not isinstance(domain, Ordinal):
                continue
            checked += 1
            boundaries = _boundaries(clf, space, j)
            allowed = set(boundaries) | set(harvested_thresholds(clf, j))
            others = {k: s for k, s in base.items() if k != j}
            cells_grown = inflate_atoms(problem, j, others)
            for piece in cells_grown.intervals:
                if piece.lo not in allowed or piece.hi not in allowed:
                    violations.append((idx, j, "endpoint off the cell boundaries", piece))
            widths = [boundaries[i + 1] - boundaries[i] for i in range(len(boundaries) - 1)]
            delta = min(widths) / 4
            grid_grown = inflate_ordinal(problem, j, others, InflationConfig(delta=delta))
            if len(grid_grown.intervals) != 1:
                violations.append((idx, j, "grid result not a single interval", grid_grown))
                continue
            low = grid_grown.intervals[0].lo
            high = grid_grown.intervals[0].hi
            seed = _piece_containing(cells_grown, problem.value_of(j))
            if abs(low - seed.lo) > delta or abs(seed.hi - high) > delta:
                violations.append(
                    (idx, j, "grid endpoint more than delta from the cell endpoint", (low, high, seed))
                )
    ok = len(problems) >= 100 and checked > 0 and not violations
    assert record(
        4,
        ok,
        f"cell endpoints sit on split boundaries; delta search lands within delta ({checked} features)",
    ), violations[:5]


def test_criterion_5_duality_and_hits():
    problems = categorical_pool(50, seed=404)
    violations = []
    for idx, (clf, space, point) in enumerate(problems):
        problem = make_problem(clf, space, point)
        axps, cxps = enumerate_all(problem)
        family_a = {frozenset(x) for x in axps}
        family_c = {frozenset(y) for y in cxps}
        hits_of_c = {frozenset(h) for h in minimal_hitting_sets(cxps)}
        hits_of_a = {frozenset(h) for h in minimal_hitting_sets(axps)}
        entry = None
        if family_a != hits_of_c or family_c != hits_of_a:
            entry = {
                "kind": "hitting-set duality broken",
                "axps": [sorted(x) for x in axps],
                "cxps": [sorted(y) for y in cxps],
            }
        else:
            iaxps = [e for x in axps for e in enumerate_iaxps(problem, x)]
            icxps = [e for y in cxps for e in enumerate_icxps(problem, y)]
            for ia in iaxps:
                for ic in icxps:
                    if check_hits(problem, ia, ic) is None:
                        entry = {
                            "kind": "inflated pair without a blocking feature",
                            "iaxp": explanation_to_dict(space, ia),
                            "icxp": explanation_to_dict(space, ic),
                        }
                        break
                if entry:
                    break
        if entry:
            entry["problem"] = idx
            entry["model"] = model_to_dict(ModelFile(f"problem-{idx}", space, clf))
            entry["instance"] = [str(v) for v in point]
            violations.append(entry)
    if violations:
        ARTIFACTS.mkdir(exist_ok=True)
        (ARTIFACTS / "duality_violations.json").write_text(
            json.dumps(violations, indent=2) + "\n"
        )
    ok = len(problems) >= 50 and not violations
    assert record(
        5, ok, "families are mutual minimal hitting sets; every inflated pair shares a blocker"
    ), ("see artifacts/duality_violations.json", len(violations))


def test_criterion_6_strategy_equivalence():
    problems = monotone_pool(200, seed=606)
    delta = Fraction(1, 4)
    configs = (
        InflationConfig(delta=delta, strategy="linear"),
        InflationConfig(delta=delta, beta=Fraction(1), strategy="linear"),
        InflationConfig(delta=delta, strategy="binary"),
    )
    mismatches = []
    for idx, (clf, space, point) in enumerate(problems):
        problem = make_problem(clf, space, point)
        axp = find_axp(problem)
        results = [inflate_axp(problem, axp, cfg, trusted=True).sets for cfg in configs]
        if results[0] != results[1] or results[0] != results[2]:
            mismatches.append((idx, results))
    ok = len(problems) >= 200 and not mismatches
    assert record(
        6, ok, f"linear, beta-refined, and binary searches agree on {len(problems)} monotone problems"
    ), mismatches[:3]


def test_criterion_7_desk_scale_bench():
    mf = load_model(ROOT / "models" / "bench_forest.json")
    data = load_dataset(ROOT / "data" / "bench.csv")
    rows = data.rows[:100]
    labels = data.labels[:100]
    workers = min(4, os.cpu_count() or 1)
    started = time.perf_counter()
    report = run_bench(mf.classifier, mf.space, rows, labels=labels, workers=workers)
    elapsed = time.perf_counter() - started
    doc = report.to_dict()
    ok = (
        len(mf.classifier.trees) == 25
        and mf.space.m == 8
        and doc["instances"] == 100
        and set(doc["aggregates"])
        == {"axp_len_avg", "time_avg_s", "added_min", "added_max", "added_avg"}
        and elapsed < 60.0
    )
    assert record(
        7, ok, f"100-instance benchmark on the bundled 25-tree forest in {elapsed:.1f}s"
    ), (elapsed, doc.get("aggregates"))


def test_criterion_8_oracle_call_accounting():
    cases = list(categorical_pool(50, seed=404))
    clf, space = risk_list()
    cases.append((clf, space, ("Junior", "Red")))
    over = []
    for idx, (clf, space, point) in enumerate(cases):
        problem = ExplanationProblem.from_point(clf, space, point)
        before = problem.oracle.stats.calls
        axp = find_axp(problem)
        after_axp = problem.oracle.stats.calls
        inflate_axp(problem, axp, trusted=True)
        after_inflate = problem.oracle.stats.calls
        axp_budget = space.m
        inflate_budget = sum(len(space.domain(j).labels) - 1 for j in axp)
        if (
            after_axp - before > axp_budget
            or after_inflate - after_axp > inflate_budget
        ):
            over.append(
                (idx, after_axp - before, axp_budget, after_inflate - after_axp, inflate_budget)
            )
    ok = not over
    assert record(
        8, ok, "calls stay within |F| for extraction plus spare labels for inflation"
    ), over[:5]
