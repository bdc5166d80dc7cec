"""Tests of the benchmark itself: metric coverage, checks, repeatable counts.

    python3 -m pytest benchmark/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402
import run as bench_run  # noqa: E402
from xinflate.model import CatSet, Interval, IntervalUnion  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, key):
    result = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--limit", "2", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want


def _decisions(workload: str) -> dict:
    _run("--workload", workload, "--seed", "5", "--seconds", "600", "--limit", "3", "--trace", "1")
    doc = json.loads((ROOT / ".bench_out" / f"result-{workload}-seed5-trace1.json").read_text())
    assert doc["correct"] is True
    return doc["decisions"]


@pytest.mark.parametrize("workload", ["forest-cxp", "cli-dual"])
def test_decision_counts_repeat_exactly(workload):
    first = _decisions(workload)
    assert len(first) == 3 and all(n > 0 for n in first.values())
    assert _decisions(workload) == first


def test_spans_nest_and_self_times_are_not_negative():
    _run("--workload", "cli-dual", "--seed", "2", "--seconds", "600", "--limit", "4", "--trace", "1")
    path = ROOT / ".bench_out" / "spans-cli-dual-seed2-trace1.jsonl"
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start_ns"] <= s["start_ns"] <= s["end_ns"] <= parent["end_ns"]
    rows = [[s["name"], s["start_ns"], s["end_ns"], s["parent"], s["request"], s["answer"]] for s in spans]
    assert min(bench_trace.self_times(rows)) >= 0
    names = {s["name"] for s in spans}
    assert {"cli.main", "serialize.load_model", "explain.problem", "duality.enumerate_iaxps"} <= names


# ---------------------------------------------------------------------------
# Checks catch corrupted answers


@pytest.fixture(scope="module")
def forest_ctx(tmp_path_factory):
    return bw.WORKLOADS["forest-cxp"].setup(0, tmp_path_factory.mktemp("forest"))


def _first_answer(workload: str, ctx):
    case = ctx.cases[0]
    return case, bw.WORKLOADS[workload].run(ctx, case, bw.plain_api())


def test_sound_answers_pass(forest_ctx):
    for name in ("forest-axp", "forest-cxp"):
        case, answer = _first_answer(name, forest_ctx)
        assert bw.WORKLOADS[name].check(case, answer, random.Random(0)) == []


def test_wrong_class_fails_the_abductive_check(forest_ctx):
    case, answer = _first_answer("forest-axp", forest_ctx)
    other = next(c for c in case.classifier.classes if c != answer.target)
    corrupted = dataclasses.replace(answer, target=other)
    assert bw.check_abductive(case, corrupted, random.Random(0))


def test_widened_box_fails_the_abductive_check(forest_ctx):
    case, answer = _first_answer("forest-axp", forest_ctx)
    # Free every feature: the box is the whole space, which holds both classes.
    expl = dataclasses.replace(answer.expl, features=(), sets={})
    corrupted = dataclasses.replace(answer, features=(), expl=expl)
    failures = sum(
        bool(bw.check_abductive(case, corrupted, random.Random(k))) for k in range(20)
    )
    assert failures > 0


def _pinned(case, answer):
    """The answer with every shrunk set replaced by the instance value."""
    sets = {}
    for j in answer.expl.features:
        v = case.values[j - 1]
        sets[j] = CatSet(frozenset([v])) if isinstance(v, str) else IntervalUnion((Interval(v, v),))
    return dataclasses.replace(answer, expl=dataclasses.replace(answer.expl, sets=sets))


def test_instance_value_fails_the_contrastive_check(forest_ctx):
    case, answer = _first_answer("forest-cxp", forest_ctx)
    assert bw.check_contrastive(case, _pinned(case, answer), random.Random(0))


def test_dual_document_checks():
    good = bw.Answer("0", doc={"duality_holds": True, "hits": [[1, 2]]})
    assert bw.check_dual_doc(None, good, None) == []
    assert bw.check_dual_doc(None, bw.Answer("0", doc={"duality_holds": True, "hits": [[1, None]]}), None)
    assert bw.check_dual_doc(None, bw.Answer("0", doc={"duality_holds": False, "hits": []}), None)
    assert bw.check_dual_doc(None, bw.Answer("", exit_code=2), None)


def test_reference_mismatch_is_reported(forest_ctx):
    case, answer = _first_answer("forest-axp", forest_ctx)
    record = bw.reference_record(case, answer)
    assert bw.compare_reference(record, record) == []
    assert bw.compare_reference({**record, "decisions": record["decisions"] + 1}, record)
    assert bw.compare_reference({**record, "sets_sha256": "0" * 64}, record)


def test_corrupting_program_fails_the_run(tmp_path):
    workload = bw.WORKLOADS["forest-cxp"]

    def corrupted_run(ctx, case, api):
        return _pinned(case, bw._cxp_run(ctx, case, api))

    run = bench_run.Run(dataclasses.replace(workload, run=corrupted_run), 0, tmp_path, trace=False)
    run.setup()
    run.loop(seconds=600, limit=2)
    assert run.attempted == 2 and len(run.failures) == 2
