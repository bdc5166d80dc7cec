"""Batch runs: records, aggregates, and worker-count independence."""

from fractions import Fraction
from pathlib import Path

import pytest

from xinflate import bench as bench_module
from xinflate.bench import run_bench, widening
from xinflate.classifiers import DecisionList
from xinflate.errors import ValidationError
from xinflate.examples import grade_model, risk_list
from xinflate.explain import ExplanationProblem
from xinflate.inflate import InflationConfig, inflate_axp
from xinflate.model import FeatureSpace, Ordinal
from xinflate.serialize import load_model
from xinflate.trainer import load_dataset

F = Fraction
ROOT = Path(__file__).resolve().parent.parent


def _strip_times(report):
    return [
        (r.index, r.class_id, r.axp, r.added, r.oracle_calls) for r in report.records
    ]


class TestWidening:
    def test_categorical_counts_extra_labels(self):
        clf, space = risk_list()
        problem = ExplanationProblem.from_point(clf, space, ("Junior", "Red"))
        expl = inflate_axp(problem, (1, 2), trusted=True)
        assert widening(space, 1, "Junior", expl) == 1
        assert widening(space, 2, "Red", expl) == 3

    def test_ordinal_counts_pieces_or_zero(self):
        clf, space = grade_model()
        problem = ExplanationProblem.from_point(clf, space, (F(3), F(5)))
        expl = inflate_axp(problem, (1, 2), InflationConfig(delta=F(1, 2)), trusted=True)
        assert widening(space, 1, F(3), expl) == 1
        assert widening(space, 2, F(5), expl) == 1


class TestRunBench:
    def test_risk_rows(self):
        clf, space = risk_list()
        rows = [("Junior", "Red"), ("Adult", "Silver"), ("Senior", "Green")]
        report = run_bench(clf, space, rows, labels=["1", "0", "1"])
        assert len(report.records) == 3
        assert report.accuracy == 1
        first = report.records[0]
        assert first.axp == (1, 2)
        assert first.added_total == 4
        assert first.oracle_calls == 2 + (3 - 1) + (6 - 1)

    def test_aggregates_recompute_from_records(self):
        clf, space = risk_list()
        rows = [("Junior", "Red"), ("Adult", "Silver")]
        report = run_bench(clf, space, rows)
        doc = report.to_dict()
        assert doc["aggregates"]["added_min"] == min(r.added_total for r in report.records)
        assert doc["aggregates"]["added_max"] == max(r.added_total for r in report.records)
        assert doc["aggregates"]["axp_len_avg"] == sum(
            len(r.axp) for r in report.records
        ) / len(report.records)
        assert doc["instances"] == 2
        assert set(doc["aggregates"]) == {
            "axp_len_avg",
            "time_avg_s",
            "added_min",
            "added_max",
            "added_avg",
        }

    def test_parallel_equals_sequential(self):
        mf = load_model(ROOT / "models" / "bench_forest.json")
        ds = load_dataset(ROOT / "data" / "bench.csv")
        rows = ds.rows[:6]
        seq = run_bench(mf.classifier, mf.space, rows, workers=1)
        par = run_bench(mf.classifier, mf.space, rows, workers=3)
        assert _strip_times(seq) == _strip_times(par)

    def test_constant_classifier_rejected(self):
        clf = DecisionList((), "d", ("d", "e"))
        space = FeatureSpace((Ordinal(F(0), F(1)),))
        with pytest.raises(ValidationError):
            run_bench(clf, space, [(F(0),)])

    def test_workers_below_one_rejected(self):
        clf, space = risk_list()
        for workers in (0, -3):
            with pytest.raises(ValidationError, match="workers"):
                run_bench(clf, space, [("Junior", "Red")], workers=workers)

    def test_empty_rows_rejected(self):
        clf, space = risk_list()
        with pytest.raises(ValidationError):
            run_bench(clf, space, [])

    def test_label_count_refused_before_any_row_is_explained(self, monkeypatch):
        def explain_one(*args):
            raise AssertionError("a row was explained")

        monkeypatch.setattr(bench_module, "_explain_one", explain_one)
        clf, space = risk_list()
        rows = [("Junior", "Red"), ("Adult", "Red")]
        for labels in (["1"], ["1", "0", "1"]):
            with pytest.raises(ValidationError, match="^labels and rows differ in length$"):
                run_bench(clf, space, rows, labels=labels)

    def test_mispredicted_labels_lower_accuracy(self):
        clf, space = risk_list()
        report = run_bench(clf, space, [("Junior", "Red")], labels=["0"])
        assert report.accuracy == 0
