"""Batch explanation runs with per-instance records and summary aggregates.

Each record covers one instance: the extracted abductive explanation, how
far each of its features inflated, the oracle calls spent, and wall time.
The widening count for a feature is 0 when its set stayed the singleton
instance value; otherwise it is the number of extra labels (categorical)
or the number of interval pieces (ordinal).  Aggregates over a run report
the mean explanation length, mean wall time, and the min, max, and mean
of the per-instance widening totals.

Pass ``workers`` above 1 to fan instances out over a process pool; results
are identical to the sequential order.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .classifiers import Classifier, validate_classifier
from .errors import ValidationError
from .explain import ExplanationProblem, find_axp
from .inflate import InflationConfig, _extract, inflate_axp
from .model import (
    CatSet,
    FeatureSpace,
    InflatedExplanation,
    Instance,
    Value,
    rational_str,
    singleton_set,
    vs_pieces,
)
from .oracle import classifier_is_constant


@dataclass(frozen=True)
class BenchRecord:
    """Outcome of explaining and inflating one instance."""

    index: int
    class_id: str
    axp: tuple[int, ...]
    added: tuple[tuple[int, int], ...]
    oracle_calls: int
    wall_time_s: float

    @property
    def added_total(self) -> int:
        return sum(k for _, k in self.added)


@dataclass(frozen=True)
class BenchReport:
    records: tuple[BenchRecord, ...]
    delta: Fraction
    strategy: str
    accuracy: Optional[Fraction] = None

    @property
    def axp_len_avg(self) -> float:
        return sum(len(r.axp) for r in self.records) / len(self.records)

    @property
    def time_avg_s(self) -> float:
        return sum(r.wall_time_s for r in self.records) / len(self.records)

    @property
    def added_min(self) -> int:
        return min(r.added_total for r in self.records)

    @property
    def added_max(self) -> int:
        return max(r.added_total for r in self.records)

    @property
    def added_avg(self) -> float:
        return sum(r.added_total for r in self.records) / len(self.records)

    def to_dict(self) -> dict:
        doc = {
            "schema": "xinflate-bench/1",
            "instances": len(self.records),
            "delta": rational_str(self.delta),
            "strategy": self.strategy,
            "aggregates": {
                "axp_len_avg": self.axp_len_avg,
                "time_avg_s": self.time_avg_s,
                "added_min": self.added_min,
                "added_max": self.added_max,
                "added_avg": self.added_avg,
            },
            "records": [
                {
                    "index": r.index,
                    "class": r.class_id,
                    "axp": list(r.axp),
                    "added": {str(j): k for j, k in r.added},
                    "added_total": r.added_total,
                    "oracle_calls": r.oracle_calls,
                    "wall_time_s": r.wall_time_s,
                }
                for r in self.records
            ],
        }
        if self.accuracy is not None:
            doc["accuracy"] = float(self.accuracy)
        return doc


def widening(space: FeatureSpace, j: int, value: Value, expl: InflatedExplanation) -> int:
    """How far feature j widened beyond its instance value."""
    s = expl.set_for(j)
    if isinstance(s, CatSet):
        return len(s.labels) - 1
    if s == singleton_set(space.domain(j), value):
        return 0
    return vs_pieces(s)


_WORKER: dict = {}


def _init_worker(classifier, space, config):
    _WORKER["classifier"] = classifier
    _WORKER["space"] = space
    _WORKER["config"] = config


def _explain_one(classifier, space, config, index: int, values) -> BenchRecord:
    t0 = time.perf_counter()
    instance = Instance(tuple(values), classifier.predict(values))
    problem = ExplanationProblem(classifier, space, instance, skip_checks=True)
    axp, config = _extract(problem, find_axp, config)
    expl = inflate_axp(problem, axp, config, trusted=True)
    wall = time.perf_counter() - t0
    added = tuple((j, widening(space, j, instance.values[j - 1], expl)) for j in expl.features)
    return BenchRecord(
        index=index,
        class_id=instance.class_id,
        axp=axp,
        added=added,
        oracle_calls=problem.oracle.stats.calls,
        wall_time_s=wall,
    )


def _worker_task(args) -> BenchRecord:
    index, values = args
    return _explain_one(_WORKER["classifier"], _WORKER["space"], _WORKER["config"], index, values)


def run_bench(
    classifier: Classifier,
    space: FeatureSpace,
    rows: Sequence[Sequence[Value]],
    config: Optional[InflationConfig] = None,
    labels: Optional[Sequence[str]] = None,
    workers: int = 1,
) -> BenchReport:
    """Explain and inflate every row; return records plus aggregates."""
    if not rows:
        raise ValidationError("no instances to bench")
    if workers < 1:
        raise ValidationError(f"workers must be at least 1, got {workers}")
    if labels is not None and len(labels) != len(rows):
        raise ValidationError("labels and rows differ in length")
    config = config or InflationConfig()
    validate_classifier(classifier, space)
    if classifier_is_constant(classifier, space):
        raise ValidationError("the classifier is constant; nothing to explain")
    points = [space.validate_point(row) for row in rows]
    if workers <= 1:
        records = [_explain_one(classifier, space, config, i, p) for i, p in enumerate(points)]
    else:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(classifier, space, config),
        ) as pool:
            records = list(pool.map(_worker_task, list(enumerate(points))))
    accuracy = None
    if labels is not None:
        hits = sum(1 for r, l in zip(records, labels) if r.class_id == l)
        accuracy = Fraction(hits, len(points))
    return BenchReport(tuple(records), config.delta, config.strategy, accuracy)
