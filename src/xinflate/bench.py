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

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Optional, Sequence

from .classifiers import Classifier
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
from .oracle import classifier_is_constant, discretize


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

    @cached_property
    def aggregates(self) -> dict:
        """The mean AXp length and wall time, and the min, max and mean of
        the widening totals, by name."""
        n = len(self.records)
        totals = [r.added_total for r in self.records]
        return {
            "axp_len_avg": sum(len(r.axp) for r in self.records) / n,
            "time_avg_s": sum(r.wall_time_s for r in self.records) / n,
            "added_min": min(totals),
            "added_max": max(totals),
            "added_avg": sum(totals) / n,
        }

    def to_dict(self) -> dict:
        doc = {
            "schema": "xinflate-bench/1",
            "instances": len(self.records),
            "delta": rational_str(self.delta),
            "strategy": self.strategy,
            "aggregates": dict(self.aggregates),
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


def _explain_one(classifier, space, config, index: int, values) -> BenchRecord:
    t0 = time.perf_counter()
    instance = Instance(tuple(values), classifier.predict(values))
    problem = ExplanationProblem(classifier, space, instance, skip_checks=True)
    axp, config = _extract(problem, find_axp, config)
    expl = inflate_axp(problem, axp, config, trusted=True)
    wall = time.perf_counter() - t0
    added = tuple((j, widening(space, j, instance.values[j - 1], expl)) for j in expl.features)
    return BenchRecord(index, instance.class_id, axp, added, problem.oracle.stats.calls, wall)


_KEPT: list = []  # a pool worker's explain function, set once by its initializer


def _keep_explain(explain) -> None:
    _KEPT.append(explain)


def _explain_kept(index: int, values) -> BenchRecord:
    return _KEPT[0](index, values)


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
    discretize(classifier, space)  # refuses a malformed pair before any predict
    if classifier_is_constant(classifier, space):
        raise ValidationError("the classifier is constant; nothing to explain")
    points = [space.validate_point(row) for row in rows]
    explain, indexes = partial(_explain_one, classifier, space, config), range(len(points))
    if workers == 1:
        records = list(map(explain, indexes, points))
    else:  # the model goes to each worker once; rows go in four chunks per worker
        with ProcessPoolExecutor(workers, initializer=_keep_explain, initargs=(explain,)) as pool:
            chunk = math.ceil(len(points) / (4 * workers))
            records = list(pool.map(_explain_kept, indexes, points, chunksize=chunk))
    accuracy = None
    if labels is not None:
        hits = sum(1 for r, l in zip(records, labels) if r.class_id == l)
        accuracy = Fraction(hits, len(points))
    return BenchReport(tuple(records), config.delta, config.strategy, accuracy)
