"""CSV datasets and a small bagged decision-forest trainer.

The trainer exists so the harness can produce tree ensembles of a chosen
size from tabular data.  It is plain CART with Gini impurity: ordinal
splits test x < t for midpoints t between adjacent observed values,
categorical splits test one label against the rest, and the best strict
improvement wins with ties broken by feature order then threshold order.
Bagging draws rows with replacement from a seeded generator, so a given
(dataset, seed) pair always yields the same forest.
"""

from __future__ import annotations

import csv
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence, Union

from .classifiers import (
    Classifier,
    DecisionTree,
    LabelSplit,
    Leaf,
    Node,
    OrdinalSplit,
    TreeEnsemble,
)
from .errors import ValidationError
from .model import Categorical, FeatureSpace, Ordinal, Value, rational


@dataclass(frozen=True)
class Dataset:
    """Tabular rows with a label column and an inferred feature space."""

    space: FeatureSpace
    rows: tuple[tuple[Value, ...], ...]
    labels: tuple[str, ...]
    classes: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.rows)


def _infer_domain(column: Sequence[str], name: str):
    values = []
    for cell in column:
        try:
            values.append(rational(cell))
        except ValidationError:
            values = None
            break
    if values is not None:
        lo, hi = min(values), max(values)
        if lo == hi:
            raise ValidationError(f"column {name!r} is constant; it cannot carry a domain")
        return Ordinal(lo, hi), tuple(values)
    seen: list[str] = []
    for cell in column:
        if cell not in seen:
            seen.append(cell)
    if len(seen) < 2:
        raise ValidationError(f"column {name!r} is constant; it cannot carry a domain")
    return Categorical(tuple(seen)), tuple(column)


def read_table(path: Union[str, Path]) -> tuple[list[str], list[list[str]]]:
    """A CSV file's header row and its other rows, blank ones dropped; refuses an
    empty file and a row whose width differs from the header's, named by its first line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"empty CSV file: {path}")
        table, start = [], reader.line_num + 1  # the line the next row starts on
        for row in reader:
            if row and len(row) != len(header):
                raise ValidationError(f"row {start} has {len(row)} cells, expected {len(header)}")
            if row:
                table.append(row)
            start = reader.line_num + 1
    return header, table


def load_dataset(path: Union[str, Path]) -> Dataset:
    """Read a CSV whose header names the columns; the last column is the label."""
    header, table = read_table(path)
    if len(header) < 2:
        raise ValidationError("need at least one feature column and one label column")
    if not table:
        raise ValidationError(f"no data rows in {path}")
    names = tuple(h.strip() for h in header[:-1])
    label_col = tuple(row[-1].strip() for row in table)
    domains = []
    columns = []
    for k, name in enumerate(names):
        domain, values = _infer_domain([row[k].strip() for row in table], name)
        domains.append(domain)
        columns.append(values)
    classes: list[str] = []
    for label in label_col:
        if label not in classes:
            classes.append(label)
    if len(classes) < 2:
        raise ValidationError("the label column holds a single class")
    rows = tuple(tuple(col[i] for col in columns) for i in range(len(table)))
    space = FeatureSpace(tuple(domains), names)
    return Dataset(space, rows, label_col, tuple(classes))


# ---------------------------------------------------------------------------
# CART


def _gini(counts: dict) -> Fraction:
    total = sum(counts.values())
    if total == 0:
        return Fraction(0)
    acc = Fraction(0)
    for c in counts.values():
        acc += Fraction(c, total) ** 2
    return 1 - acc


def _majority(labels: Sequence[str], classes: Sequence[str]) -> str:
    counts = Counter(labels)
    return max(classes, key=lambda c: (counts[c], -classes.index(c)))


def _split_score(left_labels, right_labels) -> Optional[Fraction]:
    nl, nr = len(left_labels), len(right_labels)
    if nl == 0 or nr == 0:
        return None
    n = nl + nr
    return Fraction(nl, n) * _gini(Counter(left_labels)) + Fraction(nr, n) * _gini(
        Counter(right_labels)
    )


def _best_split(rows, labels, space: FeatureSpace):
    best = None  # (impurity, feature, selector description)
    for j in space.features():
        domain = space.domain(j)
        col = [row[j - 1] for row in rows]
        if isinstance(domain, Ordinal):
            distinct = sorted(set(col))
            for a, b in zip(distinct, distinct[1:]):
                t = (a + b) / 2
                left = [l for v, l in zip(col, labels) if v < t]
                right = [l for v, l in zip(col, labels) if v >= t]
                score = _split_score(left, right)
                if score is not None and (best is None or score < best[0]):
                    best = (score, j, ("threshold", t), left, right)
        else:
            for label in domain.labels:
                left = [l for v, l in zip(col, labels) if v != label]
                right = [l for v, l in zip(col, labels) if v == label]
                score = _split_score(left, right)
                if score is not None and (best is None or score < best[0]):
                    best = (score, j, ("label", label), left, right)
    return best


def _grow(rows, labels, space: FeatureSpace, classes, depth: int) -> Node:
    if depth < 0:
        raise ValidationError(f"depth must be non-negative, got {depth}")
    counts = Counter(labels)
    if depth == 0 or len(counts) <= 1:
        return Leaf(_majority(labels, classes))
    best = _best_split(rows, labels, space)
    if best is None or best[0] >= _gini(counts):
        return Leaf(_majority(labels, classes))
    _, j, (kind, pivot), _, _ = best
    if kind == "threshold":
        mask = [row[j - 1] < pivot for row in rows]
    else:
        mask = [row[j - 1] != pivot for row in rows]
    left_rows = [r for r, m in zip(rows, mask) if m]
    left_labels = [l for l, m in zip(labels, mask) if m]
    right_rows = [r for r, m in zip(rows, mask) if not m]
    right_labels = [l for l, m in zip(labels, mask) if not m]
    left = _grow(left_rows, left_labels, space, classes, depth - 1)
    right = _grow(right_rows, right_labels, space, classes, depth - 1)
    if isinstance(left, Leaf) and isinstance(right, Leaf) and left.class_id == right.class_id:
        return left
    if kind == "threshold":
        return OrdinalSplit(j, pivot, left, right)
    return LabelSplit(j, pivot, left, right)


def train_tree(dataset: Dataset, depth: int = 4) -> DecisionTree:
    root = _grow(dataset.rows, dataset.labels, dataset.space, dataset.classes, depth)
    return DecisionTree(root, dataset.classes)


def train_forest(
    dataset: Dataset,
    n_trees: int = 25,
    depth: int = 4,
    seed: int = 0,
) -> TreeEnsemble:
    rng = random.Random(seed)
    n = dataset.n
    trees = []
    for _ in range(n_trees):
        picks = [rng.randrange(n) for _ in range(n)]
        rows = [dataset.rows[i] for i in picks]
        labels = [dataset.labels[i] for i in picks]
        root = _grow(rows, labels, dataset.space, dataset.classes, depth)
        trees.append(DecisionTree(root, dataset.classes))
    return TreeEnsemble(tuple(trees), dataset.classes)


def model_accuracy(classifier: Classifier, dataset: Dataset) -> Fraction:
    hits = sum(
        1 for row, label in zip(dataset.rows, dataset.labels) if classifier.predict(row) == label
    )
    return Fraction(hits, dataset.n)
