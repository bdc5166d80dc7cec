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
import io
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence, Union

from .classifiers import (
    Classifier,
    DecisionTree,
    LabelSplit,
    Leaf,
    Node,
    OrdinalSplit,
    TreeEnsemble,
    plurality,
)
from .errors import ValidationError
from .model import Categorical, FeatureSpace, Ordinal, Value, rational
from .serialize import read_utf8


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
    """A UTF-8 CSV file's header row and its other rows, blank ones dropped; refuses
    an empty file, a row the csv module cannot parse, and a row whose width differs
    from the header's, each named by its first line."""
    reader = csv.reader(io.StringIO(read_utf8(path), newline=""))
    rows, start = [], 1  # start: the line the next row starts on
    try:
        for row in reader:
            if rows and row and len(row) != len(rows[0]):
                raise ValidationError(f"row {start} has {len(row)} cells, expected {len(rows[0])}")
            if row or not rows:  # the first row is the header, even when blank
                rows.append(row)
            start = reader.line_num + 1
    except csv.Error as exc:
        raise ValidationError(f"{path}: row {start}: {exc}") from None
    if not rows:
        raise ValidationError(f"empty CSV file: {path}")
    return rows[0], rows[1:]


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


def _gini(labels: Sequence[str]) -> Fraction:
    return 1 - sum(Fraction(c, len(labels)) ** 2 for c in Counter(labels).values())


def _best_split(rows, labels, space: FeatureSpace):
    """The split of least weighted Gini impurity that sends rows both ways, as
    (impurity, node class, feature, pivot, whether each row goes left); ties go
    to the first tried, features in order and pivots ascending.  None when no
    split sends rows both ways."""
    best = None
    for j in space.features():
        domain = space.domain(j)
        col = [row[j - 1] for row in rows]
        if isinstance(domain, Ordinal):
            distinct = sorted(set(col))
            pivots = ((a + b) / 2 for a, b in zip(distinct, distinct[1:]))
            splits = ((OrdinalSplit, t, [v < t for v in col]) for t in pivots)
        else:
            splits = ((LabelSplit, label, [v != label for v in col]) for label in domain.labels)
        for kind, pivot, mask in splits:
            left = [l for l, m in zip(labels, mask) if m]
            right = [l for l, m in zip(labels, mask) if not m]
            if not left or not right:
                continue
            score = (len(left) * _gini(left) + len(right) * _gini(right)) / len(labels)
            if best is None or score < best[0]:
                best = (score, kind, j, pivot, mask)
    return best


def _grow(rows, labels, space: FeatureSpace, classes, depth: int) -> Node:
    if depth < 0:
        raise ValidationError(f"depth must be non-negative, got {depth}")
    if depth == 0 or len(set(labels)) <= 1:
        return Leaf(plurality(labels, classes))
    best = _best_split(rows, labels, space)
    if best is None or best[0] >= _gini(labels):
        return Leaf(plurality(labels, classes))
    _, kind, j, pivot, mask = best
    sides = {True: ([], []), False: ([], [])}  # left, right: (rows, labels)
    for row, label, m in zip(rows, labels, mask):
        sides[m][0].append(row)
        sides[m][1].append(label)
    left = _grow(*sides[True], space, classes, depth - 1)
    right = _grow(*sides[False], space, classes, depth - 1)
    if isinstance(left, Leaf) and isinstance(right, Leaf) and left.class_id == right.class_id:
        return left
    return kind(j, pivot, left, right)


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
