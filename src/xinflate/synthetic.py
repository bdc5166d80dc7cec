"""Random models, random points, and rule-based example datasets.

Everything here is seeded and deterministic.  Ordinal values and split
thresholds live on a half-integer lattice so discretized cells never get
pathologically thin; this keeps grid walks in the stress suites short
without changing any semantics.
"""

from __future__ import annotations

import csv
import random
from fractions import Fraction
from pathlib import Path
from typing import Sequence, Union

from .classifiers import (
    DecisionList,
    DecisionTree,
    LabelEq,
    LabelSplit,
    Leaf,
    MonotonicClassifier,
    Node,
    OrdinalSplit,
    Rule,
    SetMember,
    TreeEnsemble,
)
from .model import (
    CatSet,
    Categorical,
    FeatureSpace,
    Interval,
    Ordinal,
    Value,
    interval_union,
    rational_str,
)
from .oracle import classifier_is_constant

_LABEL_POOL = ("red", "blue", "green", "amber", "violet", "gray")


def _lattice(domain: Ordinal, step: Fraction = Fraction(1, 2)) -> list[Fraction]:
    points = []
    x = domain.lo
    while x <= domain.hi:
        points.append(x)
        x += step
    return points


def random_space(
    rng: random.Random,
    m: int,
    *,
    categorical_share: float = 0.5,
    max_labels: int = 4,
    hi_choices: Sequence[int] = (4, 8),
) -> FeatureSpace:
    domains = []
    for _ in range(m):
        if rng.random() < categorical_share:
            k = rng.randint(2, max_labels)
            domains.append(Categorical(_LABEL_POOL[:k]))
        else:
            domains.append(Ordinal(Fraction(0), Fraction(rng.choice(list(hi_choices)))))
    return FeatureSpace(tuple(domains))


def random_point(
    rng: random.Random, space: FeatureSpace, step: Fraction = Fraction(1, 2)
) -> tuple[Value, ...]:
    values = []
    for j in space.features():
        domain = space.domain(j)
        if isinstance(domain, Categorical):
            values.append(rng.choice(domain.labels))
        else:
            values.append(rng.choice(_lattice(domain, step)))
    return tuple(values)


def _random_literal(rng: random.Random, space: FeatureSpace, j: int, step: Fraction):
    domain = space.domain(j)
    if isinstance(domain, Categorical):
        if rng.random() < 0.5:
            return LabelEq(j, rng.choice(domain.labels))
        k = rng.randint(1, len(domain.labels) - 1)
        return SetMember(j, CatSet(frozenset(rng.sample(domain.labels, k))))
    points = _lattice(domain, step)
    a = rng.choice(points[:-1])
    b = rng.choice([p for p in points if p > a])
    if b == domain.hi and rng.random() < 0.5:
        piece = Interval(a, b, True, True)
    else:
        piece = Interval(a, b, True, False)
    return SetMember(j, interval_union(domain, [piece]))


def random_decision_list(
    rng: random.Random,
    space: FeatureSpace,
    classes: Sequence[str] = ("0", "1"),
    max_rules: int = 5,
    lattice_step: Fraction = Fraction(1, 2),
) -> DecisionList:
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        feats = rng.sample(list(space.features()), rng.randint(1, min(2, space.m)))
        condition = tuple(_random_literal(rng, space, j, lattice_step) for j in sorted(feats))
        rules.append(Rule(condition, rng.choice(classes)))
    return DecisionList(tuple(rules), rng.choice(classes), tuple(classes))


def _random_node(
    rng: random.Random, space: FeatureSpace, classes: Sequence[str], depth: int, step: Fraction
) -> Node:
    if depth == 0 or rng.random() < 0.25:
        return Leaf(rng.choice(classes))
    j = rng.choice(list(space.features()))
    domain = space.domain(j)
    left = _random_node(rng, space, classes, depth - 1, step)
    right = _random_node(rng, space, classes, depth - 1, step)
    if isinstance(domain, Categorical):
        return LabelSplit(j, rng.choice(domain.labels), left, right)
    points = [p for p in _lattice(domain, step) if p > domain.lo]
    return OrdinalSplit(j, rng.choice(points), left, right)


def random_tree(
    rng: random.Random,
    space: FeatureSpace,
    classes: Sequence[str] = ("0", "1"),
    depth: int = 3,
    lattice_step: Fraction = Fraction(1, 2),
) -> DecisionTree:
    return DecisionTree(_random_node(rng, space, classes, depth, lattice_step), tuple(classes))


def random_forest(
    rng: random.Random,
    space: FeatureSpace,
    classes: Sequence[str] = ("0", "1"),
    n_trees: int = 3,
    depth: int = 3,
    lattice_step: Fraction = Fraction(1, 2),
) -> TreeEnsemble:
    trees = tuple(
        random_tree(rng, space, classes, depth, lattice_step) for _ in range(n_trees)
    )
    return TreeEnsemble(trees, tuple(classes))


def random_monotone(
    rng: random.Random,
    m: int,
    n_classes: int = 2,
) -> tuple[MonotonicClassifier, FeatureSpace]:
    space = FeatureSpace(tuple(Ordinal(Fraction(0), Fraction(10)) for _ in range(m)))
    weights = [Fraction(rng.randint(0, 3)) for _ in range(m)]
    if not any(weights):
        weights[rng.randrange(m)] = Fraction(1)
    top = sum(w * Fraction(10) for w in weights)
    pool = sorted({Fraction(rng.randint(1, int(top))) for _ in range(3 * n_classes)})
    thresholds = tuple(sorted(rng.sample(pool, n_classes - 1)))
    classes = tuple(f"c{i}" for i in range(n_classes))
    return MonotonicClassifier(tuple(weights), thresholds, classes), space


def random_problem(
    rng: random.Random,
    maker,
    *,
    max_tries: int = 50,
):
    """Draw (classifier, space, point) with a non-constant classifier.

    ``maker(rng)`` must return a (classifier, space) pair.  Raises after
    ``max_tries`` constant draws in a row.
    """
    for _ in range(max_tries):
        classifier, space = maker(rng)
        if not classifier_is_constant(classifier, space):
            return classifier, space, random_point(rng, space)
    raise RuntimeError("could not draw a non-constant classifier")


# ---------------------------------------------------------------------------
# Rule-based datasets for the trainer and the benchmark harness


def stump_dataset(n: int = 80, seed: int = 7):
    """Two ordinal features on [0, 10]; label pos iff x1 >= 5."""
    rng = random.Random(seed)
    domain = Ordinal(Fraction(0), Fraction(10))
    points = _lattice(domain)
    names = ("x1", "x2")
    rows = []
    labels = []
    for _ in range(n):
        x1, x2 = rng.choice(points), rng.choice(points)
        rows.append((x1, x2))
        labels.append("pos" if x1 >= 5 else "neg")
    return names, tuple(rows), tuple(labels)


def bench_dataset(n: int = 300, seed: int = 11):
    """Six ordinal features on [0, 8] plus two categoricals.

    Label "1" iff x1 + x2 >= 9, or size is high and x3 >= 5.
    """
    rng = random.Random(seed)
    domain = Ordinal(Fraction(0), Fraction(8))
    points = _lattice(domain)
    sizes = ("low", "mid", "high")
    hues = ("red", "green", "blue")
    names = ("x1", "x2", "x3", "x4", "x5", "x6", "size", "hue")
    rows = []
    labels = []
    for _ in range(n):
        xs = [rng.choice(points) for _ in range(6)]
        size = rng.choice(sizes)
        hue = rng.choice(hues)
        rows.append(tuple(xs) + (size, hue))
        positive = xs[0] + xs[1] >= 9 or (size == "high" and xs[2] >= 5)
        labels.append("1" if positive else "0")
    return names, tuple(rows), tuple(labels)


def write_csv(
    path: Union[str, Path],
    names: Sequence[str],
    rows: Sequence[Sequence[Value]],
    labels: Sequence[str],
    label_name: str = "label",
) -> None:
    def cell(v: Value) -> str:
        if isinstance(v, str):
            return v
        return rational_str(Fraction(v))

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(names) + [label_name])
        for row, label in zip(rows, labels):
            writer.writerow([cell(v) for v in row] + [label])
