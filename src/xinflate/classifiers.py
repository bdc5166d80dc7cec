"""Interpretable classifier families: linear-threshold, lists, trees, forests.

Every classifier exposes `predict(values)` over a point of the feature space
and carries its ordered class tuple.  Class order matters twice: ensembles
break vote ties toward the lowest class index, and the linear-threshold
family maps threshold counts to classes positionally.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import ValidationError
from .model import (
    Categorical,
    FeatureSpace,
    CatSet,
    INTEGER,
    IntervalUnion,
    Ordinal,
    Value,
    ValueSet,
    rational,
    vs_contains,
)


@dataclass(frozen=True)
class MonotonicClassifier:
    """classes[i] where i counts thresholds at or below the weighted sum.

    Non-negative weights over all-ordinal features make the prediction
    monotone in every coordinate, so box reasoning reduces to the extreme
    corners.  thresholds must be strictly increasing and one shorter than
    classes.
    """

    weights: tuple[Fraction, ...]
    thresholds: tuple[Fraction, ...]
    classes: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(rational(w) for w in self.weights))
        object.__setattr__(self, "thresholds", tuple(rational(t) for t in self.thresholds))
        if any(w < 0 for w in self.weights):
            raise ValidationError("monotonic classifier needs non-negative weights")
        if len(self.classes) != len(self.thresholds) + 1:
            raise ValidationError(
                f"{len(self.classes)} classes need {len(self.classes) - 1} thresholds"
            )
        if any(a >= b for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise ValidationError("thresholds must be strictly increasing")

    def score(self, values: Sequence[Value]) -> Fraction:
        if len(values) != len(self.weights):
            raise ValidationError(
                f"point has {len(values)} values, expected {len(self.weights)}"
            )
        return sum((w * v for w, v in zip(self.weights, values)), Fraction(0))

    def predict(self, values: Sequence[Value]) -> str:
        return self.classes[bisect_right(self.thresholds, self.score(values))]


# ---------------------------------------------------------------------------
# Decision lists


@dataclass(frozen=True)
class LabelEq:
    """Literal: feature j carries exactly this label."""

    feature: int
    label: str


@dataclass(frozen=True)
class SetMember:
    """Literal: feature j lies inside the value set."""

    feature: int
    values: ValueSet


Literal = Union[LabelEq, SetMember]


@dataclass(frozen=True)
class Rule:
    condition: tuple[Literal, ...]
    class_id: str


def literal_holds(lit: Literal, values: Sequence[Value]) -> bool:
    u = values[lit.feature - 1]
    if isinstance(lit, LabelEq):
        return u == lit.label
    return vs_contains(lit.values, u)


@dataclass(frozen=True)
class DecisionList:
    """First rule whose condition holds fires; otherwise the default class."""

    rules: tuple[Rule, ...]
    default_class: str
    classes: tuple[str, ...]

    def __post_init__(self):
        used = {r.class_id for r in self.rules} | {self.default_class}
        missing = used - set(self.classes)
        if missing:
            raise ValidationError(f"rule classes not declared: {sorted(missing)}")

    def predict(self, values: Sequence[Value]) -> str:
        for rule in self.rules:
            if all(literal_holds(lit, values) for lit in rule.condition):
                return rule.class_id
        return self.default_class


# ---------------------------------------------------------------------------
# Decision trees and ensembles


@dataclass(frozen=True)
class Leaf:
    class_id: str


@dataclass(frozen=True)
class OrdinalSplit:
    """Internal node: left when x_j < threshold, right when x_j >= threshold."""

    feature: int
    threshold: Fraction
    left: "Node"
    right: "Node"

    def __post_init__(self):
        object.__setattr__(self, "threshold", rational(self.threshold))


@dataclass(frozen=True)
class LabelSplit:
    """Internal node: right when x_j equals the label, left otherwise."""

    feature: int
    label: str
    left: "Node"
    right: "Node"


Node = Union[Leaf, OrdinalSplit, LabelSplit]


def _eval_node(node: Node, values: Sequence[Value]) -> str:
    while not isinstance(node, Leaf):
        if isinstance(node, OrdinalSplit):
            node = node.right if values[node.feature - 1] >= node.threshold else node.left
        else:
            node = node.right if values[node.feature - 1] == node.label else node.left
    return node.class_id


@dataclass(frozen=True)
class DecisionTree:
    root: Node
    classes: tuple[str, ...]

    def predict(self, values: Sequence[Value]) -> str:
        return _eval_node(self.root, values)


@dataclass(frozen=True)
class TreeEnsemble:
    """Majority vote over trees; ties go to the lowest class index."""

    trees: tuple[DecisionTree, ...]
    classes: tuple[str, ...]

    def __post_init__(self):
        if not self.trees:
            raise ValidationError("ensemble needs at least one tree")
        for i, tree in enumerate(self.trees):
            if tree.classes != self.classes:
                raise ValidationError(f"tree {i} carries a different class list")

    def predict(self, values: Sequence[Value]) -> str:
        return plurality((_eval_node(tree.root, values) for tree in self.trees), self.classes)


def plurality(votes: Iterable[str], classes: Sequence[str]) -> str:
    """The class with the most votes; ties go to the lowest class index."""
    counts = Counter(votes)
    return max(classes, key=counts.__getitem__)  # max keeps the first of equals


Classifier = Union[MonotonicClassifier, DecisionList, DecisionTree, TreeEnsemble]


# ---------------------------------------------------------------------------
# Structural validation against a feature space


def _iter_nodes(node: Node):
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        if not isinstance(n, Leaf):
            stack.extend((n.left, n.right))


def _literal_cuts(values: IntervalUnion, domain: Ordinal, where: str) -> list:
    """The cuts that make an interval literal a union of whole cells, each
    closed below and open above (a cut outside (lo, hi] bounds no cell).  On
    a continuous domain an interval must hold its lower end, which cuts, and
    its upper end only at the domain maximum; an open upper end cuts.  On an
    integer domain any interval holds the integers a <= x < b, a and b being
    its ends, each moved to the next integer up when a is open or b closed,
    and cuts at a and b."""
    cuts = []
    for iv in values.intervals:
        if domain.kind == INTEGER:
            cuts.append(iv.lo if iv.lo_closed else math.floor(iv.lo) + 1)
            cuts.append(math.floor(iv.hi) + 1 if iv.hi_closed else iv.hi)
            continue
        if not iv.lo_closed:
            raise ValidationError(f"{where}: interval must include its lower endpoint")
        if iv.hi_closed and iv.hi != domain.hi:
            raise ValidationError(
                f"{where}: interval must exclude its upper endpoint unless it is the domain maximum"
            )
        cuts.append(iv.lo)
        if not iv.hi_closed:
            cuts.append(iv.hi)
    return cuts


def validate_classifier(classifier: Classifier, space: FeatureSpace) -> tuple[tuple[Fraction, ...], ...]:
    """Check that the classifier is well formed over the feature space, so that
    `predict` agrees with `oracle.CompiledModel`, which runs this check, and
    return the thresholds the classifier tests, where the compile cuts each
    ordinal domain: per feature, sorted and without repeats, every tree split
    threshold or every interval-literal cut inside (lo, hi], and () for a
    categorical feature or a monotone model."""
    if len(set(classifier.classes)) != len(classifier.classes):
        raise ValidationError("duplicate class ids")
    if isinstance(classifier, MonotonicClassifier):
        if len(classifier.weights) != space.m:
            raise ValidationError(
                f"{len(classifier.weights)} weights for {space.m} features"
            )
        for j in space.features():
            if not isinstance(space.domain(j), Ordinal):
                raise ValidationError(
                    f"feature {j}: monotonic classifiers need ordinal features"
                )
        return ((),) * space.m

    # each feature's thresholds so far, keyed by their integer ratio: a pair of
    # ints hashes faster than a Fraction, and a threshold once taken needs no
    # second range test
    splits = [{} for _ in space.domains]
    if isinstance(classifier, DecisionList):
        for r, rule in enumerate(classifier.rules):
            for lit in rule.condition:
                where = f"rule {r}, feature {lit.feature}"
                domain = space.domain(lit.feature)
                if isinstance(lit, LabelEq):
                    if not isinstance(domain, Categorical) or lit.label not in domain.labels:
                        raise ValidationError(f"{where}: label {lit.label!r} not in domain")
                elif isinstance(lit.values, CatSet):
                    if not isinstance(domain, Categorical):
                        raise ValidationError(f"{where}: label set over an ordinal feature")
                    unknown = lit.values.labels - set(domain.labels)
                    if unknown:
                        raise ValidationError(f"{where}: labels not in domain: {sorted(unknown)}")
                else:
                    if not isinstance(domain, Ordinal):
                        raise ValidationError(f"{where}: interval set over a categorical feature")
                    cuts = splits[lit.feature - 1]
                    for cut in _literal_cuts(lit.values, domain, where):
                        key = cut.as_integer_ratio()
                        if key not in cuts and domain.lo < cut <= domain.hi:
                            cuts[key] = cut
        trees = ()
    else:
        trees = classifier.trees if isinstance(classifier, TreeEnsemble) else (classifier,)
    for t, tree in enumerate(trees):
        for node in _iter_nodes(tree.root):
            if isinstance(node, Leaf):
                if node.class_id not in classifier.classes:
                    raise ValidationError(f"tree {t}: leaf class {node.class_id!r} not declared")
                continue
            where = f"tree {t}, feature {node.feature}"
            domain = space.domain(node.feature)
            if isinstance(node, OrdinalSplit):
                if not isinstance(domain, Ordinal):
                    raise ValidationError(f"{where}: threshold split on a categorical feature")
                cuts = splits[node.feature - 1]
                key = node.threshold.as_integer_ratio()
                if key in cuts:
                    continue
                if not domain.lo < node.threshold <= domain.hi:
                    raise ValidationError(
                        f"{where}: threshold {node.threshold} outside ({domain.lo}, {domain.hi}]"
                    )
                cuts[key] = node.threshold
            else:
                if not isinstance(domain, Categorical):
                    raise ValidationError(f"{where}: label split on an ordinal feature")
                if node.label not in domain.labels:
                    raise ValidationError(f"{where}: label {node.label!r} not in domain")
    return tuple(tuple(sorted(cuts.values())) for cuts in splits)
