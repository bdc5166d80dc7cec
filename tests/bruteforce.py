"""Independent entailment checking by literal product scan.

This module deliberately avoids the package's oracle machinery.  It
harvests the split values straight off the classifier structure, builds a
finite candidate grid per feature that hits every behavioral region of
the restricted box, and checks entailment by running the plain predictor
over the whole product.  Monotone models are exact through their box
corners; list and tree models are exact because every prediction region
is bounded by harvested thresholds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Mapping

from xinflate.classifiers import (
    DecisionList,
    DecisionTree,
    Leaf,
    MonotonicClassifier,
    OrdinalSplit,
    SetMember,
    TreeEnsemble,
)
from xinflate.model import (
    Categorical,
    FeatureSpace,
    INTEGER,
    IntervalUnion,
    Ordinal,
    ValueSet,
    full_set,
    vs_contains,
)


def _tree_thresholds(node, j: int, out: set) -> None:
    if isinstance(node, Leaf):
        return
    if isinstance(node, OrdinalSplit) and node.feature == j:
        out.add(node.threshold)
    _tree_thresholds(node.left, j, out)
    _tree_thresholds(node.right, j, out)


def harvested_thresholds(classifier, j: int) -> set:
    """Ordinal decision points of feature j, read off the classifier."""
    out: set = set()
    if isinstance(classifier, DecisionTree):
        _tree_thresholds(classifier.root, j, out)
    elif isinstance(classifier, TreeEnsemble):
        for tree in classifier.trees:
            _tree_thresholds(tree.root, j, out)
    elif isinstance(classifier, DecisionList):
        for rule in classifier.rules:
            for lit in rule.condition:
                if (
                    isinstance(lit, SetMember)
                    and lit.feature == j
                    and isinstance(lit.values, IntervalUnion)
                ):
                    for iv in lit.values.intervals:
                        out.add(iv.lo)
                        out.add(iv.hi)
    return out


def candidate_values(classifier, space: FeatureSpace, j: int, s: ValueSet) -> list:
    """Finitely many values of s that witness every behavior of feature j."""
    domain = space.domain(j)
    if isinstance(domain, Categorical):
        return [l for l in domain.labels if vs_contains(s, l)]
    if domain.kind == INTEGER and domain.hi - domain.lo <= 64:
        lo, hi = int(domain.lo), int(domain.hi)
        return [Fraction(v) for v in range(lo, hi + 1) if vs_contains(s, Fraction(v))]
    pts = {domain.lo, domain.hi}
    pts |= harvested_thresholds(classifier, j)
    for iv in s.intervals:
        pts.add(iv.lo)
        pts.add(iv.hi)
    ordered = sorted(pts)
    mids = [(a + b) / 2 for a, b in zip(ordered, ordered[1:])]
    return [v for v in ordered + mids if vs_contains(s, v)]


def grid_step(domain: Ordinal, config) -> Fraction:
    """The grid step of config on an ordinal domain: delta, rounded up to a
    whole number of at least 1 on an integer domain."""
    return Fraction(max(1, math.ceil(config.delta))) if domain.kind == INTEGER else config.delta


def grid_points(domain: Ordinal, v: Fraction, config) -> list:
    """The grid of config around the value v, ascending, built with `Fraction`:
    both domain bounds and every v + k*step inside the domain."""
    step = grid_step(domain, config)
    below = math.floor((v - domain.lo) / step)
    above = math.floor((domain.hi - v) / step)
    return sorted({domain.lo, domain.hi}.union(v + k * step for k in range(-below, above + 1)))


def _grid(classifier, space: FeatureSpace, assignment: Mapping[int, ValueSet]):
    axes = []
    for j in space.features():
        s = assignment.get(j, full_set(space.domain(j)))
        values = candidate_values(classifier, space, j, s)
        if not values:
            raise ValueError(f"empty candidate set for feature {j}")
        axes.append(values)
    return axes


def _extremes(domain: Ordinal, s: IntervalUnion):
    """Lowest and highest point of s, each with whether s attains it.

    Reads every piece, so the union may be unsorted or overlapping, stick
    out of the domain, or hold pieces without a point of the domain.
    """
    ends = []
    for iv in s.intervals:
        lo, lo_in = (iv.lo, iv.lo_closed) if iv.lo >= domain.lo else (domain.lo, True)
        hi, hi_in = (iv.hi, iv.hi_closed) if iv.hi <= domain.hi else (domain.hi, True)
        if domain.kind == INTEGER:
            lo = math.ceil(lo) if lo_in else math.floor(lo) + 1
            hi = math.floor(hi) if hi_in else math.ceil(hi) - 1
            lo_in = hi_in = True
        if lo < hi or (lo == hi and lo_in and hi_in):
            ends.append((lo, lo_in, hi, hi_in))
    lo, lo_out = min((lo, not lo_in) for lo, lo_in, _, _ in ends)
    hi, hi_in = max((hi, hi_in) for _, _, hi, hi_in in ends)
    return lo, not lo_out, hi, hi_in


def _monotone_reachable(clf: MonotonicClassifier, space: FeatureSpace, assignment) -> set:
    """Classes whose score band meets the hull of the box's score image.

    The hull [smin, smax] with attainment flags decides the forces
    question exactly: a threshold falling in a gap of the true image
    splits the realized scores into two classes anyway, so hull-phantom
    classes can never turn a genuine "forces" into a miss.
    """
    smin = smax = Fraction(0)
    min_attained = max_attained = True
    for j in space.features():
        w = clf.weights[j - 1]
        if w == 0:
            continue
        domain = space.domain(j)
        lo, lo_in, hi, hi_in = _extremes(domain, assignment.get(j, full_set(domain)))
        smin += w * lo
        min_attained = min_attained and lo_in
        smax += w * hi
        max_attained = max_attained and hi_in
    reachable = set()
    bounds = clf.thresholds
    for i, cls in enumerate(clf.classes):
        band_lo = bounds[i - 1] if i > 0 else None
        band_hi = bounds[i] if i < len(bounds) else None
        lo, lo_ok = smin, min_attained
        if band_lo is not None and band_lo > lo:
            lo, lo_ok = band_lo, True
        hi, hi_ok = smax, max_attained
        if band_hi is not None and band_hi < hi:
            hi, hi_ok = band_hi, False
        elif band_hi is not None and band_hi == hi:
            hi_ok = False  # band is open above
        if lo < hi or (lo == hi and lo_ok and hi_ok):
            reachable.add(cls)
    return reachable


def bf_forces(classifier, space: FeatureSpace, assignment: Mapping[int, ValueSet], target: str) -> bool:
    """True iff every point of the box predicts target (exact)."""
    if isinstance(classifier, MonotonicClassifier):
        return _monotone_reachable(classifier, space, assignment) == {target}
    for point in product(*_grid(classifier, space, assignment)):
        if classifier.predict(point) != target:
            return False
    return True


def bf_reachable(classifier, space: FeatureSpace, assignment: Mapping[int, ValueSet]) -> set:
    """Classes the scan reaches inside the box (superset-exact for forces checks)."""
    out = set()
    for point in product(*_grid(classifier, space, assignment)):
        out.add(classifier.predict(point))
    return out


def bf_counterexample(
    classifier, space: FeatureSpace, assignment: Mapping[int, ValueSet], target: str
) -> bool:
    """True iff some point of the box predicts a class other than target."""
    return not bf_forces(classifier, space, assignment, target)
