"""Entailment oracle: box predicates over a classifier.

A box assigns each feature a value set (absent features roam over their full
domain).  The two decisions every explanation routine reduces to are

* sufficiency: does every point of the box get class c, and
* counterexample: does some point of the box get a class other than c.

Both are answered exactly.  For the monotone linear-threshold family the
achievable score range of a box decides it directly.  For lists, trees, and
ensembles the ordinal axes are first discretized into the half-open cells
induced by the model's own thresholds, [lo, d1), [d1, d2), ..., [dk, hi];
the prediction is constant on every product of cells, so the box predicate
is a finite question.  Rather than enumerating the full cell product, the
search specializes each tree against the box, prunes with reachable leaf
classes and a worst-case vote bound, and only splits a feature into cells
when the bound cannot decide.  The outcome equals literal enumeration; only
the visit order differs.

Every top-level decision increments `OracleStats.calls` once, which is what
the per-instance call accounting in the benchmark reports.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .classifiers import (
    Classifier,
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
from .errors import ValidationError
from .model import (
    CatSet,
    Categorical,
    FeatureSpace,
    INTEGER,
    Interval,
    IntervalUnion,
    Ordinal,
    Value,
    ValueSet,
    full_set,
    vs_intersect,
)


class OracleStats:
    """Counter of top-level oracle decisions."""

    def __init__(self):
        self.calls = 0

    def bump(self) -> None:
        self.calls += 1


@dataclass(frozen=True)
class Discretization:
    """Per-feature thresholds and the half-open cells they induce.

    Positionally indexed like the feature space; categorical features carry
    empty tuples.  Cells cover the ordinal domain: every cell is closed
    below and open above except the last, which closes at the domain top.
    """

    splits: tuple[tuple[Fraction, ...], ...]
    cells: tuple[tuple[Interval, ...], ...]

    def splits_for(self, j: int) -> tuple[Fraction, ...]:
        return self.splits[j - 1]

    def cells_for(self, j: int) -> tuple[Interval, ...]:
        return self.cells[j - 1]

    def cell_index(self, j: int, value: Fraction) -> int:
        return bisect_right(self.splits[j - 1], value)


def _cells_from_splits(domain: Ordinal, splits: Sequence[Fraction]) -> tuple[Interval, ...]:
    if not splits:
        return (Interval(domain.lo, domain.hi, True, True),)
    cells = []
    cursor = domain.lo
    for d in splits:
        cells.append(Interval(cursor, d, True, False))
        cursor = d
    cells.append(Interval(cursor, domain.hi, True, True))
    return tuple(cells)


def _tree_thresholds(node: Node, vals: dict[int, set]) -> None:
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, Leaf):
            continue
        if isinstance(n, OrdinalSplit):
            vals.setdefault(n.feature, set()).add(n.threshold)
        stack.extend((n.left, n.right))


def discretize(classifier: Classifier, space: FeatureSpace) -> Discretization:
    """Collect every ordinal threshold the classifier tests, per feature."""
    vals: dict[int, set] = {}
    if isinstance(classifier, DecisionList):
        for rule in classifier.rules:
            for lit in rule.condition:
                if isinstance(lit, SetMember) and isinstance(lit.values, IntervalUnion):
                    domain = space.domain(lit.feature)
                    for iv in lit.values.intervals:
                        if iv.lo > domain.lo:
                            vals.setdefault(lit.feature, set()).add(iv.lo)
                        if not iv.hi_closed:
                            vals.setdefault(lit.feature, set()).add(iv.hi)
    elif isinstance(classifier, DecisionTree):
        _tree_thresholds(classifier.root, vals)
    elif isinstance(classifier, TreeEnsemble):
        for tree in classifier.trees:
            _tree_thresholds(tree.root, vals)
    splits = []
    cells = []
    for j in space.features():
        domain = space.domain(j)
        if isinstance(domain, Categorical):
            splits.append(())
            cells.append(())
        else:
            sj = tuple(sorted(vals.get(j, ())))
            splits.append(sj)
            cells.append(_cells_from_splits(domain, sj))
    return Discretization(tuple(splits), tuple(cells))


# ---------------------------------------------------------------------------
# The oracle


class _TreeView:
    """A tree specialized against a box, with its features and leaf classes."""

    __slots__ = ("node", "feats", "classes")

    def __init__(self, node: Node, feats: frozenset, classes: frozenset):
        self.node = node
        self.feats = feats
        self.classes = classes


class Oracle:
    """Box predicates for one classifier over one feature space."""

    def __init__(
        self,
        classifier: Classifier,
        space: FeatureSpace,
        stats: Optional[OracleStats] = None,
        discretization: Optional[Discretization] = None,
    ):
        self.classifier = classifier
        self.space = space
        self.stats = stats or OracleStats()
        self.discretization = discretization or discretize(classifier, space)
        if classifier.classes and len(set(classifier.classes)) != len(classifier.classes):
            raise ValidationError("duplicate class ids")

    # -- public decisions ---------------------------------------------------

    def holds_sufficiency(self, assignment: Mapping[int, ValueSet], class_id: str) -> bool:
        """True iff every point of the box predicts class_id."""
        self._check_class(class_id)
        box = self._box_from(assignment)
        self.stats.bump()
        return self._box_forces(box, class_id)

    def counterexample_in(self, assignment: Mapping[int, ValueSet], class_id: str) -> bool:
        """True iff some point of the box predicts a class other than class_id."""
        self._check_class(class_id)
        box = self._box_from(assignment)
        self.stats.bump()
        return not self._box_forces(box, class_id)

    # -- plumbing -----------------------------------------------------------

    def _check_class(self, class_id: str) -> None:
        if class_id not in self.classifier.classes:
            raise ValidationError(f"unknown class {class_id!r}")

    def _box_from(self, assignment: Mapping[int, ValueSet]) -> list[ValueSet]:
        box = []
        for j in self.space.features():
            domain = self.space.domain(j)
            s = assignment.get(j)
            if s is None:
                box.append(full_set(domain))
                continue
            if isinstance(domain, Categorical) != isinstance(s, CatSet):
                raise ValidationError(
                    f"feature {j}: {type(s).__name__} does not fit the domain"
                )
            if isinstance(s, CatSet):
                unknown = s.labels - set(domain.labels)
                if unknown:
                    raise ValidationError(f"feature {j}: labels {sorted(unknown)} not in domain")
                box.append(s)
            else:
                # renormalize against this domain; clips and snaps as needed
                from .model import interval_union

                box.append(interval_union(domain, s.intervals))
        extra = set(assignment) - set(self.space.features())
        if extra:
            raise ValidationError(f"feature indexes out of range: {sorted(extra)}")
        return box

    def _box_forces(self, box: list[ValueSet], target: str) -> bool:
        clf = self.classifier
        if isinstance(clf, MonotonicClassifier):
            return self._forces_monotone(clf, box, target)
        if isinstance(clf, DecisionList):
            return self._forces_dl(clf, box, target)
        if isinstance(clf, DecisionTree):
            roots = (clf.root,)
        else:
            roots = tuple(t.root for t in clf.trees)
        views = [self._view(self._specialize(r, box)) for r in roots]
        return self._dfs_trees(views, clf.classes, box, target)

    # -- monotone -----------------------------------------------------------

    def _forces_monotone(self, mc: MonotonicClassifier, box, target: str) -> bool:
        ti = mc.classes.index(target)
        T = mc.thresholds
        per = []
        for s in box:
            if not isinstance(s, IntervalUnion):
                raise ValidationError("monotone classifiers need ordinal features")
            per.append(s.intervals)
        for combo in itertools.product(*per):
            lo = Fraction(0)
            hi = Fraction(0)
            hi_attained = True
            for w, iv in zip(mc.weights, combo):
                lo += w * iv.lo
                hi += w * iv.hi
                if w != 0 and not iv.hi_closed:
                    hi_attained = False
            # the class index is right-continuous in the score, so an open
            # lower end yields the same minimum index as a closed one
            i_min = bisect_right(T, lo)
            i_max = bisect_right(T, hi) if hi_attained else bisect_left(T, hi)
            if i_min != ti or i_max != ti:
                return False
        return True

    # -- decision lists -----------------------------------------------------

    def _forces_dl(self, dl: DecisionList, box, target: str) -> bool:
        possible, cands = self._dl_scan(dl, box)
        if possible == {target}:
            return True
        split = None
        for f0 in cands:
            if len(self._pieces(f0, box[f0])) > 1:
                split = f0
                break
        if split is None:
            # every rule is decided on this box, so `possible` is exact
            return False
        for piece in self._pieces(split, box[split]):
            nb = list(box)
            nb[split] = piece
            if not self._forces_dl(dl, nb, target):
                return False
        return True

    def _dl_scan(self, dl: DecisionList, box):
        """Over-approximate the classes reachable in the box.

        Also reports features whose box set straddles a literal boundary of
        a rule that might fire; those are the useful split candidates.
        """
        possible = set()
        cands: list[int] = []
        for rule in dl.rules:
            sat = True
            entails = True
            local: list[int] = []
            for lit in rule.condition:
                f0 = lit.feature - 1
                allowed = box[f0]
                domain = self.space.domains[f0]
                litset = (
                    CatSet(frozenset([lit.label])) if isinstance(lit, LabelEq) else lit.values
                )
                inter = vs_intersect(domain, allowed, litset)
                if inter is None:
                    sat = False
                    break
                if inter != allowed:
                    entails = False
                    if f0 not in local:
                        local.append(f0)
            if sat:
                possible.add(rule.class_id)
                for f0 in local:
                    if f0 not in cands:
                        cands.append(f0)
                if entails:
                    return possible, cands
        possible.add(dl.default_class)
        return possible, cands

    # -- trees and ensembles --------------------------------------------------

    def _pieces(self, f0: int, allowed: ValueSet) -> list[ValueSet]:
        """Split a feature's box set into atoms: labels, or cell fragments."""
        domain = self.space.domains[f0]
        if isinstance(allowed, CatSet):
            return [CatSet(frozenset([l])) for l in domain.labels if l in allowed.labels]
        out = []
        for cell in self.discretization.cells[f0]:
            inter = vs_intersect(domain, allowed, IntervalUnion((cell,)))
            if inter is not None:
                out.append(inter)
        return out

    def _specialize(self, node: Node, box) -> Node:
        """Collapse every test the box decides; prune infeasible paths."""

        def go(n: Node, refine: dict) -> Node:
            if isinstance(n, Leaf):
                return n
            f0 = n.feature - 1
            allowed = refine.get(f0, box[f0])
            domain = self.space.domains[f0]
            if isinstance(n, OrdinalSplit):
                below = vs_intersect(
                    domain, allowed, IntervalUnion((Interval(domain.lo, n.threshold, True, False),))
                )
                above = vs_intersect(
                    domain, allowed, IntervalUnion((Interval(n.threshold, domain.hi, True, True),))
                )
            else:
                above = (
                    CatSet(frozenset([n.label])) if n.label in allowed.labels else None
                )
                rest = allowed.labels - {n.label}
                below = CatSet(rest) if rest else None
            if above is None:
                return go(n.left, {**refine, f0: below})
            if below is None:
                return go(n.right, {**refine, f0: above})
            left = go(n.left, {**refine, f0: below})
            right = go(n.right, {**refine, f0: above})
            if isinstance(left, Leaf) and isinstance(right, Leaf) and left.class_id == right.class_id:
                return left
            if isinstance(n, OrdinalSplit):
                return OrdinalSplit(n.feature, n.threshold, left, right)
            return LabelSplit(n.feature, n.label, left, right)

        return go(node, {})

    def _view(self, node: Node) -> _TreeView:
        feats = set()
        classes = set()
        stack = [node]
        while stack:
            n = stack.pop()
            if isinstance(n, Leaf):
                classes.add(n.class_id)
            else:
                feats.add(n.feature - 1)
                stack.extend((n.left, n.right))
        return _TreeView(node, frozenset(feats), frozenset(classes))

    def _dfs_trees(self, views: list[_TreeView], classes, box, target: str) -> bool:
        if len(views) == 1:
            # specialization prunes infeasible paths, so leaf classes are exact
            return views[0].classes == {target}
        fixed = Counter()
        flex = []
        for v in views:
            if isinstance(v.node, Leaf):
                fixed[v.node.class_id] += 1
            else:
                flex.append(v)
        if not flex:
            winner = max(classes, key=lambda c: (fixed[c], -classes.index(c)))
            return winner == target
        ti = classes.index(target)
        guaranteed = fixed[target]
        threatened = False
        for ci, c in enumerate(classes):
            if c == target:
                continue
            ceiling = fixed[c] + sum(1 for v in flex if c in v.classes)
            if ceiling > guaranteed or (ceiling == guaranteed and ci < ti):
                threatened = True
                break
        if not threatened:
            return True
        usage = Counter()
        for v in flex:
            for f0 in v.feats:
                usage[f0] += 1
        split = min(usage, key=lambda g: (-usage[g], g))
        pieces = self._pieces(split, box[split])
        if len(pieces) <= 1:
            raise AssertionError("split feature must fragment into multiple cells")
        for piece in pieces:
            nb = list(box)
            nb[split] = piece
            nviews = [
                v if split not in v.feats else self._view(self._specialize(v.node, nb))
                for v in views
            ]
            if not self._dfs_trees(nviews, classes, nb, target):
                return False
        return True


# ---------------------------------------------------------------------------
# Constancy


def _piece_rep(domain: Ordinal, iv: Interval) -> Fraction:
    if domain.kind == INTEGER or iv.lo == iv.hi:
        return iv.lo
    return (iv.lo + iv.hi) / 2


def classifier_is_constant(classifier: Classifier, space: FeatureSpace) -> bool:
    """Whether the classifier predicts one class everywhere.

    Cheap probe points first; when they all agree, the box engine proves it.
    """
    eng = Oracle(classifier, space)
    base = []
    tops = []
    for j in space.features():
        domain = space.domain(j)
        if isinstance(domain, Categorical):
            base.append(domain.labels[0])
            tops.append(domain.labels[-1])
        else:
            base.append(domain.lo)
            tops.append(domain.hi)
    base = tuple(base)
    first = classifier.predict(base)
    if classifier.predict(tuple(tops)) != first:
        return False
    for j in space.features():
        domain = space.domain(j)
        if isinstance(domain, Categorical):
            options = domain.labels
        else:
            options = [_piece_rep(domain, cell) for cell in eng.discretization.cells[j - 1]]
        for u in options:
            probe = base[: j - 1] + (u,) + base[j:]
            if classifier.predict(probe) != first:
                return False
    box = [full_set(space.domain(j)) for j in space.features()]
    return eng._box_forces(box, first)
