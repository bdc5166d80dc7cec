"""Entailment oracle: box predicates over a classifier.

A box assigns each feature a value set (absent features roam over their full
domain).  The two decisions every explanation routine reduces to are

* sufficiency: does every point of the box get class c, and
* counterexample: does some point of the box get a class other than c.

Both are answered exactly.  For the monotone linear-threshold family a box
is kept as each feature's extremes: its lowest point, its highest point and
whether that is attained, read from the set's pieces through
`model.clip_snap`.  With non-negative weights the lowest score takes every
feature's lowest point and the highest score its highest, so two sums stand
in for every combination of interval pieces.  The weights and thresholds
are scaled once per model to integers over one common denominator, and the
extremes are kept as integer numerators and denominators, so both sums are
integer fractions compared with the thresholds by cross-multiplication.
For lists, trees, and ensembles the ordinal axes are first discretized into
the half-open cells induced by the model's own thresholds, [lo, d1),
[d1, d2), ..., [dk, hi]; the prediction is constant on every product of
cells, so the box predicate is a finite question.

That question is asked over atoms.  An atom of a feature is one of its
labels, or one of its cells that holds a point of the domain (on an integer
domain a cell such as [5/2, 3) holds no integer and is no atom).  Bit i of a
feature's mask stands for its label i or cell i, so every value set becomes
an `int` whose bits are atoms (a cell that is no atom is never set): a box
is one mask per feature, an `OrdinalSplit` sends the cells at or above its
threshold right, a `LabelSplit` sends its label's bit right, and a list
literal sends the atoms it covers right.  A decision list compiles to the
same nodes as a tree: a rule's literals chain right to its class, and a
failed literal goes left to the next rule, ending at the default class.
All of this depends only on the classifier and the space, so it lives in a
`CompiledModel`, built eagerly by `discretize`, which keeps the last one it
built and returns it again while the same two objects come back; every
`Oracle` over them shares it and adds its own decision count and one slot
per feature.  `ValueSet` and `Fraction` appear only where a box is
converted, to masks or to monotone extremes, and a session converts a
feature's set only when it is not the object the feature's slot holds
from the previous conversion; every decision after that is integer
arithmetic.  Explanation searches change one feature per probe and pass
the same set objects for the others, so most decisions convert one set.

A single tree or list is decided by one walk without recursion over the
paths the box reaches, stopping at the first leaf of another class.  Where
a list's paths meet again at a next rule, the walk first bounds the classes
reachable from there and skips the region when the target is the only one.
For ensembles the search specializes each tree against the box, prunes with
reachable leaf classes and a worst-case vote bound, and only splits a
feature into its atoms when the bound cannot decide.  The outcome equals
literal enumeration; only the visit order differs.

Every top-level decision increments `OracleStats.calls` once, which is what
the per-instance call accounting in the benchmark reports.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .classifiers import (
    Classifier,
    DecisionList,
    DecisionTree,
    LabelEq,
    Leaf,
    MonotonicClassifier,
    Node,
    OrdinalSplit,
    SetMember,
    TreeEnsemble,
    _iter_nodes,
    validate_classifier,
)
from .errors import ValidationError
from .model import (
    CatSet,
    Categorical,
    Domain,
    FeatureSpace,
    INTEGER,
    Interval,
    IntervalUnion,
    Ordinal,
    Value,
    ValueSet,
    clip_snap,
)


class OracleStats:
    """Counter of top-level oracle decisions."""

    def __init__(self):
        self.calls = 0

    def bump(self) -> None:
        self.calls += 1


def _thresholds(classifier: Classifier, space: FeatureSpace) -> tuple[tuple[Fraction, ...], ...]:
    """Every ordinal threshold the classifier tests, per feature, sorted."""
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
    elif isinstance(classifier, (DecisionTree, TreeEnsemble)):
        trees = (classifier,) if isinstance(classifier, DecisionTree) else classifier.trees
        for tree in trees:
            for n in _iter_nodes(tree.root):
                if isinstance(n, OrdinalSplit):
                    vals.setdefault(n.feature, set()).add(n.threshold)
    return tuple(
        () if isinstance(space.domain(j), Categorical) else tuple(sorted(vals.get(j, ())))
        for j in space.features()
    )


def _cells(domain: Domain, splits: Sequence[Fraction]) -> tuple[Interval, ...]:
    """The cells the splits induce on an ordinal domain, none on a categorical
    one: each closed below and open above, the last closed at the top."""
    if isinstance(domain, Categorical):
        return ()
    bounds = (domain.lo, *splits)
    last = Interval(bounds[-1], domain.hi, True, True)
    return tuple(Interval(lo, hi, True, False) for lo, hi in zip(bounds, splits)) + (last,)


def _atoms(domain: Domain, cells: Sequence[Interval]) -> dict[int, ValueSet]:
    """A feature's atoms in domain order, keyed by bit index: its labels, or
    the cells that hold a point of the domain, as value sets of those points
    (a cell of an integer domain that holds no integer has no entry)."""
    if isinstance(domain, Categorical):
        return {i: CatSet(frozenset([label])) for i, label in enumerate(domain.labels)}
    atoms = ((i, clip_snap(domain, cell)) for i, cell in enumerate(cells))
    return {i: IntervalUnion((atom,)) for i, atom in atoms if atom}


def _interval_mask(domain: Ordinal, splits: Sequence[Fraction], iv: Interval) -> int:
    """The cells meeting the part of iv inside the domain (0 when that is empty)."""
    iv = clip_snap(domain, iv)
    if iv is None:
        return 0
    a = bisect_right(splits, iv.lo)
    b = bisect_right(splits, iv.hi) if iv.hi_closed else bisect_left(splits, iv.hi)
    return (2 << b) - (1 << a)  # atoms a..b


# ---------------------------------------------------------------------------
# The compiled model
#
# Compiled tree and list nodes are either a class index (a leaf) or a tuple
# (f0, right mask, left node, right node): a point goes right when its atom
# of feature f0 is in the right mask.  A specialized tree is a "view"
# (node, feature mask, class mask) recording the features it still tests
# and the classes its leaves still reach.


class CompiledModel:
    """Everything the box decisions need that depends only on (classifier,
    space); `discretize` builds it and shares it between problems."""

    def __init__(self, classifier: Classifier, space: FeatureSpace):
        if classifier.classes and len(set(classifier.classes)) != len(classifier.classes):
            raise ValidationError("duplicate class ids")
        self.classifier = classifier
        self.space = space
        self.monotone = isinstance(classifier, MonotonicClassifier)
        if self.monotone:
            # one weight per feature, every feature ordinal
            validate_classifier(classifier, space)
            # the score and thresholds over one common denominator, as integers;
            # a zero weight has no say in the score
            rationals = (*classifier.weights, *classifier.thresholds)
            scale = math.lcm(*(q.denominator for q in rationals))
            self.weights = [(f0, int(w * scale)) for f0, w in enumerate(classifier.weights) if w]
            self.thresholds = [int(t * scale) for t in classifier.thresholds]
        self.splits = _thresholds(classifier, space)
        self.cells = tuple(_cells(d, sj) for d, sj in zip(space.domains, self.splits))
        atoms = [_atoms(d, cells) for d, cells in zip(space.domains, self.cells)]
        self.atoms = [tuple(feature_atoms.values()) for feature_atoms in atoms]  # domain order
        self.valid = [sum(1 << i for i in feature_atoms) for feature_atoms in atoms]
        # what an absent feature contributes to a box: its whole domain
        self.absent = [_ends(d.lo, d.hi, True) for d in space.domains] if self.monotone else self.valid
        labels = (d.labels if isinstance(d, Categorical) else () for d in space.domains)
        self.labels = [{label: 1 << i for i, label in enumerate(ls)} for ls in labels]
        self.class_index = {c: i for i, c in enumerate(classifier.classes)}
        self.shared: set[int] = set()  # ids of nodes that several tests lead to
        self.roots = []
        if isinstance(classifier, DecisionList):
            # every literal of a rule fails over to the same next-rule node
            node = self.class_index[classifier.default_class]
            for rule in reversed(classifier.rules):
                if len(rule.condition) > 1:
                    self.shared.add(id(node))
                hit = self.class_index[rule.class_id]
                for lit in reversed(rule.condition):
                    f0 = lit.feature - 1
                    if isinstance(lit, LabelEq):
                        m = self.labels[f0].get(lit.label, 0)
                    else:
                        m = self._set_mask(f0, lit.values)
                    hit = (f0, m, node, hit)
                node = hit
            self.roots = [node]
        elif isinstance(classifier, (DecisionTree, TreeEnsemble)):
            trees = (classifier,) if isinstance(classifier, DecisionTree) else classifier.trees
            # the right mask of each threshold: the cells at or above it
            above = [{t: -1 << (k + 1) for k, t in enumerate(sj)} for sj in self.splits]
            self.roots = [self._compile_tree(t.root, above) for t in trees]

    def cells_for(self, j: int) -> tuple[Interval, ...]:
        return self.cells[j - 1]

    def box(self, assignment: Mapping[int, ValueSet], last: list) -> list:
        """The box as each feature's extremes for a monotone model (see
        `_ends`), or as atom masks.  last[j - 1] holds (set, entry) from
        feature j's last conversion; a set that `is` that one (value sets
        are frozen) is not converted again."""
        box = []
        assigned = 0
        for j, domain in enumerate(self.space.domains, 1):
            s = assignment.get(j)
            if s is None:
                box.append(self.absent[j - 1])
                continue
            assigned += 1
            slot = last[j - 1]
            if slot is not None and slot[0] is s:
                box.append(slot[1])
                continue
            if isinstance(domain, Categorical) != isinstance(s, CatSet):
                raise ValidationError(
                    f"feature {j}: {type(s).__name__} does not fit the domain"
                )
            if isinstance(s, CatSet):
                unknown = s.labels - set(domain.labels)
                if unknown:
                    raise ValidationError(f"feature {j}: labels {sorted(unknown)} not in domain")
                entry = self._set_mask(j - 1, s)
            elif self.monotone:
                entry = _extremes(domain, s)
            else:
                entry = self._set_mask(j - 1, s) & self.valid[j - 1]
                if not entry:
                    raise ValidationError("interval union is empty within the domain")
            last[j - 1] = (s, entry)  # one tuple: a reader never pairs one set with another's entry
            box.append(entry)
        if assigned != len(assignment):
            extra = set(assignment) - set(self.space.features())
            if extra:
                raise ValidationError(f"feature indexes out of range: {sorted(extra)}")
        return box

    def forces(self, box: list, target: str) -> bool:
        """Whether every point of the box (as built by `box`) predicts target."""
        ti = self.class_index[target]
        if self.monotone:
            return _forces_monotone(self.weights, self.thresholds, box, ti)
        if len(self.roots) == 1:
            return _forces_tree(self.roots[0], box, ti, self.shared)
        try:
            views = [_specialize(root, box) for root in self.roots]
            return self._dfs_trees(views, box, ti)
        except RecursionError:  # _specialize recurses on tree depth
            raise ValidationError("the trees are too deep for the vote search") from None

    # -- compiling to atom masks ----------------------------------------------

    def _set_mask(self, f0: int, s: ValueSet) -> int:
        if isinstance(s, CatSet):
            labels = self.labels[f0]
            return sum(labels.get(label, 0) for label in s.labels)
        mask = 0
        for iv in s.intervals:
            mask |= _interval_mask(self.space.domains[f0], self.splits[f0], iv)
        return mask

    def _compile_tree(self, root: Node, above: list[dict[Fraction, int]]):
        """The compiled form of a tree, built bottom-up without recursion."""
        done: dict[int, object] = {}
        stack = [(root, False)]
        while stack:
            n, children_done = stack.pop()
            if id(n) in done:
                continue
            if isinstance(n, Leaf):
                done[id(n)] = self.class_index[n.class_id]
                continue
            if not children_done:
                stack.extend(((n, True), (n.left, False), (n.right, False)))
                continue
            f0 = n.feature - 1
            if isinstance(n, OrdinalSplit):
                right = above[f0][n.threshold]
            else:
                right = self.labels[f0][n.label]
            done[id(n)] = (f0, right, done[id(n.left)], done[id(n.right)])
        return done[id(root)]

    # -- ensembles ------------------------------------------------------------

    def _dfs_trees(self, views: list[tuple], box: list[int], ti: int) -> bool:
        fixed = [0] * len(self.classifier.classes)
        flex = []
        for v in views:
            if v[0].__class__ is int:
                fixed[v[0]] += 1
            else:
                flex.append(v)
        if not flex:
            # ties go to the lowest class index
            return fixed.index(max(fixed)) == ti
        guaranteed = fixed[ti]
        for ci, votes in enumerate(fixed):
            if ci == ti:
                continue
            bit = 1 << ci
            ceiling = votes + sum(1 for v in flex if v[2] & bit)
            if ceiling > guaranteed or (ceiling == guaranteed and ci < ti):
                break
        else:
            return True
        # split the feature most flexible trees test, ties to the lowest index
        usage = [0] * self.space.m
        for v in flex:
            feats = v[1]
            while feats:
                bit = feats & -feats
                feats ^= bit
                usage[bit.bit_length() - 1] += 1
        split = usage.index(max(usage))
        if not box[split] & (box[split] - 1):
            raise AssertionError("split feature must fragment into multiple atoms")
        split_bit = 1 << split
        # every atom of the split feature in turn, from the lowest bit up
        rest = box[split]
        while rest:
            atom = rest & -rest
            rest ^= atom
            nb = list(box)
            nb[split] = atom
            nviews = [v if not v[1] & split_bit else _specialize(v[0], nb) for v in views]
            if not self._dfs_trees(nviews, nb, ti):
                return False
        return True


_last: Optional[CompiledModel] = None


def discretize(classifier: Classifier, space: FeatureSpace) -> CompiledModel:
    """The compiled model of (classifier, space); the last one built is returned
    again while the same two objects come back.  They are compared by identity:
    equality or hashing of these frozen objects would walk every tree node.
    Threads racing here at worst build the same model twice."""
    global _last
    model = _last
    if model is None or model.classifier is not classifier or model.space is not space:
        model = _last = CompiledModel(classifier, space)
    return model


class Oracle:
    """One problem's session over the shared compiled model: its decisions,
    their count, and each feature's last converted set (see `CompiledModel.box`)."""

    def __init__(self, classifier: Classifier, space: FeatureSpace):
        self.model = discretize(classifier, space)
        self.stats = OracleStats()
        self._converted: list = [None] * space.m

    def holds_sufficiency(self, assignment: Mapping[int, ValueSet], class_id: str) -> bool:
        """True iff every point of the box predicts class_id."""
        return self._forces(assignment, class_id)

    def counterexample_in(self, assignment: Mapping[int, ValueSet], class_id: str) -> bool:
        """True iff some point of the box predicts a class other than class_id."""
        return not self._forces(assignment, class_id)

    def _forces(self, assignment: Mapping[int, ValueSet], class_id: str) -> bool:
        model = self.model
        if class_id not in model.class_index:
            raise ValidationError(f"unknown class {class_id!r}")
        box = model.box(assignment, self._converted)
        self.stats.bump()
        return model.forces(box, class_id)


def _ends(lo: Fraction, hi: Fraction, hi_closed: bool) -> tuple:
    """A feature's extremes as integers: the numerator and denominator of its
    lowest point, those of its highest, and whether the highest is attained."""
    return lo.numerator, lo.denominator, hi.numerator, hi.denominator, hi_closed


def _extremes(domain: Ordinal, s: IntervalUnion) -> tuple:
    """The extremes (see `_ends`) of the points of s the domain holds, read
    from every piece of s."""
    pieces = [p for iv in s.intervals if (p := clip_snap(domain, iv))]
    if not pieces:
        raise ValidationError("interval union is empty within the domain")
    hi, hi_closed = max((p.hi, p.hi_closed) for p in pieces)
    return _ends(min(p.lo for p in pieces), hi, hi_closed)


def _forces_monotone(
    weights: list[tuple[int, int]], thresholds: list[int], box: list[tuple], ti: int
) -> bool:
    """Whether both corner scores of the box fall in class ti's band.

    weights (nonzero ones, with their feature) and thresholds are scaled to
    integers by `CompiledModel`; each corner score is summed as num/den
    (den > 0) and compared to a threshold t as t*den against num.
    """
    lo_num, lo_den, hi_num, hi_den = 0, 1, 0, 1
    hi_attained = True
    for f0, w in weights:
        ln, ld, hn, hd, closed = box[f0]
        if ld == lo_den:
            lo_num += w * ln
        else:
            lo_num = lo_num * ld + w * ln * lo_den
            lo_den *= ld
        if hd == hi_den:
            hi_num += w * hn
        else:
            hi_num = hi_num * hd + w * hn * hi_den
            hi_den *= hd
        hi_attained = hi_attained and closed
    # the class index counts the thresholds at or below the score, so an
    # open lower end yields the same lowest index as a closed one, and an
    # unattained highest score stays below a threshold it equals; the lowest
    # index is at most the highest, so both are ti when neither passes it
    if ti and thresholds[ti - 1] * lo_den > lo_num:
        return False
    if ti < len(thresholds):
        t = thresholds[ti] * hi_den
        if t < hi_num or (t == hi_num and hi_attained):
            return False
    return True


def _specialize(n, box: list[int]) -> tuple:
    """The view of n under the box: every decided test collapsed, infeasible
    paths pruned, and splits whose sides are the same leaf merged.

    box is narrowed in place along each path and restored on return.
    """
    while True:
        if n.__class__ is int:
            return n, 0, 1 << n
        f0, rm, left, right = n
        a = box[f0]
        r = a & rm
        if not r:
            n = left
        elif r == a:
            n = right
        else:
            break
    box[f0] = a ^ r
    ln, lf, lc = _specialize(left, box)
    box[f0] = r
    rn, rf, rc = _specialize(right, box)
    box[f0] = a
    if ln.__class__ is int and ln == rn:
        return ln, 0, lc
    return (f0, rm, ln, rn), lf | rf | (1 << f0), lc | rc


def _forces_tree(node, box: list[int], ti: int, shared: set[int]) -> bool:
    """Whether every leaf of one compiled tree or list that the box reaches is class ti.

    A walk without recursion over regions of the box: a region follows its
    decided tests, and a straddled test splits it in two, narrowed to the
    test's atoms and to the rest; the caller's box is never changed.  Paths
    multiply only at nodes that several tests lead to (a list's next rule),
    so a region starting at one of these shared nodes is dropped at once
    when `_reaches_only` shows that it reaches no class but ti.
    """
    stack = [(node, list(box))]
    while stack:
        n, b = stack.pop()
        if id(n) in shared and _reaches_only(n, b, ti):
            continue
        while n.__class__ is not int:
            f0, rm, left, right = n
            a = b[f0]
            r = a & rm
            if not r:
                n = left
            elif r == a:
                n = right
            else:
                nb = list(b)
                nb[f0] = r
                b[f0] = a ^ r
                stack += ((right, nb), (left, b))
                break
        else:
            if n != ti:
                return False
    return True


def _reaches_only(node, box: list[int], ti: int) -> bool:
    """Whether ti is the only class below node when each test reads the whole
    box, without narrowing: the leaves this reaches include every leaf the
    box reaches, so True is exact.  Each node is visited once; on a list this
    scans the rules that can fire, up to the first one the box entails.
    """
    seen = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n.__class__ is int:
            if n != ti:
                return False
            continue
        if id(n) in seen:
            continue
        seen.add(id(n))
        f0, rm, left, right = n
        a = box[f0]
        r = a & rm
        if r:
            stack.append(right)
        if r != a:
            stack.append(left)
    return True


# ---------------------------------------------------------------------------
# Constancy


def _piece_rep(domain: Domain, piece: ValueSet) -> Value:
    """A point of a one-label or one-interval piece, such as an atom."""
    if isinstance(piece, CatSet):
        (label,) = piece.labels
        return label
    iv = piece.intervals[0]
    if domain.kind == INTEGER or iv.lo == iv.hi:
        return iv.lo
    return (iv.lo + iv.hi) / 2


def classifier_is_constant(classifier: Classifier, space: FeatureSpace) -> bool:
    """Whether the classifier predicts one class everywhere.

    Cheap probe points first, the lowest and highest corners and then one
    per atom of each feature; only when they all agree is the model
    compiled, and the box engine proves it.
    """
    base = []
    tops = []
    for domain in space.domains:
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
    splits = _thresholds(classifier, space)
    for j, domain in enumerate(space.domains, 1):
        for atom in _atoms(domain, _cells(domain, splits[j - 1])).values():
            probe = base[: j - 1] + (_piece_rep(domain, atom),) + base[j:]
            if classifier.predict(probe) != first:
                return False
    model = discretize(classifier, space)
    return model.forces(model.box({}, [None] * space.m), first)
