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
arithmetic.  A box may also give a feature in its compiled form: an atom
mask, or monotone extremes as an `_ends` tuple.  The explanation searches
probe that way, so the feature they change is never converted, and the
others are the same set objects probe after probe, which the slots spare.

A single tree or list is decided by one walk without recursion over the
paths the box reaches, stopping at the first leaf of another class.  Where
a list's paths meet again at a next rule, the walk first bounds the classes
reachable from there and skips the region when the target is the only one.

An ensemble decides every tree at once, on its leaves: the root-to-leaf
paths some atom follows.  Tree t's leaves are bits t*W .. t*W + W - 1 of
one `int` (W a power of two), and the leaves a box reaches are one AND,
over its features, of the OR of the sets of leaves each of its atoms gets
through.  A search node folds each class's reached leaves to one bit per
tree: bit counts give each class's ceiling (the trees that can vote for
it) and sure votes (the trees that can vote for nothing else), ties going
to the lowest class index.  The node holds when no class can catch the
target's sure votes and fails when some class's sure votes beat the
target's ceiling.  Otherwise it splits the feature on which most reached
leaves of two-way trees shut out an atom of the box, into the lower and
the upper half of its atoms.  The halves partition the box, so the outcome
equals literal enumeration; only the visit order differs.

Every top-level decision increments `OracleStats.calls` once, which is what
the per-instance call accounting in the benchmark reports; `OracleStats.nodes`
counts the nodes of the ensemble search.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

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
    ValueSet,
    clip_snap,
    vs_complement,
)

Entry = Union[ValueSet, int, tuple]  # a feature of a box (see `CompiledModel.box`)


class OracleStats:
    """A session's top-level decisions and the ensemble search nodes behind them."""

    def __init__(self):
        self.calls = 0
        self.nodes = 0

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
    """A feature's atoms in domain order, keyed by their mask bit: its labels,
    or the cells that hold a point of the domain, as value sets of those points
    (a cell of an integer domain that holds no integer has no entry)."""
    if isinstance(domain, Categorical):
        return {1 << i: CatSet(frozenset([label])) for i, label in enumerate(domain.labels)}
    atoms = ((1 << i, clip_snap(domain, cell)) for i, cell in enumerate(cells))
    return {bit: IntervalUnion((atom,)) for bit, atom in atoms if atom}


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
# of feature f0 is in the right mask.  An ensemble's trees are also kept
# as leaf bitsets (see `_compile_votes`).


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
        self.atoms = [_atoms(d, cells) for d, cells in zip(space.domains, self.cells)]
        self.valid = [sum(feature_atoms) for feature_atoms in self.atoms]
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
                        m = self.set_mask(f0, lit.values)
                    hit = (f0, m, node, hit)
                node = hit
            self.roots = [node]
        elif isinstance(classifier, (DecisionTree, TreeEnsemble)):
            trees = (classifier,) if isinstance(classifier, DecisionTree) else classifier.trees
            # the right mask of each threshold: the cells at or above it
            above = [{t: -1 << (k + 1) for k, t in enumerate(sj)} for sj in self.splits]
            self.roots = [self._compile_tree(t.root, above) for t in trees]
            if len(self.roots) > 1:
                self._compile_votes()

    def cells_for(self, j: int) -> tuple[Interval, ...]:
        return self.cells[j - 1]

    def box(self, assignment: Mapping[int, Entry], last: list) -> list:
        """The box as each feature's extremes for a monotone model (see
        `_ends`), or as atom masks.  A feature given in that compiled form
        (an `int` mask of its atoms, or an `_ends` tuple whose fractions
        need not be reduced) is checked with integer tests and used as it
        is.  A value set is converted; last[j - 1] holds (set, entry) from
        feature j's last conversion, and a set that `is` that one (value
        sets are frozen) is not converted again."""
        box = []
        assigned = 0
        for j, domain in enumerate(self.space.domains, 1):
            s = assignment.get(j)
            if s is None:
                box.append(self.absent[j - 1])
                continue
            assigned += 1
            if s.__class__ is int or s.__class__ is tuple:
                box.append(self._checked(j - 1, s))
                continue
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
                entry = self.set_mask(j - 1, s)
            elif self.monotone:
                entry = _extremes(domain, s)
            else:
                entry = self.set_mask(j - 1, s) & self.valid[j - 1]
                if not entry:
                    raise ValidationError("interval union is empty within the domain")
            last[j - 1] = (s, entry)  # one tuple: a reader never pairs one set with another's entry
            box.append(entry)
        if assigned != len(assignment):
            extra = set(assignment) - set(self.space.features())
            if extra:
                raise ValidationError(f"feature indexes out of range: {sorted(extra)}")
        return box

    def forces(self, box: list, target: str, stats: Optional[OracleStats] = None) -> bool:
        """Whether every point of the box (as built by `box`) predicts target;
        an ensemble's search nodes are counted in stats."""
        ti = self.class_index[target]
        if self.monotone:
            return _forces_monotone(self.weights, self.thresholds, box, ti)
        if len(self.roots) == 1:
            return _forces_tree(self.roots[0], box, ti, self.shared)
        return self._votes(box, ti, stats or OracleStats())

    def _checked(self, f0: int, entry):
        """entry, once integer tests show it a non-empty part of feature f0's
        domain in this model's compiled form (see `box`)."""
        if entry.__class__ is int:
            fits = not self.monotone and entry and not entry & ~self.valid[f0]
        elif fits := self.monotone and len(entry) == 5:
            ln, ld, hn, hd, closed = entry
            dln, dld, dhn, dhd, _ = self.absent[f0]
            low, high = ln * hd, hn * ld  # both ends over the denominator ld * hd
            fits = ld > 0 < hd and dln * ld <= ln * dld and hn * dhd <= dhn * hd
            fits = fits and (low < high or low == high and closed)
            if self.space.domains[f0].kind == INTEGER:  # snapped: integer ends, closed
                fits = fits and not (ln % ld or hn % hd) and closed
        if not fits:
            raise ValidationError(f"feature {f0 + 1}: {entry!r} is no part of its domain here")
        return entry

    # -- compiling to atom masks ----------------------------------------------

    def inside(self, f0: int, s: ValueSet) -> int:
        """The mask of feature f0's atoms that lie wholly inside s."""
        rest = vs_complement(self.space.domains[f0], s)
        return self.valid[f0] & ~self.set_mask(f0, rest) if rest else self.valid[f0]

    def set_mask(self, f0: int, s: ValueSet) -> int:
        """The mask of feature f0's cells or labels that s meets, atoms or not."""
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

    def _compile_votes(self) -> None:
        """Every tree's leaves as bits of one int (see the module docstring):
        the leaves of each class, and per feature and atom, the leaves whose
        path lets that atom through."""
        trees = []
        for root in self.roots:
            leaves = []  # (class, atom mask per feature) of each path some atom follows
            stack = [(root, tuple(self.valid))]
            while stack:
                n, masks = stack.pop()
                if n.__class__ is int:
                    leaves.append((n, masks))
                    continue
                f0, rm, left, right = n
                for side, part in ((right, masks[f0] & rm), (left, masks[f0] & ~rm)):
                    if part:
                        stack.append((side, masks[:f0] + (part,) + masks[f0 + 1 :]))
            trees.append(leaves)
        width = 1 << (max(map(len, trees)) - 1).bit_length()
        self.class_bits = [0] * len(self.classifier.classes)
        self.admits = [[0] * v.bit_length() for v in self.valid]
        groups: dict[tuple[int, int], int] = {}  # (f0, path mask) -> leaves
        for t, leaves in enumerate(trees):
            for i, (ci, masks) in enumerate(leaves):
                bit = 1 << (t * width + i)
                self.class_bits[ci] |= bit
                for key in enumerate(masks):
                    groups[key] = groups.get(key, 0) | bit
        for (f0, mask), bits in groups.items():
            while mask:
                atom = mask & -mask
                mask ^= atom
                self.admits[f0][atom.bit_length() - 1] |= bits
        self.leaves = sum(self.class_bits)
        # per feature and atom, the leaves that shut the atom out; per feature,
        # the leaves that test it
        self.shuts = [[self.leaves & ~bits for bits in row] for row in self.admits]
        self.tests = [_union(row, v) for row, v in zip(self.shuts, self.valid)]
        self.low = sum(1 << (t * width) for t in range(len(trees)))  # each slot's first bit
        self.fill = (1 << width) - 1
        self.folds = [1 << k for k in range(width.bit_length() - 1)]

    def _votes(self, box: list[int], ti: int, stats: OracleStats) -> bool:
        """Whether class ti wins the vote at every point of the box."""
        admits, valid = self.admits, self.valid
        reached = self.leaves
        for f0, a in enumerate(box):
            if a != valid[f0]:
                reached &= _union(admits[f0], a)
        stack = [(reached, box)]
        while stack:
            reached, box = stack.pop()
            stats.nodes += 1
            votes = []  # per class, the first bit of each tree that can vote for it
            for bits in self.class_bits:
                x = reached & bits
                for shift in self.folds:
                    x |= x >> shift
                votes.append(x & self.low)
            seen = two_way = 0
            for x in votes:
                two_way |= seen & x
                seen |= x
            ceilings = [x.bit_count() for x in votes]
            sure = [(x & ~two_way).bit_count() for x in votes]
            top = ceilings[ti]
            if any(v > top or (v == top and ci < ti) for ci, v in enumerate(sure)):
                return False
            floor = sure[ti]
            if all(
                v < floor or (v == floor and ci > ti) for ci, v in enumerate(ceilings) if ci != ti
            ):
                continue
            # some two-way tree reaches a leaf that shuts out an atom of the box
            live = reached & two_way * self.fill
            split, most = 0, 0
            for f0, a in enumerate(box):
                if a & (a - 1):
                    shut = self.tests[f0] if a == valid[f0] else _union(self.shuts[f0], a)
                    n = (live & shut).bit_count()
                    if n > most:
                        split, most = f0, n
            if not most:  # never: two reached leaves of one tree cannot both cover the box
                raise AssertionError("an undecided node has no feature to split")
            a = box[split]
            upper = a
            for _ in range(a.bit_count() // 2):
                upper &= upper - 1  # drop the lowest atom
            for half in (upper, a ^ upper):  # the lower half is searched first
                child = list(box)
                child[split] = half
                stack.append((reached & _union(admits[split], half), child))
        return True


def _union(rows: list[int], mask: int) -> int:
    """The OR of rows[i] over the bits i of mask."""
    out = 0
    while mask:
        atom = mask & -mask
        mask ^= atom
        out |= rows[atom.bit_length() - 1]
    return out


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

    def holds_sufficiency(self, assignment: Mapping[int, Entry], class_id: str) -> bool:
        """True iff every point of the box predicts class_id."""
        return self._forces(assignment, class_id)

    def counterexample_in(self, assignment: Mapping[int, Entry], class_id: str) -> bool:
        """True iff some point of the box predicts a class other than class_id."""
        return not self._forces(assignment, class_id)

    def _forces(self, assignment: Mapping[int, Entry], class_id: str) -> bool:
        model = self.model
        if class_id not in model.class_index:
            raise ValidationError(f"unknown class {class_id!r}")
        box = model.box(assignment, self._converted)
        self.stats.bump()
        return model.forces(box, class_id, self.stats)


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
        lo_num, lo_den = lo_num * ld + w * ln * lo_den, lo_den * ld
        hi_num, hi_den = hi_num * hd + w * hn * hi_den, hi_den * hd
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


def classifier_is_constant(classifier: Classifier, space: FeatureSpace) -> bool:
    """Whether the classifier predicts one class everywhere.

    Two predicts first: when the lowest and the highest corner differ the
    answer is no, and nothing is compiled.  Otherwise the box engine proves
    or refutes that the whole space gets the corners' class.
    """
    base = tuple(d.labels[0] if isinstance(d, Categorical) else d.lo for d in space.domains)
    tops = tuple(d.labels[-1] if isinstance(d, Categorical) else d.hi for d in space.domains)
    first = classifier.predict(base)
    if classifier.predict(tops) != first:
        return False
    model = discretize(classifier, space)
    return model.forces(model.box({}, [None] * space.m), first)
