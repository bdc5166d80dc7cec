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
in for every combination of interval pieces.  Such a model compiles only
its weights and thresholds, as integers over one common denominator, and
its domains' ends; the extremes are integer numerators and denominators,
so both sums compare with the thresholds by cross-multiplication.  Lists,
trees, and forests alone get atom tables: their ordinal axes are cut into
the half-open cells induced by the model's own thresholds, [lo, d1),
[d1, d2), ..., [dk, hi]: those that `validate_classifier` returns once it
has checked them.  The prediction is constant on every product of cells,
so the box predicate is a finite question.

That question is asked over atoms.  An atom of a feature is one of its
labels, or one of its cells that holds a point of the domain (on an integer
domain a cell such as [5/2, 3) holds no integer and is no atom).  Bit i of a
feature's mask stands for its label i or cell i, so every value set becomes
an `int` whose bits are atoms (a cell that is no atom is never set): a box
is one mask per feature, an `OrdinalSplit` sends the cells at or above its
threshold right, a `LabelSplit` sends its label's bit right, and a list
literal passes the atoms it covers.  A decision list compiles to its rules,
each a class and one (feature, mask) per literal, and its default class.
These tables depend only on the classifier and the space, so they live in a
`CompiledModel`, built eagerly by `discretize`, which keeps the last one it
built and returns it again while the same two objects come back, after
`validate_classifier` accepts them; every `Oracle` over them shares it
and adds its own decision count and one slot per feature.  `ValueSet` and
`Fraction` appear only where a box is converted, to masks or to monotone
extremes, and a session converts a feature's set only when it is not the
object the feature's slot holds from the previous conversion; every
decision after that is integer arithmetic.  A box may also give a
feature in its compiled form: an atom mask, or monotone extremes as an
`_ends` tuple.  The explanation searches probe that way, so the feature
they change is never converted, and the others are the same set objects
probe after probe, which the slots spare.

A list is decided by one walk without recursion over regions of the box
and the rules they reach, stopping at the first rule of another class
that a region fires.  Where the regions of a rule's several literals meet
again at the next rule, the walk first scans the rules from there for the
classes a region can reach and drops it when the target is the only one.

Trees, one or many, are decided on their leaves: the root-to-leaf paths
some atom follows.  Tree t's leaves are bits t*W .. t*W + W - 1 of one
`int` (W a power of two), and the leaves a box reaches are one AND, over
its features, of the OR of the sets of leaves each of its atoms gets
through.  A path lets through a run of an ordinal feature's atoms, so the
OR over a run from atom l to atom h is two lookups, a prefix OR at h AND a
suffix OR at l, and the leaves that let every atom of a mask through are
those that let its lowest and its highest through, gap or not; labels, and
an OR over a mask with a gap, take one step per atom.  A path's region is
the product of its atoms, so one tree is decided by that AND alone.  For
more, a search node reduces each class's reached leaves to one bit per
tree with one lane test: adding the bits below each slot's last bit to its
reached ones carries into that last bit exactly when one of them is set.
Bit counts give each class's ceiling (the trees that can vote for it) and
sure votes (the trees that can vote for nothing else), ties going to the
lowest class index, and one pass over the other classes decides the node:
it fails when some class's sure votes beat the target's ceiling, and holds
when no class can catch the target's sure votes.  Otherwise it splits the
feature on which most reached leaves of two-way trees shut out an atom of
the box, into the lower and the upper half of its atoms.  The halves
partition the box, so the outcome equals literal enumeration; only the
visit order differs.

A box is a product, so it forces a class exactly when it does with
feature j narrowed to each of its atoms alone.  `CompiledModel.admitted`
returns those atoms of j for a forest of two or more trees, from the same
search: a node whose sure votes for another class beat the target's
ceiling loses at every one of its points, so it rejects its atoms of j
instead of ending the search, and the nodes still on the stack drop the
rejected atoms.  An `Oracle` session keeps the last box it decided and
the last such search.  When a forest's box differs from the previous one
at exactly one feature j, and neither of the two entries at j is j's
whole domain, the session searches once with j set to its whole domain
and keeps (class, j, that box, the admitted atoms); this query, and every
later one of the same class that agrees with that box outside j, is
answered by whether its atoms of j are all admitted.  Extraction frees or
pins one feature per query, so one of the two entries is a whole domain
and nothing is searched ahead; growth and shrinking probe one feature
with the others fixed, so a run of their probes costs one search.

Every top-level decision increments `OracleStats.calls` once, which is what
the per-instance call accounting in the benchmark reports; `OracleStats.nodes`
counts the nodes of the search, which a single tree never needs.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate, compress, count
from operator import ne, or_
from typing import Mapping, Optional, Sequence, Union

from .classifiers import (
    Classifier,
    DecisionList,
    DecisionTree,
    LabelEq,
    Leaf,
    MonotonicClassifier,
    OrdinalSplit,
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


class CompiledModel:
    """What the box decisions need from a checked (classifier, space) pair:
    a list's, tree's or forest's atom tables (`cells_for`, `atoms`, `valid`),
    or a monotone model's integer weights, thresholds and domain ends."""

    def __init__(self, classifier: Classifier, space: FeatureSpace):
        self.splits = validate_classifier(classifier, space)
        self.classifier = classifier
        self.space = space
        self.class_index = {c: i for i, c in enumerate(classifier.classes)}
        self.rules = None  # a list's rules: (class index, ((f0, mask of the atoms it passes), ...))
        self.monotone = isinstance(classifier, MonotonicClassifier)
        if self.monotone:
            # the score and thresholds over one common denominator, as integers;
            # a zero weight has no say in the score
            rationals = (*classifier.weights, *classifier.thresholds)
            scale = math.lcm(*(q.denominator for q in rationals))
            self.weights = [(f0, int(w * scale)) for f0, w in enumerate(classifier.weights) if w]
            self.thresholds = [int(t * scale) for t in classifier.thresholds]
            self.absent = [_ends(d.lo, d.hi, True) for d in space.domains]
            return
        self.cells = tuple(_cells(d, sj) for d, sj in zip(space.domains, self.splits))
        self.atoms = [_atoms(d, cells) for d, cells in zip(space.domains, self.cells)]
        # what an absent feature contributes to a box: its whole domain
        self.valid = self.absent = [sum(feature_atoms) for feature_atoms in self.atoms]
        labels = (d.labels if isinstance(d, Categorical) else () for d in space.domains)
        self.labels = [{label: 1 << i for i, label in enumerate(ls)} for ls in labels]
        if isinstance(classifier, DecisionList):
            self.rules = []
            for rule in classifier.rules:
                literals = []
                for lit in rule.condition:
                    f0 = lit.feature - 1
                    if isinstance(lit, LabelEq):
                        literals.append((f0, self.labels[f0][lit.label]))
                    else:
                        literals.append((f0, self.set_mask(f0, lit.values)))
                self.rules.append((self.class_index[rule.class_id], tuple(literals)))
            self.default = self.class_index[classifier.default_class]
        else:
            trees = (classifier,) if isinstance(classifier, DecisionTree) else classifier.trees
            # the right mask of each threshold: the cells at or above it
            above = [{t: -1 << (k + 1) for k, t in enumerate(sj)} for sj in self.splits]
            self._compile_votes(trees, above)

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
        if self.rules is not None:
            return _forces_list(self.rules, self.default, box, ti)
        return self._votes(box, ti, stats or OracleStats()) != 0

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

    # -- trees ----------------------------------------------------------------

    def _compile_votes(self, trees: Sequence[DecisionTree], above: list[dict[Fraction, int]]) -> None:
        """Every tree's leaves as bits of one int (see the module docstring):
        the leaves of each class, and per feature and atom, the leaves whose
        path lets that atom through.  above[f0][t] is the mask of the cells
        at or above threshold t.  A subtree reached twice is walked twice."""
        paths = []
        for tree in trees:
            leaves = []  # (class, atom mask per feature) of each path some atom follows
            stack = [(tree.root, tuple(self.valid))]
            while stack:
                n, masks = stack.pop()
                if isinstance(n, Leaf):
                    leaves.append((self.class_index[n.class_id], masks))
                    continue
                f0 = n.feature - 1
                rm = above[f0][n.threshold] if isinstance(n, OrdinalSplit) else self.labels[f0][n.label]
                # the left side is popped first, so a tree's leaves are numbered left to right
                for side, part in ((n.right, masks[f0] & rm), (n.left, masks[f0] & ~rm)):
                    if part:
                        stack.append((side, masks[:f0] + (part,) + masks[f0 + 1 :]))
            paths.append(leaves)
        width = 1 << (max(map(len, paths)) - 1).bit_length()
        self.class_bits = [0] * len(self.classifier.classes)
        self.admits = [[0] * v.bit_length() for v in self.valid]
        groups: dict[tuple[int, int], int] = {}  # (f0, path mask) -> leaves
        for t, leaves in enumerate(paths):
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
        # per ordinal feature, the prefix and suffix ORs of its row of admits; None for labels
        self.pre, self.suf = [], []
        for row, cells in zip(self.admits, self.cells):
            self.pre.append(list(accumulate(row, or_)) if cells else None)
            self.suf.append(list(accumulate(row[::-1], or_))[::-1] if cells else None)
        # per feature, the leaves that test it: those that shut out one of its atoms
        self.tests = [self.leaves & ~_meet(row, p, v) for row, p, v in zip(self.admits, self.pre, self.valid)]
        self.low = sum(1 << (t * width) for t in range(len(paths)))  # each slot's first bit
        self.fill = (1 << width) - 1
        self.lane = width - 1
        self.high = self.low << self.lane  # each slot's last bit
        self.body = self.low * (self.fill >> 1)  # the bits below it

    def admitted(self, box: list[int], f0: int, ti: int, stats: OracleStats) -> int:
        """The atoms a of box[f0] for which class ti wins the vote at every
        point of the box with f0 = {a}, for two or more trees (see `_votes`)."""
        return self._votes(box, ti, stats, f0)

    def _votes(self, box: list[int], ti: int, stats: OracleStats, f0: Optional[int] = None) -> int:
        """With f0 None, 1 when class ti wins the vote at every point of the
        box, else 0; otherwise the atoms of box[f0] that `admitted` returns.
        A node that loses rejects its atoms of f0, and the nodes still on the
        stack drop them; with f0 None, it answers 0.  The box is not changed."""
        admits, pre, suf, valid = self.admits, self.pre, self.suf, self.valid
        reached = self.leaves
        for f, a in enumerate(box):
            if a != valid[f]:
                reached &= _reach(admits[f], pre[f], suf[f], valid[f], a)
        if self.low == 1:  # one tree: reached is exactly the leaves the box reaches
            return not reached & ~self.class_bits[ti]
        body, high, lane, tests = self.body, self.high, self.lane, self.tests
        mask = 1 if f0 is None else box[f0]  # the atoms of f0 not yet rejected
        stack = [(reached, box)]
        while stack:
            reached, box = stack.pop()
            if f0 is not None and box[f0] & ~mask:  # drop the atoms rejected since the push
                if not box[f0] & mask:
                    continue
                box[f0] &= mask
                reached &= _reach(admits[f0], pre[f0], suf[f0], valid[f0], box[f0])
            stats.nodes += 1
            votes = []  # per class, the first bit of each tree that can vote for it
            seen = two_way = 0
            for bits in self.class_bits:
                x = reached & bits
                # a slot's last bit is set, or carried into, when any of its bits is
                x = ((((x & body) + body) | x) & high) >> lane
                two_way |= seen & x
                seen |= x
                votes.append(x)
            one_way = ~two_way
            top, floor = votes[ti].bit_count(), (votes[ti] & one_way).bit_count()
            lost, holds = False, True  # whether the node loses; whether no class can catch the target's sure votes
            for ci, x in enumerate(votes):
                if ci != ti:
                    sure = (x & one_way).bit_count()
                    if sure > top or sure == top and ci < ti:
                        lost = True  # its sure votes beat the target's ceiling at every point of the node
                        break
                    if holds:
                        ceiling = x.bit_count()
                        holds = ceiling < floor or ceiling == floor and ci > ti
            if lost:
                if f0 is None:
                    return 0
                mask &= ~box[f0]
                if not mask:
                    return 0
                continue
            if holds:
                continue
            # some two-way tree reaches a leaf that shuts out an atom of the box
            live = reached & two_way * self.fill
            split, most = 0, 0
            for f, a in enumerate(box):
                if a & (a - 1):
                    shut = tests[f] if a == valid[f] else ~_meet(admits[f], pre[f], a)
                    n = (live & shut).bit_count()
                    if n > most:
                        split, most = f, n
            if not most:  # never: two reached leaves of one tree cannot both cover the box
                raise AssertionError("an undecided node has no feature to split")
            a = box[split]
            upper = a
            for _ in range(a.bit_count() // 2):
                upper &= upper - 1  # drop the lowest atom
            for half in (upper, a ^ upper):  # the lower half is searched first
                child = list(box)
                child[split] = half
                stack.append((reached & _reach(admits[split], pre[split], suf[split], valid[split], half), child))
        return mask


def _reach(rows: list[int], pre: Optional[list[int]], suf: Optional[list[int]], valid: int, a: int) -> int:
    """The OR of rows[i] over the bits i of mask a: the leaves some atom of a
    gets through, in two lookups when a is a run (see the module docstring)."""
    if pre is not None:  # an ordinal feature, with the prefix and suffix ORs of rows
        l, h = (a & -a).bit_length() - 1, a.bit_length() - 1
        if a == valid & ((2 << h) - (1 << l)):
            return pre[h] & suf[l]
    out = 0
    while a:
        atom = a & -a
        a ^= atom
        out |= rows[atom.bit_length() - 1]
    return out


def _meet(rows: list[int], pre: Optional[list[int]], a: int) -> int:
    """The AND of rows[i] over the bits i of mask a: the leaves every atom of
    a gets through, in two lookups on an ordinal feature (pre is not None;
    see the module docstring)."""
    if pre is not None:
        return rows[(a & -a).bit_length() - 1] & rows[a.bit_length() - 1]
    out = -1
    while a:
        atom = a & -a
        a ^= atom
        out &= rows[atom.bit_length() - 1]
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
    their count, each feature's last converted set (see `CompiledModel.box`),
    and on a forest its last box and admitted search (see the module docstring)."""

    def __init__(self, classifier: Classifier, space: FeatureSpace):
        self.model = discretize(classifier, space)
        self.stats = OracleStats()
        self._converted: list = [None] * space.m
        model = self.model
        # whether the vote search decides, over a forest of two or more trees
        self._search = not model.monotone and model.rules is None and model.low != 1
        self._previous: Optional[list] = None  # the last box decided
        self._memo: Optional[tuple] = None  # the last admitted search: (class, j, box, mask)

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
        self.stats.calls += 1
        if self._search:
            previous, self._previous = self._previous, box
            if self._memo is not None:
                ci, j, seen, mask = self._memo
                if ci == class_id and box[:j] == seen[:j] and box[j + 1 :] == seen[j + 1 :]:
                    return not box[j] & ~mask
            if previous is not None:
                changed = list(compress(count(), map(ne, previous, box)))  # the features that moved
                if len(changed) == 1:
                    j = changed[0]
                    whole = model.valid[j]
                    if previous[j] != whole != box[j]:
                        seen = list(box)
                        seen[j] = whole
                        mask = model.admitted(seen, j, model.class_index[class_id], self.stats)
                        self._memo = class_id, j, seen, mask
                        return not box[j] & ~mask
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


def _forces_list(rules: list[tuple], default: int, box: list[int], ti: int) -> bool:
    """Whether a compiled list sends every point of the box to class ti.

    A walk without recursion over (rule index, region): a rule reads its
    literals in order, the part of the region a literal fails goes on to
    the next rule, and the region narrows to the part it passes (a region
    that fails a literal whole goes on whole).  A region that passes every
    literal gets the rule's class, and one past the last rule the default
    class; the caller's box is never changed.  Regions multiply only at a
    rule after one of several literals, so a region reaching one of these
    is dropped at once when `_reaches_only` shows that it reaches no class
    but ti.
    """
    stack = [(0, list(box))]
    while stack:
        i, b = stack.pop()
        while i < len(rules):
            if i and len(rules[i - 1][1]) > 1 and _reaches_only(rules, default, i, b, ti):
                break
            ci, literals = rules[i]
            i += 1
            for f0, m in literals:
                a = b[f0]
                r = a & m
                if r != a:
                    if not r:
                        break
                    rest = list(b)
                    rest[f0] = a ^ r
                    stack.append((i, rest))
                    b[f0] = r
            else:
                if ci != ti:
                    return False
                break
        else:
            if default != ti:
                return False
    return True


def _reaches_only(rules: list[tuple], default: int, i: int, box: list[int], ti: int) -> bool:
    """Whether ti is the only class a list reaches from rule i when each
    literal reads the whole box, without narrowing: a rule's class is
    reachable when every literal meets the box, and the next rule when some
    literal can fail.  This covers every class the box reaches, so True is
    exact.  One scan over the rules that follow, up to the first one the
    box entails.
    """
    for ci, literals in rules[i:]:
        if ci != ti and all(box[f0] & m for f0, m in literals):
            return False
        if not any(box[f0] & ~m for f0, m in literals):
            return True
    return default == ti


# ---------------------------------------------------------------------------
# Constancy


def classifier_is_constant(classifier: Classifier, space: FeatureSpace) -> bool:
    """Whether the classifier predicts one class everywhere.

    Two predicts first: when the lowest and the highest corner differ the
    answer is no, and nothing is compiled.  Otherwise the box engine proves
    or refutes that the whole space gets the corners' class.  A malformed
    pair may fail in `predict` first: check it with `discretize`.
    """
    base = tuple(d.labels[0] if isinstance(d, Categorical) else d.lo for d in space.domains)
    tops = tuple(d.labels[-1] if isinstance(d, Categorical) else d.hi for d in space.domains)
    first = classifier.predict(base)
    if classifier.predict(tops) != first:
        return False
    model = discretize(classifier, space)
    return model.forces(model.box({}, [None] * space.m), first)
