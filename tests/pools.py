"""Seeded pools of small random problems shared across test modules.

Every pool keeps domains tight enough that the brute-force scans in
bruteforce.py stay cheap: ordinal domains top out at 4 with lattice-point
splits, categorical domains at three or four labels.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from xinflate.classifiers import (
    DecisionList,
    DecisionTree,
    LabelEq,
    LabelSplit,
    MonotonicClassifier,
    OrdinalSplit,
    Rule,
    SetMember,
    TreeEnsemble,
)
from xinflate.examples import grade_model, risk_list
from xinflate.explain import ExplanationProblem
from xinflate.model import (
    CONTINUOUS,
    INTEGER,
    CatSet,
    Categorical,
    FeatureSpace,
    Interval,
    IntervalUnion,
    Ordinal,
    interval_union,
)
from xinflate.oracle import classifier_is_constant
from xinflate.synthetic import (
    random_decision_list,
    random_monotone,
    random_point,
    random_space,
    random_tree,
)


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


def make_problem(classifier, space, point) -> ExplanationProblem:
    return ExplanationProblem.from_point(classifier, space, point)


def risk_problem() -> ExplanationProblem:
    """The risk list at (Junior, Red), which it predicts 1."""
    clf, space = risk_list()
    return ExplanationProblem.from_point(clf, space, ("Junior", "Red"))


def grade_problem() -> ExplanationProblem:
    """The grade model at (3, 5), which it predicts B."""
    clf, space = grade_model()
    return ExplanationProblem.from_point(clf, space, (Fraction(3), Fraction(5)))


@lru_cache(maxsize=None)
def dl_pool(n: int = 200, seed: int = 101):
    """Decision lists, at most 6 rules, 2-3 mixed features."""
    rng = random.Random(seed)

    def maker(r):
        space = random_space(r, r.randint(2, 3), categorical_share=0.5, max_labels=3, hi_choices=(4,))
        return random_decision_list(r, space, max_rules=6), space

    return tuple(random_problem(rng, maker) for _ in range(n))


def _steps(domain: Ordinal) -> list:
    """The half steps of a [0, hi] domain, or its integers when it is integer."""
    step = 1 if domain.kind == INTEGER else 2
    return [Fraction(k, step) for k in range(int(domain.hi) * step + 1)]


def _wide_literal(r: random.Random, space: FeatureSpace, j: int):
    """A label, a label set, or a union of one or two intervals ending on steps."""
    domain = space.domain(j)
    if isinstance(domain, Categorical):
        if r.random() < 0.5:
            return LabelEq(j, r.choice(domain.labels))
        return SetMember(j, CatSet(frozenset(r.sample(domain.labels, r.randint(1, len(domain.labels) - 1)))))
    pieces = []
    for _ in range(r.randint(1, 2)):
        a, b = sorted(r.sample(_steps(domain), 2))
        pieces.append(Interval(a, b, True, b == domain.hi and r.random() < 0.5))
    return SetMember(j, interval_union(domain, pieces))


@lru_cache(maxsize=None)
def wide_list_pool(n: int = 80, seed: int = 1010):
    """Three-class decision lists of 1-6 rules with 0-3 literals each.

    A rule may test one feature more than once: with a label and a label
    set, or with two interval unions, over categorical, continuous and
    integer [0, 4] features.  A rule with no literal always fires.  Points
    are steps (see `_steps`).
    """
    rng = random.Random(seed)
    classes = ("0", "1", "2")
    out = []
    while len(out) < n:
        kinds = [rng.choice(("categorical", CONTINUOUS, INTEGER)) for _ in range(rng.randint(1, 3))]
        space = FeatureSpace(tuple(
            Categorical(("red", "blue", "green")) if kind == "categorical" else Ordinal(Fraction(0), Fraction(4), kind)
            for kind in kinds
        ))
        rules = []
        for _ in range(rng.randint(1, 6)):
            feats = sorted(rng.choice(list(space.features())) for _ in range(rng.randint(0, 3)))
            rules.append(Rule(tuple(_wide_literal(rng, space, j) for j in feats), rng.choice(classes)))
        clf = DecisionList(tuple(rules), rng.choice(classes), classes)
        if not classifier_is_constant(clf, space):
            point = (rng.choice(d.labels if isinstance(d, Categorical) else _steps(d)) for d in space.domains)
            out.append((clf, space, tuple(point)))
    return tuple(out)


@lru_cache(maxsize=None)
def forest_pool(n: int = 150, seed: int = 202, n_trees_max: int = 7, depth: int = 3):
    """Tree ensembles with integer split points on [0, 4] domains."""
    rng = random.Random(seed)

    def maker(r):
        while True:
            space = random_space(
                r, r.randint(2, 4), categorical_share=0.35, max_labels=3, hi_choices=(4,)
            )
            if any(isinstance(d, Ordinal) for d in space.domains):
                break
        forest = random_forest(
            r, space, n_trees=r.randrange(2, n_trees_max + 1, 2) + 1, depth=depth,
            lattice_step=Fraction(1),
        )
        return forest, space

    return tuple(random_problem(rng, maker) for _ in range(n))


def _split(r: random.Random, space: FeatureSpace, left, right):
    """A split on a random feature: a label, or a half step inside (lo, hi]."""
    j = r.choice(list(space.features()))
    domain = space.domain(j)
    if isinstance(domain, Categorical):
        return LabelSplit(j, r.choice(domain.labels), left, right)
    cuts = range(int(2 * domain.lo) + 1, int(2 * domain.hi) + 1)
    return OrdinalSplit(j, Fraction(r.choice(cuts), 2), left, right)


@lru_cache(maxsize=None)
def tree_pool(n: int = 60, seed: int = 909):
    """Single trees of depth 3-4 over two or three classes, on continuous
    [0, 4] and categorical features, half-step thresholds.

    About a third of the trees reuse one subtree object under two parents,
    as a tree built in Python may; a file always writes each path out.
    """
    rng = random.Random(seed)

    def maker(r):
        space = random_space(r, r.randint(2, 4), categorical_share=0.4, max_labels=3, hi_choices=(4,))
        classes = ("0", "1", "2")[: r.choice((2, 3))]
        if r.random() < 1 / 3:
            shared = random_tree(r, space, classes, depth=2).root
            other = random_tree(r, space, classes, depth=1).root
            return DecisionTree(_split(r, space, shared, _split(r, space, other, shared)), classes), space
        return random_tree(r, space, classes, depth=r.randint(3, 4)), space

    return tuple(random_problem(rng, maker) for _ in range(n))


@lru_cache(maxsize=None)
def multiclass_forest_pool(n: int = 60, seed: int = 808):
    """Forests of 2, 4 or 6 trees over three or four classes.

    An even number of trees and more than two classes make votes tie, so
    the lowest-index tie rule and the per-class vote bounds decide.
    """
    rng = random.Random(seed)

    def maker(r):
        space = random_space(
            r, r.randint(2, 3), categorical_share=0.35, max_labels=3, hi_choices=(4,)
        )
        classes = ("a", "b", "c", "d")[: r.choice((3, 4))]
        forest = random_forest(
            r, space, classes, n_trees=r.choice((2, 4, 6)), depth=3, lattice_step=Fraction(1)
        )
        return forest, space

    return tuple(random_problem(rng, maker) for _ in range(n))


@lru_cache(maxsize=None)
def monotone_pool(n: int = 150, seed: int = 303):
    """Linear threshold models over 2-3 ordinal features."""
    rng = random.Random(seed)

    def maker(r):
        return random_monotone(r, r.randint(2, 3), n_classes=r.choice((2, 2, 3)))

    return tuple(random_problem(rng, maker) for _ in range(n))


@lru_cache(maxsize=None)
def categorical_pool(n: int = 50, seed: int = 404):
    """Purely categorical decision lists, 3-4 features."""
    rng = random.Random(seed)

    def maker(r):
        space = random_space(r, r.randint(3, 4), categorical_share=1.0, max_labels=3)
        return random_decision_list(r, space, max_rules=6), space

    return tuple(random_problem(rng, maker) for _ in range(n))


def _integer_space(r: random.Random) -> FeatureSpace:
    domains = [Ordinal(Fraction(0), Fraction(4), INTEGER)]
    for _ in range(r.randint(1, 2)):
        if r.random() < 0.5:
            domains.append(Ordinal(Fraction(0), Fraction(4), INTEGER))
        else:
            domains.append(Categorical(("red", "blue", "green")[: r.randint(2, 3)]))
    r.shuffle(domains)
    return FeatureSpace(tuple(domains))


def _half_step_list(r: random.Random, space: FeatureSpace) -> DecisionList:
    """Rules whose intervals start and end on half steps, kept unsnapped.

    Interval literals are threshold shaped, [a, b) or [a, 4], so a literal
    such as [1/2, 1) is a whole cell that holds no integer.
    """
    halves = [Fraction(k, 2) for k in range(9)]
    rules = []
    for _ in range(r.randint(1, 5)):
        condition = []
        for j in sorted(r.sample(list(space.features()), r.randint(1, 2))):
            domain = space.domain(j)
            if isinstance(domain, Categorical):
                condition.append(LabelEq(j, r.choice(domain.labels)))
                continue
            a = r.choice(halves[:-1])
            b = r.choice([h for h in halves if h > a])
            closed = b == domain.hi and r.random() < 0.5
            condition.append(SetMember(j, IntervalUnion((Interval(a, b, True, closed),))))
        rules.append(Rule(tuple(condition), r.choice(("0", "1"))))
    return DecisionList(tuple(rules), r.choice(("0", "1")), ("0", "1"))


@lru_cache(maxsize=None)
def integer_pool(n: int = 60, seed: int = 505):
    """Trees, forests and lists over integer [0, 4] domains, half-step thresholds.

    Thresholds such as 1/2 and 1 cut cells that hold no integer.  Models
    cycle tree, forest, list; points are integral.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        space = _integer_space(rng)
        kind = len(out) % 3
        if kind == 0:
            clf = random_tree(rng, space, depth=3)
        elif kind == 1:
            clf = random_forest(rng, space, n_trees=3, depth=3)
        else:
            clf = _half_step_list(rng, space)
        if not classifier_is_constant(clf, space):
            out.append((clf, space, random_point(rng, space, Fraction(1))))
    return tuple(out)


@lru_cache(maxsize=None)
def integer_monotone_pool(n: int = 40, seed: int = 606):
    """Linear threshold models over 2-3 integer [0, 4] features, half-step thresholds.

    The score of an integral point is an integer, so a threshold such as
    5/2 falls strictly between the scores of neighbouring points: only the
    integers of a box, not its raw ends, decide its classes.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        m = rng.randint(2, 3)
        space = FeatureSpace(tuple(Ordinal(Fraction(0), Fraction(4), INTEGER) for _ in range(m)))
        weights = tuple(Fraction(rng.randint(0, 3)) for _ in range(m))
        top = 4 * sum(weights)
        n_classes = rng.choice((2, 2, 3))
        if top < n_classes:
            continue
        halves = [Fraction(k, 2) for k in range(1, 2 * int(top))]
        thresholds = tuple(sorted(rng.sample(halves, n_classes - 1)))
        clf = MonotonicClassifier(weights, thresholds, tuple(f"c{i}" for i in range(n_classes)))
        if not classifier_is_constant(clf, space):
            out.append((clf, space, random_point(rng, space, Fraction(1))))
    return tuple(out)


@lru_cache(maxsize=None)
def fractional_monotone_pool(n: int = 40, seed: int = 707):
    """Linear threshold models over 2-3 continuous features, nothing integral.

    Weights have unlike denominators (3/7, 5/2, 2/3) and some are zero,
    domains such as [1/3, 22/7] have non-integral ends, and most thresholds
    are the score of a point whose coordinates are domain ends or half steps
    above the lower end.  Those are the box ends the boundary draws of
    test_oracle pick, so corner scores often equal a threshold exactly; the
    other thresholds have denominator 11.
    """
    rng = random.Random(seed)
    ends = (
        (Fraction(1, 3), Fraction(22, 7)),
        (Fraction(-5, 4), Fraction(3, 2)),
        (Fraction(2, 9), Fraction(7, 5)),
    )
    weight_choices = (Fraction(0), Fraction(3, 7), Fraction(5, 2), Fraction(2, 3), Fraction(1))
    out = []
    while len(out) < n:
        space = FeatureSpace(tuple(Ordinal(*rng.choice(ends)) for _ in range(rng.randint(2, 3))))
        weights = tuple(rng.choice(weight_choices) for _ in space.domains)
        n_classes = rng.choice((2, 2, 3))
        grids = [
            [d.lo + Fraction(k, 2) for k in range(int(2 * (d.hi - d.lo)) + 1)] + [d.hi]
            for d in space.domains
        ]
        candidates = {sum(w * rng.choice(g) for w, g in zip(weights, grids)) for _ in range(6)}
        candidates |= {Fraction(rng.randint(-11, 66), 11) for _ in range(2)}
        thresholds = tuple(sorted(rng.sample(sorted(candidates), n_classes - 1)))
        clf = MonotonicClassifier(weights, thresholds, tuple(f"c{i}" for i in range(n_classes)))
        if not classifier_is_constant(clf, space):
            out.append((clf, space, random_point(rng, space)))
    return tuple(out)


def soundness_pool():
    """The criterion-wide mixed pool: 500 problems."""
    return dl_pool() + forest_pool() + monotone_pool()
