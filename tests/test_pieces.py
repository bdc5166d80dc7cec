"""Properties of the piece layer over drawn models.

A feature's pieces are its atoms (labels, or discretization cells that
hold a point of the domain) or, on a monotone model, the points of its
grid.  `shrink_cxp`, `enumerate_iaxps` and the candidate caps all work on
them; here every claim about a result is checked with the plain predictor
or with `bf_forces`, which does not use the oracle.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from bruteforce import bf_forces
from xinflate.classifiers import (
    DecisionList,
    DecisionTree,
    LabelEq,
    LabelSplit,
    Leaf,
    MonotonicClassifier,
    OrdinalSplit,
    Rule,
    SetMember,
    TreeEnsemble,
)
from xinflate.duality import _axp_feature_options, _counts, enumerate_iaxps
from xinflate.errors import BudgetExceededError, ValidationError
from xinflate.explain import ExplanationProblem, enumerate_all, find_cxp
from xinflate.inflate import InflationConfig, _contrast_pieces, _feature_pieces, shrink_cxp
from xinflate.model import (
    CONTINUOUS,
    INTEGER,
    CatSet,
    Categorical,
    FeatureSpace,
    Interval,
    IntervalUnion,
    Ordinal,
    vs_subset,
    vs_union,
)

F = Fraction
CLASSES = ("a", "b", "c")
LABELS = ("red", "blue", "green")
PROPERTY = settings(
    max_examples=250,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _halves(domain):
    return [F(k, 2) for k in range(int(2 * domain.lo), int(2 * domain.hi) + 1)]


def _space(draw, monotone: bool) -> FeatureSpace:
    kinds = (CONTINUOUS, INTEGER) if monotone else (CONTINUOUS, INTEGER, "categorical")
    domains = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)):
        if kind == "categorical":
            domains.append(Categorical(LABELS[: draw(st.integers(2, 3))]))
        else:
            domains.append(Ordinal(F(0), F(draw(st.integers(2, 4))), kind))
    return FeatureSpace(tuple(domains))


def _literal(draw, space: FeatureSpace, j: int):
    domain = space.domain(j)
    if isinstance(domain, Categorical):
        labels = draw(st.lists(st.sampled_from(domain.labels), min_size=1, unique=True))
        if len(labels) == len(domain.labels):
            labels = labels[:-1]
        if len(labels) == 1 and draw(st.booleans()):
            return LabelEq(j, labels[0])
        return SetMember(j, CatSet(frozenset(labels)))
    ends = _halves(domain)  # threshold shaped and unsnapped, as in the pools
    a = draw(st.sampled_from(ends[:-1]))
    b = draw(st.sampled_from([e for e in ends if e > a]))
    closed = b == domain.hi and draw(st.booleans())
    return SetMember(j, IntervalUnion((Interval(a, b, True, closed),)))


def _node(draw, space: FeatureSpace, depth: int, classes):
    if depth == 0 or draw(st.integers(0, 5)) == 0:
        return Leaf(draw(st.sampled_from(classes)))
    j = draw(st.integers(1, space.m))
    domain = space.domain(j)
    left = _node(draw, space, depth - 1, classes)
    right = _node(draw, space, depth - 1, classes)
    if isinstance(domain, Categorical):
        return LabelSplit(j, draw(st.sampled_from(domain.labels)), left, right)
    return OrdinalSplit(j, draw(st.sampled_from(_halves(domain)[1:])), left, right)


def _monotone(draw, space: FeatureSpace) -> MonotonicClassifier:
    weights = draw(st.lists(st.integers(0, 3), min_size=space.m, max_size=space.m))
    assume(any(weights))
    top = sum(w * d.hi for w, d in zip(weights, space.domains))
    n = draw(st.integers(2, 3))
    cuts = st.sampled_from([F(k, 2) for k in range(1, int(2 * top))])
    thresholds = draw(st.lists(cuts, min_size=n - 1, max_size=n - 1, unique=True))
    return MonotonicClassifier(tuple(map(F, weights)), tuple(sorted(thresholds)), CLASSES[:n])


@st.composite
def problems(draw):
    """A small non-constant list, tree, two-tree forest or monotone model,
    an instance, and a grid step."""
    family = draw(st.sampled_from(("list", "tree", "forest", "monotone")))
    space = _space(draw, family == "monotone")
    classes = CLASSES[:2]
    if family == "list":
        rules = []
        for _ in range(draw(st.integers(1, 4))):
            feats = draw(st.lists(st.integers(1, space.m), min_size=1, max_size=2, unique=True))
            condition = tuple(_literal(draw, space, j) for j in sorted(feats))
            rules.append(Rule(condition, draw(st.sampled_from(classes))))
        clf = DecisionList(tuple(rules), draw(st.sampled_from(classes)), classes)
    elif family == "tree":
        clf = DecisionTree(_node(draw, space, 3, classes), classes)
    elif family == "forest":
        trees = tuple(DecisionTree(_node(draw, space, 2, classes), classes) for _ in range(2))
        clf = TreeEnsemble(trees, classes)
    else:
        clf = _monotone(draw, space)
    point = []
    for domain in space.domains:
        if isinstance(domain, Categorical):
            point.append(draw(st.sampled_from(domain.labels)))
        elif domain.kind == INTEGER:
            point.append(F(draw(st.integers(int(domain.lo), int(domain.hi)))))
        else:
            point.append(draw(st.sampled_from(_halves(domain))))
    try:
        problem = ExplanationProblem.from_point(clf, space, point)
    except ValidationError:  # a constant classifier
        assume(False)
    config = InflationConfig(delta=draw(st.sampled_from((F(1, 2), F(1), F(3, 2)))))
    return problem, config


def _grid_points(problem, j: int, config) -> list:
    """Feature j's grid on a monotone model, ascending: the domain bounds and
    every v + k*step strictly between them, built with `Fraction`."""
    domain, v = problem.space.domain(j), problem.value_of(j)
    step = F(max(1, math.ceil(config.delta))) if domain.kind == INTEGER else config.delta
    below = range(1, math.ceil((v - domain.lo) / step))
    above = range(1, math.ceil((domain.hi - v) / step))
    inner = {v - k * step for k in below} | {v} | {v + k * step for k in above}
    return sorted(inner | {domain.lo, domain.hi})


def _pieces(problem, j: int, config) -> list:
    """Feature j's pieces as value sets, ascending."""
    if isinstance(problem.classifier, MonotonicClassifier):
        return [IntervalUnion((Interval(p, p),)) for p in _grid_points(problem, j, config)]
    return list(problem.oracle.model.atoms[j - 1].values())


def _representative(domain, piece):
    """A point of a one-label or one-interval piece."""
    if isinstance(piece, CatSet):
        (label,) = piece.labels
        return label
    iv = piece.intervals[0]
    return iv.lo if iv.lo_closed else (iv.lo + iv.hi) / 2


def _one_step_larger(problem, j: int, s, config):
    """The sets one atom larger than s, or one grid point further at either end."""
    domain = problem.space.domain(j)
    if not isinstance(problem.classifier, MonotonicClassifier):
        atoms = _pieces(problem, j, config)
        return [vs_union(domain, s, a) for a in atoms if not vs_subset(domain, a, s)]
    points, iv = _grid_points(problem, j, config), s.intervals[0]
    lo, hi = points.index(iv.lo), points.index(iv.hi)
    ends = [(lo, hi + 1)] * (hi + 1 < len(points)) + [(lo - 1, hi)] * (lo > 0)
    return [IntervalUnion((Interval(points[a], points[b]),)) for a, b in ends]


class TestPieceProperties:
    @PROPERTY
    @given(drawn=problems())
    def test_shrinking_leaves_one_piece_that_flips_the_prediction(self, drawn):
        problem, config = drawn
        cxp = find_cxp(problem)
        try:
            shrunk = shrink_cxp(problem, cxp, config)
        except ValidationError:  # no counterexample off the instance at this grid
            assume(False)
        point = list(problem.instance.values)
        for j in cxp:
            s = shrunk.set_for(j)
            assert s in _pieces(problem, j, config), (j, s)
            point[j - 1] = _representative(problem.space.domain(j), s)
        assert problem.classifier.predict(tuple(point)) != problem.target

    @PROPERTY
    @given(drawn=problems())
    def test_counts_equal_the_entries_built(self, drawn):
        problem, config = drawn
        for j in problem.space.features():
            pieces, at = _feature_pieces(problem, j, config)
            assert len(pieces) == len(_pieces(problem, j, config))
            options = len(_axp_feature_options(pieces, at))
            if len(pieces) > 1:
                witnesses = len(_contrast_pieces(problem, j, config))
            else:
                with pytest.raises(ValidationError, match="no value but the instance's"):
                    _contrast_pieces(problem, j, config)
                witnesses = 0
            assert _counts(problem, j, config) == (options, witnesses)

    @PROPERTY
    @given(drawn=problems())
    def test_enumerated_families_are_sufficient_and_locally_maximal(self, drawn):
        problem, config = drawn
        clf, space, target = problem.classifier, problem.space, problem.target
        for axp in enumerate_all(problem)[0]:
            try:
                families = enumerate_iaxps(problem, axp, config, max_candidates=256, trusted=True)
            except BudgetExceededError:
                continue
            assert families
            for family in families:
                sets = {j: family.set_for(j) for j in axp}
                assert bf_forces(clf, space, sets, target)
                for j in axp:
                    for larger in _one_step_larger(problem, j, sets[j], config):
                        assert not bf_forces(clf, space, {**sets, j: larger}, target), (j, larger)
