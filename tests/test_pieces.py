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

from bruteforce import bf_forces, grid_points
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
from xinflate.explain import ExplanationProblem, enumerate_all, find_axp, find_cxp
from xinflate.inflate import InflationConfig, _contrast_pieces, _feature_pieces, inflate_axp, shrink_cxp
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
from xinflate.oracle import Oracle, OracleStats

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


def _literal(draw, space: FeatureSpace, j: int, any_shape: bool = False):
    domain = space.domain(j)
    if isinstance(domain, Categorical):
        labels = draw(st.lists(st.sampled_from(domain.labels), min_size=1, unique=True))
        if len(labels) == len(domain.labels):
            labels = labels[:-1]
        if len(labels) == 1 and draw(st.booleans()):
            return LabelEq(j, labels[0])
        return SetMember(j, CatSet(frozenset(labels)))
    if any_shape and domain.kind == INTEGER:  # unsnapped, open or closed at either end
        ends = [F(k, 2) for k in range(int(2 * domain.lo) - 2, int(2 * domain.hi) + 3)]
        pieces = []
        for _ in range(draw(st.integers(1, 2))):
            a, b = sorted(draw(st.lists(st.sampled_from(ends), min_size=2, max_size=2)))
            pieces.append(Interval(a, b, draw(st.booleans()), draw(st.booleans())))
        return SetMember(j, IntervalUnion(tuple(pieces)))
    ends = _halves(domain)  # threshold shaped and unsnapped, as in the pools
    a = draw(st.sampled_from(ends[:-1]))
    b = draw(st.sampled_from([e for e in ends if e > a]))
    closed = b == domain.hi and draw(st.booleans())
    return SetMember(j, IntervalUnion((Interval(a, b, True, closed),)))


def _list(draw, space: FeatureSpace, classes, any_shape: bool = False) -> DecisionList:
    rules = []
    for _ in range(draw(st.integers(1, 4))):
        feats = draw(st.lists(st.integers(1, space.m), min_size=1, max_size=2, unique=True))
        condition = tuple(_literal(draw, space, j, any_shape) for j in sorted(feats))
        rules.append(Rule(condition, draw(st.sampled_from(classes))))
    return DecisionList(tuple(rules), draw(st.sampled_from(classes)), classes)


def _split(draw, space: FeatureSpace, j: int, left, right):
    domain = space.domain(j)
    if isinstance(domain, Categorical):
        return LabelSplit(j, draw(st.sampled_from(domain.labels)), left, right)
    return OrdinalSplit(j, draw(st.sampled_from(_halves(domain)[1:])), left, right)


def _node(draw, space: FeatureSpace, depth: int, classes):
    if depth == 0 or draw(st.integers(0, 5)) == 0:
        return Leaf(draw(st.sampled_from(classes)))
    j = draw(st.integers(1, space.m))
    left = _node(draw, space, depth - 1, classes)
    return _split(draw, space, j, left, _node(draw, space, depth - 1, classes))


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
        clf = _list(draw, space, classes)
    elif family == "tree":
        clf = DecisionTree(_node(draw, space, 3, classes), classes)
    elif family == "forest":
        trees = tuple(DecisionTree(_node(draw, space, 2, classes), classes) for _ in range(2))
        clf = TreeEnsemble(trees, classes)
    else:
        clf = _monotone(draw, space)
    config = InflationConfig(delta=draw(st.sampled_from((F(1, 2), F(1), F(3, 2)))))
    return _problem(draw, clf, space), config


def _fractional(domain) -> bool:
    return domain.lo.denominator != 1 or domain.hi.denominator != 1


def _points(domain) -> list:
    """The domain's bounds and the halves and thirds strictly between them."""
    inner = {F(k, d) for d in (2, 3) for k in range(int(d * domain.lo), int(d * domain.hi) + 1)}
    return sorted({domain.lo, domain.hi} | {v for v in inner if domain.lo < v < domain.hi})


def _problem(draw, clf, space: FeatureSpace) -> ExplanationProblem:
    point = []
    for domain in space.domains:
        if isinstance(domain, Categorical):
            point.append(draw(st.sampled_from(domain.labels)))
        elif domain.kind == INTEGER:
            point.append(F(draw(st.integers(int(domain.lo), int(domain.hi)))))
        else:
            point.append(draw(st.sampled_from(_points(domain) if _fractional(domain) else _halves(domain))))
    try:
        return ExplanationProblem.from_point(clf, space, point)
    except ValidationError as err:  # only a constant classifier is skipped
        if "constant classifier" not in str(err):
            raise
        assume(False)


@st.composite
def engine_problems(draw, monotone: bool = True):
    """A model the engine decides by its harder paths, and an instance: a
    3-class forest of 2 or 4 trees, whose votes can tie; a tree or a
    two-tree forest in which one subtree has two parents; a 3-class tree,
    bare or as a forest of one tree, which the engine decides by the leaves
    a box reaches; or a monotone model over bounds that are not integers;
    or a list whose literals over integer features are any intervals,
    unsnapped; or a 3-class list of up to 6 rules whose rules test no
    feature or one feature more than once."""
    families = ("tied-forest", "shared", "integer-list", "three-class-tree", "one-tree-forest", "wide-list")
    family = draw(st.sampled_from(families + ("fractional-monotone",) * monotone))
    if family == "integer-list":
        highs = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
        space = FeatureSpace(tuple(Ordinal(F(0), F(hi), INTEGER) for hi in highs))
        return _problem(draw, _list(draw, space, CLASSES[:2], any_shape=True), space)
    if family == "fractional-monotone":
        bounds = st.tuples(st.sampled_from((F(0), F(1, 3), F(1, 2))), st.sampled_from((F(5, 2), F(7, 3), F(4))))
        space = FeatureSpace(tuple(Ordinal(lo, hi) for lo, hi in draw(st.lists(bounds, min_size=1, max_size=3))))
        return _problem(draw, _monotone(draw, space), space)
    if family == "wide-list":
        return draw(wide_lists())
    space = _space(draw, False)
    if family in ("three-class-tree", "one-tree-forest"):
        tree = DecisionTree(_node(draw, space, 3, CLASSES), CLASSES)
        return _problem(draw, tree if family == "three-class-tree" else TreeEnsemble((tree,), CLASSES), space)
    if family == "tied-forest":
        trees = (DecisionTree(_node(draw, space, 2, CLASSES), CLASSES) for _ in range(draw(st.sampled_from((2, 4)))))
        return _problem(draw, TreeEnsemble(tuple(trees), CLASSES), space)
    classes, feature = CLASSES[:2], st.integers(1, space.m)
    shared = _node(draw, space, 2, classes)
    inner = _split(draw, space, draw(feature), _node(draw, space, 1, classes), shared)
    trees = [DecisionTree(_split(draw, space, draw(feature), shared, inner), classes)]
    if draw(st.booleans()):
        leaf = Leaf(draw(st.sampled_from(classes)))
        trees.append(DecisionTree(_split(draw, space, draw(feature), leaf, shared), classes))
    clf = trees[0] if len(trees) == 1 else TreeEnsemble(tuple(trees), classes)
    return _problem(draw, clf, space)


@st.composite
def wide_lists(draw):
    """A 3-class list of 1-6 rules of 0-3 literals, and an instance.  A rule
    may test one feature more than once, with a label and a label set, or
    with intervals of any shape on an integer feature."""
    space = _space(draw, False)
    rules = []
    for _ in range(draw(st.integers(1, 6))):
        condition = []
        for j in sorted(draw(st.lists(st.integers(1, space.m), max_size=3))):
            domain = space.domain(j)
            if isinstance(domain, Categorical) and draw(st.booleans()):
                condition.append(LabelEq(j, draw(st.sampled_from(domain.labels))))
            else:
                condition.append(_literal(draw, space, j, any_shape=True))
        rules.append(Rule(tuple(condition), draw(st.sampled_from(CLASSES))))
    return _problem(draw, DecisionList(tuple(rules), draw(st.sampled_from(CLASSES)), CLASSES), space)


def _pieces(problem, j: int, config) -> list:
    """Feature j's pieces as value sets, ascending."""
    if isinstance(problem.classifier, MonotonicClassifier):
        points = grid_points(problem.space.domain(j), problem.value_of(j), config)
        return [IntervalUnion((Interval(p, p),)) for p in points]
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
    points, iv = grid_points(domain, problem.value_of(j), config), s.intervals[0]
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


def _box(draw, problem) -> tuple[dict, dict]:
    """A box over some of the features, each given either as a value set or
    as a compiled entry (an atom mask, or a monotone model's ends), and the
    same box as value sets."""
    model, box, sets = problem.oracle.model, {}, {}
    for j in problem.space.features():
        form = draw(st.sampled_from(("absent", "set", "entry")))
        domain = problem.space.domain(j)
        if form == "absent":
            continue
        if form == "entry" and not model.monotone:
            bits = draw(st.lists(st.sampled_from(list(model.atoms[j - 1])), min_size=1, unique=True))
            box[j], sets[j] = sum(bits), vs_union(domain, *(model.atoms[j - 1][b] for b in bits))
            continue
        if isinstance(domain, Categorical):
            labels = draw(st.lists(st.sampled_from(domain.labels), min_size=1, unique=True))
            box[j] = sets[j] = CatSet(frozenset(labels))
            continue
        if domain.kind == INTEGER:
            points = [F(k) for k in range(int(domain.lo), int(domain.hi) + 1)]
        else:
            points = _points(domain)
        lo, hi = sorted(draw(st.lists(st.sampled_from(points), min_size=2, max_size=2)))
        closed = lo == hi or domain.kind == INTEGER or draw(st.booleans())
        sets[j] = IntervalUnion((Interval(lo, hi, True, closed),))
        box[j] = (*lo.as_integer_ratio(), *hi.as_integer_ratio(), closed) if form == "entry" else sets[j]
    return box, sets


ANY_PROBLEM = st.one_of(engine_problems(), problems().map(lambda drawn: drawn[0]))


class TestEngineAgainstBruteForce:
    """The engine's decisions on drawn boxes, and the atoms inflation leaves
    out, checked with `bf_forces`."""

    @PROPERTY
    @given(problem=ANY_PROBLEM, data=st.data())
    def test_decisions_match_the_scan(self, problem, data):
        box, sets = _box(data.draw, problem)
        clf, space, target = problem.classifier, problem.space, problem.target
        forced = bf_forces(clf, space, sets, target)
        assert problem.oracle.holds_sufficiency(box, target) == forced, (box, sets)
        assert problem.oracle.counterexample_in(box, target) == (not forced)

    @PROPERTY
    @given(problem=st.one_of(engine_problems(monotone=False), problems().map(lambda drawn: drawn[0])))
    def test_every_atom_left_out_has_a_counterexample(self, problem):
        model = problem.oracle.model
        assume(not model.monotone)
        clf, space, target = problem.classifier, problem.space, problem.target
        axp = find_axp(problem)
        sets = dict(inflate_axp(problem, axp, trusted=True).sets)
        assert bf_forces(clf, space, sets, target)
        for j in axp:
            domain = space.domain(j)
            for atom in model.atoms[j - 1].values():
                if not vs_subset(domain, atom, sets[j]):
                    assert not bf_forces(clf, space, {**sets, j: vs_union(domain, sets[j], atom)}, target)


def _sized(draw, space: FeatureSpace, leaves: int, classes, region: list):
    """A tree of the given number of leaves, each reached by a point of the
    region: per feature, the labels, integers or halves a path may take."""
    if leaves == 1:
        return Leaf(draw(st.sampled_from(classes)))
    splits = []  # (feature, label or threshold, the values on the left, those on the right)
    for j, values in enumerate(region, 1):
        if isinstance(space.domain(j), Categorical):
            splits += [(j, v, [u for u in values if u != v], [v]) for v in values if len(values) > 1]
        else:
            cuts = [t for t in _halves(space.domain(j))[1:] if values[0] < t <= values[-1]]
            splits += [(j, t, [u for u in values if u < t], [u for u in values if u >= t]) for t in cuts]
    j, pivot, *parts = draw(st.sampled_from(splits))
    sides = [region[: j - 1] + [values] + region[j:] for values in parts]
    room = [math.prod(map(len, side)) for side in sides]
    n = draw(st.integers(max(1, leaves - room[1]), min(leaves - 1, room[0])))
    kind = LabelSplit if isinstance(space.domain(j), Categorical) else OrdinalSplit
    left, right = (_sized(draw, space, k, classes, side) for k, side in zip((n, leaves - n), sides))
    return kind(j, pivot, left, right)


@st.composite
def lane_forests(draw):
    """A forest of 2-4 trees over 2 or 3 classes whose widest tree has 1, 2,
    3 or 5 leaves, so each tree's slot holds W = 1, 2, 4 or 8 bits, and an
    oracle over it.  The first feature has an integer domain, where a cell
    between two thresholds of different trees may hold no integer."""
    first = Ordinal(F(0), F(draw(st.integers(2, 4))), INTEGER)
    space = FeatureSpace((first, *_space(draw, False).domains[:2]))
    region = [
        list(d.labels) if isinstance(d, Categorical) else _halves(d)[:: 2 if d.kind == INTEGER else 1]
        for d in space.domains
    ]
    classes = CLASSES[: draw(st.sampled_from((2, 3)))]
    widest = draw(st.sampled_from((1, 2, 3, 5)))
    others = draw(st.lists(st.integers(1, widest), min_size=1, max_size=3))
    trees = tuple(DecisionTree(_sized(draw, space, n, classes, region), classes) for n in (widest, *others))
    clf = TreeEnsemble(trees, classes)
    oracle = Oracle(clf, space)
    assert oracle.model.fill == (1 << {1: 1, 2: 2, 3: 4, 5: 8}[widest]) - 1
    return clf, space, oracle


def _lane_masks(draw, space: FeatureSpace, model) -> tuple[dict, dict]:
    """Atom masks over some of the features, each a run of the feature's
    atoms or any of them, and the same box as value sets."""
    masks, sets = {}, {}
    for j in space.features():
        bits = sorted(model.atoms[j - 1])
        form = draw(st.sampled_from(("absent", "run", "any")))
        if form == "run":
            lo, hi = sorted(draw(st.lists(st.integers(0, len(bits) - 1), min_size=2, max_size=2)))
            chosen = bits[lo : hi + 1]
        elif form == "any":
            chosen = draw(st.lists(st.sampled_from(bits), min_size=1, unique=True))
        else:
            continue
        masks[j] = sum(chosen)
        sets[j] = vs_union(space.domain(j), *(model.atoms[j - 1][bit] for bit in chosen))
    return masks, sets


class TestLanesAndRuns:
    """The vote search's lane test and its run lookups, checked with
    `bf_forces` on boxes whose masks are runs of a feature's atoms or have
    gaps; on an integer domain the atoms themselves can have gaps, since a
    cell such as [1/2, 1) holds no integer."""

    @PROPERTY
    @given(drawn=lane_forests(), data=st.data())
    def test_decisions_match_the_scan(self, drawn, data):
        clf, space, oracle = drawn
        masks, sets = _lane_masks(data.draw, space, oracle.model)
        for target in clf.classes:
            forced = bf_forces(clf, space, sets, target)
            assert oracle.holds_sufficiency(masks, target) == forced, (masks, target)

    @PROPERTY
    @given(drawn=lane_forests(), data=st.data())
    def test_admitted_atoms_match_the_scan(self, drawn, data):
        """`admitted` keeps exactly the atoms of the probed feature that
        force the class alone, the other features as drawn."""
        clf, space, oracle = drawn
        model = oracle.model
        masks, sets = _lane_masks(data.draw, space, model)
        f0 = data.draw(st.integers(0, space.m - 1))
        box = model.box(masks, [None] * space.m)
        for ti, target in enumerate(clf.classes):
            stats = OracleStats()
            mask = model.admitted(box, f0, ti, stats)
            assert box == model.box(masks, [None] * space.m)  # the caller's box is left as it was
            assert not mask & ~box[f0] and stats.nodes > 0
            for bit, atom in model.atoms[f0].items():
                if bit & box[f0]:
                    forced = bf_forces(clf, space, {**sets, f0 + 1: atom}, target)
                    assert bool(mask & bit) == forced, (masks, f0, bit, target)


class TestSession:
    """One oracle session answers a run of queries as fresh sessions do,
    whatever its memo of the last admitted search holds."""

    @PROPERTY
    @given(drawn=lane_forests(), data=st.data())
    def test_a_session_answers_as_fresh_oracles(self, drawn, data):
        clf, space, oracle = drawn
        model = oracle.model
        varied = [j for j in space.features() if len(model.atoms[j - 1]) > 1]
        assume(varied)
        j = data.draw(st.sampled_from(varied))
        others = [k for k in space.features() if k != j]
        k = data.draw(st.sampled_from(others)) if others else None  # the second feature
        # the other features pinned to one atom each, as the searches pin them, or free
        masks = {f: data.draw(st.sampled_from(sorted(model.atoms[f - 1]))) for f in others}
        masks = {f: mask for f, mask in masks.items() if data.draw(st.integers(0, 3))}
        bits = sorted(model.atoms[j - 1])
        target = data.draw(st.sampled_from(clf.classes))
        steps = ("atom", "atom", "join", "gap", "class", "second")
        for _ in range(data.draw(st.integers(4, 16))):
            step = data.draw(st.sampled_from(steps if others else steps[:-1]))
            if step == "atom":
                masks[j] = data.draw(st.sampled_from(bits))
            elif step == "join":  # a run of atoms
                lo, hi = sorted(data.draw(st.lists(st.integers(0, len(bits) - 1), min_size=2, max_size=2)))
                masks[j] = sum(bits[lo : hi + 1])
            elif step == "gap":
                masks[j] = sum(data.draw(st.lists(st.sampled_from(bits), min_size=1, unique=True)))
            elif step == "class":
                target = data.draw(st.sampled_from(clf.classes))
            else:  # the second feature moves to another atom, or to several, or is freed
                atoms = sorted(model.atoms[k - 1])
                chosen = data.draw(st.lists(st.sampled_from(atoms), max_size=2, unique=True))
                masks.pop(k, None)
                if chosen:
                    masks[k] = sum(chosen)
            calls = oracle.stats.calls
            expected = Oracle(clf, space).holds_sufficiency(masks, target)
            assert oracle.holds_sufficiency(masks, target) == expected, (masks, target)
            assert oracle.stats.calls == calls + 1  # a memo hit is a decision too
