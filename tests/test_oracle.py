"""Entailment engine against an independent brute-force scan."""

import csv
import random
import signal
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from bruteforce import _extremes as bf_extremes, bf_forces, harvested_thresholds
from pools import (
    dl_pool,
    forest_pool,
    fractional_monotone_pool,
    integer_monotone_pool,
    integer_pool,
    monotone_pool,
    multiclass_forest_pool,
    random_forest,
    wide_list_pool,
)
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
from xinflate.errors import ValidationError
from xinflate.examples import grade_model, risk_list
from xinflate.explain import ExplanationProblem, find_axp, find_cxp
from xinflate.inflate import inflate_axp, shrink_cxp
from xinflate.model import (
    CatSet,
    Categorical,
    FeatureSpace,
    INTEGER,
    Interval,
    IntervalUnion,
    Ordinal,
    cat_set,
    full_set,
    interval_union,
    singleton_set,
    vs_complement,
)
from xinflate import oracle as oracle_module
from xinflate.oracle import Oracle, classifier_is_constant, discretize
from xinflate.serialize import load_model
from xinflate.synthetic import random_decision_list, random_monotone, random_space, random_tree

F = Fraction
ROOT = Path(__file__).resolve().parent.parent


def _random_value_set(rng, domain):
    if isinstance(domain, Categorical):
        k = rng.randint(1, len(domain.labels))
        return CatSet(frozenset(rng.sample(domain.labels, k)))
    grid = []
    x = domain.lo
    while x <= domain.hi:
        grid.append(x)
        x += F(1, 2)
    pieces = []
    for _ in range(rng.randint(1, 2)):
        a = rng.choice(grid)
        b = rng.choice([g for g in grid if g >= a])
        if a == b:
            pieces.append(Interval(a, b, True, True))
        else:
            pieces.append(Interval(a, b, True, rng.random() < 0.5))
    try:
        return interval_union(domain, pieces)
    except ValidationError:
        return full_set(domain)


def _random_assignment(rng, space):
    out = {}
    for j in space.features():
        if rng.random() < 0.65:
            out[j] = _random_value_set(rng, space.domain(j))
    return out


def _boundary_value_set(rng, clf, space, j):
    """A set whose endpoints sit on the model's thresholds or half steps.

    Either endpoint may be open; the set is sometimes replaced by its
    complement (as the duality constructions build them) and sometimes
    handed over unnormalized, so the oracle sees endpoints exactly on cell
    boundaries, open lower ends, and pieces holding no domain point.
    """
    domain = space.domain(j)
    if isinstance(domain, Categorical):
        return _random_value_set(rng, domain)
    points = sorted(
        {domain.lo + F(k, 2) for k in range(int(2 * (domain.hi - domain.lo)) + 1)}
        | harvested_thresholds(clf, j)
    )
    pieces = []
    for _ in range(rng.randint(1, 2)):
        a = rng.choice(points)
        b = rng.choice([p for p in points if p >= a])
        pieces.append(Interval(a, b, rng.random() < 0.5, rng.random() < 0.5))
    try:
        normalized = interval_union(domain, pieces)
    except ValidationError:
        return full_set(domain)
    roll = rng.random()
    if roll < 0.3:
        return vs_complement(domain, normalized) or normalized
    if roll < 0.65:
        return IntervalUnion(tuple(pieces))
    return normalized


def _boundary_assignment(rng, clf, space):
    return {
        j: _boundary_value_set(rng, clf, space, j)
        for j in space.features()
        if rng.random() < 0.75
    }


class TestDiscretization:
    def test_cells_partition_domain(self):
        for clf, space, _ in forest_pool(12, seed=51):
            disc = discretize(clf, space)
            for j in space.features():
                domain = space.domain(j)
                if isinstance(domain, Categorical):
                    continue
                cells = disc.cells_for(j)
                splits = disc.splits[j - 1]
                assert len(cells) == len(splits) + 1
                assert cells[0].lo == domain.lo
                assert cells[-1].hi == domain.hi and cells[-1].hi_closed
                for left, right in zip(cells, cells[1:]):
                    assert left.hi == right.lo
                    assert not left.hi_closed and right.lo_closed
                for s in splits:
                    assert domain.lo < s <= domain.hi

    def test_thresholdless_model_has_no_splits(self):
        clf, space = grade_model()
        disc = discretize(clf, space)
        for j in space.features():
            assert disc.splits[j - 1] == ()

    def test_shared_split_deduplicated(self):
        space = FeatureSpace((Ordinal(F(0), F(10)),))
        t1 = DecisionTree(OrdinalSplit(1, F(5), Leaf("a"), Leaf("b")), ("a", "b"))
        t2 = DecisionTree(OrdinalSplit(1, F(5), Leaf("b"), Leaf("a")), ("a", "b"))
        disc = discretize(TreeEnsemble((t1, t2), ("a", "b")), space)
        assert disc.splits[0] == (F(5),)
        assert len(disc.cells_for(1)) == 2


class TestBruteForceEquivalence:
    """The implementation oracle and the literal scan must always agree."""

    def _check_pool(self, pool, rng, assignments_per_model, draw=None):
        draw = draw or (lambda rng, clf, space: _random_assignment(rng, space))
        disagreements = []
        for clf, space, point in pool:
            oracle = Oracle(clf, space)
            for _ in range(assignments_per_model):
                assignment = draw(rng, clf, space)
                target = rng.choice(clf.classes)
                got = oracle.holds_sufficiency(assignment, target)
                want = bf_forces(clf, space, assignment, target)
                if got != want:
                    disagreements.append((clf, assignment, target, got, want))
        assert not disagreements, disagreements[:3]

    def test_decision_lists_agree(self):
        self._check_pool(dl_pool(60, seed=71) + wide_list_pool(), random.Random(1), 7)

    def test_forests_agree(self):
        self._check_pool(forest_pool(40, seed=72), random.Random(2), 7)

    def test_monotone_agree(self):
        self._check_pool(monotone_pool(40, seed=73), random.Random(3), 7)

    def test_multiclass_forests_agree(self):
        pool = multiclass_forest_pool()
        ties = 0
        for clf, space, point in pool:
            votes = Counter(tree.predict(point) for tree in clf.trees).most_common()
            ties += len(votes) > 1 and votes[0][1] == votes[1][1]
        assert ties > 0, "the pool must have points where the vote ties"
        self._check_pool(pool, random.Random(8), 10)
        self._check_pool(pool, random.Random(9), 10, _boundary_assignment)

    def test_forest_with_a_shared_subtree_agrees(self):
        # one subtree object under two parents: each path to it is its own leaf
        space = FeatureSpace((Ordinal(F(0), F(4)), Ordinal(F(0), F(4)), Categorical(("p", "q"))))
        shared = OrdinalSplit(2, F(2), Leaf("a"), LabelSplit(3, "p", Leaf("b"), Leaf("c")))
        root = OrdinalSplit(1, F(2), shared, OrdinalSplit(1, F(3), Leaf("c"), shared))
        classes = ("a", "b", "c")
        other = OrdinalSplit(2, F(3), LabelSplit(3, "q", Leaf("c"), Leaf("a")), Leaf("b"))
        trees = (DecisionTree(root, classes), DecisionTree(other, classes))
        pool = [(TreeEnsemble(ts, classes), space, None) for ts in (trees, trees * 2, trees * 3)]
        self._check_pool(pool, random.Random(10), 150)
        self._check_pool(pool, random.Random(11), 150, _boundary_assignment)

    def test_integer_domains_agree(self):
        pool = integer_pool()
        holes = 0
        for clf, space, _ in pool:
            disc = discretize(clf, space)
            for j in space.features():
                if isinstance(space.domain(j), Ordinal):
                    holes += len(disc.cells_for(j)) - len(disc.atoms[j - 1])
        assert holes > 0, "the pool must have cells that hold no integer"
        self._check_pool(pool, random.Random(7), 10)

    def test_boundary_boxes_agree(self):
        pools = (
            dl_pool(60, seed=71),
            forest_pool(40, seed=72),
            integer_pool(),
            monotone_pool(40, seed=73),
            wide_list_pool(),
        )
        for seed, pool in enumerate(pools):
            self._check_pool(pool, random.Random(20 + seed), 10, _boundary_assignment)

    def test_integer_monotone_boundary_boxes_agree(self):
        # half-step box ends and thresholds: the extremes must be snapped
        self._check_pool(integer_monotone_pool(), random.Random(30), 25, _boundary_assignment)

    def test_fractional_monotone_boundary_boxes_agree(self):
        # weights, thresholds and domain ends over unlike denominators, with
        # corner scores landing exactly on thresholds, attained or not
        ties = Counter()

        def draw(rng, clf, space):
            assignment = _boundary_assignment(rng, clf, space)
            lo = hi = F(0)
            hi_attained = True
            for j, w in enumerate(clf.weights, 1):
                domain = space.domain(j)
                a, _, b, b_in = bf_extremes(domain, assignment.get(j, full_set(domain)))
                lo += w * a
                hi += w * b
                hi_attained = hi_attained and (b_in or not w)
            ties["lowest"] += lo in clf.thresholds
            ties["highest attained" if hi_attained else "highest open"] += hi in clf.thresholds
            return assignment

        pool = fractional_monotone_pool()
        assert any(0 in clf.weights for clf, _, _ in pool)
        self._check_pool(pool, random.Random(31), 25, draw)
        assert min(ties["lowest"], ties["highest attained"], ties["highest open"]) > 0, ties

    def test_worked_examples_agree(self):
        rng = random.Random(4)
        for clf, space in (risk_list(), grade_model()):
            oracle = Oracle(clf, space)
            for _ in range(60):
                assignment = _random_assignment(rng, space)
                target = rng.choice(clf.classes)
                assert oracle.holds_sufficiency(assignment, target) == bf_forces(
                    clf, space, assignment, target
                )


class TestCellConstancy:
    def test_same_cell_points_predict_alike(self):
        rng = random.Random(5)
        for clf, space, _ in forest_pool(15, seed=74):
            disc = discretize(clf, space)
            for _ in range(10):
                p, q = [], []
                for j in space.features():
                    domain = space.domain(j)
                    if isinstance(domain, Categorical):
                        label = rng.choice(domain.labels)
                        p.append(label)
                        q.append(label)
                    else:
                        cell = rng.choice(disc.cells_for(j))
                        width = cell.hi - cell.lo
                        a = cell.lo + width * F(rng.randint(0, 3), 7)
                        b = cell.lo + width * F(rng.randint(0, 6), 7)
                        if not cell.hi_closed:
                            a = min(a, cell.hi - width / 7)
                            b = min(b, cell.hi - width / 7)
                        p.append(a)
                        q.append(b)
                assert clf.predict(p) == clf.predict(q)


class TestMonotoneBoxCheck:
    def test_matches_brute_force_on_interval_boxes(self):
        rng = random.Random(6)
        for clf, space, _ in monotone_pool(25, seed=75):
            for _ in range(8):
                assignment = {}
                for j in space.features():
                    domain = space.domain(j)
                    a = F(rng.randint(0, 10))
                    b = F(rng.randint(0, 10))
                    lo, hi = min(a, b), max(a, b)
                    assignment[j] = interval_union(domain, [Interval(lo, hi, True, True)])
                target = rng.choice(clf.classes)
                assert Oracle(clf, space).holds_sufficiency(assignment, target) == bf_forces(
                    clf, space, assignment, target
                )


class TestOracleContract:
    def test_each_decision_bumps_once(self):
        clf, space = risk_list()
        oracle = Oracle(clf, space)
        stats = oracle.stats
        pin = {1: cat_set(space.domain(1), ["Junior"]), 2: cat_set(space.domain(2), ["Red"])}
        oracle.holds_sufficiency(pin, "1")
        assert stats.calls == 1
        oracle.counterexample_in(pin, "1")
        assert stats.calls == 2
        oracle.counterexample_in({1: pin[1], 2: full_set(space.domain(2))}, "1")
        assert stats.calls == 3

    def test_monotone_over_a_categorical_feature_is_refused_when_built(self):
        clf = MonotonicClassifier((F(1), F(1)), (F(1),), ("lo", "hi"))
        space = FeatureSpace((Ordinal(F(0), F(2)), Categorical(("a", "b"))))
        with pytest.raises(ValidationError, match="ordinal features"):
            Oracle(clf, space)

    @pytest.mark.parametrize("n_weights", [2, 4])
    def test_monotone_weight_count_must_match_the_space(self, n_weights):
        space = FeatureSpace(tuple(Ordinal(F(0), F(2)) for _ in range(3)))
        clf = MonotonicClassifier((F(1),) * n_weights, (F(1),), ("lo", "hi"))
        with pytest.raises(ValidationError, match=f"{n_weights} weights for 3 features"):
            Oracle(clf, space)

    def test_unknown_class_rejected(self):
        clf, space = risk_list()
        with pytest.raises(ValidationError):
            Oracle(clf, space).holds_sufficiency({}, "ghost")

    def test_type_mismatch_rejected(self):
        clf, space = risk_list()
        with pytest.raises(ValidationError):
            Oracle(clf, space).holds_sufficiency(
                {1: singleton_set(Ordinal(F(0), F(1)), F(0))}, "1"
            )

    def test_feature_index_out_of_range_rejected(self):
        clf, space = risk_list()
        oracle = Oracle(clf, space)
        junior = cat_set(space.domain(1), ["Junior"])
        for _ in range(2):  # the second time, feature 1's set is the slot's
            with pytest.raises(ValidationError, match=r"feature indexes out of range: \[0, 3\]"):
                oracle.holds_sufficiency({3: junior, 1: junior, 0: junior}, "1")
        assert oracle.stats.calls == 0

    def test_search_nodes_are_counted_apart_from_decisions(self):
        mf = load_model(ROOT / "models" / "bench_forest.json")
        with open(ROOT / "data" / "bench.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:11]
        calls = nodes = 0
        for row in rows:
            axp = ExplanationProblem.from_point(mf.classifier, mf.space, row[: mf.space.m])
            inflate_axp(axp, find_axp(axp), trusted=True)
            cxp = ExplanationProblem.from_point(mf.classifier, mf.space, row[: mf.space.m])
            shrink_cxp(cxp, find_cxp(cxp))
            calls += axp.oracle.stats.calls + cxp.oracle.stats.calls
            nodes += axp.oracle.stats.nodes + cxp.oracle.stats.nodes
        assert calls == 655  # top-level decisions only, as before nodes were counted
        assert nodes == 2043
        # one tree is decided by the leaves its boxes reach, without a search node
        single = ExplanationProblem.from_point(mf.classifier.trees[0], mf.space, rows[0][: mf.space.m])
        inflate_axp(single, find_axp(single), trusted=True)
        assert single.oracle.stats.calls > 0 and single.oracle.stats.nodes == 0

    @staticmethod
    def _panel_counts(model: str, rows: int) -> dict:
        """Decisions and search nodes of extraction with inflation, and of
        extraction with shrinking, over the first rows of `data/bench.csv`."""
        mf = load_model(ROOT / "models" / model)
        with open(ROOT / "data" / "bench.csv", newline="") as fh:
            panel = [row[: mf.space.m] for row in list(csv.reader(fh))[1 : rows + 1]]
        counts = {"axp": [0, 0], "cxp": [0, 0]}
        for row in panel:
            axp = ExplanationProblem.from_point(mf.classifier, mf.space, row)
            inflate_axp(axp, find_axp(axp), trusted=True)
            cxp = ExplanationProblem.from_point(mf.classifier, mf.space, row)
            shrink_cxp(cxp, find_cxp(cxp))
            for kind, problem in (("axp", axp), ("cxp", cxp)):
                counts[kind][0] += problem.oracle.stats.calls
                counts[kind][1] += problem.oracle.stats.nodes
        return counts

    def test_panel_decisions_and_nodes_are_pinned(self):
        """The benchmark's 40-row panel on the bundled 25-tree forest."""
        assert self._panel_counts("bench_forest.json", 40) == {"axp": [1568, 6851], "cxp": [1111, 3849]}

    def test_large_forest_decisions_and_nodes_are_pinned(self):
        """Rows 0-19 on the 100-tree depth-8 forest, where the vote search dominates."""
        assert self._panel_counts("forest_large.json", 20) == {"axp": [1397, 12489], "cxp": [908, 3040]}

    def test_constancy_probe_is_free(self):
        clf, space = risk_list()
        assert not classifier_is_constant(clf, space)
        oracle = Oracle(clf, space)
        assert oracle.stats.calls == 0

    @staticmethod
    def _integer_grade():
        space = FeatureSpace((Ordinal(F(0), F(10), INTEGER), Ordinal(F(0), F(10))))
        return MonotonicClassifier((F(1), F(1)), (F(12),), ("B", "A")), space

    @pytest.mark.parametrize(
        "model, entry",
        [
            ("risk", 0),
            ("risk", 1 << 3),  # feature 1 has three labels: bits 0..2
            ("risk", -1),
            ("grade", 1),
            ("risk", (0, 1, 0, 1, True)),
            ("grade", (3, 1, 2, 1, True)),
            ("grade", (6, 2, 3, 1, False)),  # [3, 3): unreduced, and empty
            ("grade", (-1, 2, 2, 1, True)),
            ("grade", (0, 1, 21, 2, True)),
            ("grade", (0, 1, 1, 0, True)),
            ("grade", (0, 1, 1, 1)),
            ("integer", (1, 2, 2, 1, True)),
            ("integer", (0, 1, 2, 1, False)),
        ],
        ids=[
            "zero-mask", "mask-beyond-the-atoms", "negative-mask", "mask-on-monotone",
            "ends-on-atoms", "lowest-above-highest", "open-point", "below-the-domain",
            "above-the-domain", "zero-denominator", "four-parts", "ends-off-integers",
            "open-end-on-integers",
        ],
    )
    def test_a_malformed_entry_is_refused(self, model, entry):
        clf, space = {"risk": risk_list, "grade": grade_model, "integer": self._integer_grade}[
            model
        ]()
        oracle = Oracle(clf, space)
        for _ in range(2):  # nothing is kept from a refused entry
            with pytest.raises(ValidationError, match="feature 1: .* is no part of its domain"):
                oracle.holds_sufficiency({1: entry}, clf.classes[0])
        assert oracle.stats.calls == 0

    def test_entries_decide_as_their_value_sets(self):
        clf, space = grade_model()
        oracle = Oracle(clf, space)
        cases = [
            ((6, 2, 19, 2, True), Interval(F(3), F(19, 2))),
            ((6, 2, 14, 2, False), Interval(F(3), F(7), True, False)),
            ((0, 1, 10, 1, True), Interval(F(0), F(10))),
            ((7, 1, 7, 1, True), Interval(F(7), F(7))),
        ]
        pin = singleton_set(space.domain(2), F(5))
        for entry, iv in cases:
            for target in clf.classes:
                want = bf_forces(clf, space, {1: IntervalUnion((iv,)), 2: pin}, target)
                assert oracle.holds_sufficiency({1: entry, 2: pin}, target) == want
        clf, space = risk_list()
        oracle = Oracle(clf, space)
        for mask in range(1, 1 << 6):
            labels = [l for i, l in enumerate(space.domain(2).labels) if mask >> i & 1]
            sets = {1: cat_set(space.domain(1), ["Junior"]), 2: cat_set(space.domain(2), labels)}
            want = bf_forces(clf, space, sets, "1")
            assert oracle.holds_sufficiency({**sets, 2: mask}, "1") == want


class TestSessionSlots:
    """An `Oracle` keeps each feature's last converted set; reusing it must
    never change an answer, an error or a count."""

    def test_one_object_for_two_features_converts_for_each(self):
        # [1/2, 7/2] clips to [1/2, 1] on feature 1 and snaps to [1, 3] on
        # feature 2: an entry reused across features would decide the wrong box
        space = FeatureSpace((Ordinal(F(0), F(1)), Ordinal(F(0), F(4), INTEGER)))
        shared = IntervalUnion((Interval(F(1, 2), F(7, 2)),))
        pin1, pin2 = singleton_set(space.domain(1), F(1)), singleton_set(space.domain(2), F(1))
        boxes = [
            {1: shared},
            {2: shared},
            {1: shared, 2: shared},
            {1: pin1, 2: shared},
            {1: shared, 2: pin2},
            {2: shared},
            {1: shared},
        ]
        for thresholds in ((F(2),), (F(3, 2), F(4)), (F(3, 2),)):
            classes = ("lo", "mid", "hi")[: len(thresholds) + 1]
            clf = MonotonicClassifier((F(1), F(1)), thresholds, classes)
            oracle = Oracle(clf, space)
            for assignment in boxes:
                for target in classes:
                    got = oracle.holds_sufficiency(assignment, target)
                    want = bf_forces(clf, space, assignment, target)
                    assert got == want, (thresholds, assignment, target)

    def test_a_set_that_does_not_fit_raises_every_time(self):
        clf, space = grade_model()
        oracle = Oracle(clf, space)
        wrong = CatSet(frozenset(["x"]))
        for _ in range(2):
            with pytest.raises(ValidationError, match="does not fit the domain"):
                oracle.holds_sufficiency({1: wrong}, "B")
        assert oracle.stats.calls == 0

    def test_alternating_sets_match_a_fresh_session_per_decision(self):
        rng = random.Random(41)
        pools = (dl_pool(20, seed=42), forest_pool(20, seed=43), monotone_pool(20, seed=44))
        for clf, space, _ in (problem for pool in pools for problem in pool):
            session = Oracle(clf, space)
            fixed = _boundary_assignment(rng, clf, space)
            j = rng.choice(space.features())
            sets = [_boundary_value_set(rng, clf, space, j) for _ in range(2)]
            fresh_calls = 0
            for k in range(6):
                assignment = {**fixed, j: sets[k % 2]}
                target = rng.choice(clf.classes)
                fresh = Oracle(clf, space)
                assert session.counterexample_in(assignment, target) == fresh.counterexample_in(
                    assignment, target
                )
                fresh_calls += fresh.stats.calls
            assert session.stats.calls == fresh_calls == 6


class TestSharedModel:
    def test_problems_over_one_pair_share_the_model(self):
        clf, space = risk_list()
        p = ExplanationProblem.from_point(clf, space, ("Junior", "Red"))
        q = ExplanationProblem.from_point(clf, space, ("Adult", "Red"))
        assert p.oracle.model is q.oracle.model
        assert p.oracle.stats is not q.oracle.stats
        find_axp(p)
        assert p.oracle.stats.calls > 0 and q.oracle.stats.calls == 0

    def test_another_classifier_object_gets_its_own_model(self):
        clf, space = risk_list()
        other, _ = risk_list()
        assert other == clf and other is not clf
        first = Oracle(clf, space).model
        assert Oracle(other, space).model is not first
        assert Oracle(other, space).model.classifier is other

    def test_constancy_check_compiles_nothing_when_a_probe_differs(self, monkeypatch):
        built = []

        class Counting(oracle_module.CompiledModel):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(oracle_module, "CompiledModel", Counting)
        monkeypatch.setattr(oracle_module, "_last", None)
        mf = load_model(ROOT / "models" / "bench_forest.json")
        assert not classifier_is_constant(mf.classifier, mf.space)
        assert built == []
        discretize(mf.classifier, mf.space)  # the counter does see a build
        assert len(built) == 1


def _chain_tree(depth):
    """x1 < 1 -> a, else x1 < 2 -> b, else ... alternating; x2 is never tested."""
    node = Leaf("a")
    for k in range(depth, 0, -1):
        node = OrdinalSplit(1, F(k), Leaf("a" if k % 2 else "b"), node)
    space = FeatureSpace((Ordinal(F(0), F(depth), INTEGER), Ordinal(F(0), F(1))))
    return DecisionTree(node, ("a", "b")), space


def _ival(lo, hi, closed=False):
    """The literal x1 in [lo, hi), or [lo, hi] when closed."""
    return SetMember(1, IntervalUnion((Interval(F(lo), F(hi), True, closed),)))


@contextmanager
def _within_seconds(seconds):
    """Fail instead of hanging when the body runs past the deadline."""

    def expire(signum, frame):
        raise AssertionError(f"not decided within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _two_literal_rules(n, first_feature):
    """n rules `x_k = p and x_(k+1) = p -> 1` on distinct binary features from
    first_feature on.  Each rule's two failed literals lead to the next rule,
    so the box reaches the rest of the list along 2^n different paths."""
    return [
        Rule((LabelEq(j, "p"), LabelEq(j + 1, "p")), "1")
        for j in range(first_feature, first_feature + 2 * n, 2)
    ]


class TestDepth:
    def test_deep_chain_tree_explains(self):
        for depth in (900, 1200):  # below and past the default recursion limit
            clf, space = _chain_tree(depth)
            problem = ExplanationProblem.from_point(clf, space, (F(0), F(0)))
            assert find_axp(problem) == (1,)

    def test_deep_ensemble_explains_like_its_tree(self):
        # past the default recursion limit: the vote search walks leaves, not nodes
        tree, space = _chain_tree(1200)
        clf = TreeEnsemble((tree, tree, tree), ("a", "b"))
        with _within_seconds(10):
            problem = ExplanationProblem.from_point(clf, space, (F(0), F(0)))
            single = ExplanationProblem.from_point(tree, space, (F(0), F(0)))
            assert find_axp(problem) == find_axp(single) == (1,)

    def test_long_single_literal_list_explains(self):
        n = 1500
        space = FeatureSpace((Ordinal(F(0), F(n), INTEGER), Ordinal(F(0), F(1))))
        rules = tuple(Rule((_ival(k, k + 1),), "ab"[k % 2]) for k in range(n))
        clf = DecisionList(rules, "a", ("a", "b"))
        problem = ExplanationProblem.from_point(clf, space, (F(0), F(0)))
        assert find_axp(problem) == (1,)
        assert find_cxp(problem) == (1,)

    def test_paths_through_shared_rules_do_not_multiply(self):
        # ... then x1 < 1/2 -> 1, default 0; the box fixes x1 = 0, so every
        # path ends in class 1, which the rules that can fire already show
        n = 40
        binary = Categorical(("p", "q"))
        space = FeatureSpace((Ordinal(F(0), F(1)),) + (binary,) * (2 * n))
        rules = _two_literal_rules(n, 2) + [Rule((_ival(0, F(1, 2)),), "1")]
        clf = DecisionList(tuple(rules), "0", ("0", "1"))
        problem = ExplanationProblem.from_point(clf, space, (F(0),) + ("q",) * (2 * n))
        with _within_seconds(10):
            assert find_axp(problem) == (1,)
            assert problem.oracle.holds_sufficiency({1: singleton_set(space.domain(1), F(0))}, "1")

    def test_shared_rules_are_bounded_inside_the_walk(self):
        # y = a -> 1 first, so the closing y = a -> 0 never fires: only the
        # region with y = b, narrowed by the walk, shows that class 0 is out
        n = 40
        binary = Categorical(("p", "q"))
        y = 2 * n + 1
        space = FeatureSpace((binary,) * (2 * n) + (Categorical(("a", "b")),))
        rules = [Rule((LabelEq(y, "a"),), "1")] + _two_literal_rules(n, 1)
        clf = DecisionList(tuple(rules + [Rule((LabelEq(y, "a"),), "0")]), "1", ("0", "1"))
        with _within_seconds(10):
            assert Oracle(clf, space).holds_sufficiency({}, "1")
            assert classifier_is_constant(clf, space)


class TestListShapes:
    """Lists the random pools rarely draw, against the brute-force scan."""

    SPACE = FeatureSpace((Ordinal(F(0), F(4)), Categorical(("red", "blue", "green"))))

    def _agree(self, clf, seed):
        rng = random.Random(seed)
        oracle = Oracle(clf, self.SPACE)
        for _ in range(150):
            if rng.random() < 0.5:
                assignment = _random_assignment(rng, self.SPACE)
            else:
                assignment = _boundary_assignment(rng, clf, self.SPACE)
            for target in clf.classes:
                want = bf_forces(clf, self.SPACE, assignment, target)
                assert oracle.holds_sufficiency(assignment, target) == want, (assignment, target)

    def test_two_literals_on_one_feature(self):
        rules = (
            Rule((_ival(0, 2), _ival(2, 4, True)), "1"),  # never fires
            Rule((_ival(1, 3), _ival(2, 4, True)), "1"),  # fires on [2, 3)
            Rule((SetMember(2, CatSet(frozenset({"red", "blue"}))), _ival(0, 2)), "1"),
        )
        self._agree(DecisionList(rules, "0", ("0", "1")), 1)

    def test_empty_condition_before_the_last_rule(self):
        rules = (
            Rule((_ival(0, 2),), "0"),
            Rule((), "1"),
            Rule((LabelEq(2, "red"),), "0"),
        )
        self._agree(DecisionList(rules, "0", ("0", "1")), 2)

    def test_label_and_label_set_on_one_feature(self):
        rules = (
            Rule((LabelEq(2, "red"), SetMember(2, CatSet(frozenset({"blue", "green"})))), "1"),
            Rule((SetMember(2, CatSet(frozenset({"red", "blue"}))), LabelEq(2, "blue")), "1"),
            Rule((_ival(1, 3), LabelEq(2, "green")), "1"),
        )
        self._agree(DecisionList(rules, "0", ("0", "1")), 3)

    def test_default_class_only(self):
        self._agree(DecisionList((), "1", ("0", "1")), 4)


class TestConstancyOnIntegerDomains:
    """Thresholds 5/2 and 3 cut [5/2, 3), which holds no integer; B lives only there."""

    def _model(self):
        space = FeatureSpace((Ordinal(F(0), F(5), INTEGER), Categorical(("a", "b"))))
        root = OrdinalSplit(1, F(5, 2), Leaf("A"), OrdinalSplit(1, F(3), Leaf("B"), Leaf("A")))
        return DecisionTree(root, ("A", "B")), space

    def test_constant_on_every_integer(self):
        clf, space = self._model()
        assert classifier_is_constant(clf, space)

    def test_problem_rejects_the_model(self):
        clf, space = self._model()
        with pytest.raises(ValidationError, match="constant classifier"):
            ExplanationProblem.from_point(clf, space, (F(1), "a"))


def _constancy_draw(rng):
    """A small model of any family, constant or not: pools keep only the
    models that are not, so they never show the constant answer."""
    kind = rng.randrange(4)
    if kind == 3:
        return random_monotone(rng, rng.randint(1, 3), n_classes=rng.choice((2, 3)))
    if rng.random() < 0.3:  # integer domains, half-step thresholds: cells with no integer
        space = FeatureSpace(
            tuple(Ordinal(F(0), F(4), INTEGER) for _ in range(rng.randint(1, 2)))
        )
    else:
        space = random_space(
            rng, rng.randint(1, 3), categorical_share=0.4, max_labels=3, hi_choices=(4,)
        )
    if kind == 0:  # a half-step literal on an integer domain may hold no integer at all
        return random_decision_list(rng, space, max_rules=4, lattice_step=F(1)), space
    if kind == 1:
        return random_tree(rng, space, depth=2), space
    classes = ("a", "b", "c")[: rng.choice((2, 3))]
    return random_forest(rng, space, classes, n_trees=rng.choice((2, 3)), depth=2), space


def _corners(clf, space):
    lows = tuple(d.labels[0] if isinstance(d, Categorical) else d.lo for d in space.domains)
    highs = tuple(d.labels[-1] if isinstance(d, Categorical) else d.hi for d in space.domains)
    return clf.predict(lows), clf.predict(highs)


class TestConstancyAgainstBruteForce:
    """`classifier_is_constant` against the scan of the whole space."""

    def _check(self, models):
        seen = Counter()
        for clf, space in models:
            low, high = _corners(clf, space)
            want = bf_forces(clf, space, {}, low)
            assert classifier_is_constant(clf, space) == want, (clf, space)
            seen[want, low == high] += 1
        return seen

    def test_random_models_of_every_family(self):
        rng = random.Random(17)
        seen = self._check(_constancy_draw(rng) for _ in range(300))
        # constant; corners agree, yet not constant (the engine decides);
        # corners differ (decided without compiling)
        assert seen[True, True] and seen[False, True] and seen[False, False], seen

    def test_pool_models_are_not_constant(self):
        pools = (
            dl_pool(40),
            forest_pool(40),
            multiclass_forest_pool(40),
            integer_pool(40),
            monotone_pool(40),
            integer_monotone_pool(40),
        )
        seen = self._check((clf, space) for pool in pools for clf, space, _ in pool)
        assert not seen[True, True] and seen[False, True], seen
