"""Prediction semantics and structural validation of the four model kinds."""

from fractions import Fraction

import pytest

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
    validate_classifier,
)
from xinflate.errors import ValidationError
from xinflate.examples import grade_model, risk_list
from xinflate.model import (
    CatSet,
    Categorical,
    FeatureSpace,
    Interval,
    Ordinal,
    interval_union,
)
from xinflate.oracle import classifier_is_constant

F = Fraction
UNIT = Ordinal(F(0), F(10))


class TestMonotonic:
    def test_scores_and_classes(self):
        clf, space = grade_model()
        assert clf.predict((F(3), F(5))) == "B"
        assert clf.predict((F(7), F(5))) == "A"
        assert clf.predict((F(6), F(6))) == "A"
        assert clf.predict((F(6), F("11/2"))) == "B"

    def test_boundary_score_takes_upper_class(self):
        clf = MonotonicClassifier((F(1),), (F(5),), ("lo", "hi"))
        assert clf.predict((F(5),)) == "hi"
        assert clf.predict((F("49/10"),)) == "lo"

    def test_rejects_negative_weights(self):
        with pytest.raises(ValidationError):
            MonotonicClassifier((F(-1),), (F(5),), ("lo", "hi"))

    def test_rejects_unsorted_thresholds(self):
        with pytest.raises(ValidationError):
            MonotonicClassifier((F(1),), (F(5), F(5)), ("a", "b", "c"))

    def test_class_count_must_fit_thresholds(self):
        with pytest.raises(ValidationError):
            MonotonicClassifier((F(1),), (F(5),), ("a", "b", "c"))

    def test_dimension_checked_against_space(self):
        clf = MonotonicClassifier((F(1),), (F(5),), ("lo", "hi"))
        with pytest.raises(ValidationError):
            validate_classifier(clf, FeatureSpace((UNIT, UNIT)))

    def test_categorical_feature_rejected(self):
        clf = MonotonicClassifier((F(1),), (F(5),), ("lo", "hi"))
        with pytest.raises(ValidationError):
            validate_classifier(clf, FeatureSpace((Categorical(("a", "b")),)))


class TestDecisionList:
    def test_first_match_wins(self):
        clf, space = risk_list()
        assert clf.predict(("Adult", "Silver")) == "0"
        assert clf.predict(("Junior", "Silver")) == "0"
        assert clf.predict(("Junior", "Red")) == "1"
        assert clf.predict(("Senior", "Black")) == "1"

    def test_default_fires_when_nothing_matches(self):
        clf, space = risk_list()
        assert clf.predict(("Senior", "Green")) == "1"

    def test_interval_literal_matching(self):
        space = FeatureSpace((UNIT,))
        cond = SetMember(1, interval_union(UNIT, [Interval(F(2), F(5), True, False)]))
        clf = DecisionList((Rule((cond,), "in"),), "out", ("in", "out"))
        validate_classifier(clf, space)
        assert clf.predict((F(2),)) == "in"
        assert clf.predict((F(5),)) == "out"

    def test_interval_literal_must_be_threshold_shaped(self):
        space = FeatureSpace((UNIT,))
        open_below = SetMember(1, interval_union(UNIT, [Interval(F(2), F(5), False, False)]))
        clf = DecisionList((Rule((open_below,), "in"),), "out", ("in", "out"))
        with pytest.raises(ValidationError):
            validate_classifier(clf, space)
        closed_above_inside = SetMember(1, interval_union(UNIT, [Interval(F(2), F(5), True, True)]))
        clf = DecisionList((Rule((closed_above_inside,), "in"),), "out", ("in", "out"))
        with pytest.raises(ValidationError):
            validate_classifier(clf, space)

    def test_closed_top_allowed_at_domain_max(self):
        space = FeatureSpace((UNIT,))
        lit = SetMember(1, interval_union(UNIT, [Interval(F(2), F(10), True, True)]))
        clf = DecisionList((Rule((lit,), "in"),), "out", ("in", "out"))
        validate_classifier(clf, space)

    def test_unknown_rule_class_rejected(self):
        with pytest.raises(ValidationError):
            DecisionList((Rule((), "ghost"),), "out", ("in", "out"))


COLORS = Categorical(("red", "green"))
MIXED = FeatureSpace((UNIT, COLORS))  # feature 1 ordinal, feature 2 categorical


def _list_with(literal):
    return DecisionList((Rule((literal,), "in"),), "out", ("in", "out"))


def _tree_with(node):
    return DecisionTree(node, ("L", "H"))


# objects the model-file reader refuses before they exist, built directly
MALFORMED = [
    (_list_with(LabelEq(1, "red")), "rule 0, feature 1: label 'red' not in domain"),
    (_list_with(LabelEq(2, "blue")), "rule 0, feature 2: label 'blue' not in domain"),
    (
        _list_with(SetMember(1, CatSet(frozenset({"red"})))),
        "rule 0, feature 1: label set over an ordinal feature",
    ),
    (
        _list_with(SetMember(2, CatSet(frozenset({"red", "blue"})))),
        r"rule 0, feature 2: labels not in domain: \['blue'\]",
    ),
    (
        _list_with(SetMember(2, interval_union(UNIT, [Interval(F(0), F(5), True, False)]))),
        "rule 0, feature 2: interval set over a categorical feature",
    ),
    (_tree_with(Leaf("ghost")), "tree 0: leaf class 'ghost' not declared"),
    (
        _tree_with(OrdinalSplit(2, F(1), Leaf("L"), Leaf("H"))),
        "tree 0, feature 2: threshold split on a categorical feature",
    ),
    (
        _tree_with(LabelSplit(1, "red", Leaf("L"), Leaf("H"))),
        "tree 0, feature 1: label split on an ordinal feature",
    ),
    (
        _tree_with(LabelSplit(2, "blue", Leaf("L"), Leaf("H"))),
        "tree 0, feature 2: label 'blue' not in domain",
    ),
]


@pytest.mark.parametrize("clf, message", MALFORMED)
def test_validate_classifier_refuses_malformed_objects(clf, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        validate_classifier(clf, MIXED)
    if isinstance(clf, DecisionTree):  # an ensemble names the tree the same way
        with pytest.raises(ValidationError, match=f"^{message}$"):
            validate_classifier(TreeEnsemble((clf,), clf.classes), MIXED)


def _stump(threshold, lo_class="L", hi_class="H"):
    return DecisionTree(
        OrdinalSplit(1, F(threshold), Leaf(lo_class), Leaf(hi_class)), (lo_class, hi_class)
    )


class TestTrees:
    def test_threshold_routing(self):
        tree = _stump(5)
        assert tree.predict((F("49/10"),)) == "L"
        assert tree.predict((F(5),)) == "H"

    def test_label_split_routing(self):
        colors = Categorical(("red", "green"))
        tree = DecisionTree(LabelSplit(1, "red", Leaf("no"), Leaf("yes")), ("no", "yes"))
        validate_classifier(tree, FeatureSpace((colors,)))
        assert tree.predict(("red",)) == "yes"
        assert tree.predict(("green",)) == "no"

    def test_threshold_outside_domain_rejected(self):
        with pytest.raises(ValidationError):
            validate_classifier(_stump(11), FeatureSpace((UNIT,)))
        with pytest.raises(ValidationError):
            validate_classifier(_stump(0), FeatureSpace((UNIT,)))

    def test_majority_vote(self):
        trees = (_stump(2), _stump(5), _stump(8))
        ens = TreeEnsemble(trees, ("L", "H"))
        assert ens.predict((F(6),)) == "H"
        assert ens.predict((F(3),)) == "L"

    def test_tie_breaks_to_lowest_class_index(self):
        t1 = DecisionTree(Leaf("a"), ("a", "b"))
        t2 = DecisionTree(Leaf("b"), ("a", "b"))
        ens = TreeEnsemble((t1, t2), ("a", "b"))
        assert ens.predict((F(0),)) == "a"
        r1 = DecisionTree(Leaf("a"), ("b", "a"))
        r2 = DecisionTree(Leaf("b"), ("b", "a"))
        ens_rev = TreeEnsemble((r2, r1), ("b", "a"))
        assert ens_rev.predict((F(0),)) == "b"

    def test_ensemble_needs_shared_class_list(self):
        t1 = DecisionTree(Leaf("a"), ("a", "b"))
        t2 = DecisionTree(Leaf("x"), ("x", "y"))
        with pytest.raises(ValidationError):
            TreeEnsemble((t1, t2), ("a", "b"))


class TestIsConstant:
    def test_constant_tree(self):
        assert classifier_is_constant(DecisionTree(Leaf("only"), ("only", "other")), FeatureSpace((UNIT,)))

    def test_stump_is_not_constant(self):
        assert not classifier_is_constant(_stump(5), FeatureSpace((UNIT,)))

    def test_vacuous_list_is_constant(self):
        clf = DecisionList((), "d", ("d", "e"))
        assert classifier_is_constant(clf, FeatureSpace((UNIT,)))

    def test_risk_list_is_not_constant(self):
        clf, space = risk_list()
        assert not classifier_is_constant(clf, space)
