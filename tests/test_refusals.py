"""Refusals of bad input across the layers, one row each.

Every row is a call that must raise `ValidationError` with its message;
the rest of the suite does not reach these refusals.
"""

from fractions import Fraction

import pytest

from pools import risk_problem
from xinflate.classifiers import DecisionTree, Leaf, MonotonicClassifier, OrdinalSplit, TreeEnsemble
from xinflate.duality import icxp_from_iaxps
from xinflate.errors import ValidationError
from xinflate.examples import grade_model, risk_list
from xinflate.explain import ExplanationProblem
from xinflate.inflate import InflationConfig, inflate_axp, inflate_ordinal, shrink_cxp
from xinflate.model import (
    CatSet,
    Categorical,
    FeatureSpace,
    InflatedExplanation,
    Interval,
    IntervalUnion,
    Ordinal,
    rational,
    singleton_set,
    vs_union,
)
from xinflate.oracle import Oracle

F = Fraction
UNIT = Ordinal(F(0), F(10))
OUTSIDE = IntervalUnion((Interval(F(11), F(12)),))  # no point of [0, 10]
COLORS = Categorical(("red", "blue"))
RED = CatSet(frozenset({"red"}))


def _stump_oracle():
    stump = DecisionTree(OrdinalSplit(1, F(5), Leaf("L"), Leaf("H")), ("L", "H"))
    return Oracle(stump, FeatureSpace((UNIT,)))


def _unknown_label():
    clf, space = risk_list()
    Oracle(clf, space).holds_sufficiency({1: CatSet(frozenset({"Child"}))}, "1")


def _not_minimal_cxp():
    # contrastive, but with both instance values excluded no grid point flips it:
    # 9.5 * 3 + 10 * 2 = 48.5 < 49
    clf = MonotonicClassifier((3, 2), (49,), ("c0", "c1"))
    problem = ExplanationProblem.from_point(clf, FeatureSpace((UNIT, UNIT)), (F(10), F(8)))
    shrink_cxp(problem, (1, 2), InflationConfig(delta=F(1, 2)))


def _icxp(expls, selector):
    problem = risk_problem()
    icxp_from_iaxps(problem, expls(problem), selector)


def _iaxp(problem):
    return [inflate_axp(problem, (1, 2), trusted=True)]


def _contrastive(problem):
    return [shrink_cxp(problem, (1,))]


REFUSALS = {
    "label outside the domain in a box": (_unknown_label, r"feature 1: labels \['Child'\] not in domain"),
    "interval union outside the domain, atoms": (
        lambda: _stump_oracle().holds_sufficiency({1: OUTSIDE}, "L"),
        "interval union is empty within the domain",
    ),
    "interval union outside the domain, monotone": (
        lambda: Oracle(*grade_model()).holds_sufficiency({1: OUTSIDE}, "A"),
        "interval union is empty within the domain",
    ),
    "grid growth on a categorical feature": (
        lambda: inflate_ordinal(risk_problem(), 1, {}, InflationConfig()),
        "feature 1 is not ordinal",
    ),
    "a contrastive set that is not minimal": (
        _not_minimal_cxp,
        "no counterexample once the instance values are excluded at this granularity",
    ),
    "no explanations to dualize": (lambda: _icxp(lambda p: [], [1]), "no abductive explanations given"),
    "one pick too many": (lambda: _icxp(_iaxp, [1, 2]), "2 picks for 1 explanations"),
    "explanations of the wrong kind": (
        lambda: _icxp(_contrastive, [1]),
        "expected only abductive explanations",
    ),
    "an ensemble of no trees": (lambda: TreeEnsemble((), ("a", "b")), "ensemble needs at least one tree"),
    "duplicate class ids": (
        lambda: Oracle(DecisionTree(Leaf("a"), ("a", "b", "a")), FeatureSpace((UNIT,))),
        "duplicate class ids",
    ),
    "a split on a missing feature, before predict reads it": (
        lambda: ExplanationProblem.from_point(
            DecisionTree(OrdinalSplit(3, F(5), Leaf("L"), Leaf("H")), ("L", "H")),
            FeatureSpace((UNIT,)),
            (F(1),),
        ),
        "feature index 3 out of range 1..1",
    ),
    "an unknown search strategy": (lambda: InflationConfig(strategy="spiral"), "unknown strategy 'spiral'"),
    "an unknown ordinal kind": (lambda: Ordinal(F(0), F(1), kind="real"), "unknown ordinal kind: 'real'"),
    "a label that is no string": (lambda: Categorical(("red", 1)), "categorical labels must be strings"),
    "an interval union of no intervals": (lambda: IntervalUnion(()), "empty interval union"),
    "a space of no features": (lambda: FeatureSpace(()), "feature space needs at least one feature"),
    "more names than domains": (lambda: FeatureSpace((UNIT,), ("a", "b")), "2 names for 1 domains"),
    "an unknown explanation kind": (
        lambda: InflatedExplanation("partial", (1,), {1: RED}),
        "unknown explanation kind: 'partial'",
    ),
    "explanation features that are not its sets": (
        lambda: InflatedExplanation("abductive", (1,), {2: RED}),
        "explanation features and sets disagree",
    ),
    "a union of a label set with an interval union": (
        lambda: vs_union(COLORS, RED, OUTSIDE),
        "value set IntervalUnion does not fit domain Categorical",
    ),
    "a singleton outside its domain": (
        lambda: singleton_set(UNIT, F(11)),
        r"value 11 outside domain \[0, 10\]",
    ),
    "no value": (lambda: rational(None), "not a rational value: None"),
    "a monotone prediction of a point of the wrong length": (
        lambda: MonotonicClassifier((1, 1), (5,), ("lo", "hi")).predict((F(1),)),
        "point has 1 values, expected 2",
    ),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refused_with_its_message(call, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call()
