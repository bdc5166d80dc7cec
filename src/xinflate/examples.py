"""Two small reference models used across the documentation and tests.

The first is a decision list over a driver's age group and car colour that
flags "no accident risk" (class 1) unless the driver is an adult or the car
is silver or white.  The second is a two-feature linear-threshold model
grading applicants: class A from a weighted score of 12 upward, class B
below.
"""

from __future__ import annotations

from fractions import Fraction

from .classifiers import DecisionList, LabelEq, MonotonicClassifier, Rule
from .model import Categorical, FeatureSpace, Ordinal


def risk_list() -> tuple[DecisionList, FeatureSpace]:
    space = FeatureSpace(
        domains=(
            Categorical(("Junior", "Adult", "Senior")),
            Categorical(("Red", "Blue", "Green", "Silver", "Black", "White")),
        ),
        names=("A", "C"),
    )
    clf = DecisionList(
        rules=(
            Rule((LabelEq(1, "Adult"),), "0"),
            Rule((LabelEq(2, "Silver"),), "0"),
            Rule((LabelEq(2, "White"),), "0"),
        ),
        default_class="1",
        classes=("0", "1"),
    )
    return clf, space


def grade_model() -> tuple[MonotonicClassifier, FeatureSpace]:
    space = FeatureSpace(
        domains=(
            Ordinal(Fraction(0), Fraction(10)),
            Ordinal(Fraction(0), Fraction(10)),
        ),
        names=("Q", "R"),
    )
    clf = MonotonicClassifier(
        weights=(Fraction(1), Fraction(1)),
        thresholds=(Fraction(12),),
        classes=("B", "A"),
    )
    return clf, space
