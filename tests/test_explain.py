"""Minimal explanation extraction and family enumeration."""

import random
from fractions import Fraction

import pytest

from bruteforce import bf_forces
from pools import dl_pool, monotone_pool
from xinflate.classifiers import DecisionList
from xinflate.errors import BudgetExceededError, ValidationError
from xinflate.examples import grade_model, risk_list
from xinflate.explain import (
    ExplanationProblem,
    enumerate_all,
    find_axp,
    find_cxp,
    minimal_hitting_sets,
)
from xinflate.model import FeatureSpace, Instance, Ordinal, singleton_set

F = Fraction


def _risk_problem():
    clf, space = risk_list()
    return ExplanationProblem.from_point(clf, space, ("Junior", "Red"))


def _grade_problem():
    clf, space = grade_model()
    return ExplanationProblem.from_point(clf, space, (F(3), F(5)))


class TestProblemSetup:
    def test_prediction_is_the_target(self):
        assert _risk_problem().target == "1"
        assert _grade_problem().target == "B"

    def test_mispredicted_instance_rejected(self):
        clf, space = risk_list()
        with pytest.raises(ValidationError) as err:
            ExplanationProblem(clf, space, Instance(("Junior", "Red"), "0"))
        assert "predicts" in str(err.value)

    def test_constant_classifier_rejected(self):
        clf = DecisionList((), "d", ("d", "e"))
        space = FeatureSpace((Ordinal(F(0), F(1)),))
        with pytest.raises(ValidationError):
            ExplanationProblem(clf, space, Instance((F(0),), "d"))

    def test_point_is_validated(self):
        clf, space = risk_list()
        with pytest.raises(ValidationError):
            ExplanationProblem.from_point(clf, space, ("Junior", "Mauve"))

    def test_pins_are_built_once_and_checked(self):
        for problem in (_risk_problem(), _grade_problem()):
            m = problem.space.m
            for j in (0, m + 1):
                with pytest.raises(ValidationError, match="out of range"):
                    problem.pin(j)
            for j in problem.space.features():
                assert problem.pin(j) == singleton_set(problem.space.domain(j), problem.value_of(j))
                assert problem.pin(j) is problem.pin(j)


class TestFindAxp:
    def test_risk_axp_needs_both_features(self):
        problem = _risk_problem()
        assert find_axp(problem) == (1, 2)
        assert problem.oracle.stats.calls == 2

    def test_grade_axp(self):
        assert find_axp(_grade_problem()) == (1, 2)

    def test_axp_respects_order(self):
        problem = _risk_problem()
        assert find_axp(problem, order=(2, 1)) == (1, 2)

    def test_order_must_be_permutation(self):
        problem = _risk_problem()
        with pytest.raises(ValidationError):
            find_axp(problem, order=(1, 1))
        with pytest.raises(ValidationError):
            find_axp(problem, order=(1,))
        with pytest.raises(ValidationError):
            find_axp(problem, order=(1, 3))

    def test_axp_call_count_is_feature_count(self):
        for clf, space, point in dl_pool(20, seed=81):
            problem = ExplanationProblem.from_point(clf, space, point)
            find_axp(problem)
            assert problem.oracle.stats.calls == space.m


class TestFindCxp:
    def test_risk_cxp_depends_on_retention_order(self):
        assert find_cxp(_risk_problem(), order=(1, 2)) == (1,)
        assert find_cxp(_risk_problem(), order=(2, 1)) == (2,)

    def test_grade_cxp(self):
        assert find_cxp(_grade_problem()) == (1,)

    def test_cxp_predicate_and_minimality(self):
        problem = _risk_problem()
        cxp = find_cxp(problem)
        assert problem.wcxp_holds(cxp)
        for t in cxp:
            smaller = tuple(j for j in cxp if j != t)
            assert not problem.wcxp_holds(smaller)


class TestPredicatesAgainstBruteForce:
    def _pins(self, problem, subset):
        return {
            j: singleton_set(problem.space.domain(j), problem.value_of(j)) for j in subset
        }

    def test_axp_sound_and_minimal(self):
        pool = dl_pool(30, seed=82) + monotone_pool(20, seed=83)
        for clf, space, point in pool:
            problem = ExplanationProblem.from_point(clf, space, point)
            axp = find_axp(problem)
            assert bf_forces(clf, space, self._pins(problem, axp), problem.target)
            for t in axp:
                rest = self._pins(problem, tuple(j for j in axp if j != t))
                assert not bf_forces(clf, space, rest, problem.target)

    def test_cxp_sound_and_minimal(self):
        pool = dl_pool(30, seed=82) + monotone_pool(20, seed=83)
        for clf, space, point in pool:
            problem = ExplanationProblem.from_point(clf, space, point)
            cxp = find_cxp(problem)
            others = tuple(j for j in space.features() if j not in cxp)
            assert not bf_forces(clf, space, self._pins(problem, others), problem.target)
            for t in cxp:
                kept = others + (t,)
                assert bf_forces(clf, space, self._pins(problem, kept), problem.target)


class TestEnumerateAll:
    def test_risk_families(self):
        axps, cxps = enumerate_all(_risk_problem())
        assert axps == ((1, 2),)
        assert cxps == ((1,), (2,))

    def test_grade_families(self):
        axps, cxps = enumerate_all(_grade_problem())
        assert axps == ((1, 2),)
        assert cxps == ((1,), (2,))

    def test_every_enumerated_set_passes_its_predicate(self):
        for clf, space, point in dl_pool(15, seed=84):
            problem = ExplanationProblem.from_point(clf, space, point)
            axps, cxps = enumerate_all(problem)
            assert axps, "a non-constant model always has an abductive explanation"
            assert cxps, "a non-constant model always has a contrastive explanation"
            for x in axps:
                assert problem.waxp_holds(x)
                for t in x:
                    assert not problem.waxp_holds(tuple(j for j in x if j != t))
            for y in cxps:
                assert problem.wcxp_holds(y)
                for t in y:
                    assert not problem.wcxp_holds(tuple(j for j in y if j != t))

    def test_budget_trip_reports_partials(self):
        problem = _risk_problem()
        with pytest.raises(BudgetExceededError) as err:
            enumerate_all(problem, max_subsets=2)
        partial = err.value.partial
        assert partial is not None
        assert set(partial) == {"axps", "cxps", "complete"}
        assert partial["complete"] is False

    def test_negative_budget_rejected(self):
        with pytest.raises(ValidationError, match="non-negative"):
            enumerate_all(_risk_problem(), max_subsets=-1)


class TestMinimalHittingSets:
    def test_textbook_family(self):
        mhs = minimal_hitting_sets([(1, 2), (2, 3)])
        assert mhs == ((2,), (1, 3))

    def test_single_sets_force_their_elements(self):
        assert minimal_hitting_sets([(4,), (7,)]) == ((4, 7),)

    def test_empty_family_is_hit_by_empty_set(self):
        assert minimal_hitting_sets([]) == ((),)

    def test_negative_budget_rejected(self):
        for family in ([(1, 2), (2, 3)], []):
            with pytest.raises(ValidationError, match="non-negative"):
                minimal_hitting_sets(family, max_subsets=-1)

    def test_empty_member_rejected(self):
        with pytest.raises(ValidationError):
            minimal_hitting_sets([(1,), ()])

    def test_budget_trip(self):
        # {1}, {2}, {3}, then {1, 3}: four tests find both minimal hitting sets
        family = [(1, 2), (2, 3)]
        assert minimal_hitting_sets(family, max_subsets=4) == ((2,), (1, 3))
        for budget in (0, 3):
            with pytest.raises(BudgetExceededError) as err:
                minimal_hitting_sets(family, max_subsets=budget)
            assert str(err.value) == f"hitting set search exceeded {budget} tests"

    def test_duality_on_worked_example(self):
        axps, cxps = enumerate_all(_risk_problem())
        assert minimal_hitting_sets(cxps) == axps
        assert minimal_hitting_sets(axps) == cxps

    def test_random_families_are_mutually_dual(self):
        rng = random.Random(9)
        for clf, space, point in dl_pool(25, seed=85):
            problem = ExplanationProblem.from_point(clf, space, point)
            axps, cxps = enumerate_all(problem)
            assert minimal_hitting_sets(cxps) == axps
            assert minimal_hitting_sets(axps) == cxps
