"""Cross-constructions between inflated abductive and contrastive families."""

from fractions import Fraction

import pytest

from pools import categorical_pool
from xinflate.duality import (
    ExplanationSets,
    check_hits,
    enumerate_iaxps,
    enumerate_icxps,
    iaxp_from_icxps,
    icxp_from_iaxps,
)
from xinflate.errors import DualityConstructionError, ValidationError
from xinflate.examples import grade_model, risk_list
from xinflate.explain import ExplanationProblem, enumerate_all
from xinflate.inflate import InflationConfig, inflate_axp
from xinflate.model import CatSet, InflatedExplanation, full_set

F = Fraction


def _risk_problem():
    clf, space = risk_list()
    return ExplanationProblem.from_point(clf, space, ("Junior", "Red"))


def _risk_iaxp(problem):
    return inflate_axp(problem, (1, 2), trusted=True)


class TestExplanationSets:
    def test_worked_example_is_mutually_dual(self):
        problem = _risk_problem()
        sets = ExplanationSets(*enumerate_all(problem))
        assert sets.axps == ((1, 2),)
        assert sets.cxps == ((1,), (2,))
        assert sets.mhs_dual()

    def test_broken_family_fails(self):
        assert not ExplanationSets(((1,),), ((2,),)).mhs_dual()

    def test_random_models_are_mutually_dual(self):
        for clf, space, point in categorical_pool(25, seed=111):
            problem = ExplanationProblem.from_point(clf, space, point)
            assert ExplanationSets(*enumerate_all(problem)).mhs_dual()


class TestEnumerateInflatedFamilies:
    def test_risk_has_one_locally_maximal_family(self):
        problem = _risk_problem()
        families = enumerate_iaxps(problem, (1, 2))
        assert len(families) == 1
        expl = families[0]
        assert expl.set_for(1) == CatSet(frozenset({"Junior", "Senior"}))
        assert expl.set_for(2) == CatSet(frozenset({"Red", "Blue", "Green", "Black"}))

    def test_risk_contrastive_witness_families(self):
        problem = _risk_problem()
        found = []
        for y in ((1,), (2,)):
            for expl in enumerate_icxps(problem, y):
                found.append({j: expl.set_for(j) for j in expl.features})
        assert found == [
            {1: CatSet(frozenset({"Adult"}))},
            {2: CatSet(frozenset({"Silver"}))},
            {2: CatSet(frozenset({"White"}))},
        ]

    def test_greedy_inflation_lands_on_an_enumerated_family(self):
        for clf, space, point in categorical_pool(15, seed=112):
            problem = ExplanationProblem.from_point(clf, space, point)
            axps, _ = enumerate_all(problem)
            for axp in axps:
                expl = inflate_axp(problem, axp, trusted=True)
                families = enumerate_iaxps(problem, axp)
                greedy = {j: expl.set_for(j) for j in axp}
                assert any(
                    greedy == {j: fam.set_for(j) for j in axp} for fam in families
                ), "greedy result must be one of the locally maximal families"

    def test_negative_cap_rejected(self):
        problem = _risk_problem()
        for enumerate_family, feats in ((enumerate_iaxps, (1, 2)), (enumerate_icxps, (1,))):
            with pytest.raises(ValidationError, match="non-negative"):
                enumerate_family(problem, feats, max_candidates=-1)


class TestCheckHits:
    def test_worked_pairs_expose_a_blocking_feature(self):
        problem = _risk_problem()
        iaxp = _risk_iaxp(problem)
        icxp_a = enumerate_icxps(problem, (1,))[0]
        icxp_c = enumerate_icxps(problem, (2,))[0]
        assert check_hits(problem, iaxp, icxp_a) == 1
        assert check_hits(problem, iaxp, icxp_c) == 2

    def test_kind_mismatch_rejected(self):
        problem = _risk_problem()
        iaxp = _risk_iaxp(problem)
        with pytest.raises(ValidationError):
            check_hits(problem, iaxp, iaxp)

    def test_no_hit_returns_none(self):
        problem = _risk_problem()
        iaxp = _risk_iaxp(problem)
        overlapping = InflatedExplanation(
            kind="contrastive", features=(1,), sets={1: CatSet(frozenset({"Senior"}))}
        )
        assert check_hits(problem, iaxp, overlapping) is None


class TestContrastiveFromAbductive:
    def test_selector_one_yields_adult(self):
        problem = _risk_problem()
        icxp = icxp_from_iaxps(problem, [_risk_iaxp(problem)], [1])
        assert icxp.features == (1,)
        assert icxp.set_for(1) == CatSet(frozenset({"Adult"}))

    def test_selector_two_yields_silver_and_white(self):
        problem = _risk_problem()
        icxp = icxp_from_iaxps(problem, [_risk_iaxp(problem)], [2])
        assert icxp.features == (2,)
        assert icxp.set_for(2) == CatSet(frozenset({"Silver", "White"}))

    def test_callable_selector(self):
        problem = _risk_problem()
        icxp = icxp_from_iaxps(problem, [_risk_iaxp(problem)], lambda expl: 2)
        assert icxp.features == (2,)

    def test_full_set_complement_is_an_error(self):
        problem = _risk_problem()
        fake = InflatedExplanation(
            kind="abductive",
            features=(1,),
            sets={1: full_set(problem.space.domain(1))},
        )
        with pytest.raises(DualityConstructionError):
            icxp_from_iaxps(problem, [fake], [1])

    def test_selector_must_pick_member_features(self):
        problem = _risk_problem()
        with pytest.raises(ValidationError):
            icxp_from_iaxps(problem, [_risk_iaxp(problem)], [3])


class TestAbductiveFromContrastive:
    def test_reconstructs_the_paper_sets(self):
        problem = _risk_problem()
        icxps = [
            enumerate_icxps(problem, (1,))[0],
            enumerate_icxps(problem, (2,))[0],
            enumerate_icxps(problem, (2,))[1],
        ]
        iaxp = iaxp_from_icxps(problem, icxps, [1, 2, 2])
        assert iaxp.features == (1, 2)
        assert iaxp.set_for(1) == CatSet(frozenset({"Junior", "Senior"}))
        assert iaxp.set_for(2) == CatSet(frozenset({"Red", "Blue", "Green", "Black"}))

    def test_round_trip_through_both_constructions(self):
        problem = _risk_problem()
        iaxp = _risk_iaxp(problem)
        icxp1 = icxp_from_iaxps(problem, [iaxp], [1])
        icxp2 = icxp_from_iaxps(problem, [iaxp], [2])
        back = iaxp_from_icxps(problem, [icxp1, icxp2], [1, 2])
        assert {j: back.set_for(j) for j in back.features} == {
            j: iaxp.set_for(j) for j in iaxp.features
        }


class TestPlainContrast:
    def test_weak_form_holds_for_risk_witnesses(self):
        problem = _risk_problem()
        iaxp = _risk_iaxp(problem)
        for y in ((1,), (2,)):
            for icxp in enumerate_icxps(problem, y):
                assert problem.counterexample_in(
                    {j: iaxp.set_for(j) for j in iaxp.features if j not in icxp.features}
                )
