"""Cross-constructions between inflated abductive and contrastive families."""

import tracemalloc
from fractions import Fraction

import pytest

from bruteforce import bf_forces
from pools import categorical_pool, dl_pool, forest_pool, integer_pool, make_problem, monotone_pool
from xinflate.classifiers import DecisionTree, Leaf, OrdinalSplit
from xinflate.duality import (
    ExplanationSets,
    _axp_feature_options,
    _counts,
    check_hits,
    enumerate_iaxps,
    enumerate_icxps,
    iaxp_from_icxps,
    icxp_from_iaxps,
)
from xinflate.errors import BudgetExceededError, DualityConstructionError, ValidationError
from xinflate.examples import grade_model, risk_list
from xinflate.explain import ExplanationProblem, enumerate_all
from xinflate.inflate import (
    InflationConfig,
    _contrast_pieces,
    _feature_pieces,
    inflate_axp,
    shrink_cxp,
)
from xinflate.model import (
    CatSet,
    FeatureSpace,
    InflatedExplanation,
    Ordinal,
    full_set,
    vs_union,
)

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


class TestCountsBeforeBuilding:
    """The caps count each feature's entries from `grid` or the atoms, and
    refuse before any entry is built."""

    def test_witness_cap_refuses_before_building_the_grid(self):
        # delta 1/100000 puts 1,000,000 off-instance grid points on Q
        clf, space = grade_model()
        problem = ExplanationProblem.from_point(clf, space, (F(3), F(5)))
        config = InflationConfig(delta=F(1, 100000))
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError) as err:
                enumerate_icxps(problem, (1,), config, max_candidates=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == "1000000 witness combinations exceed the cap of 10"
        assert peak < 1 << 20

    def test_counts_equal_the_entries_built(self):
        pools = (dl_pool(20), forest_pool(20), integer_pool(20), monotone_pool(20))
        for clf, space, point in (case for pool in pools for case in pool):
            problem = make_problem(clf, space, point)
            for config in (InflationConfig(), InflationConfig(delta=F(3, 2))):
                for j in space.features():
                    options, witnesses = _counts(problem, j, config)
                    pieces, at = _feature_pieces(problem, j, config)
                    if len(pieces) > 1:
                        assert witnesses == len(_contrast_pieces(problem, j, config))
                    assert options == len(_axp_feature_options(pieces, at))


def _stump_problem():
    """x1 < 2 gives a, else b, over two [0, 4] features, at (1, 1): the only
    AXp and CXp is {1}, and x2 has no off-instance piece."""
    domain = Ordinal(F(0), F(4))
    clf = DecisionTree(OrdinalSplit(1, F(2), Leaf("a"), Leaf("b")), ("a", "b"))
    return ExplanationProblem.from_point(clf, FeatureSpace((domain, domain)), (F(1), F(1)))


class TestEnumerationRefusals:
    """The enumerations refuse what inflate_axp and shrink_cxp refuse."""

    @pytest.mark.parametrize(
        "enumerate_family, feats",
        [(enumerate_icxps, (2,)), (enumerate_icxps, (1, 2)), (enumerate_iaxps, (2,))],
    )
    def test_not_an_explanation_is_refused(self, enumerate_family, feats):
        with pytest.raises(ValidationError):
            enumerate_family(_stump_problem(), feats)

    @pytest.mark.parametrize(
        "enumerate_family, finish, bad",
        [
            (enumerate_iaxps, inflate_axp, [(), (1, 1), (3,), (2,)]),
            (enumerate_icxps, shrink_cxp, [(), (1, 1), (3,), (2,), (1, 2)]),
        ],
    )
    def test_refusals_match_the_single_explanation_calls(self, enumerate_family, finish, bad):
        for feats in bad:
            with pytest.raises(ValidationError) as expected:
                finish(_stump_problem(), feats)
            with pytest.raises(ValidationError) as got:
                enumerate_family(_stump_problem(), feats)
            assert str(got.value) == str(expected.value), feats

    @pytest.mark.parametrize("enumerate_family", [enumerate_iaxps, enumerate_icxps])
    def test_trusted_skips_the_one_check_call(self, enumerate_family):
        answers = []
        for trusted in (False, True):
            problem = _stump_problem()
            answers.append(enumerate_family(problem, (1,), trusted=trusted))
            answers.append(problem.oracle.stats.calls)
        checked, checked_calls, trusted_out, trusted_calls = answers
        assert checked == trusted_out and checked
        assert checked_calls == trusted_calls + 1


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

    def test_top_up_adds_the_atoms_sufficiency_allows(self):
        # the top-up grows feature 2 by red, the label its one pick shut out
        clf, space, point = forest_pool()[6]
        problem = make_problem(clf, space, point)
        icxps = [shrink_cxp(problem, y) for y in enumerate_all(problem)[1]]
        assert [e.features for e in icxps] == [(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)]
        # only the fourth picks feature 2, so the picks leave it the complement of {red}
        assert icxps[3].set_for(2) == CatSet(frozenset({"red"}))
        iaxp = iaxp_from_icxps(problem, icxps, (1, 1, 1, 2, 4))
        assert iaxp.features == (1, 2, 4)
        assert iaxp.set_for(2) == full_set(space.domain(2))
        sets = {j: iaxp.set_for(j) for j in iaxp.features}
        assert bf_forces(clf, space, sets, problem.target)
        for j in iaxp.features:  # every atom left out breaks sufficiency
            for atom in problem.oracle.model.atoms[j - 1].values():
                grown = vs_union(space.domain(j), sets[j], atom)
                if grown != sets[j]:
                    assert not bf_forces(clf, space, {**sets, j: grown}, problem.target), (j, atom)

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
