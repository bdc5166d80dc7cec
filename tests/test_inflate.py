"""Growing explanations to maximal value sets, and shrinking contrastive ones."""

import random
from fractions import Fraction

import pytest

from bruteforce import bf_forces
from pools import categorical_pool, dl_pool, forest_pool, make_problem, monotone_pool
from xinflate import duality as duality_module, inflate as inflate_module
from xinflate.classifiers import DecisionTree, LabelSplit, Leaf, OrdinalSplit, MonotonicClassifier
from xinflate.duality import (
    enumerate_iaxps,
    enumerate_icxps,
    iaxp_from_icxps,
    icxp_from_iaxps,
)
from xinflate.errors import DualityConstructionError, ValidationError
from xinflate.examples import grade_model, risk_list
from xinflate.explain import ExplanationProblem, find_axp, find_cxp
from xinflate.inflate import (
    BINARY,
    LINEAR,
    InflationConfig,
    feature_atoms,
    inflate_axp,
    inflate_from_full,
    shrink_cxp,
)
from xinflate.model import (
    CatSet,
    Categorical,
    FeatureSpace,
    Interval,
    IntervalUnion,
    Ordinal,
    INTEGER,
    interval_union,
    singleton_set,
    vs_contains,
    vs_pieces,
    vs_subset,
    vs_union,
)

F = Fraction


def _risk_problem():
    clf, space = risk_list()
    return ExplanationProblem.from_point(clf, space, ("Junior", "Red"))


def _grade_problem():
    clf, space = grade_model()
    return ExplanationProblem.from_point(clf, space, (F(3), F(5)))


class TestConfig:
    def test_defaults(self):
        config = InflationConfig()
        assert config.delta == F(1, 5)
        assert config.strategy == LINEAR
        assert config.beta is None

    def test_delta_must_be_positive(self):
        with pytest.raises(ValidationError):
            InflationConfig(delta=F(0))

    def test_beta_requires_linear_strategy(self):
        with pytest.raises(ValidationError):
            InflationConfig(delta=F(1, 4), beta=F(1), strategy=BINARY)

    def test_beta_must_be_coarser_multiple(self):
        with pytest.raises(ValidationError):
            InflationConfig(delta=F(1, 4), beta=F(1, 4))
        with pytest.raises(ValidationError):
            InflationConfig(delta=F(1, 4), beta=F(3, 8))
        InflationConfig(delta=F(1, 4), beta=F(1))


class TestCategoricalInflation:
    def test_risk_worked_sets(self):
        problem = _risk_problem()
        axp = find_axp(problem)
        expl = inflate_axp(problem, axp, trusted=True)
        assert expl.kind == "abductive"
        assert expl.features == (1, 2)
        assert expl.probe_order == (1, 2)
        assert expl.set_for(1) == CatSet(frozenset({"Junior", "Senior"}))
        assert expl.set_for(2) == CatSet(frozenset({"Red", "Blue", "Green", "Black"}))

    def test_probe_budget_is_domain_sizes(self):
        problem = _risk_problem()
        axp = find_axp(problem)
        before = problem.oracle.stats.calls
        inflate_axp(problem, axp, trusted=True)
        assert problem.oracle.stats.calls - before == (3 - 1) + (6 - 1)

    def test_untrusted_input_is_checked(self):
        problem = _risk_problem()
        with pytest.raises(ValidationError):
            inflate_axp(problem, (1,))

    def test_feature_atoms_reject_an_index_out_of_range(self):
        problem = _risk_problem()
        atoms, seed = feature_atoms(problem, 1)
        assert atoms[seed] == CatSet(frozenset({"Junior"}))
        for j in (0, 3):
            with pytest.raises(ValidationError):
                feature_atoms(problem, j)

    def test_explicit_order_is_recorded(self):
        problem = _risk_problem()
        expl = inflate_axp(problem, (1, 2), InflationConfig(order=(2, 1)), trusted=True)
        assert expl.probe_order == (2, 1)
        assert expl.set_for(1) == CatSet(frozenset({"Junior", "Senior"}))
        assert expl.set_for(2) == CatSet(frozenset({"Red", "Blue", "Green", "Black"}))

    def test_maximality_under_single_label_additions(self):
        problem = _risk_problem()
        clf, space = problem.classifier, problem.space
        expl = inflate_axp(problem, (1, 2), trusted=True)
        for j in expl.features:
            base = {i: expl.set_for(i) for i in expl.features}
            for label in space.domain(j).labels:
                if vs_contains(expl.set_for(j), label):
                    continue
                grown = dict(base)
                grown[j] = CatSet(expl.set_for(j).labels | {label})
                assert not bf_forces(clf, space, grown, problem.target)


def _union_probe_grow(problem, j, current, kept, atoms):
    """The growth loop probing kept ∪ atom, as a reference for grow."""
    domain = problem.space.domain(j)
    for atom in atoms:
        if vs_subset(domain, atom, kept):
            continue
        trial = vs_union(domain, kept, atom)
        if problem.sufficiency_holds({**current, j: trial}):
            kept = trial
    return kept


class TestGrowth:
    @staticmethod
    def _inflate_and_rebuild(clf, space, point):
        """inflate_axp, then iaxp_from_icxps on one ICXp per feature (None
        when that construction fails before growing): both grow sets."""
        problem = make_problem(clf, space, point)
        iaxp = inflate_axp(problem, find_axp(problem), trusted=True)
        try:
            icxps = [icxp_from_iaxps(problem, [iaxp], [j]) for j in iaxp.features]
            back = iaxp_from_icxps(problem, icxps, list(iaxp.features)).sets
        except DualityConstructionError:
            back = None
        return iaxp.sets, back, problem.oracle.stats.calls

    @pytest.mark.parametrize("pool", [forest_pool, dl_pool, categorical_pool])
    def test_atom_probes_match_union_probes(self, pool, monkeypatch):
        problems = pool()
        got = [self._inflate_and_rebuild(*p) for p in problems]
        assert sum(back is not None for _, back, _ in got) > len(got) // 2
        monkeypatch.setattr(inflate_module, "grow", _union_probe_grow)
        monkeypatch.setattr(duality_module, "grow", _union_probe_grow)
        assert [self._inflate_and_rebuild(*p) for p in problems] == got


class TestOrdinalGridInflation:
    def test_grade_worked_intervals(self):
        problem = _grade_problem()
        expl = inflate_axp(problem, (1, 2), InflationConfig(delta=F(1, 2)), trusted=True)
        assert expl.delta == F(1, 2)
        assert expl.set_for(1) == interval_union(
            problem.space.domain(1), [Interval(F(0), F(13, 2), True, True)]
        )
        assert expl.set_for(2) == interval_union(
            problem.space.domain(2), [Interval(F(0), F(5), True, True)]
        )

    def test_grade_maximality_at_delta(self):
        problem = _grade_problem()
        clf, space = problem.classifier, problem.space
        delta = F(1, 2)
        expl = inflate_axp(problem, (1, 2), InflationConfig(delta=delta), trusted=True)
        for j in (1, 2):
            sets = {i: expl.set_for(i) for i in (1, 2)}
            iv = expl.set_for(j).intervals[0]
            if iv.hi < space.domain(j).hi:
                sets[j] = interval_union(space.domain(j), [Interval(iv.lo, iv.hi + delta, True, True)])
                assert not bf_forces(clf, space, sets, problem.target)

    def test_integer_domain_rounds_step_up(self):
        space = FeatureSpace((Ordinal(F(0), F(10), INTEGER),))
        clf = MonotonicClassifier((F(1),), (F(5),), ("L", "H"))
        problem = ExplanationProblem.from_point(clf, space, (F(2),))
        expl = inflate_axp(problem, (1,), InflationConfig(delta=F(1, 3)), trusted=True)
        (iv,) = expl.set_for(1).intervals
        assert (iv.lo, iv.hi) == (F(0), F(4))
        assert iv.lo_closed and iv.hi_closed

    def test_strategies_return_identical_endpoints(self):
        config_by_name = {
            "linear": InflationConfig(delta=F(1, 4)),
            "beta": InflationConfig(delta=F(1, 4), beta=F(1)),
            "binary": InflationConfig(delta=F(1, 4), strategy=BINARY),
        }
        for clf, space, point in monotone_pool(30, seed=91):
            results = {}
            for name, config in config_by_name.items():
                problem = ExplanationProblem.from_point(clf, space, point)
                axp = find_axp(problem)
                expl = inflate_axp(problem, axp, config, trusted=True)
                results[name] = {j: expl.set_for(j) for j in expl.features}
            assert results["linear"] == results["beta"] == results["binary"]


def _three_band_tree():
    """x < 3 and x >= 6 share a class; the middle band differs."""
    space = FeatureSpace((Ordinal(F(0), F(9)),))
    root = OrdinalSplit(1, F(3), Leaf("c"), OrdinalSplit(1, F(6), Leaf("d"), Leaf("c")))
    return DecisionTree(root, ("c", "d")), space


class TestCellInflation:
    def test_stump_keeps_its_own_side(self):
        space = FeatureSpace((Ordinal(F(0), F(10)),))
        clf = DecisionTree(OrdinalSplit(1, F(5), Leaf("B"), Leaf("A")), ("A", "B"))
        problem = ExplanationProblem.from_point(clf, space, (F(2),))
        expl = inflate_axp(problem, (1,), trusted=True)
        assert expl.delta == F(0)
        (iv,) = expl.set_for(1).intervals
        assert (iv.lo, iv.hi, iv.lo_closed, iv.hi_closed) == (F(0), F(5), True, False)

    def test_non_contiguous_cells_are_reunited(self):
        clf, space = _three_band_tree()
        problem = ExplanationProblem.from_point(clf, space, (F(1),))
        expl = inflate_axp(problem, (1,), trusted=True)
        pieces = expl.set_for(1).intervals
        assert len(pieces) == 2
        assert (pieces[0].lo, pieces[0].hi, pieces[0].hi_closed) == (F(0), F(3), False)
        assert (pieces[1].lo, pieces[1].hi, pieces[1].hi_closed) == (F(6), F(9), True)

    def test_middle_band_instance_stays_inside(self):
        clf, space = _three_band_tree()
        problem = ExplanationProblem.from_point(clf, space, (F(4),))
        expl = inflate_axp(problem, (1,), trusted=True)
        (iv,) = expl.set_for(1).intervals
        assert (iv.lo, iv.hi, iv.lo_closed, iv.hi_closed) == (F(3), F(6), True, False)

    def test_endpoints_sit_on_split_values(self):
        clf, space = _three_band_tree()
        problem = ExplanationProblem.from_point(clf, space, (F(1),))
        expl = inflate_axp(problem, (1,), trusted=True)
        boundary = {F(0), F(3), F(6), F(9)}
        for iv in expl.set_for(1).intervals:
            assert iv.lo in boundary and iv.hi in boundary


class TestInflateFromFull:
    def test_risk_full_pin_drops_nothing_but_widens(self):
        problem = _risk_problem()
        expl = inflate_from_full(problem)
        assert expl.features == (1, 2)
        assert expl.set_for(1) == CatSet(frozenset({"Junior", "Senior"}))
        assert expl.set_for(2) == CatSet(frozenset({"Red", "Blue", "Green", "Black"}))

    def test_sufficiency_holds_for_the_surviving_sets(self):
        problem = _grade_problem()
        expl = inflate_from_full(problem, InflationConfig(delta=F(1, 2)))
        sets = {j: expl.set_for(j) for j in expl.features}
        assert bf_forces(problem.classifier, problem.space, sets, problem.target)


class TestShrinkCxp:
    def test_risk_single_feature_witnesses(self):
        expl = shrink_cxp(_risk_problem(), (1,))
        assert expl.kind == "contrastive"
        assert expl.set_for(1) == CatSet(frozenset({"Adult"}))
        expl = shrink_cxp(_risk_problem(), (2,))
        assert expl.set_for(2) == CatSet(frozenset({"White"}))

    def test_instance_value_is_excluded(self):
        problem = _grade_problem()
        expl = shrink_cxp(problem, (1,), InflationConfig(delta=F(1, 2)))
        assert not vs_contains(expl.set_for(1), F(3))
        assert vs_pieces(expl.set_for(1)) == 1

    def test_witness_set_actually_flips(self):
        problem = _grade_problem()
        expl = shrink_cxp(problem, (1,), InflationConfig(delta=F(1, 2)))
        sets = {2: singleton_set(problem.space.domain(2), F(5)), 1: expl.set_for(1)}
        assert not bf_forces(problem.classifier, problem.space, sets, problem.target)

    def test_non_contrastive_set_rejected(self):
        clf, space = risk_list()
        problem = ExplanationProblem.from_point(clf, space, ("Adult", "Silver"))
        with pytest.raises(ValidationError):
            shrink_cxp(problem, (2,))

    def test_cell_model_witnesses_are_single_cells(self):
        clf, space = _three_band_tree()
        problem = ExplanationProblem.from_point(clf, space, (F(1),))
        expl = shrink_cxp(problem, (1,))
        assert vs_pieces(expl.set_for(1)) == 1
        (iv,) = expl.set_for(1).intervals
        assert F(3) <= iv.lo and iv.hi <= F(6)


def _integer_gap_problem():
    """Thresholds 5/2 and 3 leave the integer feature a cell [5/2, 3) without an integer."""
    space = FeatureSpace((Ordinal(F(0), F(5), INTEGER), Categorical(("a", "b"))))
    high = OrdinalSplit(1, F(3), Leaf("B"), LabelSplit(2, "b", Leaf("A"), Leaf("B")))
    clf = DecisionTree(OrdinalSplit(1, F(5, 2), Leaf("A"), high), ("A", "B"))
    return ExplanationProblem.from_point(clf, space, (F(0), "b"))


class TestIntegerCellWithoutInteger:
    def test_inflation_skips_the_empty_cell(self):
        problem = _integer_gap_problem()
        expl = inflate_axp(problem, (1,), trusted=True)
        assert problem.oracle.stats.calls == 1
        assert expl.set_for(1) == interval_union(problem.space.domain(1), [Interval(F(0), F(2))])

    def test_contrastive_and_enumerated_families(self):
        problem = _integer_gap_problem()
        domain = problem.space.domain(1)
        low = interval_union(domain, [Interval(F(0), F(2))])
        high = interval_union(domain, [Interval(F(3), F(5))])
        assert shrink_cxp(problem, (1,)).sets == {1: high}
        assert [e.sets for e in enumerate_icxps(problem, (1,))] == [{1: high}]
        assert [e.sets for e in enumerate_iaxps(problem, (1,))] == [{1: low}]
