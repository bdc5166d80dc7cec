"""Growing explanations to maximal value sets, and shrinking contrastive ones."""

import ast
import math
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

from bruteforce import bf_forces, grid_points, grid_step
from pools import (
    categorical_pool,
    dl_pool,
    forest_pool,
    fractional_monotone_pool,
    grade_problem,
    integer_monotone_pool,
    integer_pool,
    make_problem,
    monotone_pool,
    risk_problem,
)
from xinflate import duality as duality_module, inflate as inflate_module
from xinflate.classifiers import DecisionTree, LabelSplit, Leaf, OrdinalSplit, MonotonicClassifier
from xinflate.duality import (
    enumerate_iaxps,
    enumerate_icxps,
    iaxp_from_icxps,
    icxp_from_iaxps,
)
from xinflate.errors import BudgetExceededError, DualityConstructionError, ValidationError
from xinflate.examples import risk_list
from xinflate.explain import ExplanationProblem, enumerate_all, find_axp, find_cxp
from xinflate.inflate import (
    BINARY,
    LINEAR,
    InflationConfig,
    inflate_axp,
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
    full_set,
    interval_union,
    singleton_set,
    vs_contains,
    vs_pieces,
    vs_subset,
    vs_union,
)
from xinflate.serialize import load_model, parse_point

F = Fraction


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
        problem = risk_problem()
        axp = find_axp(problem)
        expl = inflate_axp(problem, axp, trusted=True)
        assert expl.kind == "abductive"
        assert expl.features == (1, 2)
        assert expl.probe_order == (1, 2)
        assert expl.set_for(1) == CatSet(frozenset({"Junior", "Senior"}))
        assert expl.set_for(2) == CatSet(frozenset({"Red", "Blue", "Green", "Black"}))

    def test_probe_budget_is_domain_sizes(self):
        problem = risk_problem()
        axp = find_axp(problem)
        before = problem.oracle.stats.calls
        inflate_axp(problem, axp, trusted=True)
        assert problem.oracle.stats.calls - before == (3 - 1) + (6 - 1)

    def test_untrusted_input_is_checked(self):
        problem = risk_problem()
        with pytest.raises(ValidationError):
            inflate_axp(problem, (1,))

    def test_feature_atoms_reject_an_index_out_of_range(self):
        problem = risk_problem()
        bits, at = inflate_module._atom_bits(problem, 1)
        assert problem.oracle.model.atoms[0][bits[at]] == CatSet(frozenset({"Junior"}))
        for j in (0, 3):
            with pytest.raises(ValidationError):
                inflate_module._atom_bits(problem, j)

    def test_explicit_order_is_recorded(self):
        problem = risk_problem()
        expl = inflate_axp(problem, (1, 2), InflationConfig(order=(2, 1)), trusted=True)
        assert expl.probe_order == (2, 1)
        assert expl.set_for(1) == CatSet(frozenset({"Junior", "Senior"}))
        assert expl.set_for(2) == CatSet(frozenset({"Red", "Blue", "Green", "Black"}))

    def test_maximality_under_single_label_additions(self):
        problem = risk_problem()
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


def _bits(problem, j):
    return inflate_module._atom_bits(problem, j)[0]


def _value_set_atoms(problem, j):
    """Feature j's atoms as value sets, and the index of the one holding the instance value."""
    atoms = list(problem.oracle.model.atoms[j - 1].values())
    return atoms, next(i for i, a in enumerate(atoms) if vs_contains(a, problem.value_of(j)))


def _union_probe_grow(problem, j, current, kept, bits):
    """The growth loop probing kept ∪ atom as value sets, as a reference for
    grow.  kept is a mask, as grow takes it; its set is joined with the set
    current gives j, which may hold parts of atoms.  Returns a mask."""
    domain = problem.space.domain(j)
    atom_of = problem.oracle.model.atoms[j - 1]
    kept_set = vs_union(domain, current[j], *(a for bit, a in atom_of.items() if bit & kept))
    for bit in bits:
        atom = atom_of[bit]
        if vs_subset(domain, atom, kept_set):
            continue
        trial = vs_union(domain, kept_set, atom)
        if problem.sufficiency_holds({**current, j: trial}):
            kept_set, kept = trial, kept | bit
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

    @pytest.mark.parametrize("pool", [forest_pool, dl_pool, categorical_pool, integer_pool])
    def test_a_multi_atom_kept_is_topped_up_as_by_union_probes(self, pool, monkeypatch):
        """The `iaxp_from_icxps` top-up starts grow from complements, which
        hold several atoms: only the atoms outside them are probed."""
        problems = pool()
        atoms_inside = []

        def recording_grow(problem, j, current, kept, bits):
            atoms_inside.append(kept.bit_count())
            return inflate_module.grow(problem, j, current, kept, bits)

        monkeypatch.setattr(duality_module, "grow", recording_grow)
        got = [self._inflate_and_rebuild(*p) for p in problems]
        assert sum(n > 1 for n in atoms_inside) > len(atoms_inside) // 4
        monkeypatch.setattr(duality_module, "grow", _union_probe_grow)
        assert [self._inflate_and_rebuild(*p) for p in problems] == got

    def test_an_atom_partly_inside_kept_is_probed(self):
        clf, space = _three_band_tree()
        domain = space.domain(1)
        kept = interval_union(domain, [Interval(F(0), F(3), True, False), Interval(F(6), F(7))])
        results = []
        for grow in (inflate_module.grow, _union_probe_grow):
            problem = ExplanationProblem.from_point(clf, space, (F(1),))
            inside = problem.oracle.model.inside(0, kept)
            grown = grow(problem, 1, {1: kept}, inside, _bits(problem, 1))
            results.append((inflate_module._entry_set(problem, 1, grown), problem.oracle.stats.calls))
        whole = interval_union(domain, [Interval(F(0), F(3), True, False), Interval(F(6), F(9))])
        assert results == [(whole, 2)] * 2


class TestOrdinalGridInflation:
    def test_grade_worked_intervals(self):
        problem = grade_problem()
        expl = inflate_axp(problem, (1, 2), InflationConfig(delta=F(1, 2)), trusted=True)
        assert expl.delta == F(1, 2)
        assert expl.set_for(1) == interval_union(
            problem.space.domain(1), [Interval(F(0), F(13, 2), True, True)]
        )
        assert expl.set_for(2) == interval_union(
            problem.space.domain(2), [Interval(F(0), F(5), True, True)]
        )

    def test_grade_maximality_at_delta(self):
        problem = grade_problem()
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


def _probe_log(problem):
    """problem with sufficiency_holds wrapped; the returned list collects
    (index of the probed atom's bit, outcome) for each atom-mask probe."""
    log, decide = [], problem.sufficiency_holds

    def logged(box):
        holds = decide(box)
        log.extend((e.bit_length() - 1, holds) for e in box.values() if e.__class__ is int)
        return holds

    problem.sufficiency_holds = logged
    return log


class TestInflateAtoms:
    """One growth path for labels and cells, probing in the orders the label
    and cell searches it replaces used (pinned from them)."""

    def test_labels_are_probed_in_domain_order(self):
        problem = risk_problem()
        log = _probe_log(problem)
        grown = inflate_module.inflate_atoms(problem, 2, {1: problem.pin(1)})
        assert grown == CatSet(frozenset({"Red", "Blue", "Green", "Black"}))
        assert log == [(1, True), (2, True), (3, False), (4, True), (5, False)]
        assert problem.oracle.stats.calls == 5
        assert inflate_module.inflate_atoms(problem, 1, {2: problem.pin(2)}) == CatSet(
            frozenset({"Junior", "Senior"})
        )
        assert problem.oracle.stats.calls == 5 + 2

    def test_forest_cells_above_then_below(self):
        mf = load_model(Path(__file__).resolve().parent.parent / "models" / "bench_forest.json")
        point = parse_point(mf.space, "7,7,7,8,3,2.5,high,green")
        problem = ExplanationProblem.from_point(mf.classifier, mf.space, point)
        assert find_axp(problem) == (1, 3, 7)
        log = _probe_log(problem)
        grown = inflate_module.inflate_atoms(problem, 1, {3: problem.pin(3), 7: problem.pin(7)})
        assert grown == interval_union(mf.space.domain(1), [Interval(F(5, 4), F(8))])
        assert log == [(17, True), (18, True)] + [(k, True) for k in range(15, 1, -1)] + [(1, False), (0, False)]
        for j, others, expected, calls in (
            (3, (1, 7), interval_union(mf.space.domain(3), [Interval(F(13, 4), F(8))]), 14),
            (7, (1, 3), CatSet(frozenset({"high"})), 2),
        ):
            before = problem.oracle.stats.calls
            assert inflate_module.inflate_atoms(problem, j, {k: problem.pin(k) for k in others}) == expected
            assert problem.oracle.stats.calls - before == calls

    def test_a_monotone_model_is_refused(self):
        # each feature's one atom is its whole domain, which is not sufficient here
        problem = grade_problem()
        with pytest.raises(ValidationError, match="monotone"):
            inflate_module.inflate_atoms(problem, 1, {2: problem.pin(2)})
        assert problem.oracle.stats.calls == 0
        assert not problem.sufficiency_holds({1: full_set(problem.space.domain(1)), 2: problem.pin(2)})

    def test_it_is_the_only_caller_of_grow_in_the_module(self):
        tree = ast.parse(Path(inflate_module.__file__).read_text())
        callers = {
            f.name
            for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef)
            for call in ast.walk(f)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "grow"
        }
        assert callers == {"inflate_atoms"}


def _beta_repro(point):
    space = FeatureSpace((Ordinal(F(0), F(10), INTEGER), Ordinal(F(0), F(10), INTEGER)))
    clf = MonotonicClassifier((F(1), F(1)), (F(2),), ("lo", "hi"))
    return ExplanationProblem.from_point(clf, space, point)


class TestOneBetaCheck:
    """beta 3/2 is a multiple of delta 1/2 but not of the integer step 1: it is
    refused before any growth probe, whichever instance is inflated."""

    CONFIG = InflationConfig(delta=F(1, 2), beta=F(3, 2))

    @pytest.mark.parametrize("point", [(F(1), F(1)), (F(4), F(4))])
    @pytest.mark.parametrize("trusted", [False, True])
    def test_refused_alike_after_find_axp(self, point, trusted):
        problem = _beta_repro(point)
        axp = find_axp(problem)
        assert problem.oracle.stats.calls == 2
        with pytest.raises(ValidationError) as refusal:
            inflate_axp(problem, axp, self.CONFIG, trusted=trusted)
        assert str(refusal.value) == "beta 3/2 is not a multiple of the effective step 1"
        assert problem.oracle.stats.calls == (2 if trusted else 3)  # the untrusted check's call only

    def test_features_outside_the_explanation_are_checked_too(self):
        space = FeatureSpace((Ordinal(F(0), F(10)), Ordinal(F(0), F(10), INTEGER)))
        clf = MonotonicClassifier((F(1), F(0)), (F(2),), ("lo", "hi"))
        problem = ExplanationProblem.from_point(clf, space, (F(5), F(5)))
        with pytest.raises(ValidationError, match="effective step 1"):
            inflate_axp(problem, (1,), self.CONFIG, trusted=True)
        assert problem.oracle.stats.calls == 0

    def test_inflate_ordinal_refuses_before_its_first_probe(self):
        problem = _beta_repro((F(4), F(4)))
        with pytest.raises(ValidationError, match="effective step 1"):
            inflate_module.inflate_ordinal(problem, 2, {}, self.CONFIG)
        assert problem.oracle.stats.calls == 0

    def test_a_beta_on_the_step_is_accepted(self):
        problem = _beta_repro((F(4), F(4)))
        expl = inflate_axp(problem, (2,), InflationConfig(delta=F(1, 2), beta=F(2)), trusted=True)
        assert expl.set_for(2) == interval_union(problem.space.domain(2), [Interval(F(2), F(10))])


class TestShrinkCxp:
    def test_risk_single_feature_witnesses(self):
        expl = shrink_cxp(risk_problem(), (1,))
        assert expl.kind == "contrastive"
        assert expl.set_for(1) == CatSet(frozenset({"Adult"}))
        expl = shrink_cxp(risk_problem(), (2,))
        assert expl.set_for(2) == CatSet(frozenset({"White"}))

    def test_instance_value_is_excluded(self):
        problem = grade_problem()
        expl = shrink_cxp(problem, (1,), InflationConfig(delta=F(1, 2)))
        assert not vs_contains(expl.set_for(1), F(3))
        assert vs_pieces(expl.set_for(1)) == 1

    def test_witness_set_actually_flips(self):
        problem = grade_problem()
        expl = shrink_cxp(problem, (1,), InflationConfig(delta=F(1, 2)))
        sets = {2: singleton_set(problem.space.domain(2), F(5)), 1: expl.set_for(1)}
        assert not bf_forces(problem.classifier, problem.space, sets, problem.target)

    def test_non_contrastive_set_rejected(self):
        clf, space = risk_list()
        problem = ExplanationProblem.from_point(clf, space, ("Adult", "Silver"))
        with pytest.raises(ValidationError):
            shrink_cxp(problem, (2,))

    def test_a_feature_with_one_atom_is_refused(self):
        # the tree never tests x2, so x2 has no value to contrast the instance's with
        space = FeatureSpace((Ordinal(F(0), F(4)), Ordinal(F(0), F(4))))
        clf = DecisionTree(OrdinalSplit(1, F(2), Leaf("a"), Leaf("b")), ("a", "b"))
        problem = ExplanationProblem.from_point(clf, space, (F(1), F(1)))
        with pytest.raises(ValidationError, match="feature 2 has no value but the instance's"):
            shrink_cxp(problem, (1, 2))

    def test_cell_model_witnesses_are_single_cells(self):
        clf, space = _three_band_tree()
        problem = ExplanationProblem.from_point(clf, space, (F(1),))
        expl = shrink_cxp(problem, (1,))
        assert vs_pieces(expl.set_for(1)) == 1
        (iv,) = expl.set_for(1).intervals
        assert F(3) <= iv.lo and iv.hi <= F(6)


def _slicing_deletion_pass(items, holds, floor=0):
    kept = list(items)
    i = 0
    while i < len(kept) > floor:
        rest = kept[:i] + kept[i + 1 :]
        if holds(rest):
            kept = rest
        else:
            i += 1
    return kept


def _value_set_pieces(problem, j, config):
    if isinstance(problem.classifier, MonotonicClassifier):  # feature j grows on a grid
        v = problem.value_of(j)
        return [IntervalUnion((Interval(p, p),)) for p in grid_points(problem.space.domain(j), v, config) if p != v]
    atoms, seed = _value_set_atoms(problem, j)
    return atoms[:seed] + atoms[seed + 1 :]


def _value_set_options(problem, j, config):
    """enumerate_iaxps' candidates for feature j as value sets: every grid
    interval around the instance value, or every union of atoms holding
    the instance's atom, by size."""
    domain = problem.space.domain(j)
    if isinstance(problem.classifier, MonotonicClassifier):
        v = problem.value_of(j)
        points = grid_points(domain, v, config)
        return [IntervalUnion((Interval(a, b),)) for a in points if a <= v for b in points if b >= v]
    atoms, seed = _value_set_atoms(problem, j)
    rest = atoms[:seed] + atoms[seed + 1 :]
    return [
        vs_union(domain, atoms[seed], *combo)
        for size in range(len(rest) + 1)
        for combo in combinations(rest, size)
    ]


def _value_set_one_step_larger(problem, j, s, config):
    """The sets one atom, or one grid step at either end, larger than s."""
    domain = problem.space.domain(j)
    if isinstance(problem.classifier, MonotonicClassifier):
        iv = s.intervals[0]
        step = grid_step(domain, config)
        if iv.hi < domain.hi:
            yield IntervalUnion((Interval(iv.lo, min(domain.hi, iv.hi + step)),))
        if iv.lo > domain.lo:
            yield IntervalUnion((Interval(max(domain.lo, iv.lo - step), iv.hi),))
        return
    for atom in problem.oracle.model.atoms[j - 1].values():
        if not vs_subset(domain, atom, s):
            yield vs_union(domain, s, atom)


def _value_set_enumerate_iaxps(problem, axp, config, max_candidates):
    """enumerate_iaxps over value-set candidates, as a reference: the sets
    of each locally maximal inflation, or "cap" when the candidates exceed
    max_candidates."""
    feats = tuple(sorted(axp))
    options = [_value_set_options(problem, j, config) for j in feats]
    if math.prod(map(len, options)) > max_candidates:
        return "cap"
    out = []
    for combo in product(*options):
        sets = dict(zip(feats, combo))
        if problem.sufficiency_holds(sets) and not any(
            problem.sufficiency_holds({**sets, j: larger})
            for j, s in sets.items()
            for larger in _value_set_one_step_larger(problem, j, s, config)
        ):
            out.append(sets)
    return out


def _union_probe_shrink(problem, cxp, config):
    """shrink_cxp with value-set probes, each merging the remaining pieces
    with vs_union, as a reference: its sets, or its error message."""
    feats = tuple(sorted(cxp))
    if not problem.wcxp_holds(feats):
        return "not contrastive"
    pieces = {j: _value_set_pieces(problem, j, config) for j in feats}
    fixed = problem.pinned_except(feats)
    sets = {j: vs_union(problem.space.domain(j), *ps) for j, ps in pieces.items()}
    if not problem.counterexample_in({**fixed, **sets}):
        return "no counterexample once the instance values are excluded at this granularity"
    for j in feats:
        domain = problem.space.domain(j)

        def holds(rest):
            return problem.counterexample_in({**fixed, **sets, j: vs_union(domain, *rest)})

        sets[j] = vs_union(domain, *_slicing_deletion_pass(pieces[j], holds, floor=1))
    return sets


class TestCompiledProbes:
    """The searches probe with atom bits and integer grid ends; a reference
    probing with value sets must give the same answers and decision counts."""

    @pytest.mark.parametrize(
        "pool",
        [
            forest_pool,
            dl_pool,
            categorical_pool,
            integer_pool,
            monotone_pool,
            integer_monotone_pool,
            fractional_monotone_pool,
        ],
    )
    def test_shrink_cxp_matches_union_probes(self, pool):
        config = InflationConfig(delta=F(1, 3))
        for clf, space, point in pool():
            runs = []
            for shrink in (shrink_cxp, _union_probe_shrink):
                problem = make_problem(clf, space, point)
                cxp = find_cxp(problem)
                try:
                    out = shrink(problem, cxp, config)
                except ValidationError as exc:
                    out = str(exc)
                runs.append((getattr(out, "sets", out), problem.oracle.stats.calls))
            assert runs[0] == runs[1], (clf, point)

    @pytest.mark.parametrize("pool", [integer_monotone_pool, fractional_monotone_pool])
    @pytest.mark.parametrize(
        "config",
        [
            InflationConfig(delta=F(1, 3)),
            InflationConfig(delta=F(1, 3), strategy=BINARY),
            InflationConfig(delta=F(1, 2), beta=F(2)),
            InflationConfig(delta=F(2, 7), strategy=BINARY),
        ],
        ids=["linear", "binary", "beta", "binary-2/7"],
    )
    def test_integer_grid_matches_fraction_grid(self, pool, config, monkeypatch):
        problems = pool()
        got = [self._inflate(p, config) for p in problems]
        monkeypatch.setattr(inflate_module, "inflate_ordinal", _fraction_grid_inflate_ordinal)
        assert [self._inflate(p, config) for p in problems] == got

    @pytest.mark.parametrize(
        "pool, delta",
        [
            (integer_monotone_pool, F(1, 2)),
            (integer_monotone_pool, F(2, 7)),
            (fractional_monotone_pool, F(1, 2)),
            (fractional_monotone_pool, F(2, 7)),
            (integer_pool, F(1, 5)),
            (categorical_pool, F(1, 5)),
            (dl_pool, F(1, 5)),
            (forest_pool, F(1, 5)),
        ],
    )
    def test_enumerate_iaxps_matches_value_set_candidates(self, pool, delta):
        """Candidates and one-step-larger sets as compiled entries give the
        same families and decisions as the same candidates as value sets."""
        config, cap = InflationConfig(delta=delta), 256
        answered = 0
        for clf, space, point in pool():
            runs = []
            for new in (True, False):
                problem = make_problem(clf, space, point)
                out = []
                for axp in enumerate_all(problem)[0]:
                    if not new:
                        out.append(_value_set_enumerate_iaxps(problem, axp, config, cap))
                        continue
                    try:
                        family = enumerate_iaxps(problem, axp, config, cap, trusted=True)
                        out.append([e.sets for e in family])
                    except BudgetExceededError:
                        out.append("cap")
                runs.append((out, problem.oracle.stats.calls))
            assert runs[0] == runs[1], (clf, point)
            answered += sum(family != "cap" for family in runs[0][0])
        assert answered > len(pool()) // 2

    @staticmethod
    def _inflate(p, config):
        problem = make_problem(*p)
        expl = inflate_axp(problem, find_axp(problem), config, trusted=True)
        return expl.sets, problem.oracle.stats.calls


def _fraction_grid_inflate_ordinal(problem, j, current, config):
    """inflate_ordinal probing with a `Fraction` grid and interval sets, as a reference."""
    domain = problem.space.domain(j)
    v, step = problem.value_of(j), grid_step(domain, config)

    def holds(lo, hi):
        return problem.sufficiency_holds({**current, j: IntervalUnion((Interval(lo, hi),))})

    def count(span):  # grid points strictly inside a span
        n = math.floor(span / step)
        return max(0, n - 1 if n * step == span else n)

    def up(k):  # k steps above v, the last reaching the domain top
        return min(domain.hi, v + k * step)

    def down(k):
        return max(domain.lo, v - k * step)

    search = inflate_module._search_grid
    k_up, k_down = count(domain.hi - v) + (v < domain.hi), count(v - domain.lo) + (domain.lo < v)
    sup = up(search(lambda k: holds(v, up(k)), k_up, config, step))
    inf = down(search(lambda k: holds(down(k), sup), k_down, config, step))
    return IntervalUnion((Interval(inf, sup),))


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
