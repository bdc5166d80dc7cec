"""Inflating explanations: widen each feature to a maximal value set.

Given an abductive explanation X for (v, c), inflation replaces each fixed
value v_j by a set E_j containing it, as large as the sufficiency condition
allows: keeping every explanation feature anywhere inside its set must
still force the prediction.  Features are processed one at a time; earlier
features keep their already widened sets while the current one grows, so
the outcome depends on the processing order (every outcome is maximal,
they just differ).

Per-feature growth comes in three flavours:

* categorical: probe each remaining label once, keep it if sufficiency
  survives (one oracle call per label);
* ordinal, monotone model: grow a closed interval around v_j.  The domain
  bound is probed first; if it fails, walk a delta grid anchored at v_j.
  The upper end grows before the lower end.  Linear, coarse-then-fine, and
  binary searches over the grid return the same endpoint because
  sufficiency is monotone along it;
* ordinal, tree or list model: the model's thresholds cut the domain into
  finitely many cells on which the prediction is constant, so probing whole
  cells is exact and needs no step width.

The reverse direction is `shrink_cxp`: start a contrastive explanation with
every off-instance value allowed, then greedily discard values while a
counterexample still exists inside the narrowed sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .classifiers import MonotonicClassifier
from .errors import ValidationError
from .explain import ExplanationProblem, _check_order, _deletion_pass
from .model import (
    ABDUCTIVE,
    CONTRASTIVE,
    CatSet,
    Categorical,
    INTEGER,
    InflatedExplanation,
    Interval,
    IntervalUnion,
    Ordinal,
    ValueSet,
    rational,
    vs_contains,
    vs_is_full,
    vs_subset,
    vs_union,
)

LINEAR = "linear"
BINARY = "binary"


@dataclass(frozen=True)
class InflationConfig:
    """Knobs for ordinal growth on monotone models.

    delta is the grid step; beta, when set, is a coarse first-pass step for
    the linear strategy and must be a multiple of delta.  order, when set,
    fixes the feature processing order.
    """

    delta: Fraction = Fraction(1, 5)
    beta: Optional[Fraction] = None
    strategy: str = LINEAR
    order: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "delta", rational(self.delta))
        if self.delta <= 0:
            raise ValidationError("delta must be positive")
        if self.strategy not in (LINEAR, BINARY):
            raise ValidationError(f"unknown strategy {self.strategy!r}")
        if self.beta is not None:
            beta = rational(self.beta)
            object.__setattr__(self, "beta", beta)
            if self.strategy != LINEAR:
                raise ValidationError("beta only applies to the linear strategy")
            if beta <= self.delta:
                raise ValidationError("beta must exceed delta")
            if (beta / self.delta).denominator != 1:
                raise ValidationError("beta must be an integer multiple of delta")
        if self.order is not None:
            object.__setattr__(self, "order", tuple(self.order))


def _extract(problem: ExplanationProblem, find, config: InflationConfig):
    """The explanation find (find_axp or find_cxp) returns in config's order, and
    config with the order narrowed to its features, as inflate_axp and shrink_cxp take it;
    `cli` (inflate, shrink-cxp) and `bench` extract with it."""
    feats = find(problem, config.order)
    if config.order is not None:
        config = replace(config, order=tuple(j for j in config.order if j in feats))
    return feats, config


def _step_for(domain: Ordinal, config: InflationConfig) -> Fraction:
    # fractional steps leave an integer domain, so round the step up
    if domain.kind == INTEGER:
        return Fraction(max(1, math.ceil(config.delta)))
    return config.delta


def _grid_count(start: Fraction, bound: Fraction, step: Fraction, up: bool) -> int:
    """Number of grid points strictly between start and bound."""
    span = (bound - start) if up else (start - bound)
    k = span / step
    n = k.numerator // k.denominator
    if n * step == span:
        n -= 1
    return max(0, n)


# ---------------------------------------------------------------------------
# Per-feature growth


def feature_atoms(problem: ExplanationProblem, j: int) -> tuple[list[ValueSet], int]:
    """Feature j's atoms in domain order, and the index of the instance's atom.

    An atom is a single label, or a discretization cell holding at least one
    point of the domain (a cell of an integer domain may hold no integer).
    The prediction cannot tell two points of one atom apart.
    """
    problem.space.domain(j)  # rejects an index out of range
    atoms = list(problem.oracle.model.atoms[j - 1])  # a copy: the model is shared
    v = problem.value_of(j)
    return atoms, next(i for i, atom in enumerate(atoms) if vs_contains(atom, v))


def grow(
    problem: ExplanationProblem,
    j: int,
    current: Mapping[int, ValueSet],
    kept: ValueSet,
    atoms: Iterable[ValueSet],
) -> ValueSet:
    """Add to kept, in order, each atom not already in it that keeps sufficiency.

    current holds the value sets of the other features (an entry for j is
    ignored); each probed atom costs one oracle call.  The caller must know
    that current with j = kept is sufficient.  A box is sufficient exactly
    when both halves of a split of it are, so kept ∪ atom keeps sufficiency
    exactly when atom alone does, and the probe gives j the atom alone.  The
    result is maximal over the atoms: any atom left out was probed against
    a subset of the final sets, and sufficiency can only get harder as sets
    grow.
    """
    domain = problem.space.domain(j)
    for atom in atoms:
        if vs_subset(domain, atom, kept):
            continue
        if problem.sufficiency_holds({**current, j: atom}):
            kept = vs_union(domain, kept, atom)
    return kept


def inflate_categorical(
    problem: ExplanationProblem,
    j: int,
    current: Mapping[int, ValueSet],
) -> CatSet:
    """Grow feature j's label set from the instance label, one probe each.

    current holds the value sets of the explanation features (an entry for
    j is ignored); labels are probed in domain declaration order.
    """
    if not isinstance(problem.space.domain(j), Categorical):
        raise ValidationError(f"feature {j} is not categorical")
    atoms, seed = feature_atoms(problem, j)
    return grow(problem, j, current, atoms[seed], atoms)


def _search_grid(holds, k_max: int, config: InflationConfig, step: Fraction) -> int:
    """Largest k in 0..k_max with holds(k); holds is antitone and holds(0) is true."""
    if k_max == 0:
        return 0
    if config.strategy == BINARY:
        lo, hi = 0, k_max
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if holds(mid):
                lo = mid
            else:
                hi = mid - 1
        return lo

    def walk(best: int, stop: int, stride: int) -> int:
        k = best + stride
        while k <= stop and holds(k):
            best = k
            k += stride
        return best

    # coarse-then-fine with beta; with stride 1 the fine pass probes nothing
    stride = 1
    if config.beta is not None:
        stride = int(config.beta / step)
        if stride * step != config.beta:
            raise ValidationError(
                f"beta {config.beta} is not a multiple of the effective step {step}"
            )
    coarse = walk(0, k_max, stride)
    return walk(coarse, min(k_max, coarse + stride - 1), 1)


def inflate_ordinal(
    problem: ExplanationProblem,
    j: int,
    current: Mapping[int, ValueSet],
    config: InflationConfig,
) -> IntervalUnion:
    """Grow a closed interval around the instance value of feature j.

    The domain top is probed first; only if the full reach fails does the
    walk over the grid v + k*step start, stopping strictly below the top.
    Then the same for the bottom, against the already grown upper end.  All
    strategies return the same endpoints.
    """
    domain = problem.space.domain(j)
    if not isinstance(domain, Ordinal):
        raise ValidationError(f"feature {j} is not ordinal")
    v = rational(problem.value_of(j))
    step = _step_for(domain, config)

    def holds(lo: Fraction, hi: Fraction) -> bool:
        trial = IntervalUnion((Interval(lo, hi, True, True),))
        return problem.sufficiency_holds({**current, j: trial})

    sup = v
    if v < domain.hi:
        if holds(v, domain.hi):
            sup = domain.hi
        else:
            k_max = _grid_count(v, domain.hi, step, up=True)
            sup = v + step * _search_grid(lambda k: holds(v, v + k * step), k_max, config, step)
    inf = v
    if domain.lo < v:
        if holds(domain.lo, sup):
            inf = domain.lo
        else:
            k_max = _grid_count(v, domain.lo, step, up=False)
            inf = v - step * _search_grid(lambda k: holds(v - k * step, sup), k_max, config, step)
    return IntervalUnion((Interval(inf, sup, True, True),))


def inflate_ordinal_cells(
    problem: ExplanationProblem,
    j: int,
    current: Mapping[int, ValueSet],
) -> IntervalUnion:
    """Grow feature j as a union of discretization cells; exact, no step.

    Starts from the whole cell holding the instance value (the prediction
    cannot distinguish points inside one cell) and probes the cells above
    it in ascending order, then the cells below in descending order.
    """
    if not isinstance(problem.space.domain(j), Ordinal):
        raise ValidationError(f"feature {j} is not ordinal")
    atoms, seed = feature_atoms(problem, j)
    return grow(problem, j, current, atoms[seed], atoms[seed + 1 :] + atoms[:seed][::-1])


# ---------------------------------------------------------------------------
# Whole-explanation inflation


def _uses_grid(problem: ExplanationProblem) -> bool:
    return isinstance(problem.classifier, MonotonicClassifier)


def grid_delta(problem: ExplanationProblem, config: InflationConfig) -> Fraction:
    """The step width an explanation records: delta on grid models, else 0."""
    return config.delta if _uses_grid(problem) else Fraction(0)


def grid_points(domain: Ordinal, v: Fraction, step: Fraction) -> list[Fraction]:
    """The points v + k*step inside the domain, plus both domain bounds, ascending."""
    below = math.floor((v - domain.lo) / step)
    above = math.floor((domain.hi - v) / step)
    return sorted({domain.lo, domain.hi}.union(v + k * step for k in range(-below, above + 1)))


def _inflate_feature(
    problem: ExplanationProblem,
    j: int,
    current: Mapping[int, ValueSet],
    config: InflationConfig,
) -> ValueSet:
    domain = problem.space.domain(j)
    if isinstance(domain, Categorical):
        return inflate_categorical(problem, j, current)
    if _uses_grid(problem):
        return inflate_ordinal(problem, j, current, config)
    return inflate_ordinal_cells(problem, j, current)


def inflate_axp(
    problem: ExplanationProblem,
    axp: Sequence[int],
    config: Optional[InflationConfig] = None,
    trusted: bool = False,
) -> InflatedExplanation:
    """Widen every feature of an abductive explanation to a maximal set.

    axp must be a sufficient feature set; that precondition costs one
    oracle call to check unless trusted is set (set it when the set comes
    straight out of find_axp on the same problem).  Growth relies on it, so
    a false trusted claim gives undefined sets.
    """
    config = config or InflationConfig()
    feats = tuple(sorted(set(axp)))
    if len(feats) != len(tuple(axp)):
        raise ValidationError(f"duplicate features in {tuple(axp)}")
    if not feats:
        raise ValidationError("an abductive explanation cannot be empty here")
    for j in feats:
        problem.space.domain(j)
    if not trusted and not problem.waxp_holds(feats):
        raise ValidationError(f"{feats} is not a sufficient feature set for this instance")
    order = _check_order(config.order, feats)
    current: dict[int, ValueSet] = {j: problem.pin(j) for j in feats}
    for j in order:
        current[j] = _inflate_feature(problem, j, current, config)
    return InflatedExplanation(ABDUCTIVE, feats, dict(current), order, grid_delta(problem, config))


def inflate_from_full(
    problem: ExplanationProblem,
    config: Optional[InflationConfig] = None,
) -> InflatedExplanation:
    """Inflate starting from every feature pinned; drop the ones that free up.

    A feature whose set grows to the whole domain constrains nothing and
    leaves the explanation (a full set and an absent feature give the
    oracle the same box).  The surviving sets are sufficient and each is
    maximal given the others; the surviving feature set is not guaranteed
    to be subset-minimal for every model, so extract an explanation first
    when minimality matters.
    """
    expl = inflate_axp(problem, problem.space.features(), config, trusted=True)
    sets = {
        j: s for j, s in expl.sets.items() if not vs_is_full(problem.space.domain(j), s)
    }
    return InflatedExplanation(ABDUCTIVE, tuple(sorted(sets)), sets, expl.probe_order, expl.delta)


# ---------------------------------------------------------------------------
# Contrastive shrinking


def _contrast_pieces(
    problem: ExplanationProblem, j: int, config: InflationConfig
) -> list[ValueSet]:
    """Candidate off-instance pieces for feature j of a contrastive set."""
    domain = problem.space.domain(j)
    if isinstance(domain, Ordinal) and _uses_grid(problem):
        v = rational(problem.value_of(j))
        points = grid_points(domain, v, _step_for(domain, config))
        return [IntervalUnion((Interval(p, p, True, True),)) for p in points if p != v]
    atoms, seed = feature_atoms(problem, j)
    return atoms[:seed] + atoms[seed + 1 :]


def shrink_cxp(
    problem: ExplanationProblem,
    cxp: Sequence[int],
    config: Optional[InflationConfig] = None,
) -> InflatedExplanation:
    """Narrow a contrastive explanation to minimal off-instance value sets.

    Each feature of the set starts with every candidate value other than
    the instance value (labels, cells, or grid points with the domain
    bounds); pieces are then discarded greedily while a counterexample
    still exists inside the remaining sets, the other features staying at
    the instance.  The greedy pass drives every feature down to a single
    piece: whichever surviving piece carries the remaining counterexamples
    pins that feature.
    """
    config = config or InflationConfig()
    feats = tuple(sorted(set(cxp)))
    if not feats:
        raise ValidationError("a contrastive explanation cannot be empty")
    if len(feats) != len(tuple(cxp)):
        raise ValidationError(f"duplicate features in {tuple(cxp)}")
    if not problem.wcxp_holds(feats):
        raise ValidationError(f"{feats} is not a contrastive feature set for this instance")
    order = _check_order(config.order, feats)
    pieces: dict[int, list[ValueSet]] = {
        j: _contrast_pieces(problem, j, config) for j in feats
    }
    fixed = problem.pinned_except(feats)
    # each feature's pieces merged once; a probe re-merges only the trimmed feature
    sets = {j: vs_union(problem.space.domain(j), *ps) for j, ps in pieces.items()}
    if not problem.counterexample_in({**fixed, **sets}):
        raise ValidationError(
            "no counterexample once the instance values are excluded at this granularity"
        )
    for j in order:
        domain = problem.space.domain(j)

        def holds(rest: list[ValueSet]) -> bool:
            return problem.counterexample_in({**fixed, **sets, j: vs_union(domain, *rest)})

        sets[j] = vs_union(domain, *_deletion_pass(pieces[j], holds, floor=1))
    delta = grid_delta(problem, config)
    return InflatedExplanation(CONTRASTIVE, feats, sets, order, delta)
