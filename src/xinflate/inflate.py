"""Inflating explanations: widen each feature to a maximal value set.

Given an abductive explanation X for (v, c), inflation replaces each fixed
value v_j by a set E_j containing it, as large as the sufficiency condition
allows: keeping every explanation feature anywhere inside its set must
still force the prediction.  Features are processed one at a time; earlier
features keep their already widened sets while the current one grows, so
the outcome depends on the processing order (every outcome is maximal,
they just differ).

Per-feature growth comes in two flavours:

* `inflate_atoms`, any model but a monotone one: the model's labels and
  thresholds cut each domain into finitely many atoms on which the
  prediction is constant, so probing whole atoms is exact and needs no
  step width (one oracle call per atom);
* `inflate_ordinal`, monotone model: grow a closed interval around v_j.
  The domain bound is probed first; if it fails, walk a delta grid anchored
  at v_j.  The upper end grows before the lower end.  Linear,
  coarse-then-fine, and binary searches over the grid return the same
  endpoint because sufficiency is monotone along it.

The reverse direction is `shrink_cxp`: start a contrastive explanation with
every off-instance value allowed, then greedily discard values while a
counterexample still exists inside the narrowed sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import BudgetExceededError, ValidationError
from .explain import ExplanationProblem, _check_order
from .model import (
    ABDUCTIVE,
    CONTRASTIVE,
    Categorical,
    INTEGER,
    InflatedExplanation,
    Interval,
    IntervalUnion,
    Ordinal,
    ValueSet,
    rational,
    vs_union,
)
from .oracle import Entry

LINEAR = "linear"
BINARY = "binary"
MAX_GRID_POINTS = 2**20  # the most grid points of one feature that shrinking or enumeration lists


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
    return Fraction(max(1, math.ceil(config.delta))) if domain.kind == INTEGER else config.delta


def grid(problem: ExplanationProblem, j: int, config: InflationConfig) -> tuple[int, int, Callable]:
    """Feature j's grid: how many points lie at or below the instance value v
    and at or above it, and point(k), k in range(1 - below, above), ascending,
    as (numerator, denominator): the domain bounds at both ends, else v + k*step
    built without a `Fraction` (with v = p/q and step = a/b: (p*b + k*a*q) / (q*b))."""
    domain = problem.space.domain(j)
    v, step = rational(problem.value_of(j)), _step_for(domain, config)
    p, q, a, b = v.numerator, v.denominator, step.numerator, step.denominator
    below = math.ceil((v - domain.lo) / step) + 1
    above = math.ceil((domain.hi - v) / step) + 1
    ends = {1 - below: domain.lo.as_integer_ratio(), above - 1: domain.hi.as_integer_ratio()}
    return below, above, lambda k: ends.get(k) or (p * b + k * a * q, q * b)


# ---------------------------------------------------------------------------
# Per-feature growth


def _atom_bits(problem: ExplanationProblem, j: int) -> tuple[list[int], int]:
    """Feature j's atoms as bits of the compiled model's masks, in domain
    order, and the index of the instance's atom, whose bit is its pin's mask.

    An atom is a single label, or a discretization cell holding at least one
    point of the domain (a cell of an integer domain may hold no integer).
    The prediction cannot tell two points of one atom apart.
    """
    model = problem.oracle.model
    seed = model.set_mask(j - 1, problem.pin(j))  # the pin rejects an index out of range
    bits = list(model.atoms[j - 1])
    return bits, bits.index(seed)


def _entry_set(problem: ExplanationProblem, j: int, entry) -> ValueSet:
    """Feature j's compiled entry (see `CompiledModel.box`) as a value set:
    the union of a mask's atoms, or the closed interval between two ends."""
    if entry.__class__ is not int:
        return IntervalUnion((Interval(Fraction(*entry[:2]), Fraction(*entry[2:4])),))
    picked = [atom for bit, atom in problem.oracle.model.atoms[j - 1].items() if bit & entry]
    return picked[0] if len(picked) == 1 else vs_union(problem.space.domain(j), *picked)


def grow(
    problem: ExplanationProblem,
    j: int,
    current: Mapping[int, Entry],
    kept: int,
    atoms: Iterable[int],
) -> int:
    """Add to the atom mask kept, in order, each atom (a bit, see
    `_atom_bits`) outside it that keeps sufficiency, and return the mask.

    current holds the entries of the other features (an entry for j is
    ignored); each probed atom costs one oracle call.  The caller must know
    that current with j = kept is sufficient.  A box is sufficient exactly
    when both halves of a split of it are, so kept | atom keeps sufficiency
    exactly when atom alone does, and the probe gives j the atom's bit
    alone.  The result is maximal over the atoms: any atom left out was
    probed against a subset of the final sets, and sufficiency can only get
    harder as sets grow.  The caller builds the value set, once.
    """
    for bit in atoms:
        if not bit & kept and problem.sufficiency_holds({**current, j: bit}):
            kept |= bit
    return kept


def inflate_atoms(
    problem: ExplanationProblem,
    j: int,
    current: Mapping[int, Entry],
) -> ValueSet:
    """Grow feature j from the instance's atom (see `_atom_bits`), probing
    each other atom once: labels in domain order, cells above ascending,
    then cells below descending.  current holds the other features' entries.
    Refuses a monotone model, which compiles to integer weights, thresholds
    and domain ends but no atoms: only the delta grid is exact there."""
    if problem.oracle.model.monotone:
        raise ValidationError("a monotone model grows on the delta grid, not by atoms")
    bits, at = _atom_bits(problem, j)
    probes = bits if isinstance(problem.space.domain(j), Categorical) else bits[at + 1 :] + bits[:at][::-1]
    return _entry_set(problem, j, grow(problem, j, current, bits[at], probes))


def _check_beta(problem: ExplanationProblem, features: Iterable[int], config: InflationConfig) -> None:
    """Refuse a beta that is not a multiple of each feature's effective step (see `_step_for`)."""
    if config.beta is None:
        return
    for j in features:
        step = _step_for(problem.space.domain(j), config)
        if (config.beta / step).denominator != 1:
            raise ValidationError(f"beta {config.beta} is not a multiple of the effective step {step}")


def _search_grid(holds, k_max: int, config: InflationConfig, step: Fraction) -> int:
    """Largest k in 0..k_max with holds(k); holds is antitone and holds(0) is
    true.  k_max, a domain bound, is probed first; only if it fails does the
    search run below it."""
    if k_max == 0 or holds(k_max):
        return k_max
    k_max -= 1
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

    # coarse-then-fine with beta (see `_check_beta`); with stride 1 the fine pass probes nothing
    stride = 1 if config.beta is None else int(config.beta / step)
    coarse = walk(0, k_max, stride)
    return walk(coarse, min(k_max, coarse + stride - 1), 1)


def inflate_ordinal(
    problem: ExplanationProblem,
    j: int,
    current: Mapping[int, Entry],
    config: InflationConfig,
) -> IntervalUnion:
    """Grow a closed interval around the instance value of feature j.

    The domain top is probed first; only if the full reach fails does the
    walk over the grid v + k*step start, stopping strictly below the top.
    Then the same for the bottom, against the already grown upper end.  All
    strategies return the same endpoints.  Every end is kept as an integer
    numerator and denominator (see `grid`); a monotone model is probed with
    the ends themselves (see `CompiledModel.box`), any other with their
    interval.
    """
    domain = problem.space.domain(j)
    if not isinstance(domain, Ordinal):
        raise ValidationError(f"feature {j} is not ordinal")
    _check_beta(problem, (j,), config)
    below, above, point = grid(problem, j, config)  # each count holds v and a domain bound
    monotone = problem.oracle.model.monotone

    def holds(lo: tuple[int, int], hi: tuple[int, int]) -> bool:
        trial = (*lo, *hi, True)
        trial = trial if monotone else _entry_set(problem, j, trial)
        return problem.sufficiency_holds({**current, j: trial})

    step = _step_for(domain, config)
    at = point(0)
    sup = point(_search_grid(lambda k: holds(at, point(k)), above - 1, config, step))
    inf = point(-_search_grid(lambda k: holds(point(-k), sup), below - 1, config, step))
    return _entry_set(problem, j, (*inf, *sup, True))


# ---------------------------------------------------------------------------
# Whole-explanation inflation


def grid_delta(problem: ExplanationProblem, config: InflationConfig) -> Fraction:
    """The step width an explanation records: delta on grid models, else 0."""
    return config.delta if problem.oracle.model.monotone else Fraction(0)


def _checked_features(problem: ExplanationProblem, xp: Sequence[int], kind: str, trusted: bool):
    """xp's features, ascending.  Refuses an empty set, a repeated feature, an
    index out of range and, unless trusted, at the cost of one oracle call, a
    set that is not sufficient (abductive) or not contrastive."""
    feats = tuple(sorted(set(xp)))
    if not feats:
        raise ValidationError("an explanation cannot be empty")
    if len(feats) != len(tuple(xp)):
        raise ValidationError(f"duplicate features in {tuple(xp)}")
    for j in feats:
        problem.space.domain(j)  # rejects an index out of range
    holds = problem.waxp_holds if kind == ABDUCTIVE else problem.wcxp_holds
    if not trusted and not holds(feats):
        what = "sufficient" if kind == ABDUCTIVE else kind
        raise ValidationError(f"{feats} is not a {what} feature set for this instance")
    return feats


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
    feats = _checked_features(problem, axp, ABDUCTIVE, trusted)
    order = _check_order(config.order, feats)
    monotone = problem.oracle.model.monotone
    if monotone:  # refuse beta before the first growth probe, on every instance alike
        _check_beta(problem, problem.space.features(), config)
    current: dict[int, ValueSet] = {j: problem.pin(j) for j in feats}
    for j in order:
        if monotone:
            current[j] = inflate_ordinal(problem, j, current, config)
        else:
            current[j] = inflate_atoms(problem, j, current)
    return InflatedExplanation(ABDUCTIVE, feats, dict(current), order, grid_delta(problem, config))


# ---------------------------------------------------------------------------
# Contrastive shrinking


def _feature_pieces(problem: ExplanationProblem, j: int, config: InflationConfig) -> tuple:
    """Feature j's pieces, ascending, and the index of the instance's: the
    `grid` points on a monotone model, else the atom bits."""
    if problem.oracle.model.monotone:
        below, above, point = grid(problem, j, config)
        if below + above - 1 > MAX_GRID_POINTS:  # refused before the list is built
            raise BudgetExceededError(f"feature {j}: {below + above - 1} grid points exceed {MAX_GRID_POINTS}")
        return [point(k) for k in range(1 - below, above)], below - 1
    return _atom_bits(problem, j)


def _contrast_pieces(problem: ExplanationProblem, j: int, config: InflationConfig) -> list:
    """Feature j's off-instance pieces, ascending, as compiled entries (see
    `CompiledModel.box`): an atom's bit, or the ends of a grid point.
    Refuses a feature that has none."""
    pieces, at = _feature_pieces(problem, j, config)
    if len(pieces) < 2:
        raise ValidationError(f"feature {j} has no value but the instance's to contrast with")
    return [p if p.__class__ is int else (*p, *p, True) for i, p in enumerate(pieces) if i != at]


def _join(a, b):
    """The compiled union of a and b, whose pieces lie above a's: the OR of
    two masks, or a's low end and b's high end.  None stands for no piece."""
    if a is None or b is None:
        return b if a is None else a
    return a | b if a.__class__ is int else a[:2] + b[2:]


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
    pins that feature.  A feature's pass is linear in its pieces: probe i
    joins the pieces kept so far with the precomputed join of those after i.
    """
    config = config or InflationConfig()
    feats = _checked_features(problem, cxp, CONTRASTIVE, trusted=False)
    order = _check_order(config.order, feats)
    pieces = {j: _contrast_pieces(problem, j, config) for j in feats}
    joins = {  # joins[j][i]: the join of feature j's pieces from i on
        j: list(accumulate(reversed(ps), lambda rest, piece: _join(piece, rest)))[::-1]
        for j, ps in pieces.items()
    }
    fixed = problem.pinned_except(feats)
    # every probe passes each trimmed feature as the join of its remaining pieces
    entries = {j: js[0] for j, js in joins.items()}
    if not problem.counterexample_in({**fixed, **entries}):
        raise ValidationError(
            "no counterexample once the instance values are excluded at this granularity"
        )
    sets = {}
    for j in order:
        kept = None  # the join of the pieces kept so far
        for piece, rest in zip(pieces[j], joins[j][1:] + [None]):
            trial = _join(kept, rest)  # None: the last piece left stays
            if trial is None or not problem.counterexample_in({**fixed, **entries, j: trial}):
                kept = _join(kept, piece)
        entries[j] = kept
        sets[j] = _entry_set(problem, j, kept)
    delta = grid_delta(problem, config)
    return InflatedExplanation(CONTRASTIVE, feats, sets, order, delta)
