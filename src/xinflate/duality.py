"""Duality between inflated abductive and contrastive explanations.

Plain AXps and CXps are minimal hitting sets of one another.  The inflated
forms keep a trace of that: for an inflated abductive explanation (X, E)
and an inflated contrastive one (Y, G) of the same instance, some feature
j in X intersect Y has disjoint sets, E_j and G_j cannot overlap.  Were
every intersection inhabited, a point mixing shared values, contrastive
values, and instance values would have to take the prediction and a
different class at once.

The constructions here cross the families.  A selector theta picks one
feature from each inflated abductive explanation; the chosen features form
Y and each G_j intersects the complements of the E_j sets that chose j.
The mirror construction phi builds an abductive candidate from contrastive
ones.  Neither is valid for every model, so both are checked against their
defining condition and raise DualityConstructionError carrying the failed
candidate; phi then tops each set up to maximality with `grow`.

The enumerations search in the engine's compiled form (see
`CompiledModel.box`): a candidate is an atom mask, or the ends of a grid
interval on a monotone model, and one step larger adds an atom's bit or
moves an end to the next grid point.  Only the answers become value sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Iterable, Optional, Sequence, Union

from .errors import BudgetExceededError, DualityConstructionError, ValidationError
from .explain import ExplanationProblem, _deletion_pass, minimal_hitting_sets
from .inflate import (
    InflationConfig,
    _checked_features,
    _contrast_pieces,
    _entry_set,
    _feature_pieces,
    grid,
    grid_delta,
    grow,
)
from .model import (
    ABDUCTIVE,
    CONTRASTIVE,
    CatSet,
    Domain,
    INTEGER,
    InflatedExplanation,
    Value,
    ValueSet,
    vs_contains,
    vs_complement,
    vs_intersect,
    vs_union,
)

Selector = Union[Sequence[int], Callable[[InflatedExplanation], int]]


@dataclass(frozen=True)
class ExplanationSets:
    """The complete AXp and CXp families of one problem instance."""

    axps: tuple[tuple[int, ...], ...]
    cxps: tuple[tuple[int, ...], ...]

    def mhs_dual(self) -> bool:
        """Each family is exactly the minimal hitting sets of the other."""
        axp_sets = {frozenset(a) for a in self.axps}
        cxp_sets = {frozenset(c) for c in self.cxps}
        from_cxps = {frozenset(h) for h in minimal_hitting_sets(self.cxps)}
        from_axps = {frozenset(h) for h in minimal_hitting_sets(self.axps)}
        return axp_sets == from_cxps and cxp_sets == from_axps


def check_hits(
    problem: ExplanationProblem,
    iaxp: InflatedExplanation,
    icxp: InflatedExplanation,
) -> Optional[int]:
    """The lowest shared feature whose sets are disjoint, or None.

    None signals a violation of the expected disjointness and is worth
    reporting together with the pair that produced it.
    """
    if iaxp.kind != ABDUCTIVE or icxp.kind != CONTRASTIVE:
        raise ValidationError("check_hits wants an abductive and a contrastive explanation")
    for j in sorted(set(iaxp.features) & set(icxp.features)):
        domain = problem.space.domain(j)
        if vs_intersect(domain, iaxp.set_for(j), icxp.set_for(j)) is None:
            return j
    return None


def _selected_complements(
    problem: ExplanationProblem,
    expls: Sequence[InflatedExplanation],
    selector: Selector,
    kind: str,
) -> tuple[list[int], dict[int, ValueSet]]:
    """The picks, and per picked feature the intersection of the complements
    of the sets that chose it."""
    if not expls:
        raise ValidationError(f"no {kind} explanations given")
    picks = [selector(e) for e in expls] if callable(selector) else list(selector)
    if len(picks) != len(expls):
        raise ValidationError(f"{len(picks)} picks for {len(expls)} explanations")
    for e, j in zip(expls, picks):
        if e.kind != kind:
            raise ValidationError(f"expected only {kind} explanations")
        if j not in e.features:
            raise ValidationError(f"selected feature {j} is not in the explanation {e.features}")
    sets: dict[int, ValueSet] = {}
    for e, j in zip(expls, picks):
        domain = problem.space.domain(j)
        comp = vs_complement(domain, e.set_for(j))
        if comp is None:
            raise DualityConstructionError(
                f"feature {j}: a selected {kind} set covers the whole domain",
                candidate=(tuple(picks), None),
            )
        if j in sets:
            comp = vs_intersect(domain, sets[j], comp)
            if comp is None:
                raise DualityConstructionError(
                    f"feature {j}: the selected complements have empty intersection",
                    candidate=(tuple(picks), dict(sets)),
                )
        sets[j] = comp
    return picks, sets


def icxp_from_iaxps(
    problem: ExplanationProblem,
    iaxps: Sequence[InflatedExplanation],
    selector: Selector,
) -> InflatedExplanation:
    """Build an inflated contrastive explanation from abductive ones.

    The selector picks one feature per abductive explanation; each picked
    feature gets the intersection of the complements of the sets that chose
    it.  The candidate is validated (a counterexample must exist inside the
    sets with everything else at the instance) and then minimized feature
    wise; the value sets themselves are not narrowed further.
    """
    _, sets = _selected_complements(problem, iaxps, selector, ABDUCTIVE)
    feats = tuple(sorted(sets))

    def exists_with(live: dict[int, ValueSet]) -> bool:
        return problem.counterexample_in({**problem.pinned_except(live), **live})

    if not exists_with(sets):
        raise DualityConstructionError(
            "no counterexample inside the constructed contrastive sets",
            candidate=InflatedExplanation(CONTRASTIVE, feats, dict(sets)),
        )
    kept = _deletion_pass(feats, lambda rest: exists_with({k: sets[k] for k in rest}), floor=1)
    return InflatedExplanation(CONTRASTIVE, tuple(kept), {k: sets[k] for k in kept})


def iaxp_from_icxps(
    problem: ExplanationProblem,
    icxps: Sequence[InflatedExplanation],
    selector: Selector,
) -> InflatedExplanation:
    """Build an inflated abductive explanation from contrastive ones.

    The selector picks one feature per contrastive explanation; each picked
    feature gets the intersection of the complements of the sets that chose
    it (these always contain the instance value).  The candidate must be
    sufficient; afterwards each feature's set is topped up to maximality by
    growing it over the missing labels or cells in domain order.  Sets of
    monotone models are only validated: the construction can puncture an
    interval, and interval growth does not apply to a punctured set.
    """
    picks, sets = _selected_complements(problem, icxps, selector, CONTRASTIVE)
    for j, s in sets.items():
        if not vs_contains(s, problem.value_of(j)):
            raise DualityConstructionError(
                f"feature {j}: constructed set omits the instance value",
                candidate=(tuple(picks), dict(sets)),
            )
    feats = tuple(sorted(sets))
    if not problem.sufficiency_holds(sets):
        raise DualityConstructionError(
            "constructed sets are not sufficient for the prediction",
            candidate=InflatedExplanation(ABDUCTIVE, feats, dict(sets)),
        )
    if not problem.oracle.model.monotone:
        for j in feats:
            inside = problem.oracle.model.inside(j - 1, sets[j])
            added = grow(problem, j, sets, inside, problem.oracle.model.atoms[j - 1]) & ~inside
            if added:
                sets[j] = vs_union(problem.space.domain(j), sets[j], _entry_set(problem, j, added))
    return InflatedExplanation(ABDUCTIVE, feats, dict(sets))


# ---------------------------------------------------------------------------
# Exhaustive enumeration of the inflated families (small problems)


def _axp_feature_options(pieces: list, at: int) -> list:
    """A feature's candidate entries, from its pieces (see `_feature_pieces`):
    every pair of grid ends around the instance's point, or the instance's
    atom joined with each combination of the others, by size."""
    if pieces[at].__class__ is not int:
        return [(*a, *b, True) for a in pieces[: at + 1] for b in pieces[at:]]
    rest = pieces[:at] + pieces[at + 1 :]
    sizes = range(len(rest) + 1)
    return [pieces[at] | sum(combo) for size in sizes for combo in combinations(rest, size)]


def _one_step_larger(entry, pieces: list) -> list:
    """The entries one atom larger than a mask, in domain order, or one grid
    point larger than grid ends, up first, then down."""
    if entry.__class__ is int:
        return [entry | bit for bit in pieces if not bit & entry]
    lo, hi = pieces.index(entry[:2]), pieces.index(entry[2:4])
    up = [(*entry[:2], *pieces[hi + 1], True)] if hi + 1 < len(pieces) else []
    return up + ([(*pieces[lo - 1], *entry[2:4], True)] if lo else [])


def _counts(problem: ExplanationProblem, j: int, config: InflationConfig) -> tuple[int, int]:
    """How many entries `_axp_feature_options` and how many pieces
    `_contrast_pieces` give feature j, without building them."""
    if problem.oracle.model.monotone:
        below, above, _ = grid(problem, j, config)
        return below * above, below + above - 2
    n = len(problem.oracle.model.atoms[j - 1])
    return 2 ** (n - 1), n - 1


def _check_cap(counts: Iterable[int], max_candidates: int, what: str) -> None:
    """Refuse more candidates than max_candidates, the product of the counts."""
    if max_candidates < 0:
        raise ValidationError(f"max_candidates must be non-negative, got {max_candidates}")
    total = math.prod(counts)
    if total > max_candidates:
        raise BudgetExceededError(f"{total} {what} exceed the cap of {max_candidates}")


def enumerate_iaxps(
    problem: ExplanationProblem,
    axp: Sequence[int],
    config: Optional[InflationConfig] = None,
    max_candidates: int = 4096,
    trusted: bool = False,
) -> tuple[InflatedExplanation, ...]:
    """Every locally maximal inflation of one abductive explanation.

    Exhausts the per-feature candidate sets (label subsets, cell unions, or
    grid intervals) and keeps the sufficient, locally maximal combinations.
    Greedy inflation returns one member of this family per probe order;
    the family can hold more.  axp is refused as `inflate_axp` refuses it;
    trusted skips the one oracle call that checks its sufficiency.
    """
    config = config or InflationConfig()
    feats = _checked_features(problem, axp, ABDUCTIVE, trusted)
    counts = [_counts(problem, j, config)[0] for j in feats]
    _check_cap(counts, max_candidates, "candidate set families")
    pieces = {j: _feature_pieces(problem, j, config) for j in feats}
    options = [_axp_feature_options(*pieces[j]) for j in feats]
    delta = grid_delta(problem, config)
    out = []
    for combo in product(*options):
        entries = dict(zip(feats, combo))
        if problem.sufficiency_holds(entries) and not any(  # and locally maximal
            problem.sufficiency_holds({**entries, j: larger})
            for j, entry in entries.items()
            for larger in _one_step_larger(entry, pieces[j][0])
        ):
            sets = {j: _entry_set(problem, j, e) for j, e in entries.items()}
            out.append(InflatedExplanation(ABDUCTIVE, feats, sets, (), delta))
    return tuple(out)


def _piece_rep(domain: Domain, piece: ValueSet) -> Value:
    """A point of a one-label or one-interval piece, such as an atom."""
    if isinstance(piece, CatSet):
        (label,) = piece.labels
        return label
    iv = piece.intervals[0]
    if domain.kind == INTEGER or iv.lo == iv.hi:
        return iv.lo
    return (iv.lo + iv.hi) / 2


def enumerate_icxps(
    problem: ExplanationProblem,
    cxp: Sequence[int],
    config: Optional[InflationConfig] = None,
    max_candidates: int = 4096,
    trusted: bool = False,
) -> tuple[InflatedExplanation, ...]:
    """Every single-piece contrastive witness family over one CXp.

    Each feature of the explanation takes one off-instance piece (a label,
    a cell, or a grid point); a combination whose representative point
    flips the prediction is a valid contrastive family because the
    prediction is constant on the piece product.  cxp is refused as
    `shrink_cxp` refuses it; trusted skips the one oracle call that checks
    that it is contrastive.
    """
    config = config or InflationConfig()
    feats = _checked_features(problem, cxp, CONTRASTIVE, trusted)
    counts = [_counts(problem, j, config)[1] for j in feats]
    _check_cap(counts, max_candidates, "witness combinations")
    pieces = [_contrast_pieces(problem, j, config) for j in feats]
    options = [[_entry_set(problem, j, e) for e in ps] for j, ps in zip(feats, pieces)]
    delta = grid_delta(problem, config)
    out = []
    for combo in product(*options):
        point = list(problem.instance.values)
        for j, piece in zip(feats, combo):
            point[j - 1] = _piece_rep(problem.space.domain(j), piece)
        if problem.classifier.predict(tuple(point)) != problem.target:
            out.append(InflatedExplanation(CONTRASTIVE, feats, dict(zip(feats, combo)), (), delta))
    return tuple(out)
