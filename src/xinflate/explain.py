"""Abductive and contrastive explanation extraction.

An abductive explanation (AXp) is a subset-minimal set of features X such
that fixing them at the instance values forces the prediction no matter how
the remaining features move.  A contrastive explanation (CXp) is a
subset-minimal set Y such that freeing only Y admits a point with a
different prediction.  Both come out of a deletion pass: start from all
features and try to discard one at a time, keeping the discard whenever the
defining predicate still holds.  Minimal hitting set duality ties the two
families together and is checked here by exhaustive enumeration on small
problems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, FrozenSet, Iterable, Mapping, Optional, Sequence

from .classifiers import Classifier, validate_classifier
from .errors import BudgetExceededError, ValidationError
from .model import FeatureSpace, Instance, Value, ValueSet, singleton_set
from .oracle import Entry, Oracle, classifier_is_constant

DEFAULT_SUBSET_BUDGET = 4096


@dataclass
class ExplanationProblem:
    """One instance of one classifier, with the oracle session it uses.

    The instance's class must match the classifier's prediction, and the
    classifier must not be constant; both are checked on construction
    unless skip_checks is set (the benchmark sets it after checking the
    shared classifier once).
    """

    classifier: Classifier
    space: FeatureSpace
    instance: Instance
    skip_checks: bool = False
    oracle: Oracle = field(init=False)
    _pins: tuple[ValueSet, ...] = field(init=False, repr=False)

    def __post_init__(self):
        values = self.space.validate_point(self.instance.values)
        self.instance = Instance(values, self.instance.class_id)
        if not self.skip_checks:
            validate_classifier(self.classifier, self.space)
            got = self.classifier.predict(values)
            if got != self.instance.class_id:
                raise ValidationError(
                    f"instance labeled {self.instance.class_id!r} but the model predicts {got!r}"
                )
            if classifier_is_constant(self.classifier, self.space):
                raise ValidationError("constant classifier: nothing to explain")
        self.oracle = Oracle(self.classifier, self.space)
        # built once, so every box that pins feature j passes the same object
        self._pins = tuple(map(singleton_set, self.space.domains, values))

    @classmethod
    def from_point(
        cls, classifier: Classifier, space: FeatureSpace, values: Sequence[Value]
    ) -> "ExplanationProblem":
        point = space.validate_point(values)
        return cls(classifier, space, Instance(point, classifier.predict(point)))

    @property
    def target(self) -> str:
        return self.instance.class_id

    def value_of(self, j: int) -> Value:
        return self.instance.values[j - 1]

    def pin(self, j: int) -> ValueSet:
        """The singleton value set holding the instance value of feature j."""
        self.space.domain(j)  # rejects an index out of range
        return self._pins[j - 1]

    def waxp_holds(self, features: Iterable[int]) -> bool:
        """Fixing these features at the instance forces the prediction."""
        assignment = {j: self.pin(j) for j in features}
        return self.oracle.holds_sufficiency(assignment, self.target)

    def pinned_except(self, features: Iterable[int]) -> dict[int, ValueSet]:
        """Every other feature pinned at its instance value."""
        free = set(features)
        return {j: self.pin(j) for j in self.space.features() if j not in free}

    def wcxp_holds(self, features: Iterable[int]) -> bool:
        """Freeing only these features admits a different prediction."""
        return self.counterexample_in(self.pinned_except(features))

    def sufficiency_holds(self, assignment: Mapping[int, Entry]) -> bool:
        return self.oracle.holds_sufficiency(assignment, self.target)

    def counterexample_in(self, assignment: Mapping[int, Entry]) -> bool:
        return self.oracle.counterexample_in(assignment, self.target)


def _check_order(order: Optional[Sequence[int]], feats: Sequence[int]) -> tuple[int, ...]:
    """The processing order: feats when order is None, else a permutation of them."""
    feats = tuple(feats)
    if order is None:
        return feats
    order = tuple(order)
    if sorted(order) != sorted(feats):
        raise ValidationError(f"order {order} is not a permutation of the features {feats}")
    return order


def _deletion_pass(items: Iterable, holds: Callable[[list], bool], floor: int = 0) -> list:
    """Try dropping each item in turn, keeping a drop when holds(rest) is true.

    Stops once only floor items are left; the survivors keep their order.
    rest is the survivors' own list with the item taken out, so holds must
    not keep it.
    """
    kept = list(items)
    i = 0
    while i < len(kept) > floor:
        item = kept.pop(i)
        if not holds(kept):
            kept.insert(i, item)
            i += 1
    return kept


def find_axp(problem: ExplanationProblem, order: Optional[Sequence[int]] = None) -> tuple[int, ...]:
    """One subset-minimal abductive explanation, by a deletion pass.

    Features are tentatively discarded in the given order (each feature
    costs exactly one oracle call), so the order steers which AXp comes out.
    """
    order = _check_order(order, problem.space.features())
    return tuple(sorted(_deletion_pass(order, problem.waxp_holds)))


def find_cxp(problem: ExplanationProblem, order: Optional[Sequence[int]] = None) -> tuple[int, ...]:
    """One subset-minimal contrastive explanation, by a deletion pass.

    The order ranks features by retention preference: discards are attempted
    from the back, so features early in the order survive when possible.
    """
    order = _check_order(order, problem.space.features())
    return tuple(sorted(_deletion_pass(reversed(order), problem.wcxp_holds)))


def _sorted_sets(family: Iterable[FrozenSet[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(sorted(s)) for s in family)


def _minimal_subsets(universe: Sequence[int], holds, found: list, budget: list[int]) -> bool:
    """Extend found by every subset-minimal subset of universe on which holds is true.

    Subsets are visited in ascending size with supersets of found ones
    skipped, so anything that tests positive is minimal.  Each test spends
    one unit of budget[0]; returns False, testing no further, once it is out.
    """
    if budget[0] < 0:
        raise ValidationError(f"the subset budget must be non-negative, got {budget[0]}")
    for size in range(1, len(universe) + 1):
        for combo in combinations(universe, size):
            cset = frozenset(combo)
            if any(cset >= f for f in found):
                continue
            if budget[0] == 0:
                return False
            budget[0] -= 1
            if holds(cset):
                found.append(cset)
    return True


def enumerate_all(
    problem: ExplanationProblem, max_subsets: int = DEFAULT_SUBSET_BUDGET
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Every AXp and every CXp, by exhaustive subset search.

    The AXps, then the CXps, come from `_minimal_subsets`.  The number of
    predicate tests is capped by max_subsets; running past the cap raises
    BudgetExceededError with the partial families attached.
    """
    feats = tuple(problem.space.features())
    axps: list[FrozenSet[int]] = []
    cxps: list[FrozenSet[int]] = []
    budget = [max_subsets]
    if not (
        _minimal_subsets(feats, problem.waxp_holds, axps, budget)
        and _minimal_subsets(feats, problem.wcxp_holds, cxps, budget)
    ):
        partial = {"axps": _sorted_sets(axps), "cxps": _sorted_sets(cxps), "complete": False}
        raise BudgetExceededError(
            f"enumeration exceeded {max_subsets} subset tests", partial=partial
        )
    return _sorted_sets(axps), _sorted_sets(cxps)


def minimal_hitting_sets(
    family: Iterable[Iterable[int]], max_subsets: int = 1 << 16
) -> tuple[tuple[int, ...], ...]:
    """All minimal hitting sets of a family of non-empty sets.

    Exhaustive by ascending size with superset pruning.  An empty set in
    the family is rejected: nothing can hit it.  An empty family is hit by
    the empty set alone.
    """
    sets = [frozenset(s) for s in family]
    if not all(sets):
        raise ValidationError("family contains an empty set; it cannot be hit")
    universe = sorted(frozenset().union(*sets))
    found: list[FrozenSet[int]] = []
    if not _minimal_subsets(universe, lambda c: all(c & s for s in sets), found, [max_subsets]):
        raise BudgetExceededError(f"hitting set search exceeded {max_subsets} tests")
    return _sorted_sets(found) if sets else ((),)
