"""Feature domains, value sets, and explanation containers.

Features are indexed 1..m throughout the public API.  A feature ranges over
either a categorical domain (a fixed tuple of labels) or an ordinal domain
(a closed rational interval, continuous or integer valued).  All numeric
values are exact rationals (`fractions.Fraction`); floats are rejected at the
boundary so that interval endpoints and step arithmetic never drift.

Subsets of a domain are represented by `ValueSet`:

* `CatSet`    - a non-empty set of labels of a categorical domain.
* `IntervalUnion` - a normalized union of intervals of an ordinal domain.
  Normalized means: intervals are non-empty, pairwise disjoint, sorted in
  ascending order, clipped to the domain, and not mergeable with a neighbour.
  For integer domains every interval is snapped to closed integral bounds,
  so two intervals whose gap contains no integer are merged.

Construct interval unions with `interval_union` (and label sets with
`cat_set`); the constructors normalize, and normalization is idempotent.
Which points of an interval a domain holds is decided in one place,
`clip_snap`, which the oracle reads too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import ValidationError

Value = Union[str, Fraction]

CONTINUOUS = "continuous"
INTEGER = "integer"

ABDUCTIVE = "abductive"
CONTRASTIVE = "contrastive"


def rational(x: Union[int, str, Fraction]) -> Fraction:
    """Parse an exact rational from an int, Fraction, or string.

    Strings may be integers ("3"), decimals ("6.6"), or ratios ("33/5").
    Floats are rejected: binary floats do not round-trip decimal constants.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise ValidationError(f"not a rational value: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"not a rational literal: {x!r}") from exc
    if isinstance(x, float):
        raise ValidationError(
            f"float {x!r} rejected: pass a string or Fraction for exact arithmetic"
        )
    raise ValidationError(f"not a rational value: {x!r}")


def rational_str(x: Fraction) -> str:
    """Render a rational as a decimal string when exact, else as p/q."""
    if x.denominator == 1:
        return str(x.numerator)
    den = x.denominator
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{x.numerator}/{x.denominator}"
    digits = max(twos, fives)
    scaled = x * Fraction(10) ** digits
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled.numerator), 10 ** digits)
    return f"{sign}{whole}.{str(frac).zfill(digits)}"


# ---------------------------------------------------------------------------
# Domains


@dataclass(frozen=True)
class Categorical:
    """A finite unordered domain of at least two distinct labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) < 2:
            raise ValidationError("categorical domain needs at least two labels")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError(f"duplicate labels in domain: {self.labels}")
        if not all(isinstance(l, str) for l in self.labels):
            raise ValidationError("categorical labels must be strings")

    def contains(self, u: Value) -> bool:
        return isinstance(u, str) and u in self.labels


@dataclass(frozen=True)
class Ordinal:
    """A closed rational interval [lo, hi], continuous or integer valued."""

    lo: Fraction
    hi: Fraction
    kind: str = CONTINUOUS

    def __post_init__(self):
        object.__setattr__(self, "lo", rational(self.lo))
        object.__setattr__(self, "hi", rational(self.hi))
        if self.kind not in (CONTINUOUS, INTEGER):
            raise ValidationError(f"unknown ordinal kind: {self.kind!r}")
        if not self.lo < self.hi:
            raise ValidationError(f"ordinal domain needs lo < hi, got [{self.lo}, {self.hi}]")
        if self.kind == INTEGER and (self.lo.denominator != 1 or self.hi.denominator != 1):
            raise ValidationError("integer domain bounds must be integral")

    def contains(self, u: Value) -> bool:
        if not isinstance(u, Fraction):
            return False
        if self.kind == INTEGER and u.denominator != 1:
            return False
        return self.lo <= u <= self.hi


Domain = Union[Categorical, Ordinal]


# ---------------------------------------------------------------------------
# Value sets


@dataclass(frozen=True)
class Interval:
    """One interval with per-endpoint openness flags."""

    lo: Fraction
    hi: Fraction
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        object.__setattr__(self, "lo", rational(self.lo))
        object.__setattr__(self, "hi", rational(self.hi))

    def contains(self, u: Fraction) -> bool:
        if u < self.lo or u > self.hi:
            return False
        if u == self.lo and not self.lo_closed:
            return False
        if u == self.hi and not self.hi_closed:
            return False
        return True


@dataclass(frozen=True)
class CatSet:
    """A non-empty set of labels taken from one categorical domain."""

    labels: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "labels", frozenset(self.labels))
        if not self.labels:
            raise ValidationError("empty label set")


@dataclass(frozen=True)
class IntervalUnion:
    """A normalized, non-empty union of intervals of one ordinal domain."""

    intervals: tuple[Interval, ...]

    def __post_init__(self):
        if not self.intervals:
            raise ValidationError("empty interval union")


ValueSet = Union[CatSet, IntervalUnion]


def cat_set(domain: Categorical, labels: Iterable[str]) -> CatSet:
    labs = frozenset(labels)
    unknown = labs - set(domain.labels)
    if unknown:
        raise ValidationError(f"labels not in domain: {sorted(unknown)}")
    return CatSet(labs)


def clip_snap(domain: Ordinal, iv: Interval) -> Optional[Interval]:
    """The points of iv that the domain holds: iv clipped to the domain and,
    on an integer domain, snapped to closed integer ends (iv itself when
    that changes nothing); None when no point is left."""
    lo, hi, lo_closed, hi_closed = iv.lo, iv.hi, iv.lo_closed, iv.hi_closed
    if lo < domain.lo:
        lo, lo_closed = domain.lo, True
    if hi > domain.hi:
        hi, hi_closed = domain.hi, True
    if domain.kind == INTEGER:
        lo = math.ceil(lo) if lo_closed else math.floor(lo) + 1
        hi = math.floor(hi) if hi_closed else math.ceil(hi) - 1
        lo_closed = hi_closed = True
    if not (lo < hi or (lo == hi and lo_closed and hi_closed)):
        return None
    if (lo, hi, lo_closed, hi_closed) == (iv.lo, iv.hi, iv.lo_closed, iv.hi_closed):
        return iv
    return Interval(lo, hi, lo_closed, hi_closed)


def interval_union(domain: Ordinal, intervals: Iterable[Interval]) -> IntervalUnion:
    """Normalize intervals into the canonical union representation."""
    pieces = [p for iv in intervals if (p := clip_snap(domain, iv))]
    if not pieces:
        raise ValidationError("interval union is empty within the domain")
    pieces.sort(key=lambda p: (p.lo, not p.lo_closed))
    merged = [pieces[0]]
    for nxt in pieces[1:]:
        cur = merged[-1]
        if domain.kind == INTEGER:
            touching = nxt.lo <= cur.hi + 1
        else:
            touching = nxt.lo < cur.hi or (nxt.lo == cur.hi and (cur.hi_closed or nxt.lo_closed))
        if touching:
            if (nxt.hi, nxt.hi_closed) > (cur.hi, cur.hi_closed):
                merged[-1] = Interval(cur.lo, nxt.hi, cur.lo_closed, nxt.hi_closed)
        else:
            merged.append(nxt)
    return IntervalUnion(tuple(merged))


def singleton_set(domain: Domain, value: Value) -> ValueSet:
    """The value set holding exactly one point of the domain."""
    if isinstance(domain, Categorical):
        if not domain.contains(value):
            raise ValidationError(f"label {value!r} not in domain")
        return CatSet(frozenset([value]))
    v = rational(value)
    if not domain.contains(v):
        raise ValidationError(f"value {v} outside domain [{domain.lo}, {domain.hi}]")
    return IntervalUnion((Interval(v, v, True, True),))


def full_set(domain: Domain) -> ValueSet:
    if isinstance(domain, Categorical):
        return CatSet(frozenset(domain.labels))
    return IntervalUnion((Interval(domain.lo, domain.hi, True, True),))


def _check_pair(domain: Domain, s: ValueSet) -> None:
    if isinstance(domain, Categorical) != isinstance(s, CatSet):
        raise ValidationError(
            f"value set {type(s).__name__} does not fit domain {type(domain).__name__}"
        )


def vs_contains(s: ValueSet, u: Value) -> bool:
    """Membership test.  Raises on a label/rational type mismatch."""
    if isinstance(s, CatSet):
        if not isinstance(u, str):
            raise ValidationError(f"expected a label, got {u!r}")
        return u in s.labels
    if isinstance(u, str):
        raise ValidationError(f"expected a rational value, got {u!r}")
    u = rational(u)
    return any(iv.contains(u) for iv in s.intervals)


def vs_complement(domain: Domain, s: ValueSet) -> Optional[ValueSet]:
    """The complement of s within the domain; None when s covers the domain."""
    _check_pair(domain, s)
    if isinstance(s, CatSet):
        rest = frozenset(domain.labels) - s.labels
        return CatSet(rest) if rest else None
    gaps = []
    cursor = domain.lo
    cursor_closed = True
    for iv in s.intervals:
        gap = Interval(cursor, iv.lo, cursor_closed, not iv.lo_closed)
        gaps.append(gap)
        cursor = iv.hi
        cursor_closed = not iv.hi_closed
    gaps.append(Interval(cursor, domain.hi, cursor_closed, True))
    try:
        return interval_union(domain, gaps)
    except ValidationError:
        return None


def _intersect_intervals(a: Interval, b: Interval) -> Interval:
    # the higher lower end and the lower upper end, the open one on a tie
    lo, lo_open = max((a.lo, not a.lo_closed), (b.lo, not b.lo_closed))
    hi, hi_closed = min((a.hi, a.hi_closed), (b.hi, b.hi_closed))
    return Interval(lo, hi, not lo_open, hi_closed)


def vs_intersect(domain: Domain, a: ValueSet, b: ValueSet) -> Optional[ValueSet]:
    """Intersection of two value sets of one domain; None when disjoint."""
    _check_pair(domain, a)
    _check_pair(domain, b)
    if isinstance(a, CatSet):
        common = a.labels & b.labels
        return CatSet(common) if common else None
    pieces = [_intersect_intervals(x, y) for x in a.intervals for y in b.intervals]
    try:
        return interval_union(domain, pieces)
    except ValidationError:
        return None


def vs_union(domain: Domain, first: ValueSet, *rest: ValueSet) -> ValueSet:
    """Union of one or more value sets of one domain, normalized once."""
    sets = (first,) + rest
    for s in sets:
        _check_pair(domain, s)
    if isinstance(first, CatSet):
        return CatSet(frozenset().union(*(s.labels for s in sets)))
    return interval_union(domain, [iv for s in sets for iv in s.intervals])


def vs_subset(domain: Domain, a: ValueSet, b: ValueSet) -> bool:
    """Whether a is contained in b."""
    inter = vs_intersect(domain, a, b)
    return inter == a


def vs_is_full(domain: Domain, s: ValueSet) -> bool:
    return s == full_set(domain)


def vs_pieces(s: ValueSet) -> int:
    """Number of labels or disjoint intervals in the set."""
    if isinstance(s, CatSet):
        return len(s.labels)
    return len(s.intervals)


# ---------------------------------------------------------------------------
# Feature space and instances


@dataclass(frozen=True)
class FeatureSpace:
    """An ordered tuple of feature domains with display names.

    Features are addressed by 1-based index j in 1..m, matching the way
    explanations list them.
    """

    domains: tuple[Domain, ...]
    names: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.domains:
            raise ValidationError("feature space needs at least one feature")
        if not self.names:
            object.__setattr__(
                self, "names", tuple(f"f{j}" for j in range(1, len(self.domains) + 1))
            )
        if len(self.names) != len(self.domains):
            raise ValidationError(
                f"{len(self.names)} names for {len(self.domains)} domains"
            )
        if len(set(self.names)) != len(self.names):
            raise ValidationError("feature names must be distinct")

    @property
    def m(self) -> int:
        return len(self.domains)

    def features(self) -> range:
        return range(1, self.m + 1)

    def domain(self, j: int) -> Domain:
        if not 1 <= j <= self.m:
            raise ValidationError(f"feature index {j} out of range 1..{self.m}")
        return self.domains[j - 1]

    def name(self, j: int) -> str:
        self.domain(j)  # rejects an index out of range
        return self.names[j - 1]

    def validate_point(self, values: Sequence[Value]) -> tuple[Value, ...]:
        """Coerce and check one point of the space; returns the coerced tuple."""
        if len(values) != self.m:
            raise ValidationError(f"point has {len(values)} values, expected {self.m}")
        out = []
        for j, u in enumerate(values, start=1):
            d = self.domain(j)
            if isinstance(d, Categorical):
                if not d.contains(u):
                    raise ValidationError(
                        f"feature {j} ({self.name(j)}): label {u!r} not in domain"
                    )
                out.append(u)
            else:
                v = rational(u)
                if not d.contains(v):
                    raise ValidationError(
                        f"feature {j} ({self.name(j)}): value {v} not in domain"
                    )
                out.append(v)
        return tuple(out)


@dataclass(frozen=True)
class Instance:
    """A point of the feature space together with its predicted class."""

    values: tuple[Value, ...]
    class_id: str


@dataclass(frozen=True)
class InflatedExplanation:
    """An explanation whose features carry widened value sets.

    kind is "abductive" (sets are sufficient: keeping each feature anywhere
    inside its set preserves the prediction) or "contrastive" (sets are
    reachable: some assignment inside them, with the other features held at
    the instance, changes the prediction).  probe_order records the order in
    which features were processed, and delta the step width used on ordinal
    features (0 when expansion was exact).
    """

    kind: str
    features: tuple[int, ...]
    sets: Mapping[int, ValueSet]
    probe_order: tuple[int, ...] = ()
    delta: Fraction = Fraction(0)

    def __post_init__(self):
        if self.kind not in (ABDUCTIVE, CONTRASTIVE):
            raise ValidationError(f"unknown explanation kind: {self.kind!r}")
        if set(self.features) != set(self.sets):
            raise ValidationError("explanation features and sets disagree")

    def set_for(self, j: int) -> ValueSet:
        return self.sets[j]
