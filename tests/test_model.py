"""Value sets, domains, and the exact-rational boundary."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from xinflate.errors import ValidationError
from xinflate.model import (
    Categorical,
    FeatureSpace,
    INTEGER,
    Instance,
    Interval,
    IntervalUnion,
    Ordinal,
    cat_set,
    full_set,
    interval_union,
    rational,
    rational_str,
    singleton_set,
    vs_complement,
    vs_contains,
    vs_intersect,
    vs_is_full,
    vs_pieces,
    vs_subset,
    vs_union,
)

UNIT = Ordinal(Fraction(0), Fraction(10))
INT_DOM = Ordinal(Fraction(0), Fraction(10), INTEGER)
COLORS = Categorical(("red", "green", "blue"))


class TestRational:
    def test_parses_int_str_fraction(self):
        assert rational(3) == Fraction(3)
        assert rational("6.5") == Fraction(13, 2)
        assert rational("1/3") == Fraction(1, 3)
        assert rational(Fraction(2, 4)) == Fraction(1, 2)

    def test_rejects_floats_and_bools(self):
        with pytest.raises(ValidationError):
            rational(0.1)
        with pytest.raises(ValidationError):
            rational(True)

    def test_rejects_garbage_strings(self):
        with pytest.raises(ValidationError):
            rational("6.5x")

    def test_str_decimal_when_exact(self):
        assert rational_str(Fraction(13, 2)) == "6.5"
        assert rational_str(Fraction(3)) == "3"
        assert rational_str(Fraction(1, 3)) == "1/3"
        assert rational_str(Fraction(-7, 4)) == "-1.75"

    def test_str_round_trips(self):
        for f in (Fraction(13, 2), Fraction(-3, 7), Fraction(0), Fraction(10**6, 3)):
            assert rational(rational_str(f)) == f


class TestDomains:
    def test_categorical_needs_two_distinct_labels(self):
        with pytest.raises(ValidationError):
            Categorical(("only",))
        with pytest.raises(ValidationError):
            Categorical(("a", "a"))

    def test_ordinal_needs_ordered_bounds(self):
        with pytest.raises(ValidationError):
            Ordinal(Fraction(5), Fraction(5))
        with pytest.raises(ValidationError):
            Ordinal(Fraction(5), Fraction(1))

    def test_integer_domain_needs_integral_bounds(self):
        with pytest.raises(ValidationError):
            Ordinal(Fraction(1, 2), Fraction(5), INTEGER)

    def test_integer_domain_contains_only_integers(self):
        domain = Ordinal(Fraction(0), Fraction(5), INTEGER)
        assert domain.contains(Fraction(2))
        assert not domain.contains(Fraction(5, 2))
        assert not domain.contains(Fraction(6))
        assert Ordinal(Fraction(0), Fraction(5)).contains(Fraction(5, 2))


class TestIntervalUnion:
    def test_merges_overlaps_and_sorts(self):
        u = interval_union(UNIT, [Interval(Fraction(4), Fraction(6)), Interval(Fraction(0), Fraction(5))])
        assert len(u.intervals) == 1
        assert u.intervals[0] == Interval(Fraction(0), Fraction(6))

    def test_keeps_disjoint_pieces_apart(self):
        u = interval_union(
            UNIT,
            [Interval(Fraction(0), Fraction(2), True, False), Interval(Fraction(3), Fraction(4))],
        )
        assert vs_pieces(u) == 2

    def test_half_open_pieces_touching_merge(self):
        u = interval_union(
            UNIT,
            [Interval(Fraction(0), Fraction(2), True, False), Interval(Fraction(2), Fraction(4))],
        )
        assert vs_pieces(u) == 1

    def test_clips_to_domain(self):
        u = interval_union(UNIT, [Interval(Fraction(-5), Fraction(3))])
        assert u.intervals[0].lo == Fraction(0)

    def test_empty_union_rejected(self):
        with pytest.raises(ValidationError):
            interval_union(UNIT, [Interval(Fraction(3), Fraction(3), True, False)])

    def test_integer_snapping(self):
        u = interval_union(INT_DOM, [Interval(Fraction(3, 2), Fraction(7, 2))])
        (iv,) = u.intervals
        assert (iv.lo, iv.hi, iv.lo_closed, iv.hi_closed) == (Fraction(2), Fraction(3), True, True)

    def test_integer_pieces_with_no_integer_are_dropped(self):
        with pytest.raises(ValidationError):
            interval_union(INT_DOM, [Interval(Fraction(5, 2), Fraction(11, 4))])

    def test_integer_adjacent_pieces_merge(self):
        u = interval_union(
            INT_DOM, [Interval(Fraction(0), Fraction(2)), Interval(Fraction(3), Fraction(5))]
        )
        assert vs_pieces(u) == 1
        assert u.intervals[0] == Interval(Fraction(0), Fraction(5))


class TestSetOps:
    def test_cat_complement(self):
        s = cat_set(COLORS, ["red"])
        c = vs_complement(COLORS, s)
        assert c.labels == frozenset({"green", "blue"})
        assert vs_complement(COLORS, full_set(COLORS)) is None

    def test_interval_complement_openness(self):
        s = interval_union(UNIT, [Interval(Fraction(2), Fraction(5), True, False)])
        c = vs_complement(UNIT, s)
        assert vs_pieces(c) == 2
        lo_piece, hi_piece = c.intervals
        assert (lo_piece.lo, lo_piece.hi, lo_piece.hi_closed) == (Fraction(0), Fraction(2), False)
        assert (hi_piece.lo, hi_piece.hi, hi_piece.lo_closed) == (Fraction(5), Fraction(10), True)

    def test_intersect_disjoint_is_none(self):
        a = interval_union(UNIT, [Interval(Fraction(0), Fraction(2), True, False)])
        b = interval_union(UNIT, [Interval(Fraction(2), Fraction(4))])
        assert vs_intersect(UNIT, a, b) is None

    def test_intersect_integer_snap_can_empty(self):
        a = interval_union(UNIT := Ordinal(Fraction(0), Fraction(10), INTEGER), [Interval(Fraction(0), Fraction(3))])
        b = IntervalUnion((Interval(Fraction(7, 2), Fraction(9, 2), True, False),))
        assert vs_intersect(UNIT, a, b) is None

    def test_type_mismatch_raises(self):
        with pytest.raises(ValidationError):
            vs_contains(cat_set(COLORS, ["red"]), Fraction(1))

    def test_singleton_and_full(self):
        s = singleton_set(UNIT, Fraction(3))
        assert vs_contains(s, Fraction(3))
        assert not vs_contains(s, Fraction(4))
        assert vs_is_full(UNIT, full_set(UNIT))
        assert not vs_is_full(UNIT, s)
        assert vs_is_full(COLORS, cat_set(COLORS, COLORS.labels))


def _unions(domain):
    """Hypothesis strategy for interval unions over a small grid."""
    grid = [Fraction(k, 2) for k in range(21)]

    def build(picks):
        ivs = []
        for a, b, lc, hc in picks:
            lo, hi = (a, b) if a <= b else (b, a)
            if lo == hi and not (lc and hc):
                continue
            ivs.append(Interval(lo, hi, lc, hc))
        if not ivs:
            return None
        try:
            return interval_union(domain, ivs)
        except ValidationError:
            return None

    piece = st.tuples(st.sampled_from(grid), st.sampled_from(grid), st.booleans(), st.booleans())
    return st.lists(piece, min_size=1, max_size=4).map(build).filter(lambda u: u is not None)


@given(_unions(UNIT))
def test_complement_is_involutive(u):
    c = vs_complement(UNIT, u)
    if c is None:
        assert vs_is_full(UNIT, u)
    else:
        assert vs_complement(UNIT, c) == u or vs_union(UNIT, u, c) == full_set(UNIT)
        assert vs_intersect(UNIT, u, c) is None
        back = vs_complement(UNIT, c)
        assert back == u


@given(_unions(UNIT), _unions(UNIT))
def test_intersection_is_lower_bound(a, b):
    inter = vs_intersect(UNIT, a, b)
    if inter is None:
        return
    assert vs_subset(UNIT, inter, a)
    assert vs_subset(UNIT, inter, b)
    probe = [iv.lo for iv in inter.intervals] + [iv.hi for iv in inter.intervals]
    for v in probe:
        if vs_contains(inter, v):
            assert vs_contains(a, v) and vs_contains(b, v)


@given(_unions(UNIT), _unions(UNIT), _unions(UNIT))
def test_union_is_upper_bound(a, b, c):
    u = vs_union(UNIT, a, b)
    assert vs_subset(UNIT, a, u)
    assert vs_subset(UNIT, b, u)
    assert vs_union(UNIT, a, b, c) == vs_union(UNIT, u, c)
    assert vs_subset(UNIT, c, vs_union(UNIT, a, b, c))


@given(_unions(INT_DOM))
def test_integer_unions_have_integral_closed_endpoints(u):
    for iv in u.intervals:
        assert iv.lo.denominator == 1 and iv.hi.denominator == 1
        assert iv.lo_closed and iv.hi_closed


class TestFeatureSpace:
    def test_default_names(self):
        space = FeatureSpace((UNIT, COLORS))
        assert space.names == ("f1", "f2")
        assert space.name(2) == "f2"

    def test_validate_point_coerces(self):
        space = FeatureSpace((UNIT, COLORS))
        pt = space.validate_point(["6.5", "red"])
        assert pt == (Fraction(13, 2), "red")

    def test_validate_point_rejects_out_of_domain(self):
        space = FeatureSpace((UNIT, COLORS))
        with pytest.raises(ValidationError):
            space.validate_point(["11", "red"])
        with pytest.raises(ValidationError):
            space.validate_point(["3", "mauve"])
        with pytest.raises(ValidationError):
            space.validate_point(["3"])

    def test_integer_feature_rejects_fractions(self):
        space = FeatureSpace((INT_DOM,))
        with pytest.raises(ValidationError):
            space.validate_point(["5/2"])

    def test_instance(self):
        space = FeatureSpace((UNIT, COLORS))
        inst = Instance(space.validate_point(["3", "red"]), "yes")
        assert inst.values == (Fraction(3), "red")
        assert inst.class_id == "yes"
