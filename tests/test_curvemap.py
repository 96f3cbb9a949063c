import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apalm.curvemap import CurveMap, CurveStructureError, LookupError_
from apalm.problems import SolutionPoint
from bits import row_bits


def pt(u, lam=0.0):
    return SolutionPoint(np.array([float(u)]), lam)


def s_at(m, xi):
    """The s that collect() reports for key xi."""
    return {k: s for _, k, s, _, _ in m.collect()}[xi]


# the start's virtual predecessor of every map here
W_PREV0 = pt(-1.0)


def make_map(s_coords, branch=0):
    sols = [pt(float(i)) for i in range(len(s_coords))]
    return CurveMap.from_serial(branch, sols, list(s_coords), W_PREV0)


class TestInit:
    def test_xi_is_normalized_s(self):
        m = make_map([0.0, 1.0, 2.0])
        assert m.xi_keys() == [0.0, 0.5, 1.0]

    def test_roof_style_spacing(self):
        m = make_map([0.0, 30.0, 60.0, 90.0])
        assert m.xi_keys() == pytest.approx([0.0, 1 / 3, 2 / 3, 1.0])

    def test_single_interval(self):
        m = make_map([0.0, 0.7])
        assert m.xi_keys() == [0.0, 1.0]

    def test_levels_and_prev(self):
        m = make_map([0.0, 1.0, 2.0])
        e0 = m.lookup(0.0)
        e1 = m.lookup(0.5)
        assert e0.level == 0 and e1.level == 0
        assert e0.w_prev is W_PREV0
        assert e1.w_prev is e0.w

    def test_non_monotone_rejected(self):
        with pytest.raises(CurveStructureError):
            make_map([0.0, 2.0, 1.0])

    def test_nonzero_start_rejected(self):
        with pytest.raises(CurveStructureError):
            make_map([1.0, 2.0])


class TestLookup:
    def test_fresh_map(self):
        m = make_map([0.0, 1.0, 2.0])
        e = m.lookup(0.0)
        assert s_at(m, 0.0) == 0.0 and e.level == 0 and e.w_prev is W_PREV0

    def test_mid_entry(self):
        m = make_map([0.0, 1.0, 2.0])
        e = m.lookup(0.5)
        assert s_at(m, 0.5) == 1.0 and e.w_prev is m.lookup(0.0).w

    def test_unknown_key(self):
        m = make_map([0.0, 1.0])
        with pytest.raises(LookupError_):
            m.lookup(0.25)


def parent_2_4(m, level=1):
    # (xi_lo, xi_hi, level) of the [0.2, 0.4] interval of a map with s in
    # {0, 2, 4, ..., 10}
    return 0.2, 0.4, level


def make_map_0_10():
    return make_map([0.0, 2.0, 4.0, 6.0, 8.0, 10.0])


def fine(*us):
    """Fine points; fine(...)[k] ends fine step k."""
    return [pt(u) for u in us]


class TestInsertInterior:
    def test_hand_example(self):
        m = make_map_0_10()
        sols = fine(10.0, 11.0)
        m.insert_interior(*parent_2_4(m), sols, [0.8, 1.2])
        keys = m.xi_keys()
        assert 0.28 in [pytest.approx(k) for k in keys]
        e = m.lookup(keys[2])
        assert s_at(m, keys[2]) == pytest.approx(2.8)
        assert e.xi == pytest.approx(0.28)
        assert e.level == 1
        assert e.w is sols[0]  # the point that ends step 0

    def test_midpoint_symmetry(self):
        m = make_map_0_10()
        sols = fine(10.0, 11.0)
        m.insert_interior(*parent_2_4(m), sols, [1.0, 1.0])
        e = m.lookup(m.xi_keys()[2])
        assert (s_at(m, e.xi), e.xi) == (pytest.approx(3.0),
                                         pytest.approx(0.3))
        assert e.w is sols[0]

    def test_cumulative_three_steps(self):
        m = make_map_0_10()
        sols = fine(10.0, 11.0, 12.0)
        m.insert_interior(*parent_2_4(m), sols, [0.5, 0.5, 1.0])
        keys = m.xi_keys()
        assert s_at(m, keys[2]) == pytest.approx(2.5)
        assert m.lookup(keys[2]).xi == pytest.approx(0.25)
        assert s_at(m, keys[3]) == pytest.approx(3.0)
        assert m.lookup(keys[3]).xi == pytest.approx(0.30)
        assert all(m.lookup(k).w is w
                   for k, w in zip(keys[2:4], sols[:2], strict=True))

    def test_no_existing_coordinate_changes(self):
        m = make_map_0_10()
        before = [(k, s_at(m, k)) for k in m.xi_keys()]
        m.insert_interior(*parent_2_4(m), fine(10.0, 11.0), [0.8, 1.2])
        for k, s in before:
            assert s_at(m, k) == s

    def test_fine_endpoint_not_stored(self):
        m = make_map_0_10()
        m.insert_interior(*parent_2_4(m), fine(10.0, 11.0), [1.0, 1.0])
        assert len(m) == 7  # one interior point added, not two


class TestInsertStretch:
    def test_hand_example_with_downstream_shift(self):
        m = make_map_0_10()
        sols = fine(10.0, 11.0)
        returned = m.insert_stretch(*parent_2_4(m), sols, [1.0, 1.0], 0.3)
        keys = m.xi_keys()
        # fine points: chord-length xi with the post-stretch total 2.3
        assert s_at(m, keys[2]) == pytest.approx(3.0)
        assert m.lookup(keys[2]).xi == pytest.approx(0.2 + 0.2 * 1.0 / 2.3)
        assert s_at(m, keys[3]) == pytest.approx(4.0)
        assert m.lookup(keys[3]).xi == pytest.approx(0.2 + 0.2 * 2.0 / 2.3)
        # every fine point is stored at the key that ends its step
        assert all(m.lookup(k).w is w
                   for k, w in zip(keys[2:4], sols, strict=True))
        # old end keeps xi = 0.4; its ds becomes the closing 0.3, so s = 4.3
        # there and every later s grows by 0.3 too
        assert s_at(m, 0.4) == pytest.approx(4.3)
        assert s_at(m, 0.6) == pytest.approx(6.3)
        assert s_at(m, 1.0) == pytest.approx(10.3)
        # the keys it stored from lo to hi: both fine points, len(dists) + 2
        assert returned == keys[1:5]
        assert m.lookup(returned[-1]).ds == pytest.approx(0.3)

    def test_zero_closing_distance_suppresses_closing_child(self):
        m = make_map_0_10()
        sols = fine(10.0, 11.0)
        returned = m.insert_stretch(*parent_2_4(m), sols, [1.0, 1.0], 0.0)
        keys = m.xi_keys()
        assert s_at(m, keys[2]) == pytest.approx(3.0)
        assert m.lookup(keys[2]).xi == pytest.approx(0.3)
        assert m.lookup(keys[2]).w is sols[0]
        assert keys[3] == 0.4  # the fine end-point is not stored
        assert s_at(m, 0.4) == pytest.approx(4.0)  # no shift
        # one key short of len(dists) + 2, so the engine queues no closing
        # child; the last fine step ends on hi
        assert returned == [0.2, keys[2], 0.4]

    def test_branch_end_xi_never_changes(self):
        m = make_map_0_10()
        m.insert_stretch(*parent_2_4(m), fine(10.0, 11.0), [1.0, 1.0], 0.5)
        assert m.xi_keys()[-1] == 1.0


class TestRejectedInsertion:
    """A fine path that does not fit the parent raises before any write."""

    def test_interior_overrun_leaves_map_unchanged(self):
        m = make_map_0_10()
        before = row_bits(m.collect())
        # the stored distances 1.5 + 1.0 exceed the parent's length 2.0
        with pytest.raises(CurveStructureError):
            m.insert_interior(*parent_2_4(m), fine(10.0, 11.0, 12.0),
                              [1.5, 1.0, 0.5])
        assert row_bits(m.collect()) == before

    def test_stretch_overrun_leaves_map_unchanged(self):
        m = make_map_0_10()
        before = row_bits(m.collect())
        # the closing distance is 3e-12 of the fine length 2e5, below the xi
        # resolution: the last fine xi rounds onto the parent's end 0.4
        with pytest.raises(CurveStructureError):
            m.insert_stretch(*parent_2_4(m), fine(10.0, 11.0), [1e5, 1e5],
                             3e-12)
        assert row_bits(m.collect()) == before

    def test_segment_at_ds_floor_leaves_map_unchanged(self):
        m = make_map_0_10()
        assert m.ds_floor == 4 * math.ulp(10.0)
        before = row_bits(m.collect())
        # a first fine step of ds_floor: its xi fits, but at s = 10 it
        # would not advance s in collect()
        with pytest.raises(CurveStructureError, match="ds_floor"):
            m.insert_interior(*parent_2_4(m), fine(10.0, 11.0),
                              [m.ds_floor, 1.0])
        assert row_bits(m.collect()) == before

    def test_parent_spanning_a_key_leaves_map_unchanged(self):
        m = make_map_0_10()
        before = row_bits(m.collect())
        # [0.2, 0.6] holds the key 0.4, so it is no unrefined interval
        parent = (0.2, 0.6, 1)
        with pytest.raises(CurveStructureError):
            m.insert_interior(*parent, fine(10.0, 11.0), [1.0, 1.0])
        assert row_bits(m.collect()) == before


class TestCollect:
    def test_fresh_map(self):
        rows = make_map([0.0, 1.0, 2.0]).collect()
        assert len(rows) == 3
        assert all(level == 0 for _, _, _, level, _ in rows)

    def test_after_interior(self):
        m = make_map([0.0, 1.0, 2.0])
        parent = (0.0, 0.5, 1)
        m.insert_interior(*parent, fine(10.0, 11.0), [0.5, 0.5])
        assert len(m.collect()) == 4

    def test_after_stretch(self):
        m = make_map([0.0, 1.0, 2.0])
        parent = (0.0, 0.5, 1)
        m.insert_stretch(*parent, fine(10.0, 11.0), [0.5, 0.5], 0.2)
        assert len(m.collect()) == 5

    def test_sorted_by_xi(self):
        m = make_map([0.0, 1.0, 3.0])
        xis = [r[1] for r in m.collect()]
        assert xis == sorted(xis)


@st.composite
def insertion_sequences(draw):
    n0 = draw(st.integers(2, 5))
    gaps = draw(st.lists(st.floats(0.1, 3.0), min_size=n0, max_size=n0))
    ops = draw(st.lists(
        st.tuples(st.booleans(),  # stretch?
                  st.integers(0, 10**6),  # interval choice
                  st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4),
                  st.floats(0.0, 0.5)),  # closing distance
        min_size=1, max_size=8))
    return gaps, ops


# The two reasons _insert refuses an insertion; either leaves the map as is.
REFUSALS = ("fine xi not strictly inside", "arc length at or below ds_floor")


@given(insertion_sequences())
@example(seq=([1.0, 1.0], [(True, 0, [1.0, 1.0], 1e-10),
                           (True, 2, [1.0], 1e-06)]))  # refused: xi rounds
@example(seq=([1.0, 1.0], [(False, 0, [1.0], 0.0),
                           (True, 0, [0.5, 0.5, 0.5], 1e-06),
                           (True, 128, [1.0], 1e-10)]))  # refused: ds floor
@settings(max_examples=60, deadline=None)
def test_monotonicity_under_random_insertions(seq):
    gaps, ops = seq
    s = [0.0]
    for g in gaps:
        s.append(s[-1] + g)
    m = make_map(s)
    counter = 100
    for is_stretch, pick, fracs, closing in ops:
        keys = m.xi_keys()
        i = pick % (len(keys) - 1)
        lo, hi = keys[i], keys[i + 1]
        width = m.lookup(hi).ds
        level = max(m.lookup(lo).level, m.lookup(hi).level) + 1
        parent = (lo, hi, level)
        before = row_bits(m.collect())
        try:
            if is_stretch:
                dists = [f * width for f in fracs]
                sols = [pt(counter + k) for k in range(len(dists))]
                keys = m.insert_stretch(*parent, sols, dists, closing * width)
                # the keys it returns are the map's keys from lo to hi
                i_lo = m.xi_keys().index(lo)
                assert keys == m.xi_keys()[i_lo:i_lo + len(keys)]
                assert keys[-1] == hi
            else:
                # interior: fine path must fit strictly inside the parent
                total = sum(fracs) + 0.05
                dists = [f / total * width for f in fracs]
                sols = [pt(counter + k) for k in range(len(dists))]
                m.insert_interior(*parent, sols, dists)
        except CurveStructureError as exc:
            # a nested interval can fall below the xi resolution
            assert str(exc).startswith(REFUSALS)
            assert row_bits(m.collect()) == before
        counter += 10
        m.validate_monotone()
    rows = m.collect()
    xis = [r[1] for r in rows]
    ss = [r[2] for r in rows]
    assert all(a < b for a, b in zip(xis, xis[1:]))
    assert all(a < b for a, b in zip(ss, ss[1:]))
