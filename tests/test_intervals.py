"""Union-of-bins interval construction and vectorized membership."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from faircov import (
    BinPartition,
    IntervalSet,
    ThresholdTable,
    ValidationError,
    bin_indices,
    cqr_score,
    predict_interval,
)
from faircov.intervals import band_pieces, union_components, union_covered, union_widths

from conftest import synthetic_with_band


def table(r_hat, bounds=(0.0, 5.0, 10.0), alpha=0.1):
    r = np.asarray(r_hat, dtype=np.float64)
    part = BinPartition(bounds=tuple(bounds), counts=tuple([1] * (len(bounds) - 1)))
    return ThresholdTable(
        r_hat=r,
        global_r_hat=0.0,
        alpha=alpha,
        partition=part,
        group_count=r.shape[1],
    )


class TestPredictInterval:
    def test_one_live_bin(self):
        t = table([[1.0], [-3.0]])
        iv = predict_interval(4.0, 6.0, 0, t)
        assert iv.components == ((3.0, 5.0),)
        assert iv.fallback_point is None
        assert iv.total_width() == 2.0

    def test_touching_pieces_merge(self):
        t = table([[1.0], [1.0]])
        iv = predict_interval(4.0, 6.0, 0, t)
        assert iv.components == ((3.0, 7.0),)
        assert iv.total_width() == 4.0

    def test_disjoint_pieces_stay_apart(self):
        # closed pieces touching at the cut merge into one component
        t = table([[0.0], [0.0]])
        iv = predict_interval(4.0, 6.0, 0, t)
        assert iv.components == ((4.0, 6.0),)
        # an emptied middle bin splits the union in two
        t = table([[0.0], [-3.0], [0.0]], bounds=(0.0, 4.0, 6.0, 10.0))
        iv = predict_interval(3.0, 7.0, 0, t)
        assert iv.components == ((3.0, 4.0), (6.0, 7.0))
        assert iv.total_width() == 2.0

    def test_single_bin_matches_clipped_global_shift(self):
        for r in (0.5, 1.0, 5.0, -0.5):
            t = table([[r]], bounds=(0.0, 10.0))
            iv = predict_interval(4.0, 6.0, 0, t)
            lo = max(4.0 - r, 0.0)
            hi = min(6.0 + r, 10.0)
            assert iv.components == ((lo, hi),)

    def test_empty_union_falls_back_to_median(self):
        t = table([[-3.0], [-3.0]])
        iv = predict_interval(4.0, 6.0, 0, t, median=4.5)
        assert iv.components == ()
        assert iv.fallback_point == 4.5
        assert iv.contains(4.5)
        assert not iv.contains(4.4999)
        assert iv.total_width() == 0.0

    def test_fallback_defaults_to_band_midpoint(self):
        t = table([[-3.0], [-3.0]])
        assert predict_interval(4.0, 6.0, 0, t).fallback_point == 5.0

    def test_fallback_clipped_to_domain(self):
        t = table([[-6.0], [-6.0]])
        assert predict_interval(9.0, 11.0, 0, t, median=12.0).fallback_point == 10.0

    def test_zero_width_pieces_survive(self):
        t = table([[0.0], [0.0]])
        iv = predict_interval(5.0, 5.0, 0, t)
        assert iv.components == ((5.0, 5.0),)
        assert iv.contains(5.0)
        assert iv.total_width() == 0.0

    def test_group_column_selected(self):
        t = table([[1.0, -3.0], [-3.0, 1.0]])
        assert predict_interval(4.0, 6.0, 0, t).components == ((3.0, 5.0),)
        assert predict_interval(4.0, 6.0, 1, t).components == ((5.0, 7.0),)

    def test_inverted_band_rejected(self):
        with pytest.raises(ValidationError, match="ordered"):
            predict_interval(6.0, 4.0, 0, table([[1.0], [1.0]]))

    def test_unknown_group_rejected(self):
        with pytest.raises(ValidationError, match="group"):
            predict_interval(4.0, 6.0, 2, table([[1.0], [1.0]]))

    def test_growing_threshold_grows_union(self):
        grid = np.linspace(0.0, 10.0, 101)
        small = predict_interval(4.0, 6.0, 0, table([[0.25], [-0.5]]))
        large = predict_interval(4.0, 6.0, 0, table([[1.0], [0.0]]))
        for y in grid:
            if small.contains(y):
                assert large.contains(y)
        assert large.total_width() >= small.total_width()

    dyadic = st.integers(0, 80).map(lambda k: k / 8.0)

    @given(dyadic, dyadic, dyadic, st.integers(-24, 24).map(lambda k: k / 8.0), st.integers(-24, 24).map(lambda k: k / 8.0))
    def test_membership_matches_score_threshold(self, a, b, y, r1, r2):
        assume(y != 5.0)  # interior cut: adjacent closed pieces may claim it
        q_lo, q_hi = min(a, b), max(a, b)
        t = table([[r1], [r2]])
        iv = predict_interval(q_lo, q_hi, 0, t)
        r = r1 if y < 5.0 else r2
        score_ok = cqr_score(q_lo, q_hi, y) <= r
        if iv.components:
            assert iv.contains(y) == score_ok
        else:
            assert not score_ok
            assert iv.contains(y) == (y == iv.fallback_point)


class TestBandPieces:
    def test_clipped_pieces_per_bin_and_record(self):
        r_hat = np.array([[1.0, -3.0], [-3.0, 1.0]])
        a, b = band_pieces(
            np.array([4.0, 4.0]), np.array([6.0, 6.0]), np.array([0, 1]), r_hat, np.array([0.0, 5.0, 10.0])
        )
        # rows are bins, columns records; b < a marks an empty piece
        np.testing.assert_array_equal(a, [[3.0, 7.0], [7.0, 5.0]])
        np.testing.assert_array_equal(b, [[5.0, 3.0], [3.0, 7.0]])
        np.testing.assert_array_equal(r_hat, [[1.0, -3.0], [-3.0, 1.0]])


def bin_order_widths(lengths):
    """Each column's sum over the rows, added in Python floats from 0.0 in row order."""
    widths = []
    for column in np.asarray(lengths).T.tolist():
        width = 0.0
        for length in column:
            width += max(length, 0.0)
        widths.append(width)
    return np.array(widths)


class TestBandLayout:
    """The widths add each record's piece lengths bin after bin.

    ``band_pieces`` returns C-ordered arrays, one contiguous row per bin,
    and ``union_widths`` adds the rows one after another from 0.0: the
    order the optimizer's group means and the report's bin means take, so
    a record's width does not depend on the block it is in.
    """

    def test_bin_order_for_every_bin_count(self):
        # the lengths hold zeros, ties, -0.0 and an all-zero record; from 8
        # rows on, numpy's own column sum takes another order
        rng = np.random.default_rng(0)
        lengths = rng.choice([0.0, 0.1, 0.2, 1.0 / 3.0], size=(300, 12))
        lengths[:, :6] = rng.uniform(0.0, 10.0, (300, 6))
        lengths[rng.random((300, 12)) < 0.2] = 0.0
        lengths[:, 11] = 0.0
        lengths[0, 11] = -0.0
        lengths[1, 10] = -0.0
        for m_bins in range(1, 301):
            b = lengths[:m_bins].copy()
            width, has_piece = union_widths(np.zeros_like(b), b)
            assert width.tobytes() == bin_order_widths(lengths[:m_bins]).tobytes(), m_bins
            assert has_piece.all()

    @given(st.integers(1, 40), st.integers(1, 12), st.data())
    def test_widths_do_not_depend_on_the_block(self, m_bins, n, data):
        values = st.one_of(st.sampled_from([0.0, -0.0, 0.1, 0.2, -1.0]), st.floats(-5.0, 50.0))
        lengths = np.array(
            data.draw(st.lists(values, min_size=m_bins * n, max_size=m_bins * n))
        ).reshape(m_bins, n)
        width, has_piece = union_widths(np.zeros_like(lengths), lengths.copy())
        assert width.tobytes() == bin_order_widths(lengths).tobytes()
        assert has_piece.tolist() == (lengths >= 0.0).any(axis=0).tolist()
        for i in range(n):
            alone, _ = union_widths(np.zeros((m_bins, 1)), lengths[:, i : i + 1].copy())
            assert alone.tobytes() == width[i : i + 1].tobytes()

    @pytest.mark.parametrize("m_bins", [8, 16, 33])
    def test_widths_add_each_record_column_on_its_own(self, m_bins):
        # a one-record block gives each record the bits the wide block does
        rng = np.random.default_rng(m_bins)
        n, s_groups = 2000, 3
        bounds = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 63.0, m_bins - 1)), [63.0]))
        q_lo = rng.uniform(-5.0, 60.0, n)
        q_hi = q_lo + rng.uniform(0.0, 20.0, n)
        group = rng.integers(0, s_groups, n)
        r_hat = rng.uniform(-2.0, 8.0, (m_bins, s_groups))
        a, b = band_pieces(q_lo, q_hi, group, r_hat, bounds)
        assert a.shape == b.shape == (m_bins, n)
        assert a.flags.c_contiguous and b.flags.c_contiguous
        lengths = np.maximum(b - a, 0.0)
        width, _ = union_widths(a, b)
        alone = np.empty(n)
        for i in range(n):
            one = slice(i, i + 1)
            alone[one], _ = union_widths(*band_pieces(q_lo[one], q_hi[one], group[one], r_hat, bounds))
        assert width.tobytes() == alone.tobytes()
        # numpy adds a one-column table pairwise, so the two orders differ
        # somewhere here: a width summed by np.add.reduce would fail
        pairwise = np.array([np.add.reduce(lengths[:, i : i + 1], axis=0)[0] for i in range(n)])
        assert np.any(pairwise != width)

    def test_buffers_take_the_pieces(self):
        r_hat = np.array([[1.0, -3.0], [-3.0, 1.0]])
        bounds = np.array([0.0, 5.0, 10.0])
        args = (np.array([4.0, 4.0]), np.array([6.0, 6.0]), np.array([0, 1]), r_hat, bounds)
        buffers = np.full((2, 2, 3), np.nan)
        a, b = band_pieces(*args, buffers[:, :, :2])
        assert np.shares_memory(a, buffers[0]) and np.shares_memory(b, buffers[1])
        want_a, want_b = band_pieces(*args)
        assert a.tobytes() == want_a.tobytes() and b.tobytes() == want_b.tobytes()
        assert np.isnan(buffers[:, :, 2]).all()


class TestIntervalSet:
    def test_overlapping_pieces_merge(self):
        iv = IntervalSet.from_pieces([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)])
        assert iv.components == ((1.0, 4.0), (6.0, 7.0))

    def test_inverted_pieces_dropped(self):
        iv = IntervalSet.from_pieces([(3.0, 1.0), (5.0, 6.0)])
        assert iv.components == ((5.0, 6.0),)

    def test_empty_without_fallback_rejected(self):
        with pytest.raises(ValidationError):
            IntervalSet.from_pieces([(3.0, 1.0)])

    def test_constructor_rejects_overlap(self):
        with pytest.raises(ValidationError, match="disjoint"):
            IntervalSet(components=((1.0, 3.0), (3.0, 4.0)))

    def test_fallback_point_and_two_components(self):
        point = IntervalSet.from_pieces([], fallback=3.0)
        assert point.contains(3.0) and not point.contains(3.0001)
        assert point.total_width() == 0.0
        assert IntervalSet.from_pieces([(0.0, 1.0), (4.0, 6.0)]).total_width() == 3.0

    def test_total_width_adds_left_to_right(self):
        # lengths 0.1, 0.2 and 0.3: added in order they round to
        # 0.6000000000000001, where a compensated sum gives 0.6
        iv = IntervalSet(components=((0.0, 0.1), (0.15625, 0.35625), (0.436, 0.736)))
        lengths = [b - a for a, b in iv.components]
        assert lengths == [0.1, 0.2, 0.3]
        assert math.fsum(lengths) == 0.6
        assert iv.total_width() == ((0.0 + 0.1) + 0.2) + 0.3 == 0.6000000000000001

    def test_text_round_trip_precision(self):
        iv = IntervalSet.from_pieces([(0.1 + 0.2, 1.0 / 3.0 + 1.0)])
        a, b = iv.as_text().split(";")[0].split(":")
        assert float(a) == iv.components[0][0]
        assert float(b) == iv.components[0][1]


class TestVectorizedAgreement:
    def test_matches_per_record_objects(self):
        data, _ = synthetic_with_band(120, (1.0, 2.0), seed=9)
        rng = np.random.default_rng(0)
        bounds = (0.0, 25.0, 40.0, 63.0)
        # labels on both domain edges and on each interior cut, in both
        # groups, with bands around them that a shift can pull off the
        # label in one bin and not in the other
        edges = np.repeat(bounds, 2)
        q_lo = np.concatenate((data.q_lo, edges - 1.0))
        q_hi = np.concatenate((data.q_hi, edges + 1.0))
        y = np.concatenate((data.y, edges))
        group = np.concatenate((data.group, np.tile([0, 1], len(bounds))))
        for trial in range(5):
            r = rng.uniform(-3.0, 3.0, size=(3, 2))
            t = table(r, bounds=bounds)
            lo, hi = t.partition.label_domain
            fallback = np.clip((q_lo + q_hi) / 2.0, lo, hi)
            a, b = band_pieces(q_lo, q_hi, group, t.r_hat, np.asarray(bounds))
            widths, has_piece = union_widths(a, b)
            bins = bin_indices(t.partition, y)
            covered = union_covered(
                q_lo, q_hi, group, t.r_hat, np.asarray(bounds), bins, y, has_piece, fallback
            )
            for i in range(y.size):
                iv = predict_interval(float(q_lo[i]), float(q_hi[i]), int(group[i]), t)
                assert covered[i] == iv.contains(float(y[i]))
                assert has_piece[i] == bool(iv.components)
                np.testing.assert_allclose(widths[i], iv.total_width(), rtol=1e-12, atol=0.0)


class TestUnionComponents:
    @staticmethod
    def assert_matches_from_pieces(a, b):
        """Components and widths as ``IntervalSet`` builds them, compared by
        ``repr`` so that a signed zero counts."""
        count, start, end, width = union_components(a, b)
        got, first = [], 0
        for k, w in zip(count.tolist(), width.tolist()):
            bounds = zip(start[first : first + k].tolist(), end[first : first + k].tolist())
            got.append(([(repr(s), repr(e)) for s, e in bounds], repr(w)))
            first += k
        want = []
        for i in range(a.shape[1]):
            iv = IntervalSet.from_pieces(list(zip(a[:, i].tolist(), b[:, i].tolist())), 0.0)
            want.append(([(repr(s), repr(e)) for s, e in iv.components], repr(iv.total_width())))
        assert got == want

    def test_one_bin(self):
        # a zero-width piece from 0.0 to -0.0 has length -0.0; the width is 0.0
        a = np.array([[0.0, 1.0, 2.0, 1.5]])
        b = np.array([[-0.0, 3.0, 1.0, 1.5]])
        self.assert_matches_from_pieces(a, b)

    def test_merges_ties_and_gaps(self):
        # bins [-1, 0], [0, 1], [1, 2]; one record per column
        a = np.array(
            [
                [-1.0, -0.5, -1.0, 0.0, 0.5],
                [-0.0, 0.0, 0.5, 1.0, 0.5],
                [1.5, 1.0, 1.0, 2.0, 1.5],
            ]
        )
        b = np.array(
            [
                [0.0, 0.0, -0.5, -1.0, 0.0],  # a tie at 0: the old end 0.0 stays
                [-0.0, 1.0, 1.0, 0.0, 1.0],
                [2.0, 1.5, 1.5, 1.0, 2.0],
            ]
        )
        self.assert_matches_from_pieces(a, b)
        count, *_ = union_components(a, b)
        assert count.tolist() == [2, 1, 2, 0, 2]

    def test_one_record_adds_left_to_right(self):
        # numpy sums a one-column (M, 1) array pairwise along M, which
        # rounds these sixteen lengths differently from adding in order
        a = np.arange(16.0)[:, None]
        b = a + np.arange(1, 17)[:, None] / 192.0
        in_order = IntervalSet.from_pieces(list(zip(a[:, 0].tolist(), b[:, 0].tolist())))
        assert (b - a).sum(axis=0)[0] != in_order.total_width()
        self.assert_matches_from_pieces(a, b)
