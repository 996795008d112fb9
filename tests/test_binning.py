"""Equal-mass label bins: construction, assignment, degeneracy."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from faircov import BinPartition, ValidationError, bin_indices, equal_mass_bins


def assert_counts_cuts(part, labels):
    """``bin_indices`` against a binary search of the interior cuts, on
    the labels and on every bound of the partition."""
    y = np.concatenate((np.asarray(labels, dtype=np.float64), part.bounds))
    want = np.searchsorted(np.asarray(part.bounds[1:-1]), y, side="right")
    got = bin_indices(part, y)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)


class TestEqualMassBins:
    def test_eight_labels_two_bins(self):
        part = equal_mass_bins(np.arange(1.0, 9.0), 2, (0.0, 10.0))
        assert part.bounds == (0.0, 4.5, 10.0)
        assert part.counts == (4, 4)
        assert part.m == 2
        assert part.label_domain == (0.0, 10.0)

    def test_single_bin_spans_domain(self):
        part = equal_mass_bins(np.arange(1.0, 9.0), 1, (0.0, 10.0))
        assert part.bounds == (0.0, 10.0)
        assert part.counts == (8,)

    def test_identical_labels_rejected(self):
        with pytest.raises(ValidationError, match="identical"):
            equal_mass_bins([1.0, 1.0, 1.0, 1.0], 2, (0.0, 10.0))

    def test_more_bins_than_labels_rejected(self):
        with pytest.raises(ValidationError, match="cannot build"):
            equal_mass_bins([1.0, 2.0], 3, (0.0, 10.0))

    def test_labels_outside_domain_rejected(self):
        with pytest.raises(ValidationError, match="domain"):
            equal_mass_bins([1.0, 11.0], 2, (0.0, 10.0))

    def test_duplicates_shift_mass_but_keep_bins(self):
        part = equal_mass_bins([1.0, 1.0, 1.0, 2.0, 2.0, 3.0], 2, (0.0, 10.0))
        assert part.bounds == (0.0, 1.5, 10.0)
        assert part.counts == (3, 3)

    def test_collapsed_cuts_rejected(self):
        with pytest.raises(ValidationError, match="collapse"):
            equal_mass_bins([1.0, 1.0, 1.0, 1.0, 2.0], 4, (0.0, 10.0))

    def test_emptied_bin_rejected(self):
        # the cut lands on the duplicated value and ties go to the upper bin
        with pytest.raises(ValidationError, match="empty"):
            equal_mass_bins([1.0, 1.0, 1.0, 2.0], 2, (0.0, 10.0))

    @given(
        st.lists(st.integers(1, 999).map(lambda k: k / 100.0), unique=True, min_size=4, max_size=40),
        st.integers(1, 4),
    )
    def test_distinct_labels_balance_within_one(self, labels, m):
        assume(m <= len(labels))
        part = equal_mass_bins(labels, m, (0.0, 10.0))
        assert sum(part.counts) == len(labels)
        assert max(part.counts) - min(part.counts) <= 1
        assert_counts_cuts(part, labels)

    @given(
        st.lists(st.sampled_from([0.5 * i for i in range(1, 20)]), min_size=2, max_size=40),
        st.integers(1, 4),
        st.randoms(use_true_random=False),
    )
    def test_partition_tiles_domain_and_ignores_order(self, labels, m, rand):
        assume(m <= len(labels))
        try:
            part = equal_mass_bins(labels, m, (0.0, 10.0))
        except ValidationError:
            return  # degenerate duplication is allowed to fail construction
        shuffled = list(labels)
        rand.shuffle(shuffled)
        assert equal_mass_bins(shuffled, m, (0.0, 10.0)).bounds == part.bounds
        assert_counts_cuts(part, labels)
        idx = bin_indices(part, labels)
        assert idx.min() >= 0 and idx.max() < part.m
        for y, i in zip(labels, idx):
            lo, hi = part.bounds[i], part.bounds[i + 1]
            assert lo <= y <= hi
            if i < part.m - 1:
                assert y < hi

    @given(
        st.lists(
            st.one_of(st.sampled_from([0.5 * i for i in range(1, 8)]), st.floats(0.0, 10.0)),
            min_size=2,
            max_size=60,
        ),
        st.integers(1, 6),
    )
    def test_counts_are_the_assigned_labels(self, labels, m):
        assume(m <= len(labels))
        try:
            part = equal_mass_bins(labels, m, (0.0, 10.0))
        except ValidationError:
            return
        assert part.counts == tuple(np.bincount(bin_indices(part, labels), minlength=m).tolist())
        assert_counts_cuts(part, labels)

    def test_nan_label_rejected(self):
        with pytest.raises(ValidationError, match="domain"):
            equal_mass_bins([1.0, 2.0, np.nan, 4.0], 2, (0.0, 10.0))


class TestBinIndices:
    @given(st.integers(1, 300), st.lists(st.floats(0.0, 10.0), max_size=20), st.data())
    def test_counts_the_cuts_below_each_label(self, m, labels, data):
        # up to 300 bins, so the count runs in uint8 and in uint16
        cuts = data.draw(st.lists(st.integers(1, 9999), min_size=m - 1, max_size=m - 1, unique=True))
        bounds = (0.0, *sorted(c / 1000.0 for c in cuts), 10.0)
        part = BinPartition(bounds=bounds, counts=(1,) * (len(bounds) - 1))
        on_bounds = data.draw(st.lists(st.sampled_from(bounds), max_size=20))
        assert_counts_cuts(part, labels + on_bounds)

    def test_index_past_255_does_not_wrap(self):
        bounds = tuple(float(k) for k in range(301))
        part = BinPartition(bounds=bounds, counts=(1,) * 300)
        idx = bin_indices(part, [0.0, 255.0, 256.5, 300.0])
        assert idx.tolist() == [0, 255, 256, 299]
        assert (idx * 4 + 3).tolist() == [3, 1023, 1027, 1199]

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf])
    def test_non_finite_label_rejected(self, bad):
        part = equal_mass_bins(np.arange(1.0, 9.0), 4, (0.0, 10.0))
        with pytest.raises(ValidationError, match=f"label {bad!r} falls outside"):
            bin_indices(part, [5.0, bad, 1.0])


class TestAssignBin:
    """One label's 0-based bin from ``bin_indices``; the top bin is closed above."""

    def part(self):
        return equal_mass_bins(np.arange(1.0, 9.0), 2, (0.0, 10.0))

    def test_cut_belongs_to_upper_bin(self):
        assert bin_indices(self.part(), [4.5]).tolist() == [1]

    def test_top_edge_belongs_to_last_bin(self):
        assert bin_indices(self.part(), [10.0]).tolist() == [1]

    def test_bottom_edge_belongs_to_first_bin(self):
        assert bin_indices(self.part(), [0.0]).tolist() == [0]

    def test_outside_domain_rejected(self):
        with pytest.raises(ValidationError, match="outside"):
            bin_indices(self.part(), [-1.0])

    def test_nan_rejected(self):
        with pytest.raises(ValidationError, match="outside"):
            bin_indices(self.part(), [float("nan")])


class TestBinPartitionValidation:
    def test_too_few_bounds(self):
        with pytest.raises(ValidationError):
            BinPartition(bounds=(0.0,), counts=())

    def test_non_ascending_bounds(self):
        with pytest.raises(ValidationError, match="ascending"):
            BinPartition(bounds=(0.0, 5.0, 5.0), counts=(1, 1))

    def test_nan_bound_rejected(self):
        with pytest.raises(ValidationError, match="ascending"):
            BinPartition(bounds=(0.0, np.nan, 10.0), counts=(1, 1))
        payload = {"M": 2, "bounds": [0.0, float("nan"), 10.0], "counts": [1, 1]}
        with pytest.raises(ValidationError, match="ascending"):
            BinPartition.from_payload(payload)

    def test_count_arity(self):
        with pytest.raises(ValidationError):
            BinPartition(bounds=(0.0, 5.0, 10.0), counts=(1,))

    def test_empty_bin_count(self):
        with pytest.raises(ValidationError):
            BinPartition(bounds=(0.0, 5.0, 10.0), counts=(0, 2))

    def test_payload_round_trip(self):
        part = equal_mass_bins(np.arange(1.0, 9.0), 2, (0.0, 10.0))
        assert BinPartition.from_payload(part.to_payload()) == part
