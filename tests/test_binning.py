"""Equal-mass label bins: construction, assignment, degeneracy."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from faircov import BinPartition, ValidationError, assign_bin, bin_indices, equal_mass_bins


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


class TestAssignBin:
    def part(self):
        return equal_mass_bins(np.arange(1.0, 9.0), 2, (0.0, 10.0))

    def test_cut_belongs_to_upper_bin(self):
        assert assign_bin(self.part(), 4.5) == 2

    def test_top_edge_belongs_to_last_bin(self):
        assert assign_bin(self.part(), 10.0) == 2

    def test_bottom_edge_belongs_to_first_bin(self):
        assert assign_bin(self.part(), 0.0) == 1

    def test_outside_domain_rejected(self):
        with pytest.raises(ValidationError, match="outside"):
            assign_bin(self.part(), -1.0)

    @given(st.floats(0.0, 10.0))
    def test_agrees_with_vectorized_indices(self, y):
        part = self.part()
        assert assign_bin(part, y) == int(bin_indices(part, [y])[0]) + 1


class TestBinPartitionValidation:
    def test_too_few_bounds(self):
        with pytest.raises(ValidationError):
            BinPartition(bounds=(0.0,), counts=())

    def test_non_ascending_bounds(self):
        with pytest.raises(ValidationError, match="ascending"):
            BinPartition(bounds=(0.0, 5.0, 5.0), counts=(1, 1))

    def test_count_arity(self):
        with pytest.raises(ValidationError):
            BinPartition(bounds=(0.0, 5.0, 10.0), counts=(1,))

    def test_empty_bin_count(self):
        with pytest.raises(ValidationError):
            BinPartition(bounds=(0.0, 5.0, 10.0), counts=(0, 2))

    def test_payload_round_trip(self):
        part = equal_mass_bins(np.arange(1.0, 9.0), 2, (0.0, 10.0))
        assert BinPartition.from_payload(part.to_payload()) == part
