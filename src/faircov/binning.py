"""Equal-mass partitioning of the label axis.

Bins carry roughly equal numbers of calibration labels. Interior bounds
sit at the midpoint between adjacent order statistics so no observed
label lies exactly on a cut when labels are distinct. Bins are numbered
1..M publicly; each bin is half-open ``[l_m, l_{m+1})`` except the last,
which is closed above so the partition tiles the label domain exactly.
A label's bin is the number of interior cuts at or below it, so a label
on a cut goes to the bin above the cut.

Every sum over the bins, of a record's piece lengths or of a group's
coverage rates, is :func:`_bin_sum`: the bins added one after another,
in numpy arrays or in Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ValidationError

__all__ = ["BinPartition", "equal_mass_bins", "bin_indices"]


@dataclass(frozen=True)
class BinPartition:
    """Ascending bin bounds over the label domain plus realized counts."""

    bounds: tuple[float, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.bounds) < 2:
            raise ValidationError("a partition needs at least two bounds")
        if any(not a < b for a, b in zip(self.bounds, self.bounds[1:])):  # NaN fails too
            raise ValidationError(f"bin bounds must be strictly ascending, got {self.bounds}")
        if len(self.counts) != len(self.bounds) - 1:
            raise ValidationError("one count per bin is required")
        if any(c < 1 for c in self.counts):
            raise ValidationError("every bin must hold at least one label")

    @property
    def m(self) -> int:
        return len(self.bounds) - 1

    @property
    def label_domain(self) -> tuple[float, float]:
        return self.bounds[0], self.bounds[-1]

    def to_payload(self) -> dict:
        return {"M": self.m, "bounds": list(self.bounds), "counts": list(self.counts)}

    @classmethod
    def from_payload(cls, payload: dict) -> "BinPartition":
        return cls(bounds=tuple(payload["bounds"]), counts=tuple(payload["counts"]))


def equal_mass_bins(labels, m: int, label_domain: tuple[float, float]) -> BinPartition:
    """Build M equal-mass bins from observed labels.

    The cut before bin m+1 is the midpoint between the ``ceil(m*N/M)``-th
    and the next smallest label. Outer bounds snap to the label domain.
    Duplicate labels can make the realized masses unequal; the cuts are
    kept and the realized counts reported, but a bin left empty by heavy
    duplication is an error.
    """
    y = np.asarray(labels, dtype=np.float64)
    if y.ndim != 1 or y.size == 0:
        raise ValidationError("labels must be a non-empty vector")
    lo, hi = float(label_domain[0]), float(label_domain[1])
    if not lo < hi:
        raise ValidationError(f"label domain must be ordered, got {label_domain}")
    if not (lo <= y.min() and y.max() <= hi):  # NaN fails too
        raise ValidationError("labels fall outside the declared label domain")
    n = y.size
    if m < 1:
        raise ValidationError(f"bin count must be at least 1, got {m}")
    if m > n:
        raise ValidationError(f"cannot build {m} bins from {n} labels")
    ys = np.sort(y)
    if m > 1 and ys[0] == ys[-1]:
        raise ValidationError("degenerate labels: all values identical, cannot split into bins")
    bounds = [lo]
    for j in range(1, m):
        k = math.ceil(j * n / m)  # rank of the last label belonging to bin j
        cut = (ys[k - 1] + ys[k]) / 2.0
        bounds.append(float(cut))
    bounds.append(hi)
    if any(b <= a for a, b in zip(bounds, bounds[1:])):
        raise ValidationError(
            "degenerate labels: duplicate values collapse adjacent bin cuts; reduce the bin count"
        )
    # a bin holds the labels from its lower cut up to its upper one, as
    # bin_indices assigns them
    counts = np.diff(np.searchsorted(ys, bounds[1:-1], side="left"), prepend=0, append=n)
    if counts.min() < 1:
        empty = int(np.argmin(counts)) + 1
        raise ValidationError(
            f"degenerate labels leave bin {empty} empty; reduce the bin count"
        )
    return BinPartition(bounds=tuple(bounds), counts=tuple(int(c) for c in counts))


def bin_indices(partition: BinPartition, labels) -> np.ndarray:
    """0-based bin index of each label inside the domain, as int64.

    The index is the number of interior cuts at or below the label, so a
    label on a cut goes to the bin above it and the top bound closes the
    last bin. It makes one compare of every label per cut, O(n·M) time:
    up to a few hundred bins that beats a binary search, which branches
    on each label, and every default uses 32 bins at most. The count is
    kept in the narrowest unsigned dtype that holds M - 1 and returned as
    int64, because callers form ``bins * S + group`` keys, which a narrow
    unsigned dtype would wrap. A NaN label is outside every domain.
    """
    y = np.asarray(labels, dtype=np.float64)
    lo, hi = partition.label_domain
    if y.size and not (lo <= y.min() and y.max() <= hi):  # NaN fails too
        bad = float(y[np.argmax(~((y >= lo) & (y <= hi)))])
        raise ValidationError(f"label {bad!r} falls outside the label domain [{lo}, {hi}]")
    index = np.zeros(y.shape, dtype=np.min_scalar_type(partition.m - 1))
    above = np.empty(y.shape, dtype=bool)
    for cut in partition.bounds[1:-1]:
        index += np.greater_equal(y, cut, out=above)
    return index.astype(np.int64)


def _bin_sum(rows):
    """The sum over axis 0: ``0.0 + rows[0]``, then each later row added in turn.

    The bins' one summation order. Numpy's own axis-0 sum is not one
    order: it adds the rows in turn, but a one-column table pairwise; the
    builtin ``sum`` compensates from Python 3.12 on. Starting from 0.0
    makes a zero sum +0.0, whatever its terms' signs. Given an array it
    returns an array; given a list of Python floats, one per bin, the
    same sum as a Python float, which costs less than numpy for a few
    values.
    """
    total = 0.0 + rows[0]
    for row in rows[1:]:
        total += row
    return total
