"""Prediction intervals as unions of closed components.

A calibrated prediction is the union over label bins of the band
``[q_lo - r, q_hi + r]`` intersected with the bin, where the shift ``r``
depends on the record's group and the bin. Only the kernel
:func:`band_pieces` computes it: every other band user but
:func:`union_covered` reads its clipped piece bounds. The pieces are
C-ordered ``(M, n)`` arrays, one contiguous row per bin, so every compare
and mask runs along records; a caller walking records in blocks can hand
the kernel the same two buffers for every block. :func:`union_widths`
adds each record's piece lengths over the bins one after another, the
order every sum over bins takes, so a record's width does not depend on
the block it is in.
:func:`union_covered` tests each label against its own bin's band only
(and the bin below's when the label sits on a cut), so it reads the band
columns and the label bins, not the pieces. Components touching at a bin
bound merge, and bin pieces are closed at merge time (a measure-zero
change from the half-open bins), so every :class:`IntervalSet` is a set
of closed, pairwise disjoint, ascending intervals. When every piece is
empty the prediction degenerates to a zero-width fallback point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .binning import _bin_sum
from .core import ValidationError

if TYPE_CHECKING:  # pragma: no cover - import only for type checkers
    from .fair_calibration import ThresholdTable

__all__ = [
    "IntervalSet",
    "band_pieces",
    "predict_interval",
    "union_widths",
    "union_covered",
    "union_components",
]


@dataclass(frozen=True)
class IntervalSet:
    """Union of closed intervals, or a single fallback point if empty."""

    components: tuple[tuple[float, float], ...]
    fallback_point: float | None = None

    def __post_init__(self):
        for a, b in self.components:
            if b < a:
                raise ValidationError(f"interval component ({a}, {b}) is inverted")
        for (_, b), (a2, _) in zip(self.components, self.components[1:]):
            if a2 <= b:
                raise ValidationError("interval components must be disjoint and ascending")
        if self.components and self.fallback_point is not None:
            raise ValidationError("fallback point only applies to empty unions")
        if not self.components and self.fallback_point is None:
            raise ValidationError("an empty union requires a fallback point")

    @classmethod
    def from_pieces(
        cls,
        pieces: list[tuple[float, float]],
        fallback: float | None = None,
    ) -> "IntervalSet":
        """Normalize raw pieces: drop inverted ones, merge touching ones."""
        kept = sorted((a, b) for a, b in pieces if b >= a)
        merged: list[tuple[float, float]] = []
        for a, b in kept:
            if merged and a <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        if merged:
            return cls(components=tuple(merged))
        if fallback is None:
            raise ValidationError("all pieces empty and no fallback point supplied")
        return cls(components=(), fallback_point=float(fallback))

    def contains(self, y: float) -> bool:
        """Whether the union (or its fallback point) contains the label."""
        if not self.components:
            return y == self.fallback_point
        return any(a <= y <= b for a, b in self.components)

    def total_width(self) -> float:
        """Sum of the merged component lengths; zero for a fallback-only prediction.

        The lengths are added left to right from 0.0. The builtin ``sum``
        compensates its rounding from Python 3.12 on, so it would make the
        last bit depend on the Python version.
        """
        width = 0.0
        for a, b in self.components:
            width += b - a
        return width

    def as_text(self) -> str:
        return ";".join(f"{repr(a)}:{repr(b)}" for a, b in self.components)


def band_pieces(
    q_lo: np.ndarray,
    q_hi: np.ndarray,
    group: np.ndarray,
    r_hat: np.ndarray,
    bounds: np.ndarray,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The interval kernel: clipped band pieces of every record in every bin.

    Returns ``(a, b)``, C-ordered of shape ``(M, n)``: row ``m`` holds
    every record's piece in bin ``m``. Piece ``m`` of record ``i`` is
    ``[max(q_lo[i] - r, bounds[m]), min(q_hi[i] + r, bounds[m + 1])]``
    with ``r = r_hat[m, group[i]]``. It is empty where ``b < a``; a
    zero-width piece (``a == b``) still counts. ``out`` is a pair of
    ``(M, n)`` float arrays with contiguous rows to write ``a`` and ``b``
    into; without it both are allocated.
    """
    r = np.take(r_hat, group, axis=1)
    a, b = (None, r) if out is None else out  # without buffers, b takes r's place
    a = np.subtract(q_lo, r, out=a)
    np.maximum(a, bounds[:-1, None], out=a)
    b = np.add(q_hi, r, out=b)
    np.minimum(b, bounds[1:, None], out=b)
    return a, b


def predict_interval(
    q_lo: float,
    q_hi: float,
    group: int,
    table: "ThresholdTable",
    median: float | None = None,
) -> IntervalSet:
    """Build the union-of-bins prediction for one record.

    The pieces come from :func:`band_pieces`. ``median`` seeds the
    fallback point when every piece is empty; without one the band
    midpoint is used. The fallback is clipped to the label domain.
    """
    if q_lo > q_hi:
        raise ValidationError("q_lo exceeds q_hi; quantile bands must be ordered")
    if not 0 <= group < table.group_count:
        raise ValidationError(f"group id {group} outside [0, {table.group_count})")
    bounds = np.asarray(table.partition.bounds)
    a, b = band_pieces(
        np.array([q_lo], float), np.array([q_hi], float), np.array([group]), table.r_hat, bounds
    )
    lo, hi = table.partition.label_domain
    center = median if median is not None else (q_lo + q_hi) / 2.0
    fallback = float(min(max(center, lo), hi))
    return IntervalSet.from_pieces(list(zip(a[:, 0].tolist(), b[:, 0].tolist())), fallback)


def union_widths(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Union widths of the :func:`band_pieces` pair ``(a, b)``.

    Returns ``(width, has_piece)`` arrays over records. The width is the
    sum of the per-bin piece lengths, added bin after bin; it can differ
    from the merged union's :meth:`IntervalSet.total_width` in the last
    bit. The lengths are written into ``b``, so read anything else from
    the pair first.
    """
    length = np.subtract(b, a, out=b)
    has_piece = (length >= 0.0).any(axis=0)
    np.maximum(0.0, length, out=length)  # keeps a -0.0 length, as a >= 0 mask does
    return _bin_sum(length), has_piece


def union_covered(
    q_lo: np.ndarray,
    q_hi: np.ndarray,
    group: np.ndarray,
    r_hat: np.ndarray,
    bounds: np.ndarray,
    bins: np.ndarray,
    y: np.ndarray,
    has_piece: np.ndarray,
    fallback: np.ndarray,
) -> np.ndarray:
    """Membership of ``y`` in each record's union, as :meth:`IntervalSet.contains`.

    ``bins`` holds each label's bin from :func:`~faircov.binning.bin_indices`
    and ``has_piece`` the flag from :func:`union_widths`; a record with no
    piece tests its fallback. Each label is tested in its own bin only:
    the bin's bounds already hold it, so its piece there holds it exactly
    when ``q_lo - r <= y <= q_hi + r`` with ``r = r_hat[bin, group]``. A
    label on an interior cut is also the top of the piece in the bin
    below, so it is tested there too. These are the comparisons the
    :func:`band_pieces` pieces make, so the result is the same bit for
    bit, at O(n) cost rather than O(n·M).
    """
    s_groups = r_hat.shape[1]
    r = np.take(r_hat, bins * s_groups + group)  # a flat gather: faster than r_hat[bins, group]
    inside = (q_lo - r <= y) & (y <= q_hi + r)
    on_cut = np.flatnonzero(y == np.take(bounds, bins))
    on_cut = on_cut[bins[on_cut] > 0]  # the domain's lower edge has no bin below
    if on_cut.size:  # labels on a cut are rare; skip the gathers without one
        r = np.take(r_hat, (bins[on_cut] - 1) * s_groups + group[on_cut])
        inside[on_cut] |= (q_lo[on_cut] - r <= y[on_cut]) & (y[on_cut] <= q_hi[on_cut] + r)
    return np.where(has_piece, inside, y == fallback)


def union_components(
    a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The components of :meth:`IntervalSet.from_pieces` for every record at once.

    Takes the :func:`band_pieces` pair ``(a, b)`` and returns ``(count,
    start, end, width)``: each record's component count, the component
    bounds record by record in ascending order, and each record's
    :meth:`IntervalSet.total_width`, bit for bit. The pieces lie in
    ascending bins, so bin order is ``from_pieces``'s sorted order.
    """
    m_bins, n = a.shape
    opens = np.empty((m_bins, n), dtype=bool)
    running_end = np.empty((m_bins, n))
    end = np.full(n, -np.inf)
    for m in range(m_bins):
        valid = b[m] >= a[m]
        opens[m] = valid & (a[m] > end)  # a piece past the running end opens a component
        np.copyto(end, b[m], where=valid & (b[m] > end))  # a tie keeps the old end, as max does
        running_end[m] = end
    record, first = np.nonzero(opens.T)  # record-major, ascending bins
    # a component runs up to the bin before the record's next one opens
    last = np.full(record.size, m_bins - 1)
    same = record[1:] == record[:-1]
    last[:-1][same] = first[1:][same] - 1
    start = a[first, record]
    end = running_end[last, record]
    count = opens.sum(axis=0)
    # lengths added left to right from 0.0, as total_width does
    position = np.arange(record.size) - np.repeat(np.cumsum(count) - count, count)
    lengths = np.zeros((m_bins, n))
    lengths[position, record] = end - start
    return count, start, end, _bin_sum(lengths)
