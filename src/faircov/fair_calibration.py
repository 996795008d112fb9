"""Per-(bin, group) threshold tables and coverage-equalizing optimization.

A threshold table generalizes the single calibrated shift: every label
bin and group gets its own shift ``r_hat[m, s]``. Starting from the
global shift everywhere, the optimizer repeatedly moves one covered
calibration sample from the most over-covered group to the most
under-covered one, choosing bins by the width change per unit of
coverage (the local slope of the empirical score quantile), until every
group's bin-averaged coverage sits within one sample of the target.

Within a cell, a threshold only matters through which of the cell's
scores it covers, so the optimizer's one piece of per-cell state is the
(M, S) table of covered counts. Every cell's seed threshold and sorted
scores lie end to end in one array, so a cell's threshold is the entry
its count points at, and its two slopes, the width per record of
covering one fewer or one more sample, are the spacings on either side
of that entry. Moving to the adjacent order statistic is exactly "cover
one fewer (or one more) sample". Cells covering at most one record are
never drained further, which keeps every exchange width-bounded.

A group's moves depend only on its own cells, so the exchange loop
takes every move in runs: a run builds each of its donors' and
recipients' greedy moves at once in numpy as a move stream, merges the
streams by their group means, adds the moves to the covered counts and
drops the streams. A donor whose stream has run out sits out. Once no
donor can give, the recipients take lone adds in the same run; a run
with no recipients takes the donors' lone drops. Single moves, picked
from the slope tables read off the counts, remain for the width cleanup.

A group's mean is its bins' coverage rates added in bin order by
:func:`~faircov.binning._bin_sum`, then divided by M: over the (M, S)
rates of a coverage state or after a single move, and over a stream's
(M, moves) rates in a run. The means decide tie breaks and go into the
trace, so their last bit is part of the output.

The :class:`OptimizerTrace` holds the moves as columns. Every move is
written as a block of float64 trace rows, a run's from the arrays it
already holds and a single move's of one row, and the blocks are joined
once, at the end. Its :class:`IterationRecord` view is built only when read.

A :class:`CellScores` holds one conformity-score pass over a calibration
set (scores, sorted cell scores, counts). A calibration makes three
such passes: :func:`init_thresholds` seeds the global shift with
``cqr_calibrate`` and measures the seed :class:`CoverageState`, and
:func:`eoc_optimize` scores the set again when there are groups to
trade. The oracle and ``cqr_calibrate_groupwise`` score once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .binning import BinPartition, _bin_sum, bin_indices, equal_mass_bins
from .conformal import band_columns, conformity_scores, cqr_calibrate, empirical_quantile
from .core import Dataset, EmptyCellError, ValidationError
from .intervals import band_pieces, union_widths
from .quantile_model import QuantileModel

__all__ = [
    "CONVERGED",
    "SLOPE_CROSSOVER",
    "MAX_ITERS",
    "ThresholdTable",
    "CellScores",
    "CoverageState",
    "IterationRecord",
    "OptimizerTrace",
    "init_thresholds",
    "measure_coverage",
    "missed_floors",
    "eoc_optimize",
    "fair_calibrate",
    "cqr_calibrate_groupwise",
    "calibration_objective",
    "brute_force_oracle",
]

CONVERGED = "converged"
SLOPE_CROSSOVER = "slope_crossover"
MAX_ITERS = "max_iters"


@dataclass(frozen=True)
class ThresholdTable:
    """Calibrated shifts indexed by (bin, group)."""

    r_hat: np.ndarray  # (M, S)
    global_r_hat: float
    alpha: float
    partition: BinPartition
    group_count: int

    def __post_init__(self):
        r = np.ascontiguousarray(np.asarray(self.r_hat, dtype=np.float64))
        r.setflags(write=False)
        object.__setattr__(self, "r_hat", r)
        if r.shape != (self.partition.m, self.group_count):
            raise ValidationError(
                f"threshold table must have shape ({self.partition.m}, {self.group_count}), got {r.shape}"
            )
        if not np.all(np.isfinite(r)):
            raise ValidationError("thresholds must be finite")
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError(f"alpha must lie in (0, 1), got {self.alpha}")

    def to_payload(self, extras: dict | None = None) -> dict:
        payload = {
            "alpha": self.alpha,
            "S": self.group_count,
            "global_r_hat": self.global_r_hat,
            "r_hat": [[float(v) for v in row] for row in self.r_hat],
            **self.partition.to_payload(),
        }
        if extras:
            payload.update(extras)
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "ThresholdTable":
        return cls(
            r_hat=np.asarray(payload["r_hat"], dtype=np.float64),
            global_r_hat=float(payload["global_r_hat"]),
            alpha=float(payload["alpha"]),
            partition=BinPartition.from_payload(payload),
            group_count=int(payload["S"]),
        )


@dataclass(frozen=True)
class CellScores:
    """One conformity-score pass over a calibration set, split by cell.

    ``cells[m][s]`` holds the sorted scores of (bin ``m``, group ``s``).
    :meth:`measure` raises :class:`EmptyCellError` on the first empty
    cell in bin-major order.
    """

    scores: np.ndarray  # (n,)
    cells: list[list[np.ndarray]]
    counts: np.ndarray  # (M, S) ints
    partition: BinPartition

    @classmethod
    def measure(
        cls, cal: Dataset, model: QuantileModel | None, partition: BinPartition, alpha: float
    ) -> "CellScores":
        scores = conformity_scores(cal, model, alpha)
        m_bins, s_groups = partition.m, cal.group_count
        key = bin_indices(partition, cal.y) * s_groups + cal.group
        counts = np.bincount(key, minlength=m_bins * s_groups).reshape(m_bins, s_groups)
        empty = np.argwhere(counts == 0)
        if empty.size:
            raise EmptyCellError(int(empty[0, 0]) + 1, int(empty[0, 1]))
        # a stable sort keeps each cell's records in dataset order; numpy
        # radix-sorts 8- and 16-bit keys
        order = np.argsort(key.astype(np.min_scalar_type(m_bins * s_groups - 1)), kind="stable")
        split = np.split(scores[order], np.cumsum(counts.ravel())[:-1])
        cells = [[np.sort(split[m * s_groups + s]) for s in range(s_groups)] for m in range(m_bins)]
        return cls(scores=scores, cells=cells, counts=counts, partition=partition)

    def covered(self, r_hat: np.ndarray) -> np.ndarray:
        """How many of each cell's scores are at or below its threshold, (M, S)."""
        rows = zip(self.cells, r_hat)
        return np.array([[_covered_count(c, r) for c, r in zip(*row)] for row in rows], dtype=np.int64)

    def coverage(self, r_hat: np.ndarray) -> "CoverageState":
        """Share of each cell's scores at or below its threshold."""
        beta = self.covered(r_hat) / self.counts
        return CoverageState(beta=beta, per_group_mean=_bin_sum(beta) / beta.shape[0], cells=self)


@dataclass(frozen=True)
class CoverageState:
    """Per-cell coverage rates, their unweighted per-group bin means, and
    the cell scores they were measured on."""

    beta: np.ndarray  # (M, S)
    per_group_mean: np.ndarray  # (S,)
    cells: CellScores

    @property
    def cell_counts(self) -> np.ndarray:  # (M, S) ints
        return self.cells.counts


@dataclass(frozen=True)
class IterationRecord:
    """One optimizer step, read off the columns of an :class:`OptimizerTrace`.

    Bin numbers are 1-based. A paired exchange fills both sides. A
    one-sided move (a lone add when no group above its window can give,
    a lone drop when no group is below the target, or a trim) marks the
    absent side with group -1, bin 0, and a NaN slope. Each side a move
    names moved its cell's threshold.
    """

    step: int
    donor_group: int
    recipient_group: int
    donor_bin: int
    recipient_bin: int
    slope_decrease: float
    slope_increase: float
    per_group_mean: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class OptimizerTrace:
    """The optimizer's moves as read-only columns, one row per move.

    Row ``t`` is move ``t + 1`` of T. The group and bin columns are
    ``(T,)`` int64, with 1-based bins; the slope columns are ``(T,)``
    float64; ``per_group_mean`` is ``(T, S)`` float64, every group's mean
    after the move. A one-sided move marks its absent side with group -1,
    bin 0 and a NaN slope, as :class:`IterationRecord` does.
    :attr:`iterations` is the same moves as records, built on first
    access. Traces do not compare with ``==``: compare the columns.
    """

    initial_per_group_mean: tuple[float, ...]
    donor_group: np.ndarray
    recipient_group: np.ndarray
    donor_bin: np.ndarray
    recipient_bin: np.ndarray
    slope_decrease: np.ndarray
    slope_increase: np.ndarray
    per_group_mean: np.ndarray
    termination_reason: str

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    @cached_property
    def iterations(self) -> tuple[IterationRecord, ...]:
        """The moves as records: a read-only view of the columns."""
        return tuple(
            map(
                IterationRecord,
                range(1, self.donor_group.size + 1),
                self.donor_group.tolist(),
                self.recipient_group.tolist(),
                self.donor_bin.tolist(),
                self.recipient_bin.tolist(),
                self.slope_decrease.tolist(),
                self.slope_increase.tolist(),
                map(tuple, self.per_group_mean.tolist()),
            )
        )

    def summary(self) -> dict:
        steps = self.donor_group.size
        final = self.per_group_mean[-1].tolist() if steps else list(self.initial_per_group_mean)
        return {
            "termination_reason": self.termination_reason,
            "iterations": steps,
            "initial_per_group_mean": list(self.initial_per_group_mean),
            "final_per_group_mean": final,
            "final_gap": max(final) - min(final),
        }


def _trace(init_means: tuple[float, ...], moves: np.ndarray, reason: str) -> OptimizerTrace:
    # moves: one float64 row per move, holding the donor and recipient
    # groups and bins, the two slopes, then the S group means
    ints = np.ascontiguousarray(moves[:, :4].T, dtype=np.int64)
    slopes = np.ascontiguousarray(moves[:, 4:6].T)
    return OptimizerTrace(init_means, *ints, *slopes, np.ascontiguousarray(moves[:, 6:]), reason)


def measure_coverage(cal: Dataset, model: QuantileModel | None, table: ThresholdTable) -> CoverageState:
    """Coverage rate of every calibration cell under the current table.

    A record counts as covered when its conformity score is at most the
    threshold of its own (bin, group) cell, which is exactly membership
    in the closed calibrated band.
    """
    return CellScores.measure(cal, model, table.partition, table.alpha).coverage(table.r_hat)


def _floors(n: int, alpha: float) -> tuple[float, int]:
    """The coverage floors of a table calibrated on ``n`` records.

    Every group's bin-mean coverage must reach the first, ``1 - alpha``
    less 1e-12 for rounding, and the pooled covered count the second,
    ``ceil(n (1 - alpha))``, taken 1e-9 below so that a product that
    rounds up past an integer does not ask for one record more.
    """
    target = 1.0 - alpha
    return target - 1e-12, math.ceil(n * target - 1e-9)


def missed_floors(cal: Dataset, model: QuantileModel | None, table: ThresholdTable) -> list[str]:
    """The coverage floors ``table`` misses on its own calibration set.

    One message per missed floor, each group's bin-mean coverage first,
    then the pooled covered count; empty when the table meets them all.
    """
    state = measure_coverage(cal, model, table)
    target = 1.0 - table.alpha
    floor, k_floor = _floors(cal.n, table.alpha)
    missed = [
        f"group {s} bin-mean coverage {mean!r} < {target!r}"
        for s, mean in enumerate(state.per_group_mean.tolist())
        if mean < floor
    ]
    covered = int(np.rint((state.beta * state.cell_counts).sum()))
    if covered < k_floor:
        missed.append(f"pooled covered count {covered} < {k_floor}")
    return missed


def init_thresholds(
    cal: Dataset, model: QuantileModel | None, partition: BinPartition, alpha: float
) -> tuple[ThresholdTable, CoverageState]:
    """Seed every cell with the global calibrated shift."""
    global_r_hat = cqr_calibrate(cal, model, alpha).r_hat
    table = ThresholdTable(
        r_hat=np.full((partition.m, cal.group_count), global_r_hat),
        global_r_hat=global_r_hat,
        alpha=alpha,
        partition=partition,
        group_count=cal.group_count,
    )
    return table, measure_coverage(cal, model, table)


def _covered_count(cell: np.ndarray, threshold: float) -> int:
    return int(np.searchsorted(cell, threshold, side="right"))


def _lay_out(cells: CellScores, seed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cells end to end in one array, and where each cell starts.

    ``flat`` holds, bin-major, each cell's seed threshold followed by its
    sorted scores, then a spare 0.0; ``first[m, s]`` is the position of
    cell (m, s)'s seed. A cell covering ``k`` scores has its threshold at
    ``flat[first + k]``: the seed when it covers none, else its covering
    order statistic.
    """
    sizes = cells.counts.ravel()
    starts = np.cumsum(sizes) - sizes
    scores = np.concatenate([*(c for row in cells.cells for c in row), [0.0]])
    flat = np.insert(scores, starts, seed.ravel())
    return flat, (starts + np.arange(sizes.size)).reshape(cells.counts.shape)


class _MoveStream:
    """One group's greedy moves in one direction, from the covered counts it was built on.

    A stream lives for one run: the run builds the streams of its donors
    and recipients, takes its moves and drops them. Drops take the
    first bin with the largest decrease slope at every step, adds the
    first bin with the smallest increase slope. A bin's slopes, read from
    its covering order statistic outwards, are not monotone, but a bin is
    only reached through its earlier moves, so the greedy takes the moves
    in a stable sort of their running minimum (drops) or maximum (adds):
    ties go to the lower bin, then the earlier move. Drops read every
    covered score and end at a bin's first zero slope, a tie that cannot
    move, so a drop stream is empty exactly when no bin has a positive
    decrease slope, and a donor that has taken its whole stream has no
    positive slope left. An add stream has a move while any cell has room, so
    it is empty exactly when every cell is full.

    ``flat`` is the layout of :func:`_lay_out`; ``first``, ``sizes`` and
    ``k`` are the group's columns of cell starts, cell sizes and covered
    counts. The stream gathers its ``(M, depth)`` rows, one per bin, from
    ``flat`` at once. ``bins[j]``, ``deltas[j]`` and ``slopes[j]`` are move ``j``'s bin, the
    change of that bin's covered count, and the slope the trace records.
    ``mu[t]`` is the group mean after ``t`` moves, computed in chunks as
    the run asks for it.
    """

    def __init__(self, flat, first, sizes, k, drop: bool):
        self.sizes = sizes
        self.k_end = k.copy()  # covered counts at state mu.size - 1
        self.mu = _bin_sum((k / sizes)[:, None]) / sizes.size
        size = sizes[:, None]
        if drop:
            # row m: the bin's covered scores from the top, then its
            # lowest score repeated, at least once
            width = max(int(k.max()), 1) + 1
            top = flat[first[:, None] + np.maximum(k[:, None] - np.arange(width), 1)]
            gaps = (top[:, :-1] - top[:, 1:]) / size  # move j lands on row[j + 1]
            keys = np.minimum.accumulate(gaps, axis=1)
            moves = np.flatnonzero(keys > 0.0)  # each bin up to its first tie
            order = moves[np.argsort(-keys.ravel()[moves], kind="stable")]
            bins = order // gaps.shape[1]
            self.deltas = np.full(order.size, -1)
        else:
            # row m: the bin's threshold, then its uncovered scores; only a
            # bin's first score of each value is a move, the others step by
            # zero. Past a bin's scores the row is padding.
            tails = sizes - k
            row = flat.take(first[:, None] + k[:, None] + np.arange(int(tails.max()) + 2), mode="clip")
            below, scores = row[:, :-1], row[:, 1:]
            real = np.arange(scores.shape[1]) < tails[:, None]
            gaps = np.where(real, scores - below, 0.0) / size
            keys = np.maximum.accumulate(gaps, axis=1)
            moves = np.flatnonzero(real & (scores != below))
            move_bins, j = np.divmod(moves, scores.shape[1])
            last = np.diff(move_bins, append=sizes.size) != 0  # a bin's last move
            # where the bin's next move starts, or its tail's end
            next_j = np.where(last, tails[move_bins], np.roll(j, -1))
            rank = np.argsort(keys.ravel()[moves], kind="stable")
            order, bins = moves[rank], move_bins[rank]
            self.deltas = (next_j - j)[rank]
        self.bins, self.slopes, self.size = bins, gaps.ravel()[order], order.size

    def span(self, inside, limit: int) -> int:
        """How many states from the first on, at most ``limit``, have a mean
        that ``inside`` accepts; the mean one state further is computed too."""
        while True:
            have = self.mu.size
            out = np.flatnonzero(~inside(self.mu))
            if out.size or have > self.size or have > limit:
                return min(out[0] if out.size else have, limit)
            self._extend(min(self.size + 1, have + 256))

    def _extend(self, upto: int) -> None:
        # states mu.size .. upto-1
        moves = np.arange(self.mu.size - 1, upto - 1)
        d = np.zeros((self.sizes.size, moves.size), dtype=np.int64)
        d[self.bins[moves], np.arange(moves.size)] = self.deltas[moves]
        k = np.cumsum(d, axis=1)
        k += self.k_end[:, None]
        self.k_end = k[:, -1]
        self.mu = np.concatenate((self.mu, _bin_sum(k / self.sizes[:, None]) / self.sizes.size))


def eoc_optimize(
    cal: Dataset,
    model: QuantileModel | None,
    table0: ThresholdTable,
    state0: CoverageState,
    *,
    max_iters: int | None = None,
) -> tuple[ThresholdTable, OptimizerTrace]:
    """Equalize per-group coverage by single-sample threshold moves.

    The target is ``1 - table0.alpha``. While some group sits below the
    target, each iteration lifts the lowest such group, the recipient,
    by covering one more sample in its bin with the smallest increase
    slope. The highest group above its parking window that still has a
    positive decrease slope donates: it drops one covered sample from
    its bin with the largest decrease slope. A paired exchange never
    lowers the pooled covered count, so validity is never spent. When
    no group above its window can give (each of its cells covers at
    most one sample, or only tied ones), the recipient takes a lone
    add, which only adds coverage. Once no group is below the target,
    lone drops follow, each from the highest group above its window
    that can still give, taken only while the pooled covered count
    stays at or above its floor of ``ceil(n * (1 - alpha))``. A drop
    uncovers one sample; an add covers one, or several when the newly
    covered score ties the next ones.

    Terminates ``converged`` when every group parks inside the one-sided
    window ``[1 - alpha, 1 - alpha + stop]`` with ``stop`` one move
    quantum (one sample of the group's smallest cell, averaged over
    bins), which keeps it inside the documented tolerance band;
    ``slope_crossover`` when no lone drop can move: no group above its
    window has a positive decrease slope, or a drop would take the
    pooled covered count below its floor. Both exits leave every group
    at or above the target and the pooled count at or above its floor.
    ``max_iters`` at the iteration cap, returning the
    table reached so far, which may miss a floor, also when the cap cuts
    the width cleanup short while a pass still has a move to make (a
    cleanup that ends on its own exactly at the cap is ``converged``).
    Slopes are recorded per move so the width economics of every move
    stay observable in the trace's columns.

    The state is one ``(M, S)`` table ``k`` of covered counts. Before
    iterating, each cell's count is that of its seed threshold, and every
    threshold is re-expressed on the covering order statistic of its
    cell, which releases pure slack as width without touching coverage.
    The cleanup takes the moves two slope tables pick: the width saved
    by dropping each cell's top covered sample (``-inf`` where
    fewer than two are covered) and the width paid by covering its next
    one (``+inf`` where the cell is full). The thresholds, both slope
    tables and the group means are read off ``k``. Each cell's seed
    threshold and sorted scores lie end to end in one array ``flat``,
    cell (m, s) from ``first[m, s]`` on, so its threshold is
    ``flat[first + k]``, its slopes are ``flat``'s spacings per record on
    either side of that entry, and the group means are
    ``_bin_sum(k / counts) / M``. Ties go to the
    first cell in bin-major order. After the loop converges, a width
    cleanup alternates two greedy passes until neither moves: a trim pass
    sheds covered records the floors do not need, widest spacing first,
    and stops at a tied drop (slope 0.0), which cannot move; a descent
    pass trades one covered sample between any two cells while the
    largest decrease slope strictly exceeds the smallest increase slope,
    stopping at that crossover. Cleanup feasibility is judged on post-move
    group means, so every group stays inside its parking window and the
    covered count never falls below its floor.

    Every threshold sits on its cell's covering order statistic, so a
    drop covers exactly one sample fewer, and an add exactly one more
    unless the newly covered score ties the next ones.

    The exchange loop takes its moves in runs. A group's moves depend
    only on its own cells, so a run builds each donor's greedy drops
    (and each recipient's adds) as a stream: each cell's
    order-statistic spacings, read from the covering one
    outwards, stably sorted by their running minimum (maximum for adds),
    which is the order a first-of-equal pick over the slope table takes
    them in. A cumsum of the stream's covered counts gives the group
    mean after each of its moves. Within a run donor means only fall and
    recipient means only rise, so the donor picks are the donors'
    before-move means sorted descending and the recipient picks the
    recipients' sorted ascending, ties to the lower group, then the
    earlier move. A donor gives picks only while its stream has moves;
    once the donor picks run out, the remaining recipient picks are lone
    adds. With no group below the target, a run has no recipients and
    its donor picks are lone drops, at most as many as the pooled count
    exceeds its floor. The run's block of trace rows is written from
    those arrays, the run adds its moves to ``k`` and drops its streams.
    A run ends after an add that carries its group past its window, as
    the group may donate next. The loop stops ``slope_crossover`` at the
    first run that takes no move. The cleanup's moves are single moves,
    each written as a one-row block.

    A group mean adds its bins' rates in bin order, in a single move and
    in a stream alike. The means decide tie breaks and go into the trace,
    so the summation order is part of the output.

    A ``state0`` of another calibration set or partition raises
    ValidationError. With a single group the input table is returned
    unchanged.
    """
    if state0.cells.partition != table0.partition or int(state0.cell_counts.sum()) != cal.n:
        raise ValidationError("state0 was measured on another calibration set or partition")
    if max_iters is None:
        max_iters = 10 * cal.n
    if max_iters < 1:
        raise ValidationError("max_iters must be positive")
    s_groups = table0.group_count
    m_bins = table0.partition.m
    init_means = tuple(float(v) for v in state0.per_group_mean)
    if s_groups == 1:
        return table0, _trace(init_means, np.empty((0, 6 + s_groups)), CONVERGED)

    cell_scores = CellScores.measure(cal, model, table0.partition, table0.alpha)
    counts = cell_scores.counts
    k = cell_scores.covered(table0.r_hat)
    flat, first = _lay_out(cell_scores, table0.r_hat)
    del cell_scores  # its (n,) scores would outlive their use by the whole run
    # width change per record of moving a threshold from flat[p] to flat[p + 1]
    spacing = np.diff(flat) / np.repeat(counts.ravel(), counts.ravel() + 1)
    groups = range(s_groups)

    def drops() -> np.ndarray:
        # the decrease slopes of every cell
        return np.where(k >= 2, spacing[first + k - 1], -np.inf)

    def adds() -> np.ndarray:
        # the increase slopes of every cell
        return np.where(k < counts, spacing[first + k], np.inf)

    def means() -> list[float]:
        return (_bin_sum(k / counts) / m_bins).tolist()

    band = 1.0 / counts.min(axis=0)  # documented tolerance per group
    # Park each group in the one-sided window [target, target + stop],
    # where stop = one move quantum (a move shifts a bin-averaged mean by
    # at most 1/(M * smallest cell)). The coverage requirement is
    # one-sided, so groups park at or above the target; the window is
    # absorbing because a drop from above it lands at or above the target
    # and an add from below lands at or below target + stop. The pooled
    # covered count keeps its own floor, ceil(n * (1 - alpha)), enforced
    # at every spending move.
    eps = 1e-12
    floor, k_floor = _floors(cal.n, table0.alpha)
    level = 1.0 - table0.alpha
    stop = band / m_bins
    cell_weight = 1.0 / (m_bins * s_groups)
    quantum = cell_weight * s_groups / counts  # group-mean change of a one-sample move

    def shift(m: int, s: int, offset: int) -> None:
        # Move cell (m, s)'s threshold ``offset`` places along flat: -1
        # drops one covered sample, +1 covers one more. The count becomes
        # the new threshold's: k - 1 for a drop, k + 1 for an add unless
        # the newly covered score ties the next one. Only moves with a
        # positive slope are asked for, so the threshold always moves.
        new = flat[first[m, s] + k[m, s] + offset]
        start = first[m, s] + 1
        k[m, s] = _covered_count(flat[start : start + counts[m, s]], new)

    def run(over: list[int], under: list[int]) -> int:
        # Takes the moves that lift the groups in ``under`` as one run, or,
        # with no recipients, the donors' lone drops down to the pooled
        # floor; returns how many moves it took. Donors only fall and
        # recipients only rise, so the picks are the donors' before-move
        # means sorted descending and the recipients' sorted ascending, ties
        # to the lower group, then the earlier move. A donor gives only
        # while its drop stream has moves. An absent side (a lone add's
        # donor, a lone drop's recipient) is group -1, bin 0 and a NaN
        # slope. A run stops after an add that carries its group past its
        # window; a recipient fills up only at mean 1, above its window.
        # The run's streams are built from the counts it starts on and
        # dropped at its end.
        nonlocal mu, steps
        budget = max_iters - steps
        if not under:  # each lone drop uncovers one sample
            budget = max(0, min(budget, int(k.sum()) - k_floor))
        streams, sides = {}, []
        for groups_, sign in ((over, -1), (under, 1)):
            mus, gs, ts = [np.empty(0)], [np.empty(0, int)], [np.empty(0, int)]  # none if no group
            for s in groups_:
                st = streams[s] = _MoveStream(flat, first[:, s], counts[:, s], k[:, s], sign < 0)
                if sign < 0:
                    n = min(st.span(lambda v: v - level > slack[s], budget), st.size)
                else:
                    n = st.span(lambda v: v < floor, budget)
                mus.append(st.mu[:n])
                gs.append(np.full(n, s))
                ts.append(np.arange(n))
            mus, gs, ts = map(np.concatenate, (mus, gs, ts))
            order = np.lexsort((ts, gs, sign * mus))[:budget]
            sides.append((gs[order], ts[order]))
        (g1, t1), (g2, t2) = sides
        n = g2.size if under else g1.size
        g1 = g1[:n]
        block = np.empty((n, 6 + s_groups))  # the run's rows of the trace
        block[:, 2:4], block[:, 4:6] = 0, np.nan  # an absent side
        rise = np.empty(g2.size)  # each recipient's mean after its move
        for g, t, side in ((g1, t1, 0), (g2, t2, 1)):
            for s in set(g.tolist()):
                st, mine = streams[s], np.flatnonzero(g == s)
                block[mine, 2 + side] = st.bins[t[mine]] + 1
                block[mine, 4 + side] = st.slopes[t[mine]]
                if side:
                    rise[mine] = st.mu[t[mine] + 1]
        # Stop after an add that carries its group past its window. A drop
        # cannot carry its donor under the target: the window is at least
        # one move wide.
        crossed = np.flatnonzero(rise - level > np.asarray(slack)[g2])
        if crossed.size:
            n = int(crossed[0]) + 1
            block = block[:n]
        g1, g2 = (np.concatenate((g, np.full(n, -1)))[:n] for g in (g1, g2))
        block[:, 0], block[:, 1] = g1, g2
        after = block[:, 6:]
        after[:] = mu  # a waiting group keeps its current mean
        for g in (g1, g2):
            for s in set(g.tolist()) - {-1}:
                st, moved = streams[s], np.cumsum(g == s)
                b = int(moved[-1])
                after[:, s] = st.mu[moved]
                np.add.at(k[:, s], st.bins[:b], st.deltas[:b])
        mu = means()
        blocks.append(block)
        steps += n
        return n

    steps = 0
    blocks = [np.empty((0, 6 + s_groups))]  # the trace so far, as (moves, 6 + S) blocks
    mu = means()

    def record(s1, s2, m1, m2, d_slope, i_slope) -> None:
        # the group means after the move, which the next move starts from;
        # a trim's absent recipient is group -1 and bin -1, written as 0
        nonlocal mu, steps
        mu = means()
        blocks.append(np.array([(s1, s2, m1 + 1, m2 + 1, d_slope, i_slope, *mu)], dtype=np.float64))
        steps += 1

    slack = (stop + eps).tolist()
    reason: str | None = None
    while steps < max_iters:
        over = [s for s in groups if mu[s] - level > slack[s]]
        under = [s for s in groups if mu[s] < floor]
        if not (over or under):
            reason = CONVERGED
            break
        if not run(over, under):
            reason = SLOPE_CROSSOVER
            break
    if reason is None:
        reason = MAX_ITERS

    if reason == CONVERGED:
        # Width cleanup, alternating two greedy passes until neither
        # moves. Trim sheds covered records the floors do not need,
        # widest spacing first; a drop must keep its group at or above
        # the target and the pooled count at or above its floor. Descent
        # trades one covered sample between two cells while the best
        # width saving strictly exceeds the cheapest width cost;
        # feasibility is judged on the post-exchange means, so a
        # same-group rebalance is allowed even when its drop alone would
        # dip below the target. Stops at the slope crossover, where no
        # exchange pays for itself. Each pass reads the bin-major (M, S)
        # slope tables, so argmax ties go to the first cell in that order.
        cell_group = np.tile(np.arange(s_groups), m_bins)  # group of each raveled cell
        same_group = cell_group[:, None] == cell_group[None, :]
        ceiling = (level + stop + eps)[cell_group]
        # A cap that stops either pass while it still has a move to make
        # ends the run as max_iters.
        progress = True
        while progress and reason == CONVERGED:
            progress = False

            while k.sum() > k_floor:
                gain = np.where(np.array(mu) - quantum >= floor, drops(), -np.inf)
                m1, s1 = divmod(int(np.argmax(gain)), s_groups)
                if gain[m1, s1] <= 0.0:
                    break  # a zero slope is a tie, which a drop cannot move
                if steps == max_iters:
                    reason = MAX_ITERS
                    break
                shift(m1, s1, -1)
                progress = True
                record(s1, -1, m1, -1, gain[m1, s1], math.nan)

            while reason == CONVERGED:
                # rows: the donor cell, columns: the recipient cell
                mu1 = (np.array(mu) - quantum).ravel()[:, None]
                mu2 = (np.array(mu) + quantum).ravel()[None, :]
                post = mu1 + quantum.ravel()[None, :]
                ok = np.where(
                    same_group,
                    (floor <= post) & (post <= ceiling[:, None]),
                    (mu1 >= floor) & (mu2 <= ceiling[None, :]),
                )
                dec, inc = drops(), adds()
                gain = np.where(ok, dec.ravel()[:, None] - inc.ravel()[None, :], -np.inf)
                np.fill_diagonal(gain, -np.inf)
                a, b = divmod(int(np.argmax(gain)), m_bins * s_groups)
                if gain[a, b] <= 0.0:
                    break
                if steps == max_iters:
                    reason = MAX_ITERS
                    break
                (m1, s1), (m2, s2) = divmod(a, s_groups), divmod(b, s_groups)
                d_slope, i_slope = dec[m1, s1], inc[m2, s2]
                shift(m1, s1, -1)
                shift(m2, s2, 1)
                progress = True
                record(s1, s2, m1, m2, d_slope, i_slope)

    table = ThresholdTable(
        r_hat=flat[first + k],
        global_r_hat=table0.global_r_hat,
        alpha=table0.alpha,
        partition=table0.partition,
        group_count=s_groups,
    )
    return table, _trace(init_means, np.concatenate(blocks), reason)


def fair_calibrate(
    cal: Dataset,
    model: QuantileModel | None,
    bins: int | BinPartition,
    alpha: float,
    max_iters: int | None = None,
) -> tuple[ThresholdTable, OptimizerTrace]:
    """Full fairness-aware calibration: bin, seed, optimize."""
    partition = (
        bins
        if isinstance(bins, BinPartition)
        else equal_mass_bins(cal.y, bins, cal.label_domain)
    )
    table0, state0 = init_thresholds(cal, model, partition, alpha)
    return eoc_optimize(cal, model, table0, state0, max_iters=max_iters)


def cqr_calibrate_groupwise(
    cal: Dataset, model: QuantileModel | None, alpha: float
) -> ThresholdTable:
    """Independent calibration per group over a single label bin."""
    partition = BinPartition(bounds=cal.label_domain, counts=(cal.n,))
    cells = CellScores.measure(cal, model, partition, alpha)
    return ThresholdTable(
        r_hat=[[empirical_quantile(cell, 1.0 - alpha) for cell in cells.cells[0]]],
        global_r_hat=empirical_quantile(cells.scores, 1.0 - alpha),
        alpha=alpha,
        partition=partition,
        group_count=cal.group_count,
    )


def calibration_objective(cal: Dataset, model: QuantileModel | None, table: ThresholdTable) -> float:
    """Mean total interval width over the calibration set."""
    q_lo, q_hi, _ = band_columns(cal, model, table.alpha)
    pieces = band_pieces(q_lo, q_hi, cal.group, table.r_hat, np.asarray(table.partition.bounds))
    width, _ = union_widths(*pieces)
    return float(width.mean())


def brute_force_oracle(
    cal: Dataset, model: QuantileModel | None, partition: BinPartition, alpha: float
) -> ThresholdTable:
    """Exhaustive width-minimal table on small instances.

    Candidate thresholds per cell are the cell's distinct scores plus a
    sentinel just below the minimum (covering nothing). Feasible tables
    must hold every group's bin-averaged coverage at or above the target
    and cover at least the target share of calibration records. Ties
    resolve toward the first candidate combination in ascending
    per-cell, bin-major, group-major order. Limited to at most 4 cells
    and two million candidate tables.
    """
    m_bins, s_groups = partition.m, cal.group_count
    if m_bins * s_groups > 4:
        raise ValidationError("oracle search is limited to at most 4 cells")
    cell_scores = CellScores.measure(cal, model, partition, alpha)
    cells, counts = cell_scores.cells, cell_scores.counts
    if float(np.prod(counts + 1.0)) > 2e6:
        raise ValidationError("oracle search is limited to two million candidate tables")
    q_lo, q_hi, _ = band_columns(cal, model, alpha)
    bounds = np.asarray(partition.bounds)
    floor, k_floor = _floors(cal.n, alpha)

    # Candidates, covered counts, and width contributions per cell. A
    # cell's threshold prices the band piece inside that bin for every
    # record of the cell's group.
    cand: list[list[np.ndarray]] = []
    cand_k: list[list[np.ndarray]] = []
    cand_w: list[list[np.ndarray]] = []
    for m in range(m_bins):
        crow, krow, wrow = [], [], []
        for s in range(s_groups):
            cell = cells[m][s]
            eps = 1e-9 * max(1.0, abs(float(cell[0])))
            values = np.concatenate(([cell[0] - eps], np.unique(cell)))
            crow.append(values)
            krow.append(np.searchsorted(cell, values, side="right"))
            in_group = cal.group == s
            lo_g, hi_g, group_g = q_lo[in_group], q_hi[in_group], cal.group[in_group]
            widths = np.empty(values.size)
            for c, t in enumerate(values):
                a, b = band_pieces(lo_g, hi_g, group_g, np.full((m_bins, s_groups), t), bounds)
                widths[c] = np.clip(b[m] - a[m], 0.0, None).sum()
            wrow.append(widths)
        cand.append(crow)
        cand_k.append(krow)
        cand_w.append(wrow)

    # Per-group enumeration over bin candidate choices, kept in
    # lexicographic (bin-major) order for deterministic tie-breaks.
    group_choices: list[np.ndarray] = []
    group_w: list[np.ndarray] = []
    group_k: list[np.ndarray] = []
    group_ok: list[np.ndarray] = []
    for s in range(s_groups):
        sizes = [cand[m][s].size for m in range(m_bins)]
        grids = np.meshgrid(*[np.arange(sz) for sz in sizes], indexing="ij")
        choices = np.stack([g.ravel() for g in grids], axis=1)  # (n_combo, M)
        w = np.zeros(choices.shape[0])
        ktot = np.zeros(choices.shape[0], dtype=np.int64)
        beta_mean = np.zeros(choices.shape[0])
        for m in range(m_bins):
            idx = choices[:, m]
            w += cand_w[m][s][idx]
            ktot += cand_k[m][s][idx]
            beta_mean += cand_k[m][s][idx] / counts[m, s]
        beta_mean /= m_bins
        group_choices.append(choices)
        group_w.append(w)
        group_k.append(ktot)
        group_ok.append(beta_mean >= floor)

    total_w = np.zeros(1)
    total_k = np.zeros(1, dtype=np.int64)
    total_ok = np.ones(1, dtype=bool)
    for s in range(s_groups):
        total_w = (total_w[:, None] + group_w[s][None, :]).ravel()
        total_k = (total_k[:, None] + group_k[s][None, :]).ravel()
        total_ok = (total_ok[:, None] & group_ok[s][None, :]).ravel()
    feasible = total_ok & (total_k >= k_floor)
    if not feasible.any():
        raise ValidationError("oracle found no feasible threshold table")
    masked = np.where(feasible, total_w, np.inf)
    best = int(np.argmin(masked))  # first minimum: lexicographic tie-break

    r = np.zeros((m_bins, s_groups))
    rem = best
    for s in reversed(range(s_groups)):
        n_comb = group_choices[s].shape[0]
        rem, combo = divmod(rem, n_comb)
        for m in range(m_bins):
            r[m, s] = cand[m][s][group_choices[s][combo, m]]
    return ThresholdTable(
        r_hat=r,
        global_r_hat=empirical_quantile(cell_scores.scores, 1.0 - alpha),
        alpha=alpha,
        partition=partition,
        group_count=s_groups,
    )
