"""Per-(bin, group) threshold tables and coverage-equalizing optimization.

A threshold table generalizes the single calibrated shift: every label
bin and group gets its own shift ``r_hat[m, s]``. Starting from the
global shift everywhere, the optimizer repeatedly moves one covered
calibration sample from the most over-covered group to the most
under-covered one, choosing bins by the width change per unit of
coverage (the local slope of the empirical score quantile), until every
group's bin-averaged coverage sits within one sample of the target.

Within a cell, a threshold only matters through which of the cell's
scores it covers, so during optimization thresholds are re-expressed on
the cell score order statistics; moving to the adjacent order statistic
is exactly "cover one fewer (or one more) sample". Cells covering at
most one record are never drained further, which keeps every exchange
width-bounded.

A group's moves depend only on its own cells, so the paired exchanges
are taken in runs: a run builds each of its donors' and recipients'
greedy moves at once in numpy as a move stream, merges the streams by
their group means, applies the moves and drops the streams. Single
moves, picked from two slope tables that a move refreshes only for the
cells it changes, remain for what a run cannot take: lone drops and
adds, a donor that is exhausted or tie-locked, an add that carries its
group past its window, the iteration cap and the width cleanup.

A group's mean is its bins' coverage rates added in bin order, then
divided by M: ``reduce(add)`` over Python floats in a single move, the
same additions row by row over a stream's (M, moves) rates in a run.
Both are numpy's axis-0 reduction of the (M, S) rates bit for bit, while
the builtin ``sum`` compensates from Python 3.12 on and numpy's sum of
one column adds partial sums. The means decide tie breaks and go into
the trace, so their last bit is part of the output.

A :class:`CellScores` holds one conformity-score pass over a calibration
set (scores, bins, sorted cell scores, counts). A calibration makes three
such passes: :func:`init_thresholds` seeds the global shift with
``cqr_calibrate`` and measures the seed :class:`CoverageState`, and
:func:`eoc_optimize` scores the set again when there are groups to
trade. The oracle and ``cqr_calibrate_groupwise`` score once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .binning import BinPartition, bin_indices, equal_mass_bins
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
    "slope_decrease",
    "slope_increase",
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
    bins: np.ndarray  # (n,) 0-based bin indices
    cells: list[list[np.ndarray]]
    counts: np.ndarray  # (M, S) ints
    partition: BinPartition

    @classmethod
    def measure(
        cls, cal: Dataset, model: QuantileModel | None, partition: BinPartition, alpha: float
    ) -> "CellScores":
        scores = conformity_scores(cal, model, alpha)
        bins0 = bin_indices(partition, cal.y)
        m_bins, s_groups = partition.m, cal.group_count
        key = bins0 * s_groups + cal.group
        counts = np.bincount(key, minlength=m_bins * s_groups).reshape(m_bins, s_groups)
        empty = np.argwhere(counts == 0)
        if empty.size:
            raise EmptyCellError(int(empty[0, 0]) + 1, int(empty[0, 1]))
        # a stable sort keeps each cell's records in dataset order
        split = np.split(scores[np.argsort(key, kind="stable")], np.cumsum(counts.ravel())[:-1])
        cells = [[np.sort(split[m * s_groups + s]) for s in range(s_groups)] for m in range(m_bins)]
        return cls(scores=scores, bins=bins0, cells=cells, counts=counts, partition=partition)

    def coverage(self, r_hat: np.ndarray) -> "CoverageState":
        """Share of each cell's scores at or below its threshold."""
        covered = [[_covered_count(c, r) for c, r in zip(*row)] for row in zip(self.cells, r_hat)]
        beta = np.array(covered) / self.counts
        return CoverageState(beta=beta, per_group_mean=beta.mean(axis=0), cells=self)


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
    """One optimizer step. Bin numbers are 1-based.

    A paired exchange fills both sides. A one-sided rebalancing move
    (taken when no counterparty group sits on the other side of the
    target) marks the absent side with group -1, bin 0, and a NaN slope.
    A tie-locked donor, whose best decrease slope is 0.0, cannot move: its
    side records that cell and slope 0.0, and its mean is unchanged.
    """

    step: int
    donor_group: int
    recipient_group: int
    donor_bin: int
    recipient_bin: int
    slope_decrease: float
    slope_increase: float
    per_group_mean: tuple[float, ...]


@dataclass(frozen=True)
class OptimizerTrace:
    initial_per_group_mean: tuple[float, ...]
    iterations: tuple[IterationRecord, ...]
    termination_reason: str

    def gaps(self) -> list[float]:
        """Max-minus-min group mean before and after each step."""
        seq = [self.initial_per_group_mean] + [it.per_group_mean for it in self.iterations]
        return [max(m) - min(m) for m in seq]

    def summary(self) -> dict:
        final = (
            self.iterations[-1].per_group_mean
            if self.iterations
            else self.initial_per_group_mean
        )
        return {
            "termination_reason": self.termination_reason,
            "iterations": len(self.iterations),
            "initial_per_group_mean": list(self.initial_per_group_mean),
            "final_per_group_mean": list(final),
            "final_gap": max(final) - min(final),
        }


def measure_coverage(cal: Dataset, model: QuantileModel | None, table: ThresholdTable) -> CoverageState:
    """Coverage rate of every calibration cell under the current table.

    A record counts as covered when its conformity score is at most the
    threshold of its own (bin, group) cell, which is exactly membership
    in the closed calibrated band.
    """
    return CellScores.measure(cal, model, table.partition, table.alpha).coverage(table.r_hat)


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


def _dec_slope(cell: np.ndarray, k: int) -> float:
    # width saved per record when the k-th covered sample is dropped; k >= 2
    return (cell.item(k - 1) - cell.item(k - 2)) / cell.size


def _inc_slope(cell: np.ndarray, k: int, current: float) -> float:
    # width paid per record when the (k+1)-th sample is covered; k < size
    base = cell.item(k - 1) if k >= 1 else float(current)
    return max(0.0, cell.item(k) - base) / cell.size


class _MoveStream:
    """One group's greedy moves in one direction, from the state it was built on.

    A stream lives for one run: the run builds the streams of its donors
    and recipients, takes its exchanges and drops them. Drops take the
    first bin with the largest decrease slope at every step, adds the
    first bin with the smallest increase slope. A bin's slopes, read from
    its covering order statistic outwards, are not monotone, but a bin is
    only reached through its earlier moves, so the greedy takes the moves
    in a stable sort of their running minimum (drops) or maximum (adds):
    ties go to the lower bin, then the earlier move. Drops read every
    covered score and end at a bin's first zero slope, a tie that cannot
    move, so a drop stream is empty exactly when no bin has a positive
    decrease slope. An add stream has a move while any cell has room; a
    recipient, below the target, always has one.

    ``bins[j]``, ``ks[j]``, ``thrs[j]`` and ``slopes[j]`` are move ``j``'s
    bin, the bin's covered count and threshold after it, and the slope
    the trace records. ``mu[t]`` is the group mean after ``t`` moves,
    computed in chunks as the run asks for it.
    """

    def __init__(self, cells, sizes: list[int], k: list[int], thr: list[float], drop: bool):
        self.sizes = np.array(sizes)
        self.k_end = np.array(k)  # covered counts at state mu.size - 1
        self.mu = reduce(add, (self.k_end / self.sizes)[:, None]) / len(sizes)
        m_bins, size = len(sizes), self.sizes[:, None]
        if drop:
            # row m: the bin's covered scores from the top, then its last
            # score repeated, at least once
            depth = np.maximum(self.k_end - 1, 0)
            top = np.empty((m_bins, int(depth.max()) + 2))
            for row, c, km, d in zip(top, cells, np.maximum(self.k_end, 1).tolist(), depth.tolist()):
                row[: d + 1] = c[km - 1 - d : km][::-1]
                row[d + 1 :] = row[d]
            gaps = (top[:, :-1] - top[:, 1:]) / size  # move j lands on row[j + 1]
            keys = np.minimum.accumulate(gaps, axis=1)
            moves = np.flatnonzero(keys > 0.0)  # each bin up to its first tie
            order = moves[np.argsort(-keys.ravel()[moves], kind="stable")]
            bins, j = np.divmod(order, gaps.shape[1])
            self.ks = self.k_end[bins] - 1 - j
            self.deltas = np.full(order.size, -1)
            self.thrs = top[bins, j + 1]
        else:
            # row m: the bin's uncovered scores, then +inf; only a bin's
            # first score of each value is a move, the others step by zero
            tails = self.sizes - self.k_end
            scores = np.full((m_bins, int(tails.max()) + 1), np.inf)
            for row, c, km in zip(scores, cells, k):
                row[: c.size - km] = c[km:]
            base = np.array([c.item(km - 1) if km else t for c, km, t in zip(cells, k, thr)])
            below = np.concatenate((base[:, None], scores[:, :-1]), axis=1)
            real = np.arange(scores.shape[1]) < tails[:, None]
            gaps = np.zeros_like(scores)
            np.subtract(scores, below, out=gaps, where=real)
            gaps /= size
            keys = np.maximum.accumulate(gaps, axis=1)
            moves = np.flatnonzero(real & (scores != below))
            move_bins, j = np.divmod(moves, scores.shape[1])
            next_j = np.append(j[1:], 0)  # where the bin's next move starts
            last = np.append(move_bins[1:] != move_bins[:-1], True)
            next_j[last] = tails[move_bins[last]]
            rank = np.argsort(keys.ravel()[moves], kind="stable")
            order, bins = moves[rank], move_bins[rank]
            self.ks = self.k_end[bins] + next_j[rank]
            self.deltas = (next_j - j)[rank]
            self.thrs = scores.ravel()[order]
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
        # states mu.size .. upto-1; a group mean adds its bins in order, as
        # the move loop's reduce(add) does
        moves = np.arange(self.mu.size - 1, upto - 1)
        d = np.zeros((self.sizes.size, moves.size), dtype=np.int64)
        d[self.bins[moves], np.arange(moves.size)] = self.deltas[moves]
        k = np.cumsum(d, axis=1)
        k += self.k_end[:, None]
        self.k_end = k[:, -1]
        self.mu = np.concatenate((self.mu, reduce(add, k / self.sizes[:, None]) / self.sizes.size))


def slope_decrease(cell_scores, r_hat: float) -> float:
    """Width saved per record by covering exactly one fewer record.

    The gap between the largest covered score and the next order
    statistic below it, divided by the cell size. Tied scores make the
    change free (slope zero). Raises when the cell covers no record, or
    only one: dropping the last covered sample has no order statistic to
    land on and is never performed.
    """
    cell = np.sort(np.asarray(cell_scores, dtype=np.float64))
    if cell.size == 0:
        raise ValidationError("cell has no scores")
    k = _covered_count(cell, float(r_hat))
    if k == 0:
        raise ValidationError("cell covers no records at the current threshold; cannot decrease")
    if k == 1:
        raise ValidationError("cell covers a single record; no lower order statistic to move to")
    return _dec_slope(cell, k)


def slope_increase(cell_scores, r_hat: float) -> float:
    """Width paid per record by covering exactly one more record.

    The gap between the smallest uncovered score and the largest covered
    one (or the current threshold when nothing is covered), divided by
    the cell size and floored at zero. Raises when the cell is fully
    covered already.
    """
    cell = np.sort(np.asarray(cell_scores, dtype=np.float64))
    if cell.size == 0:
        raise ValidationError("cell has no scores")
    k = _covered_count(cell, float(r_hat))
    if k == cell.size:
        raise ValidationError("cell covers every record already; cannot increase")
    return _inc_slope(cell, k, float(r_hat))


def eoc_optimize(
    cal: Dataset,
    model: QuantileModel | None,
    table0: ThresholdTable,
    state0: CoverageState,
    alpha: float,
    max_iters: int | None = None,
) -> tuple[ThresholdTable, OptimizerTrace]:
    """Equalize per-group coverage by single-sample threshold moves.

    While some group sits above its parking window and another below the
    target, each iteration pairs them: it drops one covered sample from
    the donor bin with the largest decrease slope and covers one more
    sample in the recipient bin with the smallest increase slope. A
    paired exchange never lowers the pooled covered count, so validity
    is never spent. Once every group is on the same side, the loop
    switches to one-sided moves: lone drops from the most over-covered
    group, taken only while the pooled covered count stays at or above
    its floor of ``ceil(n * (1 - alpha))``, or lone additions to the
    most under-covered group, which only add coverage. A drop uncovers
    one sample; an add covers one, or several when the newly covered
    score ties the next ones. A donor whose best decrease slope is 0.0
    is tie-locked: its drop cannot move, so an exchange from it records
    slope 0.0 and the donor's mean unchanged, and only the add moves.

    Terminates ``converged`` when every group parks inside the one-sided
    window ``[1 - alpha, 1 - alpha + stop]`` with ``stop`` one move
    quantum (one sample of the group's smallest cell, averaged over
    bins), which keeps it inside the documented tolerance band;
    ``slope_crossover`` when no realizable move remains (donor with
    nothing left to give, recipient already fully covered, a lone drop
    blocked by the covered-count floor, or tie-locked thresholds);
    ``max_iters`` at the iteration cap, returning the table reached so
    far, also when the cap cuts the width cleanup short while a pass still
    has a move to make (a cleanup that ends on its own exactly at the cap
    is ``converged``). Slopes are recorded per iteration so the width
    economics of every move stay observable in the trace.

    Before iterating, every threshold is re-expressed on the covering
    order statistic of its cell, which releases pure slack as width
    without touching coverage. Every phase then takes the moves two
    slope tables pick: the width saved by dropping each cell's top
    covered sample (``-inf`` where fewer than two are covered) and the
    width paid by covering its next one (``+inf`` where the cell is
    full), refreshed only for the cells a move changes. Ties go to the
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
    drop that moves covers exactly one sample fewer, and an add exactly
    one more unless the newly covered score ties the next one; only then
    is the covered count searched again.

    Paired exchanges are taken in runs. A group's moves depend only on
    its own cells, so a run builds each donor's greedy drops (and each
    recipient's adds) as a stream: each cell's order-statistic spacings,
    read from the covering one outwards, stably sorted by their running
    minimum (maximum for adds), which is the order a first-of-equal pick
    over the slope table takes them in. A cumsum of the stream's covered
    counts gives the group mean after each of its moves. Within a run
    donor means only fall and recipient means only rise, so the donor
    picks are the donors' before-move means sorted descending and the
    recipient picks the recipients' sorted ascending, ties to the lower
    group, then the earlier move; the run's records are built from those
    arrays. The run then applies its moves to the state and drops its
    streams. No run starts while the top donor has no positive decrease
    slope.

    Single moves keep Python scalars in group-major lists (entry
    ``[s][m]`` is cell ``(m, s)``): covered counts, thresholds, coverage
    rates, the two slope tables, the group means and the pooled covered
    count. They take the steps a run cannot: lone drops and adds, an
    exhausted or tie-locked donor, and the cleanup; a run also ends
    after an add that carries its group past its window, as the group
    may donate next. A group's best cell is ``col.index(max(col))`` (or
    ``min``), the first of equal candidates, as ``argmax`` picks it. A
    single move recomputes only its groups' means, as
    ``reduce(add, rates) / M``; a stream adds the same bins in the same
    order, row by row over its rates. The means decide tie breaks and go
    into the trace, so the summation order is part of the output: never
    the builtin ``sum``, which compensates from Python 3.12 on. The
    cleanup builds its ``(M, S)`` and ``(MS, MS)`` arrays from the lists
    on each move.

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
    target = 1.0 - alpha
    s_groups = table0.group_count
    m_bins = table0.partition.m
    init_means = tuple(float(v) for v in state0.per_group_mean)
    if s_groups == 1:
        return table0, OptimizerTrace(init_means, (), CONVERGED)

    cell_scores = CellScores.measure(cal, model, table0.partition, alpha)
    counts = cell_scores.counts
    groups = range(s_groups)
    cells = list(zip(*cell_scores.cells))
    del cell_scores  # its (n,) scores and bins would outlive their use by the whole run
    sizes = counts.T.tolist()
    thr = np.asarray(table0.r_hat, dtype=np.float64).T.tolist()
    k = [[0] * m_bins for _ in groups]
    rate = [[0.0] * m_bins for _ in groups]  # k / count
    dec = [[0.0] * m_bins for _ in groups]  # the slope tables
    inc = [[0.0] * m_bins for _ in groups]

    def refresh(s: int, m: int) -> None:
        cell, km, size = cells[s][m], k[s][m], sizes[s][m]
        rate[s][m] = km / size
        dec[s][m] = _dec_slope(cell, km) if km >= 2 else -math.inf
        inc[s][m] = _inc_slope(cell, km, thr[s][m]) if km < size else math.inf

    # Re-express thresholds on the covering order statistic of each cell.
    # Coverage is unchanged, pure threshold slack is released as width,
    # and every later move lands exactly on an adjacent order statistic.
    # Cells covering nothing keep their seed threshold below the minimum.
    for s in groups:
        for m in range(m_bins):
            k[s][m] = _covered_count(cells[s][m], thr[s][m])
            if k[s][m] >= 1:
                thr[s][m] = cells[s][m].item(k[s][m] - 1)
            refresh(s, m)
    covered = sum(map(sum, k))  # ints, so any order is exact

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
    k_floor = math.ceil(cal.n * target - 1e-9)
    level = target
    stop = band / m_bins
    cell_weight = 1.0 / (m_bins * s_groups)
    quantum = cell_weight * s_groups / counts  # group-mean change of a one-sample move

    def group_mean(s: int) -> float:
        # bins added in order: the bits of np.add.reduce(rates, axis=0) / M
        return reduce(add, rate[s]) / m_bins

    def shift(s: int, m: int, offset: int) -> bool:
        # Move cell (m, s) to the order statistic ``offset`` places from
        # its covering one: -1 drops one covered sample, +1 covers one
        # more. False when tied scores leave the threshold where it was.
        # A drop that moves lands on exactly k - 1, an add on k + 1 unless
        # the newly covered score ties the next one.
        nonlocal covered
        cell, km = cells[s][m], k[s][m] + offset
        new_thr = cell.item(km - 1)
        if new_thr == thr[s][m]:
            return False
        if offset > 0 and km < sizes[s][m] and cell.item(km) == new_thr:
            km = _covered_count(cell, new_thr)
        covered += km - k[s][m]
        thr[s][m] = new_thr
        k[s][m] = km
        refresh(s, m)
        return True

    def run(over: list[int], under: list[int], s1: int, s2: int) -> int:
        # Takes the paired exchanges ahead, from donor s1 and recipient s2
        # on, as one run and returns how many. Donors only fall and
        # recipients only rise, so the picks are the donors' before-move
        # means sorted descending and the recipients' sorted ascending,
        # ties to the lower group, then the earlier move. A run stops
        # before a donor with no move left and after an add that carries
        # its group past its window; a recipient fills up only at mean 1,
        # above its window. The run's streams are built from the state it
        # starts on and dropped at its end.
        nonlocal covered
        if max(dec[s1]) <= 0.0:
            return 0  # the donor's drop stream is empty
        budget = max_iters - len(iterations)
        streams, ends, sides = {}, np.zeros(s_groups, dtype=np.int64), []
        for groups_, sign in ((over, -1), (under, 1)):
            mus, gs, ts = [], [], []
            for s in groups_:
                st = streams[s] = _MoveStream(cells[s], sizes[s], k[s], thr[s], sign < 0)
                if sign < 0:
                    n = st.span(lambda v: v - level > slack[s], budget)
                else:
                    n = st.span(lambda v: v < floor, budget)
                mus.append(st.mu[:n])
                gs.append(np.full(n, s))
                ts.append(np.arange(n))
                ends[s] = st.size
            mus, gs, ts = map(np.concatenate, (mus, gs, ts))
            order = np.lexsort((ts, gs, sign * mus))[:budget]
            sides.append((gs[order], ts[order]))
        (g1, t1), (g2, t2) = sides
        n = min(g1.size, g2.size)
        stall = np.flatnonzero(t1[:n] == ends[g1[:n]])
        if stall.size:
            n = int(stall[0])
        g1, t1, g2, t2 = g1[:n], t1[:n], g2[:n], t2[:n]
        m1, m2 = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
        d_slopes, i_slopes = np.empty(n), np.empty(n)
        rise = np.empty(n)  # the mover's mean after each move; recipients' last
        for g, t, bins, slopes in ((g1, t1, m1, d_slopes), (g2, t2, m2, i_slopes)):
            for s in set(g.tolist()):
                st, mine = streams[s], g == s
                bins[mine] = st.bins[t[mine]]
                slopes[mine] = st.slopes[t[mine]]
                rise[mine] = st.mu[t[mine] + 1]
        # Stop after an add that carries its group past its window. A drop
        # cannot carry its donor under the target: the window is at least
        # one move wide.
        crossed = np.flatnonzero(rise - level > np.asarray(slack)[g2])
        if crossed.size:
            n = int(crossed[0]) + 1
        # a waiting group's mean stays one float object, as in record()
        cols = [[mu[s]] * n for s in groups]
        for g in (g1[:n], g2[:n]):
            for s in set(g.tolist()):
                st, moved = streams[s], np.cumsum(g == s)
                b = int(moved[-1])
                states = st.mu[: b + 1].tolist()
                cols[s] = list(map(states.__getitem__, moved.tolist()))
                changed = st.bins[:b].tolist()
                for m, km, t in zip(changed, st.ks[:b].tolist(), st.thrs[:b].tolist()):
                    k[s][m], thr[s][m] = km, t
                for m in set(changed):
                    refresh(s, m)
                covered += int(st.deltas[:b].sum())
                mu[s] = states[-1]
        first = len(iterations) + 1
        iterations.extend(
            map(
                IterationRecord,
                range(first, first + n),
                g1[:n].tolist(),
                g2[:n].tolist(),
                (m1[:n] + 1).tolist(),
                (m2[:n] + 1).tolist(),
                d_slopes[:n].tolist(),
                i_slopes[:n].tolist(),
                zip(*cols),
            )
        )
        return n

    iterations: list[IterationRecord] = []
    mu = [group_mean(s) for s in groups]

    def record(s1, s2, m1, m2, d_slope, i_slope) -> None:
        # refreshes the moved groups' means, which the next move starts from
        for s in (s1, s2):
            if s >= 0:
                mu[s] = group_mean(s)
        iterations.append(
            IterationRecord(
                step=len(iterations) + 1,
                donor_group=s1,
                recipient_group=s2,
                donor_bin=m1 + 1 if s1 >= 0 else 0,
                recipient_bin=m2 + 1 if s2 >= 0 else 0,
                slope_decrease=d_slope,
                slope_increase=i_slope,
                per_group_mean=tuple(mu),
            )
        )

    # max and min keep the first of equal candidates, so ties go to the
    # lowest group, and list.index to the lowest bin.
    slack = (stop + eps).tolist()
    floor = level - eps
    reason: str | None = None
    while len(iterations) < max_iters:
        over = [s for s in groups if mu[s] - level > slack[s]]
        under = [s for s in groups if mu[s] < floor]
        if not over and not under:
            reason = CONVERGED
            break
        if over and under:
            s1 = max(over, key=mu.__getitem__)
            s2 = min(under, key=mu.__getitem__)
            if run(over, under, s1, s2):
                continue
        elif over:
            s1, s2 = max(groups, key=mu.__getitem__), -1  # every group at or above level
        else:
            s1, s2 = -1, min(groups, key=mu.__getitem__)  # every group at or below window

        m1 = m2 = -1
        d_slope = i_slope = math.nan
        if s1 >= 0:
            d_slope = max(dec[s1])
            if d_slope == -math.inf:
                reason = SLOPE_CROSSOVER  # donor has nothing left to give
                break
            m1 = dec[s1].index(d_slope)
        if s2 >= 0:
            i_slope = min(inc[s2])
            if i_slope == math.inf:
                reason = SLOPE_CROSSOVER  # recipient is fully covered everywhere
                break
            m2 = inc[s2].index(i_slope)
        if s1 >= 0 and s2 < 0 and covered - 1 < k_floor:
            # a lone drop spends pooled coverage; keep the covered count
            # at or above the overall floor
            reason = SLOPE_CROSSOVER
            break

        moved = s1 >= 0 and shift(s1, m1, -1)
        moved = (s2 >= 0 and shift(s2, m2, 1)) or moved
        if not moved:
            reason = SLOPE_CROSSOVER  # tie-locked, no realizable move
            break
        record(s1, s2, m1, m2, d_slope, i_slope)
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

            while covered > k_floor:
                gain = np.where(np.array(mu) - quantum >= level - eps, np.array(dec).T, -np.inf)
                m1, s1 = divmod(int(np.argmax(gain)), s_groups)
                if gain[m1, s1] <= 0.0:
                    break  # a zero slope is a tie, which a drop cannot move
                if len(iterations) == max_iters:
                    reason = MAX_ITERS
                    break
                d_slope = dec[s1][m1]
                shift(s1, m1, -1)
                progress = True
                record(s1, -1, m1, 0, d_slope, math.nan)

            while reason == CONVERGED:
                # rows: the donor cell, columns: the recipient cell
                mu1 = (np.array(mu) - quantum).ravel()[:, None]
                mu2 = (np.array(mu) + quantum).ravel()[None, :]
                post = mu1 + quantum.ravel()[None, :]
                ok = np.where(
                    same_group,
                    (level - eps <= post) & (post <= ceiling[:, None]),
                    (mu1 >= level - eps) & (mu2 <= ceiling[None, :]),
                )
                spread = np.array(dec).T.ravel()[:, None] - np.array(inc).T.ravel()[None, :]
                gain = np.where(ok, spread, -np.inf)
                np.fill_diagonal(gain, -np.inf)
                a, b = divmod(int(np.argmax(gain)), m_bins * s_groups)
                if gain[a, b] <= 0.0:
                    break
                if len(iterations) == max_iters:
                    reason = MAX_ITERS
                    break
                (m1, s1), (m2, s2) = divmod(a, s_groups), divmod(b, s_groups)
                d_slope, i_slope = dec[s1][m1], inc[s2][m2]
                shift(s1, m1, -1)
                shift(s2, m2, 1)
                progress = True
                record(s1, s2, m1, m2, d_slope, i_slope)

    table = ThresholdTable(
        r_hat=np.array(thr).T,
        global_r_hat=table0.global_r_hat,
        alpha=alpha,
        partition=table0.partition,
        group_count=s_groups,
    )
    return table, OptimizerTrace(init_means, tuple(iterations), reason)

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
    return eoc_optimize(cal, model, table0, state0, alpha, max_iters=max_iters)


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
    n_total = cal.n
    target = 1.0 - alpha
    k_floor = min(n_total, math.ceil(n_total * target - 1e-9))

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
        group_ok.append(beta_mean >= target - 1e-12)

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
