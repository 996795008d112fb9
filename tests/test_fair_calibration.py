"""Threshold tables, the coverage equalizer, and the exhaustive oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from faircov import (
    Dataset,
    EmptyCellError,
    QuantileModel,
    ThresholdTable,
    ValidationError,
    brute_force_oracle,
    calibration_objective,
    cqr_calibrate,
    cqr_calibrate_groupwise,
    cqr_score,
    equal_mass_bins,
    evaluate,
    fair_calibrate,
    init_thresholds,
    measure_coverage,
    predict_interval,
    slope_decrease,
    slope_increase,
)
from faircov.fair_calibration import (
    CONVERGED,
    MAX_ITERS,
    SLOPE_CROSSOVER,
    CellScores,
    CoverageState,
    IterationRecord,
    OptimizerTrace,
    _covered_count,
    _dec_slope,
    _inc_slope,
    _lay_out,
    _MoveStream,
    eoc_optimize,
)

from conftest import make_dataset, six_record_fixture, synthetic_with_band  # noqa: F401


def point_band_dataset(scores_by_group, alpha_center=5.0, domain=(0.0, 10.0)):
    """Records with y at the center and point bands at center - score.

    The conformity score of each record is then exactly the requested
    value, which makes cell score sets fully scriptable.
    """
    y, group, q = [], [], []
    for s, scores in enumerate(scores_by_group):
        for v in scores:
            y.append(alpha_center)
            group.append(s)
            q.append(alpha_center - v)
    return make_dataset(y, group, q_lo=q, q_hi=q, domain=domain)


class TestInitThresholds:
    def test_seeds_global_shift_everywhere(self, six_record_fixture):
        data = six_record_fixture
        part = equal_mass_bins(data.y, 2, data.label_domain)
        table, state = init_thresholds(data, None, part, 0.1)
        global_r = cqr_calibrate(data, None, 0.1).r_hat
        assert global_r == 1.0
        np.testing.assert_array_equal(table.r_hat, np.full((2, 2), 1.0))
        assert table.global_r_hat == global_r
        np.testing.assert_array_equal(state.beta, np.ones((2, 2)))

    def test_partition_recorded(self, six_record_fixture):
        data = six_record_fixture
        part = equal_mass_bins(data.y, 2, data.label_domain)
        assert part.bounds == (0.0, 5.0, 10.0)
        assert part.counts == (3, 3)
        table, _ = init_thresholds(data, None, part, 0.1)
        assert table.partition == part


class TestMeasureCoverage:
    def table(self, data, r, alpha=0.1, m=2):
        part = equal_mass_bins(data.y, m, data.label_domain)
        return ThresholdTable(
            r_hat=np.full((part.m, data.group_count), float(r)),
            global_r_hat=float(r),
            alpha=alpha,
            partition=part,
            group_count=data.group_count,
        )

    def test_hand_checked_cells(self, six_record_fixture):
        data = six_record_fixture
        state = measure_coverage(data, None, self.table(data, -0.5))
        np.testing.assert_array_equal(state.beta, [[0.5, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(state.per_group_mean, [0.75, 0.5])
        np.testing.assert_array_equal(state.cell_counts, [[2, 1], [1, 2]])

    def test_huge_threshold_covers_all(self, six_record_fixture):
        state = measure_coverage(six_record_fixture, None, self.table(six_record_fixture, 100.0))
        np.testing.assert_array_equal(state.beta, np.ones((2, 2)))

    def test_below_min_threshold_covers_none(self, six_record_fixture):
        state = measure_coverage(six_record_fixture, None, self.table(six_record_fixture, -100.0))
        np.testing.assert_array_equal(state.beta, np.zeros((2, 2)))

    def test_matches_interval_membership(self, six_record_fixture):
        # cell coverage recounted through the actual interval objects
        data = six_record_fixture
        table = self.table(data, -0.5)
        state = measure_coverage(data, None, table)
        covered = [
            predict_interval(float(data.q_lo[i]), float(data.q_hi[i]), int(data.group[i]), table).contains(float(data.y[i]))
            for i in range(data.n)
        ]
        assert covered == [True, False, True, True, False, False]
        total = state.beta * state.cell_counts
        assert int(total.sum()) == sum(covered)


class TestSingleScoringPass:
    @pytest.fixture
    def score_calls(self, monkeypatch):
        """Count calls through both bindings of ``conformity_scores``."""
        from faircov import conformal, fair_calibration

        calls = []
        original = conformal.conformity_scores

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(conformal, "conformity_scores", counting)
        monkeypatch.setattr(fair_calibration, "conformity_scores", counting)
        return calls

    def test_fair_calibrate_scores_once_per_stage(self, score_calls):
        # the global seed shift, the seed state and the optimizer
        data, _ = synthetic_with_band(400, (1.0, 3.0), seed=5)
        fair_calibrate(data, None, 4, 0.1)
        assert len(score_calls) == 3

    def test_oracle_scores_once(self, score_calls):
        data = point_band_dataset([(1.0, 2.0, 3.0, 4.0), (0.5, 1.0, 1.5, 2.0)])
        brute_force_oracle(data, None, equal_mass_bins(data.y, 1, data.label_domain), 0.5)
        assert len(score_calls) == 1

    def test_state_keeps_its_cell_scores(self, six_record_fixture):
        data = six_record_fixture
        part = equal_mass_bins(data.y, 2, data.label_domain)
        _, state = init_thresholds(data, None, part, 0.1)
        assert state.cells.partition == part
        np.testing.assert_array_equal(state.cells.scores, cqr_score(data.q_lo, data.q_hi, data.y))
        np.testing.assert_array_equal(state.cell_counts, [[2, 1], [1, 2]])
        np.testing.assert_array_equal(state.cells.cells[0][0], [-0.5, 1.0])
        np.testing.assert_array_equal(state.cells.cells[1][1], [0.5, 1.0])

    def test_state_from_another_dataset_rejected(self):
        data, _ = synthetic_with_band(200, (1.0, 3.0), seed=5)
        other = data.subset(np.arange(150))
        part = equal_mass_bins(data.y, 2, data.label_domain)
        table0, _ = init_thresholds(data, None, part, 0.1)
        _, stale = init_thresholds(other, None, part, 0.1)
        with pytest.raises(ValidationError, match="state0"):
            eoc_optimize(data, None, table0, stale)

    def test_state_from_another_partition_rejected(self):
        data, _ = synthetic_with_band(200, (1.0, 3.0), seed=5)
        table0, _ = init_thresholds(data, None, equal_mass_bins(data.y, 2, data.label_domain), 0.1)
        _, stale = init_thresholds(data, None, equal_mass_bins(data.y, 3, data.label_domain), 0.1)
        with pytest.raises(ValidationError, match="state0"):
            eoc_optimize(data, None, table0, stale)


class TestSlopes:
    def test_decrease_example(self):
        assert slope_decrease([1.0, 2.0, 5.0], 5.0) == 1.0
        assert slope_decrease([1.0, 2.0, 5.0], 2.0) == pytest.approx(1.0 / 3.0)

    def test_increase_example(self):
        assert slope_increase([1.0, 2.0, 5.0], 2.0) == 1.0
        assert slope_increase([1.0, 2.0, 5.0], 0.0) == pytest.approx(1.0 / 3.0)

    def test_tied_scores_drop_free(self):
        assert slope_decrease([2.0, 2.0, 3.0], 2.0) == 0.0

    def test_increase_base_is_covered_order_statistic(self):
        # with one record covered the base is its score, not the threshold
        assert slope_increase([1.0, 2.0], 1.5) == pytest.approx(0.5)
        # with nothing covered the base is the threshold itself
        assert slope_increase([1.0, 2.0], 0.5) == pytest.approx(0.25)

    def test_boundary_errors(self):
        with pytest.raises(ValidationError, match="no records"):
            slope_decrease([1.0, 2.0], 0.0)
        with pytest.raises(ValidationError, match="single record"):
            slope_decrease([1.0, 2.0], 1.0)
        with pytest.raises(ValidationError, match="every record"):
            slope_increase([1.0, 2.0], 2.0)
        with pytest.raises(ValidationError, match="no scores"):
            slope_decrease([], 0.0)


class TestFixedPoint:
    def data(self):
        return point_band_dataset([(0.0, 1.0, 2.0, 3.0, 4.0), (0.5, 1.5, 3.0, 3.5)])

    def test_parked_groups_do_not_move(self):
        # pooled shift 3.0 is an order statistic of both cells and both
        # group means (0.8, 0.75) already sit inside their windows, so
        # the optimizer must return the seed table bit for bit
        table, trace = fair_calibrate(self.data(), None, 1, 0.3)
        np.testing.assert_array_equal(table.r_hat, [[3.0, 3.0]])
        assert table.global_r_hat == 3.0
        assert trace.termination_reason == CONVERGED
        assert trace.iterations == ()
        assert trace.initial_per_group_mean == (0.8, 0.75)
        assert trace.gaps() == [pytest.approx(0.05)]

    def test_oracle_agrees(self):
        data = self.data()
        part = equal_mass_bins(data.y, 1, data.label_domain)
        oracle = brute_force_oracle(data, None, part, 0.3)
        np.testing.assert_array_equal(oracle.r_hat, [[3.0, 3.0]])


class TestEightRecordInstance:
    def data(self):
        return point_band_dataset([(1.0, 2.0, 3.0, 4.0), (0.5, 1.0, 1.5, 2.0)])

    def test_equalizer_reaches_oracle_table(self):
        table, trace = fair_calibrate(self.data(), None, 1, 0.5)
        np.testing.assert_array_equal(table.r_hat, [[2.0, 1.0]])
        assert trace.termination_reason == CONVERGED
        # one lone drop to leave the window, one trim to the count floor
        assert len(trace.iterations) == 2
        assert trace.iterations[0].donor_group == 1
        assert trace.iterations[0].recipient_group == -1
        assert math.isnan(trace.iterations[0].slope_increase)

    def test_oracle_thresholds_and_objective(self):
        data = self.data()
        part = equal_mass_bins(data.y, 1, data.label_domain)
        oracle = brute_force_oracle(data, None, part, 0.5)
        np.testing.assert_array_equal(oracle.r_hat, [[2.0, 1.0]])
        assert calibration_objective(data, None, oracle) == 2.875

    def test_objectives_match(self):
        data = self.data()
        table, _ = fair_calibrate(data, None, 1, 0.5)
        assert calibration_objective(data, None, table) == 2.875

    def test_iteration_cap_reports_partial_table(self):
        table, trace = fair_calibrate(self.data(), None, 1, 0.5, max_iters=1)
        assert trace.termination_reason == MAX_ITERS
        assert len(trace.iterations) == 1
        np.testing.assert_array_equal(table.r_hat, [[2.0, 1.5]])

    def test_max_iters_validated(self):
        with pytest.raises(ValidationError, match="max_iters"):
            fair_calibrate(self.data(), None, 1, 0.5, max_iters=0)


class TestCollapseIdentities:
    def test_single_group_is_returned_unchanged(self):
        data, _ = synthetic_with_band(80, (1.5,), seed=4)
        part = equal_mass_bins(data.y, 3, data.label_domain)
        table0, state0 = init_thresholds(data, None, part, 0.1)
        table, trace = eoc_optimize(data, None, table0, state0)
        assert table is table0
        assert trace.termination_reason == CONVERGED
        assert trace.iterations == ()

    def test_single_group_matches_global_cqr(self):
        data, _ = synthetic_with_band(80, (1.5,), seed=4)
        table, _ = fair_calibrate(data, None, 3, 0.1)
        global_r = cqr_calibrate(data, None, 0.1).r_hat
        np.testing.assert_array_equal(table.r_hat, np.full((3, 1), global_r))
        # the banded union equals the plain calibrated band on every record
        lo, hi = data.label_domain
        for i in range(data.n):
            iv = predict_interval(float(data.q_lo[i]), float(data.q_hi[i]), 0, table)
            a = max(float(data.q_lo[i]) - global_r, lo)
            b = min(float(data.q_hi[i]) + global_r, hi)
            assert iv.components == ((a, b),)

    def test_single_bin_single_group_is_empirical_quantile(self):
        data, _ = synthetic_with_band(80, (1.5,), seed=5)
        table, _ = fair_calibrate(data, None, 1, 0.1)
        assert table.r_hat[0, 0] == cqr_calibrate(data, None, 0.1).r_hat


class TestGroupwiseBaseline:
    def test_per_group_quantiles(self, six_record_fixture):
        table = cqr_calibrate_groupwise(six_record_fixture, None, 0.5)
        np.testing.assert_array_equal(table.r_hat, [[-0.5, 0.5]])
        assert table.global_r_hat == 0.5
        assert table.partition.bounds == (0.0, 10.0)
        assert table.partition.counts == (6,)

    def test_missing_group_rejected(self):
        data = make_dataset([1.0, 2.0], [0, 0], q_lo=[1.0, 2.0], q_hi=[1.0, 2.0], group_count=2)
        with pytest.raises(EmptyCellError) as exc:
            cqr_calibrate_groupwise(data, None, 0.5)
        assert exc.value.group == 1


def out_of_sample_bin_means(calibrate):
    """Per-seed test bin-means, (seeds, groups): 100 seeds, 3k calibration and 3k test records.

    ``calibrate(cal, m_bins)`` returns the calibrator; M is 4 on even
    seeds and 8 on odd ones.
    """
    rows = []
    for seed in range(100):
        data, _ = synthetic_with_band(6000, (1.0, 3.0, 5.0), seed)
        cal, test = data.subset(np.arange(3000)), data.subset(np.arange(3000, 6000))
        report = evaluate(test, None, calibrate(cal, 4 if seed % 2 == 0 else 8))
        rows.append(report.per_group_bin_mean)
    return np.asarray(rows)


def assert_valid_in_expectation(bin_means, alpha=0.1):
    """Each group's mean test bin-mean is at least 1 - alpha - 3 standard errors."""
    mean = bin_means.mean(axis=0)
    se = bin_means.std(axis=0, ddof=1) / math.sqrt(bin_means.shape[0])
    assert np.all(mean >= 1.0 - alpha - 3.0 * se), (mean, se)


class TestOutOfSampleValidity:
    def test_groupwise_cqr(self):
        assert_valid_in_expectation(
            out_of_sample_bin_means(lambda cal, m: cqr_calibrate_groupwise(cal, None, 0.1))
        )

    @pytest.mark.xfail(
        strict=True,
        reason="fuq meets its floors on the calibration set only, counting k/n, not k/(n + 1)",
    )
    def test_fuq(self):
        assert_valid_in_expectation(
            out_of_sample_bin_means(lambda cal, m: fair_calibrate(cal, None, m, 0.1)[0])
        )


class TestEmptyCells:
    def test_empty_cell_identified(self):
        data = make_dataset(
            [1.0, 2.0, 3.0, 4.0],
            [0, 0, 0, 1],
            q_lo=[1.0, 2.0, 3.0, 4.0],
            q_hi=[1.0, 2.0, 3.0, 4.0],
        )
        with pytest.raises(EmptyCellError) as exc:
            fair_calibrate(data, None, 2, 0.5)
        assert exc.value.bin_number == 1
        assert exc.value.group == 1


class TestOraclePreconditions:
    def test_cell_budget(self):
        data, _ = synthetic_with_band(60, (1.0, 2.0), seed=6)
        part = equal_mass_bins(data.y, 3, data.label_domain)
        with pytest.raises(ValidationError, match="4 cells"):
            brute_force_oracle(data, None, part, 0.1)

    def test_candidate_budget(self):
        y = np.concatenate([np.linspace(1.0, 4.0, 76), np.linspace(6.0, 9.0, 76)])
        group = np.tile([0, 1], 76)
        data = make_dataset(y, group, q_lo=y, q_hi=y)
        part = equal_mass_bins(data.y, 2, data.label_domain)
        with pytest.raises(ValidationError, match="two million"):
            brute_force_oracle(data, None, part, 0.1)


class TestOptimizerAgainstOracle:
    def test_never_beats_oracle_and_keeps_floors(self):
        ran = 0
        for i in range(8):
            n = 26 + 2 * i
            m = 1 + i % 2
            alpha = 0.25
            data, _ = synthetic_with_band(n, (1.0, 2.0), seed=40 + i, half_width=1.0)
            if np.bincount(data.group, minlength=2).min() < 2 * m:
                continue
            part = equal_mass_bins(data.y, m, data.label_domain)
            try:
                oracle = brute_force_oracle(data, None, part, alpha)
            except ValidationError:
                continue
            table, trace = fair_calibrate(data, None, m, alpha)
            eoc_obj = calibration_objective(data, None, table)
            oracle_obj = calibration_objective(data, None, oracle)
            assert oracle_obj <= eoc_obj + 1e-9
            state = measure_coverage(data, None, table)
            assert np.all(state.per_group_mean >= (1.0 - alpha) - 1e-9)
            covered = float((state.beta * state.cell_counts).sum())
            assert covered >= math.ceil(data.n * (1.0 - alpha) - 1e-9) - 1e-9
            ran += 1
        assert ran >= 4


class TestTraceInvariants:
    def run(self, seed, m=3, alpha=0.1):
        data, _ = synthetic_with_band(300, (1.0, 2.0), seed=seed)
        table, trace = fair_calibrate(data, None, m, alpha)
        state = measure_coverage(data, None, table)
        return data, table, trace, state

    def test_moves_shift_means_the_right_way(self):
        for seed in (21, 22, 23):
            _, _, trace, _ = self.run(seed)
            means = [trace.initial_per_group_mean] + [
                it.per_group_mean for it in trace.iterations
            ]
            for prev, it in zip(means, trace.iterations):
                if it.donor_group == it.recipient_group:
                    continue  # same-group rebalance can shift its mean either way
                if it.donor_group >= 0:
                    assert it.per_group_mean[it.donor_group] <= prev[it.donor_group] + 1e-12
                if it.recipient_group >= 0:
                    assert it.per_group_mean[it.recipient_group] >= prev[it.recipient_group] - 1e-12

    def test_gap_moves_by_at_most_one_quantum(self):
        for seed in (21, 22, 23):
            data, table, trace, state = self.run(seed)
            counts = state.cell_counts
            stop_max = float((1.0 / counts.min(axis=0)).max()) / table.partition.m
            gaps = trace.gaps()
            for a, b in zip(gaps, gaps[1:]):
                assert b <= a + 2.0 * stop_max + 1e-12

    def test_converged_run_parks_every_group(self):
        for seed in (21, 22, 23):
            data, table, trace, state = self.run(seed)
            assert trace.termination_reason == CONVERGED
            target = 1.0 - table.alpha
            stop = (1.0 / state.cell_counts.min(axis=0)) / table.partition.m
            assert np.all(state.per_group_mean >= target - 1e-12)
            assert np.all(state.per_group_mean <= target + stop + 1e-9)
            covered = float((state.beta * state.cell_counts).sum())
            assert covered >= math.ceil(data.n * target - 1e-9) - 1e-9


class TestThresholdTable:
    def test_payload_round_trip(self):
        data = point_band_dataset([(1.0, 2.0, 3.0, 4.0), (0.5, 1.0, 1.5, 2.0)])
        table, _ = fair_calibrate(data, None, 1, 0.5)
        back = ThresholdTable.from_payload(table.to_payload())
        np.testing.assert_array_equal(back.r_hat, table.r_hat)
        assert back.global_r_hat == table.global_r_hat
        assert back.alpha == table.alpha
        assert back.partition == table.partition
        assert back.group_count == table.group_count

    def test_shape_validated(self):
        part = equal_mass_bins(np.arange(1.0, 9.0), 2, (0.0, 10.0))
        with pytest.raises(ValidationError, match="shape"):
            ThresholdTable(
                r_hat=np.zeros((3, 2)),
                global_r_hat=0.0,
                alpha=0.1,
                partition=part,
                group_count=2,
            )

    def test_non_finite_rejected(self):
        part = equal_mass_bins(np.arange(1.0, 9.0), 2, (0.0, 10.0))
        with pytest.raises(ValidationError, match="finite"):
            ThresholdTable(
                r_hat=np.full((2, 2), np.nan),
                global_r_hat=0.0,
                alpha=0.1,
                partition=part,
                group_count=2,
            )


def calibration_set(seed, s_groups, n, ties=False):
    """``n`` point-band records with distinct labels and groups dealt in label order.

    Dealing groups round-robin along the sorted labels puts at least
    ``n // (M * S)`` records of every group in each of M equal-mass bins.
    Score scales differ by group, so the seed table over-covers some
    groups and under-covers others. ``ties=True`` rounds the scores to
    integers, and a number rounds them to its multiples: a fine step ties
    some scores without tie-locking most cells, as integers do once cells
    hold dozens of records.
    """
    rng = np.random.default_rng(seed)
    y = np.sort(rng.uniform(0.0, 10.0, n))
    group = np.arange(n) % s_groups
    score = rng.uniform(0.3, 3.0, s_groups)[group] * np.abs(rng.standard_normal(n))
    if ties is True:
        score = np.round(score)
    elif ties:
        score = np.round(score / ties) * ties
    q = y - score
    return make_dataset(y, group, q_lo=q, q_hi=q, domain=(-20.0, 10.0), group_count=s_groups)


TRACE_COLUMNS = (
    "donor_group",
    "recipient_group",
    "donor_bin",
    "recipient_bin",
    "slope_decrease",
    "slope_increase",
    "per_group_mean",
)


def assert_same_trace(trace, want):
    """Equal traces: every column's dtype, shape and bytes, and the record view.

    Not ``repr(trace)``: numpy summarizes arrays past 1,000 elements.
    """
    assert trace.initial_per_group_mean == want.initial_per_group_mean
    assert trace.termination_reason == want.termination_reason
    for name in TRACE_COLUMNS:
        got, expected = getattr(trace, name), getattr(want, name)
        assert (got.dtype, got.shape) == (expected.dtype, expected.shape), name
        assert got.tobytes() == expected.tobytes(), name
    assert repr(trace.iterations) == repr(want.iterations)  # NaN slopes compare as text


def records_to_trace(init_means, records, reason):
    """The columnar trace holding ``records``, one row per record; its
    record view gives ``records`` back."""
    sides = [(it.donor_group, it.recipient_group, it.donor_bin, it.recipient_bin) for it in records]
    slopes = [(it.slope_decrease, it.slope_increase) for it in records]
    trace = OptimizerTrace(
        init_means,
        *np.array(sides, dtype=np.int64).reshape(-1, 4).T.copy(),
        *np.array(slopes, dtype=np.float64).reshape(-1, 2).T.copy(),
        np.array([it.per_group_mean for it in records], dtype=np.float64).reshape(-1, len(init_means)),
        reason,
    )
    assert repr(trace.iterations) == repr(tuple(records))
    return trace


def seeded(data, m_bins, alpha):
    return init_thresholds(data, None, equal_mass_bins(data.y, m_bins, data.label_domain), alpha)


def move_kinds(trace, state0, alpha):
    """Name the branch behind each move of ``trace``.

    The exchange loop stops at the first state in which every group is
    parked, so later moves are cleanup: trims drop alone, descents trade.
    """
    counts = state0.cell_counts
    stop = (1.0 / counts.min(axis=0)) / counts.shape[0]
    level, eps = 1.0 - alpha, 1e-12
    kinds, cleanup = [], False
    mu = np.asarray(trace.initial_per_group_mean)
    for it in trace.iterations:
        cleanup = cleanup or not (np.any(mu - level > stop + eps) or np.any(mu < level - eps))
        if it.donor_group < 0:
            kinds.append("lone_add")
        elif cleanup:
            kinds.append("trim" if it.recipient_group < 0 else "descent")
        else:
            kinds.append("lone_drop" if it.recipient_group < 0 else "exchange")
        mu = np.asarray(it.per_group_mean)
    return kinds


def multi_sample_adds(trace, counts):
    """Moves whose add covers a score tied with the next one, and so more
    than one sample: the recipient's mean rises by more than one sample."""
    m_bins = counts.shape[0]
    hits, before = 0, trace.initial_per_group_mean
    for it in trace.iterations:
        s2 = it.recipient_group
        if s2 >= 0 and it.donor_group != s2:
            one_sample = 1.0 / (m_bins * counts[it.recipient_bin - 1, s2])
            hits += it.per_group_mean[s2] - before[s2] > 1.5 * one_sample
        before = it.per_group_mean
    return hits


def window_crossings(trace, state0, alpha):
    """(step, group) of each move that lifts its recipient from below the
    target to above its window, as an add that covers tied scores can."""
    counts = state0.cell_counts
    stop = (1.0 / counts.min(axis=0)) / counts.shape[0]
    level, eps = 1.0 - alpha, 1e-12
    hits, before = [], trace.initial_per_group_mean
    for it in trace.iterations:
        s = it.recipient_group
        if s >= 0 and before[s] < level - eps and it.per_group_mean[s] - level > stop[s] + eps:
            hits.append((it.step, s))
        before = it.per_group_mean
    return hits


def tie_locked():
    # Group 0's six scores are tied, group 1's are 1..6. Group 0 cannot
    # give, so lone adds lift group 1 to the target; group 0 then sits
    # above its window alone, and its lone drop lands on a tied order
    # statistic, so nothing can move.
    return point_band_dataset([(1.0,) * 6, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)])


def locked_top_group():
    # All three groups cover everything, above their 0.9833 window top.
    # Group 0 is the first of the equal means and drops once; group 1's
    # covered scores tie at the top of each cell, so it cannot give, and
    # group 2 drops next.
    return calibration_set(1, 3, 37, ties=True), 2, 0.1


def can_give(cells, k, s):
    """Whether group ``s`` has a positive decrease slope at counts ``k``."""
    return any(km >= 2 and _dec_slope(cells.cells[m][s], km) > 0.0 for m, km in enumerate(k[:, s]))


@st.composite
def calibration_cases(draw, groups=(2, 5), min_cell=1):
    s_groups = draw(st.integers(*groups))
    m_bins = draw(st.integers(1, 8))
    smallest = max(6, min_cell * m_bins * s_groups)
    n = draw(st.integers(smallest, smallest + 120))
    ties = draw(st.integers(0, 2)) == 0  # a third of the sets
    data = calibration_set(draw(st.integers(0, 2**32 - 1)), s_groups, n, ties=ties)
    return data, m_bins, draw(st.sampled_from((0.05, 0.1, 0.2, 0.3, 0.5)))


class TestOptimizerMatchesReference:
    """Selecting moves from the slope tables gives the per-cell scans' tables and traces."""

    def assert_same(self, data, m_bins, alpha, max_iters=None):
        table0, state0 = seeded(data, m_bins, alpha)
        table, trace = eoc_optimize(data, None, table0, state0, max_iters=max_iters)
        want_table, want_trace = _reference_eoc_optimize(data, None, table0, state0, max_iters=max_iters)
        assert table.r_hat.tobytes() == want_table.r_hat.tobytes()
        assert_same_trace(trace, want_trace)
        return trace, move_kinds(trace, state0, alpha)

    def test_groups_bins_and_ties(self):
        kinds, reasons = set(), set()
        for seed in range(60):
            s_groups, m_bins = 2 + seed % 4, 1 + seed % 8
            data = calibration_set(seed, s_groups, 60 + 4 * seed, ties=seed % 3 == 0)
            alpha = (0.05, 0.1, 0.2, 0.3)[seed % 4]
            trace, seen = self.assert_same(data, m_bins, alpha)
            kinds.update(seen)
            reasons.add(trace.termination_reason)
        assert kinds == {"exchange", "lone_drop", "lone_add", "trim", "descent"}
        assert reasons == {CONVERGED, SLOPE_CROSSOVER}

    def test_iteration_caps(self):
        data = calibration_set(7, 5, 300)
        reasons = set()
        for max_iters in (1, 7, 12, 25, 60):
            trace, _ = self.assert_same(data, 8, 0.3, max_iters=max_iters)
            reasons.add(trace.termination_reason)
        assert MAX_ITERS in reasons and CONVERGED in reasons

    def test_tie_locked_crossover(self):
        trace, kinds = self.assert_same(tie_locked(), 1, 0.5)
        assert trace.termination_reason == SLOPE_CROSSOVER
        assert kinds == ["lone_add", "lone_add"]
        # group 0 covers six samples and the pooled count (9) is above its
        # floor (6): only the tie stops the lone drop
        assert trace.iterations[-1].per_group_mean == (1.0, 0.5)

    def test_many_bins(self):
        # With 16 or 32 bins the summation order shows in a group mean's
        # last bit: the optimizer reduces the (M, S) rates over axis 0,
        # adding bins in order, while numpy's sum of one group's column
        # adds eight running partial sums
        reordered = 0
        for seed, (s_groups, m_bins, n, alpha) in enumerate(
            [(2, 16, 800, 0.1), (3, 32, 1500, 0.2), (4, 16, 1200, 0.05), (5, 32, 2000, 0.1)]
        ):
            data = calibration_set(100 + seed, s_groups, n)
            _, kinds = self.assert_same(data, m_bins, alpha)
            assert {"exchange", "descent"} <= set(kinds)
            beta = seeded(data, m_bins, alpha)[1].beta
            reordered += int(np.sum(beta.mean(axis=0) != [col.mean() for col in beta.T]))
        assert reordered > 0

    def test_tied_adds_cover_several_samples(self):
        widened = 0
        for seed, m_bins in zip(range(1, 5), (4, 8, 3, 6)):
            data = calibration_set(200 + seed, 2 + seed % 4, 200 + 50 * seed, ties=True)
            trace, _ = self.assert_same(data, m_bins, 0.1)
            widened += multi_sample_adds(trace, seeded(data, m_bins, 0.1)[1].cell_counts)
        assert widened > 0

    def test_benchmark_shape(self):
        # 32 bins by 4 groups over 3,000 records, as calibrate_large's
        # largest table, with tied scores
        kinds, reasons, widened = set(), set(), 0
        for seed, grid, alpha in ((300, 0.1, 0.2), (302, 0.02, 0.1), (301, 0.1, 0.2)):
            data = calibration_set(seed, 4, 3000, ties=grid)
            trace, seen = self.assert_same(data, 32, alpha)
            kinds.update(seen)
            reasons.add(trace.termination_reason)
            widened += multi_sample_adds(trace, seeded(data, 32, alpha)[1].cell_counts)
        assert kinds == {"exchange", "lone_drop", "lone_add", "trim", "descent"}
        assert reasons == {CONVERGED, SLOPE_CROSSOVER}
        assert widened > 0

    def test_benchmark_shape_iteration_caps(self):
        # the uncapped run makes 52 exchanges, 18 lone drops, then descents
        # and trims up to move 80; caps land in each phase. A cap that cuts
        # the cleanup short is max_iters; at 80 the cleanup ends on its own.
        data = calibration_set(300, 4, 3000, ties=0.1)
        lengths, reasons = [], []
        for max_iters in (1, 40, 60, 72, 76, 79, 80):
            trace, _ = self.assert_same(data, 32, 0.2, max_iters=max_iters)
            lengths.append(len(trace.iterations))
            reasons.append(trace.termination_reason)
        assert lengths == [1, 40, 60, 72, 76, 79, 80]
        assert reasons == [MAX_ITERS] * 6 + [CONVERGED]

    def test_equal_means_donor_is_the_flagged_group(self):
        # groups 0 and 1 both cover everything, but only group 1's window
        # (one sample of 20) is narrower than its excess over 0.8; group 0's
        # window is one sample of 4
        data = point_band_dataset(
            [(0.5,) * 4, tuple(0.1 * i for i in range(1, 21)), tuple(3.0 + 0.1 * i for i in range(20))]
        )
        trace, _ = self.assert_same(data, 1, 0.2)
        assert trace.initial_per_group_mean[:2] == (1.0, 1.0)
        assert trace.iterations[0].donor_group == 1

    # The moves that lift a group below the target are taken in runs; the
    # next four tests reach each of a run's boundaries.

    def test_tied_add_carries_a_recipient_across_its_window(self):
        # group 1 jumps from under the target to over its window while
        # group 0 is still under it, and donates to group 0 next
        data = calibration_set(198, 4, 209, ties=0.2)
        trace, kinds = self.assert_same(data, 7, 0.5)
        crossings = window_crossings(trace, seeded(data, 7, 0.5)[1], 0.5)
        assert any(
            kinds[step] == "exchange" and trace.iterations[step].donor_group == s
            for step, s in crossings
        )

    def test_locked_top_donor_sits_out(self):
        # group 1 is the most over-covered group, but every cell's top
        # covered scores tie, so it cannot give; group 2, also above its
        # window, donates to group 0 instead
        data = calibration_set(8, 3, 80, ties=1.0)
        table0, state0 = seeded(data, 3, 0.5)
        table, _ = eoc_optimize(data, None, table0, state0)
        trace, kinds = self.assert_same(data, 3, 0.5)
        assert kinds == ["exchange"]
        mu0 = trace.initial_per_group_mean
        assert mu0[1] > mu0[2] > 0.5 + 1.0 / (3 * state0.cell_counts[:, 2].min())
        k = state0.cells.covered(table0.r_hat)
        cells = [state0.cells.cells[m][1] for m in range(3)]
        assert all(km >= 2 and _dec_slope(c, km) == 0.0 for c, km in zip(cells, k[:, 1]))
        assert (trace.donor_group.tolist(), trace.recipient_group.tolist()) == ([2], [0])
        state = measure_coverage(data, None, table)
        assert state.per_group_mean[1] == mu0[1]
        assert np.all(state.per_group_mean >= 0.5 - 1e-12)

    def test_locked_top_group_does_not_end_the_lone_drops(self):
        data, m_bins, alpha = locked_top_group()
        table0, state0 = seeded(data, m_bins, alpha)
        k0 = state0.cells.covered(table0.r_hat)
        assert state0.per_group_mean.tolist() == [1.0, 1.0, 1.0]
        assert [can_give(state0.cells, k0, s) for s in range(3)] == [True, False, True]
        trace, kinds = self.assert_same(data, m_bins, alpha)
        assert trace.termination_reason == SLOPE_CROSSOVER
        assert kinds == ["lone_drop", "lone_drop"]
        assert trace.donor_group.tolist() == [0, 2]
        table, _ = eoc_optimize(data, None, table0, state0)
        # a single drop from group 0 alone leaves 2.5503
        assert calibration_objective(data, None, table) == pytest.approx(2.2595, abs=1e-4)
        state = measure_coverage(data, None, table)
        assert np.all(state.per_group_mean >= 0.9 - 1e-12)
        assert state.cells.covered(table.r_hat).sum() == 35  # floor: 34

    def test_drained_donor_sits_out(self):
        # group 3 gives until each of its cells covers one sample, while
        # it is still above its window; it sits out, and group 2 reaches
        # the target with a lone add in the same run
        data = calibration_set(2732, 4, 47)
        table, _ = eoc_optimize(data, None, *seeded(data, 7, 0.5))
        trace, kinds = self.assert_same(data, 7, 0.5)
        assert trace.termination_reason == SLOPE_CROSSOVER
        assert kinds == ["exchange"] * 4 + ["lone_add"]
        assert set(trace.donor_group.tolist()) == {3, -1}
        assert trace.iterations[-1].recipient_group == 2
        state = measure_coverage(data, None, table)
        assert np.rint(state.beta[:, 3] * state.cell_counts[:, 3]).max() == 1
        assert state.per_group_mean[3] - 0.5 > 1.0 / (7 * state.cell_counts[:, 3].min())
        assert np.all(state.per_group_mean >= 0.5 - 1e-12)

    def test_iteration_cap_lands_mid_run(self):
        data = calibration_set(7, 5, 300)
        full, kinds = self.assert_same(data, 8, 0.3)
        cap = kinds.index("exchange") + 3
        assert kinds[cap - 1] == kinds[cap] == "exchange"
        trace, _ = self.assert_same(data, 8, 0.3, max_iters=cap)
        assert trace.termination_reason == MAX_ITERS
        for name in TRACE_COLUMNS:
            assert getattr(trace, name).tobytes() == getattr(full, name)[:cap].tobytes()
        assert repr(trace.iterations) == repr(full.iterations[:cap])

    @given(calibration_cases(), st.one_of(st.none(), st.integers(1, 100)))
    def test_matches_reference_on_random_sets(self, case, max_iters):
        self.assert_same(*case, max_iters=max_iters)

    @given(calibration_cases())
    def test_empty_streams_show_in_the_slope_tables(self, case):
        # a donor sits out of a run when its drop stream is empty, which
        # the decrease slopes show; an add stream is empty exactly when
        # every cell of its group is full
        data, m_bins, alpha = case
        table0, state0 = seeded(data, m_bins, alpha)
        flat, first = _lay_out(state0.cells, table0.r_hat)
        counts, k = state0.cell_counts, state0.cells.covered(table0.r_hat)
        for s in range(data.group_count):
            cells = [state0.cells.cells[m][s] for m in range(m_bins)]
            dec = [_dec_slope(c, km) if km >= 2 else -math.inf for c, km in zip(cells, k[:, s])]
            column = flat, first[:, s], counts[:, s], k[:, s]
            assert (_MoveStream(*column, True).size == 0) == (max(dec) <= 0.0)
            assert (_MoveStream(*column, False).size == 0) == bool(np.all(k[:, s] == counts[:, s]))

    def test_trim_stops_at_a_tied_drop(self):
        # after the lone drops, a trim's best decrease slope is a tie that
        # cannot move; the cleanup ends there instead of recording it
        # until the cap
        data = calibration_set(2439786156, 5, 527, ties=True)
        trace, kinds = self.assert_same(data, 19, 0.05)
        assert trace.termination_reason == CONVERGED
        assert len(trace.iterations) == 15
        assert "trim" in kinds
        assert all(it.slope_decrease > 0.0 for it in trace.iterations if it.recipient_group < 0)


class TestOptimizerProperties:
    # Cells of one record included: a donor whose cells each cover at most
    # one sample sits out, and the recipient takes lone adds (see
    # test_exhausted_donor_does_not_strand_the_recipient).
    @given(calibration_cases(min_cell=1))
    @example(locked_top_group())
    def test_every_finished_exit_meets_the_floors(self, case):
        data, m_bins, alpha = case
        table, trace = fair_calibrate(data, None, m_bins, alpha)
        if trace.termination_reason == MAX_ITERS:
            return
        state = measure_coverage(data, None, table)
        assert np.all(state.per_group_mean >= (1.0 - alpha) - 1e-12)
        k = state.cells.covered(table.r_hat)
        k_floor = math.ceil(data.n * (1.0 - alpha) - 1e-9)
        assert k.sum() >= k_floor
        if trace.termination_reason == SLOPE_CROSSOVER and k.sum() > k_floor:
            # above the pooled floor, the lone drops stop only when no group
            # above its window can give; the means are added as the
            # optimizer adds them
            counts = state.cell_counts
            mu = np.add.reduce(k / counts, axis=0) / m_bins
            over = mu - (1.0 - alpha) > 1.0 / (m_bins * counts.min(axis=0)) + 1e-12
            assert not any(can_give(state.cells, k, s) for s in np.flatnonzero(over))

    @given(calibration_cases(), st.randoms(use_true_random=False))
    def test_record_order_does_not_matter(self, case, rnd):
        data, m_bins, alpha = case
        order = list(range(data.n))
        rnd.shuffle(order)
        table, trace = fair_calibrate(data, None, m_bins, alpha)
        shuffled_table, shuffled_trace = fair_calibrate(data.subset(order), None, m_bins, alpha)
        assert table.r_hat.tobytes() == shuffled_table.r_hat.tobytes()
        assert_same_trace(trace, shuffled_trace)

    @given(calibration_cases(groups=(1, 1)))
    def test_single_group_keeps_the_seed_table(self, case):
        data, m_bins, alpha = case
        table0, state0 = seeded(data, m_bins, alpha)
        table, trace = eoc_optimize(data, None, table0, state0)
        assert table is table0
        assert trace.iterations == ()

    def test_exhausted_donor_does_not_strand_the_recipient(self):
        # one record per cell: group 0 covers all eight and sits above its
        # window, but no cell has a second covered sample to give, while
        # group 1 covers five of eight, below the 0.7 target; a lone add
        # lifts group 1, and group 0's lone drop then has nothing to give
        y = np.repeat(np.arange(8) + 0.5, 2)
        score = np.zeros(16)
        score[1::2] = [0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 5.0, 5.0]
        q = y - score
        data = make_dataset(y, np.tile([0, 1], 8), q_lo=q, q_hi=q, domain=(-10.0, 10.0))
        table, trace = fair_calibrate(data, None, 8, 0.3)
        assert trace.termination_reason == SLOPE_CROSSOVER
        state = measure_coverage(data, None, table)
        assert np.all(state.per_group_mean >= 0.7 - 1e-12)


class TestTraceColumns:
    @given(calibration_cases(), st.one_of(st.none(), st.integers(1, 100)))
    def test_columns_agree_with_each_other_and_the_record_view(self, case, max_iters):
        data, m_bins, alpha = case
        _, trace = fair_calibrate(data, None, m_bins, alpha, max_iters=max_iters)
        steps = trace.donor_group.size
        assert steps <= (10 * data.n if max_iters is None else max_iters)
        for name in TRACE_COLUMNS[:4]:
            assert getattr(trace, name).dtype == np.int64
            assert getattr(trace, name).shape == (steps,)
        for name in TRACE_COLUMNS[4:6]:
            assert getattr(trace, name).dtype == np.float64
            assert getattr(trace, name).shape == (steps,)
        assert trace.per_group_mean.dtype == np.float64
        assert trace.per_group_mean.shape == (steps, data.group_count)
        assert not any(getattr(trace, name).flags.writeable for name in TRACE_COLUMNS)
        # an absent side: group -1, bin 0 and a NaN slope, each only with the others
        for group, bin_, slope in (
            (trace.donor_group, trace.donor_bin, trace.slope_decrease),
            (trace.recipient_group, trace.recipient_bin, trace.slope_increase),
        ):
            absent = group == -1
            np.testing.assert_array_equal(absent, bin_ == 0)
            np.testing.assert_array_equal(absent, np.isnan(slope))
            assert np.all(group[~absent] >= 0) and np.all(bin_[~absent] >= 1)
            assert np.all(bin_ <= m_bins)
        assert trace.summary()["iterations"] == steps
        means = [trace.initial_per_group_mean] + [it.per_group_mean for it in trace.iterations]
        assert trace.gaps() == [max(m) - min(m) for m in means]

    def test_records_are_built_only_when_read(self, monkeypatch):
        from faircov import fair_calibration

        built = []

        def counting(*args):
            built.append(1)
            return IterationRecord(*args)

        monkeypatch.setattr(fair_calibration, "IterationRecord", counting)
        data = calibration_set(300, 4, 3000, ties=0.1)
        _, trace = fair_calibrate(data, None, 32, 0.2)
        steps = trace.donor_group.size
        assert steps > 0
        trace.summary()
        trace.gaps()
        assert built == []
        assert len(trace.iterations) == steps
        assert len(built) == steps
        assert trace.iterations is trace.iterations  # built once
        assert len(built) == steps


def _reference_eoc_optimize(
    cal: Dataset,
    model: QuantileModel | None,
    table0: ThresholdTable,
    state0: CoverageState,
    *,
    max_iters: int | None = None,
) -> tuple[ThresholdTable, OptimizerTrace]:
    """The optimizer with per-cell scans: every move recomputes the slopes
    of every candidate cell, and descent loops over every pair of cells."""
    if state0.cells.partition != table0.partition or int(state0.cell_counts.sum()) != cal.n:
        raise ValidationError("state0 was measured on another calibration set or partition")
    if max_iters is None:
        max_iters = 10 * cal.n
    if max_iters < 1:
        raise ValidationError("max_iters must be positive")
    alpha = table0.alpha
    target = 1.0 - alpha
    s_groups = table0.group_count
    m_bins = table0.partition.m
    init_means = tuple(float(v) for v in state0.per_group_mean)
    if s_groups == 1:
        return table0, records_to_trace(init_means, (), CONVERGED)

    cell_scores = CellScores.measure(cal, model, table0.partition, alpha)
    cells, counts = cell_scores.cells, cell_scores.counts
    thr = np.array(table0.r_hat, dtype=np.float64)
    k = np.zeros((m_bins, s_groups), dtype=np.int64)
    # Re-express thresholds on the covering order statistic of each cell.
    # Coverage is unchanged, pure threshold slack is released as width,
    # and every later move lands exactly on an adjacent order statistic.
    # Cells covering nothing keep their seed threshold below the minimum.
    for m in range(m_bins):
        for s in range(s_groups):
            k[m, s] = _covered_count(cells[m][s], thr[m, s])
            if k[m, s] >= 1:
                thr[m, s] = cells[m][s][k[m, s] - 1]

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

    def group_means() -> np.ndarray:
        return (k / counts).mean(axis=0)

    def shift(m: int, s: int, offset: int) -> bool:
        # Move cell (m, s) to the order statistic ``offset`` places from
        # its covering one: -1 drops one covered sample, +1 covers one
        # more. False when tied scores leave the threshold where it was.
        new_thr = float(cells[m][s][k[m, s] - 1 + offset])
        if new_thr == thr[m, s]:
            return False
        thr[m, s] = new_thr
        k[m, s] = _covered_count(cells[m][s], new_thr)
        return True

    iterations: list[IterationRecord] = []

    def record(s1, s2, m1, m2, d_slope, i_slope):
        iterations.append(
            IterationRecord(
                step=len(iterations) + 1,
                donor_group=s1,
                recipient_group=s2,
                donor_bin=m1 + 1 if s1 >= 0 else 0,
                recipient_bin=m2 + 1 if s2 >= 0 else 0,
                slope_decrease=float(d_slope),
                slope_increase=float(i_slope),
                per_group_mean=tuple(float(v) for v in group_means()),
            )
        )

    def best_drop(s: int) -> tuple[float, int]:
        # group s's largest decrease slope and the first bin that has it
        best, arg = -np.inf, -1
        for m in range(m_bins):
            if k[m, s] >= 2:
                slope = _dec_slope(cells[m][s], int(k[m, s]))
                if slope > best:
                    best, arg = slope, m
        return best, arg

    reason: str | None = None
    for _ in range(max_iters):
        mu = group_means()
        over_band = (mu - level) > stop + eps
        under = mu < level - eps
        if not (over_band.any() or under.any()):
            reason = CONVERGED
            break
        # the highest over-window group that can still give donates, to the
        # lowest group under the target or, when every group is at or above
        # it, as a lone drop; when no donor can, the recipient takes a lone add
        donors = [s for s in range(s_groups) if over_band[s] and best_drop(s)[0] > 0.0]
        s1 = max(donors, key=lambda s: mu[s]) if donors else -1
        s2 = int(np.argmin(np.where(under, mu, np.inf))) if under.any() else -1
        if s2 < 0 and (s1 < 0 or int(k.sum()) - 1 < k_floor):
            # no lone drop can move, or one would take the pooled covered
            # count below its floor
            reason = SLOPE_CROSSOVER
            break

        best_dec, m1 = best_drop(s1) if s1 >= 0 else (np.nan, -1)
        best_inc, m2 = np.inf, -1
        if s2 >= 0:
            for m in range(m_bins):
                if k[m, s2] < counts[m, s2]:
                    slope = _inc_slope(cells[m][s2], int(k[m, s2]), float(thr[m, s2]))
                    if slope < best_inc:
                        best_inc, m2 = slope, m
            assert m2 >= 0, "a recipient is below 1 - alpha, so a cell has room"

        for m, s, offset in ((m1, s1, -1), (m2, s2, 1)):
            if s >= 0:
                moved = shift(m, s, offset)
                assert moved, "every move the rule picks has a positive slope"
        record(s1, s2, m1, m2, best_dec, best_inc if s2 >= 0 else np.nan)
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
        # exchange pays for itself.
        # A cap that stops either pass while it still has a move to make
        # ends the run as max_iters.
        progress = True
        while progress and reason == CONVERGED:
            progress = False

            while int(k.sum()) > k_floor:
                mu = group_means()
                best = None
                for m in range(m_bins):
                    for s in range(s_groups):
                        if (
                            k[m, s] >= 2
                            and mu[s] - cell_weight * s_groups / counts[m, s]
                            >= level - eps
                        ):
                            slope = _dec_slope(cells[m][s], int(k[m, s]))
                            if best is None or slope > best[0]:
                                best = (slope, m, s)
                if best is None or best[0] <= 0.0:
                    break  # a zero slope is a tie, which a drop cannot move
                if len(iterations) == max_iters:
                    reason = MAX_ITERS
                    break
                d_slope, m1, s1 = best
                shift(m1, s1, -1)
                progress = True
                record(s1, -1, m1, 0, d_slope, np.nan)

            while reason == CONVERGED:
                mu = group_means()
                decs = [
                    (_dec_slope(cells[m][s], int(k[m, s])), m, s)
                    for m in range(m_bins)
                    for s in range(s_groups)
                    if k[m, s] >= 2
                ]
                incs = [
                    (_inc_slope(cells[m][s], int(k[m, s]), float(thr[m, s])), m, s)
                    for m in range(m_bins)
                    for s in range(s_groups)
                    if k[m, s] < counts[m, s]
                ]
                best_gain = 0.0
                move = None
                for d_slope, m1, s1 in decs:
                    for i_slope, m2, s2 in incs:
                        if (m1, s1) == (m2, s2) or d_slope - i_slope <= best_gain:
                            continue
                        mu1 = mu[s1] - cell_weight * s_groups / counts[m1, s1]
                        mu2 = mu[s2] + cell_weight * s_groups / counts[m2, s2]
                        if s1 == s2:
                            post = mu1 + cell_weight * s_groups / counts[m2, s2]
                            ok = level - eps <= post <= level + stop[s1] + eps
                        else:
                            ok = (
                                mu1 >= level - eps
                                and mu2 <= level + stop[s2] + eps
                            )
                        if ok:
                            best_gain = d_slope - i_slope
                            move = (m1, s1, m2, s2, d_slope, i_slope)
                if move is None:
                    break
                if len(iterations) == max_iters:
                    reason = MAX_ITERS
                    break
                m1, s1, m2, s2, d_slope, i_slope = move
                shift(m1, s1, -1)
                shift(m2, s2, 1)
                progress = True
                record(s1, s2, m1, m2, d_slope, i_slope)

    table = ThresholdTable(
        r_hat=thr,
        global_r_hat=table0.global_r_hat,
        alpha=alpha,
        partition=table0.partition,
        group_count=s_groups,
    )
    return table, records_to_trace(init_means, iterations, reason)
