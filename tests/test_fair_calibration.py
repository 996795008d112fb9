"""Threshold tables, the coverage equalizer, and the exhaustive oracle."""

import math

import numpy as np
import pytest

from faircov import (
    EmptyCellError,
    ThresholdTable,
    ValidationError,
    brute_force_oracle,
    calibration_objective,
    cqr_calibrate,
    cqr_calibrate_groupwise,
    cqr_score,
    equal_mass_bins,
    fair_calibrate,
    init_thresholds,
    measure_coverage,
    predict_interval,
    slope_decrease,
    slope_increase,
)
from faircov.fair_calibration import CONVERGED, MAX_ITERS, eoc_optimize

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
            eoc_optimize(data, None, table0, stale, 0.1)

    def test_state_from_another_partition_rejected(self):
        data, _ = synthetic_with_band(200, (1.0, 3.0), seed=5)
        table0, _ = init_thresholds(data, None, equal_mass_bins(data.y, 2, data.label_domain), 0.1)
        _, stale = init_thresholds(data, None, equal_mass_bins(data.y, 3, data.label_domain), 0.1)
        with pytest.raises(ValidationError, match="state0"):
            eoc_optimize(data, None, table0, stale, 0.1)


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
        table, trace = eoc_optimize(data, None, table0, state0, 0.1)
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
