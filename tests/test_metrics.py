"""Coverage, width, accuracy metrics and the evaluation report."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from faircov import (
    BinPartition,
    GlobalThreshold,
    ThresholdTable,
    ValidationError,
    bin_indices,
    cqr_calibrate,
    cqr_calibrate_groupwise,
    equal_mass_bins,
    evaluate,
    fair_calibrate,
    measure_coverage,
    picp_gap,
    predict_interval,
    report_to_json,
)
from faircov.intervals import band_pieces, union_covered, union_widths
from faircov.metrics import _resolve_band, comparison_header, comparison_row, mae, rmse

from conftest import make_dataset, six_record_fixture, synthetic_with_band  # noqa: F401


def band_report(y, q_lo, q_hi, r_hat=0.0, table=None):
    """``evaluate``'s report of one-group records on the domain [0, 10].

    Each band is shifted by the global ``r_hat``, or by ``table``'s cells.
    """
    data = make_dataset(y, [0] * len(y), q_lo=q_lo, q_hi=q_hi)
    if table is None:
        table = GlobalThreshold(method="cqr", alpha=0.1, r_hat=r_hat, n_cal=len(y))
    return evaluate(data, None, table)


class TestPicp:
    """The report's PICP: the share of labels inside their prediction sets."""

    def test_nine_of_ten(self):
        assert band_report([1.0] * 9 + [5.0], [0.0] * 10, [2.0] * 10).picp_overall == 0.9

    def test_all_and_none(self):
        assert band_report([1.0] * 4, [0.0] * 4, [2.0] * 4).picp_overall == 1.0
        assert band_report([5.0] * 4, [0.0] * 4, [2.0] * 4).picp_overall == 0.0

    def test_fallback_point_hit_and_miss(self):
        # the shift empties the band [2.5, 3.5], leaving its midpoint 3.0
        hit = band_report([3.0], [2.5], [3.5], r_hat=-1.0)
        assert hit.fallback_count == 1 and hit.picp_overall == 1.0
        assert band_report([3.0001], [2.5], [3.5], r_hat=-1.0).picp_overall == 0.0


class TestMpiw:
    """The report's MPIW: the mean union width, a fallback point counting zero."""

    def test_mean_of_widths(self):
        assert band_report([1.0, 2.0], [0.0, 1.0], [2.0, 5.0]).mpiw_overall == 3.0

    def test_fallback_counts_zero(self):
        assert band_report([3.0], [2.5], [3.5], r_hat=-1.0).mpiw_overall == 0.0
        # the second band shrinks onto the whole domain
        report = band_report([3.0, 3.0], [2.5, -1.0], [3.5, 11.0], r_hat=-1.0)
        assert report.mpiw_overall == 5.0

    def test_multi_component_width_adds_up(self):
        # an emptied middle bin splits the band [1, 6] into [1, 2] and [4, 6]
        table = ThresholdTable(
            r_hat=np.array([[0.0], [-5.0], [0.0]]),
            global_r_hat=0.0,
            alpha=0.1,
            partition=BinPartition(bounds=(0.0, 2.0, 4.0, 10.0), counts=(1, 1, 1)),
            group_count=1,
        )
        assert band_report([1.5], [1.0], [6.0], table=table).mpiw_overall == 3.0


class TestPicpGap:
    def test_two_groups(self):
        assert picp_gap((0.90, 0.94)) == pytest.approx(0.04)
        assert picp_gap((0.9040, 0.9002)) == pytest.approx(0.0038)

    def test_three_groups(self):
        assert picp_gap((0.80, 0.95, 0.90)) == pytest.approx(0.15)

    def test_needs_two_groups(self):
        with pytest.raises(ValidationError):
            picp_gap((0.9,))

    def test_zero_iff_equal(self):
        assert picp_gap((0.5, 0.5, 0.5)) == 0.0

    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6), st.randoms(use_true_random=False))
    def test_permutation_invariant(self, values, rand):
        shuffled = list(values)
        rand.shuffle(shuffled)
        assert picp_gap(shuffled) == picp_gap(values)


class TestPointAccuracy:
    def test_perfect_predictions(self):
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            mae([], [])
        with pytest.raises(ValidationError):
            rmse([], [])

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=20), st.data())
    def test_rmse_dominates_mae(self, y_true, data):
        y_pred = data.draw(
            st.lists(
                st.floats(-100, 100), min_size=len(y_true), max_size=len(y_true)
            )
        )
        assert rmse(y_true, y_pred) >= mae(y_true, y_pred) - 1e-12


class TestEvaluate:
    def table(self, data):
        part = equal_mass_bins(data.y, 2, data.label_domain)
        return ThresholdTable(
            r_hat=np.full((2, 2), -0.5),
            global_r_hat=-0.5,
            alpha=0.1,
            partition=part,
            group_count=2,
        )

    def test_six_record_report(self, six_record_fixture):
        data = six_record_fixture
        report = evaluate(data, None, self.table(data))
        assert report.n_test == 6
        assert report.group_counts == (3, 3)
        assert report.covered_total == 3
        assert report.covered_per_group == (2, 1)
        assert report.picp_overall == 0.5
        assert report.picp_per_group == (2.0 / 3.0, 1.0 / 3.0)
        assert report.picp_gap == pytest.approx(1.0 / 3.0)
        assert report.mpiw_overall == 0.5
        assert report.mpiw_per_group == (pytest.approx(1.0 / 3.0), pytest.approx(2.0 / 3.0))
        np.testing.assert_array_equal(report.bin_counts, [[2, 1], [1, 2]])
        np.testing.assert_array_equal(report.bin_coverage, [[0.5, 1.0], [1.0, 0.0]])
        assert report.per_group_bin_mean == (0.75, 0.5)
        assert report.mae == pytest.approx(4.75 / 6.0)
        assert report.rmse == pytest.approx(math.sqrt(0.90625))
        assert report.fallback_count == 1
        assert report.point_source == "band_midpoint"

    def test_weighted_group_means_recover_total(self, six_record_fixture):
        report = evaluate(six_record_fixture, None, self.table(six_record_fixture))
        recovered = sum(
            c * p for c, p in zip(report.group_counts, report.picp_per_group)
        )
        assert recovered == pytest.approx(report.covered_total)

    def test_bin_coverage_matches_calibration_view(self, six_record_fixture):
        # evaluating the calibration split reproduces the optimizer's cells,
        # and its bin means are the optimizer's final means bit for bit; a
        # single group keeps its seed means
        cases = [(six_record_fixture, self.table(six_record_fixture), None)]
        for noise, m_bins in (((1.0, 3.0, 5.0), 8), ((1.0, 3.0, 5.0), 16), ((2.0,), 32)):
            data, _ = synthetic_with_band(3000, noise, seed=m_bins)
            table, trace = fair_calibrate(data, None, m_bins, 0.1)
            final = trace.per_group_mean[-1] if trace.per_group_mean.size else trace.initial_per_group_mean
            cases.append((data, table, tuple(np.asarray(final).tolist())))
        for data, table, final in cases:
            report = evaluate(data, None, table)
            state = measure_coverage(data, None, table)
            np.testing.assert_array_equal(report.bin_coverage, state.beta)
            np.testing.assert_array_equal(report.bin_counts, state.cell_counts)
            assert report.per_group_bin_mean == tuple(state.per_group_mean)
            assert final is None or report.per_group_bin_mean == final

    def test_constant_table_matches_global_threshold(self, six_record_fixture):
        data = six_record_fixture
        table_report = evaluate(data, None, self.table(data))
        global_report = evaluate(
            data, None, GlobalThreshold(method="cqr", alpha=0.1, r_hat=-0.5, n_cal=6)
        )
        assert global_report.picp_overall == table_report.picp_overall
        assert global_report.mpiw_overall == table_report.mpiw_overall
        assert global_report.picp_per_group == table_report.picp_per_group
        assert global_report.fallback_count == table_report.fallback_count

    def test_absent_group_gets_nan(self):
        data = make_dataset(
            [1.0, 2.0], [0, 0], q_lo=[0.5, 1.5], q_hi=[1.5, 2.5], group_count=2
        )
        report = evaluate(
            data, None, GlobalThreshold(method="cqr", alpha=0.1, r_hat=0.0, n_cal=2)
        )
        assert math.isnan(report.picp_per_group[1])
        assert math.isnan(report.per_group_bin_mean[1])
        assert report.picp_gap == 0.0  # only one group present

    def test_split_cp_requires_model(self, six_record_fixture):
        thr = GlobalThreshold(method="cp", alpha=0.1, r_hat=1.0, n_cal=6)
        with pytest.raises(ValidationError, match="median"):
            evaluate(six_record_fixture, None, thr)

    def test_empty_test_set_rejected_up_front(self, six_record_fixture):
        # before any figure is computed: no empty-slice warning, which the
        # suite turns into an error, and no complaint about an empty bin
        empty = make_dataset([], [], q_lo=[], q_hi=[], group_count=2)
        for calibrator in (
            self.table(six_record_fixture),
            GlobalThreshold(method="cqr", alpha=0.1, r_hat=0.5, n_cal=6),
        ):
            with pytest.raises(ValidationError, match="cannot score an empty test set"):
                evaluate(empty, None, calibrator)

    def test_unsupported_calibrator_rejected(self, six_record_fixture):
        with pytest.raises(ValidationError, match="unsupported"):
            evaluate(six_record_fixture, None, object())

    def test_group_without_a_table_column_rejected(self, six_record_fixture):
        # a record of group 2 against a 2-group table: evaluate names the
        # group, as predict_interval does for the same record
        table = self.table(six_record_fixture)
        data = make_dataset([1.0, 6.0], [0, 2], q_lo=[0.5, 5.5], q_hi=[2.0, 7.0], group_count=3)
        with pytest.raises(ValidationError, match=r"group id 2 outside \[0, 2\)"):
            evaluate(data, None, table)
        with pytest.raises(ValidationError, match=r"group id 2 outside \[0, 2\)"):
            predict_interval(5.5, 7.0, 2, table)


class TestReportJson:
    def report(self, six_record):
        part = equal_mass_bins(six_record.y, 2, six_record.label_domain)
        table = ThresholdTable(
            r_hat=np.full((2, 2), -0.5),
            global_r_hat=-0.5,
            alpha=0.1,
            partition=part,
            group_count=2,
        )
        return evaluate(six_record, None, table)

    def test_keys_sorted_and_floats_rounded(self, six_record_fixture):
        text = report_to_json(self.report(six_record_fixture))
        payload = json.loads(text)
        assert text == json.dumps(payload, sort_keys=True, indent=2)
        assert payload["picp_overall"] == 0.5
        assert payload["picp_per_group"] == [0.666667, 0.333333]
        assert payload["picp_per_group_percent"] == ["66.67", "33.33"]
        assert payload["picp_overall_percent"] == "50.00"
        assert payload["mae"] == 0.791667
        assert payload["covered_total"] == 3
        assert payload["fallback_count"] == 1

    def test_nan_becomes_null(self):
        data = make_dataset(
            [1.0, 2.0], [0, 0], q_lo=[0.5, 1.5], q_hi=[1.5, 2.5], group_count=2
        )
        report = evaluate(
            data, None, GlobalThreshold(method="cqr", alpha=0.1, r_hat=0.0, n_cal=2)
        )
        payload = json.loads(report_to_json(report))
        assert payload["picp_per_group"][1] is None
        assert payload["picp_per_group_percent"][1] is None


class TestComparisonTable:
    def test_header_tracks_group_count(self):
        assert comparison_header(2) == [
            "method",
            "picp",
            "mpiw",
            "picp_g0",
            "picp_g1",
            "picp_gap",
            "mae",
            "rmse",
            "fallback_count",
        ]

    def test_row_formats_six_decimals(self, six_record_fixture):
        part = equal_mass_bins(six_record_fixture.y, 2, six_record_fixture.label_domain)
        table = ThresholdTable(
            r_hat=np.full((2, 2), -0.5),
            global_r_hat=-0.5,
            alpha=0.1,
            partition=part,
            group_count=2,
        )
        report = evaluate(six_record_fixture, None, table)
        row = comparison_row("fuq", report)
        assert row[0] == "fuq"
        assert row[1] == "0.500000"
        assert row[3] == "0.666667"
        assert row[-1] == "1"
        assert len(row) == len(comparison_header(2))


def reference_figures(test, calibrator) -> dict:
    """Every report field as the report's numpy formulas computed them,
    over kernel calls that take the whole test set at once."""
    q_lo, q_hi, partition, r_hat, point, fallback, source = _resolve_band(test, None, calibrator)
    bounds = np.asarray(partition.bounds)
    bins = bin_indices(partition, test.y)
    a, b = band_pieces(q_lo, q_hi, test.group, r_hat, bounds)
    width, has_piece = union_widths(a, b)
    covered = union_covered(q_lo, q_hi, test.group, r_hat, bounds, bins, test.y, has_piece, fallback)
    s_groups = test.group_count
    cell = bins * s_groups + test.group
    bin_counts = np.bincount(cell, minlength=partition.m * s_groups).reshape(-1, s_groups)
    bin_hits = np.bincount(cell, weights=covered, minlength=bin_counts.size).reshape(-1, s_groups)
    group_counts = bin_counts.sum(axis=0)
    covered_per_group = bin_hits.sum(axis=0)
    picp_groups = np.where(group_counts > 0, covered_per_group / np.maximum(group_counts, 1), np.nan)
    mpiw_groups = np.where(
        group_counts > 0,
        np.bincount(test.group, weights=width, minlength=s_groups) / np.maximum(group_counts, 1),
        np.nan,
    )
    bin_coverage = np.where(bin_counts > 0, bin_hits / np.maximum(bin_counts, 1), np.nan)
    rates = np.where(bin_counts > 0, bin_coverage, 0.0)
    bin_sums = 0.0 + rates[0]
    for row in rates[1:]:
        bin_sums += row
    nonempty = (bin_counts > 0).sum(axis=0)
    present = picp_groups[~np.isnan(picp_groups)]
    return {
        "alpha": float(calibrator.alpha),
        "n_test": test.n,
        "group_counts": tuple(int(c) for c in group_counts),
        "covered_total": int(covered.sum()),
        "covered_per_group": tuple(int(c) for c in covered_per_group),
        "picp_overall": float(covered.mean()),
        "mpiw_overall": float(width.mean()),
        "picp_per_group": tuple(float(v) for v in picp_groups),
        "mpiw_per_group": tuple(float(v) for v in mpiw_groups),
        "picp_gap": float(present.max() - present.min()) if present.size >= 2 else 0.0,
        "bin_counts": bin_counts,
        "bin_coverage": bin_coverage,
        "per_group_bin_mean": tuple(
            np.where(group_counts > 0, bin_sums / np.maximum(nonempty, 1), np.nan).tolist()
        ),
        "mae": float(np.mean(np.abs(test.y - point))),
        "rmse": float(np.sqrt(np.mean((test.y - point) ** 2))),
        "fallback_count": int((~has_piece).sum()),
        "point_source": source,
    }


def bits(value):
    """A field as comparable text: every float by ``float.hex``, so -0.0
    differs from 0.0 and any NaN equals any NaN; the Python type too."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, [bits(v) for v in value.ravel().tolist()]
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return type(value).__name__, value.hex() if isinstance(value, float) else value


def assert_report_matches_reference(test, calibrator):
    report = evaluate(test, None, calibrator)
    want = reference_figures(test, calibrator)
    assert set(vars(report)) == set(want)
    for name, value in vars(report).items():
        assert bits(value) == bits(want[name]), name


@st.composite
def sparse_test_sets(draw):
    """Test sets that leave bins empty and groups absent, with a table
    or a global shift to score them under."""
    m_bins, s_groups = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    n = draw(st.integers(1, 30))
    present = draw(st.lists(st.integers(0, s_groups - 1), min_size=1, max_size=s_groups, unique=True))
    bounds = (0.0, *sorted(draw(st.sets(st.integers(1, 19), min_size=m_bins - 1, max_size=m_bins - 1))), 20.0)
    bounds = tuple(b / 2.0 for b in bounds)
    label = st.one_of(st.sampled_from(bounds), st.floats(0.0, 10.0, width=16))
    y = draw(st.lists(label, min_size=n, max_size=n))
    group = draw(st.lists(st.sampled_from(present), min_size=n, max_size=n))
    centre = st.floats(-2.0, 12.0, width=16)
    q = np.array(draw(st.lists(st.tuples(centre, st.floats(0.0, 4.0, width=16)), min_size=n, max_size=n)))
    test = make_dataset(y, group, q_lo=q[:, 0] - q[:, 1], q_hi=q[:, 0] + q[:, 1], group_count=s_groups)
    shift = st.floats(-3.0, 3.0, width=16)
    if draw(st.booleans()):
        return test, GlobalThreshold(method="cqr", alpha=0.1, r_hat=draw(shift), n_cal=10)
    r_hat = np.array(draw(st.lists(shift, min_size=m_bins * s_groups, max_size=m_bins * s_groups)))
    partition = BinPartition(bounds=bounds, counts=(1,) * m_bins)
    return test, ThresholdTable(
        r_hat=r_hat.reshape(m_bins, s_groups), global_r_hat=0.0, alpha=0.2, partition=partition,
        group_count=s_groups,
    )


class TestReportMatchesNumpyFormulas:
    """The per-group figures are Python floats, bit for bit the numpy formulas' values."""

    @given(sparse_test_sets())
    def test_sparse_test_sets(self, case):
        assert_report_matches_reference(*case)

    def test_absent_groups_and_empty_bins_are_reached(self):
        # a group with no records and a bin with none, side by side
        test = make_dataset([1.0, 1.5, 9.0], [0, 2, 0], q_lo=[0.5, 1.0, 8.0], q_hi=[2.0, 2.0, 9.5], group_count=3)
        table = ThresholdTable(
            r_hat=np.zeros((3, 3)), global_r_hat=0.0, alpha=0.1,
            partition=BinPartition(bounds=(0.0, 2.0, 5.0, 10.0), counts=(1, 1, 1)), group_count=3,
        )
        report = evaluate(test, None, table)
        assert report.group_counts == (2, 0, 1)
        assert report.bin_counts[1].tolist() == [0, 0, 0]
        assert math.isnan(report.picp_per_group[1]) and math.isnan(report.per_group_bin_mean[1])
        assert_report_matches_reference(test, table)

    def test_calibrated_tables_at_benchmark_size(self):
        for m_bins, seed in ((4, 1), (8, 2)):
            data, _ = synthetic_with_band(6000, (1.0, 3.0, 5.0), seed=seed)
            cal, test = data.subset(np.arange(3000)), data.subset(np.arange(3000, 6000))
            for calibrator in (
                fair_calibrate(cal, None, m_bins, 0.1)[0],
                cqr_calibrate_groupwise(cal, None, 0.1),
                cqr_calibrate(cal, None, 0.1),
            ):
                assert_report_matches_reference(test, calibrator)
