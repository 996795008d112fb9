"""Coverage, width, fairness, and accuracy metrics for interval predictors.

Coverage here is always the sample mean of the covered indicator. The
optimizer's internal constraint is a bin-averaged quantity instead, so
reports carry both views plus exact integer counts, letting any
discrepancy or downstream confidence band be recomputed from the report
alone. :func:`evaluate` walks the test set once, with one interval-kernel
call per block of records; ``faircov evaluate`` writes ``predictions.csv``
from the same blocks' pieces in that same pass. The kernel writes every
block's pieces into the same two ``(M, block)`` buffers, allocated once
per call. The test labels are binned once, before the walk: coverage
tests each label in its own bin, and the report's (bin, group) cells
read the same bins.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .binning import BinPartition, _bin_sum, bin_indices
from .conformal import GlobalThreshold, band_columns
from .core import Dataset, ValidationError, _check_ids, _csv_ids
from .fair_calibration import ThresholdTable
from .intervals import band_pieces, union_components, union_covered, union_widths
from .quantile_model import QuantileModel

__all__ = [
    "picp_gap",
    "mae",
    "rmse",
    "EvalReport",
    "evaluate",
    "report_to_json",
    "comparison_header",
    "comparison_row",
]


def picp_gap(per_group_picp) -> float:
    """Largest pairwise coverage difference across groups."""
    values = np.asarray(per_group_picp, dtype=np.float64)
    if values.size < 2:
        raise ValidationError("coverage gap needs at least two groups")
    return float(values.max() - values.min())


def mae(y_true, y_pred) -> float:
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.size == 0:
        raise ValidationError("cannot score an empty test set")
    return float(np.mean(np.abs(y_true - y_pred)))


def rmse(y_true, y_pred) -> float:
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.size == 0:
        raise ValidationError("cannot score an empty test set")
    return float(np.sqrt(np.mean((y_true - y_pred) ** 2)))


@dataclass(frozen=True)
class EvalReport:
    """Evaluation summary with exact counts backing every ratio.

    ``bin_coverage`` holds NaN for (bin, group) cells with no test
    records; ``per_group_bin_mean`` averages the non-empty bins, the
    optimizer's view of coverage: its bins are added in the optimizer's
    order, so on the calibration split it equals the optimizer's group
    means bit for bit. Groups absent from the test split get NaN
    coverage and are excluded from the gap.
    """

    alpha: float
    n_test: int
    group_counts: tuple[int, ...]
    covered_total: int
    covered_per_group: tuple[int, ...]
    picp_overall: float
    mpiw_overall: float
    picp_per_group: tuple[float, ...]
    mpiw_per_group: tuple[float, ...]
    picp_gap: float
    bin_counts: np.ndarray  # (M, S) ints
    bin_coverage: np.ndarray  # (M, S), NaN where empty
    per_group_bin_mean: tuple[float, ...]
    mae: float
    rmse: float
    fallback_count: int
    point_source: str  # "median" or "band_midpoint"


def _resolve_band(test: Dataset, model: QuantileModel | None, calibrator):
    """Band columns, per-(bin, group) shifts, the point prediction and the fallback.

    The fallback is the point clipped to the partition's label domain, the
    range the shifts were calibrated on; the report and the predictions
    file both read it, so their coverage agrees.
    """
    if isinstance(calibrator, ThresholdTable):
        top = int(test.group.max(initial=0))
        if top >= calibrator.group_count:
            raise ValidationError(f"group id {top} outside [0, {calibrator.group_count})")
        q_lo, q_hi, med = band_columns(test, model, calibrator.alpha)
        partition = calibrator.partition
        r_hat = calibrator.r_hat
    elif isinstance(calibrator, GlobalThreshold):
        partition = BinPartition(bounds=test.label_domain, counts=(test.n,))
        r_hat = np.full((1, test.group_count), calibrator.r_hat)
        if calibrator.method == "cp":
            if model is None:
                raise ValidationError(
                    "split-CP evaluation needs a model to produce the median"
                )
            _, _, med = band_columns(test, model, calibrator.alpha)
            q_lo = q_hi = med
        else:
            q_lo, q_hi, med = band_columns(test, model, calibrator.alpha)
    else:
        raise ValidationError(
            f"unsupported calibrator type {type(calibrator).__name__}"
        )
    if med is not None:
        point, source = med, "median"
    else:
        point, source = (q_lo + q_hi) / 2.0, "band_midpoint"
    fallback = np.clip(point, *partition.label_domain)
    return q_lo, q_hi, partition, r_hat, point, fallback, source


# Records per block of the test-set walk: its two (M, block) piece buffers
# and, when it writes predictions, the block's text are all it holds at once.
_BLOCK = 4096


def evaluate(test: Dataset, model: QuantileModel | None, calibrator, out=None) -> EvalReport:
    """Score a calibrated predictor on a test split, ``_BLOCK`` records at a time.

    Accepts either a single global shift or a per-(bin, group) table;
    global shifts are evaluated as a one-bin table spanning the label
    domain, so both paths share the same interval arithmetic. Point
    predictions come from the model median when available, otherwise the
    midpoint of the raw band.

    A text file ``out``, opened with ``newline=""``, gets
    ``predictions.csv`` in the same walk: a header, then one row per
    record with its id, group, the text of its
    :class:`~faircov.intervals.IntervalSet`, its fallback point when it
    has no component, covered, and the merged union's width. Each
    block's rows are made by one format string per row and written at
    once; ids are quoted as ``csv.writer`` quotes them, and an id holding
    NUL is refused before the header. The report reads the per-record
    arrays of the whole walk, so no figure depends on the block.
    """
    if test.n == 0:
        raise ValidationError("cannot score an empty test set")
    q_lo, q_hi, partition, r_hat, point, fallback, source = _resolve_band(test, model, calibrator)
    if out is not None:
        _check_ids(test.ids)
        out.write("id,group,components,fallback,covered,width\r\n")
    bounds = np.asarray(partition.bounds)
    bins = bin_indices(partition, test.y)
    covered = np.empty(test.n, dtype=bool)
    width = np.empty(test.n)
    has_piece = np.empty(test.n, dtype=bool)
    buffers = np.empty((2, r_hat.shape[0], min(test.n, _BLOCK)))
    for lo in range(0, test.n, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        size = min(test.n - lo, _BLOCK)
        a, b = band_pieces(
            q_lo[block], q_hi[block], test.group[block], r_hat, bounds, buffers[:, :, :size]
        )
        components = union_components(a, b) if out is not None else None
        width[block], has_piece[block] = union_widths(a, b)  # after the components: it reuses b
        covered[block] = union_covered(
            q_lo[block], q_hi[block], test.group[block], r_hat, bounds,
            bins[block], test.y[block], has_piece[block], fallback[block],
        )
        if components is not None:
            count, start, end, merged_width = components
            pieces = list(map("{!r}:{!r}".format, start.tolist(), end.tolist()))
            stops = np.cumsum(count).tolist()
            rows = map(
                "{},{},{},{},{:d},{!r}\r\n".format,
                _csv_ids(test.ids[block].tolist()),
                test.group[block].tolist(),
                [";".join(pieces[i:j]) for i, j in zip([0, *stops], stops)],
                ["" if k else repr(f) for k, f in zip(count.tolist(), fallback[block].tolist())],
                covered[block].tolist(),
                merged_width.tolist(),
            )
            out.write("".join(rows))

    s_groups = test.group_count
    cell = bins * s_groups + test.group  # one key per (bin, group)
    bin_counts = np.bincount(cell, minlength=partition.m * s_groups).reshape(-1, s_groups)
    bin_hits = np.bincount(cell, weights=covered, minlength=bin_counts.size)  # exact: 0/1 sums
    bin_hits = bin_hits.reshape(-1, s_groups)
    group_counts = bin_counts.sum(axis=0)
    covered_per_group = bin_hits.sum(axis=0)
    with np.errstate(invalid="ignore"):
        picp_groups = np.where(
            group_counts > 0, covered_per_group / np.maximum(group_counts, 1), np.nan
        )
        mpiw_groups = np.where(
            group_counts > 0,
            np.bincount(test.group, weights=width, minlength=s_groups)
            / np.maximum(group_counts, 1),
            np.nan,
        )
        bin_coverage = np.where(bin_counts > 0, bin_hits / np.maximum(bin_counts, 1), np.nan)
    bin_coverage.setflags(write=False)
    bin_counts.setflags(write=False)
    # the mean of each group's non-empty bins, added in bin order as the optimizer adds them
    bin_sums = _bin_sum(np.where(bin_counts > 0, bin_coverage, 0.0))
    nonempty = (bin_counts > 0).sum(axis=0)
    per_group_bin_mean = tuple(
        np.where(group_counts > 0, bin_sums / np.maximum(nonempty, 1), np.nan).tolist()
    )

    present = picp_groups[~np.isnan(picp_groups)]
    gap = float(present.max() - present.min()) if present.size >= 2 else 0.0

    return EvalReport(
        alpha=float(calibrator.alpha),
        n_test=test.n,
        group_counts=tuple(int(c) for c in group_counts),
        covered_total=int(covered.sum()),
        covered_per_group=tuple(int(c) for c in covered_per_group),
        picp_overall=float(covered.mean()),
        mpiw_overall=float(width.mean()),
        picp_per_group=tuple(float(v) for v in picp_groups),
        mpiw_per_group=tuple(float(v) for v in mpiw_groups),
        picp_gap=gap,
        bin_counts=bin_counts,
        bin_coverage=bin_coverage,
        per_group_bin_mean=per_group_bin_mean,
        mae=mae(test.y, point),
        rmse=rmse(test.y, point),
        fallback_count=int((~has_piece).sum()),
        point_source=source,
    )


def _round6(value: float):
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return None
    return round(float(value), 6)


def report_to_json(report: EvalReport) -> str:
    """Canonical JSON rendering: sorted keys, 6-decimal floats.

    Coverage is emitted both as a fraction and as a 2-decimal percent
    string so the unit is never ambiguous. NaN cells become null.
    """
    payload = {
        "alpha": _round6(report.alpha),
        "n_test": report.n_test,
        "group_counts": list(report.group_counts),
        "covered_total": report.covered_total,
        "covered_per_group": list(report.covered_per_group),
        "picp_overall": _round6(report.picp_overall),
        "picp_overall_percent": f"{100.0 * report.picp_overall:.2f}",
        "mpiw_overall": _round6(report.mpiw_overall),
        "picp_per_group": [_round6(v) for v in report.picp_per_group],
        "picp_per_group_percent": [
            None if math.isnan(v) else f"{100.0 * v:.2f}" for v in report.picp_per_group
        ],
        "mpiw_per_group": [_round6(v) for v in report.mpiw_per_group],
        "picp_gap": _round6(report.picp_gap),
        "bin_counts": [[int(c) for c in row] for row in report.bin_counts],
        "bin_coverage": [[_round6(v) for v in row] for row in report.bin_coverage],
        "per_group_bin_mean": [_round6(v) for v in report.per_group_bin_mean],
        "mae": _round6(report.mae),
        "rmse": _round6(report.rmse),
        "fallback_count": report.fallback_count,
        "point_source": report.point_source,
    }
    return json.dumps(payload, sort_keys=True, indent=2)


def comparison_header(group_count: int) -> list[str]:
    cols = ["method", "picp", "mpiw"]
    cols += [f"picp_g{s}" for s in range(group_count)]
    cols += ["picp_gap", "mae", "rmse", "fallback_count"]
    return cols


def comparison_row(method: str, report: EvalReport) -> list[str]:
    """Flat CSV row for the method-comparison table."""
    cells = [method, f"{report.picp_overall:.6f}", f"{report.mpiw_overall:.6f}"]
    cells += [
        "" if math.isnan(v) else f"{v:.6f}" for v in report.picp_per_group
    ]
    cells += [
        f"{report.picp_gap:.6f}",
        f"{report.mae:.6f}",
        f"{report.rmse:.6f}",
        str(report.fallback_count),
    ]
    return cells
