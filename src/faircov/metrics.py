"""Coverage, width, fairness, and accuracy metrics for interval predictors.

Coverage here is always the sample mean of the covered indicator. The
optimizer's internal constraint is a bin-averaged quantity instead, so
reports carry both views plus exact integer counts, letting any
discrepancy or downstream confidence band be recomputed from the report
alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .binning import BinPartition, bin_indices
from .conformal import GlobalThreshold, band_columns
from .core import Dataset, ValidationError
from .fair_calibration import ThresholdTable
from .intervals import IntervalSet, union_covered, union_widths
from .quantile_model import QuantileModel

__all__ = [
    "picp",
    "mpiw",
    "picp_gap",
    "mae",
    "rmse",
    "EvalReport",
    "evaluate",
    "report_to_json",
    "comparison_header",
    "comparison_row",
]


def picp(predictions: list[IntervalSet], labels) -> float:
    """Fraction of labels falling inside their prediction sets."""
    labels = np.asarray(labels, dtype=np.float64)
    if len(predictions) == 0:
        raise ValidationError("cannot score an empty test set")
    if len(predictions) != labels.size:
        raise ValidationError(
            f"got {len(predictions)} predictions for {labels.size} labels"
        )
    hits = sum(1 for pred, y in zip(predictions, labels) if pred.contains(float(y)))
    return hits / labels.size


def mpiw(predictions: list[IntervalSet]) -> float:
    """Mean total width; fallback singletons count as zero."""
    if len(predictions) == 0:
        raise ValidationError("cannot score an empty test set")
    return sum(pred.total_width() for pred in predictions) / len(predictions)


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
    optimizer's view of coverage. Groups absent from the test split get
    NaN coverage and are excluded from the gap.
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
    range the shifts were calibrated on; ``evaluate`` and the predictions
    writer both use it, so their coverage agrees.
    """
    if isinstance(calibrator, ThresholdTable):
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


def evaluate(test: Dataset, model: QuantileModel | None, calibrator) -> EvalReport:
    """Score a calibrated predictor on a test split.

    Accepts either a single global shift or a per-(bin, group) table;
    global shifts are evaluated as a one-bin table spanning the label
    domain, so both paths share the same interval arithmetic. Point
    predictions come from the model median when available, otherwise the
    midpoint of the raw band.
    """
    q_lo, q_hi, partition, r_hat, point, fallback, point_source = _resolve_band(
        test, model, calibrator
    )
    alpha = calibrator.alpha
    bounds = np.asarray(partition.bounds)
    width, has_piece = union_widths(q_lo, q_hi, test.group, r_hat, bounds)
    covered = union_covered(q_lo, q_hi, test.y, test.group, r_hat, bounds, fallback)

    s_groups = test.group_count
    m_bins = partition.m
    group_counts = np.bincount(test.group, minlength=s_groups)
    covered_per_group = np.bincount(
        test.group, weights=covered.astype(np.float64), minlength=s_groups
    ).astype(np.int64)
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

    bins0 = bin_indices(partition, test.y)
    bin_counts = np.zeros((m_bins, s_groups), dtype=np.int64)
    np.add.at(bin_counts, (bins0, test.group), 1)
    bin_hits = np.zeros((m_bins, s_groups))
    np.add.at(bin_hits, (bins0, test.group), covered.astype(np.float64))
    with np.errstate(invalid="ignore"):
        bin_coverage = np.where(bin_counts > 0, bin_hits / np.maximum(bin_counts, 1), np.nan)
    bin_coverage.setflags(write=False)
    bin_counts.setflags(write=False)
    per_group_bin_mean = tuple(
        float(np.nanmean(bin_coverage[:, s])) if group_counts[s] > 0 else math.nan
        for s in range(s_groups)
    )

    present = picp_groups[~np.isnan(picp_groups)]
    gap = float(present.max() - present.min()) if present.size >= 2 else 0.0

    return EvalReport(
        alpha=float(alpha),
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
        point_source=point_source,
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
