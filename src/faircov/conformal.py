"""Split conformal calibration of quantile bands.

The conformity score of a record measures how far its label falls outside
the raw quantile band: ``max(q_lo - y, y - q_hi)``. Negative scores mean
the band already contains the label with margin. Shifting both band edges
outward by the finite-sample empirical quantile of the calibration scores
yields intervals with guaranteed marginal coverage under exchangeability.

A constant-width baseline is included: absolute residuals around the
median prediction, calibrated the same way.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, ValidationError
from .quantile_model import QuantileModel

__all__ = [
    "GlobalThreshold",
    "cqr_score",
    "empirical_quantile",
    "cqr_calibrate",
    "split_cp_calibrate",
    "conformity_scores",
    "band_columns",
]


@dataclass(frozen=True)
class GlobalThreshold:
    """A single calibrated shift applied to every prediction.

    ``method`` is ``"cqr"`` (shift both quantile band edges) or ``"cp"``
    (constant half-width around the median prediction).
    """

    method: str
    alpha: float
    r_hat: float
    n_cal: int

    def __post_init__(self):
        if self.method not in ("cqr", "cp"):
            raise ValidationError(f"unknown calibration method {self.method!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.n_cal < 1:
            raise ValidationError("calibration size must be positive")
        if not np.isfinite(self.r_hat):
            raise ValidationError(f"calibrated shift must be finite, got {self.r_hat}")

    def to_json(self) -> str:
        payload = {
            "method": self.method,
            "alpha": self.alpha,
            "r_hat": self.r_hat,
            "n_cal": self.n_cal,
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "GlobalThreshold":
        p = json.loads(text)
        return cls(method=p["method"], alpha=float(p["alpha"]), r_hat=float(p["r_hat"]), n_cal=int(p["n_cal"]))


def cqr_score(q_lo, q_hi, y):
    """Conformity score ``max(q_lo - y, y - q_hi)``.

    Accepts scalars or aligned arrays; raises if any band is inverted.
    """
    q_lo = np.asarray(q_lo, dtype=np.float64)
    q_hi = np.asarray(q_hi, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if np.any(q_lo > q_hi):
        raise ValidationError("q_lo exceeds q_hi; quantile bands must be ordered")
    out = np.maximum(q_lo - y, y - q_hi)
    return float(out) if out.ndim == 0 else out


def empirical_quantile(scores, level: float) -> float:
    """Finite-sample empirical quantile used for conformal calibration.

    Returns the k-th smallest score with ``k = ceil((n + 1) * level)``,
    clamped to n. No interpolation: the result is always an observed
    score, and ties resolve through the order statistics themselves.
    """
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError("scores must be a non-empty vector")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("scores must be finite")
    if not 0.0 < level < 1.0:
        raise ValidationError(f"quantile level must lie in (0, 1), got {level}")
    n = arr.size
    k = min(n, math.ceil((n + 1) * level))
    return float(np.sort(arr)[k - 1])


def band_columns(
    dataset: Dataset, model: QuantileModel | None, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Resolve (q_lo, q_hi, median) columns for a dataset.

    With a model, bands are predicted from the feature columns; without
    one, the dataset must already carry quantile bound columns and the
    median is unavailable (returned as None).
    """
    if model is not None:
        if dataset.features is None:
            raise ValidationError("dataset has no feature columns to run the model on")
        q_lo, med, q_hi = model.band(dataset.features, alpha)
        return q_lo, q_hi, med
    if dataset.q_lo is None or dataset.q_hi is None:
        raise ValidationError(
            "dataset carries no quantile bound columns and no model was supplied"
        )
    return dataset.q_lo, dataset.q_hi, None


def conformity_scores(dataset: Dataset, model: QuantileModel | None, alpha: float) -> np.ndarray:
    """Conformity scores for every record, in dataset order."""
    q_lo, q_hi, _ = band_columns(dataset, model, alpha)
    return cqr_score(q_lo, q_hi, dataset.y)


def cqr_calibrate(cal: Dataset, model: QuantileModel | None, alpha: float) -> GlobalThreshold:
    """Calibrate a single band shift from conformity scores."""
    scores = conformity_scores(cal, model, alpha)
    return GlobalThreshold(
        method="cqr",
        alpha=alpha,
        r_hat=empirical_quantile(scores, 1.0 - alpha),
        n_cal=cal.n,
    )


def split_cp_calibrate(cal: Dataset, model: QuantileModel | None, alpha: float) -> GlobalThreshold:
    """Calibrate the constant-width baseline from absolute median residuals."""
    _, _, med = band_columns(cal, model, alpha)
    if med is None:
        raise ValidationError(
            "the constant-width baseline needs median predictions; supply a model"
        )
    residuals = np.abs(cal.y - med)
    return GlobalThreshold(
        method="cp",
        alpha=alpha,
        r_hat=empirical_quantile(residuals, 1.0 - alpha),
        n_cal=cal.n,
    )
