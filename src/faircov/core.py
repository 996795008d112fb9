"""Dataset container, CSV ingestion, validation, and seeded splitting.

Data flows through the package as immutable column-oriented datasets.
Labels live on a closed, explicitly configured domain (for example a
clinical score range); group membership is a dense integer id with an
optional display name kept in a sidecar tuple.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ValidationError",
    "EmptyCellError",
    "DivergenceError",
    "SplitSpec",
    "Dataset",
    "load_dataset",
    "write_dataset",
    "split_dataset",
]

_FEATURE_RE = re.compile(r"^x(\d+)$")


class ValidationError(ValueError):
    """Raised when input data or configuration violates a documented contract."""


class EmptyCellError(ValidationError):
    """Raised when a (bin, group) calibration cell holds no records."""

    def __init__(self, bin_number: int, group: int):
        self.bin_number = bin_number
        self.group = group
        super().__init__(
            f"calibration cell (bin {bin_number}, group {group}) is empty; "
            "reduce the bin count or supply more calibration data"
        )


class DivergenceError(ArithmeticError):
    """Raised when an iterative fit produces a non-finite loss."""

    def __init__(self, epoch: int, message: str | None = None):
        self.epoch = epoch
        super().__init__(message or f"training loss became non-finite at epoch {epoch}")


@dataclass(frozen=True)
class SplitSpec:
    """Train/calibration/test fractions and the shuffle seed."""

    fractions: tuple[float, float, float]
    seed: int

    def __post_init__(self):
        if len(self.fractions) != 3:
            raise ValidationError("exactly three split fractions are required")
        if any(f < 0 or f > 1 for f in self.fractions):
            raise ValidationError(f"split fractions must lie in [0, 1], got {self.fractions}")
        total = sum(self.fractions)
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"split fractions must sum to 1, got {total!r}")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """Immutable column-oriented dataset.

    Parameters
    ----------
    ids : tuple of str
        Stable record identifiers, one per row.
    y : ndarray
        Labels, finite, inside ``label_domain``.
    group : ndarray
        Dense integer group ids in ``[0, group_count)``.
    label_domain : (float, float)
        Closed label range. Explicit configuration, never inferred.
    group_count : int
        Number of groups S. Every group id must be smaller.
    q_lo, q_hi : ndarray, optional
        Raw lower/upper quantile predictions. Must satisfy ``q_lo <= q_hi``.
    features : ndarray, optional
        Feature matrix of shape (n, d); d may be zero.
    group_names : tuple of str, optional
        Display names, one per group id.
    """

    ids: tuple[str, ...]
    y: np.ndarray
    group: np.ndarray
    label_domain: tuple[float, float]
    group_count: int
    q_lo: np.ndarray | None = None
    q_hi: np.ndarray | None = None
    features: np.ndarray | None = None
    group_names: tuple[str, ...] | None = field(default=None)

    def __post_init__(self):
        y = _readonly(np.asarray(self.y, dtype=np.float64))
        group = _readonly(np.asarray(self.group, dtype=np.int64))
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "group", group)
        n = y.shape[0]
        if len(self.ids) != n or group.shape[0] != n:
            raise ValidationError("ids, y, and group must have equal length")
        lo, hi = self.label_domain
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValidationError(f"label domain must be a finite ordered pair, got {self.label_domain}")
        if not np.all(np.isfinite(y)):
            raise ValidationError("labels must be finite")
        if n and (y.min() < lo or y.max() > hi):
            bad = int(np.argmax((y < lo) | (y > hi)))
            raise ValidationError(
                f"label {y[bad]!r} at row {bad} falls outside the label domain [{lo}, {hi}]"
            )
        if self.group_count < 1:
            raise ValidationError("group_count must be at least 1")
        if n and (group.min() < 0 or group.max() >= self.group_count):
            bad = int(np.argmax((group < 0) | (group >= self.group_count)))
            raise ValidationError(
                f"unknown group id {group[bad]} at row {bad}; declared group count is {self.group_count}"
            )
        if (self.q_lo is None) != (self.q_hi is None):
            raise ValidationError("q_lo and q_hi must be supplied together")
        if self.q_lo is not None:
            q_lo = _readonly(np.asarray(self.q_lo, dtype=np.float64))
            q_hi = _readonly(np.asarray(self.q_hi, dtype=np.float64))
            object.__setattr__(self, "q_lo", q_lo)
            object.__setattr__(self, "q_hi", q_hi)
            if q_lo.shape != (n,) or q_hi.shape != (n,):
                raise ValidationError("q_lo and q_hi must be vectors matching the label length")
            if not (np.all(np.isfinite(q_lo)) and np.all(np.isfinite(q_hi))):
                raise ValidationError("quantile bounds must be finite")
            if n and np.any(q_lo > q_hi):
                bad = int(np.argmax(q_lo > q_hi))
                raise ValidationError(f"q_lo exceeds q_hi at row {bad}")
        if self.features is not None:
            feats = np.asarray(self.features, dtype=np.float64)
            if feats.ndim != 2 or feats.shape[0] != n:
                raise ValidationError("features must be a 2-d array with one row per record")
            if not np.all(np.isfinite(feats)):
                raise ValidationError("features must be finite")
            object.__setattr__(self, "features", _readonly(feats))
        if self.group_names is not None and len(self.group_names) != self.group_count:
            raise ValidationError("group_names must supply one name per group id")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def feature_dim(self) -> int:
        return 0 if self.features is None else self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(
            ids=tuple(self.ids[i] for i in idx),
            y=self.y[idx],
            group=self.group[idx],
            label_domain=self.label_domain,
            group_count=self.group_count,
            q_lo=None if self.q_lo is None else self.q_lo[idx],
            q_hi=None if self.q_hi is None else self.q_hi[idx],
            features=None if self.features is None else self.features[idx],
            group_names=self.group_names,
        )

    def with_predictions(self, q_lo: np.ndarray, q_hi: np.ndarray) -> "Dataset":
        """Return a copy carrying the given quantile bounds."""
        return Dataset(
            ids=self.ids,
            y=self.y,
            group=self.group,
            label_domain=self.label_domain,
            group_count=self.group_count,
            q_lo=q_lo,
            q_hi=q_hi,
            features=self.features,
            group_names=self.group_names,
        )


_DEFAULT_SCHEMA = {"id": "id", "y": "y", "group": "group", "q_lo": "q_lo", "q_hi": "q_hi"}


def _parse_float(raw: str, column: str, row: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValidationError(f"non-numeric value {raw!r} in column {column!r} at row {row}") from None


def load_dataset(
    path: str,
    label_domain: tuple[float, float],
    schema: dict[str, str] | None = None,
    group_count: int | None = None,
) -> Dataset:
    """Load a CSV dataset.

    The file must carry id, label, and group columns, optionally quantile
    bound columns and feature columns named ``x0..x{d-1}``. ``schema`` maps
    the logical column names (id, y, group, q_lo, q_hi) to the actual
    header names. Crossing quantile bounds are reordered so that
    ``q_lo <= q_hi`` always holds. Every declared group must appear at
    least once.
    """
    names = dict(_DEFAULT_SCHEMA)
    if schema:
        names.update(schema)
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ValidationError(f"cannot open dataset file {path!r}: {exc}") from None
    with fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for logical in ("id", "y", "group"):
            if names[logical] not in header:
                raise ValidationError(f"missing required column {names[logical]!r} in {path!r}")
        has_q = names["q_lo"] in header or names["q_hi"] in header
        if has_q and (names["q_lo"] not in header or names["q_hi"] not in header):
            raise ValidationError("quantile bound columns must be supplied together")
        feat_cols = sorted(
            (int(m.group(1)), col)
            for col in header
            if (m := _FEATURE_RE.match(col))
        )
        if feat_cols and [i for i, _ in feat_cols] != list(range(len(feat_cols))):
            raise ValidationError("feature columns must be consecutively named x0..x{d-1}")
        ids: list[str] = []
        ys: list[float] = []
        groups: list[int] = []
        qlo: list[float] = []
        qhi: list[float] = []
        feats: list[list[float]] = []
        for row_no, row in enumerate(reader, start=1):
            ids.append(row[names["id"]])
            ys.append(_parse_float(row[names["y"]], names["y"], row_no))
            g_raw = row[names["group"]]
            try:
                g = int(g_raw)
            except ValueError:
                raise ValidationError(
                    f"non-integer group id {g_raw!r} at row {row_no}"
                ) from None
            groups.append(g)
            if has_q:
                a = _parse_float(row[names["q_lo"]], names["q_lo"], row_no)
                b = _parse_float(row[names["q_hi"]], names["q_hi"], row_no)
                if a > b:
                    a, b = b, a
                qlo.append(a)
                qhi.append(b)
            if feat_cols:
                feats.append([_parse_float(row[col], col, row_no) for _, col in feat_cols])
    if not ids:
        raise ValidationError(f"empty dataset: {path!r} has a header but no rows")
    garr = np.asarray(groups, dtype=np.int64)
    s = group_count if group_count is not None else int(garr.max()) + 1
    present = np.unique(garr)
    if present.min() < 0 or present.max() >= s:
        bad = int(present[present >= s][0]) if present.max() >= s else int(present.min())
        raise ValidationError(f"unknown group id {bad}; declared group count is {s}")
    missing = sorted(set(range(s)) - set(int(g) for g in present))
    if missing:
        raise ValidationError(f"group ids must be dense: no records for group(s) {missing}")
    return Dataset(
        ids=tuple(ids),
        y=np.asarray(ys),
        group=garr,
        label_domain=(float(label_domain[0]), float(label_domain[1])),
        group_count=s,
        q_lo=np.asarray(qlo) if has_q else None,
        q_hi=np.asarray(qhi) if has_q else None,
        features=np.asarray(feats) if feat_cols else None,
    )


def write_dataset(dataset: Dataset, path: str) -> None:
    """Write a dataset back to CSV with full round-trip float precision."""
    header = ["id", "y", "group"]
    if dataset.q_lo is not None:
        header += ["q_lo", "q_hi"]
    header += [f"x{j}" for j in range(dataset.feature_dim)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(dataset.n):
            row: list[str] = [dataset.ids[i], repr(float(dataset.y[i])), str(int(dataset.group[i]))]
            if dataset.q_lo is not None:
                row += [repr(float(dataset.q_lo[i])), repr(float(dataset.q_hi[i]))]
            if dataset.features is not None:
                row += [repr(float(v)) for v in dataset.features[i]]
            writer.writerow(row)


def split_dataset(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Split into train/calibration/test parts by a seeded shuffle.

    Part sizes follow cumulative rounding of the fractions so they always
    cover the dataset exactly. The calibration and test parts must be
    non-empty.
    """
    n = dataset.n
    perm = np.random.default_rng(spec.seed).permutation(n)
    f1, f2, _ = spec.fractions
    c1 = int(np.floor(f1 * n + 0.5))
    c2 = int(np.floor((f1 + f2) * n + 0.5))
    parts = (perm[:c1], perm[c1:c2], perm[c2:])
    if parts[1].size == 0:
        raise ValidationError("split produced an empty calibration part")
    if parts[2].size == 0:
        raise ValidationError("split produced an empty test part")
    return tuple(dataset.subset(p) for p in parts)  # type: ignore[return-value]
