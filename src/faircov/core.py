"""Dataset container, CSV ingestion, validation, and seeded splitting.

Data flows through the package as immutable column-oriented datasets.
Labels live on a closed, explicitly configured domain (for example a
clinical score range); group membership is a dense integer id.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ValidationError",
    "EmptyCellError",
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


@dataclass(frozen=True)
class SplitSpec:
    """Train/calibration/test fractions and the shuffle seed."""

    fractions: tuple[float, float, float]
    seed: int

    def __post_init__(self):
        if len(self.fractions) != 3:
            raise ValidationError("exactly three split fractions are required")
        if any(not 0.0 <= f <= 1.0 for f in self.fractions):  # NaN fails too
            raise ValidationError(f"split fractions must lie in [0, 1], got {self.fractions}")
        total = sum(self.fractions)
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"split fractions must sum to 1, got {total!r}")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _check_id(raw: str, row: int) -> None:
    if "\x00" in raw:
        raise ValidationError(f"id {raw!r} at row {row} contains a NUL character")


def _check_ids(ids: np.ndarray) -> None:
    """Refuse an id holding NUL, as :func:`load_dataset` would on reading it.

    numpy pads ids with NUL code points, so an inner NUL is a 0 followed
    by a non-zero code point.
    """
    codes = ids.view(np.uint32).reshape(ids.size, ids.itemsize // 4)
    inner = ((codes[:, :-1] == 0) & (codes[:, 1:] != 0)).any(axis=1)
    if inner.any():
        row = int(np.argmax(inner))
        _check_id(str(ids[row]), row)


_CSV_SPECIAL = re.compile('[,"\r\n]')


def _csv_ids(ids: list[str]) -> list[str]:
    """Quote a block of ids as ``csv.writer``'s default dialect does.

    An id holding ``,`` ``"`` CR or LF is quoted with its quotes doubled;
    one scan of the joined block finds whether any id needs it.
    """
    if not _CSV_SPECIAL.search("".join(ids)):
        return ids
    return ['"' + i.replace('"', '""') + '"' if _CSV_SPECIAL.search(i) else i for i in ids]


@dataclass(frozen=True)
class Dataset:
    """Immutable column-oriented dataset.

    Parameters
    ----------
    ids : ndarray of str
        Stable record identifiers, one per row, held as one read-only
        numpy ``str`` array as wide as the longest id: 4 bytes per
        character of that id, for every row. An id must not contain NUL:
        numpy drops it from the end of a string, so ids given as Python
        strings are checked for it.
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
    """

    ids: np.ndarray
    y: np.ndarray
    group: np.ndarray
    label_domain: tuple[float, float]
    group_count: int
    q_lo: np.ndarray | None = None
    q_hi: np.ndarray | None = None
    features: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.ids, np.ndarray) and "\x00" in "".join(self.ids):
            for row, raw in enumerate(self.ids):
                _check_id(raw, row)
        ids = _readonly(np.asarray(self.ids, dtype=str))
        y = _readonly(np.asarray(self.y, dtype=np.float64))
        group = _readonly(np.asarray(self.group, dtype=np.int64))
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "group", group)
        n = y.shape[0]
        if ids.shape != (n,) or group.shape[0] != n:
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

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def feature_dim(self) -> int:
        return 0 if self.features is None else self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(
            ids=self.ids[idx],
            y=self.y[idx],
            group=self.group[idx],
            label_domain=self.label_domain,
            group_count=self.group_count,
            q_lo=None if self.q_lo is None else self.q_lo[idx],
            q_hi=None if self.q_hi is None else self.q_hi[idx],
            features=None if self.features is None else self.features[idx],
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
        )


_DEFAULT_SCHEMA = {"id": "id", "y": "y", "group": "group", "q_lo": "q_lo", "q_hi": "q_hi"}


def _parse_float(raw: str, column: str, row: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValidationError(f"non-numeric value {raw!r} in column {column!r} at row {row}") from None


# Rows per block read or written: only one block's field strings are
# alive at a time, not the whole file's.
_READ_BLOCK = 4096
_DTYPES = {float: np.float64, int: np.int64}


def _check_rows(rows, first_row: int, width: int, fields) -> None:
    """Raise the first error in ``rows``, checked row by row.

    ``fields`` lists ``(column name, index, parser)`` in the order a row
    is read. A block whose column-wise parse failed is rescanned here,
    so the error names the same row and column as a per-row reader.
    """
    for row_no, row in enumerate(rows, start=first_row):
        for name, j, parse in fields:
            if j >= len(row):
                raise ValidationError(f"row {row_no} has {len(row)} fields; the header has {width}")
            if parse is str:
                _check_id(row[j], row_no)
            elif parse is float:
                _parse_float(row[j], name, row_no)
            elif parse is int:
                try:
                    value = int(row[j])
                except ValueError:
                    raise ValidationError(f"non-integer group id {row[j]!r} at row {row_no}") from None
                if not -(2**63) <= value < 2**63:
                    raise ValidationError(f"group id {value} at row {row_no} is out of range")


@contextlib.contextmanager
def _csv_errors(reader, path: str):
    """Turn a row ``csv`` cannot parse, or text that is not UTF-8, into a ValidationError."""
    try:
        yield
    except csv.Error as exc:
        raise ValidationError(f"cannot parse {path!r} at line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"dataset file {path!r} is not UTF-8: {exc.reason}") from None


def load_dataset(
    path: str,
    label_domain: tuple[float, float],
    schema: dict[str, str] | None = None,
    group_count: int | None = None,
) -> Dataset:
    """Load a CSV dataset, read as UTF-8 after any byte-order mark.

    The file must carry id, label, and group columns, optionally quantile
    bound columns and feature columns named ``x0..x{d-1}``. ``schema`` maps
    the logical column names (id, y, group, q_lo, q_hi) to the actual
    header names. Crossing quantile bounds are reordered so that
    ``q_lo <= q_hi`` always holds. Every declared group must appear at
    least once.

    Blank lines are skipped and not counted as rows. When a header name
    repeats, its last column is read; fields past the header are
    ignored, and a row too short to hold a column that is read is an
    error. Values are parsed by ``float`` and ``int``, a block of rows
    per column at a time.
    """
    names = dict(_DEFAULT_SCHEMA)
    if schema:
        names.update(schema)
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise ValidationError(f"cannot open dataset file {path!r}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        with _csv_errors(reader, path):
            header = next(reader, [])
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
        # a repeated header name reads its last column
        index = {name: j for j, name in enumerate(header)}
        parsed = ["y", "group", *(("q_lo", "q_hi") if has_q else ())]
        fields = [(names[key], index[names[key]], int if key == "group" else float) for key in parsed]
        fields += [(name, index[name], float) for _, name in feat_cols]
        id_field = (names["id"], index[names["id"]], str)
        blocks: list[list[np.ndarray]] = []
        rows = filter(None, reader)  # csv yields [] for a blank line
        first_row = 1
        while True:
            with _csv_errors(reader, path):
                block = list(itertools.islice(rows, _READ_BLOCK))
            if not block:
                break
            columns = list(zip(*block))  # as many columns as the shortest row
            try:
                ids = columns[id_field[1]]
                if "\x00" in "".join(ids):
                    raise ValueError("an id holds a NUL")  # the rescan names its row
                blocks.append(
                    [
                        np.asarray(ids, dtype=str),
                        *(
                            np.fromiter(map(parse, columns[j]), _DTYPES[parse], len(block))
                            for _, j, parse in fields
                        ),
                    ]
                )
            except (IndexError, ValueError, OverflowError):
                _check_rows(block, first_row, len(header), [*fields, id_field])
                raise
            first_row += len(block)
    if not blocks:
        raise ValidationError(f"empty dataset: {path!r} has a header but no rows")
    ids, ys, garr, *rest = (np.concatenate(column) for column in zip(*blocks))
    qlo = qhi = None
    if has_q:
        a, b, *rest = rest
        crossed = a > b  # the swap of a per-row reorder, bit for bit (np.minimum moves -0.0)
        qlo, qhi = np.where(crossed, b, a), np.where(crossed, a, b)
    s = group_count if group_count is not None else int(garr.max()) + 1
    present = np.unique(garr)
    if present.min() < 0 or present.max() >= s:
        bad = int(present[present >= s][0]) if present.max() >= s else int(present.min())
        raise ValidationError(f"unknown group id {bad}; declared group count is {s}")
    missing = sorted(set(range(s)) - set(int(g) for g in present))
    if missing:
        raise ValidationError(f"group ids must be dense: no records for group(s) {missing}")
    return Dataset(
        ids=ids,
        y=ys,
        group=garr,
        label_domain=(float(label_domain[0]), float(label_domain[1])),
        group_count=s,
        q_lo=qlo,
        q_hi=qhi,
        features=np.stack(rest, axis=1) if feat_cols else None,
    )


def write_dataset(dataset: Dataset, path: str) -> None:
    """Write a dataset to CSV with full round-trip float precision.

    The text is built and written ``_READ_BLOCK`` rows at a time, one
    format string per row: floats as their ``repr``, ids quoted as
    ``csv.writer`` quotes them (an id holding ``,`` ``"`` CR or LF is
    quoted with its quotes doubled). An id holding NUL is refused before
    the file is opened.
    """
    _check_ids(dataset.ids)
    header = ["id", "y", "group"]
    columns = [dataset.ids, dataset.y, dataset.group]
    if dataset.q_lo is not None:
        header += ["q_lo", "q_hi"]
        columns += [dataset.q_lo, dataset.q_hi]
    header += [f"x{j}" for j in range(dataset.feature_dim)]
    if dataset.features is not None:
        columns += list(dataset.features.T)
    # .tolist() gives Python floats and ints: repr of each is the text of the numpy value
    row = ",".join(["{}", "{!r}", "{}", *["{!r}"] * (len(columns) - 3)]) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, dataset.n, _READ_BLOCK):
            ids, *rest = (column[lo : lo + _READ_BLOCK].tolist() for column in columns)
            fh.write("".join(map(row.format, _csv_ids(ids), *rest)))


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
