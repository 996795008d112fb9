"""The predictions writer and the vector views against a scalar reference.

The reference renders each record the way the per-record path always
has: every bin's piece ``[q_lo - r, q_hi + r]`` clipped with Python
``max``/``min``, normalized by ``IntervalSet.from_pieces``, and printed
with ``repr``. A global shift is a one-bin table over the label domain,
and a ``cp`` shift is a band collapsed onto the median.
"""

import csv
import io
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from faircov import GlobalThreshold, IntervalSet, QuantileLevels, QuantileModel, ThresholdTable
from faircov.binning import BinPartition
from faircov.cli import _write_predictions
from faircov.conformal import band_columns
from faircov.intervals import union_covered, union_widths
from faircov.metrics import evaluate

from conftest import make_dataset

BOUNDS = (0.0, 2.0, 5.0, 10.0)


def reference_interval(q_lo, q_hi, group, r_hat, bounds, median):
    pieces = []
    for m in range(len(bounds) - 1):
        r = float(r_hat[m, group])
        a = max(q_lo - r, bounds[m])
        b = min(q_hi + r, bounds[m + 1])
        if b >= a:
            pieces.append((a, b))
    fallback = float(min(max(median, bounds[0]), bounds[-1]))
    return IntervalSet.from_pieces(pieces, fallback=fallback)


def reference_csv(test, model, calibrator) -> str:
    q_lo, q_hi, med = band_columns(test, model, calibrator.alpha)
    if isinstance(calibrator, ThresholdTable):
        bounds, r_hat = calibrator.partition.bounds, calibrator.r_hat
    else:
        bounds = test.label_domain
        r_hat = np.full((1, test.group_count), calibrator.r_hat)
        if calibrator.method == "cp":
            q_lo = q_hi = med
    point = med if med is not None else (q_lo + q_hi) / 2.0
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["id", "group", "components", "fallback", "covered", "width"])
    for i in range(test.n):
        pred = reference_interval(
            float(q_lo[i]), float(q_hi[i]), int(test.group[i]), r_hat, bounds, float(point[i])
        )
        writer.writerow(
            [
                test.ids[i],
                int(test.group[i]),
                pred.as_text(),
                "" if pred.fallback_point is None else repr(pred.fallback_point),
                int(pred.contains(float(test.y[i]))),
                repr(pred.total_width()),
            ]
        )
    return buf.getvalue()


def adversarial_records():
    """Bands that touch bin bounds, collapse to points or leave the domain,
    crossed with labels on and next to the bounds."""
    bands = [
        (1.0, 3.0),  # spans the bound at 2
        (2.0, 2.0),  # a point on a bound
        (5.0, 5.0),
        (4.9, 5.1),
        (-1.0, 0.5),  # starts below the domain
        (9.5, 12.0),  # ends above it
        (0.1, 0.7),
        (1.7, 5.3),
        (0.3, 9.9),
        (2.0, 5.0),  # exactly one bin
    ]
    labels = [0.0, 2.0, 5.0, 10.0, 2.0000000000000004, 4.9, 0.7]
    rows = list(itertools.product(bands, (0, 1), labels))
    q_lo = [lo for (lo, _), _, _ in rows]
    q_hi = [hi for (_, hi), _, _ in rows]
    group = [g for _, g, _ in rows]
    y = [v for _, _, v in rows]
    features = np.array([[(lo + hi) / 2.0] for lo, hi in zip(q_lo, q_hi)])
    return make_dataset(y, group, q_lo=q_lo, q_hi=q_hi, domain=(0.0, 10.0), features=features)


# median = feature, band = feature -1 / +1.5
MODEL = QuantileModel(
    weights=np.ones((3, 1)),
    bias=np.array([-1.0, 0.0, 1.5]),
    levels=QuantileLevels.for_alpha(0.1),
    seed=0,
    loss_trace=(),
)


def table(r_hat):
    r = np.asarray(r_hat, dtype=np.float64)
    return ThresholdTable(
        r_hat=r,
        global_r_hat=0.0,
        alpha=0.1,
        partition=BinPartition(bounds=BOUNDS, counts=(1, 1, 1)),
        group_count=2,
    )


CALIBRATORS = {
    "touching": table([[0.0, 1.0], [0.0, -1.0], [0.0, 0.3]]),
    "zero_width": table([[-0.5, 0.0], [0.0, -0.5], [-0.5, 0.0]]),
    "all_empty": table([[-20.0, -20.0], [-20.0, -20.0], [-20.0, -20.0]]),
    "decimals": table([[0.1, -0.7], [0.2, 2.5], [-0.3, 0.05]]),
    "cqr": GlobalThreshold(method="cqr", alpha=0.1, r_hat=0.3, n_cal=10),
    "cqr_empty": GlobalThreshold(method="cqr", alpha=0.1, r_hat=-8.0, n_cal=10),
    "cp": GlobalThreshold(method="cp", alpha=0.1, r_hat=0.7, n_cal=10),
    "cp_zero_width": GlobalThreshold(method="cp", alpha=0.1, r_hat=0.0, n_cal=10),
    "cp_empty": GlobalThreshold(method="cp", alpha=0.1, r_hat=-0.1, n_cal=10),
}


# the constant-width baseline needs a model's median
CASES = [
    pytest.param(name, model, id=f"{name}-{'model' if model else 'band_columns'}")
    for name in sorted(CALIBRATORS)
    for model in (None, MODEL)
    if model is not None or not name.startswith("cp")
]


@pytest.mark.parametrize("name, model", CASES)
def test_writer_matches_reference_bytes(tmp_path, name, model):
    calibrator = CALIBRATORS[name]
    test = adversarial_records()
    path = tmp_path / "predictions.csv"
    _write_predictions(str(path), test, model, calibrator)
    with open(path, newline="") as fh:
        written = fh.read()
    assert written == reference_csv(test, model, calibrator)


def test_adversarial_cases_are_reached():
    """The fixture exercises touching merges, zero widths and fallbacks."""
    test = adversarial_records()
    texts = {}
    for name in ("touching", "zero_width", "all_empty", "cp_zero_width"):
        model = MODEL if name.startswith("cp") else None
        out = io.StringIO(reference_csv(test, model, CALIBRATORS[name]))
        texts[name] = list(csv.DictReader(out))
    assert any(row["components"] == "1.0:3.0" for row in texts["touching"])
    assert any(
        row["width"] == "0.0" and row["components"] for row in texts["zero_width"]
    )
    assert all(row["fallback"] for row in texts["all_empty"])
    assert "10.0" in {row["fallback"] for row in texts["all_empty"]}  # clipped midpoint
    assert all(row["width"] == "0.0" for row in texts["cp_zero_width"])


@st.composite
def random_tables(draw):
    m_bins = draw(st.integers(1, 8))
    s_groups = draw(st.integers(1, 5))
    grid = st.integers(-40, 120).map(lambda k: k / 8.0)
    cuts = draw(st.lists(st.integers(1, 79), min_size=m_bins - 1, max_size=m_bins - 1, unique=True))
    bounds = np.array([0.0, *sorted(c / 8.0 for c in cuts), 10.0])
    shift = st.one_of(grid.map(lambda v: v - 5.0), st.floats(-6.0, 6.0, allow_nan=False))
    r_hat = np.array(draw(st.lists(shift, min_size=m_bins * s_groups, max_size=m_bins * s_groups)))
    n = draw(st.integers(1, 12))
    label = st.one_of(st.sampled_from(list(bounds)), st.floats(0.0, 10.0, allow_nan=False))
    edge = st.one_of(grid, st.floats(-5.0, 15.0, allow_nan=False))
    ends = draw(st.lists(st.tuples(edge, edge), min_size=n, max_size=n))
    q_lo = np.array([min(a, b) for a, b in ends])
    q_hi = np.array([max(a, b) for a, b in ends])
    y = np.array(draw(st.lists(label, min_size=n, max_size=n)))
    group = np.array(draw(st.lists(st.integers(0, s_groups - 1), min_size=n, max_size=n)))
    return q_lo, q_hi, y, group, r_hat.reshape(m_bins, s_groups), bounds


@given(random_tables())
def test_vector_views_match_per_record_sets(case):
    q_lo, q_hi, y, group, r_hat, bounds = case
    point = (q_lo + q_hi) / 2.0
    fallback = np.clip(point, bounds[0], bounds[-1])
    width, has_piece = union_widths(q_lo, q_hi, group, r_hat, bounds)
    covered = union_covered(q_lo, q_hi, y, group, r_hat, bounds, fallback)
    for i in range(y.size):
        ref = reference_interval(
            float(q_lo[i]), float(q_hi[i]), int(group[i]), r_hat, tuple(bounds), float(point[i])
        )
        assert bool(covered[i]) == ref.contains(float(y[i]))
        assert bool(has_piece[i]) == bool(ref.components)
        np.testing.assert_allclose(width[i], ref.total_width(), rtol=1e-12, atol=0.0)


def test_report_and_writer_clip_the_fallback_to_the_calibration_domain(tmp_path):
    # a table calibrated on [0, 10] with every piece empty, scored on a test
    # file read with the narrower domain [0, 8]: the fallback is the band
    # midpoint 9.0, which misses y = 8 in both artifacts
    test = make_dataset([8.0], [0], q_lo=[8.5], q_hi=[9.5], domain=(0.0, 8.0), group_count=2)
    calibrator = CALIBRATORS["all_empty"]
    path = tmp_path / "predictions.csv"
    _write_predictions(str(path), test, None, calibrator)
    with open(path, newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    report = evaluate(test, None, calibrator)
    assert (row["fallback"], row["covered"]) == ("9.0", "0")
    assert report.covered_total == 0
