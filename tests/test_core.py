"""Dataset container, CSV round-trip, and split behavior."""

import csv
import importlib
import pkgutil

import numpy as np
import pytest

import faircov
from faircov import (
    Dataset,
    SplitSpec,
    ValidationError,
    load_dataset,
    split_dataset,
    write_dataset,
)

from conftest import make_dataset


def write_csv(path, rows, header="id,y,group"):
    path.write_text("\n".join([header] + rows) + "\n")
    return str(path)


class TestDatasetValidation:
    def test_basic_construction(self):
        d = make_dataset([1.0, 2.0], [0, 1])
        assert d.n == 2
        assert d.group_count == 2
        assert d.feature_dim == 0

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            Dataset(ids=("a",), y=np.array([1.0, 2.0]), group=np.array([0, 0]),
                    label_domain=(0.0, 10.0), group_count=1)

    def test_label_outside_domain(self):
        with pytest.raises(ValidationError, match="outside the label domain"):
            make_dataset([11.0], [0])

    def test_unknown_group_id(self):
        with pytest.raises(ValidationError, match="unknown group"):
            make_dataset([1.0], [5], group_count=2)

    def test_crossed_quantiles_rejected(self):
        with pytest.raises(ValidationError, match="q_lo exceeds q_hi"):
            make_dataset([1.0], [0], q_lo=[3.0], q_hi=[2.0])

    def test_lone_quantile_column_rejected(self):
        with pytest.raises(ValidationError, match="together"):
            Dataset(ids=("a",), y=np.array([1.0]), group=np.array([0]),
                    label_domain=(0.0, 10.0), group_count=1, q_lo=np.array([0.5]))

    def test_non_finite_label_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            make_dataset([np.nan], [0])

    def test_arrays_are_immutable(self):
        d = make_dataset([1.0, 2.0], [0, 1])
        with pytest.raises(ValueError):
            d.y[0] = 5.0

    def test_subset_preserves_metadata(self):
        d = make_dataset([1.0, 2.0, 3.0], [0, 1, 0], q_lo=[0, 1, 2], q_hi=[2, 3, 4])
        sub = d.subset(np.array([2, 0]))
        assert sub.n == 2
        assert sub.ids == ("r2", "r0")
        assert sub.group_count == d.group_count
        assert sub.label_domain == d.label_domain
        np.testing.assert_array_equal(sub.y, [3.0, 1.0])

    def test_with_predictions(self):
        d = make_dataset([1.0, 2.0], [0, 1])
        d2 = d.with_predictions(np.array([0.0, 1.0]), np.array([2.0, 3.0]))
        np.testing.assert_array_equal(d2.q_lo, [0.0, 1.0])
        assert d.q_lo is None


class TestLoadDataset:
    def test_four_row_csv(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a,1,0", "b,2,1", "c,3,0", "d,4,1"])
        d = load_dataset(path, (0.0, 10.0))
        assert d.n == 4
        assert d.group_count == 2
        assert d.ids == ("a", "b", "c", "d")  # file order preserved

    def test_unknown_group_vs_declared_count(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a,1,0", "b,2,5"])
        with pytest.raises(ValidationError, match="unknown group"):
            load_dataset(path, (0.0, 10.0), group_count=2)

    def test_header_only(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [])
        with pytest.raises(ValidationError, match="empty dataset"):
            load_dataset(path, (0.0, 10.0))

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a,1"], header="id,y")
        with pytest.raises(ValidationError, match="missing required column"):
            load_dataset(path, (0.0, 10.0))

    def test_non_numeric_label(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a,oops,0"])
        with pytest.raises(ValidationError, match="oops"):
            load_dataset(path, (0.0, 10.0))

    def test_schema_mapping(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a,1,0", "b,2,1"], header="pid,score,sex")
        d = load_dataset(path, (0.0, 10.0), schema={"id": "pid", "y": "score", "group": "sex"})
        assert d.n == 2

    def test_crossed_bounds_reordered(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a,1,0,3,2"], header="id,y,group,q_lo,q_hi")
        d = load_dataset(path, (0.0, 10.0))
        assert float(d.q_lo[0]) == 2.0
        assert float(d.q_hi[0]) == 3.0

    def test_feature_columns(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a,1,0,0.5,-1.5"], header="id,y,group,x0,x1")
        d = load_dataset(path, (0.0, 10.0))
        assert d.feature_dim == 2
        np.testing.assert_array_equal(d.features, [[0.5, -1.5]])


class TestRoundTrip:
    def test_awkward_floats_survive(self, tmp_path):
        y = np.array([0.1 + 0.2, 1.0 / 3.0, 9.999999999999998])
        d = make_dataset(y, [0, 0, 0], q_lo=y - 0.25, q_hi=y + 0.25)
        path = str(tmp_path / "rt.csv")
        write_dataset(d, path)
        d2 = load_dataset(path, (0.0, 10.0))
        np.testing.assert_array_equal(d2.y, d.y)
        np.testing.assert_array_equal(d2.q_lo, d.q_lo)
        np.testing.assert_array_equal(d2.q_hi, d.q_hi)

    @staticmethod
    def write_rows(dataset, path):
        """Row-by-row reference writer over numpy scalars."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            header = ["id", "y", "group"]
            header += ["q_lo", "q_hi"] if dataset.q_lo is not None else []
            writer.writerow(header + [f"x{j}" for j in range(dataset.feature_dim)])
            for i in range(dataset.n):
                row = [dataset.ids[i], repr(float(dataset.y[i])), str(int(dataset.group[i]))]
                if dataset.q_lo is not None:
                    row += [repr(float(dataset.q_lo[i])), repr(float(dataset.q_hi[i]))]
                if dataset.features is not None:
                    row += [repr(float(v)) for v in dataset.features[i]]
                writer.writerow(row)

    @pytest.mark.parametrize("bands", [False, True])
    @pytest.mark.parametrize("feature_dim", [None, 0, 3])
    def test_bytes_match_row_by_row_writer(self, tmp_path, bands, feature_dim):
        rng = np.random.default_rng(5)
        y = np.concatenate([[0.1 + 0.2, 1.0 / 3.0, 0.0, 10.0, 5e-324], rng.uniform(0, 10, 45)])
        features = None if feature_dim is None else rng.normal(size=(50, feature_dim)) * 1e-7
        q = (y - 1.5, y + 1e-17) if bands else (None, None)
        d = make_dataset(y, rng.integers(0, 3, 50), *q, features=features)
        write_dataset(d, str(tmp_path / "got.csv"))
        self.write_rows(d, str(tmp_path / "want.csv"))
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestSplitDataset:
    def test_sizes_from_fractions(self):
        d = make_dataset(np.arange(10) * 0.5, [0] * 10)
        a, b, c = split_dataset(d, SplitSpec(fractions=(0.6, 0.2, 0.2), seed=7))
        assert (a.n, b.n, c.n) == (6, 2, 2)

    def test_determinism(self):
        d = make_dataset(np.arange(10) * 0.5, [0] * 10)
        spec = SplitSpec(fractions=(0.6, 0.2, 0.2), seed=7)
        first = [p.ids for p in split_dataset(d, spec)]
        second = [p.ids for p in split_dataset(d, spec)]
        assert first == second

    def test_disjoint_union(self):
        d = make_dataset(np.arange(23) * 0.4, [0] * 23)
        parts = split_dataset(d, SplitSpec(fractions=(0.5, 0.25, 0.25), seed=3))
        ids = [i for p in parts for i in p.ids]
        assert len(ids) == 23
        assert len(set(ids)) == 23

    def test_empty_calibration_part(self):
        d = make_dataset(np.arange(10) * 0.5, [0] * 10)
        with pytest.raises(ValidationError, match="empty calibration"):
            split_dataset(d, SplitSpec(fractions=(1.0, 0.0, 0.0), seed=0))

    def test_parts_inherit_metadata(self):
        d = make_dataset(np.arange(12) * 0.5, [0, 1] * 6, domain=(0.0, 8.0))
        for part in split_dataset(d, SplitSpec(fractions=(0.5, 0.25, 0.25), seed=1)):
            assert part.label_domain == (0.0, 8.0)
            assert part.group_count == 2

    def test_bad_fractions_rejected(self):
        with pytest.raises(ValidationError):
            SplitSpec(fractions=(0.5, 0.3, 0.1), seed=0)


MODULES = ["faircov"] + [
    f"faircov.{info.name}"
    for info in pkgutil.iter_modules(faircov.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_names_exist(module):
    # a stale __all__ entry makes star-import raise AttributeError
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(importlib.import_module(module).__all__) <= set(namespace)
