"""Dataset container, CSV round-trip, and split behavior."""

import csv
import importlib
import pkgutil
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faircov
from faircov import (
    Dataset,
    SplitSpec,
    ValidationError,
    core,
    load_dataset,
    split_dataset,
    write_dataset,
)
from faircov.core import _DEFAULT_SCHEMA, _FEATURE_RE, _parse_float

from conftest import make_dataset


# Cell spellings for random files: numbers as float() and int() accept
# them, and cells that fail one or both.
NUMBERS = ["0", "1", " 1.5 ", "1_000.5", "-0.0", "0.0", "1e-320", "5e-324", "3.25", "-2", "1E2", "0_1"]
GROUP_IDS = ["0", "1", " 1 ", "+0", "0_1", "-0"]
ANY_CELL = NUMBERS + ["x", "", "a,b", "inf", "nan", "1.0", "1_0", "--1"]
HEADERS = ["id,y,group", "id,y,group,q_lo,q_hi,x0", "x1,q_hi,group,id,x0,q_lo,y", "id,y,group,y,x0,group"]


@st.composite
def csv_files(draw):
    """A header and rows: blank lines, rows that parse, rows with any cell."""
    header = draw(st.sampled_from(HEADERS))
    names = header.split(",")
    group_at = len(names) - 1 - names[::-1].index("group")
    rows = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(["blank", "parses", "parses", "any"]))
        if kind == "blank":
            rows.append([])
            continue
        cells = st.sampled_from(NUMBERS if kind == "parses" else ANY_CELL)
        row = draw(st.lists(cells, min_size=len(names), max_size=len(names) + 2))
        if kind == "parses":
            row[group_at] = draw(st.sampled_from(GROUP_IDS))
        rows.append(row)
    return header, rows


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
        assert sub.ids.tolist() == ["r2", "r0"]
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
        assert d.ids.tolist() == ["a", "b", "c", "d"]  # file order preserved

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


def reference_load(path, label_domain, schema=None, group_count=None):
    """The per-row ``csv.DictReader`` loader that the block-wise one replaced."""
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


def outcome(loader, path, **kwargs):
    """A loader's dataset as exact bytes, or the error it raised."""
    try:
        d = loader(path, (-1e4, 1e4), **kwargs)
    except ValidationError as exc:
        return type(exc).__name__, str(exc)
    arrays = (d.y, d.group, d.q_lo, d.q_hi, d.features)
    return tuple(d.ids.tolist()), d.group_count, [None if a is None else (a.shape, a.tobytes()) for a in arrays]


def assert_loaders_agree(path, **kwargs):
    want = outcome(reference_load, path, **kwargs)
    assert outcome(load_dataset, path, **kwargs) == want
    return want


class TestBlockLoaderMatchesReference:
    """The block-wise loader against the per-row reference, byte for byte."""

    @pytest.fixture(params=[1, 2, 4096], ids=lambda k: f"block{k}")
    def block(self, request, monkeypatch):
        monkeypatch.setattr(core, "_READ_BLOCK", request.param)
        return request.param

    def test_awkward_spellings(self, tmp_path, block):
        rows = [
            "a,1_000,0_1,-0.0,0.0,1e-320",
            "b, 1.5 , 0 ,0.0,-0.0, -2.5e3 ",
            "c,-0.0,+1,1e-320,-1e-320,1E2",
            "d,5e-324,0,inf,-inf,0",
            "e,0.1,1,3,2,-0.0",
        ]
        path = write_csv(tmp_path / "d.csv", rows, header="id,y,group,q_lo,q_hi,x0")
        assert assert_loaders_agree(path) == ("ValidationError", "quantile bounds must be finite")
        # without the infinite band the same spellings load
        path = write_csv(tmp_path / "e.csv", rows[:3] + rows[4:], header="id,y,group,q_lo,q_hi,x0")
        ids, group_count, _ = assert_loaders_agree(path)
        assert ids == ("a", "b", "c", "e") and group_count == 2

    def test_infinite_label_and_feature(self, tmp_path, block):
        path = write_csv(tmp_path / "d.csv", ["a,inf,0"])
        assert assert_loaders_agree(path) == ("ValidationError", "labels must be finite")
        path = write_csv(tmp_path / "e.csv", ["a,1,0,2", "b,1,0,-inf"], header="id,y,group,x0")
        assert assert_loaders_agree(path) == ("ValidationError", "features must be finite")

    def test_blank_lines_are_not_rows(self, tmp_path, block):
        path = tmp_path / "d.csv"
        path.write_text("id,y,group\n\na,1,0\n\n\nb,2,1\nc,x,0\n\n")
        assert assert_loaders_agree(str(path)) == (
            "ValidationError", "non-numeric value 'x' in column 'y' at row 3"
        )
        path.write_text("id,y,group\r\n\r\na,1,0\r\n\r\nb,2,1\r\n")
        assert assert_loaders_agree(str(path))[0] == ("a", "b")

    def test_repeated_header_reads_last_column(self, tmp_path, block):
        path = write_csv(tmp_path / "d.csv", ["a,x,0,1.5,2.5", "b,y,1,3.5,4.5"], header="id,y,group,y,x0")
        ids, _, (y, *_) = assert_loaders_agree(path)
        assert y == ((2,), np.array([1.5, 3.5]).tobytes())

    def test_long_rows_ignore_extra_fields(self, tmp_path, block):
        path = write_csv(tmp_path / "d.csv", ["a,1,0,extra,more", "b,2,1", "c,3,0,,"])
        assert assert_loaders_agree(path)[0] == ("a", "b", "c")

    def test_quoted_ids_with_commas(self, tmp_path, block):
        rows = ['"smith, j",1,0', '"a ""quoted"" id",2,1', '"multi\nline",3,0']
        path = write_csv(tmp_path / "d.csv", rows)
        assert assert_loaders_agree(path)[0] == ("smith, j", 'a "quoted" id', "multi\nline")

    def test_schema_and_unused_columns(self, tmp_path, block):
        rows = ["p1,note,4,1", "p2,,3.5,0"]
        path = write_csv(tmp_path / "d.csv", rows, header="pid,comment,score,sex")
        schema = {"id": "pid", "y": "score", "group": "sex"}
        assert assert_loaders_agree(path, schema=schema, group_count=2)[0] == ("p1", "p2")

    @pytest.mark.parametrize(
        "rows, message",
        [
            # row 2 is bad in x0 and row 3 in y: the first bad row wins, in
            # whatever block each falls
            (
                ["a,1,0,0.5", "b,2,1,oops", "c,bad,0,0.5"],
                "non-numeric value 'oops' in column 'x0' at row 2",
            ),
            (
                ["a,1,0,0.5", "b,2,1,0.5", "c,3,0,0.5", "d,4,one,0.5"],
                "non-integer group id 'one' at row 4",
            ),
            # within a row the label is read before the group and features
            (["a,1,0,0.5", "b,?,x,?"], "non-numeric value '?' in column 'y' at row 2"),
            (["a,1,0,0.5", "b,2,x,?"], "non-integer group id 'x' at row 2"),
            (["a,1,0.0,0.5"], "non-integer group id '0.0' at row 1"),
        ],
    )
    def test_first_error_in_row_major_order(self, tmp_path, block, rows, message):
        path = write_csv(tmp_path / "d.csv", rows, header="id,y,group,x0")
        assert assert_loaders_agree(path) == ("ValidationError", message)

    def test_header_errors(self, tmp_path, block):
        for header in ("id,y", "id,y,group,q_lo", "id,y,group,x0,x2", ""):
            path = write_csv(tmp_path / "d.csv", ["a,1,0,1,2"], header=header)
            assert assert_loaders_agree(path)[0] == "ValidationError"

    @settings(max_examples=200)
    @given(case=csv_files(), block=st.integers(1, 4))
    def test_random_files(self, tmp_path_factory, case, block):
        header, rows = case
        path = tmp_path_factory.mktemp("random") / "d.csv"
        with open(path, "w", newline="") as fh:
            fh.write(header + "\n")
            csv.writer(fh).writerows(rows)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "_READ_BLOCK", block)
            assert_loaders_agree(str(path))


class TestShortRows:
    def test_short_row_names_row_and_field_counts(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a,1,0", "", "b,2"])
        with pytest.raises(ValidationError, match="^row 2 has 2 fields; the header has 3$"):
            load_dataset(path, (0.0, 10.0))

    def test_reference_loader_crashed_on_a_short_row(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a,1,0", "b,2"])
        with pytest.raises(TypeError):
            reference_load(path, (0.0, 10.0))

    def test_errors_before_the_missing_field_come_first(self, tmp_path, monkeypatch):
        monkeypatch.setattr(core, "_READ_BLOCK", 2)
        path = write_csv(tmp_path / "d.csv", ["a,1,0,2", "b,2,1,3", "c,x", "d"], header="id,y,group,x0")
        with pytest.raises(ValidationError, match="non-numeric value 'x' in column 'y' at row 3"):
            load_dataset(path, (0.0, 10.0))

    def test_a_short_unread_column_is_allowed(self, tmp_path):
        # DictReader fills a missing field with None; a column never read is harmless
        path = write_csv(tmp_path / "d.csv", ["a,1,0,note", "b,2,1"], header="id,y,group,comment")
        assert_loaders_agree(path)

    def test_out_of_range_group_id(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a,1,0", f"b,2,{2**63}"])
        with pytest.raises(ValidationError, match=f"group id {2**63} at row 2 is out of range"):
            load_dataset(path, (0.0, 10.0))


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

    @pytest.mark.parametrize("block", [1, 2, 4096])
    def test_bytes_do_not_depend_on_the_block(self, tmp_path, monkeypatch, block):
        # ids csv must quote, an empty one and a leading space, at the start
        # and on both sides of the edge of the first 4,096 rows
        monkeypatch.setattr(core, "_READ_BLOCK", block)
        n = 4100
        awkward = [",", '"', "\r", "\n", "", " lead", 'a "b", c', "\r\n"]
        ids = [f"r{i}" for i in range(n)]
        ids[: len(awkward)] = awkward
        ids[4092 : 4092 + len(awkward)] = awkward
        rng = np.random.default_rng(6)
        y = rng.uniform(0, 10, n)
        d = Dataset(
            ids=ids, y=y, group=rng.integers(0, 3, n), label_domain=(0.0, 10.0), group_count=3,
            q_lo=y - 1.5, q_hi=y + 0.5, features=rng.normal(size=(n, 2)),
        )
        write_dataset(d, str(tmp_path / "got.csv"))
        self.write_rows(d, str(tmp_path / "want.csv"))
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert load_dataset(str(tmp_path / "got.csv"), (0.0, 10.0)).ids.tolist() == ids

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


# Ids that csv must quote or that numpy must widen for: commas, quotes,
# CR/LF, non-ASCII text, empty strings, lengths from 0 to 40.
AWKWARD_IDS = ["", ",", '"', 'a ""b""', "\r", "\n", "\r\n", "x,\ny", "é", "日本語", "\U0001f600", "z" * 40]
ID_TEXT = st.one_of(
    st.sampled_from(AWKWARD_IDS),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=40),
)


class TestIds:
    def test_read_only_str_array_as_wide_as_the_longest_id(self):
        d = Dataset(ids=("a", "bcd"), y=[1.0, 2.0], group=[0, 0], label_domain=(0.0, 10.0), group_count=1)
        assert d.ids.dtype == np.dtype("<U3")
        assert d.subset(np.array([0])).ids.dtype == np.dtype("<U3")
        with pytest.raises(ValueError):
            d.ids[0] = "b"

    @pytest.mark.parametrize("bad", ["a\x00", "a\x00b", "\x00"])
    def test_nul_rejected_by_dataset(self, bad):
        message = f"id {bad!r} at row 1 contains a NUL character"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            Dataset(ids=("a", bad), y=[1.0, 2.0], group=[0, 0], label_domain=(0.0, 10.0), group_count=1)

    def test_non_str_ids_load_as_their_str(self):
        # numpy converts each id with str(), and the NUL check reads the same text
        d = Dataset(ids=[1, 2, 3], y=[1.0, 2.0, 3.0], group=[0, 0, 0], label_domain=(0.0, 10.0), group_count=1)
        assert d.ids.tolist() == ["1", "2", "3"]
        mixed = Dataset(ids=(7, "b", 2.5), y=[1.0, 2.0, 3.0], group=[0, 0, 0], label_domain=(0.0, 10.0), group_count=1)
        assert mixed.ids.tolist() == ["7", "b", "2.5"]
        message = f"id {'a' + chr(0)!r} at row 2 contains a NUL character"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            Dataset(ids=[1, 2, "a\x00"], y=[1.0, 2.0, 3.0], group=[0, 0, 0], label_domain=(0.0, 10.0), group_count=1)

    @pytest.mark.parametrize("block", [1, 2, 4096])
    def test_nul_rejected_by_load(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(core, "_READ_BLOCK", block)
        path = tmp_path / "d.csv"
        path.write_bytes(b"id,y,group\na,1,0\nb\x00,2,1\nc,x,0\n")
        if sys.version_info >= (3, 11):
            message = r"^id 'b\\x00' at row 2 contains a NUL character$"
        else:  # before 3.11 the csv module refuses a NUL itself
            message = r"^cannot parse '.*' at line 3: line contains NUL$"
        with pytest.raises(ValidationError, match=message):
            load_dataset(str(path), (0.0, 10.0))

    @pytest.mark.parametrize("block", [1, 2, 4096])
    def test_a_field_past_the_csv_limit_names_its_line(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(core, "_READ_BLOCK", block)
        path = tmp_path / "d.csv"
        path.write_text(f"id,y,group\na,1,0\n\nb,2,0\n{'c' * 200_000},3,0\nd,4,0\n")
        message = r"^cannot parse '.*d\.csv' at line 5: field larger than field limit \(131072\)$"
        with pytest.raises(ValidationError, match=message):
            load_dataset(str(path), (0.0, 10.0))
        path.write_text(f"id,y,group,{'x' * 200_000}\na,1,0,0\n")
        with pytest.raises(ValidationError, match="at line 1: field larger than field limit"):
            load_dataset(str(path), (0.0, 10.0))

    @pytest.mark.parametrize("bad", ["a\x00b", "\x00b", "a\x00\x00b"])
    def test_nul_in_a_numpy_id_refused_by_the_writer(self, tmp_path, bad):
        # numpy keeps an inner NUL, and Dataset takes the array as it is
        d = Dataset(ids=np.array(["c", bad]), y=[1.0, 2.0], group=[0, 0], label_domain=(0.0, 10.0), group_count=1)
        message = f"id {bad!r} at row 1 contains a NUL character"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            write_dataset(d, str(tmp_path / "d.csv"))
        assert not (tmp_path / "d.csv").exists()

    def test_trailing_nul_in_a_numpy_id_is_padding(self, tmp_path):
        d = Dataset(ids=np.array(["c\x00", "dd"]), y=[1.0, 2.0], group=[0, 0], label_domain=(0.0, 10.0), group_count=1)
        write_dataset(d, str(tmp_path / "d.csv"))
        assert load_dataset(str(tmp_path / "d.csv"), (0.0, 10.0)).ids.tolist() == ["c", "dd"]

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="csv refuses a NUL before Python 3.11")
    def test_a_bad_label_before_a_nul_id_in_the_same_row_comes_first(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"id,y,group\na,1,0\nb\x00,x,1\n")
        with pytest.raises(ValidationError, match="non-numeric value 'x' in column 'y' at row 2"):
            load_dataset(str(path), (0.0, 10.0))

    @given(ids=st.lists(ID_TEXT, min_size=1, max_size=12), block=st.integers(1, 4))
    def test_round_trip(self, tmp_path_factory, ids, block):
        folder = tmp_path_factory.mktemp("ids")
        n = len(ids)
        d = Dataset(ids=ids, y=np.arange(n) * 0.5, group=np.zeros(n), label_domain=(0.0, 10.0), group_count=1)
        write_dataset(d, str(folder / "got.csv"))
        with open(folder / "want.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "y", "group"])
            writer.writerows([i, repr(k * 0.5), 0] for k, i in enumerate(ids))
        assert (folder / "got.csv").read_bytes() == (folder / "want.csv").read_bytes()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "_READ_BLOCK", block)
            assert load_dataset(str(folder / "got.csv"), (0.0, 10.0)).ids.tolist() == ids


class TestSplitDataset:
    def test_sizes_from_fractions(self):
        d = make_dataset(np.arange(10) * 0.5, [0] * 10)
        a, b, c = split_dataset(d, SplitSpec(fractions=(0.6, 0.2, 0.2), seed=7))
        assert (a.n, b.n, c.n) == (6, 2, 2)

    def test_determinism(self):
        d = make_dataset(np.arange(10) * 0.5, [0] * 10)
        spec = SplitSpec(fractions=(0.6, 0.2, 0.2), seed=7)
        first = [p.ids.tolist() for p in split_dataset(d, spec)]
        second = [p.ids.tolist() for p in split_dataset(d, spec)]
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
