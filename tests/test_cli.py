"""End-to-end command line pipeline and its failure modes."""

import argparse
import collections
import csv
import json
import math
import os
import sys

import numpy as np
import pytest

from faircov import GlobalThreshold, ThresholdTable, cli, core, equal_mass_bins, intervals, metrics, write_dataset
from faircov.cli import build_parser, main
from faircov.fair_calibration import missed_floors

from conftest import make_dataset


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the whole pipeline once; tests inspect its artifacts."""
    work = tmp_path_factory.mktemp("pipeline")
    out = str(work)
    steps = [
        ["simulate", "--out-dir", out, "--n", "320", "--feature-dim", "2", "--seed", "1"],
        [
            "fit",
            "--out-dir", out,
            "--data", os.path.join(out, "train.csv"),
            "--epochs", "120",
        ],
        [
            "calibrate",
            "--out-dir", out,
            "--data", os.path.join(out, "cal.csv"),
            "--model", os.path.join(out, "model.json"),
            "--method", "fuq",
            "--bins", "2",
        ],
        [
            "evaluate",
            "--out-dir", out,
            "--data", os.path.join(out, "test.csv"),
            "--model", os.path.join(out, "model.json"),
            "--calibrator", os.path.join(out, "calibrator.json"),
        ],
        [
            "compare",
            "--out-dir", out,
            "--cal", os.path.join(out, "cal.csv"),
            "--test", os.path.join(out, "test.csv"),
            "--model", os.path.join(out, "model.json"),
            "--bins", "2",
        ],
        [
            "sweep-m",
            "--out-dir", out,
            "--data", os.path.join(out, "cal.csv"),
            "--model", os.path.join(out, "model.json"),
            "--m-values", "1,2",
        ],
    ]
    for argv in steps:
        assert main(argv) == 0, f"step {argv[0]} failed"
    return out


class TestPipeline:
    def test_simulate_writes_three_splits(self, pipeline):
        sizes = {}
        for name in ("train.csv", "cal.csv", "test.csv"):
            rows = read_rows(os.path.join(pipeline, name))
            sizes[name] = len(rows) - 1
        assert sizes == {"train.csv": 160, "cal.csv": 80, "test.csv": 80}

    def test_model_artifact_parses(self, pipeline):
        with open(os.path.join(pipeline, "model.json")) as fh:
            payload = json.load(fh)
        assert payload["feature_dim"] == 2
        assert payload["levels"] == [0.05, 0.5, 0.95]
        assert len(payload["loss_trace"]) == 2  # least-squares start, exact fit

    def test_calibrator_artifact_is_a_table(self, pipeline):
        with open(os.path.join(pipeline, "calibrator.json")) as fh:
            payload = json.load(fh)
        assert payload["method"] == "fuq"
        assert payload["M"] == 2
        assert payload["S"] == 2
        assert len(payload["r_hat"]) == 2
        assert payload["trace_summary"]["termination_reason"] in (
            "converged",
            "slope_crossover",
            "max_iters",
        )

    def test_report_and_predictions_agree(self, pipeline):
        with open(os.path.join(pipeline, "report.json")) as fh:
            report = json.load(fh)
        rows = read_rows(os.path.join(pipeline, "predictions.csv"))
        assert rows[0] == ["id", "group", "components", "fallback", "covered", "width"]
        assert len(rows) - 1 == report["n_test"] == 80
        covered = sum(int(r[4]) for r in rows[1:])
        assert covered == report["covered_total"]
        assert 0.0 <= report["picp_overall"] <= 1.0

    def test_compare_covers_all_methods(self, pipeline):
        rows = read_rows(os.path.join(pipeline, "comparison.csv"))
        assert rows[0][0] == "method"
        assert [r[0] for r in rows[1:]] == ["cp", "cqr", "cqr_groupwise", "fuq"]
        for method in ("cp", "cqr", "cqr_groupwise", "fuq"):
            assert os.path.exists(os.path.join(pipeline, f"report_{method}.json"))
        with open(os.path.join(pipeline, "comparison.txt")) as fh:
            assert "fuq" in fh.read()

    def test_sweep_includes_single_bin(self, pipeline):
        rows = read_rows(os.path.join(pipeline, "sweep.csv"))
        assert rows[0][0] == "M"
        assert [r[0] for r in rows[1:]] == ["1", "2"]
        for row in rows[1:]:
            assert row[5] in ("converged", "slope_crossover", "max_iters")

    def test_manifest_lists_hashes(self, pipeline):
        with open(os.path.join(pipeline, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["command"] == "sweep-m"
        assert "sweep.csv" in manifest["outputs"]
        assert all(len(h) == 64 for h in manifest["outputs"].values())

    def test_evaluate_rerun_is_byte_identical(self, pipeline, tmp_path):
        out2 = str(tmp_path / "rerun")
        code = main(
            [
                "evaluate",
                "--out-dir", out2,
                "--data", os.path.join(pipeline, "test.csv"),
                "--model", os.path.join(pipeline, "model.json"),
                "--calibrator", os.path.join(pipeline, "calibrator.json"),
            ]
        )
        assert code == 0
        for name in ("report.json", "predictions.csv"):
            with open(os.path.join(pipeline, name), "rb") as a, open(os.path.join(out2, name), "rb") as b:
                assert a.read() == b.read()


class TestOneKernelPass:
    @pytest.mark.parametrize("block", [metrics._BLOCK, 32])
    def test_evaluate_runs_the_kernel_once_per_block(self, pipeline, tmp_path, monkeypatch, block):
        # every module's binding of the kernel and of the coverage test is
        # counted; report.json and predictions.csv come from the same calls
        calls = collections.Counter()
        for name in ("band_pieces", "union_covered"):
            original = getattr(intervals, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("faircov") and vars(module).get(name) is original:
                    monkeypatch.setattr(module, name, counting)
        monkeypatch.setattr(metrics, "_BLOCK", block)
        out = str(tmp_path / "evaluate")
        code = main(
            [
                "evaluate",
                "--out-dir", out,
                "--data", os.path.join(pipeline, "test.csv"),
                "--model", os.path.join(pipeline, "model.json"),
                "--calibrator", os.path.join(pipeline, "calibrator.json"),
            ]
        )
        assert code == 0
        blocks = -(-80 // block)  # the pipeline's 80 test records
        assert calls == {"band_pieces": blocks, "union_covered": blocks}
        for name in ("report.json", "predictions.csv"):
            with open(os.path.join(pipeline, name), "rb") as a, open(os.path.join(out, name), "rb") as b:
                assert a.read() == b.read()


# Command lines on the pipeline fixture's files ("{p}"), each with the
# names of the files it reads from there and writes to its out-dir.
REPORTS = ["report_cp.json", "report_cqr.json", "report_cqr_groupwise.json", "report_fuq.json"]
COMPARE = ["compare", "--cal", "{p}/cal.csv", "--test", "{p}/test.csv", "--bins", "2"]
TOUCHED = {
    "simulate": (
        ["simulate", "--n", "80", "--feature-dim", "2"],
        [],
        ["train.csv", "cal.csv", "test.csv"],
    ),
    "fit": (["fit", "--data", "{p}/train.csv", "--epochs", "5"], ["train.csv"], ["model.json"]),
    "calibrate": (
        ["calibrate", "--data", "{p}/cal.csv", "--model", "{p}/model.json", "--bins", "2"],
        ["cal.csv", "model.json"],
        ["calibrator.json"],
    ),
    "evaluate": (
        ["evaluate", "--data", "{p}/test.csv", "--model", "{p}/model.json",
         "--calibrator", "{p}/calibrator.json"],
        ["test.csv", "model.json", "calibrator.json"],
        ["predictions.csv", "report.json"],
    ),
    "compare": (
        [*COMPARE, "--model", "{p}/model.json"],
        ["cal.csv", "test.csv", "model.json"],
        ["comparison.csv", "comparison.txt", *REPORTS],
    ),
    "sweep-m": (
        ["sweep-m", "--data", "{p}/cal.csv", "--model", "{p}/model.json", "--m-values", "1,2"],
        ["cal.csv", "model.json"],
        ["sweep.csv"],
    ),
    "compare-train": (
        [*COMPARE, "--train", "{p}/train.csv", "--epochs", "5"],
        ["cal.csv", "test.csv", "train.csv"],
        ["comparison.csv", "comparison.txt", "model.json", *REPORTS],
    ),
    # a given model wins: the training file is neither read nor listed
    "compare-model-train": (
        [*COMPARE, "--model", "{p}/model.json", "--train", "{p}/train.csv"],
        ["cal.csv", "test.csv", "model.json"],
        ["comparison.csv", "comparison.txt", *REPORTS],
    ),
}


def run_touching(case, pipeline, out):
    """Run a TOUCHED command line into ``out``; returns its manifest and the paths it names."""
    argv, reads, writes = TOUCHED[case]
    assert main([*(arg.format(p=pipeline) for arg in argv), "--out-dir", str(out)]) == 0
    with open(os.path.join(out, "manifest.json")) as fh:
        manifest = json.load(fh)
    return (
        manifest,
        sorted(os.path.join(pipeline, name) for name in reads),
        sorted(os.path.join(out, name) for name in writes),
    )


class TestManifestFiles:
    @pytest.mark.parametrize("case", list(TOUCHED))
    def test_manifest_lists_what_the_command_touched(self, pipeline, tmp_path, monkeypatch, case):
        # every file cli and core open, by mode; "rb" is the manifest's hashing
        opened = collections.defaultdict(set)

        def spy(path, mode="r", **kwargs):
            opened[mode].add(str(path))
            return open(path, mode, **kwargs)

        for module in (cli, core):
            monkeypatch.setattr(module, "open", spy, raising=False)
        out = str(tmp_path / "out")
        manifest, reads, writes = run_touching(case, pipeline, out)
        assert sorted(manifest["inputs"]) == reads
        assert sorted(os.path.join(out, name) for name in manifest["outputs"]) == writes
        assert sorted(opened["r"]) == reads
        assert sorted(opened["w"] - {os.path.join(out, "manifest.json")}) == writes


class TestInputHashing:
    @pytest.mark.parametrize("case", ["evaluate", "compare", "compare-train"])
    def test_each_file_is_hashed_once(self, pipeline, tmp_path, monkeypatch, case):
        hashed = collections.Counter()
        original = cli._sha256

        def counting(path):
            hashed[path] += 1
            return original(path)

        monkeypatch.setattr(cli, "_sha256", counting)
        _, reads, writes = run_touching(case, pipeline, str(tmp_path / "out"))
        assert sorted(hashed) == sorted(reads + writes)
        assert set(hashed.values()) == {1}

    def test_calibrate_hashes_each_input_once(self, pipeline, tmp_path, monkeypatch):
        hashed = []
        original = cli._sha256

        def counting(path):
            hashed.append(os.path.basename(path))
            return original(path)

        monkeypatch.setattr(cli, "_sha256", counting)
        code = main(
            [
                "calibrate",
                "--out-dir", str(tmp_path),
                "--data", os.path.join(pipeline, "cal.csv"),
                "--model", os.path.join(pipeline, "model.json"),
                "--method", "fuq",
                "--bins", "2",
            ]
        )
        assert code == 0
        assert sorted(hashed) == ["cal.csv", "calibrator.json", "model.json"]
        with open(tmp_path / "manifest.json") as fh:
            manifest = json.load(fh)
        with open(tmp_path / "calibrator.json") as fh:
            assert json.load(fh)["input_hashes"] == manifest["inputs"]


class TestExitCodes:
    def test_unknown_method_exits_one(self, tmp_path, capsys):
        code = main(
            [
                "calibrate",
                "--out-dir", str(tmp_path),
                "--data", "unused.csv",
                "--method", "bogus",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_required_option_exits_one(self, tmp_path):
        assert main(["fit", "--out-dir", str(tmp_path)]) == 1

    def test_argparse_errors_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--no-such-flag"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_json_errors_flag(self, tmp_path, capsys):
        code = main(
            [
                "calibrate",
                "--out-dir", str(tmp_path),
                "--data", "unused.csv",
                "--method", "bogus",
                "--json-errors",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ValidationError"
        assert payload["exit_code"] == 1
        assert "bogus" in payload["message"]

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--group-probs", "nan,0.5", "group probabilities must lie in [0, 1]"),
            ("--fractions", "nan,0.5,0.5", "split fractions must lie in [0, 1]"),
            ("--noise-scales", "1,inf", "noise scales must be positive and finite"),
            ("--label-domain", "0,inf", "label domain must be a finite ordered pair"),
        ],
    )
    @pytest.mark.filterwarnings("error")  # rejected before any record is drawn
    def test_non_finite_spec_value_exits_one(self, tmp_path, capsys, flag, value, message):
        assert main(["simulate", "--out-dir", str(tmp_path), "--n", "40", flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not os.path.exists(tmp_path / "train.csv")

    def test_unwritable_artifact_exits_one(self, pipeline, tmp_path, capsys):
        # a directory where fit writes model.json
        (tmp_path / "model.json").mkdir()
        argv = ["fit", "--out-dir", str(tmp_path), "--data", os.path.join(pipeline, "train.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert main([*argv, "--json-errors"]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert (payload["error"], payload["exit_code"]) == ("IsADirectoryError", 1)
        assert "model.json" in payload["message"]

    def test_failed_predictions_write_leaves_no_file(self, pipeline, tmp_path, capsys, monkeypatch):
        def full_disk(test, model, calibrator, out):
            out.write("partial")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "evaluate", full_disk)
        code = main(
            [
                "evaluate",
                "--out-dir", str(tmp_path),
                "--data", os.path.join(pipeline, "test.csv"),
                "--model", os.path.join(pipeline, "model.json"),
                "--calibrator", os.path.join(pipeline, "calibrator.json"),
            ]
        )
        assert code == 1
        assert "No space left on device" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


class TestFloorCheck:
    """``calibrate --method fuq`` refuses a table below its coverage floors."""

    def write_cal(self, tmp_path):
        # one move lifts group 1 from 0.65 to 0.7 of its 0.8 target
        y = np.linspace(5.25, 9.75, 40)
        group = np.arange(40) % 2
        score = np.where(group == 0, 0.05, 0.1) * np.arange(40) + group
        path = str(tmp_path / "cal.csv")
        write_dataset(make_dataset(y, group, q_lo=y - score, q_hi=y - score), path)
        return path

    def calibrate(self, cal, out, *extra):
        argv = ["calibrate", "--out-dir", out, "--data", cal, "--method", "fuq", "--bins", "2"]
        return main([*argv, "--alpha", "0.2", "--label-domain", "0,10", "--json-errors", *extra])

    def test_capped_run_below_a_floor_exits_one(self, tmp_path, capsys):
        out = str(tmp_path / "capped")
        assert self.calibrate(self.write_cal(tmp_path), out, "--max-iters", "1") == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ValidationError"
        assert "max_iters" in payload["message"]
        assert "group 1 bin-mean coverage 0.7 < 0.8" in payload["message"]
        assert "group 0" not in payload["message"]
        assert "pooled" not in payload["message"]
        assert not os.path.exists(os.path.join(out, "calibrator.json"))

    def test_finished_run_writes_its_table(self, tmp_path):
        out = str(tmp_path / "finished")
        assert self.calibrate(self.write_cal(tmp_path), out) == 0
        with open(os.path.join(out, "calibrator.json")) as fh:
            assert json.load(fh)["trace_summary"]["termination_reason"] == "converged"

    def test_pooled_floor_is_named(self):
        # every group has a one-record cell and a nine-record cell; a shift of
        # 6 covers 1 + 6 of 10 records per group: bin means 0.833, pooled 14 of 20
        y = np.concatenate(([0.25], 0.5 * np.arange(1, 10), 5.0 + 0.5 * np.arange(1, 10), [9.75]))
        group = np.array([0] + [1] * 9 + [0] * 9 + [1])
        score = np.concatenate(([0.0], np.arange(1.0, 10.0), np.arange(1.0, 10.0), [0.0]))
        cal = make_dataset(y, group, q_lo=y - score, q_hi=y - score, domain=(-20.0, 10.0))
        table = ThresholdTable(
            r_hat=np.full((2, 2), 6.0),
            global_r_hat=6.0,
            alpha=0.2,
            partition=equal_mass_bins(cal.y, 2, cal.label_domain),
            group_count=2,
        )
        assert missed_floors(cal, None, table) == ["pooled covered count 14 < 16"]


class TestConfigFile:
    def write_inputs(self, tmp_path):
        y = np.linspace(1.0, 9.0, 20)
        data = make_dataset(y, [0] * 20, q_lo=y - 1.0, q_hi=y + 1.0)
        path = str(tmp_path / "cal.csv")
        write_dataset(data, path)
        return path

    def test_flag_beats_config(self, tmp_path):
        cal = self.write_inputs(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"method=cqr\nalpha=0.5\ndata={cal}\nlabel-domain=0,10\n")
        out = str(tmp_path / "flagged")
        assert main(["calibrate", "--out-dir", out, "--config", str(cfg), "--alpha", "0.2"]) == 0
        with open(os.path.join(out, "calibrator.json")) as fh:
            assert json.load(fh)["alpha"] == 0.2

    def test_config_fills_missing_flags(self, tmp_path):
        cal = self.write_inputs(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"method=cqr\nalpha=0.5\ndata={cal}\nlabel-domain=0,10\n")
        out = str(tmp_path / "config_only")
        assert main(["calibrate", "--out-dir", out, "--config", str(cfg)]) == 0
        with open(os.path.join(out, "calibrator.json")) as fh:
            payload = json.load(fh)
        assert payload["alpha"] == 0.5
        assert payload["method"] == "cqr"

    def test_malformed_config_line_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha 0.5\n")
        assert main(["calibrate", "--config", str(cfg), "--data", "x.csv"]) == 1
        assert "key=value" in capsys.readouterr().err

    def test_comments_and_blanks_ignored(self, tmp_path):
        cal = self.write_inputs(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# comment\n\nmethod=cqr\ndata={cal}\nlabel-domain=0,10\n")
        out = str(tmp_path / "commented")
        assert main(["calibrate", "--out-dir", out, "--config", str(cfg)]) == 0


    def test_unknown_key_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("alpah=0.5\n")
        out = str(tmp_path / "typo")
        assert main(["simulate", "--out-dir", out, "--n", "40", "--config", str(cfg)]) == 1
        assert "alpah" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_key_of_another_command_accepted(self, tmp_path):
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("bins=8\njson-errors=1\n")
        out = str(tmp_path / "shared")
        assert main(["simulate", "--out-dir", out, "--n", "40", "--config", str(cfg)]) == 0
        with open(os.path.join(out, "manifest.json")) as fh:
            assert "bins" not in json.load(fh)["config"]


class TestSplitCpArtifact:
    def test_cp_calibrator_round_trips(self, pipeline, tmp_path):
        out = str(tmp_path / "cp")
        code = main(
            [
                "calibrate",
                "--out-dir", out,
                "--data", os.path.join(pipeline, "cal.csv"),
                "--model", os.path.join(pipeline, "model.json"),
                "--method", "cp",
            ]
        )
        assert code == 0
        with open(os.path.join(out, "calibrator.json")) as fh:
            payload = json.load(fh)
        assert payload["method"] == "cp"
        assert payload["r_hat"] > 0.0
        code = main(
            [
                "evaluate",
                "--out-dir", out,
                "--data", os.path.join(pipeline, "test.csv"),
                "--model", os.path.join(pipeline, "model.json"),
                "--calibrator", os.path.join(out, "calibrator.json"),
            ]
        )
        assert code == 0
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        assert report["point_source"] == "median"

    def test_cp_without_a_model_writes_nothing(self, pipeline, tmp_path, capsys):
        path = tmp_path / "calibrator.json"
        path.write_text(GlobalThreshold(method="cp", alpha=0.1, r_hat=0.7, n_cal=10).to_json())
        out = tmp_path / "out"
        code = main(
            [
                "evaluate",
                "--out-dir", str(out),
                "--data", os.path.join(pipeline, "test.csv"),
                "--calibrator", str(path),
            ]
        )
        assert code == 1
        assert "needs a model" in capsys.readouterr().err
        assert os.listdir(out) == []


class TestMalformedArtifacts:
    def run_json_errors(self, argv, capsys):
        code = main(argv + ["--json-errors"])
        payload = json.loads(capsys.readouterr().err)
        assert code == 1
        assert payload["error"] == "ValidationError"
        assert payload["exit_code"] == 1
        return payload["message"]

    def evaluate_with(self, pipeline, tmp_path, capsys, calibrator_payload):
        path = tmp_path / "calibrator.json"
        path.write_text(json.dumps(calibrator_payload))
        return self.run_json_errors(
            [
                "evaluate",
                "--out-dir", str(tmp_path / "out"),
                "--data", os.path.join(pipeline, "test.csv"),
                "--model", os.path.join(pipeline, "model.json"),
                "--calibrator", str(path),
            ],
            capsys,
        )

    def test_calibrator_that_is_a_list(self, pipeline, tmp_path, capsys):
        message = self.evaluate_with(pipeline, tmp_path, capsys, [1, 2])
        assert "malformed calibrator file" in message

    def test_calibrator_with_scalar_bounds(self, pipeline, tmp_path, capsys):
        with open(os.path.join(pipeline, "calibrator.json")) as fh:
            payload = json.load(fh)
        payload["bounds"] = 5
        message = self.evaluate_with(pipeline, tmp_path, capsys, payload)
        assert "malformed calibrator file" in message

    def test_calibrator_with_a_nan_shift(self, pipeline, tmp_path, capsys):
        payload = {"method": "cqr", "alpha": 0.1, "r_hat": math.nan, "n_cal": 100}
        message = self.evaluate_with(pipeline, tmp_path, capsys, payload)
        assert "malformed calibrator file" in message
        assert "shift must be finite" in message

    def test_model_with_a_nan_bias(self, pipeline, tmp_path, capsys):
        with open(os.path.join(pipeline, "model.json")) as fh:
            payload = json.load(fh)
        payload["bias"][0] = math.nan
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        message = self.run_json_errors(
            [
                "evaluate",
                "--out-dir", str(tmp_path / "out"),
                "--data", os.path.join(pipeline, "test.csv"),
                "--model", str(path),
                "--calibrator", os.path.join(pipeline, "calibrator.json"),
            ],
            capsys,
        )
        assert "malformed model file" in message
        assert "must be finite" in message

    def test_model_that_is_a_list(self, pipeline, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text("[]")
        message = self.run_json_errors(
            [
                "calibrate",
                "--out-dir", str(tmp_path / "out"),
                "--data", os.path.join(pipeline, "cal.csv"),
                "--model", str(path),
            ],
            capsys,
        )
        assert "malformed model file" in message

    @pytest.mark.parametrize("kept, missing", [(0, 1), (1, 0)])
    def test_test_file_missing_a_calibrated_group(self, pipeline, tmp_path, capsys, kept, missing):
        rows = read_rows(os.path.join(pipeline, "test.csv"))
        group_col = rows[0].index("group")
        path = tmp_path / "test.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([rows[0]] + [r for r in rows[1:] if r[group_col] == str(kept)])
        message = self.run_json_errors(
            [
                "evaluate",
                "--out-dir", str(tmp_path / "out"),
                "--data", str(path),
                "--model", os.path.join(pipeline, "model.json"),
                "--calibrator", os.path.join(pipeline, "calibrator.json"),
            ],
            capsys,
        )
        assert message == f"group ids must be dense: no records for group(s) [{missing}]"

    def test_compare_test_file_missing_a_calibrated_group(self, pipeline, tmp_path, capsys):
        rows = read_rows(os.path.join(pipeline, "test.csv"))
        group_col = rows[0].index("group")
        path = tmp_path / "test.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([rows[0]] + [r for r in rows[1:] if r[group_col] == "0"])
        message = self.run_json_errors(
            [
                "compare",
                "--out-dir", str(tmp_path / "out"),
                "--cal", os.path.join(pipeline, "cal.csv"),
                "--test", str(path),
                "--model", os.path.join(pipeline, "model.json"),
                "--bins", "2",
            ],
            capsys,
        )
        assert message == "group ids must be dense: no records for group(s) [1]"

    def test_short_csv_row(self, pipeline, tmp_path, capsys):
        rows = read_rows(os.path.join(pipeline, "train.csv"))
        path = tmp_path / "train.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows[:3] + [rows[3][:2]] + rows[4:])
        message = self.run_json_errors(
            ["fit", "--out-dir", str(tmp_path / "out"), "--data", str(path)], capsys
        )
        assert message == f"row 3 has 2 fields; the header has {len(rows[0])}"

    def test_id_past_the_csv_field_limit(self, pipeline, tmp_path, capsys):
        rows = read_rows(os.path.join(pipeline, "train.csv"))
        rows[2][0] = "x" * 200_000
        path = tmp_path / "train.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        code = main(["fit", "--out-dir", str(tmp_path / "out"), "--data", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot parse ")
        assert "at line 3: field larger than field limit (131072)" in err

    def test_out_dir_that_is_a_file(self, tmp_path, capsys):
        path = tmp_path / "taken"
        path.write_text("")
        message = self.run_json_errors(["simulate", "--out-dir", str(path), "--n", "40"], capsys)
        assert "--out-dir" in message


# Each subcommand's flags, written out so that no edit to the option tables adds
# or drops one unnoticed.
SHARED_FLAGS = ["--out-dir", "--config", "--json-errors", "--seed"]
FLAGS = {
    "simulate": [
        "--n", "--group-probs", "--noise-scales", "--feature-dim", "--label-domain",
        "--fractions",
    ],
    "fit": ["--data", "--alpha", "--epochs", "--label-domain", "--attribute-col"],
    "calibrate": [
        "--data", "--model", "--method", "--alpha", "--bins", "--max-iters", "--label-domain",
        "--attribute-col",
    ],
    "evaluate": ["--data", "--model", "--calibrator", "--label-domain", "--attribute-col"],
    "compare": [
        "--train", "--cal", "--test", "--model", "--methods", "--alpha", "--bins", "--epochs",
        "--label-domain", "--attribute-col",
    ],
    "sweep-m": [
        "--data", "--model", "--m-values", "--alpha", "--label-domain", "--attribute-col",
    ],
}
# Values for each command's required options, so resolution reaches the bad value.
REQUIRED = {
    "simulate": [],
    "fit": ["--data", "unused.csv"],
    "calibrate": ["--data", "unused.csv"],
    "evaluate": ["--data", "unused.csv", "--calibrator", "unused.json"],
    "compare": ["--cal", "unused.csv", "--test", "unused.csv"],
    "sweep-m": ["--data", "unused.csv", "--model", "unused.json"],
}


class TestCliSurface:
    def test_each_command_accepts_exactly_its_flags(self):
        action = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        assert sorted(action.choices) == sorted(FLAGS)
        for command, flags in FLAGS.items():
            accepted = {
                flag for a in action.choices[command]._actions for flag in a.option_strings
            }
            assert accepted - {"-h", "--help"} == set(SHARED_FLAGS + flags), command

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "command,key,value",
        [
            ("calibrate", "alpha", "abc"),
            ("calibrate", "label-domain", "1"),
            ("calibrate", "bins", "2.5"),
            ("calibrate", "seed", "x"),
            ("calibrate", "method", "bogus"),
            ("simulate", "noise-scales", "1,b"),
            ("compare", "methods", "cp,bogus"),
            ("sweep-m", "m-values", "1,x"),
        ],
    )
    def test_invalid_value_exits_one(self, tmp_path, capsys, source, command, key, value):
        argv = [command, "--out-dir", str(tmp_path / "out"), *REQUIRED[command]]
        if source == "flag":
            argv += [f"--{key}", value]
        else:
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(f"{key}={value}\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 1
        assert f"invalid value {value!r} for --{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(FLAGS))
    def test_negative_seed_exits_one(self, tmp_path, capsys, command):
        argv = [command, "--out-dir", str(tmp_path / "out"), *REQUIRED[command], "--seed", "-1"]
        assert main(argv) == 1
        assert "error: invalid value '-1' for --seed: seed must be non-negative" in capsys.readouterr().err

    def test_manifest_records_every_declared_option(self, pipeline, tmp_path):
        def path(name):
            return os.path.join(pipeline, name)

        argv = {
            "simulate": ["--n", "80", "--feature-dim", "2"],
            "fit": ["--data", path("train.csv"), "--epochs", "5"],
            "calibrate": ["--data", path("cal.csv"), "--model", path("model.json"), "--bins", "2"],
            "evaluate": [
                "--data", path("test.csv"), "--model", path("model.json"),
                "--calibrator", path("calibrator.json"),
            ],
            "compare": [
                "--cal", path("cal.csv"), "--test", path("test.csv"),
                "--model", path("model.json"), "--bins", "2",
            ],
            "sweep-m": ["--data", path("cal.csv"), "--model", path("model.json"), "--m-values", "1"],
        }
        for command, flags in FLAGS.items():
            out = str(tmp_path / command)
            assert main([command, "--out-dir", out, *argv[command]]) == 0, command
            with open(os.path.join(out, "manifest.json")) as fh:
                config = json.load(fh)["config"]
            declared = {flag[2:].replace("-", "_") for flag in SHARED_FLAGS + flags}
            assert set(config) == declared - {"config", "json_errors"}, command
