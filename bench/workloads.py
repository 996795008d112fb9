"""The three benchmark workloads and the checks on their outputs.

Every workload makes its inputs from the run seed in ``setup`` and then
repeats ``run_pass`` on those same inputs. A pass calls faircov only
through module attributes (``fair_calibration.fair_calibrate``, not a
name imported into this file), so the probes in ``tracing`` see each
call. Checks run after the timed part of a pass.

An operation is one CLI command for ``cli_pipeline`` and one
calibrate+evaluate for the other two workloads. It fails when it
raises, when a CLI command exits nonzero, or when a ``fuq`` table
misses a floor on its own calibration set.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from faircov import cli, conformal, fair_calibration, metrics, quantile_model
from faircov.core import load_dataset
from faircov.fair_calibration import ThresholdTable, measure_coverage
from faircov.quantile_model import QuantileModel, SyntheticSpec, signal_coefficients

ALPHA = 0.1
DOMAIN = (0.0, 63.0)


@dataclass
class PassResult:
    """What one pass did, measured from outside the package.

    ``failures`` maps each failed operation to its reason. ``counts``
    and ``outputs`` are exact and must repeat on every pass of the same
    code and inputs; ``outputs`` holds the ``fuq`` quality figures and,
    for the CLI, the artifact hashes.
    """

    wall_s: float = 0.0
    attempted: int = 0
    failures: dict[str, str] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    outputs: dict[str, object] = field(default_factory=dict)


def floor_violations(cal, model, table, alpha: float = ALPHA) -> list[str]:
    """Floors a calibrated table misses on its own calibration set.

    Every group's bin-mean coverage must reach ``1 - alpha`` and the
    pooled covered count ``ceil(n (1 - alpha))``, with the optimizer's
    own tolerances. An empty list means the table is feasible.
    """
    state = measure_coverage(cal, model, table)
    target = 1.0 - alpha
    problems = [
        f"group {s} bin-mean coverage {mean:.6f} < {target}"
        for s, mean in enumerate(state.per_group_mean)
        if mean < target - 1e-12
    ]
    covered = int(np.rint((state.beta * state.cell_counts).sum()))
    floor = math.ceil(cal.n * target - 1e-9)
    if covered < floor:
        problems.append(f"pooled covered count {covered} < {floor}")
    return problems


def oracle_band(n: int, noise: tuple[float, ...], seed: int):
    """Synthetic records carrying the generator's own signal as their band.

    The band is the noiseless signal plus or minus ``1.645 * mean(noise)``,
    so no model is fitted and calibration runs with ``model=None``.
    """
    spec = SyntheticSpec(
        n=n,
        group_probs=tuple(1.0 / len(noise) for _ in noise),
        feature_dim=3,
        noise_scale_per_group=noise,
        label_domain=DOMAIN,
        seed=seed,
    )
    data = quantile_model.generate_synthetic(spec)
    w, b = signal_coefficients(spec)
    signal = b + data.features @ w
    half = 1.645 * float(np.mean(noise))
    return data.with_predictions(signal - half, signal + half)


def oracle_instance(n: int, noise: tuple[float, ...], seed: int):
    """Calibration and test halves of ``oracle_band``; records are iid."""
    data = oracle_band(n, noise, seed)
    order = np.arange(n)
    return data.subset(order[: n // 2]), data.subset(order[n // 2 :])


def _sub_seeds(seed: int, count: int) -> list[int]:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(count)]


class InMemory:
    """Calibrate+evaluate operations on precomputed oracle bands.

    ``instances`` holds ``(bins, (cal, test))`` pairs; ``METHODS`` are
    run on each one.
    """

    name = ""
    METHODS: tuple[str, ...] = ("fuq",)

    def __init__(self, seed: int):
        self.seed = seed
        self.instances: list = []

    def make_instances(self) -> list:
        raise NotImplementedError

    def setup(self):
        self.instances = []  # free the previous set-up's inputs first
        self.instances = self.make_instances()
        cal, test = oracle_instance(2000, (1.0, 5.0), self.seed)
        metrics.evaluate(test, None, fair_calibration.fair_calibrate(cal, None, 4, ALPHA)[0])

    def run_pass(self, probe) -> PassResult:
        """One timed pass; ``probe`` records inside its ``timed()`` block."""
        result = PassResult()
        fuq = []
        with probe.timed():
            start = perf_counter()
            for i, (bins, (cal, test)) in enumerate(self.instances):
                for method in self.METHODS:
                    op = f"{i}:{method}:M={bins}"
                    result.attempted += 1
                    try:
                        if method == "fuq":
                            table, trace = fair_calibration.fair_calibrate(cal, None, bins, ALPHA)
                        elif method == "cqr":
                            table = conformal.cqr_calibrate(cal, None, ALPHA)
                        else:
                            table = fair_calibration.cqr_calibrate_groupwise(cal, None, ALPHA)
                        report = metrics.evaluate(test, None, table)
                    except Exception as exc:  # a failed operation is a result, not a crash
                        result.failures[op] = f"{type(exc).__name__}: {exc}"
                    else:
                        if method == "fuq":
                            fuq.append((op, cal, table, trace, report))
            result.wall_s = perf_counter() - start
        for op, cal, table, _, _ in fuq:
            problems = floor_violations(cal, None, table)
            if problems:
                result.failures[op] = "; ".join(problems)
        result.counts = {
            "fair_calibration.calls": len(fuq),
            "fair_calibration.moves": sum(len(f[3].iterations) for f in fuq),
            "fair_calibration.converged": sum(f[3].termination_reason == "converged" for f in fuq),
        }
        reports = [f[4] for f in fuq]
        if reports:
            result.outputs = {
                "mpiw": statistics.fmean(r.mpiw_overall for r in reports),
                "picp_gap": statistics.fmean(r.picp_gap for r in reports),
                "picp_worst_group": statistics.fmean(min(r.picp_per_group) for r in reports),
            }
        return result


class CalibrateLarge(InMemory):
    """fuq at 100k calibration / 100k test records, three table shapes."""

    name = "calibrate_large"
    SHAPES = ((8, 2), (16, 4), (32, 4))  # (bins M, groups S)
    N = 200_000

    def make_instances(self):
        groups = sorted({s for _, s in self.SHAPES})
        data = {
            s: oracle_instance(self.N, tuple(float(v) for v in np.linspace(1.0, 5.0, s)), seed)
            for s, seed in zip(groups, _sub_seeds(self.seed, len(groups)))
        }
        return [(m, data[s]) for m, s in self.SHAPES]


class SeedStudy(InMemory):
    """The repeated-seed study: 100 small instances, three methods each."""

    name = "seed_study"
    METHODS = ("fuq", "cqr", "cqr_groupwise")
    INSTANCES = 100
    N = 6000
    NOISE = (1.0, 3.0, 5.0)

    def make_instances(self):
        return [
            (4 if i % 2 == 0 else 8, oracle_instance(self.N, self.NOISE, seed))
            for i, seed in enumerate(_sub_seeds(self.seed, self.INSTANCES))
        ]


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class CliPipeline:
    """simulate, fit, calibrate --method fuq, evaluate through ``cli.main``."""

    name = "cli_pipeline"
    COMMANDS = ("simulate", "fit", "calibrate", "evaluate")
    FINGERPRINTED = ("calibrator.json", "report.json", "predictions.csv")

    N = 50_000
    EPOCHS = 400

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def argv(self, command: str, out: str, n: int, epochs: int) -> list[str]:
        return {
            "simulate": [
                "--n", str(n), "--noise-scales", "1,2,3,4",
                "--group-probs", "0.25,0.25,0.25,0.25", "--seed", str(self.seed),
            ],
            "fit": ["--data", f"{out}/train.csv", "--epochs", str(epochs)],
            "calibrate": [
                "--data", f"{out}/cal.csv", "--model", f"{out}/model.json",
                "--method", "fuq", "--bins", "8",
            ],
            "evaluate": [
                "--data", f"{out}/test.csv", "--model", f"{out}/model.json",
                "--calibrator", f"{out}/calibrator.json",
            ],
        }[command] + ["--out-dir", out]

    def setup(self):
        """Warm the command paths on a small pipeline; each pass makes its own inputs."""
        out = os.path.join(self.workdir, "warm-up")
        for command in self.COMMANDS:
            if cli.main([command, *self.argv(command, out, 4000, 20)]) != 0:
                raise RuntimeError(f"warm-up {command} failed")
        shutil.rmtree(out)

    def run_pass(self, probe) -> PassResult:
        """One timed pipeline; ``probe`` records inside its ``timed()`` block."""
        # One out-dir path for every pass: calibrator.json records its input
        # paths, and its hash must repeat.
        out = os.path.join(self.workdir, "pipeline")
        shutil.rmtree(out, ignore_errors=True)
        result = PassResult(attempted=len(self.COMMANDS))
        with probe.timed():
            start = perf_counter()
            for command in self.COMMANDS:
                if result.failures:  # later commands need the failed one's artifacts
                    result.failures[command] = "not run"
                    continue
                try:
                    with probe.span(f"cli.{command}"):
                        code = cli.main([command, *self.argv(command, out, self.N, self.EPOCHS)])
                except Exception as exc:  # a failed operation is a result, not a crash
                    result.failures[command] = f"{type(exc).__name__}: {exc}"
                else:
                    if code != 0:
                        result.failures[command] = f"exit code {code}"
            result.wall_s = perf_counter() - start
        if not result.failures:
            self._check(out, result)
        shutil.rmtree(out, ignore_errors=True)
        return result

    def _check(self, out: str, result: PassResult):
        def path(name):
            return os.path.join(out, name)

        with open(path("model.json")) as fh:
            model = QuantileModel.from_json(fh.read())
        with open(path("calibrator.json")) as fh:
            payload = json.load(fh)
        with open(path("report.json")) as fh:
            report = json.load(fh)
        table = ThresholdTable.from_payload(payload)
        problems = floor_violations(load_dataset(path("cal.csv"), DOMAIN), model, table)
        if problems:
            result.failures["calibrate"] = "; ".join(problems)
        # fit, calibrate and evaluate each load one of the three CSVs simulate wrote
        csv_bytes = sum(os.path.getsize(path(f"{part}.csv")) for part in ("train", "cal", "test"))
        summary = payload["trace_summary"]
        result.counts = {
            "fair_calibration.calls": 1,
            "fair_calibration.moves": int(summary["iterations"]),
            "fair_calibration.converged": int(summary["termination_reason"] == "converged"),
            "quantile_model.fit_epochs": len(model.loss_trace) - 1,
            "core.bytes_written": csv_bytes,
            "core.bytes_read": csv_bytes,
        }
        result.outputs = {
            "mpiw": float(report["mpiw_overall"]),
            "picp_gap": float(report["picp_gap"]),
            "picp_worst_group": float(min(report["picp_per_group"])),
            **{f"sha256:{name}": _sha256(path(name)) for name in self.FINGERPRINTED},
        }


WORKLOADS = (CliPipeline.name, CalibrateLarge.name, SeedStudy.name)


def make(name: str, seed: int, workdir: str):
    if name == CliPipeline.name:
        return CliPipeline(seed, workdir)
    if name == CalibrateLarge.name:
        return CalibrateLarge(seed)
    if name == SeedStudy.name:
        return SeedStudy(seed)
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")
