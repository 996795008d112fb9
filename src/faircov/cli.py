"""Command line pipeline: simulate, fit, calibrate, evaluate, compare, sweep-m.

The CLI is two tables. ``OPTIONS`` declares every option once: its cast
from text, its default and its help. ``COMMANDS`` maps each subcommand
to its handler, help, options and required options. ``build_parser``
generates the subparsers from them, and ``main`` does the shared work
of every command in one path: it rejects config keys no option declares,
resolves each declared option (flag, else ``key=value`` config file,
else default), creates the out-dir, times the handler, and writes
``manifest.json`` from the resolved options plus the files the handler
opened: every input goes through ``_read`` and every output through
``_out``, which record them. Each ``cmd_*`` handler does only its own work.

Artifacts are deterministic given identical inputs and seeds;
``manifest.json`` additionally records wall-clock timings and is
therefore the one file excluded from bit-identical reruns. Each command
overwrites it.

``fit`` (and ``compare --train``) fits the quantile model exactly; its
``--epochs`` caps the interior-point iterations per quantile level.

Exit codes: 0 success, 1 input or validation error or an artifact that
cannot be written, 2 argument-syntax error (from argparse). With
``--json-errors`` such an exit-1 error is emitted as a JSON object on
stderr.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import sys
import time
from typing import Any, Callable, NamedTuple

import numpy as np

from . import __version__
from .conformal import GlobalThreshold, cqr_calibrate, split_cp_calibrate
from .core import (
    SplitSpec,
    ValidationError,
    load_dataset,
    split_dataset,
    write_dataset,
)
from .fair_calibration import ThresholdTable, cqr_calibrate_groupwise, fair_calibrate, missed_floors
from .intervals import predict_interval  # noqa: F401 - bench/tracing.py rebinds this name
from .metrics import (
    comparison_header,
    comparison_row,
    evaluate,
    report_to_json,
)
from .quantile_model import (
    QuantileLevels,
    QuantileModel,
    SyntheticSpec,
    generate_synthetic,
)
from .quantile_model import fit as fit_model

__all__ = ["main", "build_parser"]

METHODS = ("cp", "cqr", "cqr_groupwise", "fuq")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _load_config(path: str) -> dict[str, str]:
    """Parse a flat key=value config file; '#' starts a comment line."""
    config: dict[str, str] = {}
    try:
        with open(path) as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValidationError(
                        f"config line {line_no} is not key=value: {line!r}"
                    )
                key, _, value = line.partition("=")
                config[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ValidationError(f"cannot open config file {path!r}: {exc}") from None
    return config


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return seed


def _domain(text: str) -> tuple[float, float]:
    parts = _floats(text)
    if len(parts) != 2:
        raise ValueError("label domain must be two comma-separated numbers")
    return parts[0], parts[1]


def _method(name: str) -> str:
    if name not in METHODS:
        raise ValueError(f"unknown method {name!r}; choose one of {', '.join(METHODS)}")
    return name


def _methods(text: str) -> tuple[str, ...]:
    return tuple(_method(name) for name in text.split(","))


class Option(NamedTuple):
    cast: Callable[[str], Any]
    default: Any
    help: str


class Command(NamedTuple):
    handler: Callable
    help: str
    options: tuple[str, ...]
    required: tuple[str, ...] = ()


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _resolve(args, config: dict, key: str, cast, default=None, required: bool = False):
    """Flag value, else config value, else default; casts from strings."""
    value = getattr(args, key, None)
    if value is None:
        value = config.get(key)
    if value is None:
        if required:
            raise ValidationError(f"missing required option {_flag(key)}")
        return default
    if isinstance(value, str) and cast is not str:
        try:
            value = cast(value)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"invalid value {value!r} for {_flag(key)}: {exc}") from None
    return value


def _load_artifact(path: str, kind: str, parse):
    """Read a JSON artifact; any shape ``parse`` cannot use is a ValidationError."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot open {kind} file {path!r}: {exc}") from None
    try:
        return parse(text)
    except (LookupError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {kind} file {path!r}: {exc}") from None


def _parse_calibrator(text: str):
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
    if isinstance(payload.get("r_hat"), list):
        return ThresholdTable.from_payload(payload)
    return GlobalThreshold.from_json(text)


def _read(o, path: str) -> str:
    """Record ``path`` as an input of the command; it is hashed once, for the manifest."""
    o.inputs.setdefault(path, None)
    return path


def _out(o, name: str) -> str:
    """Record ``name`` as an output of the command; returns its path in the out-dir."""
    o.outputs.append(name)
    return os.path.join(o.out_dir, name)


def _load_model(o) -> QuantileModel | None:
    return _load_artifact(_read(o, o.model), "model", QuantileModel.from_json) if o.model else None


def _load_data(o, path: str, group_count: int | None = None):
    schema = {"group": o.attribute_col} if o.attribute_col else None
    return load_dataset(_read(o, path), o.label_domain, schema=schema, group_count=group_count)


def _write_text(o, name: str, text: str) -> None:
    with open(_out(o, name), "w") as fh:
        fh.write(text)
        fh.write("\n")


def _fit(o, train) -> QuantileModel:
    model = fit_model(train, QuantileLevels.for_alpha(o.alpha), epochs=o.epochs, seed=o.seed)
    _write_text(o, "model.json", model.to_json())
    return model


def cmd_simulate(o) -> None:
    split = SplitSpec(fractions=o.fractions, seed=o.seed)
    spec = SyntheticSpec(
        n=o.n,
        group_probs=o.group_probs,
        feature_dim=o.feature_dim,
        noise_scale_per_group=o.noise_scales,
        label_domain=o.label_domain,
        seed=o.seed,
    )
    parts = split_dataset(generate_synthetic(spec), split)
    for name, part in zip(("train.csv", "cal.csv", "test.csv"), parts):
        write_dataset(part, _out(o, name))


def cmd_fit(o) -> None:
    _fit(o, _load_data(o, o.data))


def _run_calibration(method, cal, model, alpha, bins, max_iters=None):
    """Run one calibration method; returns the calibrator and the fuq trace (else None)."""
    if method == "cp":
        return split_cp_calibrate(cal, model, alpha), None
    if method == "cqr":
        return cqr_calibrate(cal, model, alpha), None
    if method == "cqr_groupwise":
        return cqr_calibrate_groupwise(cal, model, alpha), None
    return fair_calibrate(cal, model, bins, alpha, max_iters=max_iters)


def cmd_calibrate(o) -> None:
    cal = _load_data(o, o.data)
    model = _load_model(o)
    calibrator, trace = _run_calibration(o.method, cal, model, o.alpha, o.bins, o.max_iters)
    if trace is not None:
        # a fuq table below its floors is an error, not an artifact
        missed = missed_floors(cal, model, calibrator)
        if missed:
            raise ValidationError(
                f"the fuq table misses its coverage floors (optimizer stopped by "
                f"{trace.termination_reason}): " + "; ".join(missed)
            )
    o.inputs = {path: _sha256(path) for path in o.inputs}
    if isinstance(calibrator, ThresholdTable):
        extras = {"method": o.method, "seed": o.seed, "input_hashes": o.inputs}
        if trace is not None:
            extras["trace_summary"] = trace.summary()
        text = json.dumps(calibrator.to_payload(extras), sort_keys=True, indent=2)
    else:
        text = calibrator.to_json()
    _write_text(o, "calibrator.json", text)


def cmd_evaluate(o) -> None:
    calibrator = _load_artifact(_read(o, o.calibrator), "calibrator", _parse_calibrator)
    # a table fixes the group count: every one of its groups must appear
    group_count = calibrator.group_count if isinstance(calibrator, ThresholdTable) else None
    test = _load_data(o, o.data, group_count)
    model = _load_model(o)
    predictions = _out(o, "predictions.csv")
    fh = open(predictions, "w", newline="")
    try:
        with fh:
            report = evaluate(test, model, calibrator, fh)
    except (ValidationError, OSError):
        os.remove(predictions)  # a rejected or failed evaluation leaves no predictions file
        raise
    _write_text(o, "report.json", report_to_json(report))


def _aligned_table(rows: list[list[str]]) -> str:
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    ]
    return "\n".join(lines) + "\n"


def cmd_compare(o) -> None:
    cal = _load_data(o, o.cal)
    # every calibrated group must appear in the test file, as in evaluate
    test = _load_data(o, o.test, cal.group_count)
    if o.model:
        model = _load_model(o)
    elif not o.train:
        raise ValidationError("compare needs either --model or --train")
    else:
        model = _fit(o, _load_data(o, o.train))

    rows = [comparison_header(test.group_count)]
    for method in o.methods:
        calibrator, _ = _run_calibration(method, cal, model, o.alpha, o.bins)
        report = evaluate(test, model, calibrator)
        rows.append(comparison_row(method, report))
        _write_text(o, f"report_{method}.json", report_to_json(report))
    with open(_out(o, "comparison.csv"), "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with open(_out(o, "comparison.txt"), "w") as fh:
        fh.write(_aligned_table(rows))


def cmd_sweep_m(o) -> None:
    if any(m < 1 for m in o.m_values):
        raise ValidationError(f"bin counts must be positive, got {o.m_values}")
    cal = _load_data(o, o.data)
    model = _load_model(o)
    if cal.n < 2:
        raise ValidationError("sweep needs at least two calibration records to split")
    perm = np.random.default_rng(o.seed).permutation(cal.n)
    half = cal.n // 2
    fit_part = cal.subset(perm[:half])
    val_part = cal.subset(perm[half:])

    rows = [["M", "picp", "mpiw", "picp_gap", "iterations", "termination"]]
    per_m_seconds = o.timings["per_m_seconds"] = {}
    for m in o.m_values:
        tick = time.perf_counter()
        table, trace = fair_calibrate(fit_part, model, m, o.alpha)
        report = evaluate(val_part, model, table)
        per_m_seconds[str(m)] = time.perf_counter() - tick
        rows.append(
            [
                str(m),
                f"{report.picp_overall:.6f}",
                f"{report.mpiw_overall:.6f}",
                f"{report.picp_gap:.6f}",
                str(trace.donor_group.size),
                trace.termination_reason,
            ]
        )
    with open(_out(o, "sweep.csv"), "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


OPTIONS: dict[str, Option] = {
    "out_dir": Option(str, ".", "artifact directory"),
    "seed": Option(_seed, 0, "integer seed"),
    "n": Option(int, 8000, "total record count"),
    "group_probs": Option(_floats, (0.5, 0.5), "comma list of group probabilities"),
    "noise_scales": Option(_floats, (1.0, 2.0), "comma list, one noise scale per group"),
    "feature_dim": Option(int, 3, "feature count"),
    "label_domain": Option(_domain, (0.0, 63.0), "closed label range lo,hi"),
    "fractions": Option(_floats, (0.5, 0.25, 0.25), "train,cal,test fractions"),
    "data": Option(str, None, "input CSV"),
    "train": Option(str, None, "training CSV (fits a model unless --model is given)"),
    "cal": Option(str, None, "calibration CSV"),
    "test": Option(str, None, "test CSV"),
    "model": Option(str, None, "model JSON from fit"),
    "calibrator": Option(str, None, "calibrator JSON from calibrate"),
    "method": Option(_method, "fuq", " | ".join(METHODS)),
    "methods": Option(_methods, METHODS, "comma list of methods"),
    "alpha": Option(float, 0.1, "miscoverage level"),
    "bins": Option(int, 4, "label bin count for fuq"),
    "max_iters": Option(int, None, "optimizer iteration cap"),
    "epochs": Option(int, 400, "fit iteration cap per quantile level"),
    "attribute_col": Option(str, None, "group column name"),
    "m_values": Option(_ints, (1, 2, 4, 8), "comma list of bin counts"),
}

# Every command also takes these, besides --config and --json-errors.
COMMON = ("out_dir", "seed")

COMMANDS: dict[str, Command] = {
    "simulate": Command(
        cmd_simulate,
        "draw a synthetic dataset and split it",
        ("n", "group_probs", "noise_scales", "feature_dim", "label_domain", "fractions"),
    ),
    "fit": Command(
        cmd_fit,
        "fit the quantile model",
        ("data", "alpha", "epochs", "label_domain", "attribute_col"),
        required=("data",),
    ),
    "calibrate": Command(
        cmd_calibrate,
        "calibrate intervals on held-out data",
        ("data", "model", "method", "alpha", "bins", "max_iters", "label_domain", "attribute_col"),
        required=("data",),
    ),
    "evaluate": Command(
        cmd_evaluate,
        "score a calibrator on test data",
        ("data", "model", "calibrator", "label_domain", "attribute_col"),
        required=("data", "calibrator"),
    ),
    "compare": Command(
        cmd_compare,
        "run all methods and tabulate",
        ("train", "cal", "test", "model", "methods", "alpha", "bins", "epochs",
         "label_domain", "attribute_col"),
        required=("cal", "test"),
    ),
    "sweep-m": Command(
        cmd_sweep_m,
        "vary the bin count on a split of the calibration data",
        ("data", "model", "m_values", "alpha", "label_domain", "attribute_col"),
        required=("data", "model"),
    ),
}


def _show(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_show(v) for v in value)
    return f"{value:g}" if isinstance(value, float) else str(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faircov",
        description="Group-fair conformal calibration of quantile regression bands.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="key=value config file; flags take precedence")
        p.add_argument("--json-errors", action="store_true", help="emit errors as JSON on stderr")
        for key in COMMON + command.options:
            option = OPTIONS[key]
            text = option.help
            if option.default is not None:
                text += f" (default {_show(option.default)})"
            p.add_argument(_flag(key), help=text)
    return parser


def _run(args, config) -> None:
    """Resolve the command's options, run its handler and write ``manifest.json``."""
    started = time.perf_counter()
    command = COMMANDS[args.command]
    unknown = sorted(set(config) - set(OPTIONS) - {"json_errors"})
    if unknown:
        raise ValidationError(f"unknown config key(s): {', '.join(unknown)}")
    resolved = {
        key: _resolve(args, config, key, OPTIONS[key].cast, OPTIONS[key].default,
                      required=key in command.required)
        for key in COMMON + command.options
    }
    out_dir = resolved["out_dir"]
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot use --out-dir {out_dir!r}: {exc}") from None
    o = argparse.Namespace(**resolved, inputs={}, outputs=[], timings={})
    command.handler(o)
    manifest = {
        "command": args.command,
        "config": resolved,
        "inputs": {path: o.inputs[path] or _sha256(path) for path in sorted(o.inputs)},
        "outputs": {name: _sha256(os.path.join(out_dir, name)) for name in sorted(o.outputs)},
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "package": __version__,
        },
        "timings": {"total_seconds": time.perf_counter() - started, **o.timings},
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    json_errors = bool(args.json_errors)
    try:
        config = _load_config(args.config) if args.config else {}
        json_errors = json_errors or config.get("json_errors", "").lower() in (
            "1",
            "true",
            "yes",
        )
        _run(args, config)
        return 0
    except (ValidationError, OSError) as exc:  # OSError: an artifact that cannot be written
        if json_errors:
            payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": 1}
            print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
