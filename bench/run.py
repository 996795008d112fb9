"""Run one faircov benchmark workload and print its metrics.

    python3 bench/run.py --workload cli_pipeline --seed 1 --seconds 36 --trace 0

Run from the root of a checkout: faircov is imported from ``src/``.
The run sets the workload up several times, then repeats timed passes
over the same seeded inputs until ``--seconds`` is spent, and checks
every pass's outputs. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics. Its passes carry only the
call counters of ``tracing.Tally``. ``--trace 1`` alternates such passes
with passes under ``tracing.Tracer`` and reports the per-layer metrics
from the traced ones, including the tracing overhead as traced minus
untraced pass time. The spans are written to ``.bench_out/`` at exit.

Timings come only from ``time.perf_counter`` inside this process. The
run drops no cache, pins no CPU and leaves the BLAS thread count at its
default. Pass time is the median over the run's passes, and set-up
time the median set-up's: on a small shared machine co-tenants slow
the processor for stretches of seconds, and medians over a run repeat
from run to run better than minima do.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUPS = 5  # set-ups per run; setup_s is the median plus the import time


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import faircov from this checkout's ``src/``; None when it has none."""
    src = ROOT / "src"
    if not (src / "faircov" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import faircov

    if Path(faircov.__file__).resolve().parent != src / "faircov":
        return None
    return faircov


def code_sha256() -> str:
    """One hash over the package and benchmark sources: what "same code" means."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "faircov").glob("*.py"), *BENCH.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed: int, code: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "git_sha": git_sha(),
        "code_sha256": code,
        "seed": seed,
        "timers": "time.perf_counter inside this process; no cache dropping, no CPU pinning",
    }


def percentile(values, q: int) -> float:
    """The q-th percentile by ``statistics.quantiles``; a lone value is its own."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    """The set-ups and passes of one run.

    ``passes`` holds ``(result, probe)`` in the order run: the probe is
    a ``Tally`` for an untraced pass and a span summary for a traced one.
    """

    def __init__(self, workload, trace: bool):
        self.workload = workload
        self.trace = trace
        self.tracer = tracing.Tracer()
        self.passes: list = []
        self.setup_summary = tracing.Summary({}, 0, 0, [])

    def set_up(self) -> list[float]:
        """Seconds per set-up; in a traced run the last one is traced."""
        times = []
        for i in range(SETUPS):
            start = perf_counter()
            if self.trace and i == SETUPS - 1:
                root = len(self.tracer.spans)
                with tracing.patched(tracing.TRACED, self.tracer):
                    with self.tracer.span("bench.setup"):
                        self.workload.setup()
                self.setup_summary = tracing.summarize(self.tracer.spans, root)
            else:
                self.workload.setup()
            times.append(perf_counter() - start)
        return times

    def one_pass(self, traced: bool):
        if traced:
            root = len(self.tracer.spans)
            with tracing.patched(tracing.TRACED, self.tracer):
                result = self.workload.run_pass(self.tracer)
            probe = tracing.summarize(self.tracer.spans, root)
            predict = probe.calls(tracing.PREDICT_INTERVAL)
            scored = probe.scored_in_fair_calibrate
        else:
            probe = tracing.Tally()
            with tracing.patched(tracing.TALLIED, probe):
                result = self.workload.run_pass(probe)
            predict = probe.calls[tracing.PREDICT_INTERVAL]
            scored = probe.scoped[tracing.CONFORMITY_SCORES]
        # exact counts the probes see; traced and untraced passes must agree
        result.counts["intervals.predict_interval_calls"] = predict
        result.counts["conformal.scores_in_fair_calibrate"] = scored
        self.passes.append((result, probe))

    def measure(self, seconds: float):
        """Pass after pass until ``seconds`` are spent.

        A pass is not started when half of a median pass would no longer
        fit. A traced run alternates untraced and traced passes and makes
        at least one of each.
        """
        start = perf_counter()
        while True:
            self.one_pass(traced=self.trace and len(self.passes) % 2 == 1)
            walls = [result.wall_s for result, _ in self.passes]
            enough = not self.trace or len(walls) >= 2
            if enough and perf_counter() - start + 0.5 * statistics.median(walls) >= seconds:
                return

    def untraced(self):
        return [(r, p) for r, p in self.passes if isinstance(p, tracing.Tally)]

    def traced(self):
        return [(r, p) for r, p in self.passes if isinstance(p, tracing.Summary)]


def _exact(result) -> dict:
    return json.loads(json.dumps({"counts": result.counts, "outputs": result.outputs}))


def _diff(a: dict, b: dict) -> list[str]:
    return sorted(
        f"{part}.{key}"
        for part in ("counts", "outputs")
        for key in set(a[part]) | set(b[part])
        if a[part].get(key) != b[part].get(key)
    )


def repeat_failures(results, record: Path) -> dict[str, str]:
    """Counts or outputs that differ between passes, or from an earlier run.

    A differing pass counts as one failed operation. The first run of a
    given code, workload and seed stores its first pass in ``record``;
    every later run of the same code must reproduce it.
    """
    failures = {}
    first = _exact(results[0])
    for k, result in enumerate(results[1:], start=2):
        differs = _diff(first, _exact(result))
        if differs:
            failures[f"pass {k}: repeat"] = f"differs from pass 1 in {differs}"
    if record.is_file():
        differs = _diff(json.loads(record.read_text()), first)
        if differs:
            failures["run: repeat"] = f"differs from {record.name} in {differs}"
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        partial = record.with_suffix(".partial")
        partial.write_text(json.dumps(first, sort_keys=True, indent=1) + "\n")
        os.replace(partial, record)
    return failures


END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "mpiw": "label_units",
    "picp_worst_group": "fraction",
}


def end_to_end(run: Run, setup_s: float) -> dict:
    """End-to-end values of an untraced run."""
    passes = run.untraced()
    quality = passes[0][0].outputs
    return {
        "wall_s": statistics.median(r.wall_s for r, _ in passes),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mpiw": quality["mpiw"],
        "picp_worst_group": quality["picp_worst_group"],
    }


# name -> (unit, better). Times are per pass unless the name says set-up.
PER_LAYER = {
    **{f"{layer}.self_s": ("s", "lower") for layer in (*tracing.LAYERS, "bench")},
    "core.load_dataset_s": ("s", "lower"),
    "core.write_dataset_s": ("s", "lower"),
    "core.split_dataset_s": ("s", "lower"),
    "core.bytes_read": ("count", "lower"),
    "core.bytes_written": ("count", "lower"),
    "core.read_mb_per_s": ("MB/s", "higher"),
    "core.write_mb_per_s": ("MB/s", "higher"),
    "quantile_model.generate_synthetic_s": ("s", "lower"),
    "quantile_model.generate_synthetic_setup_s": ("s", "lower"),
    "quantile_model.fit_s": ("s", "lower"),
    "quantile_model.fit_epochs": ("count", "lower"),
    "quantile_model.fit_ms_per_epoch": ("ms", "lower"),
    "quantile_model.band_s": ("s", "lower"),
    "conformal.score_passes": ("count", "lower"),
    "conformal.conformity_scores_s": ("s", "lower"),
    "conformal.cqr_calibrate_s": ("s", "lower"),
    "binning.equal_mass_bins_s": ("s", "lower"),
    "binning.bin_indices_s": ("s", "lower"),
    "fair_calibration.fair_calibrate_s": ("s", "lower"),
    "fair_calibration.init_thresholds_s": ("s", "lower"),
    "fair_calibration.measure_coverage_s": ("s", "lower"),
    "fair_calibration.eoc_optimize_s": ("s", "lower"),
    "fair_calibration.eoc_optimize_self_s": ("s", "lower"),
    "fair_calibration.cqr_calibrate_groupwise_s": ("s", "lower"),
    "fair_calibration.moves": ("count", "lower"),
    "fair_calibration.us_per_move": ("us", "lower"),
    "fair_calibration.converged_share": ("fraction", "higher"),
    "fair_calibration.calib_p50_ms": ("ms", "lower"),
    "fair_calibration.calib_p90_ms": ("ms", "lower"),
    "intervals.predict_interval_calls": ("count", "lower"),
    "intervals.predict_interval_s": ("s", "lower"),
    "intervals.union_widths_s": ("s", "lower"),
    "intervals.union_covered_s": ("s", "lower"),
    "metrics.evaluate_s": ("s", "lower"),
    "metrics.picp_gap": ("fraction", "lower"),
    **{f"cli.{command}{part}_s": ("s", "lower") for command in (
        "simulate", "fit", "calibrate", "evaluate",
    ) for part in ("", "_self")},
    "cli.sha256_s": ("s", "lower"),
    "trace.traced_wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


def _layer_values(result, summary) -> dict:
    """Per-layer values of one traced pass."""
    total, own = summary.total, summary.own

    def ratio(a, b):
        return a / b if b else 0.0

    counts = result.counts
    latencies = [t * 1e3 for t in summary.fair_calibrate_s] or [0.0]
    out = {}
    for name in PER_LAYER:
        layer, _, rest = name.partition(".")
        if rest == "self_s":
            out[name] = sum(v["self_s"] for k, v in summary.by_name.items() if k.split(".")[0] == layer)
    read_b, written_b = counts.get("core.bytes_read", 0), counts.get("core.bytes_written", 0)
    epochs = counts.get("quantile_model.fit_epochs", 0)
    moves, fc_calls = counts["fair_calibration.moves"], counts["fair_calibration.calls"]
    out.update(
        {
            "core.load_dataset_s": total("core.load_dataset"),
            "core.write_dataset_s": total("core.write_dataset"),
            "core.split_dataset_s": total("core.split_dataset"),
            "core.bytes_read": read_b,
            "core.bytes_written": written_b,
            "core.read_mb_per_s": ratio(read_b / 1e6, total("core.load_dataset")),
            "core.write_mb_per_s": ratio(written_b / 1e6, total("core.write_dataset")),
            "quantile_model.generate_synthetic_s": total("quantile_model.generate_synthetic"),
            "quantile_model.fit_s": total("quantile_model.fit"),
            "quantile_model.fit_epochs": epochs,
            "quantile_model.fit_ms_per_epoch": ratio(total("quantile_model.fit") * 1e3, epochs),
            "quantile_model.band_s": total("quantile_model.QuantileModel.band"),
            "conformal.score_passes": ratio(counts["conformal.scores_in_fair_calibrate"], fc_calls),
            "conformal.conformity_scores_s": total("conformal.conformity_scores"),
            "conformal.cqr_calibrate_s": total("conformal.cqr_calibrate"),
            "binning.equal_mass_bins_s": total("binning.equal_mass_bins"),
            "binning.bin_indices_s": total("binning.bin_indices"),
            "fair_calibration.fair_calibrate_s": total("fair_calibration.fair_calibrate"),
            "fair_calibration.init_thresholds_s": total("fair_calibration.init_thresholds"),
            "fair_calibration.measure_coverage_s": total("fair_calibration.measure_coverage"),
            "fair_calibration.eoc_optimize_s": total("fair_calibration.eoc_optimize"),
            "fair_calibration.eoc_optimize_self_s": own("fair_calibration.eoc_optimize"),
            "fair_calibration.cqr_calibrate_groupwise_s": total("fair_calibration.cqr_calibrate_groupwise"),
            "fair_calibration.moves": moves,
            "fair_calibration.us_per_move": ratio(own("fair_calibration.eoc_optimize") * 1e6, moves),
            "fair_calibration.converged_share": ratio(counts["fair_calibration.converged"], fc_calls),
            "fair_calibration.calib_p50_ms": percentile(latencies, 50),
            "fair_calibration.calib_p90_ms": percentile(latencies, 90),
            "intervals.predict_interval_calls": counts["intervals.predict_interval_calls"],
            "intervals.predict_interval_s": total("intervals.predict_interval"),
            "intervals.union_widths_s": total("intervals.union_widths"),
            "intervals.union_covered_s": total("intervals.union_covered"),
            "metrics.evaluate_s": total("metrics.evaluate"),
            "metrics.picp_gap": result.outputs.get("picp_gap", 0.0),
            "cli.sha256_s": total("cli._sha256"),
            "trace.traced_wall_s": result.wall_s,
            "trace.spans": summary.spans,
        }
    )
    for command in ("simulate", "fit", "calibrate", "evaluate"):
        out[f"cli.{command}_s"] = total(f"cli.{command}")
        out[f"cli.{command}_self_s"] = own(f"cli.{command}")
    return out


def per_layer(run: Run) -> dict:
    """Per-layer values of the median traced pass, so that they add up."""
    traced = sorted(run.traced(), key=lambda p: p[0].wall_s)
    values = _layer_values(*traced[(len(traced) - 1) // 2])
    untraced = statistics.median(r.wall_s for r, _ in run.untraced())
    values["trace.untraced_wall_s"] = untraced
    values["trace.overhead_s"] = values["trace.traced_wall_s"] - untraced
    values["quantile_model.generate_synthetic_setup_s"] = run.setup_summary.total("quantile_model.generate_synthetic")
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)  # relative paths keep the CLI artifacts' bytes checkout-independent
    start = perf_counter()
    if import_package() is None:
        print(f"error: no faircov sources under {ROOT / 'src'}; run from a checkout's root", file=sys.stderr)
        return 2
    import workloads

    import_s = perf_counter() - start
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    code = code_sha256()
    env = environment(args.seed, code)
    print("environment", json.dumps(env, sort_keys=True), flush=True)

    workdir = OUT.relative_to(ROOT) / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(workloads.make(args.workload, args.seed, str(workdir)), bool(args.trace))
        setup_s = import_s + statistics.median(run.set_up())
        run.measure(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = [result for result, _ in run.passes]
    failures = {
        f"pass {k}: {op}": why for k, result in enumerate(results, start=1) for op, why in result.failures.items()
    }
    record = OUT / "records" / f"{args.workload}-seed{args.seed}-{code[:16]}.json"
    failures.update(repeat_failures(results, record))
    attempted = sum(result.attempted for result in results)
    failed = min(attempted, len(failures))

    for k, (result, probe) in enumerate(run.passes, start=1):
        kind = "untraced" if isinstance(probe, tracing.Tally) else "traced"
        print(f"pass {k} {kind} wall_s={result.wall_s:.4f} attempted={result.attempted} failed={len(result.failures)}")
    print("counts", json.dumps(results[0].counts, sort_keys=True))
    print("outputs", json.dumps(results[0].outputs, sort_keys=True))
    for op, why in sorted(failures.items()):
        print(f"FAILED {op}: {why}")
    print(f"failed_share {failed / attempted:.6f} ({failed} of {attempted} operations)")

    if args.trace:
        values, units = per_layer(run), {k: v[0] for k, v in PER_LAYER.items()}
        spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        with open(spans_path, "w") as fh:
            json.dump({"environment": env, "columns": ["name", "parent", "start_s", "end_s"],
                       "spans": run.tracer.spans}, fh)
        print(f"spans {len(run.tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        values, units = end_to_end(run, setup_s), END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
