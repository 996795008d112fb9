"""Outside-in probes on faircov's public functions.

The benchmark never edits the package. It rebinds the names through
which callers reach each public function (``faircov.cli.load_dataset``,
``faircov.fair_calibration.conformity_scores``, ...) to wrappers from
this file, and restores the original bindings when the pass ends. A
function is named after the module that defines it, so
``faircov.cli.fit_model`` records as ``quantile_model.fit`` and the
first part of a name is always its layer.

Two recorders share that mechanism:

* ``Tally`` counts calls. Timed runs use it, so the exact count metrics
  exist in every run at the cost of one counter update per call.
* ``Tracer`` records one span per call: name, parent, start and end.
  Spans stay in memory until the run writes them out at exit.

Both record only while the benchmark has a pass open, so the checks
the benchmark runs between passes leave no trace.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
from dataclasses import dataclass
from time import perf_counter

LAYERS = (
    "core",
    "quantile_model",
    "conformal",
    "binning",
    "fair_calibration",
    "intervals",
    "metrics",
    "cli",
)

# (owner, attribute): the bindings callers go through. Callers inside
# the package resolve these names at call time, so rebinding them is
# enough to see every call.
TRACED = (
    ("faircov.cli", "load_dataset"),
    ("faircov.cli", "write_dataset"),
    ("faircov.cli", "split_dataset"),
    ("faircov.cli", "generate_synthetic"),
    ("faircov.cli", "fit_model"),
    ("faircov.cli", "fair_calibrate"),
    ("faircov.cli", "evaluate"),
    ("faircov.cli", "predict_interval"),
    ("faircov.cli", "_sha256"),
    ("faircov.quantile_model", "generate_synthetic"),
    ("faircov.quantile_model:QuantileModel", "band"),
    ("faircov.conformal", "conformity_scores"),
    ("faircov.conformal", "band_columns"),
    ("faircov.conformal", "cqr_calibrate"),
    ("faircov.fair_calibration", "fair_calibrate"),
    ("faircov.fair_calibration", "cqr_calibrate_groupwise"),
    ("faircov.fair_calibration", "equal_mass_bins"),
    ("faircov.fair_calibration", "init_thresholds"),
    ("faircov.fair_calibration", "measure_coverage"),
    ("faircov.fair_calibration", "eoc_optimize"),
    ("faircov.fair_calibration", "cqr_calibrate"),
    ("faircov.fair_calibration", "conformity_scores"),
    ("faircov.fair_calibration", "bin_indices"),
    ("faircov.metrics", "evaluate"),
    ("faircov.metrics", "band_columns"),
    ("faircov.metrics", "bin_indices"),
    ("faircov.metrics", "union_widths"),
    ("faircov.metrics", "union_covered"),
)

FAIR_CALIBRATE = "fair_calibration.fair_calibrate"
CONFORMITY_SCORES = "conformal.conformity_scores"
PREDICT_INTERVAL = "intervals.predict_interval"

# The subset a timed run counts: enough for the exact count metrics, and
# cheap on the per-record path.
TALLIED = (
    ("faircov.cli", "fair_calibrate"),
    ("faircov.cli", "predict_interval"),
    ("faircov.conformal", "conformity_scores"),
    ("faircov.fair_calibration", "fair_calibrate"),
    ("faircov.fair_calibration", "conformity_scores"),
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def span_name(fn) -> str:
    """``<layer>.<qualified name>`` of the function's defining module."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


@contextlib.contextmanager
def patched(bindings, recorder):
    """Rebind each (owner, attribute) to ``recorder.wrap``; restore on exit."""
    saved = []
    try:
        for path, attr in bindings:
            owner = _owner(path)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(span_name(original), original))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Tally:
    """Call counts per function.

    ``scoped`` counts only the calls made while a fair_calibrate call is
    open, which is how conformity-score passes per calibration are
    counted without telling callers apart.
    """

    def __init__(self):
        self.active = False
        self.calls: collections.Counter = collections.Counter()
        self.scoped: collections.Counter = collections.Counter()
        self._depth = 0

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.calls[name] += 1
            if self._depth:
                self.scoped[name] += 1
            if name != FAIR_CALIBRATE:
                return fn(*args, **kwargs)
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1

        return wrapper

    @contextlib.contextmanager
    def timed(self):
        """Count only inside the timed part of a pass."""
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    """Spans ``[name, parent index, start, end]`` kept in one list."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            record = [name, stack[-1], perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()

        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, such as a pass or a CLI command."""
        parent = self._stack[-1] if self._stack else -1
        record = [name, parent, perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[3] = perf_counter()
            self._stack.pop()

    def timed(self):
        """The root span of a pass; nothing is recorded outside one."""
        return self.span("bench.pass")


@dataclass
class Summary:
    """Totals over the spans of one pass or set-up.

    ``by_name`` maps each span name to ``{"calls", "total_s", "self_s"}``.
    ``scored_in_fair_calibrate`` counts the conformity-score calls made
    inside a fair_calibrate call, and ``fair_calibrate_s`` holds each
    fair_calibrate call's duration.
    """

    by_name: dict
    spans: int
    scored_in_fair_calibrate: int
    fair_calibrate_s: list

    def total(self, name: str) -> float:
        return self.by_name.get(name, {}).get("total_s", 0.0)

    def own(self, name: str) -> float:
        return self.by_name.get(name, {}).get("self_s", 0.0)

    def calls(self, name: str) -> int:
        return self.by_name.get(name, {}).get("calls", 0)


def summarize(spans, root: int) -> Summary:
    """Totals over the spans under ``root``, itself included.

    Self time is a span's duration minus the durations of its direct
    children. Spans of one pass are contiguous and children follow their
    parent.
    """
    end = root + 1
    while end < len(spans) and spans[end][1] >= root:
        end += 1
    child = collections.defaultdict(float)
    inside_fc = {}
    for i in range(root, end):
        name, parent, start, stop = spans[i]
        if parent >= root:
            child[parent] += stop - start
            inside_fc[i] = inside_fc[parent] or spans[parent][0] == FAIR_CALIBRATE
        else:
            inside_fc[i] = False
    by_name: dict = {}
    scored = 0
    durations = []
    for i in range(root, end):
        name, _, start, stop = spans[i]
        entry = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += stop - start
        entry["self_s"] += stop - start - child[i]
        if name == CONFORMITY_SCORES and inside_fc[i]:
            scored += 1
        if name == FAIR_CALIBRATE:
            durations.append(stop - start)
    return Summary(by_name, end - root, scored, durations)
