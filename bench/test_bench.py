"""Self-tests of the benchmark: its checker, repeat check and tracer."""

import functools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

import run
import tracing
import workloads
from faircov import fair_calibration


def test_checker_flags_an_infeasible_table():
    # An iteration cap stops the optimizer before group 1 reaches its floor.
    data = workloads.oracle_band(2000, (0.5, 5.0), seed=3)
    capped, trace = fair_calibration.fair_calibrate(data, None, 4, 0.1, max_iters=50)
    assert trace.termination_reason == "max_iters"
    problems = workloads.floor_violations(data, None, capped)
    assert problems == ["group 1 bin-mean coverage 0.852025 < 0.9"]
    table, _ = fair_calibration.fair_calibrate(data, None, 4, 0.1)
    assert workloads.floor_violations(data, None, table) == []


class _OneInstance(workloads.InMemory):
    name = "one_instance"

    def make_instances(self):
        return [(4, workloads.oracle_instance(4000, (0.5, 5.0), self.seed))]


def test_pass_counts_an_infeasible_table_as_a_failed_operation(monkeypatch):
    capped = functools.partial(fair_calibration.fair_calibrate, max_iters=50)
    monkeypatch.setattr(fair_calibration, "fair_calibrate", capped)
    workload = _OneInstance(seed=3)
    workload.instances = workload.make_instances()
    result = workload.run_pass(tracing.Tally())
    assert result.attempted == 1
    assert list(result.failures) == ["0:fuq:M=4"]
    assert "bin-mean coverage" in result.failures["0:fuq:M=4"]


def test_repeat_check_flags_a_count_that_changes(tmp_path):
    record = tmp_path / "record.json"
    first = workloads.PassResult(counts={"fair_calibration.moves": 7}, outputs={"mpiw": 1.5})
    same = workloads.PassResult(counts={"fair_calibration.moves": 7}, outputs={"mpiw": 1.5})
    assert run.repeat_failures([first, same], record) == {}
    assert record.is_file()
    other = workloads.PassResult(counts={"fair_calibration.moves": 8}, outputs={"mpiw": 1.5})
    failures = run.repeat_failures([other], record)
    assert list(failures) == ["run: repeat"]
    assert "counts.fair_calibration.moves" in failures["run: repeat"]
    assert list(run.repeat_failures([first, other], tmp_path / "fresh.json")) == ["pass 2: repeat"]


def test_tracer_spans_account_for_the_pass():
    workload = _OneInstance(seed=1)
    workload.instances = workload.make_instances()
    tracer = tracing.Tracer()
    original = fair_calibration.fair_calibrate
    with tracing.patched(tracing.TRACED, tracer):
        result = workload.run_pass(tracer)
    assert fair_calibration.fair_calibrate is original
    assert not result.failures
    summary = tracing.summarize(tracer.spans, 0)
    assert summary.calls("fair_calibration.fair_calibrate") == 1
    assert summary.scored_in_fair_calibrate == 3
    root = tracer.spans[0]
    assert root[0] == "bench.pass"
    self_total = sum(entry["self_s"] for entry in summary.by_name.values())
    assert self_total == pytest.approx(root[3] - root[2], rel=1e-9)
