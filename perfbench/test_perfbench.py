"""Self-tests of the benchmark's own code; they run no workload."""

import itertools
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import loads, run  # noqa: E402
from perfbench.probes import pad_ratio  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

OUTPUT = np.arange(6, dtype=np.float32).reshape(2, 3)


class DoneFuture:
    """A future that resolved when it was made."""

    def __init__(self, result=None, error=None):
        self._result, self._error = result, error
        self.resolved_at = time.perf_counter()

    def done(self):
        return True

    def result(self, timeout=None):
        if self._error is not None:
            raise self._error
        return self._result

    def exception(self, timeout=None):
        return self._error


class SleepyTarget:
    """Answers every request correctly after sleeping ``seconds`` in submit."""

    def __init__(self, seconds, output=OUTPUT):
        self.seconds = seconds
        self.output = output

    def submit(self, image):
        time.sleep(self.seconds)
        return DoneFuture(self.output)


class RaisingTarget:
    def submit(self, image):
        raise RuntimeError("queue full")


class FailingTarget:
    def submit(self, image):
        return DoneFuture(error=RuntimeError("batch failed"))


def test_p99_needs_a_thousand_completions():
    assert loads.p99_or_none([0.001] * (loads.P99_MIN_SAMPLES - 1)) is None
    samples = [i / 1000 for i in range(1, loads.P99_MIN_SAMPLES + 1)]
    assert loads.p99_or_none(samples) == pytest.approx(0.990)
    assert loads.percentile([3.0, 1.0, 2.0], 50) == 2.0


def test_open_loop_times_requests_from_their_due_time():
    # Each submit stalls 40 ms while requests fall due every 10 ms, so the
    # k-th request goes out about 30*k ms late and waits that long in full.
    schedule = [(0.01 * k, 0) for k in range(4)]
    phase = loads.open_loop(SleepyTarget(0.04), schedule, lambda camera, n: 0,
                            [None], [OUTPUT])
    assert phase.attempted == 4 and phase.failed == 0
    for k in range(4):
        assert phase.late[k] >= 0.03 * k - 0.002
        assert phase.latencies[k] >= 0.04 + 0.03 * k - 0.002
        assert phase.round_trips[k] == pytest.approx(0.04, abs=0.03)


def test_camera_schedule_interleaves_cameras_at_their_rate():
    schedule = loads.camera_schedule([(0.0, 0.01), (0.005, 0.01)], seconds=0.095)
    assert len(schedule) == 20
    assert [due for due, _ in schedule] == sorted(due for due, _ in schedule)
    assert [camera for _, camera in schedule[:4]] == [0, 1, 0, 1]


@pytest.mark.parametrize("target", [RaisingTarget(), FailingTarget(),
                                    SleepyTarget(0.0, OUTPUT + 1e-3)])
def test_failed_and_wrong_responses_count_as_failed(target):
    phase = loads.closed_loop(target, [None], [OUTPUT], seconds=0.02)
    assert phase.attempted > 0
    assert phase.failed == phase.attempted
    assert phase.completed == 0
    wrong_output = isinstance(target, SleepyTarget)
    assert phase.mismatched == (phase.attempted if wrong_output else 0)


def test_replay_checks_every_response():
    outputs = itertools.cycle([OUTPUT, OUTPUT + 1.0])
    phase = loads.replay(lambda image: DoneFuture(next(outputs)), [None],
                         [OUTPUT], seconds=0.02)
    assert phase.attempted == phase.completed + phase.failed
    assert phase.mismatched == phase.failed == phase.attempted // 2
    assert loads.output_matches([OUTPUT, OUTPUT], [OUTPUT, OUTPUT + 5e-6])
    assert not loads.output_matches([OUTPUT], [OUTPUT, OUTPUT])


def test_serial_rate_follows_the_median_round_trip():
    stalled = loads.Phase(serial=True, latencies=[0.01, 0.01, 0.5],
                          round_trips=[0.01, 0.01, 0.5], elapsed=0.52)
    assert stalled.throughput_rps == pytest.approx(100.0)
    concurrent = loads.Phase(latencies=[0.01] * 3, round_trips=[0.01] * 3,
                             elapsed=0.5)
    assert concurrent.throughput_rps == pytest.approx(6.0)


def test_pad_ratio_counts_power_of_two_buckets():
    assert pad_ratio({"1": 4, "8": 2}) == 1.0
    assert pad_ratio({"3": 1, "5": 1}) == pytest.approx(8 / 12)


def test_printed_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for section, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[section]}
        assert declared == table
        values = {name: (1.5, 1) for name in table}
        line = json.loads(run.result_line(True, 3, 0, values, table))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [m["name"] for m in spec[section]]
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
