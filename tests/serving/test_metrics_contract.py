"""The exported contract of the three serving ledgers.

``ServingMetrics``, ``GatewayMetrics`` and ``ClusterMetrics`` feed three
readers: Prometheus text (``repro metrics``, ``metrics.prom``), the nested
``report()`` dicts (``repro serve``, ``repro top``, the benchmarks) and the
flat ``flat_row()`` tables.  Each test drives a fixed sequence of ``record_*``
calls and pins what every reader sees:

* every sample key (name + labels) listed here is exported, with its value
  (timing-dependent throughput gauges are checked for presence and sign only);
* counter series keep the ``counter`` kind, so ``# TYPE ... counter`` lines
  do not change;
* the ``report()`` trees, including every count, are equal.

Series may be added over time, never dropped or renamed.  ``OWNER`` in the
keys below stands for the ledger's owner label (``service=``, ``gateway=`` or
``cluster=``).
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.obs.registry import get_registry
from repro.serving.batcher import BatchPolicy, DynamicBatcher
from repro.serving.cluster.metrics import ClusterMetrics
from repro.serving.metrics import GatewayMetrics, ServingMetrics

_SERIAL = itertools.count()
_TIMING = "<timing>"


def _owner_name(kind: str) -> str:
    """A label value no other live ledger in the process uses."""
    return f"contract-{kind}-{next(_SERIAL)}"


def _exported(label: str, value: str):
    """``{key-with-OWNER: (kind, value)}`` of one ledger in the process registry."""
    tag = f'{label}="{value}"'
    out = {}
    for sample in get_registry().collect():
        key = sample.key()
        if tag in key:
            out[key.replace(tag, "OWNER")] = (sample.kind, sample.value)
    return out


def _without_timing(report):
    if isinstance(report, dict):
        return {key: (_TIMING if key == "throughput_rps" else _without_timing(value))
                for key, value in report.items()}
    return report


def _assert_series(exported, expected, driven: bool) -> None:
    missing = sorted(set(expected) - set(exported))
    assert not missing, f"series dropped or renamed: {missing}"
    for key, value in expected.items():
        kind, got = exported[key]
        name = key.split("{", 1)[0]
        if name.endswith("_total"):
            assert kind == "counter", key
        if name.endswith("_throughput_rps"):
            assert kind == "gauge", key
            assert (got > 0.0) if driven else (got == 0.0), key
            continue
        assert got == pytest.approx(value, rel=1e-9, abs=1e-12), key


# ------------------------------------------------------------------ record sequences
def drive_serving(metrics: ServingMetrics) -> None:
    for depth in (1, 3, 2, 1):
        metrics.record_admission(depth)
    metrics.record_rejection("queue_full", "normal")
    metrics.record_rejection("deadline", "high")
    metrics.record_rejection("preempted", "low")
    metrics.record_expiry("low")
    metrics.record_batch(2, 0.010)
    metrics.record_batch(1, 0.004)
    metrics.record_completion(0.012)
    metrics.record_completion(0.020)


def drive_gateway(metrics: GatewayMetrics) -> None:
    metrics.connection_opened()
    metrics.connection_opened()
    metrics.connection_closed()
    metrics.record_accept("high")
    metrics.record_accept("normal")
    metrics.record_accept("normal")
    metrics.record_reject("admission", "low")
    metrics.record_reject("queue_full", "normal")
    metrics.record_expiry("normal")
    metrics.record_completion("high", 0.005)
    metrics.record_completion("normal", 0.015)
    metrics.record_completion("normal", 0.2, failed=True)


def drive_cluster(metrics: ClusterMetrics) -> None:
    for latency in (0.010, 0.010, 0.030):
        metrics.record_submit("w0")
        metrics.record_completion("w0", latency)
    metrics.record_submit("w1")
    metrics.record_completion("w1", 0.5, failed=True)
    metrics.record_restart("w1")
    metrics.record_redispatch("w1", 2)
    metrics.record_restart("w2")
    metrics.record_shed("low")
    metrics.record_shed("low")
    metrics.record_shed("normal")
    metrics.record_swap()


# ------------------------------------------------------------------ expectations
_ZERO_LATENCY = {"count": 0, "max_ms": 0.0, "mean_ms": 0.0, "p50_ms": 0.0,
                 "p95_ms": 0.0, "p99_ms": 0.0}

SERVING_FRESH_SERIES = {
    "repro_serving_batches_total{OWNER}": 0.0,
    "repro_serving_latency_seconds_count{OWNER}": 0.0,
    "repro_serving_latency_seconds_sum{OWNER}": 0.0,
    'repro_serving_latency_seconds{quantile="0.5",OWNER}': 0.0,
    'repro_serving_latency_seconds{quantile="0.95",OWNER}': 0.0,
    'repro_serving_latency_seconds{quantile="0.99",OWNER}': 0.0,
    "repro_serving_queue_depth_max{OWNER}": 0.0,
    "repro_serving_queue_depth{OWNER}": 0.0,
    'repro_serving_requests_total{outcome="admitted",OWNER}': 0.0,
    'repro_serving_requests_total{outcome="completed",OWNER}': 0.0,
    'repro_serving_requests_total{outcome="failed",OWNER}': 0.0,
    'repro_serving_requests_total{outcome="rejected",OWNER}': 0.0,
    "repro_serving_throughput_rps{OWNER}": 0.0,
}

SERVING_FRESH_REPORT = {
    "batches": {"count": 0, "max_size": 0, "mean_size": 0.0, "p50_batch_ms": 0.0,
                "size_histogram": {}},
    "latency": _ZERO_LATENCY,
    "queue": {"max_depth": 0, "mean_depth": 0.0},
    "requests": {"admitted": 0, "completed": 0, "expired": {}, "failed": 0,
                 "rejected": 0, "rejected_by": {}},
    "throughput_rps": _TIMING,
}

SERVING_SERIES = {
    "repro_serving_batches_total{OWNER}": 2.0,
    'repro_serving_deadline_expiries_total{class="low",OWNER}': 1.0,
    "repro_serving_latency_seconds_count{OWNER}": 2.0,
    "repro_serving_latency_seconds_sum{OWNER}": 0.032,
    'repro_serving_latency_seconds{quantile="0.5",OWNER}': 0.016,
    'repro_serving_latency_seconds{quantile="0.95",OWNER}': 0.0196,
    'repro_serving_latency_seconds{quantile="0.99",OWNER}': 0.01992,
    "repro_serving_queue_depth_max{OWNER}": 3.0,
    "repro_serving_queue_depth{OWNER}": 1.0,
    'repro_serving_rejects_total{class="high",reason="deadline",OWNER}': 1.0,
    'repro_serving_rejects_total{class="low",reason="preempted",OWNER}': 1.0,
    'repro_serving_rejects_total{class="normal",reason="queue_full",OWNER}': 1.0,
    'repro_serving_requests_total{outcome="admitted",OWNER}': 4.0,
    'repro_serving_requests_total{outcome="completed",OWNER}': 2.0,
    'repro_serving_requests_total{outcome="failed",OWNER}': 0.0,
    'repro_serving_requests_total{outcome="rejected",OWNER}': 3.0,
    "repro_serving_throughput_rps{OWNER}": 0.0,
}

SERVING_REPORT = {
    "batches": {"count": 2, "max_size": 2, "mean_size": 1.5, "p50_batch_ms": 7.0,
                "size_histogram": {"1": 1, "2": 1}},
    "latency": {"count": 2, "max_ms": 20.0, "mean_ms": 16.0, "p50_ms": 16.0,
                "p95_ms": 19.6, "p99_ms": 19.92},
    "queue": {"max_depth": 3, "mean_depth": 1.75},
    "requests": {"admitted": 4, "completed": 2, "expired": {"low": 1}, "failed": 0,
                 "rejected": 3,
                 "rejected_by": {"deadline/high": 1, "preempted/low": 1,
                                 "queue_full/normal": 1}},
    "throughput_rps": _TIMING,
}

GATEWAY_FRESH_SERIES = {"repro_gateway_connections{OWNER}": 0.0}

GATEWAY_FRESH_REPORT = {
    "connections": {"open": 0, "total": 0},
    "latency": {},
    "requests": {"accepted": {}, "completed": {}, "expired": {}, "failed": {},
                 "rejected": {}},
}

GATEWAY_SERIES = {
    "repro_gateway_connections{OWNER}": 1.0,
    'repro_gateway_deadline_expiries_total{class="normal",OWNER}': 1.0,
    'repro_gateway_latency_seconds_count{class="high",OWNER}': 1.0,
    'repro_gateway_latency_seconds_count{class="normal",OWNER}': 1.0,
    'repro_gateway_latency_seconds_sum{class="high",OWNER}': 0.005,
    'repro_gateway_latency_seconds_sum{class="normal",OWNER}': 0.015,
    'repro_gateway_latency_seconds{class="high",OWNER,quantile="0.5"}': 0.005,
    'repro_gateway_latency_seconds{class="high",OWNER,quantile="0.95"}': 0.005,
    'repro_gateway_latency_seconds{class="high",OWNER,quantile="0.99"}': 0.005,
    'repro_gateway_latency_seconds{class="normal",OWNER,quantile="0.5"}': 0.015,
    'repro_gateway_latency_seconds{class="normal",OWNER,quantile="0.95"}': 0.015,
    'repro_gateway_latency_seconds{class="normal",OWNER,quantile="0.99"}': 0.015,
    'repro_gateway_rejects_total{class="low",OWNER,reason="admission"}': 1.0,
    'repro_gateway_rejects_total{class="normal",OWNER,reason="queue_full"}': 1.0,
    'repro_gateway_requests_total{class="high",OWNER,outcome="accepted"}': 1.0,
    'repro_gateway_requests_total{class="high",OWNER,outcome="completed"}': 1.0,
    'repro_gateway_requests_total{class="normal",OWNER,outcome="accepted"}': 2.0,
    'repro_gateway_requests_total{class="normal",OWNER,outcome="completed"}': 1.0,
    'repro_gateway_requests_total{class="normal",OWNER,outcome="failed"}': 1.0,
}


def _one_sample_latency(ms: float):
    return {"count": 1, "max_ms": ms, "mean_ms": ms, "p50_ms": ms, "p95_ms": ms,
            "p99_ms": ms}


GATEWAY_REPORT = {
    "connections": {"open": 1, "total": 2},
    "latency": {"high": _one_sample_latency(5.0), "normal": _one_sample_latency(15.0)},
    "requests": {"accepted": {"high": 1, "normal": 2},
                 "completed": {"high": 1, "normal": 1},
                 "expired": {"normal": 1},
                 "failed": {"normal": 1},
                 "rejected": {"admission/low": 1, "queue_full/normal": 1}},
}

CLUSTER_FRESH_SERIES = {
    "repro_cluster_latency_seconds_count{OWNER}": 0.0,
    "repro_cluster_latency_seconds_sum{OWNER}": 0.0,
    'repro_cluster_latency_seconds{OWNER,quantile="0.5"}': 0.0,
    'repro_cluster_latency_seconds{OWNER,quantile="0.95"}': 0.0,
    'repro_cluster_latency_seconds{OWNER,quantile="0.99"}': 0.0,
    "repro_cluster_swaps_total{OWNER}": 0.0,
    "repro_cluster_throughput_rps{OWNER}": 0.0,
}

CLUSTER_FRESH_REPORT = {
    "cluster": {"completed": 0, "failed": 0, "latency": _ZERO_LATENCY,
                "redispatched": 0, "restarts": 0, "shed": {}, "swaps": 0,
                "throughput_rps": _TIMING, "worker_count": 0},
    "workers": {},
}

CLUSTER_SERIES = {
    "repro_cluster_latency_seconds_count{OWNER}": 3.0,
    "repro_cluster_latency_seconds_sum{OWNER}": 0.05,
    'repro_cluster_latency_seconds{OWNER,quantile="0.5"}': 0.01,
    'repro_cluster_latency_seconds{OWNER,quantile="0.95"}': 0.028,
    'repro_cluster_latency_seconds{OWNER,quantile="0.99"}': 0.0296,
    'repro_cluster_redispatched_total{OWNER,worker="w0"}': 0.0,
    'repro_cluster_redispatched_total{OWNER,worker="w1"}': 2.0,
    'repro_cluster_redispatched_total{OWNER,worker="w2"}': 0.0,
    'repro_cluster_requests_total{OWNER,outcome="completed",worker="w0"}': 3.0,
    'repro_cluster_requests_total{OWNER,outcome="completed",worker="w1"}': 0.0,
    'repro_cluster_requests_total{OWNER,outcome="completed",worker="w2"}': 0.0,
    'repro_cluster_requests_total{OWNER,outcome="failed",worker="w0"}': 0.0,
    'repro_cluster_requests_total{OWNER,outcome="failed",worker="w1"}': 1.0,
    'repro_cluster_requests_total{OWNER,outcome="failed",worker="w2"}': 0.0,
    'repro_cluster_requests_total{OWNER,outcome="submitted",worker="w0"}': 3.0,
    'repro_cluster_requests_total{OWNER,outcome="submitted",worker="w1"}': 1.0,
    'repro_cluster_requests_total{OWNER,outcome="submitted",worker="w2"}': 0.0,
    'repro_cluster_restarts_total{OWNER,worker="w0"}': 0.0,
    'repro_cluster_restarts_total{OWNER,worker="w1"}': 1.0,
    'repro_cluster_restarts_total{OWNER,worker="w2"}': 1.0,
    'repro_cluster_shed_total{OWNER,priority="low"}': 2.0,
    'repro_cluster_shed_total{OWNER,priority="normal"}': 1.0,
    "repro_cluster_swaps_total{OWNER}": 1.0,
    "repro_cluster_throughput_rps{OWNER}": 0.0,
}

_W0_LATENCY = {"count": 3, "max_ms": 30.0, "mean_ms": 16.667, "p50_ms": 10.0,
               "p95_ms": 28.0, "p99_ms": 29.6}

CLUSTER_REPORT = {
    "cluster": {"completed": 3, "failed": 1, "latency": _W0_LATENCY,
                "redispatched": 2, "restarts": 2, "shed": {"low": 2, "normal": 1},
                "swaps": 1, "throughput_rps": _TIMING, "worker_count": 3},
    "workers": {
        "w0": {"completed": 3, "failed": 0, "latency": _W0_LATENCY,
               "redispatched": 0, "restarts": 0, "submitted": 3},
        "w1": {"completed": 0, "failed": 1, "latency": _ZERO_LATENCY,
               "redispatched": 2, "restarts": 1, "submitted": 1},
        "w2": {"completed": 0, "failed": 0, "latency": _ZERO_LATENCY,
               "redispatched": 0, "restarts": 1, "submitted": 0},
    },
}

LEDGERS = {
    "serving": (ServingMetrics, "service", drive_serving,
                SERVING_FRESH_SERIES, SERVING_FRESH_REPORT,
                SERVING_SERIES, SERVING_REPORT),
    "gateway": (GatewayMetrics, "gateway", drive_gateway,
                GATEWAY_FRESH_SERIES, GATEWAY_FRESH_REPORT,
                GATEWAY_SERIES, GATEWAY_REPORT),
    "cluster": (ClusterMetrics, "cluster", drive_cluster,
                CLUSTER_FRESH_SERIES, CLUSTER_FRESH_REPORT,
                CLUSTER_SERIES, CLUSTER_REPORT),
}


# ------------------------------------------------------------------ tests
@pytest.mark.parametrize("kind", sorted(LEDGERS))
def test_fresh_ledger_exports_its_zero_series(kind):
    cls, label, _, fresh_series, fresh_report, _, _ = LEDGERS[kind]
    name = _owner_name(kind)
    metrics = cls(name=name)
    _assert_series(_exported(label, name), fresh_series, driven=False)
    assert _without_timing(metrics.report()) == fresh_report


@pytest.mark.parametrize("kind", sorted(LEDGERS))
def test_driven_ledger_exports_every_series_and_report(kind):
    cls, label, drive, _, _, series, report = LEDGERS[kind]
    name = _owner_name(kind)
    metrics = cls(name=name)
    drive(metrics)
    _assert_series(_exported(label, name), series, driven=True)
    assert _without_timing(metrics.report()) == report


@pytest.mark.parametrize("kind", sorted(LEDGERS))
def test_counter_families_keep_their_prometheus_type(kind):
    cls, _, drive, _, _, series, _ = LEDGERS[kind]
    metrics = cls(name=_owner_name(kind))
    drive(metrics)
    text = get_registry().to_prometheus()
    for name in {key.split("{", 1)[0] for key in series}:
        if name.endswith("_total"):
            assert f"# TYPE {name} counter" in text, name


@pytest.mark.parametrize("kind", ["serving", "cluster"])
def test_reset_returns_to_the_fresh_state(kind):
    cls, label, drive, fresh_series, fresh_report, _, _ = LEDGERS[kind]
    name = _owner_name(kind)
    metrics = cls(name=name)
    drive(metrics)
    metrics.reset()
    _assert_series(_exported(label, name), fresh_series, driven=False)
    assert _without_timing(metrics.report()) == fresh_report
    assert metrics.throughput() == 0.0


def test_gateway_reset_keeps_connection_counts():
    name = _owner_name("gateway")
    metrics = GatewayMetrics(name=name)
    drive_gateway(metrics)
    metrics.reset()
    assert metrics.report() == dict(GATEWAY_FRESH_REPORT,
                                    connections={"open": 1, "total": 2})
    assert _exported("gateway", name)["repro_gateway_connections{OWNER}"][1] == 1.0


def test_flat_rows_and_properties():
    serving = ServingMetrics(name=_owner_name("serving"), register=False)
    drive_serving(serving)
    row = serving.flat_row()
    assert {key: row[key] for key in row if key != "throughput_rps"} == {
        "completed": 2, "rejected": 3, "p50_ms": 16.0, "p95_ms": 19.6,
        "p99_ms": 19.92, "mean_batch": 1.5, "max_queue": 3}
    assert serving.completed == 2 and serving.rejected == 3
    assert serving.throughput() > 0.0

    cluster = ClusterMetrics(name=_owner_name("cluster"), register=False)
    drive_cluster(cluster)
    row = cluster.flat_row()
    assert {key: row[key] for key in row if key != "throughput_rps"} == {
        "workers": 3, "completed": 3, "failed": 1, "restarts": 2, "redispatched": 2,
        "p50_ms": 10.0, "p95_ms": 28.0, "p99_ms": 29.6}
    assert (cluster.completed, cluster.restarts, cluster.redispatched) == (3, 2, 2)
    assert cluster.recent_p95_ms(60.0) == pytest.approx(30.0)


def test_unregistered_ledgers_stay_out_of_the_process_registry():
    name = _owner_name("serving")
    drive_serving(ServingMetrics(name=name, register=False))
    assert _exported("service", name) == {}


def test_report_keys_the_benchmark_reads():
    """perfbench reads ``batches.{size_histogram,count}`` of a worker service's
    report, ``cluster.{restarts,redispatched}`` and the gateway's
    ``requests.rejected``; a batcher fills the first through its ledger."""
    metrics = ServingMetrics(name=_owner_name("serving"), register=False)
    batcher = DynamicBatcher(lambda batch: batch * 2.0,
                             BatchPolicy(max_batch_size=4, max_wait_ms=0.0),
                             metrics=metrics)
    try:
        for _ in range(3):
            batcher.submit(np.ones((3, 4, 4), dtype=np.float32)).result(10.0)
    finally:
        batcher.shutdown(10.0)
    batches = metrics.report()["batches"]
    assert batches["size_histogram"] == {"1": 3}
    assert batches["count"] == 3

    cluster = ClusterMetrics(register=False)
    drive_cluster(cluster)
    assert cluster.report()["cluster"]["restarts"] == 2
    assert cluster.report()["cluster"]["redispatched"] == 2

    gateway = GatewayMetrics(register=False)
    drive_gateway(gateway)
    assert sum(gateway.report()["requests"]["rejected"].values()) == 2


def test_a_failed_request_is_failed_not_completed():
    """All three ledgers count only successes as ``completed`` (and in the
    throughput), so after a drain ``admitted == completed + failed + expired +
    preempted`` holds for a service."""
    name = _owner_name("serving")
    metrics = ServingMetrics(name=name)
    drive_serving(metrics)
    metrics.record_admission(1)
    metrics.record_completion(0.5, failed=True)
    report = metrics.report()
    requests = report["requests"]
    assert requests["completed"] == 2 and requests["failed"] == 1
    assert metrics.completed == 2
    assert report["latency"]["count"] == 2
    preempted = requests["rejected_by"]["preempted/low"]
    assert requests["admitted"] == (requests["completed"] + requests["failed"]
                                    + sum(requests["expired"].values()) + preempted)
    series = _exported("service", name)
    assert series['repro_serving_requests_total{outcome="completed",OWNER}'][1] == 2.0
    assert series['repro_serving_requests_total{outcome="failed",OWNER}'][1] == 1.0
