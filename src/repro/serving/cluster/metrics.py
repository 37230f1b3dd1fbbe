"""Cluster-wide serving metrics: per-worker and aggregate latency/throughput.

:class:`ClusterMetrics` is the router-side ledger of everything that crossed
the process boundary.  Latency is recorded per request from router admission
to future resolution — it includes channel transport, the worker's queueing
delay and the model forward, i.e. the number a cluster client actually
observes.  Per-worker sections make routing-policy skew visible (a
round-robin cluster should complete roughly equal counts per worker; a
model-affinity cluster deliberately should not), and the failure counters
(``restarts``, ``redispatched``) quantify the supervision machinery.
docs/observability.md lists the exported series.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.obs.registry import MetricsRegistry, Sample, get_registry, summary_samples
from repro.serving.metrics import per_second
from repro.utils.profiling import LatencyStats

#: Distinguishes concurrent clusters in the obs registry's label sets.
_CLUSTER_SERIAL = itertools.count(1)

#: ``repro_cluster_requests_total`` outcomes, exported per known worker.
_OUTCOMES = ("submitted", "completed", "failed")


class ClusterMetrics:
    """Thread-safe aggregate of one cluster's serving activity.

    A thin view over a private :class:`~repro.obs.registry.MetricsRegistry`
    labelled ``cluster=<name>``; only the throughput and the cluster-wide
    latency (the per-worker reservoirs merged) are derived at export time.
    It publishes itself as a weak collector on the process obs registry
    (:mod:`repro.obs.registry`), so ``registry.snapshot()`` folds it into the
    unified view alongside serving and engine series.
    """

    _guarded_by_ = {
        "_registry": "_lock",
        "_requests": "_lock",
        "_restarts": "_lock",
        "_redispatched": "_lock",
        "_shed": "_lock",
        "_swaps": "_lock",
        "_latency": "_lock",
        "_workers": "_lock",
        "_first_submit": "_lock",
        "_last_completion": "_lock",
        "_recent": "_lock",
    }

    #: Bound on the timestamped recent-latency window (autoscaler signal).
    RECENT_CAPACITY = 4096

    def __init__(self, name: Optional[str] = None, register: bool = True) -> None:
        self.name = name or f"cluster-{next(_CLUSTER_SERIAL)}"
        self._registry = registry = MetricsRegistry(labels={"cluster": self.name})
        self._lock = registry.lock
        self._requests = registry.counter(
            "repro_cluster_requests_total", labelnames=("worker", "outcome")
        )
        self._restarts = registry.counter("repro_cluster_restarts_total", labelnames=("worker",))
        self._redispatched = registry.counter(
            "repro_cluster_redispatched_total", labelnames=("worker",)
        )
        self._shed = registry.counter("repro_cluster_shed_total", labelnames=("priority",))
        self._swaps = registry.counter("repro_cluster_swaps_total")
        self._latency = registry.histogram(
            "repro_cluster_worker_latency_seconds", labelnames=("worker",)
        )
        #: Workers seen so far; each exports its series from then on.
        self._workers: Set[str] = set()
        self._first_submit: Optional[float] = None
        self._last_completion: Optional[float] = None
        #: (perf_counter, latency_s) of recent completions — the windowed-p95
        #: source the autoscaler and chaos drill read (bounded deque).
        self._recent: Deque[Tuple[float, float]] = deque(maxlen=self.RECENT_CAPACITY)
        self.reset()
        if register:
            get_registry().register_collector(f"cluster.{self.name}", self.collect_metrics)

    def _worker(self, worker: str) -> None:  # reprolint: holds=_lock
        """Start exporting ``worker``'s series (at zero) the first time it is seen."""
        if worker in self._workers:
            return
        self._workers.add(worker)
        for outcome in _OUTCOMES:
            self._requests.inc(0, worker=worker, outcome=outcome)
        self._restarts.inc(0, worker=worker)
        self._redispatched.inc(0, worker=worker)
        self._latency.stats(worker=worker)

    def reset(self) -> None:
        """Zero every ledger (e.g. between a verification phase and a load run)."""
        with self._lock:
            self._registry.reset()
            self._swaps.inc(0)
            self._workers.clear()
            self._first_submit = None
            self._last_completion = None
            self._recent.clear()

    # ------------------------------------------------------------------ recording
    def record_submit(self, worker: str) -> None:
        now = time.perf_counter()
        with self._lock:
            self._worker(worker)
            self._requests.inc(worker=worker, outcome="submitted")
            if self._first_submit is None:
                self._first_submit = now

    def record_completion(self, worker: str, latency_seconds: float, failed: bool = False) -> None:
        now = time.perf_counter()
        with self._lock:
            self._worker(worker)
            if failed:
                self._requests.inc(worker=worker, outcome="failed")
            else:
                self._requests.inc(worker=worker, outcome="completed")
                self._latency.observe(latency_seconds, worker=worker)
                self._recent.append((now, latency_seconds))
            self._last_completion = now

    def record_restart(self, worker: str) -> None:
        """One worker slot was restarted after a death/health-check failure."""
        with self._lock:
            self._worker(worker)
            self._restarts.inc(worker=worker)

    def record_redispatch(self, worker: str, count: int = 1) -> None:
        """``count`` in-flight requests were re-sent after ``worker`` died."""
        with self._lock:
            self._worker(worker)
            self._redispatched.inc(count, worker=worker)

    def record_shed(self, priority: str) -> None:
        """One request shed at admission while the cluster was degraded."""
        self._shed.inc(priority=priority)

    def record_swap(self) -> None:
        """One rolling artifact swap completed across the fleet."""
        self._swaps.inc()

    # ------------------------------------------------------------------ reporting
    def _total(self, counter, outcome: Optional[str] = None) -> int:
        """Sum of a per-worker counter (one ``outcome`` of the request counter)."""
        return int(
            sum(value for key, value in counter.items() if outcome is None or key[1] == outcome)
        )

    @property
    def completed(self) -> int:
        return self._total(self._requests, "completed")

    @property
    def restarts(self) -> int:
        return self._total(self._restarts)

    @property
    def redispatched(self) -> int:
        return self._total(self._redispatched)

    def recent_p95_ms(self, window_s: float = 5.0) -> float:
        """p95 latency (ms) over completions in the trailing ``window_s``.

        The merged :class:`LatencyStats` is an all-time aggregate — useless
        as a control signal once a load spike is minutes old.  This is the
        *windowed* view the autoscaler compares against its SLO (0.0 when
        the window is empty).
        """
        cutoff = time.perf_counter() - window_s
        with self._lock:
            recent = [latency for ts, latency in self._recent if ts >= cutoff]
        if not recent:
            return 0.0
        ordered = sorted(recent)
        index = min(len(ordered) - 1, int(round(0.95 * (len(ordered) - 1))))
        return ordered[index] * 1e3

    def throughput(self) -> float:
        """Completed requests per second of wall-clock cluster time."""
        with self._lock:
            return per_second(self.completed, self._first_submit, self._last_completion)

    def _merged_latency(self) -> LatencyStats:  # reprolint: holds=_lock
        """The cluster-wide latency: every worker's reservoir, count-weighted.

        ``merge`` (not ``extend``) folds exact count/sum/max aggregates, so
        the cluster summary stays exact even once per-worker reservoirs have
        started down-sampling.
        """
        merged = LatencyStats()
        for _, stats in self._latency.items():
            merged.merge(stats)
        return merged

    def report(self) -> Dict[str, object]:
        """Nested plain dict: one section per worker plus the cluster aggregate."""
        throughput = self.throughput()
        with self._lock:
            counts = {key: int(value) for key, value in self._requests.items()}
            workers = {
                name: {
                    "submitted": counts[(name, "submitted")],
                    "completed": counts[(name, "completed")],
                    "failed": counts[(name, "failed")],
                    "redispatched": int(self._redispatched.value(worker=name)),
                    "restarts": int(self._restarts.value(worker=name)),
                    "latency": self._latency.stats(worker=name).summary(),
                }
                for name in sorted(self._workers)
            }
            return {
                "workers": workers,
                "cluster": {
                    "worker_count": len(workers),
                    "completed": self.completed,
                    "failed": self._total(self._requests, "failed"),
                    "restarts": self.restarts,
                    "redispatched": self.redispatched,
                    "shed": {key[0]: int(value) for key, value in self._shed.items()},
                    "swaps": int(self._swaps.value()),
                    "throughput_rps": round(throughput, 2),
                    "latency": self._merged_latency().summary(),
                },
            }

    def collect_metrics(self) -> List[Sample]:
        """Obs-registry collector: the instruments plus the derived series."""
        labels = {"cluster": self.name}
        throughput = self.throughput()
        with self._lock:
            return (
                self._registry.collect()
                + [Sample("repro_cluster_throughput_rps", labels, throughput, "gauge")]
                + summary_samples("repro_cluster_latency_seconds", labels, self._merged_latency())
            )

    def flat_row(self) -> Dict[str, object]:
        """One table row for :func:`repro.evaluation.tables.format_table`."""
        report = self.report()
        cluster = report["cluster"]
        latency = cluster["latency"]
        return {
            "workers": cluster["worker_count"],
            "completed": cluster["completed"],
            "failed": cluster["failed"],
            "restarts": cluster["restarts"],
            "redispatched": cluster["redispatched"],
            "throughput_rps": cluster["throughput_rps"],
            "p50_ms": latency["p50_ms"],
            "p95_ms": latency["p95_ms"],
            "p99_ms": latency["p99_ms"],
        }
