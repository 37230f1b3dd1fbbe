"""Thread-safe serving metrics: latency percentiles, throughput, batch shapes.

One :class:`ServingMetrics` instance is shared by an
:class:`~repro.serving.service.InferenceService` and its
:class:`~repro.serving.batcher.DynamicBatcher`: the batcher records executed
micro-batches and per-request completion latency, the service records
admissions and rejections.  :meth:`ServingMetrics.report` exports everything as
one nested plain dict, which is what the ``repro serve`` CLI prints and the
serving benchmark writes to ``BENCH_serving.json``.

Both ledgers are thin views over a private
:class:`~repro.obs.registry.MetricsRegistry` labelled with their owner
(``service=`` / ``gateway=``), so ``report()``, the Prometheus text and
``repro top`` read the same counters, gauges and histograms; the registry's
one re-entrant lock keeps a ``report()`` consistent.  Only the throughput,
``batches_total`` and ``queue_depth_max`` are derived at export time.

Every aggregate is memory-bounded: distributions ride the bounded reservoir in
:class:`repro.utils.profiling.LatencyStats`, one per label set (batch
durations per ``{model, size}``) -- a service under sustained load holds
O(reservoir) state, not O(requests).

Each instance publishes its registry as a weak **collector** on the process
obs registry (:mod:`repro.obs.registry`), so a dead service's series simply
drop out of the next ``registry.snapshot()``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.obs.registry import MetricsRegistry, Sample, get_registry
from repro.utils.profiling import LatencyStats

#: ``repro_serving_requests_total`` outcomes, exported from construction on
#: (in ``report()["requests"]`` order).
_OUTCOMES = ("admitted", "completed", "failed", "rejected")


def per_second(count: float, start: Optional[float], end: Optional[float]) -> float:
    """``count`` per second of the ``start``..``end`` span (0.0 without one)."""
    if start is None or end is None or not count or end <= start:
        return 0.0
    return count / (end - start)


def _by_class(counter, outcome: Optional[str] = None) -> Dict[str, int]:
    """``{class: count}`` of a counter labelled ``(class,)`` or ``(outcome, class)``."""
    out: Dict[str, int] = {}
    for key, value in sorted(counter.items(), key=lambda item: item[0][-1]):
        if outcome is None or key[0] == outcome:
            out[key[-1]] = int(value)
    return out


def _by_reason(counter) -> Dict[str, int]:
    """``{"reason/class": count}`` of a counter labelled ``(reason, class)``."""
    return {f"{reason}/{cls}": int(value)
            for (reason, cls), value in sorted(counter.items())}


class ServingMetrics:
    """Aggregated statistics of one serving session.

    Latency is measured per request from admission (enqueue) to completion
    (future resolved), i.e. it includes queueing delay — the number a client
    actually observes, not just model time.  ``completed`` counts successful
    requests only, as in the gateway and cluster ledgers: after a drain,
    ``admitted == completed + failed + expired + preempted``.
    """

    _guarded_by_ = {
        "_registry": "_lock",
        "_requests": "_lock",
        "_rejects": "_lock",
        "_expiries": "_lock",
        "_queue_depth": "_lock",
        "_admission_depth": "_lock",
        "_latency": "_lock",
        "_batch_seconds": "_lock",
        "_first_admission": "_lock",
        "_last_completion": "_lock",
    }

    def __init__(self, name: str = "service", register: bool = True) -> None:
        self.name = name
        self._registry = registry = MetricsRegistry(labels={"service": name})
        self._lock = registry.lock
        self._requests = registry.counter(
            "repro_serving_requests_total", labelnames=("outcome",))
        #: reasons: queue_full / deadline / preempted / admission.
        self._rejects = registry.counter(
            "repro_serving_rejects_total", labelnames=("reason", "class"))
        self._expiries = registry.counter(
            "repro_serving_deadline_expiries_total", labelnames=("class",))
        self._queue_depth = registry.gauge("repro_serving_queue_depth")
        self._admission_depth = registry.histogram("repro_serving_admission_queue_depth")
        self._latency = registry.histogram("repro_serving_latency_seconds")
        self._batch_seconds = registry.histogram(
            "repro_serving_batch_seconds", labelnames=("model", "size"))
        self._first_admission: Optional[float] = None
        self._last_completion: Optional[float] = None
        self.reset()
        if register:
            get_registry().register_collector(
                f"serving.{name}", self.collect_metrics)

    # ------------------------------------------------------------------ recording
    def record_admission(self, queue_depth: int) -> None:
        """One request accepted into the queue (``queue_depth`` after enqueue)."""
        now = time.perf_counter()
        with self._lock:
            self._requests.inc(outcome="admitted")
            self._queue_depth.set(queue_depth)
            self._admission_depth.observe(queue_depth)
            if self._first_admission is None:
                self._first_admission = now

    def record_rejection(self, reason: str = "queue_full",
                         priority: str = "normal") -> None:
        """One request turned away at admission, keyed by reason and class."""
        with self._lock:
            self._requests.inc(outcome="rejected")
            self._rejects.inc(reason=reason, **{"class": priority})

    def record_expiry(self, priority: str = "normal") -> None:
        """One queued request dropped because its deadline expired (never run)."""
        self._expiries.inc(**{"class": priority})

    def record_batch(self, size: int, seconds: float, model: str = "default") -> None:
        """One executed micro-batch of ``size`` requests of ``model`` taking ``seconds``."""
        self._batch_seconds.observe(seconds, model=model, size=int(size))

    def record_completion(self, latency_seconds: float, failed: bool = False) -> None:
        """One request finished (its future resolved), successfully or not."""
        now = time.perf_counter()
        with self._lock:
            if failed:
                self._requests.inc(outcome="failed")
            else:
                self._requests.inc(outcome="completed")
                self._latency.observe(latency_seconds)
            self._last_completion = now

    def reset(self) -> None:
        """Zero every ledger (e.g. after a verification pass, before load).

        This also zeroes the batch durations a batcher's expected-wait
        estimate is derived from: until the next batch executes, deadline
        admission sees 0.0, as at start-up.
        """
        with self._lock:
            self._registry.reset()
            for outcome in _OUTCOMES:
                self._requests.inc(0, outcome=outcome)
            self._queue_depth.set(0)
            self._admission_depth.stats()
            self._latency.stats()
            self._first_admission = None
            self._last_completion = None

    # ------------------------------------------------------------------ reporting
    @property
    def completed(self) -> int:
        return int(self._requests.value(outcome="completed"))

    @property
    def rejected(self) -> int:
        return int(self._requests.value(outcome="rejected"))

    def throughput(self) -> float:
        """Successfully completed requests per second of wall-clock serving time."""
        with self._lock:
            return per_second(self._requests.value(outcome="completed"),
                              self._first_admission, self._last_completion)

    def _model_totals(self, model: str) -> Tuple[int, int, float]:
        """(batches, images, seconds) executed for ``model``."""
        batches = images = 0
        seconds = 0.0
        with self._lock:
            for (name, size), stats in self._batch_seconds.items():
                if name == model:
                    batches += stats.count
                    images += int(size) * stats.count
                    seconds += stats.total_seconds
        return batches, images, seconds

    def mean_batch_seconds(self, model: str) -> float:
        """Mean executed-batch duration of ``model`` (0.0 before its first batch)."""
        batches, _, seconds = self._model_totals(model)
        return seconds / batches if batches else 0.0

    def engine_report(self, model: str) -> Dict[str, float]:
        """``model``'s executed batches, images, seconds and images per second."""
        batches, images, seconds = self._model_totals(model)
        return {
            "batches": batches,
            "images": images,
            "seconds": round(seconds, 4),
            "images_per_second": round(images / seconds, 2) if seconds > 0 else 0.0,
        }

    def report(self) -> Dict[str, object]:
        """Everything as one nested plain dict (JSON-ready)."""
        throughput = self.throughput()
        with self._lock:
            requests = {key[0]: int(value) for key, value in self._requests.items()}
            requests.update(rejected_by=_by_reason(self._rejects),
                            expired=_by_class(self._expiries))
            sizes: Dict[int, int] = {}
            durations = LatencyStats()
            for (_, size), stats in self._batch_seconds.items():
                sizes[int(size)] = sizes.get(int(size), 0) + stats.count
                durations.merge(stats)
            depth = self._admission_depth.stats()
            return {
                "requests": requests,
                "throughput_rps": round(throughput, 2),
                "latency": self._latency.stats().summary(),
                "batches": {
                    "count": durations.count,
                    "mean_size": round(sum(k * n for k, n in sizes.items())
                                       / durations.count, 2)
                    if durations.count else 0.0,
                    "max_size": max(sizes, default=0),
                    "p50_batch_ms": round(durations.quantile_seconds(50) * 1e3, 3),
                    "size_histogram": {str(k): n for k, n in sorted(sizes.items())},
                },
                "queue": {
                    "mean_depth": round(depth.mean_seconds, 2),
                    "max_depth": int(depth.max_seconds),
                },
            }

    def flat_row(self) -> Dict[str, object]:
        """One flat table row (for :func:`repro.evaluation.tables.format_table`)."""
        report = self.report()
        latency = report["latency"]
        return {
            "completed": report["requests"]["completed"],
            "rejected": report["requests"]["rejected"],
            "throughput_rps": report["throughput_rps"],
            "p50_ms": latency["p50_ms"],
            "p95_ms": latency["p95_ms"],
            "p99_ms": latency["p99_ms"],
            "mean_batch": report["batches"]["mean_size"],
            "max_queue": report["queue"]["max_depth"],
        }

    def collect_metrics(self) -> List[Sample]:
        """Obs-registry collector: the instruments plus the derived series."""
        labels = {"service": self.name}
        throughput = self.throughput()
        with self._lock:
            batches = sum(stats.count for _, stats in self._batch_seconds.items())
            depth_max = self._admission_depth.stats().max_seconds
            return self._registry.collect() + [
                Sample("repro_serving_batches_total", labels, float(batches), "counter"),
                Sample("repro_serving_queue_depth_max", labels, depth_max, "gauge"),
                Sample("repro_serving_throughput_rps", labels, throughput, "gauge"),
            ]


class GatewayMetrics:
    """Per-class accounting of the network gateway's front door.

    Counts what the *gateway* decided (accepted / rejected at admission /
    expired while queued / completed / failed) per priority class, plus the
    live connection gauge and per-class end-to-end latency as observed at the
    socket (parse to response write).  The downstream batcher keeps its own
    :class:`ServingMetrics`; the two reports together separate "the scheduler
    dropped it" from "the gateway never let it in".
    """

    _guarded_by_ = {
        "_registry": "_lock",
        "_requests": "_lock",
        "_rejects": "_lock",
        "_expiries": "_lock",
        "_latency": "_lock",
        "_connections": "_lock",
        "_connections_total": "_lock",
    }

    def __init__(self, name: str = "gateway", register: bool = True) -> None:
        self.name = name
        self._registry = registry = MetricsRegistry(labels={"gateway": name})
        self._lock = registry.lock
        #: outcomes: accepted / completed / failed.
        self._requests = registry.counter(
            "repro_gateway_requests_total", labelnames=("outcome", "class"))
        self._rejects = registry.counter(
            "repro_gateway_rejects_total", labelnames=("reason", "class"))
        self._expiries = registry.counter(
            "repro_gateway_deadline_expiries_total", labelnames=("class",))
        self._latency = registry.histogram(
            "repro_gateway_latency_seconds", labelnames=("class",))
        self._connections = registry.gauge("repro_gateway_connections")
        self._connections_total = registry.counter("repro_gateway_connections_total")
        self.reset()
        if register:
            get_registry().register_collector(
                f"gateway.{name}", self._registry.collect)

    # ------------------------------------------------------------------ recording
    def connection_opened(self) -> None:
        with self._lock:
            self._connections.inc()
            self._connections_total.inc()

    def connection_closed(self) -> None:
        self._connections.dec()

    def record_accept(self, priority: str) -> None:
        """One request passed gateway admission and entered the scheduler."""
        self._requests.inc(outcome="accepted", **{"class": priority})

    def record_reject(self, reason: str, priority: str) -> None:
        """One request answered with an error frame at gateway admission."""
        self._rejects.inc(reason=reason, **{"class": priority})

    def record_expiry(self, priority: str) -> None:
        """One accepted request dropped downstream on deadline expiry."""
        self._expiries.inc(**{"class": priority})

    def record_completion(self, priority: str, latency_seconds: float,
                          failed: bool = False) -> None:
        """One accepted request answered (result or non-expiry error frame)."""
        with self._lock:
            if failed:
                self._requests.inc(outcome="failed", **{"class": priority})
                return
            self._requests.inc(outcome="completed", **{"class": priority})
            self._latency.observe(latency_seconds, **{"class": priority})

    def reset(self) -> None:
        """Zero the request ledgers (connection counts carry across)."""
        with self._lock:
            open_now = self._connections.value()
            total = self._connections_total.value()
            self._registry.reset()
            self._connections.set(open_now)
            self._connections_total.inc(total)

    # ------------------------------------------------------------------ reporting
    def report(self) -> Dict[str, object]:
        """Everything as one nested plain dict (JSON-ready)."""
        with self._lock:
            return {
                "connections": {
                    "open": int(self._connections.value()),
                    "total": int(self._connections_total.value()),
                },
                "requests": {
                    "accepted": _by_class(self._requests, "accepted"),
                    "rejected": _by_reason(self._rejects),
                    "expired": _by_class(self._expiries),
                    "completed": _by_class(self._requests, "completed"),
                    "failed": _by_class(self._requests, "failed"),
                },
                "latency": {
                    cls: stats.summary()
                    for (cls,), stats in sorted(self._latency.items())
                },
            }
