"""Process-global metrics registry: counters, gauges, histograms, exporters.

Design notes
------------
Instruments are label-aware: ``inc``/``set``/``observe`` take keyword labels
and route to a per-label-set series; ``items()`` reads every series back.  A
:class:`MetricsRegistry` owns instruments by name.  The serving ledgers
(``ServingMetrics``, ``GatewayMetrics``, ``ClusterMetrics``) each own a
private registry built with their owner label, whose instruments share its
one re-entrant lock, and publish it into the process registry as a
**collector** -- a zero-argument callable returning ready-made samples, as
the arena and layout caches also are.  Bound-method collectors are held
through ``weakref.WeakMethod``: when the owning service/router dies, its
series simply drop out of the next snapshot, which keeps short-lived test
instances from polluting the process view.

Histograms ride on the bounded reservoir in
:class:`repro.utils.profiling.LatencyStats` and export in Prometheus
*summary* style (``{quantile="0.5"}`` series plus exact ``_sum``/``_count``,
rendered by :func:`summary_samples`) rather than fixed buckets -- the repo's
latency tables are quantile tables.

Fork safety: cluster workers are forked from the router process.  The child
must not inherit the parent's counters (they describe the parent's traffic),
and must not inherit a held registry lock.  The module re-arms both through
``os.register_at_fork``, the same pattern as ``repro/engine/plan.py``.
"""

from __future__ import annotations

import json
import os
import threading
import time
import weakref
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.utils.profiling import LatencyStats

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Sample",
    "get_registry",
    "register_builtin_collector",
    "summary_samples",
]

LabelValues = Tuple[str, ...]

_QUANTILES = (("0.5", 50.0), ("0.95", 95.0), ("0.99", 99.0))


class Sample:
    """One exported time-series point: name + labels + value."""

    __slots__ = ("name", "labels", "value", "kind")

    def __init__(
        self,
        name: str,
        labels: Dict[str, str],
        value: float,
        kind: str = "gauge",
    ) -> None:
        self.name = name
        self.labels = labels
        self.value = value
        self.kind = kind

    def key(self) -> str:
        """Flat ``name{k="v",...}`` identity used by ``snapshot()``."""
        if not self.labels:
            return self.name
        inner = ",".join(f'{k}="{v}"' for k, v in sorted(self.labels.items()))
        return f"{self.name}{{{inner}}}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Sample({self.key()}={self.value})"


class _Instrument:
    """Shared label-routing machinery for the three instrument kinds."""

    kind = "untyped"

    _guarded_by_ = {"_series": "_lock"}

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        *,
        lock: Optional[threading.RLock] = None,
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        _validate_metric_name(name)
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        #: The owning registry's shared lock, or a private one when standalone.
        self._lock = lock if lock is not None else threading.RLock()
        #: Owner labels (e.g. ``service=...``) stamped on every exported sample.
        self._owner_labels = dict(labels or {})
        self._series: Dict[LabelValues, object] = {}

    def _label_key(self, labels: Dict[str, str]) -> LabelValues:
        try:
            if len(labels) == len(self.labelnames):
                return tuple([str(labels[name]) for name in self.labelnames])
        except KeyError:
            pass
        raise ValueError(
            f"metric {self.name!r} takes labels {self.labelnames}, got "
            f"{tuple(sorted(labels))}"
        )

    def _label_dict(self, key: LabelValues) -> Dict[str, str]:
        labels = dict(self._owner_labels)
        labels.update(zip(self.labelnames, key))
        return labels

    def items(self) -> List[Tuple[LabelValues, object]]:
        """Every ``(label values, value)`` series; read histogram values under the lock."""
        with self._lock:
            return list(self._series.items())

    def clear(self) -> None:
        with self._lock:
            self._series.clear()

    def samples(self) -> List[Sample]:
        with self._lock:
            return [
                Sample(self.name, self._label_dict(key), float(value), self.kind)
                for key, value in self._series.items()
            ]


class _Scalar(_Instrument):
    """A float per series: the shared half of :class:`Counter` and :class:`Gauge`."""

    def _add(self, amount: float, labels: Dict[str, str]) -> None:
        key = self._label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        key = self._label_key(labels)
        with self._lock:
            return float(self._series.get(key, 0.0))


class Counter(_Scalar):
    """Monotonically increasing count (requests, errors, cache hits).

    ``inc(0, ...)`` exports a series at zero before its first event.
    """

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (amount={amount})")
        self._add(amount, labels)


class Gauge(_Scalar):
    """Point-in-time value (queue depth, worker count, arena bytes)."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        key = self._label_key(labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self._add(amount, labels)

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self._add(-amount, labels)


class Histogram(_Instrument):
    """Distribution over observations, quantile-style (latency, batch size).

    Each label set owns a bounded :class:`LatencyStats` reservoir; exports are
    Prometheus summaries: ``name{quantile=...}``, ``name_sum``, ``name_count``.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        capacity: int = LatencyStats.DEFAULT_CAPACITY,
        **owner,
    ) -> None:
        super().__init__(name, help, labelnames, **owner)
        self._capacity = capacity

    def observe(self, value: float, **labels: str) -> None:
        with self._lock:
            self._reservoir(self._label_key(labels)).add(value)

    def stats(self, **labels: str) -> LatencyStats:
        """The series' reservoir, created empty (and exported at zero) if new."""
        with self._lock:
            return self._reservoir(self._label_key(labels))

    def _reservoir(self, key: LabelValues) -> LatencyStats:  # reprolint: holds=_lock
        stats = self._series.get(key)
        if stats is None:
            stats = self._series[key] = LatencyStats(capacity=self._capacity)
        return stats

    def samples(self) -> List[Sample]:
        with self._lock:
            return [
                sample
                for key, stats in self._series.items()
                for sample in summary_samples(self.name, self._label_dict(key), stats)
            ]


CollectorFn = Callable[[], Iterable[Sample]]


def summary_samples(
    name: str, labels: Dict[str, str], stats: LatencyStats
) -> List[Sample]:
    """Render a :class:`LatencyStats` as Prometheus-summary-style samples.

    The one renderer behind :meth:`Histogram.samples` and the series a ledger
    derives by merging reservoirs (the cluster-wide latency summary).
    """
    out = [
        Sample(name, dict(labels, quantile=text), stats.quantile_seconds(q), "histogram")
        for text, q in _QUANTILES
    ]
    out.append(Sample(name + "_sum", dict(labels), stats.total_seconds, "histogram"))
    out.append(Sample(name + "_count", dict(labels), float(stats.count), "histogram"))
    return out


class MetricsRegistry:
    """Owns instruments and collectors; renders the one flat process view.

    ``labels`` (owner labels) are added to every sample of its instruments.
    """

    _guarded_by_ = {"_instruments": "lock", "_collectors": "lock"}

    def __init__(self, labels: Optional[Dict[str, str]] = None) -> None:
        #: Shared by every instrument made here: holding it reads them consistently.
        self.lock = threading.RLock()
        self._labels = dict(labels or {})
        self._instruments: Dict[str, _Instrument] = {}
        # name -> weakref.WeakMethod | plain callable (module-level functions).
        self._collectors: Dict[str, object] = {}

    # -- instrument factories (get-or-create, kind-checked) -----------------

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames)

    def _get_or_create(self, cls, name: str, help: str, labelnames: Sequence[str]):
        with self.lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}, "
                        f"requested {cls.kind}"
                    )
                if existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.labelnames}, requested {tuple(labelnames)}"
                    )
                return existing
            instrument = cls(name, help, labelnames, lock=self.lock, labels=self._labels)
            self._instruments[name] = instrument
            return instrument

    # -- collectors ----------------------------------------------------------

    def register_collector(self, name: str, fn: CollectorFn) -> str:
        """Publish ``fn()``'s samples in every snapshot.

        Bound methods are held weakly: a collector registered by a service
        disappears when the service is garbage-collected.  ``name`` is
        uniquified on collision so parallel test instances coexist.
        """
        ref: object
        if hasattr(fn, "__self__"):
            ref = weakref.WeakMethod(fn)  # type: ignore[arg-type]
        else:
            ref = fn
        with self.lock:
            final = name
            serial = 1
            while final in self._collectors:
                serial += 1
                final = f"{name}#{serial}"
            self._collectors[final] = ref
        return final

    def unregister_collector(self, name: str) -> None:
        with self.lock:
            self._collectors.pop(name, None)

    # -- rendering -----------------------------------------------------------

    def collect(self) -> List[Sample]:
        """All live samples: instruments first, then collectors."""
        with self.lock:
            instruments = list(self._instruments.values())
            collectors = list(self._collectors.items())
        out: List[Sample] = []
        for instrument in instruments:
            out.extend(instrument.samples())
        dead: List[str] = []
        for name, ref in collectors:
            fn = ref() if isinstance(ref, weakref.WeakMethod) else ref
            if fn is None:
                dead.append(name)
                continue
            try:
                out.extend(fn())
            except Exception:  # collector bugs must not break the exporter
                continue
        if dead:
            with self.lock:
                for name in dead:
                    self._collectors.pop(name, None)
        return out

    def snapshot(self) -> Dict[str, float]:
        """One flat ``{"name{label=...}": value}`` view of the process."""
        return {sample.key(): sample.value for sample in self.collect()}

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (text/plain; version 0.0.4)."""
        samples = self.collect()
        with self.lock:
            helps = {
                name: (inst.help, inst.kind) for name, inst in self._instruments.items()
            }
        lines: List[str] = []
        seen_header: set = set()
        for sample in samples:
            base = _base_name(sample.name)
            if base not in seen_header:
                seen_header.add(base)
                help_text, kind = helps.get(base, ("", sample.kind))
                kind = "summary" if kind == "histogram" else kind
                if help_text:
                    lines.append(f"# HELP {base} {help_text}")
                lines.append(f"# TYPE {base} {kind}")
            lines.append(f"{sample.key()} {_format_value(sample.value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_jsonlines(self, timestamp: Optional[float] = None) -> str:
        """One JSON object per sample: ``{"name", "labels", "value", "ts"}``."""
        ts = time.time() if timestamp is None else timestamp
        lines = [
            json.dumps(
                {
                    "name": sample.name,
                    "labels": sample.labels,
                    "value": sample.value,
                    "kind": sample.kind,
                    "ts": round(ts, 3),
                },
                sort_keys=True,
            )
            for sample in self.collect()
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Drop every instrument series and collector (tests, forked children)."""
        with self.lock:
            for instrument in self._instruments.values():
                instrument.clear()
            self._collectors.clear()


def _validate_metric_name(name: str) -> None:
    ok = name and (name[0].isalpha() or name[0] == "_")
    ok = ok and all(ch.isalnum() or ch == "_" for ch in name)
    if not ok:
        raise ValueError(f"invalid metric name {name!r} (want [a-zA-Z_][a-zA-Z0-9_]*)")


def _base_name(name: str) -> str:
    for suffix in ("_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


# -- process-global registry ------------------------------------------------

#: Guards rebinding of the module-global registry below.
_REGISTRY_LOCK = threading.Lock()
_REGISTRY = MetricsRegistry()
#: Collectors that describe *process-wide* state (e.g. the ConvPlan layout
#: cache): unlike per-object collectors they are re-registered into the fresh
#: registry a forked child gets, because the state they read re-arms itself
#: at fork too.
_BUILTIN_COLLECTORS: List[Tuple[str, CollectorFn]] = []


def get_registry() -> MetricsRegistry:
    """The process-global registry every runtime layer publishes into."""
    return _REGISTRY


def register_builtin_collector(name: str, fn: CollectorFn) -> None:
    """Register a module-level collector that survives fork re-arms."""
    with _REGISTRY_LOCK:
        _BUILTIN_COLLECTORS.append((name, fn))
    _REGISTRY.register_collector(name, fn)


def _reinit_after_fork() -> None:
    """Give forked cluster workers a clean per-process registry.

    The parent's counters describe the parent's traffic, and the registry lock
    could have been captured mid-``collect`` — rebind both in the child.
    Builtin (module-level) collectors re-register: their backing state is
    itself reset by that module's own at-fork hook.
    """
    global _REGISTRY_LOCK, _REGISTRY
    _REGISTRY_LOCK = threading.Lock()
    _REGISTRY = MetricsRegistry()
    for name, fn in _BUILTIN_COLLECTORS:
        _REGISTRY.register_collector(name, fn)


if hasattr(os, "register_at_fork"):  # not on Windows ("spawn" children re-import)
    os.register_at_fork(after_in_child=_reinit_after_fork)
