"""repro.obs — dependency-free observability for the serving runtime.

Three planes, one package (see docs/observability.md):

* **Metrics** (:mod:`repro.obs.registry`) — process-global, thread-safe
  :class:`Counter` / :class:`Gauge` / :class:`Histogram` primitives with label
  sets, plus a *collector* hook that lets stateful objects (``ServingMetrics``,
  ``ClusterMetrics``, workspace arenas, the ConvPlan layout cache) publish
  into one flat :meth:`MetricsRegistry.snapshot` without giving up their own
  locks.  Exporters for Prometheus text format and JSON lines.
* **Tracing** (:mod:`repro.obs.tracing`) — a ``trace_id`` + span model minted
  at ``InferenceService.submit``, carried across threads on the request object
  and across the Router→worker pipe in the ``ArrayChannel`` JSON header.
  Completed traces land in a ring buffer exportable as Chrome
  ``chrome://tracing`` trace-event JSON.
* **Profiling** (:mod:`repro.obs.profiler`) — opt-in per-op timing for the
  fused/int8 executors, surfaced through
  ``CompiledModel.profile()`` and ``repro engine --profile``.

``repro top`` (:mod:`repro.obs.top`) renders the live ops view on top of the
registry + Router snapshots.
"""

from repro.obs.profiler import EngineProfiler, OpStat
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.obs.top import TopView
from repro.obs.tracing import (
    Span,
    TraceBuffer,
    TraceContext,
    activate,
    current_trace_id,
    get_trace_buffer,
    mint_trace,
    set_tracing,
    span,
    tracing_enabled,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "Span",
    "TraceBuffer",
    "TraceContext",
    "activate",
    "current_trace_id",
    "get_trace_buffer",
    "mint_trace",
    "set_tracing",
    "span",
    "tracing_enabled",
    "EngineProfiler",
    "OpStat",
    "TopView",
]
