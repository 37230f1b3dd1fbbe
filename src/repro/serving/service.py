"""The serving front door: pool + batcher + optional detection postprocessing.

:class:`InferenceService` is what a deployment embeds: it owns a
:class:`~repro.serving.pool.ModelPool`, lazily creates one
:class:`~repro.serving.batcher.DynamicBatcher` per served model, and exposes

* :meth:`~InferenceService.submit` — admit one image, get an
  :class:`~repro.serving.batcher.InferenceFuture` (raises
  :class:`~repro.serving.batcher.QueueFullError` under overload),
* :meth:`~InferenceService.submit_many` — blocking convenience for a stack of
  images; returns outputs concatenated in request order, so it is directly
  comparable against a sequential :class:`~repro.engine.runner.BatchRunner` run,
* :meth:`~InferenceService.shutdown` — graceful drain (no admitted request is
  dropped), also entered via the context-manager protocol.

Postprocessing (YOLO head decoding + NMS via :mod:`repro.detection`) plugs in
as a per-image callable so detection services return
:class:`~repro.detection.metrics.Detection` lists instead of raw head tensors;
:func:`make_yolo_postprocess` builds one for single-scale YOLO-style models
(e.g. the TinyDetector every benchmark serves).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional, Sequence, Union

import numpy as np

from repro.engine.compiler import CompiledModel
from repro.engine.runner import _concat_outputs
from repro.nn.module import Module
from repro.obs.tracing import TraceContext, mint_trace
from repro.pipeline.artifact import DeployableArtifact
from repro.serving.api import DEFAULT_PRIORITY
from repro.serving.batcher import (
    BatchPolicy,
    DynamicBatcher,
    InferenceFuture,
    ServiceClosedError,
    submit_stack,
)
from repro.serving.metrics import ServingMetrics
from repro.serving.pool import ModelPool, PooledModel


def make_yolo_postprocess(model: Module, conf_threshold: float = 0.25,
                          iou_threshold: float = 0.45, max_detections: int = 300):
    """Per-image postprocess callable for single-scale YOLO-style models.

    The model must expose ``anchors`` and a config with ``image_size`` and
    ``num_classes`` (the :class:`~repro.models.tiny.TinyDetector` contract).
    The returned callable takes one raw head output of batch size 1 and returns
    the image's list of :class:`~repro.detection.metrics.Detection`.
    """
    from repro.detection.postprocess import decode_yolo_single_scale

    anchors = np.asarray(model.anchors, dtype=np.float32)
    image_size = int(model.config.image_size)
    num_classes = int(model.config.num_classes)

    def postprocess(raw: np.ndarray):
        detections = decode_yolo_single_scale(
            raw, anchors, image_size, num_classes,
            conf_threshold=conf_threshold, iou_threshold=iou_threshold,
            max_detections=max_detections,
        )
        return detections[0]

    return postprocess


class InferenceService:
    """High-throughput inference over deployable artifacts.

    Parameters
    ----------
    model:
        What to serve: an artifact ``.npz`` path, a loaded
        :class:`DeployableArtifact`, a :class:`CompiledModel` or a plain
        :class:`Module`.  Paths go through the pool (and can be evicted /
        reloaded); objects are registered under ``name``.
    policy:
        Micro-batching :class:`BatchPolicy` (batch size / wait / queue bound).
    pool:
        Optional shared :class:`ModelPool`; a private one is created otherwise.
    postprocess:
        Optional per-image callable applied to each request's output (see
        :func:`make_yolo_postprocess`).
    warmup:
        Warm served models with one forward pass before accepting traffic.
    """

    # reprolint lock-discipline contract: batcher table and lifecycle flag
    # mutate only under the service lock (after __init__).
    _guarded_by_ = {
        "_batchers": "_lock",
        "_closed": "_lock",
        "_pinned": "_lock",
    }

    def __init__(
        self,
        model: Union[str, DeployableArtifact, CompiledModel, Module],
        policy: Optional[BatchPolicy] = None,
        pool: Optional[ModelPool] = None,
        postprocess=None,
        metrics: Optional[ServingMetrics] = None,
        warmup: bool = True,
        name: str = "default",
    ) -> None:
        self.policy = policy or BatchPolicy()
        self.metrics = metrics or ServingMetrics(name=name)
        # Not `pool or ...`: ModelPool defines __len__, so a freshly created
        # (empty) pool is falsy and would be silently replaced.
        self.pool = pool if pool is not None else ModelPool(warmup=warmup)
        self._postprocess = postprocess
        self._warmup = warmup
        self._lock = threading.Lock()
        self._batchers: Dict[str, DynamicBatcher] = {}
        self._closed = False

        # Object-registered entries are pinned (held by self._pinned): they have
        # no path to reload from, so eviction must not be able to drop them
        # out from under their batcher.  Path-keyed models route through the
        # pool on every batch instead, so LRU order tracks real use and an
        # evicted artifact is transparently reloaded.
        self._pinned: Dict[str, PooledModel] = {}
        if isinstance(model, str):
            self._default_key = self.pool.key_for(model)
            self.pool.get(model)                      # load + warm up front
        else:
            self._pinned[name] = self.pool.add(name, model, warmup=warmup)
            self._default_key = name

    # ------------------------------------------------------------------ serving
    def _batcher_for(self, key: str) -> DynamicBatcher:
        with self._lock:
            if self._closed:
                raise ServiceClosedError("InferenceService has been shut down")
            batcher = self._batchers.get(key)
            if batcher is None:
                pinned = self._pinned.get(key)
                if pinned is not None:
                    run = pinned.run
                    engine_source = lambda pinned=pinned: pinned.compiled_model
                else:
                    run = lambda batch, key=key: self.pool.get(key).run(batch)
                    engine_source = (
                        lambda key=key: self.pool.get(key).compiled_model)
                batcher = DynamicBatcher(
                    run, policy=self.policy, metrics=self.metrics,
                    postprocess=self._postprocess, name=key.rsplit("/", 1)[-1],
                    engine_source=engine_source)
                self._batchers[key] = batcher
            return batcher

    def submit(self, image: np.ndarray, model: Optional[str] = None,
               block: bool = False, timeout: Optional[float] = None,
               trace: Optional[TraceContext] = None,
               priority: str = DEFAULT_PRIORITY,
               deadline_ms: Optional[float] = None) -> InferenceFuture:
        """Admit one ``(C, H, W)`` image; returns its future.

        Non-blocking by default: raises
        :class:`~repro.serving.errors.QueueFullError` when the bounded queue
        is at capacity (admission control), so overload is visible to callers
        instead of silently growing latency.

        ``priority`` (a :data:`repro.serving.api.PRIORITY_CLASSES` name) and
        ``deadline_ms`` feed the batcher's SLO-aware scheduler: higher classes
        batch first, infeasible deadlines are rejected at admission with
        :class:`~repro.serving.errors.DeadlineExceededError`, and a request
        whose deadline expires while queued is dropped — never executed.

        When tracing is on (:func:`repro.obs.set_tracing` or ``REPRO_TRACE=1``)
        each admission mints a :class:`~repro.obs.tracing.TraceContext` that
        follows the request through queue, batch and engine; cluster workers
        and the gateway pass the rehydrated parent ``trace`` in instead, so one
        ``trace_id`` spans the whole hop.
        """
        if model is None:
            key = self._default_key
        elif model in self._pinned:
            key = model
        else:
            key = self.pool.key_for(model)
        if trace is None:
            trace = mint_trace()     # None unless tracing is enabled
        return self._batcher_for(key).submit(
            image, block=block, timeout=timeout, trace=trace,
            priority=priority, deadline_ms=deadline_ms)

    def submit_many(self, images: Union[np.ndarray, Sequence[np.ndarray]],
                    model: Optional[str] = None,
                    timeout: Optional[float] = None) -> Any:
        """Submit a stack of images with backpressure and wait for all results.

        Outputs come back concatenated along the batch axis **in request
        order** (independent of micro-batch composition), so
        ``service.submit_many(x)`` is directly comparable to
        ``BatchRunner(compiled).run(x)``.  With a ``postprocess`` installed the
        return value is the list of per-image postprocessed results instead.
        """
        results = submit_stack(
            lambda image: self.submit(image, model=model, block=True, timeout=timeout),
            images, timeout)
        if self._postprocess is not None:
            return results
        return _concat_outputs(results)

    # ------------------------------------------------------------------ lifecycle
    def shutdown(self, timeout: Optional[float] = None) -> None:
        """Drain every batcher and stop admissions (idempotent)."""
        with self._lock:
            self._closed = True
            batchers = list(self._batchers.values())
        for batcher in batchers:
            batcher.shutdown(timeout)

    def __enter__(self) -> "InferenceService":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    # ------------------------------------------------------------------ reporting
    def report(self) -> Dict[str, Any]:
        """Serving metrics + pool statistics + the effective batch policy."""
        report = dict(self.metrics.report())
        report["pool"] = self.pool.stats()
        # Executor mode per served model (int8/fused/dense).  Cluster
        # workers relay this report, so `repro serve --workers N` shows which
        # path each process actually serves through.
        modes = self.pool.engine_modes()
        with self._lock:
            for key, pinned in self._pinned.items():
                modes[key.rsplit("/", 1)[-1]] = pinned.engine_mode
        report["engine_modes"] = modes
        report["policy"] = {
            "max_batch_size": self.policy.max_batch_size,
            "max_wait_ms": self.policy.max_wait_ms,
            "queue_capacity": self.policy.queue_capacity,
        }
        with self._lock:
            report["engine"] = {
                key.rsplit("/", 1)[-1]: batcher.stats.as_dict()
                for key, batcher in self._batchers.items()
            }
        return report

    def stats(self) -> Dict[str, Any]:
        """:class:`~repro.serving.api.InferenceTarget` alias of :meth:`report`."""
        return self.report()

    def expected_wait_seconds(self, model: Optional[str] = None) -> float:
        """The default (or named) model's current queueing-delay estimate."""
        if model is None:
            key = self._default_key
        elif model in self._pinned:
            key = model
        else:
            key = self.pool.key_for(model)
        with self._lock:
            batcher = self._batchers.get(key)
        return 0.0 if batcher is None else batcher.expected_wait_seconds()
