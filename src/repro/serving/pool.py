"""LRU-bounded pool of warmed-up deployable models.

A long-running service cannot afford to reload + recompile a
:class:`~repro.pipeline.artifact.DeployableArtifact` on every request, nor can
it keep an unbounded number of models resident.  :class:`ModelPool` sits in
between: :meth:`~ModelPool.get` returns a warmed
:class:`PooledModel` for an artifact path (loading, recompiling and warming it
on first use), keeps at most ``capacity`` models resident and evicts the least
recently used one beyond that — the bounded-resource design the elastic-submap
reconstruction literature argues for.

Eviction is reference-safe: an evicted entry is only dropped from the pool's
map, never torn down, so threads still inferring through a handle they obtained
earlier keep a fully functional model (it is garbage-collected once the last
handle goes away).  Re-``get`` after eviction reloads from disk.

Concurrency: the pool map sits behind one lock; artifact loading happens
*outside* it with per-key in-flight tracking, so two threads requesting the
same artifact share one load and threads requesting different artifacts load in
parallel.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.nn.module import Module
from repro.nn.tensor import Tensor, no_grad
from repro.pipeline.artifact import DeployableArtifact
from repro.utils.logging import get_logger

logger = get_logger("serving.pool")


def as_batch_callable(model: Any) -> Callable[[np.ndarray], Any]:
    """A ``stacked NCHW batch -> numpy outputs`` callable for any servable model.

    Accepts anything with ``forward_raw`` (:class:`DeployableArtifact`,
    :class:`repro.engine.compiler.CompiledModel`) or a plain
    :class:`~repro.nn.module.Module`, which is run dense under ``no_grad``.
    """
    forward_raw = getattr(model, "forward_raw", None)
    if callable(forward_raw):
        return forward_raw
    if isinstance(model, Module):
        from repro.engine.runner import _to_numpy

        def run(batch: np.ndarray):
            if model.training:
                model.eval()
            with no_grad():
                return _to_numpy(model(Tensor(batch)))

        return run
    raise TypeError(f"cannot serve a {type(model).__name__}; expected a "
                    "DeployableArtifact, CompiledModel, Module or artifact path")


class PooledModel:
    """One resident model: a loaded artifact (or model) plus its batch entry point."""

    def __init__(self, key: str, model: Any) -> None:
        self.key = key
        self.model = model
        self._run = as_batch_callable(model)
        self._warmed = False

    @property
    def artifact(self) -> Any:
        """Alias kept for callers that think in artifacts."""
        return self.model

    def run(self, batch: np.ndarray) -> Any:
        """No-grad inference on one stacked NCHW batch (numpy in, numpy out)."""
        return self._run(batch)

    def warmup(self, image_shape: Optional[Tuple[int, int, int]] = None) -> None:
        """Run one throwaway forward pass so serving threads never pay it.

        Warming settles everything the compiled engine mutates lazily — layer
        ``eval()`` flags, the traced fused program and the per-shape layout caches —
        which is what makes subsequent *concurrent* inference safe (see the
        thread-safety contract on :class:`repro.engine.compiler.CompiledModel`).
        """
        if self._warmed:
            return
        if image_shape is None:
            image_shape = self.default_image_shape()
        probe = np.zeros((1, *image_shape), dtype=np.float32)
        self.run(probe)
        self._warmed = True

    @property
    def engine_mode(self) -> str:
        """Executor this entry serves through: ``int8``/``fused``/``dense``."""
        compiled = self.compiled_model
        return compiled.engine_mode if compiled is not None else "dense"

    @property
    def compiled_model(self) -> Optional[Any]:
        """The :class:`~repro.engine.compiler.CompiledModel` behind this entry.

        ``None`` for plain-module entries; used by the serving layer to attach
        per-batch engine profilers to traced requests.
        """
        from repro.engine.compiler import CompiledModel

        target = self.model
        compiled = getattr(target, "compiled", None)    # DeployableArtifact unwrap
        if compiled is not None:
            target = compiled
        return target if isinstance(target, CompiledModel) else None

    def default_image_shape(self) -> Tuple[int, int, int]:
        """Best-effort ``(C, H, W)`` warmup shape for the served model."""
        spec = getattr(self.model, "spec", None)
        if spec is not None:
            return tuple(spec.framework.example_shape()[1:])
        target = getattr(self.model, "model", self.model)   # CompiledModel unwrap
        config = getattr(target, "config", None)
        size = int(getattr(config, "image_size", 64) or 64)
        return (3, size, size)

    @property
    def warmed(self) -> bool:
        return self._warmed


class ModelPool:
    """LRU-bounded, thread-safe pool of :class:`PooledModel` entries.

    Parameters
    ----------
    capacity:
        Maximum number of resident models; the least recently used entry is
        evicted beyond it.
    warmup:
        Warm every loaded model with one forward pass before returning it.
    loader:
        Injectable artifact loader (defaults to
        :meth:`DeployableArtifact.load`); tests substitute counting loaders.
    """

    # reprolint lock-discipline contract: LRU state and counters mutate only
    # under the pool lock.
    _guarded_by_ = {
        "_entries": "_lock",
        "_loading": "_lock",
        "hits": "_lock",
        "misses": "_lock",
        "evictions": "_lock",
    }

    def __init__(self, capacity: int = 2, warmup: bool = True,
                 loader: Callable[[str], DeployableArtifact] = DeployableArtifact.load) -> None:
        if capacity < 1:
            raise ValueError(f"ModelPool capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._warmup = warmup
        self._loader = loader
        self._lock = threading.Lock()
        self._entries: Dict[str, PooledModel] = {}   # insertion order = LRU order
        self._loading: Dict[str, threading.Event] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------ access
    @staticmethod
    def key_for(path: str) -> str:
        """Canonical pool key of an artifact path."""
        return os.path.abspath(path)

    def get(self, path: str) -> PooledModel:
        """The resident model for ``path``, loading (and warming) on miss."""
        key = self.key_for(path)
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self.hits += 1
                    self._touch(key)
                    return entry
                in_flight = self._loading.get(key)
                if in_flight is None:
                    event = threading.Event()
                    self._loading[key] = event
                    break
            # Another thread is loading this key: wait, then re-check (the
            # entry may exist now — or may already have been evicted again).
            in_flight.wait()
        try:
            entry = self._load(key, path)
        finally:
            with self._lock:
                del self._loading[key]
                event.set()
        return entry

    def add(self, key: str, model: Any, warmup: Optional[bool] = None) -> PooledModel:
        """Register an already-loaded artifact/model under an explicit key.

        Unlike path-keyed entries, an object registered this way cannot be
        reloaded after eviction — callers serving objects should hold on to the
        returned :class:`PooledModel` (the service does).
        """
        entry = PooledModel(key, model)
        should_warm = self._warmup if warmup is None else warmup
        if should_warm:
            entry.warmup()
        with self._lock:
            self._entries[key] = entry
            self._touch(key)
            self._evict_overflow()
        return entry

    # ------------------------------------------------------------------ internals
    def _load(self, key: str, path: str) -> PooledModel:
        logger.info("loading artifact %s into the pool", path)
        artifact = self._loader(path)
        entry = PooledModel(key, artifact)
        if self._warmup:
            entry.warmup()
        with self._lock:
            self.misses += 1
            self._entries[key] = entry
            self._touch(key)
            self._evict_overflow()
        return entry

    def _touch(self, key: str) -> None:  # reprolint: holds=_lock
        """Move ``key`` to the most-recently-used end (caller holds the lock)."""
        entry = self._entries.pop(key)
        self._entries[key] = entry

    def _evict_overflow(self) -> None:  # reprolint: holds=_lock
        while len(self._entries) > self.capacity:
            victim_key = next(iter(self._entries))
            self._entries.pop(victim_key)
            self.evictions += 1
            logger.info("evicted %s (pool over capacity %d)", victim_key, self.capacity)

    # ------------------------------------------------------------------ reporting
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, path: str) -> bool:
        with self._lock:
            return self.key_for(path) in self._entries

    def keys(self) -> Tuple[str, ...]:
        """Resident keys, least → most recently used."""
        with self._lock:
            return tuple(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"resident": len(self._entries), "capacity": self.capacity,
                    "hits": self.hits, "misses": self.misses, "evictions": self.evictions}

    def engine_modes(self) -> Dict[str, str]:
        """Executor mode of each resident model, keyed by its short name."""
        with self._lock:
            return {key.rsplit("/", 1)[-1]: entry.engine_mode
                    for key, entry in self._entries.items()}
