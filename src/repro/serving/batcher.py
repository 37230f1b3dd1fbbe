"""Dynamic micro-batching: coalesce single-image requests into model batches.

The R-TOSS engine's compiled GEMMs amortize their gather/launch overhead over
the batch axis, so serving one image at a time throws most of the measured
kernel speedup away.  :class:`DynamicBatcher` recovers it at the service
boundary: producers :meth:`~DynamicBatcher.submit` single images and get a
:class:`InferenceFuture` back; a dedicated worker thread coalesces queued
requests into micro-batches under a :class:`BatchPolicy` — a batch closes when
it reaches ``max_batch_size`` *or* when the oldest request in it has waited
``max_wait_ms`` — executes the batch, and resolves each request's future with
its slice of the batched output.

Backpressure is explicit: the queue is bounded by ``queue_capacity`` and a
non-blocking :meth:`~DynamicBatcher.submit` raises :class:`QueueFullError`
instead of buffering unboundedly (admission control); ``block=True`` turns the
same bound into producer backpressure.  Shutdown drains: every request admitted
before :meth:`~DynamicBatcher.shutdown` is executed and resolved — nothing is
dropped (except requests whose deadline expires, see below).

SLO-aware scheduling (the gateway PR)
-------------------------------------
Requests carry a **priority class** and an optional **deadline**:

* the queue is a priority heap ordered by ``(class rank, admission order)``
  — between GEMMs the worker refills the next micro-batch from the highest
  class first (continuous batching), so a ``high`` request admitted while a
  batch executes jumps ahead of queued ``low`` work,
* a request whose ``deadline_ms`` already passed — or would pass during the
  queue's *expected wait* (queue depth × mean batch duration) — is rejected
  at admission with :class:`DeadlineExceededError` instead of being queued,
* a request that expires while queued is **dropped** (its future fails with
  :class:`DeadlineExceededError`) rather than executed; the batcher re-checks
  immediately before execution, so an expired request never reaches a GEMM,
* when the queue is full, an arriving request may **preempt** the newest
  queued request of a strictly lower class (the victim's future fails with
  :class:`AdmissionRejectedError`) — under overload the low class absorbs
  the rejections while the high class keeps its SLO.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from repro.engine.runner import _split_outputs
from repro.obs.tracing import TraceContext
from repro.serving.errors import (
    AdmissionRejectedError,
    DeadlineExceededError,
    QueueFullError,
    ServiceClosedError,
)
from repro.serving.metrics import ServingMetrics
from repro.utils.logging import get_logger

__all__ = [
    "BatchPolicy",
    "DynamicBatcher",
    "InferenceFuture",
    "submit_stack",
]

logger = get_logger("serving.batcher")


@dataclass
class BatchPolicy:
    """Knobs of the micro-batching policy.

    max_batch_size:
        A batch closes as soon as it holds this many requests.
    max_wait_ms:
        ... or as soon as the *oldest* request in it has waited this long.
        ``0`` disables coalescing waits entirely (each batch takes whatever is
        queued right now) — lowest latency, least batching.
    queue_capacity:
        Bound of the admission queue; beyond it, non-blocking submits are
        rejected with :class:`QueueFullError` (or preempt a lower class).
    """

    max_batch_size: int = 8
    max_wait_ms: float = 2.0
    queue_capacity: int = 256

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError(f"BatchPolicy.max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.max_wait_ms < 0:
            raise ValueError(f"BatchPolicy.max_wait_ms must be >= 0, got {self.max_wait_ms}")
        if self.queue_capacity < 1:
            raise ValueError(f"BatchPolicy.queue_capacity must be >= 1, got {self.queue_capacity}")


class InferenceFuture:
    """Handle to one in-flight request; resolved by the batcher's worker."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self._result: Any = None
        self._error: Optional[BaseException] = None
        self._callback_lock = threading.Lock()
        #: Pending done-callbacks; ``None`` once resolution drained them.
        self._callbacks: Optional[List[Callable[["InferenceFuture"], None]]] = []
        #: ``time.perf_counter()`` at resolution (for client-side latency math).
        self.resolved_at: Optional[float] = None
        #: The request's :class:`repro.obs.TraceContext` when tracing is armed
        #: (set at admission), else ``None`` — how callers correlate a result
        #: with its spans in the trace buffer.
        self.trace: Optional[TraceContext] = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block until resolved; re-raises the batch's exception on failure."""
        if not self._event.wait(timeout):
            raise TimeoutError("inference request did not complete in time")
        if self._error is not None:
            raise self._error
        return self._result

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        if not self._event.wait(timeout):
            raise TimeoutError("inference request did not complete in time")
        return self._error

    def add_done_callback(self, callback: Callable[["InferenceFuture"], None]) -> None:
        """Call ``callback(self)`` when resolved (immediately if it already is).

        Callbacks run on the resolving thread (the batcher worker, a cluster
        receiver, or a gateway reader) and must be cheap and non-blocking —
        the async gateway uses this to hop results back onto its event loop
        without parking a thread per outstanding request.
        """
        with self._callback_lock:
            if self._callbacks is not None:
                self._callbacks.append(callback)
                return
        callback(self)

    # ------------------------------------------------------------------ internal
    def _resolve(self, result: Any) -> None:
        self._result = result
        self.resolved_at = time.perf_counter()
        self._event.set()
        self._run_callbacks()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self.resolved_at = time.perf_counter()
        self._event.set()
        self._run_callbacks()

    def _run_callbacks(self) -> None:
        with self._callback_lock:
            callbacks = self._callbacks
            self._callbacks = None
        for callback in callbacks or ():
            try:
                callback(self)
            except Exception:  # pragma: no cover - callbacks must not kill resolvers
                logger.exception("InferenceFuture done-callback raised")


def submit_stack(submit_one: Callable[[np.ndarray], "InferenceFuture"],
                 images, timeout: Optional[float] = None) -> List[Any]:
    """The shared ``submit_many`` protocol: unstack, submit, collect in order.

    Splits an ``(N, C, H, W)`` ndarray (or accepts a sequence of images),
    submits every image through ``submit_one`` (expected to block for
    backpressure) and waits for all results in request order.  Shared by
    :meth:`InferenceService.submit_many`, the cluster :meth:`Router.submit_many`
    and the gateway :meth:`GatewayClient.submit_many` so the stack-splitting
    and ordering semantics cannot drift apart.
    """
    if isinstance(images, np.ndarray):
        if images.ndim != 4:
            raise ValueError(f"expected an (N, C, H, W) stack, got shape {images.shape}")
        images = [images[index] for index in range(images.shape[0])]
    futures = [submit_one(image) for image in images]
    results = [future.result(timeout) for future in futures]
    if not results:
        raise ValueError("submit_many received no images")
    return results


class _Request:
    """One queued image plus its future, priority, deadline and timestamps."""

    __slots__ = ("image", "future", "enqueued_at", "trace", "enqueued_wall",
                 "popped_wall", "priority", "cls", "deadline", "seq")

    def __init__(self, image: np.ndarray,
                 trace: Optional[TraceContext] = None,
                 priority: int = 1, cls: str = "normal",
                 deadline: Optional[float] = None, seq: int = 0) -> None:
        self.image = image
        self.future = InferenceFuture()
        self.future.trace = trace
        self.enqueued_at = time.perf_counter()
        self.trace = trace
        #: Scheduling rank (0 = best class) and its class name (for metrics).
        self.priority = priority
        self.cls = cls
        #: Absolute ``perf_counter`` deadline, or None for no latency budget.
        self.deadline = deadline
        #: Admission sequence number: FIFO order within one priority class.
        self.seq = seq
        # Wall-clock (epoch) twins of the perf_counter timestamps, recorded
        # only for traced requests: spans must be comparable across processes.
        self.enqueued_wall = time.time() if trace is not None else 0.0
        self.popped_wall = 0.0


class DynamicBatcher:
    """Thread-safe priority request queue + micro-batch executor.

    Parameters
    ----------
    run_batch:
        Callable taking one stacked NCHW float32 batch and returning the model
        output (array, or nested tuple/list/dict of arrays — anything
        :func:`repro.engine.runner._split_outputs` can slice).
    policy:
        The :class:`BatchPolicy`; defaults are sensible for a small CPU model.
    metrics:
        The :class:`ServingMetrics` to record into (a private, unregistered
        one if None); batches are recorded under ``model=name``.
    postprocess:
        Optional callable applied to each request's sliced output *outside* the
        queue lock (e.g. detection decoding + NMS); its return value becomes
        the future's result.
    engine_source:
        Optional zero-arg callable resolving to the
        :class:`~repro.engine.compiler.CompiledModel` behind ``run_batch`` (or
        ``None``).  Only consulted for *traced* batches: the batcher profiles
        the forward through it so the worker-execute span carries the per-op
        engine breakdown.
    """

    # reprolint lock-discipline contract: queue state mutates only under the
    # batcher lock (both Conditions wrap the same lock).
    _guarded_by_ = {
        "_queue": ("_lock", "_work_available", "_space_available"),
        "_closed": ("_lock", "_work_available", "_space_available"),
        "_image_shape": ("_lock", "_work_available", "_space_available"),
    }

    def __init__(
        self,
        run_batch: Callable[[np.ndarray], Any],
        policy: Optional[BatchPolicy] = None,
        metrics: Optional[ServingMetrics] = None,
        postprocess: Optional[Callable[[Any], Any]] = None,
        name: str = "batcher",
        engine_source: Optional[Callable[[], Any]] = None,
    ) -> None:
        self._run_batch = run_batch
        self.policy = policy or BatchPolicy()
        self.metrics = (metrics if metrics is not None
                        else ServingMetrics(name=name, register=False))
        self._postprocess = postprocess
        self._engine_source = engine_source
        self.name = name

        # Priority heap of (rank, seq, request): rank orders by class, seq
        # keeps FIFO order within a class (and makes the tuple comparison
        # never reach the request object).
        self._queue: List[Tuple[int, int, _Request]] = []
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._work_available = threading.Condition(self._lock)
        self._space_available = threading.Condition(self._lock)
        self._closed = False
        self._image_shape: Optional[Tuple[int, ...]] = None
        self._worker = threading.Thread(
            target=self._worker_loop, name=f"repro-serving-{name}", daemon=True)
        self._worker.start()

    # ------------------------------------------------------------------ admission
    @property
    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def expected_wait_seconds(self) -> float:
        """Estimated queueing delay of a request admitted right now.

        Queue depth in batches × the mean executed-batch duration so far; the
        admission-time deadline feasibility check uses it.  Returns 0.0 until
        the first batch completes (no estimate beats a wrong estimate), and
        again after ``metrics.reset()`` until the next one does.
        """
        with self._lock:
            return self._expected_wait_locked()

    def _expected_wait_locked(self) -> float:  # reprolint: holds=_lock
        mean = self.metrics.mean_batch_seconds(self.name)
        if mean <= 0.0:
            return 0.0
        return (len(self._queue) / self.policy.max_batch_size) * mean

    def submit(self, image: np.ndarray, block: bool = False,
               timeout: Optional[float] = None,
               trace: Optional[TraceContext] = None,
               priority: str = "normal",
               deadline_ms: Optional[float] = None) -> InferenceFuture:
        """Admit one image; returns its :class:`InferenceFuture`.

        ``image`` is a single ``(C, H, W)`` image (a ``(1, C, H, W)`` array is
        squeezed).  Non-blocking submits raise :class:`QueueFullError` when the
        queue is at capacity (unless a lower-priority victim can be preempted);
        ``block=True`` waits for space instead (backpressure), raising
        :class:`TimeoutError` after ``timeout`` seconds.

        ``priority`` is a class name from
        :data:`repro.serving.api.PRIORITY_CLASSES`; ``deadline_ms`` is the
        request's remaining latency budget — infeasible budgets are rejected
        here with :class:`DeadlineExceededError` and queued requests that
        outlive theirs are dropped, never executed.

        ``trace`` (when tracing is armed) rides the request: the batcher closes
        its queue-wait / batch-assembly / worker-execute / postprocess spans.
        """
        from repro.serving.api import priority_index

        rank = priority_index(priority)
        image = np.ascontiguousarray(image, dtype=np.float32)
        if image.ndim == 4:
            if image.shape[0] != 1:
                raise ValueError(
                    f"submit() takes one image, got a batch of {image.shape[0]}; "
                    "use InferenceService.submit_many for batches")
            image = image[0]
        if image.ndim != 3:
            raise ValueError(f"expected a (C, H, W) image, got shape {image.shape}")

        request_deadline: Optional[float] = None
        if deadline_ms is not None:
            if deadline_ms <= 0:
                self.metrics.record_rejection(reason="deadline", priority=priority)
                raise DeadlineExceededError(
                    f"deadline_ms={deadline_ms} already expired at admission")
            request_deadline = time.perf_counter() + deadline_ms / 1e3

        with self._lock:
            if self._closed:
                raise ServiceClosedError(f"{self.name} has been shut down")
            if self._image_shape is None:
                self._image_shape = image.shape
            elif image.shape != self._image_shape:
                raise ValueError(
                    f"image shape {image.shape} does not match the shape this "
                    f"batcher serves {self._image_shape} (one batcher serves one "
                    "input signature)")
            if request_deadline is not None:
                expected = self._expected_wait_locked()
                if expected > deadline_ms / 1e3:
                    self.metrics.record_rejection(reason="deadline", priority=priority)
                    raise DeadlineExceededError(
                        f"expected queue wait {expected * 1e3:.1f}ms exceeds the "
                        f"request deadline {deadline_ms:.1f}ms")
            deadline = None if timeout is None else time.perf_counter() + timeout
            while len(self._queue) >= self.policy.queue_capacity:
                if self._preempt_locked(rank):
                    break           # a lower-class victim made room
                if not block:
                    self.metrics.record_rejection(reason="queue_full", priority=priority)
                    raise QueueFullError(
                        f"{self.name} queue is full "
                        f"({self.policy.queue_capacity} requests waiting)")
                # Wait on the *remaining* time so repeated wakeups (space taken
                # by another producer) cannot extend the total block past
                # ``timeout``.
                remaining = None if deadline is None else deadline - time.perf_counter()
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(
                        f"timed out waiting for space in the {self.name} queue")
                if not self._space_available.wait(remaining):
                    raise TimeoutError(
                        f"timed out waiting for space in the {self.name} queue")
                if self._closed:
                    raise ServiceClosedError(f"{self.name} has been shut down")
            request = _Request(image, trace, priority=rank, cls=priority,
                               deadline=request_deadline, seq=next(self._seq))
            heapq.heappush(self._queue, (request.priority, request.seq, request))
            depth = len(self._queue)
            self._work_available.notify()
        self.metrics.record_admission(depth)
        return request.future

    def _preempt_locked(self, rank: int) -> bool:  # reprolint: holds=_lock
        """Evict the newest queued request of a strictly lower class than ``rank``.

        Returns True when a victim was evicted (its future fails with
        :class:`AdmissionRejectedError`), freeing one queue slot for the
        higher-class request being admitted.  SLO-aware overload behaviour:
        the low class absorbs the rejections, the high class keeps flowing.
        """
        victim_entry = None
        for entry in self._queue:
            if entry[2].priority <= rank:
                continue
            if victim_entry is None or entry[:2] > victim_entry[:2]:
                victim_entry = entry
        if victim_entry is None:
            return False
        self._queue.remove(victim_entry)
        heapq.heapify(self._queue)
        victim = victim_entry[2]
        self.metrics.record_rejection(reason="preempted", priority=victim.cls)
        victim.future._fail(AdmissionRejectedError(
            f"{self.name}: preempted from a full queue by a higher-priority "
            f"admission (class {victim.cls!r})"))
        if victim.trace is not None:
            victim.trace.record("preempted", victim.enqueued_wall, cls=victim.cls)
            victim.trace.finish()
        return True

    # ------------------------------------------------------------------ worker
    def _drop_expired(self, request: _Request, now_wall: float) -> None:
        """Fail an expired request (never executed) and close its trace."""
        self.metrics.record_expiry(priority=request.cls)
        waited_ms = (time.perf_counter() - request.enqueued_at) * 1e3
        request.future._fail(DeadlineExceededError(
            f"{self.name}: deadline expired after {waited_ms:.1f}ms in queue "
            f"(class {request.cls!r}); request dropped, not executed"))
        if request.trace is not None:
            start = request.enqueued_wall or now_wall
            request.trace.record("deadline-expired", start, now_wall,
                                 cls=request.cls)
            request.trace.finish()

    def _collect_batch(self) -> List[_Request]:
        """Block until work exists, then coalesce one micro-batch (policy-bound).

        Requests pop in priority order (class rank, then admission order) and
        expired requests are dropped on the way out — the batch that reaches
        :meth:`_execute` holds only live work, refilled from the best class
        first between GEMMs (continuous batching).

        Returns an empty list exactly once: when the batcher is closed and the
        queue is fully drained, signalling the worker to exit.
        """
        policy = self.policy
        while True:
            expired: List[_Request] = []
            batch: List[_Request] = []
            with self._lock:
                while not self._queue and not self._closed:
                    self._work_available.wait()
                if not self._queue:
                    return []
                # Seed the batch with the best live request, dropping expired
                # ones on the way; the whole queue may turn out to be dead.
                while self._queue and not batch:
                    request = self._pop_request()
                    if self._expired(request):
                        expired.append(request)
                    else:
                        batch.append(request)
                if batch:
                    deadline = batch[0].enqueued_at + policy.max_wait_ms / 1e3
                    while len(batch) < policy.max_batch_size:
                        if self._queue:
                            request = self._pop_request()
                            if self._expired(request):
                                expired.append(request)
                                continue
                            batch.append(request)
                            continue
                        if self._closed:
                            break
                        remaining = deadline - time.perf_counter()
                        if remaining <= 0:
                            break
                        self._work_available.wait(remaining)
                self._space_available.notify(len(batch) + len(expired))
            # Futures resolve outside the queue lock (done-callbacks run here).
            self._finish_expired(expired)
            if not batch:
                continue     # everything popped had expired; block for work again
            assembled = time.time()
            for request in batch:
                trace = request.trace
                if trace is not None:
                    trace.record("queue-wait", request.enqueued_wall,
                                 request.popped_wall)
                    trace.record("batch-assembly", request.popped_wall, assembled)
            return batch

    @staticmethod
    def _expired(request: _Request) -> bool:
        return (request.deadline is not None
                and time.perf_counter() > request.deadline)

    def _finish_expired(self, expired: List[_Request]) -> None:
        """Resolve dropped requests outside the queue lock (callbacks run here)."""
        if not expired:
            return
        now_wall = time.time()
        for request in expired:
            self._drop_expired(request, now_wall)

    def _pop_request(self) -> _Request:  # reprolint: holds=_lock
        """Dequeue the best request (lock held); stamps the pop time when traced."""
        _, _, request = heapq.heappop(self._queue)
        if request.trace is not None:
            request.popped_wall = time.time()
        return request

    def _execute(self, batch: List[_Request]) -> None:
        # Last line of deadline defence: a request that expired between batch
        # assembly and this point is dropped here — an expired request is
        # *never* part of an executed GEMM.
        if any(self._expired(request) for request in batch):
            live: List[_Request] = []
            now_wall = time.time()
            for request in batch:
                if self._expired(request):
                    self._drop_expired(request, now_wall)
                else:
                    live.append(request)
            batch = live
        if not batch:
            return
        started = time.perf_counter()
        traced = any(request.trace is not None for request in batch)
        exec_started_wall = time.time() if traced else 0.0
        profiler = None
        try:
            stacked = np.stack([request.image for request in batch])
            engine = self._traced_engine() if traced else None
            if engine is not None:
                # Per-op engine attribution for the worker-execute span; the
                # profiler is thread-local to this batch, so concurrent
                # batchers on the same engine never share a sink.
                with engine.profiled() as profiler:
                    outputs = self._run_batch(stacked)
            else:
                outputs = self._run_batch(stacked)
            slices = _split_outputs(outputs, len(batch))
        except BaseException as error:  # resolve every waiter, never hang them
            logger.warning("batch of %d failed: %s", len(batch), error)
            failed_wall = time.time()
            for request in batch:
                self.metrics.record_completion(
                    time.perf_counter() - request.enqueued_at, failed=True)
                request.future._fail(error)
                trace = request.trace
                if trace is not None:
                    trace.record("worker-execute", exec_started_wall, failed_wall,
                                 batch=len(batch), error=str(error))
                    trace.finish()
            return
        elapsed = time.perf_counter() - started
        exec_done_wall = time.time() if traced else 0.0
        self.metrics.record_batch(len(batch), elapsed, model=self.name)
        span_args: dict = {}
        if traced:
            span_args["batch"] = len(batch)
            if profiler is not None:
                span_args["ops_ms"] = profiler.top_ops()
        for request, output in zip(batch, slices):
            trace = request.trace
            if trace is not None:
                trace.record("worker-execute", exec_started_wall, exec_done_wall,
                             **span_args)
            failed = False
            post_started_wall = time.time() if trace is not None else 0.0
            try:
                result = output if self._postprocess is None else self._postprocess(output)
            except BaseException as error:
                failed = True
                request.future._fail(error)
            else:
                request.future._resolve(result)
            if trace is not None:
                trace.record("postprocess", post_started_wall)
                trace.finish()
            self.metrics.record_completion(
                time.perf_counter() - request.enqueued_at, failed=failed)

    def _traced_engine(self):
        """The CompiledModel behind ``run_batch``, for traced batches only."""
        if self._engine_source is None:
            return None
        try:
            engine = self._engine_source()
        except Exception:  # never let observability break the batch
            return None
        return engine if hasattr(engine, "profiled") else None

    def _worker_loop(self) -> None:
        while True:
            batch = self._collect_batch()
            if not batch:
                return
            self._execute(batch)

    # ------------------------------------------------------------------ lifecycle
    def shutdown(self, timeout: Optional[float] = None) -> None:
        """Stop admissions, drain the queue, join the worker (idempotent).

        Every already-admitted request is executed and its future resolved
        before the worker exits — flush-on-shutdown never drops requests
        (expired-deadline requests are still dropped, per contract).
        """
        with self._lock:
            self._closed = True
            self._work_available.notify_all()
            self._space_available.notify_all()
        self._worker.join(timeout)
        if self._worker.is_alive():  # pragma: no cover - defensive
            logger.warning("%s worker did not drain within %.1fs", self.name, timeout or 0.0)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed
