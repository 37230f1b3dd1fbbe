"""Load generators and request accounting, independent of the program under test.

Every load loop talks to an ``InferenceTarget``-shaped object (``submit(image)``
returning a future with ``result()``, ``done()`` and ``resolved_at``), so the
self-tests drive them with fake targets.  A request counts as failed when its
submit raises, its future fails or times out, or its output differs from the
reference by more than :data:`TOLERANCE`.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

from repro.engine import BatchRunner, max_abs_output_diff

#: Largest absolute difference allowed between a response and its reference.
TOLERANCE = 1e-5
#: Completions a phase needs before its p99 is reported (ten beyond the p99).
P99_MIN_SAMPLES = 1000
#: Seconds a load loop waits for a straggling response before counting it failed.
RESULT_TIMEOUT_S = 30.0


def monotonic_of(perf_stamp: float) -> float:
    """A ``perf_counter`` stamp of this process on the ``monotonic`` clock.

    ``monotonic`` is shared by every process of the host, so set-up time can
    span the benchmark process and the server it started.
    """
    return time.monotonic() - (time.perf_counter() - perf_stamp)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def p99_or_none(values: Sequence[float]) -> Optional[float]:
    """The p99, or ``None`` when fewer than :data:`P99_MIN_SAMPLES` support it."""
    return percentile(values, 99) if len(values) >= P99_MIN_SAMPLES else None


def output_matches(output: Any, reference: Any) -> bool:
    """Whether ``output`` equals ``reference`` within :data:`TOLERANCE`."""
    return max_abs_output_diff(output, reference) <= TOLERANCE  # NaN: mismatch


def fused_matches_dense(compiled: Any, frame: Any, reference: Any) -> bool:
    """Whether the plain no-grad model agrees with a fused ``reference``."""
    compiled.detach()
    try:
        dense = BatchRunner(compiled.model, batch_size=1).run(frame[None])
    finally:
        compiled.attach()
    return output_matches(dense, reference)


@dataclass
class Phase:
    """What one measured phase of a load loop saw.

    ``latencies`` are seconds from each request's due time (open loop) or send
    time (closed loop, replay) to its response; ``round_trips`` are always from
    the send.  ``late`` is how far behind its schedule each send went out.
    ``serial`` marks a closed loop, where one request is in flight at a time.
    """

    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    latencies: List[float] = field(default_factory=list)
    round_trips: List[float] = field(default_factory=list)
    late: List[float] = field(default_factory=list)
    submit_seconds: List[float] = field(default_factory=list)
    elapsed: float = 0.0
    cpu_s: float = 0.0
    serial: bool = False

    @property
    def completed(self) -> int:
        return len(self.latencies)

    @property
    def throughput_rps(self) -> float:
        """Correct responses per second.

        A serial phase answers one request at a time, so its rate is the
        reciprocal of its median round trip: a stall of the host then moves
        the figure only as much as it moves the typical request.  Other phases
        report their correct responses over their duration.
        """
        if self.serial and self.round_trips:
            return 1.0 / statistics.median(self.round_trips)
        return self.completed / self.elapsed if self.elapsed > 0 else 0.0

    def settle(self, future: Any, reference: Any, due: float, sent: float) -> None:
        """Account one submitted request once its future has resolved."""
        try:
            output = future.result(RESULT_TIMEOUT_S)
        except Exception:
            self.failed += 1
            return
        if not output_matches(output, reference):
            self.failed += 1
            self.mismatched += 1
            return
        self.latencies.append(future.resolved_at - due)
        self.round_trips.append(future.resolved_at - sent)


def closed_loop(target: Any, frames: Sequence[Any], references: Sequence[Any],
                seconds: float) -> Phase:
    """One caller that sends the next frame only after the previous answer."""
    phase = Phase(serial=True)
    cpu_started = time.process_time()
    started = time.perf_counter()
    index = 0
    while time.perf_counter() - started < seconds:
        slot = index % len(frames)
        index += 1
        phase.attempted += 1
        sent = time.perf_counter()
        try:
            future = target.submit(frames[slot])
        except Exception:
            phase.failed += 1
            continue
        phase.settle(future, references[slot], sent, sent)
    phase.elapsed = time.perf_counter() - started
    phase.cpu_s = time.process_time() - cpu_started
    return phase


def camera_schedule(clocks: Sequence[tuple], seconds: float) -> List[tuple]:
    """``(due offset, camera)`` pairs of free-running cameras, in due order.

    ``clocks`` holds each camera's ``(phase, period)`` in seconds.
    """
    schedule = []
    for camera, (phase_s, period_s) in enumerate(clocks):
        due = phase_s
        while due < seconds:
            schedule.append((due, camera))
            due += period_s
    schedule.sort()
    return schedule


def open_loop(target: Any, schedule: Sequence[tuple],
              frame_for: Callable[[int, int], int], frames: Sequence[Any],
              references: Sequence[Any],
              sleep: Callable[[float], None] = time.sleep) -> Phase:
    """Send each request at its due time, whether or not earlier ones answered.

    ``schedule`` holds ``(due offset in s, camera)`` pairs in due order and
    ``frame_for(camera, n)`` picks the frame of the camera's ``n``-th request.
    Latency is timed from the due time, so a stall also charges the requests
    that queued up behind it.
    """
    phase = Phase()
    sent_requests = []
    counts: dict = {}
    cpu_started = time.process_time()
    started = time.perf_counter()
    for offset, camera in schedule:
        due = started + offset
        delay = due - time.perf_counter()
        if delay > 0:
            sleep(delay)
        n = counts.get(camera, 0)
        counts[camera] = n + 1
        slot = frame_for(camera, n)
        phase.attempted += 1
        sent = time.perf_counter()
        phase.late.append(sent - due)
        try:
            future = target.submit(frames[slot])
        except Exception:
            phase.failed += 1
            continue
        sent_requests.append((future, slot, due, sent))
    for future, _, _, _ in sent_requests:
        try:
            future.exception(RESULT_TIMEOUT_S)
        except TimeoutError:
            pass
    phase.cpu_s = time.process_time() - cpu_started
    last = started
    for future, slot, due, sent in sent_requests:
        phase.settle(future, references[slot], due, sent)
        if future.resolved_at is not None:
            last = max(last, future.resolved_at)
    phase.elapsed = last - started
    return phase


def replay(submit: Callable[[Any], Any], frames: Sequence[Any],
           references: Sequence[Any], seconds: float) -> Phase:
    """Replay frames back to back through a blocking ``submit`` (backpressure).

    Responses are checked as they come back, from the oldest outstanding
    request, so memory stays bounded however many requests a phase makes.
    """
    phase = Phase()
    window: deque = deque()
    thread_started = time.thread_time()
    started = time.perf_counter()
    index = 0
    while time.perf_counter() - started < seconds:
        slot = index % len(frames)
        index += 1
        phase.attempted += 1
        sent = time.perf_counter()
        try:
            future = submit(frames[slot])
        except Exception:
            phase.failed += 1
            continue
        phase.submit_seconds.append(time.perf_counter() - sent)
        window.append((future, slot, sent))
        while window and window[0][0].done():
            future, done_slot, done_sent = window.popleft()
            phase.settle(future, references[done_slot], done_sent, done_sent)
    while window:
        future, slot, sent = window.popleft()
        phase.settle(future, references[slot], sent, sent)
    phase.elapsed = time.perf_counter() - started
    phase.cpu_s = time.thread_time() - thread_started
    return phase
