"""Host process of the program under test.

``run.py`` starts one of these per set-up.  It builds the workload's artifact
with ``repro.pipeline.Pipeline``, saves it, starts serving it the way
``repro serve`` does and reports on stdout, one JSON object per line.  It
then obeys commands on stdin, one per line:

* ``trace`` arms the program's request tracing and the benchmark's own
  timers around the served target (traced runs only);
* ``replay <seconds>`` runs one backpressured replay phase in this process
  (``bulk-tiny``; the response is a ``phase`` event);
* ``stop`` reports the serving layers' counters, the collected spans and the
  peak RSS of this process and its workers, then shuts everything down.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.loads import (  # noqa: E402
    fused_matches_dense,
    monotonic_of,
    output_matches,
    replay,
)
from perfbench.workloads import WORKLOADS  # noqa: E402

#: How often the span collector drains the program's trace ring (256 traces).
SPAN_POLL_S = 0.1


def emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def peak_rss_kb(pid: int) -> int:
    """``VmHWM`` of a live process, in kB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


class TimedStage:
    """Times one pipeline stage around its public ``run``.

    The benchmark keeps its own timer rather than reading the pipeline's
    ``timings``, so a change to how the program times itself cannot move the
    metric.
    """

    def __init__(self, stage, timings: dict) -> None:
        self.stage = stage
        self.name = stage.name
        self.timings = timings

    def should_run(self, context) -> bool:
        return self.stage.should_run(context)

    def run(self, context) -> None:
        started = time.perf_counter()
        self.stage.run(context)
        self.timings[f"{self.name}_s"] = time.perf_counter() - started


class TimedTarget:
    """Times ``submit`` and the round trip of the target the gateway serves."""

    def __init__(self, target) -> None:
        self.target = target
        self.armed = False
        self.submit_seconds: list = []
        self.round_trips: list = []

    def __getattr__(self, name):
        return getattr(self.target, name)

    def submit(self, image, **kwargs):
        if not self.armed:
            return self.target.submit(image, **kwargs)
        started = time.perf_counter()
        future = self.target.submit(image, **kwargs)
        self.submit_seconds.append(time.perf_counter() - started)
        future.add_done_callback(
            lambda done: self.round_trips.append(done.resolved_at - started))
        return future


class SpanCollector:
    """Drains completed traces from the program's ring before it wraps."""

    def __init__(self) -> None:
        self.seen: set = set()
        self.traces: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(SPAN_POLL_S):
            self.poll()

    def poll(self) -> None:
        from repro.obs.tracing import get_trace_buffer

        for trace in get_trace_buffer().traces():
            if trace.trace_id in self.seen:
                continue
            self.seen.add(trace.trace_id)
            self.traces.append([(s.name, s.start, s.end, s.args.get("batch"))
                                for s in trace.spans])

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
        self.poll()


def build(workload, run_dir: Path):
    """Prune, compile and save the workload's artifact; returns its path."""
    from repro.pipeline import Pipeline
    from repro.pipeline.stages import default_stages

    timings: dict = {}
    spec = workload.run_spec()
    stages = [TimedStage(stage, timings) for stage in default_stages()]
    artifact = Pipeline(spec, stages=stages).run()
    path = run_dir / "artifact.npz"
    started = time.perf_counter()
    artifact.save(str(path))
    timings["save_s"] = time.perf_counter() - started
    return spec, path, timings, float(artifact.report.compression_ratio)


def start_serving(workload, spec, path: Path, timings: dict):
    """Start the served target the way ``repro serve`` does; returns it."""
    from repro.serving import BatchPolicy

    serve = spec.serve
    policy = BatchPolicy(max_batch_size=serve.max_batch_size,
                         max_wait_ms=serve.max_wait_ms,
                         queue_capacity=serve.queue_capacity)
    started = time.perf_counter()
    if workload.uses_cluster:
        from repro.serving.cluster import Router

        cluster = serve.cluster
        target = Router(str(path), workers=1, policy=policy, routing=serve.routing,
                        warmup=serve.warmup, pool_capacity=serve.pool_capacity,
                        heartbeat_interval=cluster.heartbeat_interval,
                        heartbeat_timeout=cluster.heartbeat_timeout,
                        max_restart_attempts=cluster.max_restart_attempts,
                        min_worker_uptime=cluster.min_worker_uptime,
                        restart_backoff_s=cluster.restart_backoff_s,
                        restart_backoff_max_s=cluster.restart_backoff_max_s,
                        shed_low_priority=cluster.shed_low_priority)
        for worker in target.workers:
            if not worker.wait_ready(120.0):
                raise RuntimeError(f"worker {worker.worker_id} did not start: "
                                   f"{worker.fatal_error}")
        timings["spawn_s"] = time.perf_counter() - started
    else:
        from repro.pipeline import DeployableArtifact
        from repro.serving import InferenceService, ModelPool

        artifact = DeployableArtifact.load(str(path))
        target = InferenceService(
            artifact, policy=policy,
            pool=ModelPool(capacity=serve.pool_capacity, warmup=serve.warmup),
            warmup=serve.warmup, name=spec.name)
    timings["start_s"] = time.perf_counter() - started
    return target


def worker_pids(target) -> list:
    return [worker.process.pid for worker in getattr(target, "workers", ())]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    spec, path, timings, compression = build(workload, args.dir)
    served = start_serving(workload, spec, path, timings)
    target = TimedTarget(served) if args.trace else served
    gateway = None
    frames = references = None
    ready = {"timings": timings, "compression_x": compression,
             "artifact": str(path)}
    if workload.uses_gateway:
        from repro.serving import GatewayServer

        started = time.perf_counter()
        gateway = GatewayServer(target, spec=spec.serve.gateway).start()
        timings["start_s"] += time.perf_counter() - started
        ready["port"] = gateway.port
    else:
        from repro.pipeline import DeployableArtifact

        frames = workload.frames_for_seed(args.seed)
        future = served.submit(frames[0], block=True)
        first = future.result()
        ready["first_response_at"] = monotonic_of(future.resolved_at)
        # The reference comes from a separate load of the same file, timed
        # after the first response so it stays out of set-up time.
        reference = DeployableArtifact.load(str(path)).compiled
        references = [reference.forward_raw(frame[None]) for frame in frames]
        ready["first_ok"] = output_matches(first, references[0])
        ready["dense_ok"] = fused_matches_dense(reference, frames[0], references[0])
    emit("ready", **ready)

    collector = None
    for line in sys.stdin:
        command = line.split()
        if not command:
            continue
        if command[0] == "trace":
            from repro.obs import set_tracing

            collector = SpanCollector()
            collector.start()
            set_tracing(True)
            target.armed = True
            emit("tracing")
        elif command[0] == "replay":
            phase = replay(lambda image: served.submit(image, block=True),
                           frames, references, float(command[1]))
            emit("phase", phase=dataclasses.asdict(phase))
        elif command[0] == "stop":
            break

    if collector is not None:
        from repro.obs import set_tracing

        set_tracing(False)
        collector.stop()
    final = {
        "rss_kb": [peak_rss_kb(pid) for pid in [os.getpid(), *worker_pids(served)]],
        "target_report": served.report(),
        "gateway_report": gateway.metrics.report() if gateway else None,
        "traces": collector.traces if collector else [],
        "submit_seconds": getattr(target, "submit_seconds", []),
        "round_trips": getattr(target, "round_trips", []),
    }
    if gateway is not None:
        gateway.shutdown()
    served.shutdown()
    emit("final", **final)
    return 0


if __name__ == "__main__":
    sys.exit(main())
