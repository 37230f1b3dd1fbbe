"""Quickstart: the unified deployment pipeline on YOLOv5s.

Run with:  python examples/quickstart.py

This is the 2-minute tour of the library's canonical API (`repro.pipeline`):
  1. describe the whole run declaratively with a RunSpec — which model, which
     pruning framework, whether to quantize, how to compile and evaluate,
  2. execute it: prune (Algorithms 1-3) → quantize → compile with the
     pattern-aware execution engine → evaluate (modeled Jetson TX2 latency and
     energy plus a measured host-CPU speedup),
  3. save the result as a single deployable artifact file and load it back —
     the reloaded model is recompiled and produces identical outputs.

The same spec, saved as JSON, runs from the command line:
    python -m repro.cli run --spec examples/specs/tiny_rtoss3ep.json
"""

import numpy as np

from repro.engine import max_abs_output_diff
from repro.pipeline import DeployableArtifact, Pipeline, RunSpec


def main() -> None:
    # 1. One declarative spec for the whole deployment flow.  Everything is a
    #    plain value (the graph-tracing input is a *shape*, never a tensor), so
    #    the spec round-trips to JSON: RunSpec.from_json(spec.to_json()).
    spec = RunSpec.from_dict({
        "name": "yolo_rtoss2ep",
        "seed": 0,
        "model": {"name": "yolov5s", "kwargs": {"num_classes": 3}},
        "framework": {"name": "rtoss-2ep", "trace_size": 64},
        "quantization": {"enabled": True, "bits": 8},
        "engine": {"enabled": True, "measure": True,
                   "image_size": 96, "batch": 2, "repeats": 3},
        "evaluation": {"enabled": True, "image_size": 640, "probe_size": 64},
    })

    # 2. Execute: prune → quantize → compile → evaluate.
    artifact = Pipeline.from_spec(spec).run()

    report = artifact.report
    print()
    print(report.to_table())
    print()
    print(f"compression ratio: {report.compression_ratio:.2f}x "
          f"(paper reports 4.4x for R-TOSS-2EP on YOLOv5s)")
    print(f"overall sparsity:  {report.overall_sparsity:.1%}")
    print(f"quantized to {artifact.quantization_meta['bits']} bit, "
          f"storage {artifact.quantization_meta['compression_ratio']:.1f}x smaller")

    metrics = artifact.metrics
    print(f"Jetson TX2 (modeled): {metrics['latency_ms[Jetson TX2]']:.0f} ms, "
          f"{metrics['speedup[Jetson TX2]']:.2f}x speedup, "
          f"energy -{metrics['energy_reduction_%[Jetson TX2]']:.0f}%")
    measurement = artifact.measurement
    print(f"host CPU (measured):  dense {measurement['dense_ms']:.0f} ms -> "
          f"compiled {measurement['compiled_ms']:.0f} ms "
          f"({measurement['measured_speedup']:.2f}x, outputs match to "
          f"{measurement['max_abs_diff']:.1e})")
    print(f"stage timings (s): {artifact.timings}")

    # 3. One portable file: pruned weights + masks + metadata + engine.
    path = artifact.save("yolo_rtoss2ep.npz")
    restored = DeployableArtifact.load(path)
    batch = np.random.default_rng(0).standard_normal((1, 3, 64, 64)).astype(np.float32)
    diff = max_abs_output_diff(restored.forward_raw(batch), artifact.forward_raw(batch))
    print(f"artifact saved to {path}; reloaded outputs match to {diff:.1e}")

    # 4. Serve it: concurrent requests coalesced into micro-batches
    #    (see docs/serving.md; `repro serve` does this from the CLI).
    from repro.serving import BatchPolicy, InferenceService, closed_loop

    images = np.random.default_rng(1).standard_normal((32, 3, 64, 64)).astype(np.float32)
    with InferenceService(restored,
                          policy=BatchPolicy(max_batch_size=8, max_wait_ms=2.0)) as service:
        load = closed_loop(service, images, requests=32, concurrency=4)
        batches = service.report()["batches"]
    latency = load.latency.summary()
    print(f"served 32 requests: {load.throughput_rps:.0f} req/s, "
          f"p50 {latency['p50_ms']:.1f} ms / p99 {latency['p99_ms']:.1f} ms, "
          f"mean micro-batch {batches['mean_size']:.1f}")

    # 5. Shard it across worker processes: same submit surface, every core
    #    busy, dead workers restarted with their in-flight requests
    #    re-dispatched (see docs/cluster.md; `repro serve --workers N` does
    #    this from the CLI).
    from repro.serving.cluster import Router

    with Router(path, workers=2, routing="least-outstanding",
                policy=BatchPolicy(max_batch_size=8, max_wait_ms=2.0)) as router:
        load = closed_loop(router, images, requests=16, concurrency=4)
        cluster = router.report()["cluster"]
    print(f"cluster ({cluster['worker_count']} workers): "
          f"{load.throughput_rps:.0f} req/s, "
          f"restarts {cluster['restarts']}, "
          f"p99 {cluster['latency']['p99_ms']:.1f} ms")

    # 6. Watch it: arm tracing, replay a short load, and read what the obs
    #    plane collected — per-request span timelines (queue-wait → execute →
    #    postprocess, with per-op engine timings attached) plus the unified
    #    metrics registry (see docs/observability.md; `repro serve --obs DIR`
    #    exports the same data to files and `repro top` renders it live).
    from repro.obs import get_registry, get_trace_buffer, set_tracing

    set_tracing(True)
    with InferenceService(restored,
                          policy=BatchPolicy(max_batch_size=8, max_wait_ms=2.0)) as service:
        closed_loop(service, images, requests=16, concurrency=4)
    set_tracing(False)
    trace = get_trace_buffer().traces()[-1]
    execute = next(span for span in trace.spans if span.name == "worker-execute")
    top_op, top_ms = next(iter(execute.args["ops_ms"].items()))
    print(f"traced {len(get_trace_buffer())} requests; trace {trace.trace_id}: "
          + " → ".join(f"{span.name} {span.duration * 1e3:.2f} ms"
                       for span in trace.spans)
          + f"; hottest engine op {top_op} ({top_ms:.2f} ms)")
    prometheus = get_registry().to_prometheus()
    print(f"metrics registry: {len(prometheus.splitlines())} Prometheus lines "
          f"(`repro metrics` / `repro serve --obs` export these)")


if __name__ == "__main__":
    main()
