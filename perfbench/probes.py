"""Single-layer measurements made in the benchmark process.

Each probe times calls into one layer's public functions on the artifact the
server built: the fused engine (``CompiledModel``), the wire codec
(``encode_frame``/``decode_frame``) and the host itself.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

#: Batch sizes the engine probe times (the batcher's power-of-two buckets).
BATCH_SIZES = (1, 2, 4, 8)


def timed_calls(fn: Callable[[], object], seconds: float,
                min_calls: int = 5) -> List[float]:
    """Seconds per call of ``fn``, calling it for about ``seconds``."""
    samples = []
    deadline = time.perf_counter() + seconds
    while len(samples) < min_calls or time.perf_counter() < deadline:
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return samples


def pad_ratio(size_histogram: Dict[str, int]) -> float:
    """Real rows over executed rows when batches pad to a power of two."""
    real = executed = 0
    for size, count in size_histogram.items():
        rows = int(size)
        real += rows * count
        executed += (1 << max(0, rows - 1).bit_length()) * count
    return real / executed if executed else 0.0


def conv_rows(artifact, image_size: int) -> List[Dict[str, object]]:
    """Per-conv plan MACs and the modeled Jetson TX2 time at ``image_size``."""
    from repro.hardware import (
        SparsityProfile,
        estimate_latency,
        get_platform,
        profile_model,
    )
    from repro.models import build_model

    spec = artifact.spec
    dense = build_model(spec.model.name, **spec.model.kwargs)
    profile = profile_model(dense, image_size, probe_size=image_size)
    costs = profile.by_name()
    modeled = estimate_latency(profile, get_platform("jetson_tx2"),
                               SparsityProfile.from_report(artifact.report))
    modeled_ms = {layer.name: layer.total_seconds * 1e3 for layer in modeled.layers}
    rows = []
    for name, plan in artifact.compiled.plans.items():
        kept = int(plan.kept_columns.size)
        rows.append({
            "layer": name,
            "kernel": "x".join(str(k) for k in plan.kernel_size),
            "kept_columns": f"{kept}/{plan.total_columns}",
            "macs": costs[name].macs * kept / plan.total_columns,
            "tx2_ms": modeled_ms[name],
        })
    return rows


def engine_probe(artifact, frames: List[np.ndarray], seconds: float) -> Tuple[dict, list]:
    """Batch-size timings, per-kernel splits and dense ratio of the fused engine.

    Returns the engine metrics and the per-conv paper-vs-host rows.
    """
    from repro.engine import BatchRunner

    compiled = artifact.compiled
    image_size = frames[0].shape[-1]
    batches = {b: np.stack([frames[i % len(frames)] for i in range(b)])
               for b in BATCH_SIZES}
    for batch in batches.values():         # build every bucket's buffers
        compiled.forward_raw(batch)
    misses_before = compiled.arena_stats()["misses"]
    share = seconds / (len(BATCH_SIZES) + 2)
    metrics = {}
    for b, batch in batches.items():
        per_call = statistics.median(
            timed_calls(lambda batch=batch: compiled.forward_raw(batch), share))
        metrics[f"engine.forward_ms.b{b}"] = per_call * 1e3 / b
    metrics["engine.arena_misses"] = compiled.arena_stats()["misses"] - misses_before

    one = batches[1]
    compiled.enable_profiling()
    try:
        timed_calls(lambda: compiled.forward_raw(one), share)
        report = compiled.profile(digits=6)
    finally:
        compiled.disable_profiling()
    runs = report["runs"]
    ops = {op["op"]: op for op in report["ops"]}
    rows = conv_rows(artifact, image_size)
    splits = {"conv1x1": 0.0, "conv3x3": 0.0, "gather": 0.0, "gemm": 0.0,
              "epilogue": 0.0, "other": 0.0}
    for op in report["ops"]:
        if op["kind"] != "conv":
            splits["other"] += op["total_ms"]
            continue
        for phase, ms in op.get("phases_ms", {}).items():
            splits[phase] = splits.get(phase, 0.0) + ms
    for row in rows:
        op = ops.get(row["layer"])
        row["host_ms"] = op["mean_ms"] if op else float("nan")
        row["gflops"] = 2 * row["macs"] / (row["host_ms"] * 1e6)
        kind = "conv1x1" if row["kernel"] == "1x1" else "conv3x3"
        splits[kind] += op["total_ms"] if op else 0.0
    for name in ("conv1x1", "conv3x3", "gather", "gemm", "epilogue", "other"):
        metrics[f"engine.{name}_ms"] = splits[name] / runs
    total_macs = sum(row["macs"] for row in rows)
    metrics["engine.gflops"] = 2 * total_macs / (metrics["engine.forward_ms.b1"] * 1e6)

    compiled.detach()
    try:
        dense = BatchRunner(compiled.model, batch_size=1)
        dense_s = statistics.median(timed_calls(lambda: dense.run(one), share))
    finally:
        compiled.attach()
    metrics["engine.dense_ratio"] = dense_s * 1e3 / metrics["engine.forward_ms.b1"]
    return metrics, rows


def codec_probe(frame: np.ndarray, output, seconds: float) -> Dict[str, float]:
    """Cost of one request's frames on the wire, in and out."""
    from repro.serving.cluster.channel import decode_frame, encode_frame, flatten_arrays

    treedef, arrays = flatten_arrays(output)

    def encode():
        return (encode_frame("infer", {"id": 0, "priority": "normal"}, [frame]),
                encode_frame("result", {"id": 0, "treedef": treedef}, arrays))

    request, response = encode()

    def decode():
        decode_frame(request)
        decode_frame(response)

    return {
        "cluster.encode_us": statistics.median(timed_calls(encode, seconds / 2)) * 1e6,
        "cluster.decode_us": statistics.median(timed_calls(decode, seconds / 2)) * 1e6,
        "cluster.bytes_per_request": float(frame.nbytes + sum(a.nbytes for a in arrays)),
    }


def _openblas_threads():
    """Thread count of the OpenBLAS numpy loaded, or ``None`` if not found."""
    import ctypes

    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps
                 if "openblas" in line and ".so" in line}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def cpu_times() -> List[int]:
    """The host's aggregate CPU time counters from ``/proc/stat``."""
    with open("/proc/stat") as stat:
        return [int(field) for field in stat.readline().split()[1:]]


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of CPU time the hypervisor took between two :func:`cpu_times`."""
    deltas = [b - a for a, b in zip(before, after)]
    return deltas[7] / sum(deltas) if sum(deltas) else 0.0


def host_fingerprint() -> dict:
    """What the numbers depend on besides the code: CPU, BLAS, threads, load."""
    cpu_model, flags = "unknown", set()
    with open("/proc/cpuinfo") as cpuinfo:
        for line in cpuinfo:
            key, _, value = line.partition(":")
            if key.strip() == "model name" and cpu_model == "unknown":
                cpu_model = value.strip()
            elif key.strip() == "flags" and not flags:
                flags = set(value.split())
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "avx512_vnni": "avx512_vnni" in flags,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "loadavg_before": list(os.getloadavg()),
    }
