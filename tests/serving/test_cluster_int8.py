"""Multi-process serving of an int8 artifact.

Cluster workers load the artifact from disk in their own process, so the int8
flag and the calibrated activation scales must survive the save -> load -> re-
fuse round trip *per worker* — and every worker must then serve through the
same integer path the single-process service uses.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.pipeline import Pipeline, RunSpec
from repro.serving import BatchPolicy, InferenceService
from repro.serving.cluster import Router

INT8_SERVE_SPEC = {
    "name": "tiny_int8_serve_test",
    "seed": 0,
    "model": {"name": "tiny",
              "kwargs": {"num_classes": 3, "image_size": 64, "base_channels": 16}},
    "framework": {"name": "rtoss-2ep", "trace_size": 64},
    "quantization": {"enabled": True, "bits": 8},
    "engine": {"enabled": True, "measure": False, "image_size": 64, "batch": 2,
               "repeats": 1, "int8": True},
    "evaluation": {"enabled": False},
    "serve": {"enabled": True, "max_batch_size": 4, "max_wait_ms": 5.0,
              "queue_capacity": 64, "requests": 12, "concurrency": 4},
}


@pytest.fixture(scope="module")
def int8_artifact_path(tmp_path_factory) -> str:
    artifact = Pipeline.from_spec(RunSpec.from_dict(INT8_SERVE_SPEC)).run()
    assert artifact.compiled.int8
    path = tmp_path_factory.mktemp("serving_int8") / "tiny_int8.npz"
    saved = artifact.save(str(path))
    return saved


@pytest.fixture
def images() -> np.ndarray:
    rng = np.random.default_rng(21)
    return rng.standard_normal((12, 3, 64, 64)).astype(np.float32)


def test_cluster_serves_int8_and_matches_single_process(int8_artifact_path, images):
    """2-worker Router over the int8 artifact == single-process int8 service,
    bit for bit (both are artifact loads of the same calibrated scales), and
    both report the int8 engine mode."""
    policy = BatchPolicy(max_batch_size=4, max_wait_ms=5.0, queue_capacity=64)

    with InferenceService(int8_artifact_path, policy=policy) as service:
        single = service.submit_many(images)
        service_report = service.report()
    assert set(service_report["engine_modes"].values()) == {"int8"}

    with Router(int8_artifact_path, workers=2, policy=policy) as router:
        served = router.submit_many(images, timeout=120.0)
        report = router.report()

    # Same artifact, same deterministic integer kernels in every process: the
    # cluster result is bit-identical to the single-process service.
    np.testing.assert_array_equal(served, single)

    # Both workers actually carried load, and each one's child service reports
    # the int8 engine mode through the stats channel.
    completed = {w: s["completed"] for w, s in report["workers"].items()}
    assert sum(completed.values()) == images.shape[0]
    assert all(count > 0 for count in completed.values())
    worker_services = report["worker_services"]
    assert set(worker_services) == set(report["workers"])
    for worker_id, child_report in worker_services.items():
        modes = child_report.get("engine_modes", {})
        assert set(modes.values()) == {"int8"}, (worker_id, modes)
