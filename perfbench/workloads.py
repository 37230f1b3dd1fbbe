"""The benchmark's workloads: what is served, on which path, with which inputs.

The RunSpec seed stays fixed, so every run serves the same pruned artifact;
the workload seed only drives the generated inputs — which synthetic KITTI
scenes are rendered and, for the camera stream, each camera's clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

#: The RunSpec seed: fixed, so pruning and the artifact never depend on --seed.
SPEC_SEED = 0
#: Camera stream of ``stream-tiny``: eight cameras at 30 frames per second.
CAMERAS = 8
CAMERA_FPS = 30.0
#: Largest relative error of a camera's frame clock.
CLOCK_DRIFT = 0.005
#: Distinct frames each camera of ``stream-tiny`` cycles through.
FRAMES_PER_CAMERA = 8
#: The latency limit a frame must meet: one frame period at 30 fps.
LATENCY_LIMIT_MS = 1000.0 / CAMERA_FPS


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one served model."""

    name: str
    model: str
    image_size: int
    #: ``service`` (gateway → InferenceService), ``router`` (gateway → Router
    #: → one WorkerProcess) or ``replay`` (in-process InferenceService).
    path: str
    #: ``closed``, ``open`` or ``replay``.
    loop: str
    frames: int

    @property
    def uses_gateway(self) -> bool:
        return self.path != "replay"

    @property
    def uses_cluster(self) -> bool:
        return self.path == "router"

    def run_spec(self):
        """The R-TOSS-3EP RunSpec: default fused fp32 engine, serve defaults."""
        from repro.pipeline import RunSpec

        return RunSpec.from_dict({
            "name": f"perfbench-{self.name}",
            "seed": SPEC_SEED,
            "model": {"name": self.model,
                      "kwargs": {"image_size": self.image_size}},
            "framework": {"name": "rtoss-3ep", "trace_size": self.image_size},
            "engine": {"image_size": self.image_size},
            # The analytic evaluation stage is not on the serving path.
            "evaluation": {"enabled": False},
        })

    def frames_for_seed(self, seed: int) -> List[np.ndarray]:
        """The workload's distinct ``(3, H, W)`` input frames for ``seed``."""
        from repro.data.synthetic_kitti import SyntheticKitti, SyntheticKittiConfig

        scenes = SyntheticKitti(self.frames, SyntheticKittiConfig(
            image_size=self.image_size, seed=seed))
        return [np.ascontiguousarray(scene.image, dtype=np.float32)
                for scene in scenes]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("loop-yolov5s", "yolov5s", 128, "service", "closed", 32),
        Workload("stream-tiny", "tiny", 64, "router", "open",
                 CAMERAS * FRAMES_PER_CAMERA),
        Workload("bulk-tiny", "tiny", 64, "replay", "replay", 64),
    )
}


def camera_clocks(seed: int) -> List[tuple]:
    """Each camera's seeded ``(phase, period)`` in seconds.

    Camera clocks are not synchronised: each runs within
    :data:`CLOCK_DRIFT` of the nominal rate, so the cameras' relative
    alignment, which decides how requests overlap into batches, drifts through
    many states during one run instead of staying at the one the seed drew.
    """
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 1.0 / CAMERA_FPS, CAMERAS)
    drifts = rng.uniform(-CLOCK_DRIFT, CLOCK_DRIFT, CAMERAS)
    return [(float(phase), float((1.0 + drift) / CAMERA_FPS))
            for phase, drift in zip(phases, drifts)]


def camera_frame(camera: int, n: int) -> int:
    """Index of camera ``camera``'s ``n``-th frame among the workload frames."""
    return camera * FRAMES_PER_CAMERA + n % FRAMES_PER_CAMERA
