"""Every registry model runs fused, and the fused program equals the dense model.

The compiled engine has one executor: the traced, fused program.  This sweep
R-TOSS-prunes each model in :func:`repro.models.available_models` at 64x64 and
checks that its first forward fuses (``engine_mode == "fused"``) and that the
fused outputs match the model's own eval-mode no-grad forward at batch 1 and at
an odd batch, which the fused program pads up to its power-of-two bucket.

The bound scales with each output's magnitude: BatchNorm folding reorders the
float math, so a head with values near 50 (RetinaNet) differs by ~3e-5 in
absolute terms while staying ~1e-6 relative.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.rtoss import prune_with_rtoss
from repro.engine import compile_model
from repro.engine.runner import _to_numpy
from repro.models import available_models, build_model
from repro.nn.tensor import Tensor, no_grad

IMAGE_SIZE = 64
REL_TOL = 1e-5


def _leaves(output):
    if isinstance(output, dict):
        return [leaf for key in sorted(output) for leaf in _leaves(output[key])]
    if isinstance(output, (list, tuple)):
        return [leaf for item in output for leaf in _leaves(item)]
    return [np.asarray(output)]


@pytest.mark.parametrize("name", available_models())
def test_registry_model_fuses_and_matches_dense(name):
    model = build_model(name, image_size=IMAGE_SIZE)
    example = np.zeros((1, 3, IMAGE_SIZE, IMAGE_SIZE), dtype=np.float32)
    report = prune_with_rtoss(model, entries=3, example_input=Tensor(example),
                              model_name=name)
    compiled = compile_model(model, report.masks, apply_masks=False)
    rng = np.random.default_rng(0)
    for batch in (1, 3):
        x = rng.standard_normal((batch, 3, IMAGE_SIZE, IMAGE_SIZE)).astype(np.float32)
        fused = _leaves(compiled.forward_raw(x))
        assert compiled.engine_mode == "fused", compiled.fuse_failure
        with no_grad():
            dense = _leaves(_to_numpy(model(Tensor(x))))
        assert len(fused) == len(dense)
        for got, want in zip(fused, dense):
            assert got.shape == want.shape
            bound = REL_TOL * max(1.0, float(np.max(np.abs(want))))
            diff = float(np.max(np.abs(got - want)))
            assert diff <= bound, f"{name} batch {batch}: {diff:.2e} > {bound:.2e}"
