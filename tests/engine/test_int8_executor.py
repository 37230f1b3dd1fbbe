"""INT8 fused hot path: the float fused executor is the oracle.

The int8 lowering (:mod:`repro.engine.quant`) replaces float GEMMs with
integer GEMMs over quantization codes, so its outputs are *not* float-equal to
the fused path — but every deviation is bounded by the quantization scales.
These tests pin that contract from four directions:

* per-layer equivalence within an analytically derived scale bound (every
  BN x activation epilogue combination),
* end-to-end error budget on the pruned TinyDetector (the number documented
  in docs/engine.md and gated in benchmarks/baselines.json),
* structure preservation: pruned im2col columns stay skipped in the packed
  integer layout and exactly-zero weights quantize to exactly-zero codes,
* determinism: batch bucketing (padded replica rows), the fp32-accumulate vs
  int32 fallback kernels (bit-identical by construction), artifact
  save -> load -> re-fuse round trips, and concurrent lazy calibration.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro.engine.quant as quant
from repro.core.rtoss import prune_with_rtoss
from repro.engine import (
    QuantFusedConv,
    QuantLoweringError,
    calibrate_activation_scales,
    compile_model,
    lower_int8,
    native_available,
)
from repro.models.tiny import TinyDetector, TinyDetectorConfig
from repro.nn.layers.activation import build_activation
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.norm import BatchNorm2d
from repro.nn.module import Sequential
from repro.nn.tensor import Tensor

#: End-to-end output budget vs the fp32 fused oracle (see docs/engine.md).
E2E_MEAN_BUDGET = 0.02
E2E_MAX_BUDGET = 0.2


def _pruned_tiny(entries: int = 2, image_size: int = 64, base_channels: int = 16):
    model = TinyDetector(TinyDetectorConfig(
        num_classes=3, image_size=image_size, base_channels=base_channels))
    report = prune_with_rtoss(
        model, entries=entries,
        example_input=Tensor(np.zeros((1, 3, image_size, image_size),
                                      dtype=np.float32)),
    )
    return model, report


def _int8_tiny(x: np.ndarray, entries: int = 2):
    """Pruned TinyDetector compiled with the int8 path armed + calibrated."""
    model, report = _pruned_tiny(entries=entries, image_size=x.shape[-1])
    compiled = compile_model(model, report.masks, apply_masks=False, int8=True)
    compiled.calibrate_int8(x)
    return compiled


def _quant_ops(compiled):
    return [op for op in compiled._int8_program.steps
            if isinstance(op, QuantFusedConv)]


@pytest.fixture(autouse=True)
def _unforced_kernel():
    """Never leak a forced GEMM kernel (or its timing cache) across tests."""
    yield
    quant.FORCE_GEMM_KERNEL = None
    quant.reset_kernel_cache()


# ---------------------------------------------------------------- per-layer
def _layer_error_bound(op: QuantFusedConv) -> np.ndarray:
    """Per-channel worst-case |int8 - float| bound for one lowered conv.

    With x = x_code * s_x + e_x (|e_x| <= s_x / 2) and
    w = w_code * s_w + e_w (|e_w| <= s_w / 2), the GEMM error per output is

        sum_k |w| * s_x/2  +  sum_k |x| * s_w/2  +  K * s_x * s_w / 4

    where |x| <= 127 * s_x as long as calibration saw the test batch (no
    clipping).  The fused epilogues are 1-Lipschitz except SiLU (~1.1).
    """
    weight = np.abs(op.weight.astype(np.float64))
    k = weight.shape[1]
    s_x = float(op.in_scale)
    s_w = op.weight_scales.astype(np.float64)
    bound = (weight.sum(axis=1) * s_x / 2.0
             + s_w * k * (127.0 * s_x) / 2.0
             + k * s_w * s_x / 4.0)
    lipschitz = 1.1 if op.act == "silu" else 1.0
    return bound * lipschitz * 1.05         # small slack for fp rounding


@pytest.mark.parametrize("with_bn", [True, False])
@pytest.mark.parametrize("act", ["relu", "leaky_relu", "silu", None])
def test_per_layer_equivalence_bn_act_matrix(with_bn, act, rng):
    """Every BN x fusable-activation combo lowers, and the int8 output stays
    inside the analytic scale-derived bound of the float fused oracle."""
    conv = Conv2d(8, 16, kernel_size=3, rng=np.random.default_rng(3))
    conv.weight.data[:, 2, 1, 1] = 0.0      # a genuinely pruned tap
    layers = [conv]
    if with_bn:
        bn = BatchNorm2d(16)
        bn.running_mean[...] = rng.standard_normal(16).astype(np.float32)
        bn.running_var[...] = (0.5 + rng.random(16)).astype(np.float32)
        bn.weight.data[...] = (0.5 + rng.random(16)).astype(np.float32)
        bn.bias.data[...] = rng.standard_normal(16).astype(np.float32)
        layers.append(bn)
    if act is not None:
        layers.append(build_activation(act))
    model = Sequential(*layers)
    model.eval()

    x = rng.standard_normal((2, 8, 12, 14)).astype(np.float32)
    compiled = compile_model(model, int8=True)
    compiled.calibrate_int8(x)
    quantized = compiled.forward_raw(x)
    assert compiled.int8_active, compiled.int8_failure

    ops = _quant_ops(compiled)
    assert len(ops) == 1
    op = ops[0]
    suffix = "+bn" if with_bn else ""
    suffix += f"+{act}" if act else ""
    assert op.mode.endswith(f"{suffix}+int8"), op.mode

    compiled.int8 = False
    reference = compiled.forward_raw(x)
    bound = _layer_error_bound(op).reshape(1, -1, 1, 1)
    assert np.all(np.abs(quantized - reference) <= bound), (
        f"int8 error {np.abs(quantized - reference).max():.5f} above the "
        f"scale bound for mode {op.mode}")


# ------------------------------------------------------------------- end-to-end
def test_e2e_error_budget_on_pruned_tiny(rng):
    """Full pruned detector: int8 output within the documented budget of the
    float fused path, and every conv actually runs on the integer path."""
    x = rng.standard_normal((4, 3, 64, 64)).astype(np.float32)
    compiled = _int8_tiny(x)
    quantized = compiled.forward_raw(x)
    assert compiled.engine_mode == "int8", compiled.int8_failure
    modes = compiled.summary()
    int8_modes = [row["mode"] for row in modes if row["mode"].endswith("+int8")]
    assert len(int8_modes) == compiled.num_compiled_layers

    compiled.int8 = False
    reference = compiled.forward_raw(x)
    scale = max(np.abs(reference).max(), 1.0)
    err = np.abs(quantized - reference)
    assert err.mean() <= E2E_MEAN_BUDGET * scale
    assert err.max() <= E2E_MAX_BUDGET * scale


def test_sparsity_preserved_in_packed_layout(rng):
    """Pruned im2col columns never enter the integer GEMM, and exactly-zero
    float weights quantize to exactly-zero int8 codes (the pruning pattern
    survives quantization bit-for-bit)."""
    x = rng.standard_normal((2, 3, 64, 64)).astype(np.float32)
    compiled = _int8_tiny(x)
    compiled.forward_raw(x)
    ops = _quant_ops(compiled)
    assert ops
    assert compiled.kept_columns() < compiled.total_columns(), (
        "test seed must drop at least one im2col column")
    dropped = 0
    for op in ops:
        plan = op.plan
        # The integer K dimension is the *kept* column count: pruned
        # columns are skipped outright, not multiplied by zero codes.
        assert op.k == plan.kept_columns.size
        dropped += plan.total_columns - plan.kept_columns.size

        # wt_i8 is (Kp, Op): recover the (O, K) codes and check both the
        # zero-code invariant and the padding lanes.
        codes = op.wt_i8.T.astype(np.int32)
        out_channels = plan.out_channels
        assert not codes[out_channels:].any(), "padded rows must be zero"
        assert not codes[:, op.k:].any(), "padded K lanes must be zero"
        folded = op.weight                 # float matrix, kept columns
        if op.perm is not None:
            folded = folded[:, op.perm]
        zero_mask = folded == 0.0
        assert not codes[:out_channels, :op.k][zero_mask].any(), (
            f"{op.layer_name}: a pruned (zero) weight got a nonzero code")
    assert dropped > 0


def test_batch_bucketing_bit_identical(rng):
    """Odd batches run through the power-of-two bucketing with replica-padded
    rows, and batch composition never changes a single output bit."""
    x = rng.standard_normal((5, 3, 64, 64)).astype(np.float32)
    compiled = _int8_tiny(x)
    singles = np.concatenate(
        [compiled.forward_raw(x[i:i + 1]) for i in range(5)], axis=0)
    assert compiled._int8_program.bucket_safe
    for n in (1, 3, 5):                   # 3 and 5 pad to 4 and 8
        batched = compiled.forward_raw(x[:n])
        assert batched.shape[0] == n
        np.testing.assert_array_equal(batched, singles[:n])


# ------------------------------------------------------------------- kernels
def test_fp32acc_and_int32_kernels_bit_identical(rng):
    """The two numpy fallback GEMM kernels are bit-identical (both compute the
    exact integer accumulator below 2**24), so per-plan micro-calibration
    between them can never change results — only speed."""
    x = rng.standard_normal((3, 3, 64, 64)).astype(np.float32)
    outputs = {}
    for kernel in ("fp32acc", "int32"):
        quant.FORCE_GEMM_KERNEL = kernel
        quant.reset_kernel_cache()
        compiled = _int8_tiny(x)
        outputs[kernel] = compiled.forward_raw(x)
        assert compiled.engine_mode == "int8"
    np.testing.assert_array_equal(outputs["fp32acc"], outputs["int32"])


@pytest.mark.skipif(not native_available(),
                    reason="AVX-512 VNNI kernel unavailable on this host")
def test_native_kernel_matches_numpy_within_budget(rng):
    """The native VNNI kernel (polynomial SiLU, in-register epilogue) tracks
    the exact numpy kernels within a tight tolerance, and stays inside the
    same e2e budget vs the float oracle."""
    x = rng.standard_normal((4, 3, 64, 64)).astype(np.float32)

    quant.FORCE_GEMM_KERNEL = "int32"
    quant.reset_kernel_cache()
    compiled = _int8_tiny(x)
    exact = compiled.forward_raw(x)

    quant.FORCE_GEMM_KERNEL = "vnni"
    compiled = _int8_tiny(x)
    native = compiled.forward_raw(x)
    assert all(op.gemm_kernel == "vnni" for op in _quant_ops(compiled))
    compiled.int8 = False
    reference = compiled.forward_raw(x)

    # vnni vs numpy differ only through the polynomial exp in SiLU (~1e-7
    # relative) plus at most one requant code flip propagating downstream.
    scale = max(np.abs(reference).max(), 1.0)
    assert np.abs(native - exact).max() <= 0.02 * scale
    err = np.abs(native - reference)
    assert err.mean() <= E2E_MEAN_BUDGET * scale
    assert err.max() <= E2E_MAX_BUDGET * scale


def test_overflow_guard_forces_int32(rng):
    """A K large enough that fp32 accumulation could round forces the exact
    int32 kernel at construction time — never timed, never calibrated."""
    conv = Conv2d(8, 16, kernel_size=3, rng=np.random.default_rng(0))
    model = Sequential(conv)
    model.eval()
    x = rng.standard_normal((1, 8, 10, 10)).astype(np.float32)
    compiled = compile_model(model, int8=True)
    compiled.calibrate_int8(x)
    compiled.forward_raw(x)
    op = _quant_ops(compiled)[0]
    # K = 72 here: comfortably exact, no forcing.
    assert op.kernel_forced is None
    assert op.k * 127 * 255 < 2 ** 24
    # The forcing threshold itself.
    forced_k = int(np.ceil(2 ** 24 / (127 * 255)))
    assert (quant._ceil_to(forced_k, 1) * 127 * 255) >= 2 ** 24


# ------------------------------------------------------------------ lowering
def test_lower_int8_rejects_16_bit_codes(rng):
    """bits=16 has no int8 hot path; lowering refuses instead of mis-executing."""
    model, report = _pruned_tiny()
    compiled = compile_model(model, report.masks, apply_masks=False)
    x = rng.standard_normal((1, 3, 64, 64)).astype(np.float32)
    compiled.forward_raw(x)
    program = compiled._fused_program
    stats = calibrate_activation_scales(program, [x])
    with pytest.raises(QuantLoweringError):
        lower_int8(program, 16, stats)
    # And through the compiler: the float path keeps serving.
    compiled.int8 = True
    compiled._quantization = {"bits": 16, "activation_scales": stats}
    out = compiled.forward_raw(x)
    assert compiled.engine_mode == "fused"
    assert compiled.int8_failure is not None
    assert np.isfinite(out).all()


def test_code_edges_only_between_lowered_convs(rng):
    """NHWC uint8 code edges only form when every consumer is a lowered conv
    and the producer's channel count tiles by 16; model outputs stay float."""
    x = rng.standard_normal((2, 3, 64, 64)).astype(np.float32)
    compiled = _int8_tiny(x)
    compiled.forward_raw(x)
    ops = _quant_ops(compiled)
    output_slots = set(compiled._int8_program.graph.output_slots())
    assert any(op.out_scale is not None for op in ops), (
        "expected at least one uint8 code edge in the tiny detector")
    for op in ops:
        if op.out_scale is not None:
            assert op.out_slot not in output_slots
            assert op.plan.out_channels % 16 == 0


# ------------------------------------------------------------- concurrency
def test_concurrent_lazy_calibration_thread_safe(rng):
    """Many threads hitting an armed-but-uncalibrated int8 engine at once:
    exactly one lowering happens, nobody crashes, and every thread's outputs
    are the same bits the settled engine produces."""
    model, report = _pruned_tiny()
    # No calibrate_int8 call: the first forwards calibrate lazily.
    compiled = compile_model(model, report.masks, apply_masks=False, int8=True)
    x = rng.standard_normal((2, 3, 64, 64)).astype(np.float32)
    barrier = threading.Barrier(4)
    results, errors = {}, []

    def work(tid):
        try:
            barrier.wait()
            for _ in range(3):
                results[tid] = compiled.forward_raw(x)
        except Exception as error:       # pragma: no cover - failure path
            errors.append(error)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert compiled.engine_mode == "int8", compiled.int8_failure
    settled = compiled.forward_raw(x)
    for tid, out in results.items():
        np.testing.assert_array_equal(out, settled)


# ---------------------------------------------------------------- artifact
def test_artifact_save_load_refuses_into_int8(tmp_path, rng):
    """Pipeline artifact round trip: save() records the int8 flag and the
    calibrated scales; load() re-fuses into a bit-identical integer path."""
    from repro.pipeline import DeployableArtifact, Pipeline, RunSpec

    spec = RunSpec.from_dict({
        "name": "int8_roundtrip", "seed": 5,
        "model": {"name": "tiny",
                  "kwargs": {"num_classes": 3, "image_size": 64,
                             "base_channels": 16}},
        "framework": {"name": "rtoss-2ep", "trace_size": 64},
        "quantization": {"enabled": True, "bits": 8},
        "engine": {"enabled": True, "measure": False, "image_size": 64,
                   "batch": 2, "repeats": 1, "int8": True},
        "evaluation": {"enabled": False},
    })
    artifact = Pipeline.from_spec(spec).run()
    assert artifact.compiled.int8
    scales = artifact.quantization_meta.get("activation_scales")
    assert scales, "CompileStage must persist the calibrated scales"

    x = rng.standard_normal((3, 3, 64, 64)).astype(np.float32)
    original = artifact.compiled.forward_raw(x)
    assert artifact.compiled.engine_mode == "int8"
    assert artifact.summary()["int8"] is True

    path = artifact.save(str(tmp_path / "int8.npz"))
    loaded = DeployableArtifact.load(path)
    assert loaded.compiled.int8
    assert loaded.compiled.quantization.get("activation_scales") == scales
    reloaded = loaded.compiled.forward_raw(x)
    assert loaded.compiled.engine_mode == "int8", loaded.compiled.int8_failure
    np.testing.assert_array_equal(reloaded, original)
