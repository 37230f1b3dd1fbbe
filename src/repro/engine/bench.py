"""Measured (wall-clock) latency of the compiled engine vs the dense path.

Everything in :mod:`repro.hardware` is an analytical *model* of latency on the
paper's platforms; this module is the complement — it actually runs the pruned
network on the host CPU and times it.  :func:`measure_speedup` produces an
:class:`EngineMeasurement` with three numbers:

* ``dense_seconds`` — the repo's status-quo inference path (taped autograd
  im2col convolution), i.e. what every caller paid before the engine existed,
* ``dense_nograd_seconds`` — the same dense kernels under ``no_grad``; comparing
  against this isolates the execution-strategy win from the tape-overhead win,
* ``compiled_seconds`` — the pattern-aware compiled engine (the fused program;
  the model's own no-grad forward if it cannot be traced).

It also records the max absolute output difference between the dense and the
compiled paths, so every reported speedup is tied to a verified-equivalent
computation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.masks import MaskSet
from repro.engine.compiler import CompiledModel, compile_model
from repro.engine.runner import BatchRunner, _to_numpy
from repro.nn.module import Module
from repro.nn.tensor import Tensor


def time_callable(fn: Callable[[], object], repeats: int = 5, warmup: int = 1) -> float:
    """Median wall-clock seconds of ``fn()`` over ``repeats`` runs."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


@dataclass
class EngineMeasurement:
    """Outcome of one dense-vs-compiled(-vs-int8) wall-clock comparison."""

    model_name: str
    input_shape: Tuple[int, ...]
    repeats: int
    dense_seconds: float
    dense_nograd_seconds: float
    compiled_seconds: float
    max_abs_diff: float
    compiled_layers: int = 0
    fallback_layers: int = 0
    kept_columns: int = 0
    total_columns: int = 0
    #: Wall-clock of the int8 fused executor (0.0 when not measured/lowered).
    quantized_seconds: float = 0.0
    #: Mean |int8 - fp32 compiled| over every output element (the error budget
    #: metric); NaN when the int8 path was not measured.
    quantized_mean_abs_error: float = float("nan")
    #: Max |int8 - fp32 compiled| over every output element.
    quantized_max_abs_error: float = float("nan")
    #: Which integer GEMM kernel executed ("vnni"/"fp32acc"/"int32"; "" when
    #: the int8 path was not measured).  Regression gates only trust the
    #: speedup when the native kernel ran.
    int8_kernel: str = ""
    #: Layers per executed mode string, taken from the compiled summary (the
    #: plan's / fused op's own ``mode``, never a hardcoded label).
    mode_census: Dict[str, int] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        """Compiled speedup over the status-quo (taped) dense path."""
        return self.dense_seconds / self.compiled_seconds if self.compiled_seconds else float("inf")

    @property
    def nograd_speedup(self) -> float:
        """Compiled speedup over the no-grad dense path (execution strategy only)."""
        if not self.compiled_seconds:
            return float("inf")
        return self.dense_nograd_seconds / self.compiled_seconds

    @property
    def quantized_speedup(self) -> float:
        """Int8 hot path over the fp32 compiled path (0.0 if unmeasured)."""
        if not self.quantized_seconds or not self.compiled_seconds:
            return 0.0
        return self.compiled_seconds / self.quantized_seconds

    @property
    def column_sparsity(self) -> float:
        if not self.total_columns:
            return 0.0
        return 1.0 - self.kept_columns / self.total_columns

    def row(self) -> Dict[str, object]:
        """Flat dictionary for the table formatters (the Fig. 6 'measured' row)."""
        row = {
            "model": self.model_name,
            "input": "x".join(str(dim) for dim in self.input_shape),
            "dense_ms": round(self.dense_seconds * 1e3, 2),
            "dense_nograd_ms": round(self.dense_nograd_seconds * 1e3, 2),
            "compiled_ms": round(self.compiled_seconds * 1e3, 2),
            "measured_speedup": round(self.speedup, 2),
            "measured_speedup_nograd": round(self.nograd_speedup, 2),
            "max_abs_diff": float(self.max_abs_diff),
        }
        if self.quantized_seconds:
            row["quantized_ms"] = round(self.quantized_seconds * 1e3, 2)
            row["quantized_speedup"] = round(self.quantized_speedup, 2)
            row["quantized_mean_abs_error"] = float(self.quantized_mean_abs_error)
            row["int8_kernel"] = self.int8_kernel
        return row


def measure_speedup(
    model: Module,
    x: Optional[np.ndarray] = None,
    masks: Optional[MaskSet] = None,
    repeats: int = 5,
    warmup: int = 1,
    batch_size: Optional[int] = None,
    model_name: str = "",
    image_size: int = 96,
    batch: int = 4,
    seed: int = 0,
    compiled: Optional[CompiledModel] = None,
    int8: bool = False,
    quantization: Optional[Dict[str, object]] = None,
) -> EngineMeasurement:
    """Measure dense vs compiled inference latency on the host CPU.

    Parameters
    ----------
    model:
        The (already pruned, or about-to-be-masked via ``masks``) model.
    x:
        NCHW input batch; a deterministic random batch of shape
        ``(batch, 3, image_size, image_size)`` is generated when omitted.
    masks:
        Optional mask set re-applied before compiling (see
        :func:`repro.engine.compiler.compile_model`).
    repeats / warmup:
        Timing protocol; the median of ``repeats`` runs is reported.
    batch_size:
        Runner batch size (defaults to the full input in one batch).
    compiled:
        An existing :class:`CompiledModel` of ``model`` to measure instead of
        compiling a fresh one (saves a full plan build).
    int8:
        Also measure the int8 hot path: ``compiled_seconds`` still times the
        fp32 program, ``quantized_seconds`` times its integer lowering and
        ``quantized_mean_abs_error`` records its output deviation from the
        fp32 program (the error-budget metric).  Activation scales come
        from ``quantization`` (or the engine's stored metadata); when absent,
        the timing batch itself calibrates them.  The engine's ``int8`` flag
        is restored on return.
    quantization:
        Quantization metadata (``bits``, ``activation_scales``) forwarded to
        :func:`compile_model` when this call compiles its own engine.
    """
    if x is None:
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((batch, 3, image_size, image_size)).astype(np.float32)
    x = np.ascontiguousarray(x, dtype=np.float32)
    if batch_size is None:
        batch_size = x.shape[0]

    model.eval()
    if masks is not None:
        masks.apply(model)

    if compiled is not None and compiled.model is not model:
        raise ValueError("`compiled` was built for a different model instance")

    # Status-quo dense path: taped autograd forward, exactly what callers ran
    # before the engine existed.
    dense_out = _to_numpy(model(Tensor(x)))
    dense_seconds = time_callable(lambda: model(Tensor(x)), repeats, warmup)

    # Dense kernels without tape construction (isolates the strategy win).
    dense_runner = BatchRunner(model, batch_size=batch_size)
    dense_nograd_seconds = time_callable(lambda: dense_runner.run(x), repeats, warmup)

    if compiled is None:
        compiled = compile_model(model, masks, apply_masks=False, int8=int8,
                                 quantization=quantization)
    try:
        runner = BatchRunner(compiled, batch_size=batch_size)
        # Time the fp32 program first with the int8 flag parked, so
        # `compiled_seconds` means the same thing whether or not int8 is on.
        compiled.int8 = False
        compiled_out = runner.run(x)  # traces + warms the arena
        max_abs_diff = max_abs_output_diff(compiled_out, dense_out)
        compiled_seconds = time_callable(lambda: runner.run(x), repeats, warmup)

        quantized_seconds = 0.0
        quantized_mean = float("nan")
        quantized_max = float("nan")
        int8_kernel = ""
        if int8 and compiled.fused_active:
            compiled.int8 = True
            if not compiled.quantization.get("activation_scales"):
                compiled.calibrate_int8(x)
            quantized_out = runner.run(x)  # lowers + warms the int8 arena
            if compiled.int8_active:
                quantized_mean = mean_abs_output_diff(quantized_out, compiled_out)
                quantized_max = max_abs_output_diff(quantized_out, compiled_out)
                quantized_seconds = time_callable(
                    lambda: runner.run(x), repeats, warmup)
                int8_kernel = _int8_kernel_census(compiled._int8_program)

        mode_census: Dict[str, int] = {}
        for layer_row in compiled.summary():
            mode = str(layer_row["mode"])
            mode_census[mode] = mode_census.get(mode, 0) + 1

        measurement = EngineMeasurement(
            model_name=model_name or type(model).__name__,
            input_shape=tuple(x.shape),
            repeats=repeats,
            dense_seconds=dense_seconds,
            dense_nograd_seconds=dense_nograd_seconds,
            compiled_seconds=compiled_seconds,
            max_abs_diff=max_abs_diff,
            compiled_layers=compiled.num_compiled_layers,
            fallback_layers=len(compiled.fallback_layers),
            kept_columns=compiled.kept_columns(),
            total_columns=compiled.total_columns(),
            quantized_seconds=quantized_seconds,
            quantized_mean_abs_error=quantized_mean,
            quantized_max_abs_error=quantized_max,
            int8_kernel=int8_kernel,
            mode_census=mode_census,
        )
    finally:
        compiled.int8 = int8
    return measurement


def _int8_kernel_census(program) -> str:
    """Which integer GEMM kernel(s) an int8 program executed with."""
    from repro.engine.quant import FORCE_GEMM_KERNEL, QuantFusedConv
    if program is None:
        return ""
    kernels = {FORCE_GEMM_KERNEL or op.gemm_kernel
               for op in program.steps if isinstance(op, QuantFusedConv)}
    kernels.discard(None)
    return "+".join(sorted(kernels))


def max_abs_output_diff(compiled_out, dense_out) -> float:
    """Max absolute difference over matching (possibly nested) outputs.

    Handles single arrays, tuples/lists (multi-scale detector heads) and dicts;
    mismatched structures yield NaN.  Used by the benchmark's equivalence check
    and by the pipeline's artifact reload verification.
    """
    if isinstance(dense_out, np.ndarray):
        if not isinstance(compiled_out, np.ndarray) or compiled_out.shape != dense_out.shape:
            return float("nan")
        if dense_out.size == 0:
            return 0.0
        return float(np.abs(compiled_out - dense_out).max())
    if isinstance(dense_out, (tuple, list)):
        if not isinstance(compiled_out, (tuple, list)) or len(compiled_out) != len(dense_out):
            return float("nan")
        diffs = [max_abs_output_diff(c, d) for c, d in zip(compiled_out, dense_out)]
        return max(diffs) if diffs else 0.0
    if isinstance(dense_out, dict):
        if not isinstance(compiled_out, dict) or set(compiled_out) != set(dense_out):
            return float("nan")
        diffs = [max_abs_output_diff(compiled_out[key], dense_out[key]) for key in dense_out]
        return max(diffs) if diffs else 0.0
    return float("nan")


def mean_abs_output_diff(candidate_out, reference_out) -> float:
    """Mean absolute difference over every element of matching outputs.

    The companion of :func:`max_abs_output_diff` for error *budgets*: the int8
    path trades a bounded mean deviation for speed, and a mean is the right
    aggregate for a budget (a max is dominated by the single worst saturated
    code).  Structure handling matches :func:`max_abs_output_diff`; the mean
    weights every element equally across the (possibly nested) outputs.
    """
    total, count = _abs_diff_sums(candidate_out, reference_out)
    if count == 0:
        return 0.0
    if not np.isfinite(total):
        return float("nan")
    return float(total / count)


def _abs_diff_sums(candidate, reference) -> Tuple[float, int]:
    if isinstance(reference, np.ndarray):
        if not isinstance(candidate, np.ndarray) or candidate.shape != reference.shape:
            return float("nan"), 1
        if reference.size == 0:
            return 0.0, 0
        diff = np.abs(np.asarray(candidate, dtype=np.float64)
                      - np.asarray(reference, dtype=np.float64))
        return float(diff.sum()), int(diff.size)
    if isinstance(reference, (tuple, list)):
        if not isinstance(candidate, (tuple, list)) or len(candidate) != len(reference):
            return float("nan"), 1
        pairs = [_abs_diff_sums(c, r) for c, r in zip(candidate, reference)]
        return sum(p[0] for p in pairs), sum(p[1] for p in pairs)
    if isinstance(reference, dict):
        if not isinstance(candidate, dict) or set(candidate) != set(reference):
            return float("nan"), 1
        pairs = [_abs_diff_sums(candidate[key], reference[key]) for key in reference]
        return sum(p[0] for p in pairs), sum(p[1] for p in pairs)
    return float("nan"), 1
