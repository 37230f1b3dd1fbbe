"""Pattern-aware sparse execution engine (measured, not modeled, speedups).

The pruning side of the repo decides *what* to prune (``repro.core``); this
package makes pruning pay off at inference time on the host CPU:

* :mod:`repro.engine.plan` — compile step: lower each pruned convolution to a
  column-compacted gather + GEMM plan that skips masked taps entirely, with
  layouts cached per (layer, pattern set, input shape),
* :mod:`repro.engine.compiler` — :func:`compile_model` lowers a model into
  the fused executor; the model's own forward stays the dense path, so
  training stays correct,
* :mod:`repro.engine.trace` — graph tracer: records one forward pass into a
  flat op-plan list (:class:`~repro.engine.trace.GraphPlan`),
* :mod:`repro.engine.fuse` — fusion pass + fused executor: folds BatchNorm
  into the packed conv weights, fuses ReLU/LeakyReLU/SiLU into the GEMM
  epilogue and runs every op as raw numpy over workspace-arena buffers,
* :mod:`repro.engine.arena` — shape-keyed workspace arena: zero large-array
  allocations in steady-state fused inference,
* :mod:`repro.engine.runner` — :class:`BatchRunner`, the batched front door
  used by the evaluator and the CLI (reused staging buffer, padded tail batch),
* :mod:`repro.engine.quant` — int8 lowering pass: :func:`lower_int8` rewrites
  a float fused program so quantized convolutions execute as true integer
  GEMMs (uint8 activation codes x int8 weight codes) with dequantization,
  BatchNorm and the activation folded into one epilogue,
* :mod:`repro.engine.native` — optional AVX-512 VNNI C kernel backing the
  int8 path (compiled on first use, silently absent on other hosts),
* :mod:`repro.engine.bench` — :func:`measure_speedup`, wall-clock dense vs
  fused (vs int8) comparison with built-in output-equivalence checks.

Quick use::

    from repro.engine import compile_model, measure_speedup

    report = RTOSSPruner(RTOSSConfig(entries=2)).prune(model, example)
    engine = compile_model(model, report.masks)
    outputs = engine(batch)                       # fused no-grad inference
    m = measure_speedup(model, masks=report.masks)
    print(m.speedup, m.nograd_speedup, m.max_abs_diff)
"""

from repro.engine.arena import WorkspaceArena
from repro.engine.bench import (
    EngineMeasurement,
    max_abs_output_diff,
    mean_abs_output_diff,
    measure_speedup,
    time_callable,
)
from repro.engine.compiler import CompiledModel, compile_model
from repro.engine.fuse import FusedProgram, fuse_graph
from repro.engine.native import native_available
from repro.engine.quant import (
    QuantFusedConv,
    QuantLoweringError,
    calibrate_activation_scales,
    lower_int8,
)
from repro.engine.plan import (
    ConvPlan,
    compile_conv_plan,
    layout_cache_stats,
    reset_layout_cache_stats,
)
from repro.engine.runner import BatchRunner, RunnerStats
from repro.engine.trace import GraphPlan, TraceError, trace_graph

__all__ = [
    "BatchRunner",
    "CompiledModel",
    "ConvPlan",
    "EngineMeasurement",
    "FusedProgram",
    "GraphPlan",
    "QuantFusedConv",
    "QuantLoweringError",
    "RunnerStats",
    "TraceError",
    "WorkspaceArena",
    "calibrate_activation_scales",
    "compile_conv_plan",
    "compile_model",
    "fuse_graph",
    "layout_cache_stats",
    "lower_int8",
    "max_abs_output_diff",
    "mean_abs_output_diff",
    "measure_speedup",
    "native_available",
    "reset_layout_cache_stats",
    "time_callable",
    "trace_graph",
]
