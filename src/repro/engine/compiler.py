"""Model compiler: lower a pruned model into the fused sparse executor.

:func:`compile_model` walks a model and lowers every eligible convolution into
a :class:`repro.engine.plan.ConvPlan`.  The first forward through the returned
:class:`CompiledModel` traces the model into a flat op plan
(:mod:`repro.engine.trace`) and lowers it, together with the plans, into a
:class:`repro.engine.fuse.FusedProgram` — the pruned 3x3 and 1x1 kernels as
column-compacted GEMMs, BatchNorm folded into the packed conv weights,
activations fused into the GEMM epilogue, every intermediate written into a
shape-keyed workspace arena.  Later calls run that program.

The model object itself is never modified: its own forward stays the dense
reference path, used for training (gradients stay correct) and served by the
engine only when the model proves untraceable.

Grouped convolutions (``groups > 1``) get no plan; the fused program replays
their modules, and they are listed in :attr:`CompiledModel.fallback_layers`.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import ExitStack, contextmanager
from typing import Dict, List, Optional

import numpy as np

from repro.core.masks import MaskSet
from repro.engine.plan import ConvPlan, compile_conv_plan
from repro.nn.layers.conv import Conv2d
from repro.nn.module import Module
from repro.nn.tensor import Tensor, no_grad
from repro.utils.logging import get_logger

logger = get_logger("engine.compiler")

#: Distinguishes concurrent engines in the obs registry's label sets.
_ENGINE_SERIAL = itertools.count(1)


class CompiledModel:
    """A pruned model lowered into the fused pattern-aware executor.

    Calling a ``CompiledModel`` runs a no-grad, eval-mode forward pass through
    the fused program, traced from the model on the first call.  Composite
    modules without convolutions (transformer layers, MLP heads) replay
    through their own forward inside that program, so arbitrary
    architectures are supported.

    Use as::

        report = RTOSSPruner(config).prune(model, example)
        engine = compile_model(model, report.masks)
        out = engine(batch)            # no-grad fused inference

    The underlying model object is shared, not copied, and never rewired: its
    own forward stays the dense reference path (and the training path), and
    weight updates between calls are picked up via :meth:`refresh`.

    Thread-safety contract (relied on by :mod:`repro.serving`): concurrent
    ``__call__`` / :class:`~repro.engine.runner.BatchRunner` use from multiple
    threads is safe — the first forwards serialize on the fuse lock while the
    model is traced once, each thread then runs the program in its own
    workspace arena, and the per-shape gather layouts take a per-plan lock on
    miss (:meth:`repro.engine.plan.ConvPlan.fused_layout_for`).
    :meth:`refresh` is single-writer and must not race concurrent inference.
    """

    # reprolint lock-discipline contract: traced/lowered program state is
    # built lazily by whichever no-grad forward gets there first and mutates
    # only under the fuse lock.
    _guarded_by_ = {
        "_fused_program": "_fuse_lock",
        "_fuse_failed": "_fuse_lock",
        "_int8_program": "_fuse_lock",
        "_int8_failed": "_fuse_lock",
        "_quantization": "_fuse_lock",
        "_profiler": "_fuse_lock",
    }

    def __init__(self, model: Module, plans: Dict[str, ConvPlan],
                 fallback_layers: List[str], mask_signature: Optional[str] = None,
                 int8: bool = False,
                 quantization: Optional[Dict[str, object]] = None) -> None:
        self.model = model
        self.plans = plans
        self.fallback_layers = fallback_layers
        self.mask_signature = mask_signature
        #: Whether no-grad forwards may use the int8 lowering of the fused
        #: program (:mod:`repro.engine.quant`).  Toggleable at runtime; when
        #: lowering proves impossible (no eligible conv, 16-bit codes,
        #: untraceable model) the float program keeps serving.
        self.int8 = int8
        #: Quantization metadata driving the int8 lowering: ``bits`` and (once
        #: calibrated) ``activation_scales``.  The pipeline seeds this from the
        #: artifact; direct users calibrate lazily on the first no-grad batch.
        self._quantization: Dict[str, object] = dict(quantization or {})
        self._fused_program = None
        self._fuse_failed: Optional[str] = None
        self._int8_program = None
        self._int8_failed: Optional[str] = None
        self._fuse_lock = threading.Lock()
        #: Per-op EngineProfiler (:meth:`enable_profiling`); ``None`` in
        #: steady state so the executors keep their no-op fast branch.
        self._profiler = None
        self._engine_label = f"{type(model).__name__}#{next(_ENGINE_SERIAL)}"
        # Publish arena/engine-mode counters into the process metrics registry
        # (weak collector: this engine's series vanish when it is collected).
        from repro.obs.registry import get_registry

        get_registry().register_collector(
            f"engine.{self._engine_label}", self.collect_metrics)

    # ------------------------------------------------------------------ lifecycle
    def attach(self) -> None:
        """No-op: the engine never rewires the model's own forwards.

        Kept because ``perfbench/`` brackets its dense measurements with
        ``detach()`` / ``attach()``; ``compiled.model`` is the dense model at
        all times.
        """

    def detach(self) -> None:
        """No-op counterpart of :meth:`attach`."""

    def refresh(self) -> None:
        """Re-sync plans with the model's current weights.

        Weight-value changes are re-packed in place; a changed keep-mask (e.g.
        after re-pruning) triggers full recompilation of that layer.  The
        fused program holds folded copies of weights and BN statistics, so it
        is dropped and lazily re-traced on the next no-grad forward.
        """
        with self._fuse_lock:
            self._fused_program = None
            self._fuse_failed = None
            self._int8_program = None
            self._int8_failed = None
        modules = dict(self.model.named_modules())
        for name, plan in list(self.plans.items()):
            layer = modules[name]
            if plan.is_stale(layer):
                self.plans[name] = compile_conv_plan(layer, name)
            else:
                plan.refresh_weights(layer)

    # ------------------------------------------------------------------ fusion
    def _float_program(self, data: np.ndarray):
        """The float fused program, traced lazily on the first no-grad forward.

        Returns None when the model proved untraceable (logged once; its plain
        forward serves instead).  Concurrent first calls serialize on the fuse
        lock so the model is traced exactly once.
        """
        program = self._fused_program
        if program is not None or self._fuse_failed is not None:
            return program
        from repro.engine.fuse import fuse_graph
        from repro.engine.trace import TraceError, trace_graph

        with self._fuse_lock:
            if self._fused_program is None and self._fuse_failed is None:
                try:
                    graph = trace_graph(self.model, data)
                    self._fused_program = fuse_graph(graph, self.plans)
                    self._fused_program.set_profiler(self._profiler)
                    logger.info(
                        "fused %s: %d traced ops -> %d fused steps",
                        type(self.model).__name__, len(graph), len(self._fused_program))
                except TraceError as error:
                    self._fuse_failed = str(error)
                    logger.info(
                        "fusion disabled for %s (dense forward kept): %s",
                        type(self.model).__name__, error)
            return self._fused_program

    def _lower_int8(self, data: np.ndarray):
        """The int8 program, lowered lazily from the float program.

        Activation scales come from :attr:`quantization` (seeded by the
        pipeline's build-time calibration); when absent — direct
        ``compile_model(..., int8=True)`` use — the first no-grad batch
        calibrates them, so the int8 path is self-contained but only
        deterministic across processes when scales are provided up front.
        Concurrent first calls serialize on the fuse lock; lowering failures
        are remembered and the float program keeps serving.
        """
        float_program = self._float_program(data)
        if float_program is None:
            return None
        from repro.engine.quant import (
            QuantLoweringError,
            calibrate_activation_scales,
            lower_int8,
        )

        with self._fuse_lock:
            if self._int8_program is None and self._int8_failed is None:
                bits = int(self._quantization.get("bits", 8) or 8)
                scales = self._quantization.get("activation_scales")
                try:
                    if not scales:
                        scales = calibrate_activation_scales(float_program, [data])
                        self._quantization["activation_scales"] = scales
                    self._int8_program = lower_int8(float_program, bits, scales)
                    self._int8_program.set_profiler(self._profiler)
                    logger.info(
                        "lowered %s to int8: %d/%d convs on the integer path",
                        type(self.model).__name__,
                        sum(1 for mode in self._int8_program.conv_modes().values()
                            if "+int8" in mode),
                        len(self.plans))
                except QuantLoweringError as error:
                    self._int8_failed = str(error)
                    logger.info(
                        "int8 lowering disabled for %s (float path kept): %s",
                        type(self.model).__name__, error)
            return self._int8_program

    def _fused_for(self, data: np.ndarray):
        """The program no-grad forwards should run: int8 when active, else float."""
        if self.int8:
            program = self._int8_program
            if program is None and self._int8_failed is None:
                program = self._lower_int8(data)
            if program is not None:
                return program
        return self._float_program(data)

    def calibrate_int8(self, data: np.ndarray) -> Dict[str, Dict[str, float]]:
        """Calibrate activation scales on ``data`` and arm the int8 lowering.

        Runs the float fused program with observers installed, stores the
        per-layer activation ranges into :attr:`quantization` and drops any
        previously lowered int8 program so the next no-grad forward lowers
        against the new scales.  Returns the scales (the pipeline persists
        them into the artifact so reloads lower deterministically).
        """
        data = np.ascontiguousarray(data, dtype=np.float32)
        if self.model.training:
            self.model.eval()
        with no_grad():
            program = self._float_program(data)
        if program is None:
            raise RuntimeError(
                "cannot calibrate int8 scales: the model has no fused program "
                f"({self._fuse_failed})")
        from repro.engine.quant import calibrate_activation_scales

        with no_grad():
            scales = calibrate_activation_scales(program, [data])
        with self._fuse_lock:
            self._quantization["activation_scales"] = scales
            self._int8_program = None
            self._int8_failed = None
        return scales

    @property
    def fused_active(self) -> bool:
        """True once a fused program has been traced and is in use."""
        return self._fused_program is not None

    @property
    def fuse_failure(self) -> Optional[str]:
        """Why tracing failed (None while fused or not yet attempted)."""
        return self._fuse_failed

    @property
    def int8_active(self) -> bool:
        """True once the int8 lowering exists and no-grad forwards use it."""
        return self.int8 and self._int8_program is not None

    @property
    def int8_failure(self) -> Optional[str]:
        """Why int8 lowering failed (None while lowered or not yet attempted)."""
        return self._int8_failed

    @property
    def engine_mode(self) -> str:
        """Which executor no-grad forwards currently run: int8/fused/dense."""
        if self.int8_active:
            return "int8"
        if self.fused_active:
            return "fused"
        return "dense"

    @property
    def quantization(self) -> Dict[str, object]:
        """Quantization metadata (bits, calibrated activation scales)."""
        return self._quantization

    def arena_stats(self) -> Dict[str, int]:
        """Aggregated workspace-arena counters across both fused executors."""
        totals = {"hits": 0, "misses": 0, "buffers": 0,
                  "bytes_allocated": 0, "arenas": 0}
        for program in (self._fused_program, self._int8_program):
            if program is None:
                continue
            for key, value in program.arena_stats().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    # ------------------------------------------------------------------ profiling
    def enable_profiling(self):
        """Attach a per-op :class:`repro.obs.EngineProfiler` (idempotent).

        Covers both executors this engine can take: the fused fp32 program and
        its int8 lowering.  Returns the profiler so callers can read
        :meth:`repro.obs.EngineProfiler.report` directly.
        """
        from repro.obs.profiler import EngineProfiler

        with self._fuse_lock:
            if self._profiler is None:
                self._profiler = EngineProfiler()
            for program in (self._fused_program, self._int8_program):
                if program is not None:
                    program.set_profiler(self._profiler)
            return self._profiler

    def disable_profiling(self) -> None:
        """Detach the profiler; the executors return to the no-op branch."""
        with self._fuse_lock:
            self._profiler = None
            for program in (self._fused_program, self._int8_program):
                if program is not None:
                    program.set_profiler(None)

    @contextmanager
    def profiled(self):
        """Profile just this thread's forwards, yielding a fresh profiler.

        Unlike :meth:`enable_profiling` (engine-wide, sticky) this scopes a
        :class:`repro.obs.EngineProfiler` to the calling thread via the fused
        executors' thread-local override, so concurrent batches on the same
        engine each get their own attribution.
        """
        from repro.obs.profiler import EngineProfiler

        profiler = EngineProfiler()
        with self._fuse_lock:
            programs = [program for program in
                        (self._fused_program, self._int8_program)
                        if program is not None]
        with ExitStack() as stack:
            for program in programs:
                stack.enter_context(program.profiled(profiler))
            yield profiler

    def profile(self, digits: int = 3) -> Dict[str, object]:
        """Per-op timing report of all profiled forwards since enablement.

        ``{"engine_mode", "runs", "total_ms", "op_total_ms", "ops": [...]}`` —
        each op row carries calls/total/mean/share and, for compiled convs,
        the ``phases_ms`` gather/gemm/epilogue (fp32) or quantize/gather/gemm
        (int8) split.  Raises ``RuntimeError`` unless :meth:`enable_profiling`
        was called first.
        """
        profiler = self._profiler
        if profiler is None:
            raise RuntimeError(
                "profiling is not enabled on this engine; call "
                "enable_profiling() before profiled forwards")
        report = profiler.report(digits=digits)
        report["engine_mode"] = self.engine_mode
        report["model"] = type(self.model).__name__
        return report

    def collect_metrics(self):
        """Obs-registry collector: arena counters + engine mode gauge."""
        from repro.obs.registry import Sample

        labels = {"engine": self._engine_label}
        stats = self.arena_stats()
        samples = [
            Sample("repro_engine_arena_hits_total", labels, float(stats["hits"]),
                   "counter"),
            Sample("repro_engine_arena_misses_total", labels, float(stats["misses"]),
                   "counter"),
            Sample("repro_engine_arena_bytes", labels, float(stats["bytes_allocated"]),
                   "gauge"),
            Sample("repro_engine_arena_buffers", labels, float(stats["buffers"]),
                   "gauge"),
        ]
        mode_labels = dict(labels, mode=self.engine_mode)
        samples.append(Sample("repro_engine_mode", mode_labels, 1.0, "gauge"))
        return samples

    # ------------------------------------------------------------------ inference
    def __call__(self, x) -> Tensor:
        """No-grad, eval-mode forward pass through the fused program."""
        if self.model.training:
            self.model.eval()
        if isinstance(x, np.ndarray):
            x = Tensor(x)
        with no_grad():
            program = self._fused_for(x.data)
            if program is not None:
                return _wrap_tensors(program.run(x.data))
            return self.model(x)

    def forward_raw(self, data: np.ndarray) -> np.ndarray:
        """Numpy-in / numpy-out inference through the fused executor.

        This is the serving hot path (:mod:`repro.serving` resolves models to
        ``forward_raw``): raw arrays in, raw arrays out, no Tensor wrapping.
        Runs the model's plain forward when the model is untraceable.
        """
        data = np.ascontiguousarray(data, dtype=np.float32)
        if self.model.training:
            self.model.eval()
        with no_grad():
            program = self._fused_for(data)
            if program is not None:
                return program.run(data)
            from repro.engine.runner import _to_numpy

            return _to_numpy(self.model(Tensor(data)))

    # ------------------------------------------------------------------ reporting
    def summary(self) -> List[Dict[str, object]]:
        """One row per compiled layer plus a row per dense fallback layer.

        The ``mode`` column always reports the mode string of what actually
        executes: once fused, a folded layer shows e.g.
        ``sparse-im2col-gemm+bn+silu`` instead of the bare plan label.
        """
        active = (self._int8_program if self.int8_active
                  else self._fused_program if self.fused_active else None)
        fused_modes = active.conv_modes() if active is not None else {}
        rows = []
        for name, plan in self.plans.items():
            row = plan.summary()
            if name in fused_modes:
                row["mode"] = fused_modes[name]
            rows.append(row)
        for name in self.fallback_layers:
            rows.append({"layer": name, "mode": "dense-fallback", "kernel": "-",
                         "columns": "-", "column_sparsity": 0.0, "weight_sparsity": 0.0})
        return rows

    @property
    def num_compiled_layers(self) -> int:
        return len(self.plans)

    def total_columns(self) -> int:
        return sum(plan.total_columns for plan in self.plans.values())

    def kept_columns(self) -> int:
        return sum(int(plan.kept_columns.size) for plan in self.plans.values())


def _wrap_tensors(value):
    """Wrap a (possibly nested) numpy output structure into Tensors."""
    from repro.engine.runner import map_structure  # deferred: runner imports us

    return map_structure(Tensor, value)


def compile_model(model: Module, masks: Optional[MaskSet] = None,
                  apply_masks: bool = True, int8: bool = False,
                  quantization: Optional[Dict[str, object]] = None) -> CompiledModel:
    """Compile a (pruned) model for pattern-aware sparse inference.

    Parameters
    ----------
    model:
        Any :class:`repro.nn.module.Module`; its :class:`Conv2d` layers are
        lowered to plans, the rest is traced into the fused program.
    masks:
        The pruning masks to compile against.  When given (and ``apply_masks``),
        they are (re)applied first so the layer weights and registered masks are
        guaranteed consistent; the mask-set signature is recorded for caching.
        ``None`` compiles whatever zero structure the weights already have — a
        dense model compiles too, it just keeps every column.
    apply_masks:
        Set to ``False`` if the masks were already applied and re-zeroing is
        undesirable.
    int8:
        Additionally lower the fused program to the integer hot path
        (:mod:`repro.engine.quant`): int8 weight codes in the packed layout,
        integer GEMMs, dequant+BN+activation fused into one epilogue.  When
        lowering is impossible the float fused path serves.
    quantization:
        Quantization metadata for the int8 lowering — ``bits`` and optionally
        pre-calibrated ``activation_scales`` (the pipeline passes the
        artifact's).  Without scales the first no-grad batch calibrates them
        (see :meth:`CompiledModel.calibrate_int8`).
    """
    mask_signature = None
    if masks is not None:
        if apply_masks:
            masks.apply(model)
        mask_signature = masks.signature()

    plans: Dict[str, ConvPlan] = {}
    fallback: List[str] = []
    for name, module in model.named_modules():
        if not isinstance(module, Conv2d):
            continue
        if module.groups != 1:
            fallback.append(name)
            continue
        plans[name] = compile_conv_plan(module, name)

    model.eval()
    compiled = CompiledModel(model, plans, fallback, mask_signature,
                             int8=int8, quantization=quantization)
    logger.info(
        "compiled %d conv layers (%d dense fallbacks): %d/%d im2col columns kept",
        compiled.num_compiled_layers, len(fallback),
        compiled.kept_columns(), compiled.total_columns(),
    )
    return compiled
