"""Pipeline stages: small, pluggable units of the deployment flow.

A stage is anything implementing the :class:`Stage` protocol — a ``name``, an
optional ``should_run(context)`` gate and a ``run(context)`` that reads and
writes the shared :class:`PipelineContext`.  The orchestrator
(:class:`repro.pipeline.pipeline.Pipeline`) never special-cases a stage, so new
stages (calibration, export, serving warm-up, ...) plug in by appending to the
stage list::

    class ExportStage:
        name = "export"
        def should_run(self, context): return True
        def run(self, context): ...

    Pipeline(spec, stages=[*default_stages(), ExportStage()])

The built-in stages implement the paper's deployment flow:
:class:`PruneStage` → :class:`FinetuneStage` (hook) → :class:`QuantizeStage` →
:class:`CompileStage` → :class:`EvaluateStage`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Protocol, runtime_checkable

import numpy as np

from repro.core.report import PruningReport
from repro.nn.module import Module
from repro.pipeline.spec import RunSpec
from repro.utils.logging import get_logger

logger = get_logger("pipeline.stages")


@dataclass
class PipelineContext:
    """Mutable state shared by the stages of one pipeline run."""

    spec: RunSpec
    #: Builds a fresh, identically initialised model (used by the evaluate stage
    #: for the dense baseline).
    model_factory: Callable[[], Module] = None  # type: ignore[assignment]
    #: The model being deployed (pruned in place by the prune stage).
    model: Module = None  # type: ignore[assignment]
    #: The pruner instance built from the framework registry.
    pruner: Optional[object] = None
    #: The pruning outcome (set by the prune stage; carries the MaskSet).
    report: Optional[PruningReport] = None
    #: Pre-pruning weight L2 energies (for the accuracy estimator).
    pre_prune_energy: Dict[str, float] = field(default_factory=dict)
    #: Optional fine-tuning hook ``fn(context) -> None`` run by FinetuneStage.
    finetune: Optional[Callable[["PipelineContext"], None]] = None
    #: Quantization metadata dict (set by the quantize stage).
    quantization_meta: Optional[Dict[str, Any]] = None
    #: The attached CompiledModel (set by the compile stage).
    compiled: Optional[object] = None
    #: Wall-clock EngineMeasurement (set by the compile stage when measuring).
    measurement: Optional[object] = None
    #: Analytic evaluation metrics, one flat row (set by the evaluate stage).
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Per-stage wall-clock seconds, in execution order (filled by Pipeline).
    timings: Dict[str, float] = field(default_factory=dict)
    #: Scratch space for custom stages.
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def masks(self):
        """The MaskSet of the pruning report (None before the prune stage)."""
        return self.report.masks if self.report is not None else None


@runtime_checkable
class Stage(Protocol):
    """The protocol every pipeline stage implements."""

    name: str

    def should_run(self, context: PipelineContext) -> bool:
        """Whether the stage applies to this run (checked by the orchestrator)."""
        ...

    def run(self, context: PipelineContext) -> None:
        """Execute the stage, mutating ``context``."""
        ...


# --------------------------------------------------------------------- built-ins
class PruneStage:
    """Apply the configured pruning framework (Algorithms 1-3 for R-TOSS)."""

    name = "prune"

    def should_run(self, context: PipelineContext) -> bool:
        return True

    def run(self, context: PipelineContext) -> None:
        from repro.evaluation.evaluator import snapshot_weight_energy
        from repro.pruning.registry import build_framework, framework_accepts

        spec = context.spec
        overrides = dict(spec.framework.overrides)
        if "seed" not in overrides and framework_accepts(spec.framework.name, "seed"):
            overrides["seed"] = spec.seed
        context.pruner = build_framework(spec.framework.name, **overrides)
        context.pre_prune_energy = snapshot_weight_energy(context.model)
        context.report = context.pruner.prune(
            context.model, spec.framework.example_shape(), spec.model.name)
        logger.info("pruned %s with %s: sparsity %.1f%%", spec.model.name,
                    spec.framework.name, 100 * context.report.overall_sparsity)


class FinetuneStage:
    """Hook point for mask-pinned fine-tuning.

    The spec stays JSON-serializable, so the training loop itself is supplied
    programmatically: ``Pipeline.from_spec(spec, finetune=fn)`` stores ``fn`` on
    the context and this stage invokes it, then re-applies the masks so pruned
    weights stay exactly zero no matter what the hook did.
    """

    name = "finetune"

    def should_run(self, context: PipelineContext) -> bool:
        return context.finetune is not None

    def run(self, context: PipelineContext) -> None:
        context.finetune(context)
        if context.masks is not None:
            context.masks.reapply(context.model)


class QuantizeStage:
    """Post-training quantization (pruned zeros quantise to exactly zero)."""

    name = "quantize"

    def should_run(self, context: PipelineContext) -> bool:
        return context.spec.quantization.enabled

    def run(self, context: PipelineContext) -> None:
        from repro.compression.quantization import quantize_model, quantized_model_bytes

        spec = context.spec.quantization
        report = quantize_model(context.model, bits=spec.bits, apply=True,
                                skip_names=spec.skip_names)
        context.quantization_meta = {
            "bits": report.bits,
            "num_layers": report.num_layers,
            "float_bytes": report.float_bytes,
            "quantized_bytes": report.quantized_bytes,
            "compression_ratio": report.compression_ratio,
            "max_absolute_error": report.max_absolute_error,
            "deployed_bytes": quantized_model_bytes(context.model, report,
                                                    count_zeros=False),
        }
        if context.masks is not None:
            context.masks.reapply(context.model)


class CompileStage:
    """Lower the pruned convolutions to compiled engine plans (and measure)."""

    name = "compile"

    def should_run(self, context: PipelineContext) -> bool:
        return context.spec.engine.enabled

    def run(self, context: PipelineContext) -> None:
        from repro.engine.bench import measure_speedup
        from repro.engine.compiler import compile_model

        spec = context.spec
        engine = spec.engine
        context.compiled = compile_model(
            context.model, context.masks, apply_masks=False,
            int8=engine.int8, quantization=context.quantization_meta)
        if engine.int8:
            self._calibrate_int8(context)
        if engine.measure:
            # Reuses the plans compiled above.
            context.measurement = measure_speedup(
                context.model, masks=context.masks, repeats=engine.repeats,
                batch=engine.batch, image_size=engine.image_size,
                model_name=spec.model.name, seed=spec.seed,
                compiled=context.compiled,
                int8=engine.int8, quantization=context.compiled.quantization)

    @staticmethod
    def _calibrate_int8(context: PipelineContext) -> None:
        """Calibrate activation scales on a seeded batch and persist them.

        The calibration batch is derived from ``spec.seed`` alone, so two runs
        of the same spec record identical scales and ``load()`` re-fuses the
        artifact into a bit-identical integer path (no data-dependent drift).
        Pre-calibrated scales (e.g. a re-run seeded from an artifact) win.
        """
        spec = context.spec
        engine = spec.engine
        meta = dict(context.quantization_meta or {})
        if not meta.get("activation_scales"):
            rng = np.random.default_rng(spec.seed)
            batch = rng.standard_normal(
                (engine.batch, 3, engine.image_size, engine.image_size)
            ).astype(np.float32)
            try:
                scales = context.compiled.calibrate_int8(batch)
            except RuntimeError:  # no fused program (e.g. untraceable model)
                return
            meta["activation_scales"] = scales
        meta.setdefault("bits", int(context.compiled.quantization.get("bits", 8) or 8))
        context.quantization_meta = meta


class EvaluateStage:
    """Analytic evaluation: latency/energy/size models plus the mAP estimate."""

    name = "evaluate"

    def should_run(self, context: PipelineContext) -> bool:
        return context.spec.evaluation.enabled and context.report is not None

    def run(self, context: PipelineContext) -> None:
        from repro.evaluation.accuracy_proxy import BASELINE_MAP, estimate_pruned_map
        from repro.evaluation.evaluator import weight_energy_retention
        from repro.hardware import (
            SparsityProfile,
            estimate_energy,
            estimate_latency,
            estimate_model_size,
            get_platform,
            profile_model,
        )

        spec = context.spec
        evaluation = spec.evaluation
        report = context.report

        dense_model = context.model_factory()
        profile = profile_model(dense_model, evaluation.image_size,
                                evaluation.probe_size, model_name=spec.model.name)
        baseline_map = evaluation.baseline_map
        if baseline_map is None:
            baseline_map = BASELINE_MAP.get(spec.model.name.lower(), 60.0)
        retention = weight_energy_retention(context.model,
                                            context.pre_prune_energy, report)
        accuracy = estimate_pruned_map(report, baseline_map, retention)
        sparsity = SparsityProfile.from_report(report)
        size = estimate_model_size(profile, sparsity)

        metrics: Dict[str, Any] = {
            "framework": report.framework,
            "model": spec.model.name,
            "compression_ratio": round(report.compression_ratio, 3),
            "storage_compression_ratio": round(size.compression_ratio, 3),
            "sparsity": round(report.overall_sparsity, 4),
            "mAP_estimate": round(accuracy.estimated_map, 2),
            "mAP_baseline": round(baseline_map, 2),
        }
        dense = SparsityProfile.dense()
        for name in evaluation.platforms:
            platform = get_platform(name)
            dense_latency = estimate_latency(profile, platform, dense)
            dense_energy = estimate_energy(profile, platform, dense, dense_latency)
            latency = estimate_latency(profile, platform, sparsity)
            energy = estimate_energy(profile, platform, sparsity, latency)
            key = platform.name
            metrics[f"latency_ms[{key}]"] = round(latency.total_seconds * 1e3, 2)
            metrics[f"speedup[{key}]"] = round(
                dense_latency.total_seconds / latency.total_seconds, 2)
            metrics[f"energy_J[{key}]"] = round(energy.total_joules, 3)
            metrics[f"energy_reduction_%[{key}]"] = round(
                100.0 * (1.0 - energy.total_joules / dense_energy.total_joules), 2)
        if context.measurement is not None:
            metrics["measured_speedup[host]"] = round(context.measurement.speedup, 2)
            metrics["measured_latency_ms[host]"] = round(
                context.measurement.compiled_seconds * 1e3, 2)
        context.metrics = metrics


def default_stages() -> List[Stage]:
    """The canonical deployment flow: prune → finetune → quantize → compile → evaluate."""
    return [PruneStage(), FinetuneStage(), QuantizeStage(), CompileStage(),
            EvaluateStage()]
