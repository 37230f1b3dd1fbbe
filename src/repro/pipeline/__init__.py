"""Unified deployment pipeline: the canonical public API of the reproduction.

The paper's value proposition is an *end-to-end deployment flow* — prune with
Algorithms 1-3, optionally quantize, compile for the target, evaluate.  This
package exposes that flow as one coherent, serializable, pluggable surface:

* :class:`RunSpec` (:mod:`repro.pipeline.spec`) — a declarative dataclass tree
  (model + framework + quantization + engine + evaluation sections) that
  round-trips to/from plain dicts and JSON files,
* :class:`Pipeline` (:mod:`repro.pipeline.pipeline`) — the orchestrator running
  prune → finetune-hook → quantize → compile → evaluate, each stage a small
  object implementing the :class:`~repro.pipeline.stages.Stage` protocol,
* :class:`DeployableArtifact` (:mod:`repro.pipeline.artifact`) — the result: a
  pruned (+quantized, +compiled) model that saves to / loads from a single
  portable, uncompressed ``.npz`` file holding only the weights pruning kept
  plus bit-packed masks (format version 2),
* the pruning-framework registry it consumes lives in
  :mod:`repro.pruning.registry`.

Quick use::

    from repro.pipeline import Pipeline, RunSpec

    artifact = Pipeline.from_spec("examples/specs/tiny_rtoss3ep.json").run()
    artifact.save("tiny_rtoss3ep.npz")

or from the command line::

    python -m repro.cli run --spec examples/specs/tiny_rtoss3ep.json
"""

from repro.pipeline.artifact import ARTIFACT_VERSION, DeployableArtifact
from repro.pipeline.pipeline import Pipeline, run_spec
from repro.pipeline.spec import (
    EngineSpec,
    EvaluationSpec,
    FrameworkSpec,
    ModelSpec,
    QuantizationSpec,
    RunSpec,
    ServeSpec,
)
from repro.pipeline.stages import (
    CompileStage,
    EvaluateStage,
    FinetuneStage,
    PipelineContext,
    PruneStage,
    QuantizeStage,
    Stage,
    default_stages,
)

__all__ = [
    "ARTIFACT_VERSION", "DeployableArtifact",
    "Pipeline", "run_spec",
    "EngineSpec", "EvaluationSpec", "FrameworkSpec", "ModelSpec",
    "QuantizationSpec", "RunSpec", "ServeSpec",
    "CompileStage", "EvaluateStage", "FinetuneStage", "PipelineContext",
    "PruneStage", "QuantizeStage", "Stage", "default_stages",
]
