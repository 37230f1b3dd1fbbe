"""Deployable artifacts: one portable file per pruned (+quantized, +compiled) model.

A :class:`DeployableArtifact` is what :meth:`repro.pipeline.Pipeline.run`
returns: the pruned model, its :class:`~repro.core.masks.MaskSet` and
:class:`~repro.core.report.PruningReport`, quantization metadata, the compiled
execution engine and the evaluation metrics, bundled behind ``save()`` /
``load()``.  Saving produces a single ``.npz`` file; loading rebuilds the model
from the spec, restores the weights and masks, and recompiles the engine — so
a deployed model travels as one file and comes back executable::

    artifact = Pipeline.from_spec(spec).run()
    path = artifact.save("yolo_rtoss3ep.npz")
    restored = DeployableArtifact.load(path)
    outputs = restored(batch)            # compiled no-grad inference

The file (format version 2) stores only what pruning keeps.  For a parameter
with a pruning mask, ``state::<name>`` holds the kept weights ``weight[mask]``
in C order and ``mask::<name>`` the mask packed eight entries per byte
(``np.packbits``); every other parameter and buffer is stored whole.  Shapes
are not stored: ``load()`` takes them from the model it rebuilds, and checks
each member's ``.npy`` header against them before it reads any data, so a
malformed file fails with a ``ValueError`` naming it.  Members are not
deflated: the kept weights are near-random float32 that zlib barely shrinks,
and inflating them cost more set-up time than the bytes saved.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np
from numpy.lib import format as npy_format

from repro.core.masks import MaskSet, PruningMask
from repro.core.report import LayerReport, PruningReport
from repro.engine.compiler import CompiledModel, compile_model
from repro.models import build_model
from repro.nn.module import Module
from repro.nn.tensor import Tensor, no_grad
from repro.pipeline.spec import RunSpec
from repro.utils.serialization import existing_npz_path, writable_npz_path

#: Format version written into every artifact (bump on incompatible changes).
ARTIFACT_VERSION = 2

_META_KEY = "__artifact__"
_STATE_PREFIX = "state::"
_MASK_PREFIX = "mask::"
#: Largest metadata member load() reads; the only length not set by the model.
_MAX_META_BYTES = 16 << 20


@dataclass
class DeployableArtifact:
    """The end product of a pipeline run: a deployable pruned model bundle."""

    spec: RunSpec
    model: Module
    report: PruningReport
    #: Quantization metadata (bits, per-layer counts, compression) or None.
    quantization_meta: Optional[Dict[str, Any]] = None
    #: The attached execution engine (None when EngineSpec.enabled is False).
    compiled: Optional[CompiledModel] = None
    #: Wall-clock EngineMeasurement row() dict when the engine stage measured.
    measurement: Optional[Dict[str, Any]] = None
    #: Analytic evaluation metrics (one flat row, see stages.EvaluateStage).
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Per-stage wall-clock seconds, in execution order.
    timings: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------ inference
    @property
    def masks(self) -> MaskSet:
        return self.report.masks

    def __call__(self, x) -> Tensor:
        """No-grad inference through the compiled engine (or the plain model)."""
        if self.compiled is not None:
            return self.compiled(x)
        if isinstance(x, np.ndarray):
            x = Tensor(np.asarray(x, dtype=np.float32))
        self.model.eval()
        with no_grad():
            return self.model(x)

    def forward_raw(self, data: np.ndarray):
        """Numpy-in / numpy-out inference (the serving layer's hot path).

        Delegates to :meth:`repro.engine.compiler.CompiledModel.forward_raw`
        when an engine is attached — raw arrays end to end, no per-request
        Tensor wrapping.  Nested outputs (multi-scale detector heads) come
        back as the same structure of numpy arrays; compare two calls with
        :func:`repro.engine.max_abs_output_diff`.
        """
        if self.compiled is not None:
            return self.compiled.forward_raw(data)
        from repro.engine.runner import _to_numpy

        return _to_numpy(self(Tensor(np.asarray(data, dtype=np.float32))))

    # ------------------------------------------------------------------ reporting
    def summary(self) -> Dict[str, Any]:
        """One flat row describing the artifact (used by the CLI)."""
        row: Dict[str, Any] = dict(self.report.summary())
        if self.quantization_meta:
            row["quantized_bits"] = self.quantization_meta.get("bits")
        if self.compiled is not None:
            row["compiled_layers"] = self.compiled.num_compiled_layers
            row["int8"] = bool(self.compiled.int8)
        if self.measurement:
            row["measured_speedup"] = self.measurement.get("measured_speedup")
        return row

    # ------------------------------------------------------------------ persistence
    def save(self, path: str) -> str:
        """Write the artifact as a single ``.npz`` file; returns the path written.

        Raises ``ValueError`` if a masked parameter holds a nonzero weight
        outside its mask: the file keeps only the masked-in weights, so such
        a weight would otherwise be dropped silently.
        """
        meta = {
            "version": ARTIFACT_VERSION,
            "spec": self.spec.to_dict(),
            "model_class": type(self.model).__name__,
            "report": {
                "framework": self.report.framework,
                "model_name": self.report.model_name,
                "total_parameters": self.report.total_parameters,
                "extra": _jsonable(self.report.extra),
                "layers": [
                    {
                        "layer_name": layer.layer_name,
                        "kernel_size": list(layer.kernel_size),
                        "total_weights": layer.total_weights,
                        "kept_weights": layer.kept_weights,
                        "method": layer.method,
                        "group_parent": layer.group_parent,
                    }
                    for layer in self.report.layers
                ],
            },
            "mask_signature": self.masks.signature() if len(self.masks) else None,
            "quantization": _jsonable(self.quantization_meta),
            "compiled": self.compiled is not None,
            # Whether the engine runs the integer hot path; load() re-lowers
            # accordingly, so serving processes (InferenceService / cluster
            # WorkerProcess) inherit it for free.  The calibrated activation
            # scales travel inside "quantization", so load() re-lowers into
            # the exact int8 program this run executed.
            "int8": bool(self.compiled is not None and self.compiled.int8),
            "measurement": _jsonable(self.measurement),
            "metrics": _jsonable(self.metrics),
            "timings": _jsonable(self.timings),
        }
        state = self.model.state_dict()
        packed: Dict[str, np.ndarray] = {}
        for mask in self.masks:
            name = mask.full_name
            keep = mask.mask != 0
            weight = state[name]
            kept = weight[keep]
            stray = np.count_nonzero(weight) - np.count_nonzero(kept)
            if stray:
                raise ValueError(f"cannot save {path!r}: {name} has {stray} nonzero "
                                 f"weight(s) outside its pruning mask")
            state[name] = kept
            packed[name] = np.packbits(keep)
        bundle: Dict[str, np.ndarray] = {_META_KEY: np.asarray(json.dumps(meta))}
        bundle.update((_STATE_PREFIX + name, array) for name, array in state.items())
        bundle.update((_MASK_PREFIX + name, bits) for name, bits in packed.items())
        path = writable_npz_path(path)
        np.savez(path, **bundle)
        return path

    @classmethod
    def load(cls, path: str) -> "DeployableArtifact":
        """Rebuild a saved artifact: model + weights + masks (+ recompiled engine).

        Raises ``ValueError`` naming ``path`` when the file is not a readable
        version-2 artifact; a missing file raises ``FileNotFoundError``.
        """
        path = existing_npz_path(path)
        try:
            archive = zipfile.ZipFile(path)
        except (zipfile.BadZipFile, EOFError) as error:
            raise ValueError(f"{path!r} is not a readable artifact: {error}") from error
        with archive:
            reader = _ArtifactReader(archive, path)
            meta = reader.meta()
            version = meta.get("version")
            if version != ARTIFACT_VERSION:
                raise ValueError(f"unsupported artifact version {version!r} "
                                 f"(this build reads version {ARTIFACT_VERSION}); "
                                 f"rebuild {path!r} with `python -m repro.cli run`")
            spec = RunSpec.from_dict(meta["spec"])
            model = build_model(spec.model.name, **spec.model.kwargs)
            masks = reader.restore(model)
        model.eval()
        if len(masks):
            # The kept weights were scattered into zeroed parameters; applying
            # re-registers the masks on the layers (a no-op on the values).
            masks.apply(model)

        report_meta = meta["report"]
        report = PruningReport(
            framework=report_meta["framework"],
            model_name=report_meta["model_name"],
            total_parameters=int(report_meta["total_parameters"]),
            masks=masks,
            extra=dict(report_meta.get("extra") or {}),
            layers=[
                LayerReport(
                    layer_name=layer["layer_name"],
                    kernel_size=tuple(layer["kernel_size"]),
                    total_weights=int(layer["total_weights"]),
                    kept_weights=int(layer["kept_weights"]),
                    method=layer.get("method", ""),
                    group_parent=layer.get("group_parent"),
                )
                for layer in report_meta.get("layers", [])
            ],
        )

        signature = meta.get("mask_signature")
        if signature and masks.signature() != signature:
            raise ValueError(f"artifact {path!r} is corrupt: mask signature "
                             f"mismatch ({masks.signature()} != {signature})")

        compiled = None
        if meta.get("compiled"):
            int8 = bool(meta.get("int8", False))
            compiled = compile_model(model, masks if len(masks) else None,
                                     apply_masks=False, int8=int8,
                                     quantization=meta.get("quantization"))

        return cls(
            spec=spec,
            model=model,
            report=report,
            quantization_meta=meta.get("quantization"),
            compiled=compiled,
            measurement=meta.get("measurement"),
            metrics=dict(meta.get("metrics") or {}),
            timings=dict(meta.get("timings") or {}),
        )


class _ArtifactReader:
    """Reads the ``.npy`` members of an artifact, checking before allocating.

    Every member's header is compared with the dtype and shape the caller
    expects — for weights and masks, derived from the rebuilt model — before
    any of its data is read.
    """

    def __init__(self, archive: zipfile.ZipFile, path: str) -> None:
        self.archive = archive
        self.path = path
        self.keys = [name[:-len(".npy")] for name in archive.namelist()
                     if name.endswith(".npy")]

    def corrupt(self, detail: Any) -> ValueError:
        return ValueError(f"artifact {self.path!r} is corrupt: {detail}")

    def read(self, key: str, dtype, shape: Tuple[int, ...]) -> np.ndarray:
        """Member ``key`` as a read-only array of ``shape`` and type ``dtype``.

        A flexible ``dtype`` (``np.str_``, the metadata) takes its width from
        the file, so that member is capped at ``_MAX_META_BYTES``.
        """
        try:
            info = self.archive.getinfo(key + ".npy")
            with self.archive.open(info) as stream:
                try:
                    version = npy_format.read_magic(stream)
                    if version == (1, 0):
                        header = npy_format.read_array_header_1_0(stream)
                    elif version == (2, 0):
                        header = npy_format.read_array_header_2_0(stream)
                    else:
                        raise ValueError(f"unsupported .npy version {version}")
                except ValueError as error:
                    raise self.corrupt(f"{key}: {error}") from error
                found_shape, fortran_order, found_dtype = header
                if (not np.issubdtype(found_dtype, dtype) or fortran_order
                        or found_shape != tuple(shape)):
                    raise self.corrupt(
                        f"{key} holds {found_dtype} {found_shape}"
                        f"{' in Fortran order' if fortran_order else ''}, "
                        f"expected {np.dtype(dtype)} {tuple(shape)}")
                nbytes = int(np.prod(found_shape, dtype=np.int64)) * found_dtype.itemsize
                if np.dtype(dtype).itemsize == 0 and nbytes > _MAX_META_BYTES:
                    raise self.corrupt(f"{key} declares {nbytes} bytes "
                                       f"(limit {_MAX_META_BYTES})")
                if info.file_size - stream.tell() != nbytes:
                    raise self.corrupt(f"{key} holds {info.file_size - stream.tell()} "
                                       f"data bytes, its header declares {nbytes}")
                data = stream.read(nbytes)
        except KeyError:
            raise self.corrupt(f"no {key!r} entry") from None
        except (zipfile.BadZipFile, EOFError) as error:
            raise self.corrupt(f"{key}: {error}") from error
        if len(data) != nbytes:
            raise self.corrupt(f"{key} is truncated")
        return np.frombuffer(data, dtype=found_dtype).reshape(found_shape)

    def meta(self) -> Dict[str, Any]:
        if _META_KEY not in self.keys:
            raise ValueError(f"{self.path!r} is not a DeployableArtifact bundle "
                             f"(missing {_META_KEY!r} entry)")
        text = self.read(_META_KEY, np.str_, ())
        try:
            return json.loads(str(text[()]))
        except ValueError as error:
            raise self.corrupt(f"{_META_KEY}: {error}") from error

    def restore(self, model: Module) -> MaskSet:
        """Load every ``state::`` entry into ``model``; returns the stored masks.

        A masked parameter is zeroed and its kept values scattered straight
        into it; the unpacked bits are viewed as the boolean mask, never
        copied to another bool or uint8 array.
        """
        targets: Dict[str, np.ndarray] = {name: param.data
                                          for name, param in model.named_parameters()}
        targets.update(model.named_buffers())
        stored = {key[len(_STATE_PREFIX):] for key in self.keys
                  if key.startswith(_STATE_PREFIX)}
        masks = MaskSet()
        for key in self.keys:
            if not key.startswith(_MASK_PREFIX):
                continue
            name = key[len(_MASK_PREFIX):]
            target = targets.get(name)
            if target is None or name not in stored:
                raise self.corrupt(f"{key} has no matching model parameter "
                                   f"and {_STATE_PREFIX}{name} entry")
            packed = self.read(key, np.uint8, (-(-target.size // 8),))
            keep = np.unpackbits(packed, count=target.size).view(bool)
            keep = keep.reshape(target.shape)
            values = self.read(_STATE_PREFIX + name, np.float32,
                               (int(np.count_nonzero(keep)),))
            target.fill(0)
            target[keep] = values
            layer_name, _, parameter_name = name.rpartition(".")
            masks.add(PruningMask(layer_name, parameter_name, keep))
        for name in stored:
            if name in masks:
                continue
            target = targets.get(name)
            if target is None:
                raise self.corrupt(f"{_STATE_PREFIX}{name} matches no model "
                                   f"parameter or buffer")
            target[...] = self.read(_STATE_PREFIX + name, target.dtype, target.shape)
        missing = sorted(targets.keys() - stored)
        if missing:
            raise self.corrupt(f"no {_STATE_PREFIX} entry for {missing[:5]}")
        return masks


def _jsonable(value: Any) -> Any:
    """Recursively coerce numpy scalars so ``json.dumps`` accepts the metadata."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value
