"""Fusion pass + fused executor: run a traced graph with zero steady-state allocation.

Takes the flat op list a :class:`~repro.engine.trace.GraphPlan` records and
lowers it into a :class:`FusedProgram` of raw-numpy ops over arena buffers
(:mod:`repro.engine.arena`):

* **BatchNorm folding** — an eval-mode BatchNorm that is the sole consumer of
  a compiled convolution is folded away entirely: its per-channel ``scale`` is
  multiplied into the plan's packed ``(O, K)`` weight matrix and its ``shift``
  absorbed into the bias (:meth:`repro.nn.layers.norm.BatchNorm2d.fold_params`).
  The folded copies belong to the fused op; the plan itself is untouched.
* **Activation epilogues** — ReLU / LeakyReLU / SiLU directly after a compiled
  convolution (or its folded BatchNorm) run in place on the GEMM output buffer
  instead of as separate passes with their own temporaries.
* **Arena execution** — every op writes into a buffer keyed by
  ``(op, role, shape)``; convolution gathers go through a single flat
  ``np.take(..., out=..., mode="clip")`` into the GEMM-ready column buffer
  (``as_strided`` window views where the gather is dense, i.e. no column was
  pruned), and the GEMM itself is ``np.matmul(W, cols, out=...)``.  After one
  warmup pass per input shape, a steady-state forward allocates nothing large;
  only the final outputs are copied out of the arena (they must survive the
  next forward).

BatchNorm folding changes the floating-point evaluation order (scales are
applied to weights before the GEMM instead of to activations after it), so
fused outputs match the dense model to ~1e-6 relative — well inside the 1e-5
equivalence bound every benchmark and artifact check enforces — but not
bit-for-bit.

Thread safety: a :class:`FusedProgram` is immutable after construction; each
executing thread checks out its own :class:`~repro.engine.arena.WorkspaceArena`
(thread-local), so concurrent forwards never share scratch buffers.
"""

from __future__ import annotations

import threading
import time
import weakref
from contextlib import contextmanager
from typing import Dict, List, Optional

import numpy as np

from repro.engine.arena import WorkspaceArena, merge_stats
from repro.engine.plan import MODE_POINTWISE, ConvPlan
from repro.engine.trace import (
    GraphPlan,
    OpNode,
    Slot,
    TraceError,
    _iter_tensors,
    fill_template,
)
from repro.nn.tensor import Tensor, no_grad

#: Activations that may run as an in-place GEMM epilogue on the conv output.
EPILOGUE_ACTS = ("relu", "leaky_relu", "silu")
#: Activations the executor can compute as raw numpy into an arena buffer.
RAW_ACTS = ("relu", "leaky_relu", "silu", "sigmoid", "tanh", "hardswish")


def _leaky_slope_supported(params: Dict) -> bool:
    """Whether a leaky_relu node's slope has a min/max raw kernel.

    ``leaky_relu(x)`` equals ``max(x, s*x)`` for ``0 <= s <= 1`` and
    ``min(x, s*x)`` for ``s >= 1``; a *negative* slope is neither, so those
    (pathological) modules replay through their own forward instead.
    """
    if params.get("act") != "leaky_relu":
        return True
    slope = params.get("negative_slope")
    return slope is not None and slope >= 0.0


def _contiguous(data: np.ndarray, arena: WorkspaceArena, key) -> np.ndarray:
    """Return C-contiguous float32 data, staging through the arena if needed."""
    if data.flags["C_CONTIGUOUS"] and data.dtype == np.float32:
        return data
    buf = arena.buffer(key, data.shape)
    np.copyto(buf, data)
    return buf


def _activation_kernel(tag: str, x: np.ndarray, out: np.ndarray,
                       scratch: np.ndarray, slope: Optional[float]) -> None:
    """The one raw activation kernel shared by the GEMM epilogue and ActOp.

    Writes ``act(x)`` into ``out``.  ``scratch`` may alias ``out`` (the
    stand-alone path reuses its output buffer as scratch) but must be distinct
    from ``x`` whenever ``x`` aliases ``out`` (the in-place epilogue passes a
    separate arena scratch).  Keeping a single implementation guarantees the
    epilogue and the stand-alone op can never drift numerically.
    """
    if tag == "relu":
        np.maximum(x, 0.0, out=out)
    elif tag == "leaky_relu":
        # For 0 <= slope <= 1, leaky_relu(x) == max(x, slope*x); for slope >= 1
        # it is min(x, slope*x).  Negative slopes are neither and never reach
        # here (guarded by _leaky_slope_supported at fuse time).
        np.multiply(x, slope, out=scratch)
        select = np.maximum if slope <= 1.0 else np.minimum
        select(x, scratch, out=out)
    elif tag == "silu":
        np.negative(x, out=scratch)
        np.exp(scratch, out=scratch)        # exp(-x); overflow -> inf -> 0, correct limit
        scratch += 1.0
        np.divide(x, scratch, out=out)      # x / (1 + exp(-x)) == x * sigmoid(x)
    elif tag == "sigmoid":
        # Mirror the dense kernel's +-60 clamp exactly.
        np.clip(x, -60.0, 60.0, out=scratch)
        np.negative(scratch, out=scratch)
        np.exp(scratch, out=scratch)
        scratch += 1.0
        np.reciprocal(scratch, out=out)
    elif tag == "tanh":
        np.tanh(x, out=out)
    elif tag == "hardswish":
        np.add(x, 3.0, out=scratch)
        np.clip(scratch, 0.0, 6.0, out=scratch)
        scratch *= x
        np.divide(scratch, 6.0, out=out)
    else:  # pragma: no cover - guarded by RAW_ACTS/EPILOGUE_ACTS at fuse time
        raise AssertionError(f"no raw kernel for activation {tag!r}")


def _apply_activation_inplace(tag: Optional[str], buf: np.ndarray,
                              arena: WorkspaceArena, key,
                              negative_slope: Optional[float]) -> None:
    """Apply an epilogue activation in place on the GEMM output buffer."""
    if tag is None:
        return
    # relu/tanh never touch scratch; skip the (per-op, reused) buffer for them.
    scratch = buf if tag in ("relu", "tanh") else arena.buffer((key, "act"), buf.shape)
    _activation_kernel(tag, buf, buf, scratch, negative_slope)


class _FusedOp:
    """Base class: one executable step of a fused program."""

    __slots__ = ("node", "out_slot")

    def __init__(self, node: OpNode) -> None:
        self.node = node
        self.out_slot = node.outputs[0]

    @property
    def key(self) -> int:
        return self.node.index

    def execute(self, values: List[Optional[np.ndarray]],
                arena: WorkspaceArena) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # Profiled-mode execution: only reached when an EngineProfiler is
    # attached, so the timing calls never touch the steady-state hot path.
    # Subclasses with an internal pipeline (the convs) override this to
    # attribute time to their phases.

    def profile_name(self) -> str:
        return self.node.name or f"{self.node.kind}#{self.key}"

    def op_kind(self) -> str:
        return self.node.kind

    def profile_mode(self) -> str:
        return getattr(self, "mode", "")

    def execute_profiled(self, values, arena, profiler) -> None:
        started = time.perf_counter()
        self.execute(values, arena)
        profiler.record_op(
            self.profile_name(), self.op_kind(), self.profile_mode(),
            time.perf_counter() - started)


class FusedConv(_FusedOp):
    """A compiled convolution with optionally folded BN and activation epilogue."""

    __slots__ = ("plan", "weight", "bias", "act", "act_slope", "in_slot",
                 "mode", "layer_name", "dense_gather", "observer")

    def __init__(self, node: OpNode, plan: ConvPlan) -> None:
        super().__init__(node)
        self.plan = plan
        self.layer_name = node.name
        self.in_slot = node.inputs[0]
        self.weight = np.ascontiguousarray(plan.weight_matrix, dtype=np.float32)
        self.bias = None if plan.bias is None else plan.bias.astype(np.float32)
        self.act: Optional[str] = None
        self.act_slope: Optional[float] = None
        #: Optional calibration hook ``observer(stage, layer_name, array)``
        #: called with the conv input ("in"), the post-bias GEMM output ("pre")
        #: and the post-activation output ("post").  None in steady state, so
        #: the hot path pays one attribute check per stage.
        self.observer = None
        self.mode = plan.mode
        # When pruning dropped no column at all, the gather is dense: a strided
        # window view copies straight into the column buffer with no index math.
        self.dense_gather = (plan.kept_columns.size == plan.total_columns
                             and plan.mode != MODE_POINTWISE)

    # ------------------------------------------------------------------ fusion
    def fold_batchnorm(self, scale: np.ndarray, shift: np.ndarray) -> None:
        """Fold eval-mode BN ``y = scale*x + shift`` into weights and bias."""
        weight = self.weight.astype(np.float64) * scale[:, None]
        self.weight = np.ascontiguousarray(weight, dtype=np.float32)
        bias = shift if self.bias is None else scale * self.bias.astype(np.float64) + shift
        self.bias = bias.astype(np.float32)
        self.mode += "+bn"

    def fuse_activation(self, tag: str, negative_slope: Optional[float]) -> None:
        self.act = tag
        self.act_slope = negative_slope
        self.mode += f"+{tag}"

    # --------------------------------------------------------------- execution
    def execute(self, values, arena) -> None:
        data = _contiguous(values[self.in_slot], arena, (self.key, "in"))
        if self.observer is not None:
            self.observer("in", self.layer_name, data)
        n, c, h, w = data.shape
        plan = self.plan
        out_channels = plan.out_channels

        if plan.kept_columns.size == 0:
            out_h, out_w = plan.output_hw(h, w)
            out = arena.buffer((self.key, "out"), (n, out_channels, out_h, out_w))
            if self.bias is None:
                out.fill(0.0)
            else:
                out[...] = self.bias.reshape(1, -1, 1, 1)
            self._epilogue(out, arena)
            values[self.out_slot] = out
            return

        if plan.mode == MODE_POINTWISE:
            gemm_in, (out_h, out_w) = self._pointwise_input(data, arena)
        else:
            gemm_in, (out_h, out_w) = self._gather_columns(data, arena)

        length = out_h * out_w
        out = arena.buffer((self.key, "out"), (n, out_channels, length))
        np.matmul(self.weight, gemm_in, out=out)
        if self.bias is not None:
            out += self.bias.reshape(1, -1, 1)
        if self.observer is not None:
            self.observer("pre", self.layer_name, out)
        self._epilogue(out, arena)
        if self.observer is not None:
            self.observer("post", self.layer_name, out)
        values[self.out_slot] = out.reshape(n, out_channels, out_h, out_w)

    def execute_profiled(self, values, arena, profiler) -> None:
        """Phase-attributed mirror of :meth:`execute` (gather/gemm/epilogue).

        Kept as a separate body so the unprofiled hot path stays free of
        timestamp calls; any behavioral change to :meth:`execute` must be
        mirrored here (the profiler tests compare both outputs).
        """
        started = time.perf_counter()
        data = _contiguous(values[self.in_slot], arena, (self.key, "in"))
        if self.observer is not None:
            self.observer("in", self.layer_name, data)
        n, c, h, w = data.shape
        plan = self.plan
        out_channels = plan.out_channels

        if plan.kept_columns.size == 0:
            out_h, out_w = plan.output_hw(h, w)
            out = arena.buffer((self.key, "out"), (n, out_channels, out_h, out_w))
            if self.bias is None:
                out.fill(0.0)
            else:
                out[...] = self.bias.reshape(1, -1, 1, 1)
            self._epilogue(out, arena)
            values[self.out_slot] = out
            profiler.record_op(
                self.profile_name(), self.op_kind(), self.mode,
                time.perf_counter() - started)
            return

        if plan.mode == MODE_POINTWISE:
            gemm_in, (out_h, out_w) = self._pointwise_input(data, arena)
        else:
            gemm_in, (out_h, out_w) = self._gather_columns(data, arena)
        gathered = time.perf_counter()

        length = out_h * out_w
        out = arena.buffer((self.key, "out"), (n, out_channels, length))
        np.matmul(self.weight, gemm_in, out=out)
        if self.bias is not None:
            out += self.bias.reshape(1, -1, 1)
        if self.observer is not None:
            self.observer("pre", self.layer_name, out)
        multiplied = time.perf_counter()
        self._epilogue(out, arena)
        if self.observer is not None:
            self.observer("post", self.layer_name, out)
        values[self.out_slot] = out.reshape(n, out_channels, out_h, out_w)
        finished = time.perf_counter()
        profiler.record_op(
            self.profile_name(), self.op_kind(), self.mode, finished - started,
            phases={
                "gather": gathered - started,
                "gemm": multiplied - gathered,
                "epilogue": finished - multiplied,
            })

    def _epilogue(self, buf: np.ndarray, arena: WorkspaceArena) -> None:
        _apply_activation_inplace(self.act, buf, arena, self.key, self.act_slope)

    def _pointwise_input(self, data, arena):
        plan = self.plan
        sh, sw = plan.stride
        if (sh, sw) != (1, 1):
            data = _contiguous(data[:, :, ::sh, ::sw], arena, (self.key, "stride"))
        n, c, out_h, out_w = data.shape
        length = out_h * out_w
        feat = data.reshape(n, c, length)
        if plan.pointwise_channels is not None:
            cols = arena.buffer(
                (self.key, "cols"), (n, plan.pointwise_channels.size, length))
            np.take(feat, plan.pointwise_channels, axis=1, out=cols, mode="clip")
            feat = cols
        return feat, (out_h, out_w)

    def _gather_columns(self, data, arena):
        plan = self.plan
        n, c, h, w = data.shape
        ph, pw = plan.padding
        if self.dense_gather:
            # No column was pruned: a strided window view replaces the gather
            # entirely, so the flat index array is never built.
            flat_index = None
            out_h, out_w = plan.output_hw(h, w)
            hp, wp = h + 2 * ph, w + 2 * pw
        else:
            flat_index, out_h, out_w, (hp, wp) = plan.fused_layout_for((c, h, w))
        if ph or pw:
            padded = arena.buffer((self.key, "pad"), (n, c, hp, wp), fill=0.0)
            # The zero halo is written once (at allocation); every call only
            # refreshes the interior, so steady state is a single strided copy.
            padded[:, :, ph:ph + h, pw:pw + w] = data
        else:
            padded = data
        k = plan.kept_columns.size
        length = out_h * out_w
        cols = arena.buffer((self.key, "cols"), (n, k, length))
        if self.dense_gather:
            kh, kw = plan.kernel_size
            sh, sw = plan.stride
            s0, s1, s2, s3 = padded.strides
            windows = np.lib.stride_tricks.as_strided(
                padded,
                shape=(n, c, kh, kw, out_h, out_w),
                strides=(s0, s1, s2, s3, s2 * sh, s3 * sw),
            )
            np.copyto(cols.reshape(n, c, kh, kw, out_h, out_w), windows)
        else:
            np.take(padded.reshape(n, -1), flat_index, axis=1, out=cols, mode="clip")
        return cols, (out_h, out_w)


class ScaleShiftOp(_FusedOp):
    """Stand-alone eval-mode BatchNorm: ``y = x*scale + shift`` per channel."""

    __slots__ = ("in_slot", "scale", "shift")

    def __init__(self, node: OpNode, scale: np.ndarray, shift: np.ndarray) -> None:
        super().__init__(node)
        self.in_slot = node.inputs[0]
        self.scale = scale.astype(np.float32).reshape(1, -1, 1, 1)
        self.shift = shift.astype(np.float32).reshape(1, -1, 1, 1)

    def execute(self, values, arena) -> None:
        x = values[self.in_slot]
        out = arena.buffer((self.key, "out"), x.shape)
        np.multiply(x, self.scale, out=out)
        out += self.shift
        values[self.out_slot] = out


class ActOp(_FusedOp):
    """Stand-alone elementwise activation into an arena buffer."""

    __slots__ = ("in_slot", "tag", "slope")

    def __init__(self, node: OpNode) -> None:
        super().__init__(node)
        self.in_slot = node.inputs[0]
        self.tag = node.params["act"]
        self.slope = node.params.get("negative_slope")

    def execute(self, values, arena) -> None:
        x = values[self.in_slot]
        out = arena.buffer((self.key, "out"), x.shape)
        # x is a different buffer than out here, so out doubles as scratch.
        _activation_kernel(self.tag, x, out, out, self.slope)
        values[self.out_slot] = out


class AddOp(_FusedOp):
    __slots__ = ("lhs", "rhs")

    def __init__(self, node: OpNode) -> None:
        super().__init__(node)
        self.lhs, self.rhs = node.inputs

    def execute(self, values, arena) -> None:
        out = arena.buffer((self.key, "out"),
                           np.broadcast_shapes(values[self.lhs].shape,
                                               values[self.rhs].shape))
        np.add(values[self.lhs], values[self.rhs], out=out)
        values[self.out_slot] = out


class EwiseOp(_FusedOp):
    """Recorded glue arithmetic: tensor<op>tensor or tensor<op>constant."""

    __slots__ = ("ufunc", "const", "const_first", "in_slots")

    def __init__(self, node: OpNode) -> None:
        super().__init__(node)
        self.ufunc = getattr(np, node.params["ufunc"])
        self.const = node.params.get("const")
        self.const_first = node.params.get("const_first", False)
        self.in_slots = node.inputs

    def execute(self, values, arena) -> None:
        if self.ufunc is np.negative:
            x = values[self.in_slots[0]]
            out = arena.buffer((self.key, "out"), x.shape)
            np.negative(x, out=out)
        elif self.const is None:
            a, b = (values[self.in_slots[0]], values[self.in_slots[1]])
            out = arena.buffer((self.key, "out"),
                               np.broadcast_shapes(a.shape, b.shape))
            self.ufunc(a, b, out=out)
        else:
            x = values[self.in_slots[0]]
            out = arena.buffer((self.key, "out"),
                               np.broadcast_shapes(x.shape, self.const.shape))
            if self.const_first:
                self.ufunc(self.const, x, out=out)
            else:
                self.ufunc(x, self.const, out=out)
        values[self.out_slot] = out


class ConcatOp(_FusedOp):
    __slots__ = ("in_slots", "axis")

    def __init__(self, node: OpNode) -> None:
        super().__init__(node)
        self.in_slots = node.inputs
        self.axis = node.params["axis"]

    def execute(self, values, arena) -> None:
        parts = [values[slot] for slot in self.in_slots]
        shape = list(parts[0].shape)
        shape[self.axis] = sum(part.shape[self.axis] for part in parts)
        out = arena.buffer((self.key, "out"), tuple(shape))
        np.concatenate(parts, axis=self.axis, out=out)
        values[self.out_slot] = out


class GetitemOp(_FusedOp):
    __slots__ = ("in_slot", "index")

    def __init__(self, node: OpNode) -> None:
        super().__init__(node)
        self.in_slot = node.inputs[0]
        self.index = node.params["index"]

    def execute(self, values, arena) -> None:
        # Basic indexing yields a view — free; ops never mutate their inputs,
        # so sharing the underlying buffer within one forward is safe.
        values[self.out_slot] = values[self.in_slot][self.index]


class MaxPoolOp(_FusedOp):
    __slots__ = ("in_slot", "kernel", "stride", "padding")

    def __init__(self, node: OpNode) -> None:
        super().__init__(node)
        self.in_slot = node.inputs[0]
        self.kernel = node.params["kernel"]
        self.stride = node.params["stride"]
        self.padding = node.params["padding"]

    def execute(self, values, arena) -> None:
        data = _contiguous(values[self.in_slot], arena, (self.key, "in"))
        n, c, h, w = data.shape
        kh, kw = self.kernel
        sh, sw = self.stride
        ph, pw = self.padding
        if ph or pw:
            hp, wp = h + 2 * ph, w + 2 * pw
            padded = arena.buffer((self.key, "pad"), (n, c, hp, wp), fill=-np.inf)
            padded[:, :, ph:ph + h, pw:pw + w] = data
        else:
            hp, wp = h, w
            padded = data
        out_h = (hp - kh) // sh + 1
        out_w = (wp - kw) // sw + 1
        s0, s1, s2, s3 = padded.strides
        windows = np.lib.stride_tricks.as_strided(
            padded,
            shape=(n, c, out_h, out_w, kh, kw),
            strides=(s0, s1, s2 * sh, s3 * sw, s2, s3),
        )
        out = arena.buffer((self.key, "out"), (n, c, out_h, out_w))
        np.amax(windows, axis=(4, 5), out=out)
        values[self.out_slot] = out


class UpsampleOp(_FusedOp):
    __slots__ = ("in_slot", "scale")

    def __init__(self, node: OpNode) -> None:
        super().__init__(node)
        self.in_slot = node.inputs[0]
        self.scale = node.params["scale"]

    def execute(self, values, arena) -> None:
        x = values[self.in_slot]
        n, c, h, w = x.shape
        s = self.scale
        out = arena.buffer((self.key, "out"), (n, c, h * s, w * s))
        out.reshape(n, c, h, s, w, s)[...] = x[:, :, :, None, :, None]
        values[self.out_slot] = out


class ModuleOp(_FusedOp):
    """Generic fallback: replay the module's own forward (allocates normally)."""

    __slots__ = ("module", "args_template", "out_slots")

    def __init__(self, node: OpNode) -> None:
        super().__init__(node)
        self.module = node.module
        self.args_template = node.params["args_template"]
        self.out_slots = node.outputs

    def execute(self, values, arena) -> None:
        args, kwargs = fill_template(
            self.args_template, lambda slot: Tensor(values[slot]))
        output = self.module(*args, **kwargs)
        flat = list(_iter_tensors(output))
        if len(flat) != len(self.out_slots):  # pragma: no cover - defensive
            raise RuntimeError(
                f"module {self.node.name!r} returned {len(flat)} tensors, "
                f"traced {len(self.out_slots)}")
        for slot, tensor in zip(self.out_slots, flat):
            values[slot] = tensor.data


# ------------------------------------------------------------------- fuse pass
def fuse_graph(graph: GraphPlan, plans: Dict[str, ConvPlan],
               fold_bn: bool = True, fuse_activations: bool = True) -> "FusedProgram":
    """Lower a traced graph into a :class:`FusedProgram`.

    Parameters
    ----------
    graph:
        The op-plan list from :func:`repro.engine.trace.trace_graph`.
    plans:
        ``layer name -> ConvPlan`` of the owning CompiledModel; conv nodes
        without a plan (grouped/depthwise fallbacks) replay their module.
    fold_bn / fuse_activations:
        Disable individual fusion rules (used by tests and ablations).
    """
    ops: List[_FusedOp] = []
    for node in graph.ops:
        if node.kind == "conv" and node.name in plans:
            ops.append(FusedConv(node, plans[node.name]))
        elif node.kind == "bn":
            scale, shift = node.module.fold_params()
            ops.append(ScaleShiftOp(node, scale, shift))
        elif (node.kind == "act" and node.params.get("act") in RAW_ACTS
                and _leaky_slope_supported(node.params)):
            ops.append(ActOp(node))
        elif node.kind == "add":
            ops.append(AddOp(node))
        elif node.kind == "ewise":
            ops.append(EwiseOp(node))
        elif node.kind == "concat":
            ops.append(ConcatOp(node))
        elif node.kind == "getitem":
            ops.append(GetitemOp(node))
        elif node.kind == "maxpool":
            ops.append(MaxPoolOp(node))
        elif node.kind == "upsample":
            ops.append(UpsampleOp(node))
        elif node.kind == "module" or node.module is not None:
            if "args_template" not in node.params:
                # Specialised node demoted here (e.g. unsupported activation):
                # rebuild the generic replay params from its 1-in/1-out shape.
                node.params["args_template"] = ((Slot(node.inputs[0]),), {})
                node.params["out_template"] = Slot(node.outputs[0])
            ops.append(ModuleOp(node))
        else:
            raise TraceError(f"op {node.kind!r} has no fused executor")

    # Consumer counts decide what may fuse: an op output that feeds more than
    # one consumer (or escapes as a model output) must stay materialized.
    consumers: Dict[int, int] = {}
    for op in ops:
        for slot in op.node.inputs:
            consumers[slot] = consumers.get(slot, 0) + 1
    for slot in graph.output_slots():
        consumers[slot] = consumers.get(slot, 0) + 1

    by_input: Dict[int, List[_FusedOp]] = {}
    for op in ops:
        for slot in op.node.inputs:
            by_input.setdefault(slot, []).append(op)

    removed: set = set()
    for op in ops:
        if not isinstance(op, FusedConv):
            continue
        if fold_bn:
            follower = _sole_consumer(op.out_slot, consumers, by_input, removed)
            if isinstance(follower, ScaleShiftOp):
                scale, shift = follower.node.module.fold_params()
                op.fold_batchnorm(scale, shift)
                op.out_slot = follower.out_slot
                removed.add(id(follower))
        if fuse_activations:
            follower = _sole_consumer(op.out_slot, consumers, by_input, removed)
            if isinstance(follower, ActOp) and follower.tag in EPILOGUE_ACTS:
                op.fuse_activation(follower.tag, follower.slope)
                op.out_slot = follower.out_slot
                removed.add(id(follower))

    steps = [op for op in ops if id(op) not in removed]
    return FusedProgram(graph, steps, bucket_safe=_batch_axis_preserved(graph))


def _batch_axis_preserved(graph: GraphPlan) -> bool:
    """Whether every model output provably carries the batch on axis 0.

    Batch-bucketing (padding a batch and slicing ``[:count]`` off every
    output) is only legal when that holds.  Flags propagate conservatively by
    op kind: raw kernels preserve the axis by construction; ``getitem`` only
    counts when it leaves axis 0 as a full slice; ``concat`` must not join on
    axis 0; replayed modules must have produced outputs whose traced leading
    dimension equals the traced batch (demoted 1-in/1-out nodes carry no
    shapes and are elementwise by construction).  Anything unprovable simply
    disables bucketing — the program still runs, unpadded.
    """
    flags: Dict[int, bool] = {graph.input_slot: True}
    for node in graph.ops:
        ins = [flags.get(slot, False) for slot in node.inputs]
        if node.kind in ("conv", "bn", "act", "maxpool", "upsample"):
            ok = bool(ins and ins[0])
        elif node.kind in ("add", "ewise"):
            ok = bool(ins) and all(ins)
        elif node.kind == "concat":
            ok = all(ins) and node.params.get("axis") != 0
        elif node.kind == "getitem":
            index = node.params.get("index")
            first = index[0] if isinstance(index, tuple) else index
            # isinstance first: `first == slice(None)` on an ndarray index
            # would yield an (ambiguous-truth) boolean array, not False.
            ok = (bool(ins and ins[0]) and isinstance(first, slice)
                  and first == slice(None))
        else:  # replayed module
            shapes = node.params.get("out_shapes")
            ok = bool(ins) and all(ins) and (
                shapes is None
                or all(shape and shape[0] == graph.example_batch for shape in shapes))
        for out_slot in node.outputs:
            flags[out_slot] = ok
    return all(flags.get(slot, False) for slot in graph.output_slots())


def _sole_consumer(slot: int, consumers: Dict[int, int],
                   by_input: Dict[int, List[_FusedOp]], removed: set):
    """The single op consuming ``slot``, or None if it fans out / escapes."""
    if consumers.get(slot, 0) != 1:
        return None
    candidates = [op for op in by_input.get(slot, []) if id(op) not in removed]
    return candidates[0] if len(candidates) == 1 else None


# --------------------------------------------------------------------- program
class FusedProgram:
    """An executable fused graph: flat op list + per-thread workspace arenas."""

    # reprolint lock-discipline contract: the weak-arena list is shared by
    # every serving thread's first forward and mutates only under its lock.
    _guarded_by_ = {"_arenas": "_arena_lock"}

    def __init__(self, graph: GraphPlan, steps: List[_FusedOp],
                 bucket_safe: bool = True) -> None:
        self.graph = graph
        self.steps = steps
        #: Whether batch-bucketing is provably output-safe for this graph
        #: (see :func:`_batch_axis_preserved`); unsafe graphs run unpadded.
        self.bucket_safe = bucket_safe
        self._tls = threading.local()
        # Weak references: an arena is kept alive by its owning thread's local
        # storage, so scratch buffers die with the thread instead of
        # accumulating for the life of the program (thread-per-request callers).
        self._arenas: List["weakref.ref[WorkspaceArena]"] = []
        self._arena_lock = threading.Lock()
        #: Program-wide EngineProfiler (``CompiledModel.enable_profiling``);
        #: ``None`` in steady state — the hot path pays one check per forward.
        self._profiler = None

    # ------------------------------------------------------------------ arenas
    def _arena(self) -> WorkspaceArena:
        arena = getattr(self._tls, "arena", None)
        if arena is None:
            arena = WorkspaceArena()
            self._tls.arena = arena
            with self._arena_lock:
                self._arenas = [ref for ref in self._arenas if ref() is not None]
                self._arenas.append(weakref.ref(arena))
        return arena

    def arena_stats(self) -> Dict[str, int]:
        """Aggregated hit/miss/buffer statistics across live threads' arenas.

        Arenas of exited threads are garbage-collected (weak references), so
        their counters drop out of the aggregate along with their buffers.
        """
        with self._arena_lock:
            arenas = [arena for ref in self._arenas
                      if (arena := ref()) is not None]
        return merge_stats(arenas)

    # ----------------------------------------------------------- profiling
    def set_profiler(self, profiler) -> None:
        """Attach/detach (``None``) a program-wide per-op profiler."""
        self._profiler = profiler

    @contextmanager
    def profiled(self, profiler):
        """Profile this thread's forwards only — the serving batcher uses
        this per traced batch so concurrent threads never share a sink."""
        self._tls.profiler = profiler
        try:
            yield profiler
        finally:
            self._tls.profiler = None

    def _active_profiler(self):
        profiler = getattr(self._tls, "profiler", None)
        return profiler if profiler is not None else self._profiler

    # --------------------------------------------------------------- execution
    def run(self, data: np.ndarray):  # reprolint: hot
        """Execute the fused program on raw NCHW input.

        When every model output provably carries the batch on axis 0
        (``bucket_safe``), the batch is padded up to the next power of two
        before executing (padding rows replicate the last real row and are
        discarded): inference runs in eval mode, where every batch row is
        independent, and bucketing bounds the arena to at most log2 buffer
        sets per geometry instead of one per distinct micro-batch size the
        serving batcher happens to form.  Graphs whose outputs do not provably
        keep the batch axis simply run unpadded.

        Returns the model's output structure as *fresh* numpy arrays — results
        never alias arena buffers, so callers (e.g. the serving layer handing
        slices to concurrent clients) can hold them across later forwards.

        Profiling (``repro.obs``): resolving the attached profiler is the one
        instrumentation cost the unprofiled path pays — two attribute reads
        and an ``is None`` branch per *forward* (not per op), gated ≤2% by
        ``benchmarks/test_obs_overhead.py``.
        """
        return self._run(data, self._active_profiler())

    def _run(self, data: np.ndarray, profiler):  # reprolint: hot
        arena = self._arena()
        # Input normalization: already-contiguous float32 input (the serving
        # batcher's stacked batches) is a no-op view, anything else is a
        # one-off boundary copy before the zero-alloc steady state begins.
        data = np.ascontiguousarray(data, dtype=np.float32)  # reprolint: disable=hot-path-alloc
        count = data.shape[0]
        bucket = 1 << max(0, count - 1).bit_length()
        padded = self.bucket_safe and bucket != count
        if padded:
            staged = arena.buffer(("input", "bucket"), (bucket, *data.shape[1:]))
            staged[:count] = data
            # Pad with a replica of the last real row, not zeros: padded rows
            # then compute exactly what a real row computes, so a model that
            # e.g. divides by an input-derived quantity cannot produce FP
            # warnings/NaNs the unpadded run would not produce.
            staged[count:] = data[count - 1] if count else 0.0
            data = staged
        values: List[Optional[np.ndarray]] = [None] * self.graph.num_slots
        values[self.graph.input_slot] = data
        if profiler is None:
            with no_grad(), np.errstate(over="ignore"):
                for op in self.steps:
                    op.execute(values, arena)
        else:
            run_started = time.perf_counter()
            with no_grad(), np.errstate(over="ignore"):
                for op in self.steps:
                    op.execute_profiled(values, arena, profiler)
            profiler.record_run(time.perf_counter() - run_started)
        return fill_template(
            self.graph.output_template,
            # Mandatory copy-out: results must never alias arena buffers (the
            # next forward overwrites them under the caller's feet).
            # reprolint: disable=hot-path-alloc
            lambda slot: np.array(values[slot][:count] if padded else values[slot],
                                  dtype=np.float32, copy=True))

    # --------------------------------------------------------------- reporting
    def conv_modes(self) -> Dict[str, str]:
        """``layer name -> fused mode string`` for every compiled convolution."""
        return {op.layer_name: op.mode for op in self.steps
                if isinstance(op, FusedConv)}

    def __len__(self) -> int:
        return len(self.steps)
