"""Declarative run specifications: the serializable input of the pipeline.

A :class:`RunSpec` describes one end-to-end deployment run — which model to
build, which pruning framework to apply, whether to quantize, whether to
compile/measure with the execution engine, and how to evaluate — as a tree of
plain dataclasses that round-trips losslessly to/from dicts and JSON files::

    spec = RunSpec.from_json_file("examples/specs/tiny_rtoss3ep.json")
    spec.to_dict() == RunSpec.from_dict(spec.to_dict()).to_dict()   # True

Unknown keys are rejected (with the offending section and key named) so a typo
in a spec file fails loudly instead of silently running defaults.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, Type, TypeVar

SpecT = TypeVar("SpecT", bound="_SpecNode")

#: Routing policies a ServeSpec may name.  This is the serializable contract;
#: the implementations live in repro.serving.cluster.router, whose registry is
#: asserted to match this tuple (the spec layer must not import serving).
ROUTING_POLICY_NAMES = ("round-robin", "least-outstanding", "model-affinity")

#: Request priority classes a GatewaySpec may configure, best first.  Same
#: contract pattern as ROUTING_POLICY_NAMES: repro.serving.api asserts its
#: scheduler classes match this tuple (the spec layer must not import serving).
PRIORITY_CLASS_NAMES = ("high", "normal", "low")


class _SpecNode:
    """Shared dict/JSON plumbing for every spec dataclass."""

    @classmethod
    def from_dict(cls: Type[SpecT], data: Optional[Dict[str, Any]]) -> SpecT:
        """Build a spec from a plain dict, rejecting unknown keys."""
        if data is not None and not isinstance(data, dict):
            raise ValueError(f"{cls.__name__}: expected a mapping, "
                             f"got {type(data).__name__} ({data!r})")
        data = dict(data or {})
        allowed = {f.name: f for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - set(allowed))
        if unknown:
            raise ValueError(
                f"{cls.__name__}: unknown key(s) {unknown}; "
                f"allowed keys: {sorted(allowed)}")
        kwargs: Dict[str, Any] = {}
        for name, spec_field in allowed.items():
            if name not in data:
                continue
            value = data[name]
            node_type = _spec_node_type(spec_field)
            if node_type is not None:
                value = node_type.from_dict(value)
            kwargs[name] = value
        try:
            return cls(**kwargs)
        except TypeError as error:
            # Wrong-typed values (e.g. "trace_size": "64") surface as TypeError
            # from __post_init__ comparisons; keep the ValueError contract.
            raise ValueError(f"{cls.__name__}: invalid value ({error})") from error

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (tuples become lists, nested specs become dicts)."""
        out: Dict[str, Any] = {}
        for spec_field in dataclasses.fields(self):
            value = getattr(self, spec_field.name)
            if isinstance(value, _SpecNode):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            out[spec_field.name] = value
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls: Type[SpecT], text: str) -> SpecT:
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> str:
        """Write the spec as JSON to ``path`` (returns the path)."""
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")
        return path

    @classmethod
    def from_json_file(cls: Type[SpecT], path: str) -> SpecT:
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


def _str_tuple(value: Any, owner: str, field_name: str) -> Tuple[str, ...]:
    """Coerce a list of strings to a tuple, rejecting a bare string.

    ``tuple("head")`` would silently become ``('h', 'e', 'a', 'd')`` and match
    almost every layer name as a substring — fail loudly instead.
    """
    if isinstance(value, str):
        raise ValueError(f"{owner}.{field_name} must be a list of strings, "
                         f"got the string {value!r} (did you mean [{value!r}]?)")
    try:
        items = tuple(value)
    except TypeError:
        raise ValueError(f"{owner}.{field_name} must be a list of strings, "
                         f"got {value!r}") from None
    if not all(isinstance(item, str) for item in items):
        raise ValueError(f"{owner}.{field_name} must contain only strings, got {items!r}")
    return items


def _spec_node_type(spec_field: dataclasses.Field) -> Optional[Type["_SpecNode"]]:
    """The _SpecNode subclass of a dataclass field, if it holds a nested spec."""
    field_type = spec_field.type
    if isinstance(field_type, type) and issubclass(field_type, _SpecNode):
        return field_type
    # Under ``from __future__ import annotations`` field types are strings.
    if isinstance(field_type, str):
        candidate = globals().get(field_type)
        if isinstance(candidate, type) and issubclass(candidate, _SpecNode):
            return candidate
    return None


# ----------------------------------------------------------------------- sections
@dataclass
class ModelSpec(_SpecNode):
    """Which detector to build (resolved through :mod:`repro.models.registry`)."""

    #: Registry model name ('tiny', 'yolov5s', 'retinanet', ...).
    name: str = "tiny"
    #: Keyword arguments forwarded to the model factory (e.g. num_classes).
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("ModelSpec.name must be a non-empty model name")
        self.kwargs = dict(self.kwargs)


@dataclass
class FrameworkSpec(_SpecNode):
    """Which pruning framework to apply (resolved through the framework registry)."""

    #: Registry framework name or paper label ('rtoss-3ep', 'R-TOSS-3EP', 'nms', ...).
    name: str = "rtoss-3ep"
    #: Keyword overrides forwarded to the framework factory.
    overrides: Dict[str, Any] = field(default_factory=dict)
    #: Input resolution used to trace the graph for DFS grouping (Algorithm 1).
    trace_size: int = 64

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("FrameworkSpec.name must be a non-empty framework name")
        if self.trace_size < 32:
            raise ValueError(
                f"FrameworkSpec.trace_size must be >= 32 (detector strides need it), "
                f"got {self.trace_size}")
        self.overrides = dict(self.overrides)

    def example_shape(self) -> Tuple[int, int, int, int]:
        """Shape of the zero tensor used to trace the model."""
        return (1, 3, int(self.trace_size), int(self.trace_size))


@dataclass
class QuantizationSpec(_SpecNode):
    """Optional post-training quantization after pruning."""

    enabled: bool = False
    #: Bit width of the symmetric per-channel quantization (4, 8 or 16).
    bits: int = 8
    #: Layer-name substrings excluded from quantization.
    skip_names: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.bits not in (4, 8, 16):
            raise ValueError(f"QuantizationSpec.bits must be 4, 8 or 16, got {self.bits}")
        self.skip_names = _str_tuple(self.skip_names, "QuantizationSpec", "skip_names")


@dataclass
class EngineSpec(_SpecNode):
    """Compilation (and optional wall-clock measurement) with the execution engine."""

    enabled: bool = True
    #: Also time dense vs compiled inference on the host CPU.
    measure: bool = False
    #: Lower quantized convolutions to the integer hot path (uint8 activation
    #: codes x int8 weight codes, int32 accumulation).  Activation scales
    #: are calibrated on a seeded batch at compile time and recorded in the
    #: artifact so ``load()`` re-lowers into the same int path.
    int8: bool = False
    #: Input resolution of the measured forward passes.
    image_size: int = 64
    #: Measurement batch size.
    batch: int = 2
    #: Timing repeats (the median is reported).
    repeats: int = 3

    def __post_init__(self) -> None:
        if self.image_size < 32:
            raise ValueError(
                f"EngineSpec.image_size must be >= 32, got {self.image_size}")
        if self.batch < 1 or self.repeats < 1:
            raise ValueError("EngineSpec.batch and EngineSpec.repeats must be >= 1")


@dataclass
class EvaluationSpec(_SpecNode):
    """Analytic evaluation (latency/energy/size models + accuracy estimate)."""

    enabled: bool = True
    #: Input resolution the latency/energy models evaluate at (paper: 640).
    image_size: int = 64
    #: Resolution of the cost-model probe forward pass.
    probe_size: int = 64
    #: Baseline mAP anchor; None looks the model up in BASELINE_MAP (60.0 fallback).
    baseline_map: Optional[float] = None
    #: Platform keys or display names understood by repro.hardware.get_platform.
    platforms: Tuple[str, ...] = ("rtx_2080ti", "jetson_tx2")

    def __post_init__(self) -> None:
        if self.image_size < 32 or self.probe_size < 32:
            raise ValueError("EvaluationSpec image_size/probe_size must be >= 32")
        self.platforms = _str_tuple(self.platforms, "EvaluationSpec", "platforms")


@dataclass
class GatewaySpec(_SpecNode):
    """Network gateway configuration nested inside :class:`ServeSpec`.

    Consumed by ``repro serve --gateway`` and
    :class:`repro.serving.gateway.GatewayServer`: where to listen, the
    per-client admission-control knobs (token bucket + in-flight bound) and
    the per-priority-class SLO deadlines applied to requests that do not
    carry their own ``deadline_ms``.
    """

    #: Marks the artifact as intended for network serving (informational,
    #: like ServeSpec.enabled: `repro serve --gateway` serves any artifact).
    enabled: bool = False
    #: Listen address; port 0 binds an ephemeral port (tests, smoke runs).
    host: str = "127.0.0.1"
    port: int = 0
    #: Per-client token-bucket refill rate in requests/s; 0 disables the
    #: rate limiter (the in-flight bound still applies).
    rate_limit_rps: float = 0.0
    #: Token-bucket capacity (burst size) when the rate limiter is on.
    burst: int = 32
    #: Bound on one client's simultaneously in-flight requests.
    max_inflight_per_client: int = 64
    #: Priority class assigned to requests that do not name one.
    default_priority: str = "normal"
    #: Per-class SLO deadline in ms applied when a request carries none
    #: (e.g. {"high": 50.0}); classes absent here get no implied deadline.
    slo_ms: Dict[str, float] = field(default_factory=dict)
    #: Reject frames larger than this many MiB (malformed/hostile input).
    max_frame_mb: float = 64.0

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ValueError(f"GatewaySpec.port must be in [0, 65535], got {self.port}")
        if not self.host:
            raise ValueError("GatewaySpec.host must be non-empty")
        if self.rate_limit_rps < 0:
            raise ValueError(
                f"GatewaySpec.rate_limit_rps must be >= 0, got {self.rate_limit_rps}")
        if self.burst < 1:
            raise ValueError(f"GatewaySpec.burst must be >= 1, got {self.burst}")
        if self.max_inflight_per_client < 1:
            raise ValueError(
                f"GatewaySpec.max_inflight_per_client must be >= 1, "
                f"got {self.max_inflight_per_client}")
        if self.default_priority not in PRIORITY_CLASS_NAMES:
            raise ValueError(
                f"GatewaySpec.default_priority must be one of "
                f"{list(PRIORITY_CLASS_NAMES)}, got {self.default_priority!r}")
        if self.max_frame_mb <= 0:
            raise ValueError(
                f"GatewaySpec.max_frame_mb must be > 0, got {self.max_frame_mb}")
        self.slo_ms = dict(self.slo_ms)
        for name, value in self.slo_ms.items():
            if name not in PRIORITY_CLASS_NAMES:
                raise ValueError(
                    f"GatewaySpec.slo_ms key {name!r} is not a priority class "
                    f"(expected one of {list(PRIORITY_CLASS_NAMES)})")
            if not isinstance(value, (int, float)) or value <= 0:
                raise ValueError(
                    f"GatewaySpec.slo_ms[{name!r}] must be a positive number "
                    f"of milliseconds, got {value!r}")


@dataclass
class AutoscalerSpec(_SpecNode):
    """Elastic fleet sizing nested inside :class:`ClusterSpec`.

    Consumed by :class:`repro.serving.elastic.Autoscaler`: a supervisor loop
    that grows the Router's worker fleet when queue depth or the windowed p95
    latency breaches the targets below, and shrinks it back once load drains,
    with per-direction cooldowns so decisions do not flap.
    """

    enabled: bool = False
    #: Fleet bounds the autoscaler may move between (inclusive).
    min_workers: int = 1
    max_workers: int = 4
    #: Seconds between supervisor evaluations.
    interval_s: float = 0.5
    #: Scale up when mean queued-per-worker exceeds this ...
    scale_up_queue_depth: float = 4.0
    #: ... scale down when it falls below this (must stay < scale_up).
    scale_down_queue_depth: float = 1.0
    #: Also scale up when the windowed p95 latency exceeds this many ms
    #: (0 disables the latency trigger; queue depth still applies).
    slo_p95_ms: float = 0.0
    #: Minimum seconds between consecutive scale-ups / scale-downs.
    cooldown_up_s: float = 2.0
    cooldown_down_s: float = 10.0

    def __post_init__(self) -> None:
        if self.min_workers < 1:
            raise ValueError(
                f"AutoscalerSpec.min_workers must be >= 1, got {self.min_workers}")
        if self.max_workers < self.min_workers:
            raise ValueError(
                f"AutoscalerSpec.max_workers must be >= min_workers "
                f"({self.min_workers}), got {self.max_workers}")
        if self.interval_s <= 0:
            raise ValueError(
                f"AutoscalerSpec.interval_s must be > 0, got {self.interval_s}")
        if self.scale_up_queue_depth <= 0:
            raise ValueError(
                f"AutoscalerSpec.scale_up_queue_depth must be > 0, "
                f"got {self.scale_up_queue_depth}")
        if not 0 <= self.scale_down_queue_depth < self.scale_up_queue_depth:
            raise ValueError(
                f"AutoscalerSpec.scale_down_queue_depth must be in "
                f"[0, scale_up_queue_depth), got {self.scale_down_queue_depth}")
        if self.slo_p95_ms < 0:
            raise ValueError(
                f"AutoscalerSpec.slo_p95_ms must be >= 0, got {self.slo_p95_ms}")
        if self.cooldown_up_s < 0 or self.cooldown_down_s < 0:
            raise ValueError("AutoscalerSpec cooldowns must be >= 0")


@dataclass
class ChaosSpec(_SpecNode):
    """Seeded fault-injection schedule nested inside :class:`ServeSpec`.

    Consumed by ``repro chaos`` and
    :class:`repro.serving.chaos.FaultInjector`: which faults to inject, how
    often, and over what window.  Rates are independent Poisson/Bernoulli
    streams derived from one seed, so a drill replays the same fault
    schedule on every run.
    """

    enabled: bool = False
    #: Seed of every fault stream (crash/hang/heartbeat/frame schedules).
    seed: int = 0
    #: Quiet period after each worker (re)start before faults may fire —
    #: without it a crash-looping schedule never lets the fleet recover.
    warmup_s: float = 2.0
    #: Wall-clock length of the fault window; faults stop after it so the
    #: drill can measure recovery back to the pre-fault baseline.
    duration_s: float = 10.0
    #: Worker crash events per second (Poisson; os._exit inside the child).
    crash_rate: float = 0.0
    #: Worker hang events per second (Poisson; SIGSTOP — heartbeats stop but
    #: the process stays alive, exercising the heartbeat-timeout path).
    hang_rate: float = 0.0
    #: Probability each heartbeat frame is silently dropped (Bernoulli).
    heartbeat_drop_rate: float = 0.0
    #: Probability a channel frame is truncated mid-write (Bernoulli; the
    #: peer sees a torn frame -> ChannelClosedError -> recovery).
    torn_frame_rate: float = 0.0
    #: Probability a channel frame is delayed by slow_frame_ms before send.
    slow_frame_rate: float = 0.0
    slow_frame_ms: float = 0.0
    #: Artificial latency added to every gateway response write (ms).
    gateway_latency_ms: float = 0.0

    def __post_init__(self) -> None:
        self.seed = int(self.seed)
        if self.warmup_s < 0:
            raise ValueError(f"ChaosSpec.warmup_s must be >= 0, got {self.warmup_s}")
        if self.duration_s <= 0:
            raise ValueError(
                f"ChaosSpec.duration_s must be > 0, got {self.duration_s}")
        for name in ("crash_rate", "hang_rate"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or value < 0:
                raise ValueError(f"ChaosSpec.{name} must be >= 0 events/s, got {value!r}")
        for name in ("heartbeat_drop_rate", "torn_frame_rate", "slow_frame_rate"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not 0 <= value <= 1:
                raise ValueError(
                    f"ChaosSpec.{name} must be a probability in [0, 1], got {value!r}")
        if self.slow_frame_ms < 0 or self.gateway_latency_ms < 0:
            raise ValueError("ChaosSpec latency knobs must be >= 0 ms")

    def any_faults(self) -> bool:
        """True when at least one fault stream has a non-zero rate."""
        return any((
            self.crash_rate, self.hang_rate, self.heartbeat_drop_rate,
            self.torn_frame_rate, self.slow_frame_rate, self.gateway_latency_ms,
        ))


@dataclass
class ClusterSpec(_SpecNode):
    """Supervision/elasticity knobs nested inside :class:`ServeSpec`.

    Consumed by ``repro serve --workers N`` and
    :class:`repro.serving.cluster.Router`: the heartbeat liveness contract,
    the bounded exponential-backoff restart policy for crash-looping
    artifacts, graceful degradation, and the optional autoscaler.
    """

    #: Seconds between worker heartbeat frames.
    heartbeat_interval: float = 0.25
    #: Monitor declares a worker dead after this long without a heartbeat.
    heartbeat_timeout: float = 10.0
    #: Quick deaths tolerated per slot before the slot is abandoned.
    max_restart_attempts: int = 5
    #: A worker dying sooner than this after spawn counts as a quick death.
    min_worker_uptime: float = 1.0
    #: Restart backoff: ~base * 2^(failures-2) seconds with jitter, capped at
    #: max.  The first restart is immediate; backoff kicks in on repeats.
    restart_backoff_s: float = 0.1
    restart_backoff_max_s: float = 5.0
    #: While degraded (any slot abandoned/respawning), shed 'low'-priority
    #: requests at admission instead of queueing work the fleet cannot absorb.
    shed_low_priority: bool = True
    autoscaler: AutoscalerSpec = field(default_factory=AutoscalerSpec)

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError(
                f"ClusterSpec.heartbeat_interval must be > 0, "
                f"got {self.heartbeat_interval}")
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise ValueError(
                f"ClusterSpec.heartbeat_timeout must exceed heartbeat_interval "
                f"({self.heartbeat_interval}), got {self.heartbeat_timeout}")
        if self.max_restart_attempts < 1:
            raise ValueError(
                f"ClusterSpec.max_restart_attempts must be >= 1, "
                f"got {self.max_restart_attempts}")
        if self.min_worker_uptime < 0:
            raise ValueError(
                f"ClusterSpec.min_worker_uptime must be >= 0, "
                f"got {self.min_worker_uptime}")
        if self.restart_backoff_s < 0:
            raise ValueError(
                f"ClusterSpec.restart_backoff_s must be >= 0, "
                f"got {self.restart_backoff_s}")
        if self.restart_backoff_max_s < self.restart_backoff_s:
            raise ValueError(
                f"ClusterSpec.restart_backoff_max_s must be >= restart_backoff_s "
                f"({self.restart_backoff_s}), got {self.restart_backoff_max_s}")


@dataclass
class ServeSpec(_SpecNode):
    """Serving defaults baked into an artifact (consumed by ``repro serve``).

    These knobs configure :class:`repro.serving.InferenceService` /
    :class:`repro.serving.BatchPolicy` when the artifact is served; the
    ``requests`` / ``concurrency`` pair parameterizes the default
    load-generation run of the ``serve`` CLI subcommand.
    """

    #: Marks the artifact as intended for serving.  Informational: ``repro
    #: serve`` serves any artifact (printing a notice when this is false) —
    #: there is no serve stage in the pipeline to gate.
    enabled: bool = False
    #: Micro-batch closes at this many requests ...
    max_batch_size: int = 8
    #: ... or once its oldest request has waited this long (0 = no coalescing wait).
    max_wait_ms: float = 2.0
    #: Bounded admission queue; beyond it requests are rejected.
    queue_capacity: int = 256
    #: Resident-model bound of the serving ModelPool (LRU beyond it).
    pool_capacity: int = 2
    #: Warm loaded models with one forward pass before accepting traffic.
    warmup: bool = True
    #: Default load-generation volume of the `serve` CLI subcommand.
    requests: int = 64
    #: Default closed-loop client count of the `serve` CLI subcommand.
    concurrency: int = 8
    #: Worker processes the `serve` CLI drives; >1 serves through the
    #: multi-process cluster (repro.serving.cluster) instead of one in-process
    #: service, sharding load across cores.
    workers: int = 1
    #: Cluster routing policy (see repro.serving.cluster.available_routing_policies).
    routing: str = "round-robin"
    #: Network gateway configuration (repro serve --gateway / GatewayServer).
    gateway: GatewaySpec = field(default_factory=GatewaySpec)
    #: Cluster supervision/elasticity knobs (heartbeats, restart backoff,
    #: autoscaler) applied when workers > 1.
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    #: Seeded fault-injection schedule (repro chaos / FaultInjector).
    chaos: ChaosSpec = field(default_factory=ChaosSpec)

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError(
                f"ServeSpec.max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.max_wait_ms < 0:
            raise ValueError(f"ServeSpec.max_wait_ms must be >= 0, got {self.max_wait_ms}")
        if self.queue_capacity < 1:
            raise ValueError(
                f"ServeSpec.queue_capacity must be >= 1, got {self.queue_capacity}")
        if self.pool_capacity < 1:
            raise ValueError(
                f"ServeSpec.pool_capacity must be >= 1, got {self.pool_capacity}")
        if self.requests < 1 or self.concurrency < 1:
            raise ValueError("ServeSpec.requests and ServeSpec.concurrency must be >= 1")
        if self.workers < 1:
            raise ValueError(f"ServeSpec.workers must be >= 1, got {self.workers}")
        if self.routing not in ROUTING_POLICY_NAMES:
            raise ValueError(
                f"ServeSpec.routing must be one of {list(ROUTING_POLICY_NAMES)}, "
                f"got {self.routing!r}")


@dataclass
class RunSpec(_SpecNode):
    """One end-to-end deployment run: prune → (finetune) → quantize → compile → evaluate."""

    #: Display name of the run; also the default artifact stem.
    name: str = "run"
    #: Master seed threaded through utils.rng, the pruning config and the engine
    #: benchmark so the whole run is reproducible end to end.
    seed: int = 0
    model: ModelSpec = field(default_factory=ModelSpec)
    framework: FrameworkSpec = field(default_factory=FrameworkSpec)
    quantization: QuantizationSpec = field(default_factory=QuantizationSpec)
    engine: EngineSpec = field(default_factory=EngineSpec)
    evaluation: EvaluationSpec = field(default_factory=EvaluationSpec)
    serve: ServeSpec = field(default_factory=ServeSpec)
    #: Where Pipeline.run() saves the DeployableArtifact; None skips saving
    #: unless the caller (e.g. the CLI) chooses a path.
    artifact_path: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("RunSpec.name must be non-empty")
        self.seed = int(self.seed)

    @classmethod
    def load(cls, path: str) -> "RunSpec":
        """Alias of :meth:`from_json_file` (the CLI's ``run --spec`` entry point)."""
        return cls.from_json_file(path)
