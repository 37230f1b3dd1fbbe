"""One home for every serving-layer exception, each with a stable wire code.

Before the gateway existed, serving errors were scattered where they were
first needed — :class:`QueueFullError` / :class:`ServiceClosedError` in
:mod:`repro.serving.batcher`, :class:`WorkerUnavailableError` next to them
(for import-direction reasons), :class:`RemoteInferenceError` in
:mod:`repro.serving.cluster.worker`.  A network front door needs something
those call sites never did: a **stable, serializable identity** per failure
mode, so a rejection can cross the wire as an error frame and be rehydrated
as the same exception class on the other side.

Every class here carries a ``code`` — a short stable string that is part of
the wire protocol (``docs/gateway.md`` documents the full table).  Codes are
append-only: renaming or reusing one breaks old clients.

This module is the one home: import the classes from here (or from
:mod:`repro.serving`), not from the modules that raise them.

Two hops speak these codes:

* the gateway's TCP error frames (``kind="error"``, ``meta["code"]``),
* the cluster pipe: a worker child stamps ``code`` on error frames so the
  router re-raises the *typed* exception instead of wrapping everything in
  :class:`RemoteInferenceError` (only genuine model failures get that).
"""

from __future__ import annotations

from typing import Dict, Type

__all__ = [
    "ADMISSION_ERROR_CODES",
    "AdmissionRejectedError",
    "BadRequestError",
    "DeadlineExceededError",
    "GatewayDisconnectedError",
    "QueueFullError",
    "RemoteInferenceError",
    "ServiceClosedError",
    "ServingError",
    "WIRE_ERRORS",
    "WorkerUnavailableError",
    "error_code",
    "error_from_wire",
]


class ServingError(RuntimeError):
    """Base of every serving-layer failure; ``code`` is its wire identity."""

    #: Stable wire code (part of the gateway/cluster frame protocol).
    code = "serving_error"


class QueueFullError(ServingError):
    """Raised on admission when the request queue is at ``queue_capacity``."""

    code = "queue_full"


class ServiceClosedError(ServingError):
    """Raised on admission after the batcher/service/gateway has shut down."""

    code = "service_closed"


class WorkerUnavailableError(ServingError):
    """A submit targeted a worker (or cluster) with no live process."""

    code = "worker_unavailable"


class RemoteInferenceError(ServingError):
    """An inference request failed *inside* a worker (the model raised)."""

    code = "remote_error"


class DeadlineExceededError(ServingError):
    """The request's deadline passed before it could be executed.

    Raised in two distinct places with one meaning — this work is no longer
    worth doing:

    * at **admission**, when the deadline already passed or the queue's
      expected wait alone would blow it (reject up front, do not queue),
    * while **queued**, when the deadline expires before the batcher reaches
      the request (dropped — an expired request is never executed).
    """

    code = "deadline_exceeded"


class AdmissionRejectedError(ServingError):
    """Turned away by admission control before reaching the request queue.

    Covers the gateway's per-client token bucket and in-flight bound, and a
    queued low-priority request preempted (evicted) to admit a higher class.
    """

    code = "admission_rejected"


class BadRequestError(ServingError):
    """A malformed request frame (unknown kind, bad priority, bad shape)."""

    code = "bad_request"


class GatewayDisconnectedError(ServingError):
    """The gateway TCP connection dropped and bounded reconnects failed.

    Raised by :class:`repro.serving.gateway.GatewayClient` after its one
    reconnect-and-retry attempt is exhausted: for requests in flight when the
    connection died (whose outcome is unknowable — the server may or may not
    have executed them) and for submits attempted while the link stays down.
    """

    code = "gateway_disconnected"


#: code -> class, for rehydrating wire error frames.  Append-only: built once
#: at import, never mutated (a write-once constant table, not shared state).
# reprolint: disable=mutable-global
WIRE_ERRORS: Dict[str, Type[ServingError]] = {
    cls.code: cls
    for cls in (
        ServingError,
        QueueFullError,
        ServiceClosedError,
        WorkerUnavailableError,
        RemoteInferenceError,
        DeadlineExceededError,
        AdmissionRejectedError,
        BadRequestError,
        GatewayDisconnectedError,
    )
}

#: Codes a load generator counts as *rejections* (admission control working
#: as designed) rather than failures.
ADMISSION_ERROR_CODES = frozenset(
    {"queue_full", "worker_unavailable", "admission_rejected", "deadline_exceeded"}
)


def error_code(error: BaseException) -> str:
    """The wire code of ``error`` (``internal_error`` for non-serving types)."""
    return getattr(error, "code", "internal_error")


def error_from_wire(code: str, message: str) -> ServingError:
    """Rehydrate an error frame as its typed exception (base class fallback)."""
    return WIRE_ERRORS.get(code, ServingError)(message)
