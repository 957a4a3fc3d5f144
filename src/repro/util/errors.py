"""Exception hierarchy for the repro package.

Every error raised deliberately by this package derives from
:class:`ReproError`, so callers can catch one base class at API
boundaries while still distinguishing failure families.

Two branches are structured further:

- :class:`FormatError` covers every *serialized artifact* this package
  reads or writes — gmon sample files (:class:`SampleFileError`), phase
  model artifacts (:class:`ModelFormatError`), and daemon checkpoints
  (:class:`CheckpointError`).  ``except FormatError`` catches "the bytes
  on disk are bad" regardless of which artifact they belong to.
- :class:`ServiceError` covers the phase-monitoring service.  Error
  *replies* from the daemon surface as :class:`RequestError` subclasses
  carrying the full reply payload; connection-level failures surface as
  :class:`ConnectionLostError` / :class:`RetryExhaustedError`.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (wrong range, shape, or type)."""


class ProfileDataError(ReproError):
    """Profile data is inconsistent (e.g. non-monotone cumulative series)."""


class ClusteringError(ReproError):
    """Clustering could not be performed (e.g. fewer points than clusters)."""


class CollectorError(ReproError):
    """The incremental-profile collector was misused or failed."""


class AppError(ReproError):
    """A workload application was misconfigured."""


class ProtocolError(ReproError):
    """A service wire-protocol frame is malformed or violates the protocol."""


# ----------------------------------------------------------------------
# serialized artifacts (one branch for "the bytes on disk are bad")
# ----------------------------------------------------------------------
class FormatError(ReproError):
    """A serialized artifact (gmon file, model, checkpoint) is malformed."""


class SampleFileError(FormatError):
    """A gmon sample file in a store is corrupt or truncated.

    Carries the offending path so callers (and the service ingest path)
    can report *which* dump went bad rather than crashing mid-load.
    """

    def __init__(self, path, cause: Exception) -> None:
        super().__init__(f"corrupt sample file {path}: {cause}")
        self.path = path
        self.cause = cause


class ModelFormatError(FormatError):
    """A phase-model artifact is corrupt, truncated, or version-mismatched."""


class CheckpointError(FormatError):
    """An ``incprofd`` checkpoint file is corrupt, truncated, or stale."""


class SegmentManifestError(FormatError):
    """A segment store's manifest is corrupt, truncated, or mismatched."""


# ----------------------------------------------------------------------
# service errors (wire-mappable: each carries a stable ``code``)
# ----------------------------------------------------------------------
class ServiceError(ReproError):
    """The phase-monitoring service was misused or is unavailable.

    ``code`` is a stable machine-readable identifier; the server copies
    it into error replies so clients can re-raise the matching subclass.
    """

    code = "error"


class RequestError(ServiceError):
    """The daemon answered a request with an error reply.

    ``reply`` is the full :class:`~repro.service.protocol.Reply`, so the
    payload (``outcome``, counters, ...) stays inspectable even when the
    client raises instead of returning it.
    """

    def __init__(self, message: str, reply=None) -> None:
        super().__init__(message)
        self.reply = reply

    @property
    def data(self) -> dict:
        return dict(self.reply.data) if self.reply is not None else {}


class UnknownStreamError(RequestError):
    """A request named a stream the daemon does not know (hello first?)."""

    code = "unknown-stream"


class StreamConflictError(RequestError):
    """A hello named a stream id that is already registered."""

    code = "stream-conflict"


class BackpressureError(RequestError):
    """A snapshot was refused because the stream's queue stayed full."""

    code = "backpressure"


class WrongWorkerError(RequestError):
    """A worker refused a stream the current ring assigns elsewhere.

    Raised after a rebalance when a request reaches the old owner.  The
    reply data names the new owner (``worker_id``) and the
    ``ring_generation``; clients resend through the router, which
    resolves the owner again.
    """

    code = "wrong-worker"


class WorkerUnavailableError(RequestError):
    """The router could not reach the worker owning this stream.

    Transient by design: the supervisor will restart or evict the dead
    worker and rebalance; publishers should back off and retry through
    the resume handshake rather than dropping the interval.
    """

    code = "worker-unavailable"


class ConnectionLostError(ServiceError):
    """The connection to the daemon died mid-request.

    The request may or may not have been processed — resume via a
    ``hello(resume=True)`` handshake rather than blindly resending.
    """

    code = "connection-lost"

    def __init__(self, message: str, cause: Optional[Exception] = None) -> None:
        super().__init__(message)
        self.cause = cause


class RetryExhaustedError(ServiceError):
    """Every retry attempt failed; ``cause`` is the last failure."""

    code = "retry-exhausted"

    def __init__(self, message: str, attempts: int,
                 cause: Optional[Exception] = None) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.cause = cause


#: Wire code -> exception class, used by clients to raise typed errors
#: from error replies.  Unknown codes map to plain :class:`RequestError`.
REQUEST_ERROR_CODES = {
    cls.code: cls
    for cls in (UnknownStreamError, StreamConflictError, BackpressureError,
                WrongWorkerError, WorkerUnavailableError)
}


def request_error_from_reply(reply) -> RequestError:
    """Build the typed exception matching an error reply's ``code``."""
    cls = REQUEST_ERROR_CODES.get(reply.data.get("code", ""), RequestError)
    return cls(reply.error or "request failed", reply=reply)
