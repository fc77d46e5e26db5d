"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch a single base class. Subsystems raise the most specific subclass that
applies; error messages always include the offending value where practical.
"""

from __future__ import annotations

from typing import Tuple


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GeometryError(ReproError):
    """A geometric primitive is malformed or an operation is undefined."""


class InvalidPolygonError(GeometryError):
    """A polygon violates a structural invariant (too few vertices,
    zero area, unclosed ring, self-intersecting shell where forbidden)."""


class ParseError(GeometryError):
    """A GeoJSON document could not be parsed."""


class GridError(ReproError):
    """A hierarchical-grid operation failed."""


class InvalidCellError(GridError):
    """A cell id is malformed (bad sentinel bit, face, or level)."""


class OutOfBoundsError(GridError):
    """A point lies outside the grid's domain (planar grids only)."""


class CoveringError(GridError):
    """A region covering could not be computed under the given limits."""


class ACTError(ReproError):
    """An Adaptive Cell Trie operation failed."""


class BuildError(ACTError):
    """Index construction failed (conflicting cells, exhausted levels)."""


class ArtifactCorruptError(ACTError):
    """A serialized index artifact failed an integrity check.

    Raised by :func:`repro.act.serialize.load_index` (and the standalone
    :func:`repro.act.serialize.verify_artifact`) when an ``.npz`` is
    truncated, a member's checksum disagrees with the embedded manifest,
    or the archive structure itself is unreadable. The serving lifecycle
    treats it as a NACK: the artifact is quarantined and the fleet keeps
    (or rolls back to) the previous generation."""


class CapacityError(ACTError):
    """A payload or structure exceeded its encodable capacity
    (e.g. more than 2**30 polygons, lookup table offset overflow)."""


class PrecisionError(ACTError):
    """The requested precision bound cannot be satisfied by the grid
    (finer than the grid's maximum level resolution)."""


class JoinError(ReproError):
    """A join pipeline was misconfigured or failed at runtime."""


class ServeError(ReproError):
    """A query-serving subsystem operation failed.

    Each serving class carries the wire ``status`` a front answers it
    with — the HTTP status code, and the binary ``OP_ERROR`` status —
    so the mapping from a failure to a status is made once, here (see
    :func:`wire_error` and :data:`ERROR_TABLE`)."""

    status = 500


class InvalidRequestError(ServeError):
    """A serving request is structurally malformed (e.g. mismatched
    batch array lengths, a body that is not JSON)."""

    status = 400


class FrameError(InvalidRequestError):
    """A frame, or an HTTP body's framing, the front refuses.

    ``fatal`` marks violations after which the byte stream cannot be
    re-synchronized (bad magic, unsupported version, oversized or
    malformed declared length) — the connection must close after the
    error reply. Non-fatal errors are per-frame (the framing itself was
    sound), so the connection stays usable.
    """

    def __init__(self, message: str, fatal: bool = False) -> None:
        super().__init__(message)
        self.fatal = fatal


class PayloadTooLargeError(FrameError):
    """An HTTP ``Content-Length`` over the 64 MiB frame limit: the body
    is left unread, so the connection cannot be reused."""

    status = 413


class ForbiddenError(ServeError):
    """An admin route was asked from a non-loopback peer."""

    status = 403


class NotFoundError(ServeError):
    """A request named a route or resource that does not exist."""

    status = 404


class UnknownIndexError(NotFoundError):
    """A request named an index the registry does not know."""


class ConflictError(ServeError):
    """An admin request conflicts with the registry's state (a duplicate
    register) or with another admin operation holding the fleet lock."""

    status = 409


class BudgetExceededError(ServeError):
    """A request's latency budget ran out before it could be served."""

    status = 503


class ConnectionLostError(ServeError):
    """A binary-protocol connection died (EOF, reset, or a timeout
    mid-frame) and the receive buffer cannot be trusted past the break.

    Raised by :class:`repro.serve.binproto.Client` once its reconnect
    budget is exhausted (or reconnecting is disabled); the partial frame
    is discarded, so a later call can never misparse stale bytes."""


#: The error table: one class per status a front answers a failure
#: with, in status order — the class that carries the status on the
#: server and the one the reference client raises for it
#: (:func:`repro.serve.binproto.raise_for_error`). docs/PROTOCOL.md's
#: "Error model" table is gated against it.
ERROR_TABLE = (InvalidRequestError, ForbiddenError, UnknownIndexError,
               ConflictError, PayloadTooLargeError, ServeError,
               BudgetExceededError)


def wire_error(exc: BaseException) -> Tuple[int, str]:
    """``(status, message)`` a front answers ``exc`` with: its class's
    ``status`` for a :class:`ServeError`, 500 for anything else (whose
    message then names its class)."""
    if isinstance(exc, ServeError):
        return exc.status, str(exc)
    return ServeError.status, f"{type(exc).__name__}: {exc}"


class DatasetError(ReproError):
    """A synthetic dataset generator received invalid parameters."""
