"""Exception hierarchy for the TDP reproduction.

Every layer raises a subclass of :class:`TdpError` so callers can catch
engine failures without also swallowing programming errors.
"""

from __future__ import annotations


class TdpError(Exception):
    """Base class for all errors raised by this library."""


class DeviceError(TdpError):
    """Raised on invalid device names or cross-device operations."""


class AutogradError(TdpError):
    """Raised on invalid gradient operations (e.g. backward on non-scalar)."""


class ShapeError(TdpError):
    """Raised when tensor shapes are incompatible for an operation."""


class EncodingError(TdpError):
    """Raised when column encodings are invalid or misused."""


class SqlError(TdpError):
    """Base class for SQL front-end failures."""


class SqlSyntaxError(SqlError):
    """Raised by the lexer/parser on malformed SQL text."""


class BindError(SqlError):
    """Raised when names or types cannot be resolved against the catalog."""


class PlanError(SqlError):
    """Raised when a logical plan cannot be lowered to a physical plan."""


class CatalogError(TdpError):
    """Raised on unknown/duplicate table or function registrations."""


class UdfError(TdpError):
    """Raised when a UDF/TVF declaration or invocation is invalid."""


class ExecutionError(TdpError):
    """Raised when a compiled query fails at run time."""


class ServerOverloaded(TdpError):
    """The request was shed by admission control.

    Raised synchronously by ``QueryScheduler.submit`` when the queued
    backlog is at its ``max_queue_depth`` cap. The network server maps it
    to an HTTP 503 with a typed JSON body.
    """

    reason = "queue_full"
