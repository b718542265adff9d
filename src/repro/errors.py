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


class SchedulingError(TdpError):
    """Base class for serving/admission failures (see repro.core.scheduler)."""


class ServerOverloaded(SchedulingError):
    """The request was shed by admission control.

    Raised synchronously by ``QueryScheduler.submit`` (and therefore by
    ``Session.submit``/``aquery``) when the queue-depth cap is reached, or
    when the observed queue wait already exceeds the request's ``deadline``
    hint. The network server maps it to an HTTP 503 with a typed JSON body.
    """

    def __init__(self, message: str, reason: str = "queue_full"):
        super().__init__(message)
        self.reason = reason


class QueryDeadlineExceeded(SchedulingError):
    """The request's ``deadline`` hint lapsed while it waited in the queue.

    Deadline-expired work is dropped at dequeue time instead of executed:
    running a query whose client has already timed out only steals capacity
    from requests that can still meet their SLO.
    """
