"""Exception hierarchy.

Every error raised on purpose by this package derives from NetflowError so
callers can catch the whole family at once.  The CLI maps subclasses to
exit codes, so keep the distinctions meaningful.
"""


class NetflowError(Exception):
    """Base class for all package errors."""


class MalformedGraphError(NetflowError):
    """Graph structure or routing weights violate a hard requirement."""


class MalformedInputError(NetflowError):
    """A file or literal could not be parsed."""


class MissingVelocityError(NetflowError):
    """An edge was touched that has no velocity assigned."""


class NotRationalError(NetflowError):
    """An exact rational was required but something else arrived."""


class PrecisionError(NetflowError):
    """A time argument on an exact path was not an exact rational, an
    absorbed value overflowed a float, or a convergence ladder failed its
    gate (the Hoelder bound, or a resolvent ladder that lost ground)."""


class WrongOperatorError(NetflowError):
    """A velocity-scaled operator was passed where a plain one is required."""


class WidthOverflowError(NetflowError):
    """A run blew past a configured size: the subdivision width, an exact
    flow's stages times its edges or a resolvent's routing closure (both
    refused while a lazy graph is walked), or characteristic histories."""

    def __init__(self, message, edges=()):
        super().__init__(message)
        self.edges = tuple(edges)


class TruncationError(NetflowError):
    """A requested tolerance could not be reached within the term budget."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class ContractionViolationError(NetflowError):
    """A series step that must contract did not; the input graph is suspect."""
