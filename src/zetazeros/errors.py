"""Exception types shared by every evaluator and the zero engine."""


class ZetaError(Exception):
    """Base class for all package-specific failures."""


class PoleProximity(ZetaError):
    """Requested point is within zeta.POLE_GUARD of a known pole candidate.

    ``source`` names the offending atom or factor when known.
    """

    def __init__(self, message, location=None, source=None):
        super().__init__(message)
        self.location = location
        self.source = source


class BudgetExceeded(ZetaError):
    """Error target unreachable under the configured term budget."""


class NotInConvergenceRegion(ZetaError):
    """Direct-summation oracle called outside its absolute-convergence margin."""


class OutOfRange(ZetaError):
    """Structural parameter (r, n, ...) outside the supported table range."""


class NearZeroOnContour(ZetaError):
    """A contour meets a zero as far as the error bounds tell: a sample's |F|
    is within its abs_err, or a segment stays uncertified at the bisection cap.

    Callers retry with a deterministic outward jitter.
    """

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class DepthExceeded(ZetaError):
    """A cell or a scan exhausted its evaluation budget."""


class ContourError(ZetaError):
    """Contour windings are inconsistent: they do not stabilise under
    refinement, a split cannot conserve them, or a count is negative."""


class ExprSyntaxError(ZetaError):
    """Expression text violates the grammar; ``position`` is the 0-based offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownFamily(ZetaError):
    """Unrecognized function name in an expression."""


class ArityError(ZetaError):
    """Known function called with the wrong number or kind of arguments."""
