"""Exception hierarchy shared across the package."""


class ParamGridError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInstanceError(ParamGridError):
    """Problem data violates a structural requirement (schema, signs, shapes)."""


class DegenerateInstanceError(InvalidInstanceError):
    """Every objective component of every solution is zero; bounds are undefined."""


class DomainError(ParamGridError):
    """A parameter vector or weight lies outside its admissible domain."""


class EpsilonRangeError(ParamGridError):
    """The accuracy parameter is outside (0, 1)."""


class GridCapError(ParamGridError):
    """The requested grid exceeds the configured enumeration cap.

    ``size`` is the grid's point count, or with ``least`` a lower bound on it.
    """

    def __init__(self, size: int, cap: int, *, least: bool = False):
        # str() of a size past 4,300 digits raises, so name big ones by bit length
        if size.bit_length() > 64:
            shown = f"at least 2^{size.bit_length() - 1}"
        else:
            shown = f"at least {size}" if least else str(size)
        super().__init__(f"grid has {shown} points, exceeding the cap of {cap}")
        self.size = size
        self.cap = cap


class SnapRangeError(ParamGridError):
    """A snapped exponent fell outside [lb, ub]; indicates an upstream bug."""


class TooLargeError(ParamGridError):
    """An exhaustive enumeration was requested on an instance above its size guard."""


class OracleError(ParamGridError):
    """The solver failed at a specific parameter vector during a grid run.

    The message shows lambda as rationals and the cause's message, or its
    type when the message is empty (a ``MemoryError`` has none).
    """

    def __init__(self, lam, cause):
        shown = ", ".join(str(v) for v in lam)
        super().__init__(f"oracle failed at lambda=({shown}): {str(cause) or type(cause).__name__}")
        self.lam = lam
        self.cause = cause
