"""Exception types raised by gridtopo operations."""


class GridTopoError(Exception):
    """Base class for all gridtopo errors."""


class DegenerateExtent(GridTopoError):
    """An ambient axis spans fewer than one unit cell."""


class CellNotInComplex(GridTopoError):
    """A queried cell is not part of the complex closure."""


class Unreachable(GridTopoError):
    """No chain of k-cells connects the two query cells."""


class NoFittingCycle(GridTopoError):
    """No separating boundary cycle fits the ball of radius `level`."""

    def __init__(self, level, message):
        self.level = level
        super().__init__(message)


class NotSeparating(GridTopoError):
    """A cycle does not split the manifold into two components."""


class FillingNotFound(GridTopoError):
    """No filling exists within the configured size cap."""


class SearchBudgetExceeded(GridTopoError):
    """The exact filling search ran out of node budget."""


class InterpolationFailed(GridTopoError):
    """No elementary-move sequence was found within the move cap."""


class ReplacementNotManifold(GridTopoError):
    """An arc replacement produced an invalid manifold."""


class DimensionUnsupported(GridTopoError):
    """Contraction needs curves or surfaces: a set of points is no sphere."""

    def __init__(self, m):
        self.m = m
        super().__init__(f"needs a manifold of dimension m >= 1, got m={m}")


class CodimensionUnsupported(GridTopoError):
    """The operation requires the manifold to have codimension one."""


class ParseError(GridTopoError):
    """A fixture file failed to parse."""

    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class ValidationFailed(GridTopoError):
    """A loaded complex failed manifold validation."""

    def __init__(self, report):
        self.report = report
        super().__init__(f"validation failed: {report}")


class ReplayMismatch(GridTopoError):
    """Replaying a trace did not reproduce the recorded states."""
