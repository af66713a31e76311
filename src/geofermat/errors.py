"""Exception types shared across the package."""


class ProfileError(ValueError):
    """Invalid profile specification (bad parameters, bad samples)."""


class OffChartError(ValueError):
    """A point or parameter lies outside the surface chart."""


class ChartExitError(RuntimeError):
    """A geodesic left the chart during integration.

    Attributes
    ----------
    arc_length : float
        Arc length at which the chart boundary (u bounds or the axis
        guard) was reached.
    """

    def __init__(self, message: str, arc_length: float):
        super().__init__(f"{message} (exit at arc length {arc_length:.9g})")
        self.arc_length = arc_length


class SolveError(RuntimeError):
    """A numerical solve did not converge within its budget."""


class DegenerateTreeError(ValueError):
    """Branch directions coincide or terminals lie on one geodesic."""


class WeightDomainError(ValueError):
    """Weights admit no interior branching point."""


class UndefinedRatioError(RuntimeError):
    """A ratio is requested whose denominator carries no information."""


class ScenarioError(ValueError):
    """Scenario file failed to parse or validate.

    Attributes
    ----------
    field : str
        Dotted path of the offending field, empty for file-level errors.
    """

    def __init__(self, message: str, field: str = ""):
        super().__init__(f"{field}: {message}" if field else message)
        self.field = field
