"""Exception hierarchy shared by the library.

Domain errors on plain scalar arguments (e.g. a nonpositive decay exponent)
raise ``ValueError`` directly; the classes below name the failures of the
quantitative hypotheses the solvers depend on.
"""


class SplitflowError(Exception):
    """Base class for library-specific failures.

    A failed comparison of a number with its bound carries both, in the
    same units: ``measured`` and ``threshold`` (None when no number failed).
    """

    def __init__(self, message, measured=None, threshold=None):
        super().__init__(message)
        self.measured = measured
        self.threshold = threshold

    def record(self):
        """The failure as an output record: message, measured, threshold."""
        return {"error": str(self), "measured": self.measured,
                "threshold": self.threshold}


class ConfigurationError(SplitflowError):
    """Invalid grid, config file, or experiment description."""


class WindowError(SplitflowError):
    """A time window does not cover what an operation needs."""


class IntegrationError(SplitflowError):
    """Non-finite values or step underflow inside a numerical integration."""


class NonHyperbolicError(SplitflowError):
    """A spectrum touches the stability boundary within the gap tolerance."""


class ContractionMarginError(SplitflowError):
    """A fixed-point map is not contracting with the required margin."""


class RobustnessHypothesisError(SplitflowError):
    """A perturbation exceeds the smallness threshold of the robustness step."""


class ThresholdError(SplitflowError):
    """A requested neighborhood size exceeds what the nonlinearity allows."""
