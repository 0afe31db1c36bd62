"""Exception types shared across the package."""


class QampError(Exception):
    """Base class for all errors raised by this package."""


class SizeError(QampError):
    """Qubit count outside the supported range."""


class ShapeMismatchError(QampError):
    """Operands defined over different state-space dimensions."""


class NormalizationError(QampError):
    """State norm drifted too far from 1 for the requested operation."""


class NoSolutionError(QampError):
    """Search requested over an empty marked set with the count assumed known."""


class InvalidParamsError(QampError):
    """Selection-probability parameters violate the boundary requirements."""


class CalibrationError(QampError):
    """No decay rate meets the requested expected selection count."""


class UnderAmplifiedError(QampError):
    """Sampling cap exhausted before enough distinct items were collected."""


class ConfigError(QampError):
    """Invalid harness configuration."""
