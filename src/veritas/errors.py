"""Shared exception and warning types.

Every error the package raises on purpose derives from VeritasError so the
CLI can map them to a single exit code.
"""


class VeritasError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(VeritasError):
    """Invalid configuration value or unusable argument combination."""


class DataError(VeritasError):
    """Malformed dataset, fold file, checkpoint or record payload."""


class ShapeError(VeritasError):
    """Array dimensions do not line up."""


class InvalidInput(VeritasError):
    """Numerically unusable input, e.g. non-finite logits."""


class DataWarning(UserWarning):
    """Recoverable data irregularity that was repaired or defaulted."""
