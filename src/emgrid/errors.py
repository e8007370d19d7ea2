"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: DataFormatError and OSError to 1,
ConfigError to 2, AnalysisError to 3, and any other exception to 4.
"""


class EmgridError(Exception):
    """Base class for all errors raised by this package."""


class DataFormatError(EmgridError):
    """A file or record does not conform to its binary format."""


class ConfigError(EmgridError):
    """Invalid configuration or invalid argument combination."""


class AnalysisError(EmgridError):
    """An analysis precondition is not met (insufficient data, mixed keys, ...)."""
