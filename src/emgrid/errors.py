"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: DataFormatError and OSError to 1,
ConfigError to 2, AnalysisError to 3, and any other exception to 4.
"""

import os
import traceback


class EmgridError(Exception):
    """Base class for all errors raised by this package."""


class DataFormatError(EmgridError):
    """A file or record does not conform to its binary format."""


class ConfigError(EmgridError):
    """Invalid configuration or invalid argument combination."""


class AnalysisError(EmgridError):
    """An analysis precondition is not met (insufficient data, mixed keys, ...)."""


def raised_at(exc: BaseException) -> str:
    """`file:line in function` of the frame that raised exc: the one a
    forked worker recorded (`worker_frame`, which parallel.forked_map sends
    with the worker's exception), else the innermost frame of exc's
    traceback."""
    at = getattr(exc, "worker_frame", None)
    if at is not None:
        return at
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"
