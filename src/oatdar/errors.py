"""Exception hierarchy shared across the toolkit, and its one fault rule.

The CLI maps these onto exit codes: ConfigError -> 2 (an invalid geometry is
one), PrerequisiteError -> 3, NumericalError -> 4. A file the program reads
or writes is bad when reading, checking or writing it raises a file fault
(TensorFileError, ShapeError, OSError, UnicodeError, JSONDecodeError or
ConfigError), and :func:`blame` is the one place that turns a file fault
into a ConfigError naming the file's source: the flag that names it, the
config file, the dataset ("dataset failed validation") or the checkpoint
and the ``train`` command that rewrites it. A missing manifest or
checkpoint is a PrerequisiteError. Any other exception is a defect of the
program and ends in a traceback.
"""

import contextlib
import json


class OatdarError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(OatdarError, ValueError):
    """Bad config key or range; a ValueError raised by the code using it."""


class GeometryError(ConfigError):
    """Invalid imaging geometry (bad counts, detectors inside the grid, ...)."""


class SignalWindowError(GeometryError):
    """The time window is too short to record the farthest pixel's arrival."""


class ShapeError(OatdarError):
    """An array does not match the shape implied by geometry or config."""


class PrerequisiteError(OatdarError):
    """A pipeline stage was invoked before the stages it depends on."""


class NumericalError(OatdarError):
    """Divergence or non-finite values (losses, enhancer outputs, images)."""


class TensorFileError(OatdarError):
    """Corrupt, truncated, missing, or otherwise invalid on-disk tensor data."""


@contextlib.contextmanager
def blame(source, then: str = ""):
    """A file fault raised in this block is the :class:`ConfigError`
    ``f"{source}: {exc}{then}"``, naming ``source`` once: a fault whose
    message already starts with it is not prefixed again."""
    try:
        yield
    except (TensorFileError, ShapeError, OSError, UnicodeError,
            json.JSONDecodeError, ConfigError) as exc:
        named = str(exc).removeprefix(f"{source}: ")
        raise ConfigError(f"{source}: {named}{then}") from None
