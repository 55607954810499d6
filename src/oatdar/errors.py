"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: ConfigError -> 2 (an invalid geometry is
one), PrerequisiteError -> 3, NumericalError -> 4. A command turns a
ShapeError or TensorFileError of the file a flag names, and an OSError or
TensorFileError of a write to the file or directory a flag names, into a
ConfigError naming the flag. A missing or corrupt dataset file, or a stored
phantom or sinogram that does not fit the config's geometry, is a
ConfigError in every stage that reads it (``dataset.reading_dataset``); a
missing manifest is a PrerequisiteError. A corrupt checkpoint (a
TensorFileError of its bundle) is a ConfigError naming the checkpoint and
the ``train`` command that rewrites it (``training.load_checkpoint``).
Any other exception is a defect of the program and ends in a traceback.
"""


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
