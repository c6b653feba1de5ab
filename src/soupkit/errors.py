"""Exception kinds raised across the package.

There is one class per failure category, and the CLI maps each category
to its exit code; the message says which case of the category it is.
Records are read and checked in :mod:`soupkit.schema`, not here.
"""


class SoupkitError(Exception):
    """Base class for all library errors."""


class ConfigError(SoupkitError):
    """Invalid configuration value, unknown key, or malformed config file."""


class CheckpointFormatError(SoupkitError):
    """Malformed checkpoint file: bad magic or version, a truncated file, an
    unreadable or inconsistent header, a duplicate tensor name, or a stored NaN."""


class DataFormatError(SoupkitError):
    """Malformed dataset file (bad row, label out of range, bad header) or sweep manifest."""


class ShapeMismatchError(SoupkitError):
    """Tensors that do not form the network or do not match each other, or lengths disagree."""


class NonFiniteError(SoupkitError):
    """A produced tensor contains NaN or infinity."""


class DegenerateBasisError(SoupkitError):
    """A zero-norm direction (for an angle or a plane) or parallel plane directions."""


class DivergenceError(SoupkitError):
    """Training loss became non-finite; message names the failing step."""
