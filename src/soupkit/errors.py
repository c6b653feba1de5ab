"""Exception kinds raised across the package.

Each failure category gets its own class so callers (and the CLI exit
code mapping) can tell them apart without parsing messages.
:func:`require_finite` is the finite-number check the config validators
share.
"""

from __future__ import annotations

import math
from numbers import Real
from typing import Sequence


class SoupkitError(Exception):
    """Base class for all library errors."""


class ConfigError(SoupkitError):
    """Invalid configuration value, unknown key, or malformed config file."""


class CheckpointFormatError(SoupkitError):
    """Checkpoint file format violation, such as a stored NaN; base of the kinds below."""


class BadMagicError(CheckpointFormatError):
    """File does not start with the checkpoint magic bytes."""


class FormatVersionError(CheckpointFormatError):
    """Checkpoint format version is not supported."""


class TruncatedFileError(CheckpointFormatError):
    """File ends before a declared region (header or tensor payload)."""


class DuplicateTensorError(CheckpointFormatError):
    """Header declares the same tensor name twice."""


class HeaderError(CheckpointFormatError):
    """Header is not parseable or declares inconsistent sizes."""


class DataFormatError(SoupkitError):
    """Malformed dataset file (bad row, label out of range, bad header) or sweep manifest."""


class ShapeMismatchError(SoupkitError):
    """Operands do not share tensor names/shapes, or lengths disagree."""


class NonFiniteError(SoupkitError):
    """A produced tensor contains NaN or infinity."""


class UndefinedAngleError(SoupkitError):
    """Angle requested against a zero-norm direction."""


class DegenerateBasisError(SoupkitError):
    """Plane directions are zero or parallel; no 2-D basis exists."""


class DivergenceError(SoupkitError):
    """Training loss became non-finite; message names the failing step."""


def require_finite(config: object, names: Sequence[str], optional: Sequence[str] = ()) -> None:
    """ConfigError unless each named field of ``config`` is a finite real number.

    Fields in ``optional`` may also be None.  Comparisons such as
    ``value < 0`` let NaN through, so config validators call this first.
    """
    for name in [*names, *optional]:
        value = getattr(config, name)
        if value is None and name in optional:
            continue
        if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")
