"""Exception kinds raised across the package.

Each failure category gets its own class so callers (and the CLI exit
code mapping) can tell them apart without parsing messages.
:func:`require_finite` and :func:`require_int` are the number checks the
config validators share.
"""

from __future__ import annotations

import math
from numbers import Integral, Real
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


def is_finite_number(value: object) -> bool:
    """True for a real number that is neither NaN nor infinite; a bool is not a number here."""
    return not isinstance(value, bool) and isinstance(value, Real) and math.isfinite(value)


def is_integer(value: object) -> bool:
    """True for an int (or NumPy integer); bool and integral floats such as 8.0 are not."""
    return not isinstance(value, bool) and isinstance(value, Integral)


def require_finite(config: object, names: Sequence[str], optional: Sequence[str] = ()) -> None:
    """ConfigError unless each named field of ``config`` is a finite real number.

    Fields in ``optional`` may also be None.  Comparisons such as
    ``value < 0`` let NaN through, so config validators call this first.
    """
    for name in [*names, *optional]:
        value = getattr(config, name)
        if value is None and name in optional:
            continue
        if not is_finite_number(value):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")


def require_int(config: object, names: Sequence[str]) -> None:
    """ConfigError unless each named field of ``config`` is an integer (see :func:`is_integer`).

    ``true`` passes ``epochs < 1`` as 1 and ``1.5`` reaches ``range()``,
    so config validators call this before their range checks.
    """
    for name in names:
        value = getattr(config, name)
        if not is_integer(value):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
