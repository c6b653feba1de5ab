"""Exception kinds raised across the package.

Each failure category gets its own class so callers (and the CLI exit
code mapping) can tell them apart without parsing messages.
:func:`decode` builds every config dataclass from parsed JSON, and
:func:`check_fields` type-checks its fields against their annotations,
so no validator keeps a list of field names for a type check.
"""

from __future__ import annotations

import dataclasses
import math
import types
import typing
from functools import lru_cache
from numbers import Integral, Real


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


# A config class's field annotations, resolved once per class.
_field_types = lru_cache(maxsize=None)(typing.get_type_hints)


def _matches(value: object, hint: object) -> bool:
    """True if ``value`` has type ``hint``; int and float mean the two checks above."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_matches(value, arg) for arg in args)
    if origin is tuple:
        if not isinstance(value, tuple):
            return False
        if args[-1:] == (Ellipsis,):
            return all(_matches(item, args[0]) for item in value)
        return len(value) == len(args) and all(map(_matches, value, args))
    if hint is int:
        return is_integer(value)
    if hint is float:
        return is_finite_number(value)
    return isinstance(value, hint)


def check_fields(obj: object) -> None:
    """ConfigError unless each field of the dataclass ``obj`` matches its annotation.
    NaN and ``true`` pass range checks, so validators call this first."""
    for name, hint in _field_types(type(obj)).items():
        value = getattr(obj, name)
        if not _matches(value, hint):
            shown = hint.__name__ if isinstance(hint, type) else hint
            raise ConfigError(f"{name} must be {shown}, got {value!r} (floats must be finite, "
                              "bools are not ints)")


def _convert(value: object, hint: object, where: str) -> object:
    if typing.get_origin(hint) is tuple and isinstance(value, list):
        return tuple(value)
    if dataclasses.is_dataclass(hint) and isinstance(value, dict):
        return decode(hint, value, where)
    return value


def decode(cls: type, raw: object, where: str):
    """The ``cls`` config from the JSON object ``raw``, checked by its ``validate()``
    or else :func:`check_fields`; lists become tuples and objects nested configs."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object, got {raw!r}")
    fields = _field_types(cls)
    unknown = sorted(set(raw) - set(fields))
    missing = [f.name for f in dataclasses.fields(cls) if f.name not in raw
               and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    if unknown or missing:
        raise ConfigError(f"{where}: unknown keys {unknown}, missing keys {missing}")
    try:
        obj = cls(**{k: _convert(v, fields[k], f"{where}.{k}") for k, v in raw.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    try:
        if hasattr(obj, "validate"):
            obj.validate()
        else:
            check_fields(obj)
    except ConfigError as exc:  # the checks do not know where the object came from
        raise ConfigError(f"{where}: {exc}") from exc
    return obj
