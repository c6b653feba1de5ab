"""The config decoder: one JSON-object -> dataclass path, typed by the annotations.

The wrong-type test walks ``dataclasses.fields`` of every config class,
so a field added later is covered without editing this file.
"""

from __future__ import annotations

import dataclasses
import math
import types
import typing

import pytest

from soupkit.datagen import DatasetConfig
from soupkit.errors import ConfigError, decode
from soupkit.tinynet import ArchSpec
from soupkit.trainer import HyperConfig, SearchSpace, SweepEntry

# A valid JSON object per config class; the fields it leaves out keep their defaults.
VALID = {
    DatasetConfig: {},
    HyperConfig: {},
    SearchSpace: {},
    SweepEntry: {"index": 0, "config": {}, "path": "m.ckpt", "val_accuracy": 0.5},
    ArchSpec: {"layer_widths": [4, 5, 3]},
}


def _valid_value(hint):
    """One JSON value of type ``hint``, to fill the other items of a tuple."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return _valid_value(args[0])
    return {int: 1, float: 0.5, str: "s"}[hint]


def _wrong_values(hint) -> list:
    """JSON values a field annotated ``hint`` must reject."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):  # None is allowed; the other member is not
        (member,) = [arg for arg in args if arg is not type(None)]
        return [value for value in _wrong_values(member) if value is not None]
    if origin is tuple:
        items = [args[0]] * 3 if args[-1] is Ellipsis else list(args)
        good = [_valid_value(item) for item in items]
        wrong = [good[:-1], good + good[-1:]] if args[-1] is not Ellipsis else [good[:1]]
        for i, item in enumerate(items):
            wrong += [good[:i] + [bad] + good[i + 1:] for bad in _wrong_values(item)]
        return [*wrong, 5, "s"]
    if dataclasses.is_dataclass(hint):
        return [5, "s", [], {"unknown_field": 1}]
    return {
        int: [True, False, 8.0, 1.5, "8", None],
        float: [math.nan, math.inf, -math.inf, "0.5", True, None],
        str: [5, 0.5, True, None, ["s"]],
    }[hint]


CASES = [
    pytest.param(cls, field.name, bad, id=f"{cls.__name__}.{field.name}={bad!r}")
    for cls in VALID
    for field in dataclasses.fields(cls)
    for bad in _wrong_values(typing.get_type_hints(cls)[field.name])
]


@pytest.mark.parametrize("cls, name, bad", CASES)
def test_decode_rejects_a_wrong_typed_value_in_every_field(cls, name, bad):
    with pytest.raises(ConfigError):
        decode(cls, {**VALID[cls], name: bad}, "where")


def test_every_config_class_and_field_is_walked():
    assert {case.values[0] for case in CASES} == set(VALID)
    for cls in VALID:
        named = {case.values[1] for case in CASES if case.values[0] is cls}
        assert named == {field.name for field in dataclasses.fields(cls)}


def test_decode_builds_tuples_and_nested_configs():
    assert decode(ArchSpec, VALID[ArchSpec], "arch") == ArchSpec((4, 5, 3))
    space = decode(SearchSpace, {"epochs_range": [2, 3]}, "space")
    assert space == SearchSpace(epochs_range=(2, 3))
    entry = decode(SweepEntry, {**VALID[SweepEntry], "config": {"epochs": 2}}, "entry")
    assert entry.config == HyperConfig(epochs=2)
    for cls, raw in VALID.items():
        decode(cls, raw, "where")


@pytest.mark.parametrize(
    "cls, raw",
    [
        (HyperConfig, [1]),
        (HyperConfig, None),
        (HyperConfig, {"learning_rate": 0.1, "momentum": 0.9}),
        (ArchSpec, {}),
        (ArchSpec, {"layer_widths": [4, 3]}),
        (ArchSpec, {"layer_widths": [4, 0, 3]}),
        (SweepEntry, {"config": {}, "path": "m.ckpt", "val_accuracy": 0.5}),
        (SweepEntry, {**VALID[SweepEntry], "note": "x"}),
        (SweepEntry, {"index": 0, "config": {}}),
        (SearchSpace, {"lr_exponent_range": [4, 1]}),
    ],
    ids=["list", "null", "unknown-key", "missing-key", "too-few-widths", "zero-width",
         "entry-missing-index", "entry-unknown-key", "entry-without-error-or-path",
         "unordered-range"],
)
def test_decode_rejects_malformed_objects(cls, raw):
    with pytest.raises(ConfigError):
        decode(cls, raw, "where")


def test_a_failed_entry_may_omit_its_path():
    entry = decode(SweepEntry, {"index": 3, "config": {}, "error": "DivergenceError: x"}, "e")
    assert entry.path is None and entry.val_accuracy is None
