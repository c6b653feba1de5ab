"""The records of ``soupkit.schema``: each checks itself when it is built, and
:func:`~soupkit.schema.decode` is the one JSON-object -> record path, typed by the
annotations.

The wrong-type tests walk ``dataclasses.fields`` of every record, and a
record missing from ``VALID`` fails a test, so a record or field added later
is covered without editing the walk.
"""

from __future__ import annotations

import dataclasses
import math
import types
import typing

import pytest

from soupkit import schema
from soupkit.errors import ConfigError
from soupkit.schema import (
    ArchSpec,
    CheckpointHeader,
    DatasetConfig,
    HyperConfig,
    PairEntry,
    RunConfig,
    SearchSpace,
    SweepEntry,
    SweepManifest,
    SweepSpec,
    TensorEntry,
    decode,
)

# A valid JSON object per record; the fields it leaves out keep their defaults.
VALID = {
    DatasetConfig: {},
    HyperConfig: {},
    SearchSpace: {},
    SweepSpec: {"count": 2, "master_seed": 0},
    RunConfig: {},
    SweepEntry: {"index": 0, "config": {}, "path": "m.ckpt", "val_accuracy": 0.5},
    SweepManifest: {"entries": [{"index": 0, "config": {}, "error": "x"}], "theta0_digest": "d"},
    ArchSpec: {"layer_widths": [4, 5, 3]},
    TensorEntry: {"name": "w", "shape": [2, 3], "offset": 0, "nbytes": 24},
    CheckpointHeader: {"tensors": [{"name": "w", "shape": [], "offset": 0, "nbytes": 4}],
                       "meta": {}},
    PairEntry: {"id": "a", "theta0": "a.ckpt", "theta1": "b.ckpt"},
}


def _valid_value(hint):
    """One JSON value of type ``hint``, to fill the other items of a tuple."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return _valid_value(args[0])
    if dataclasses.is_dataclass(hint):
        return VALID[hint]
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
        wrong = [good[:-1], good + good[-1:]] if args[-1] is not Ellipsis else []
        for i, item in enumerate(items):
            wrong += [good[:i] + [bad] + good[i + 1:] for bad in _wrong_values(item)]
        return [*wrong, 5, "s"]
    if dataclasses.is_dataclass(hint):
        return [5, "s", [], {"unknown_field": 1}]
    return {
        int: [True, False, 8.0, 1.5, "8", None],
        float: [math.nan, math.inf, -math.inf, "0.5", True, None],
        str: [5, 0.5, True, None, ["s"]],
        dict: [5, "s", [], None],
    }[hint]


def _built(value, hint):
    """JSON ``value`` as code passes it to a field of type ``hint``: lists become
    tuples, and the objects of VALID their records."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):  # X | None
        return _built(value, args[0])
    if dataclasses.is_dataclass(hint) and value == VALID[hint]:
        return decode(hint, value, "valid")
    if origin is tuple and isinstance(value, list):
        if args[-1] is Ellipsis:
            return tuple(_built(item, args[0]) for item in value)
        return tuple(value)
    return value


CASES = [
    pytest.param(cls, field.name, bad, id=f"{cls.__name__}.{field.name}={bad!r}")
    for cls in VALID
    for field in dataclasses.fields(cls)
    if field.init
    for bad in _wrong_values(typing.get_type_hints(cls)[field.name])
]


@pytest.mark.parametrize("cls, name, bad", CASES)
def test_decode_rejects_a_wrong_typed_value_in_every_field(cls, name, bad):
    with pytest.raises(ConfigError):
        decode(cls, {**VALID[cls], name: bad}, "where")


@pytest.mark.parametrize("cls, name, bad", CASES)
def test_building_a_record_with_a_wrong_typed_value_raises(cls, name, bad):
    valid = decode(cls, VALID[cls], "valid")
    values = {f.name: getattr(valid, f.name) for f in dataclasses.fields(cls) if f.init}
    with pytest.raises(ConfigError):
        cls(**{**values, name: _built(bad, typing.get_type_hints(cls)[name])})


def test_every_config_class_and_field_is_walked():
    declared = {obj for obj in vars(schema).values()
                if dataclasses.is_dataclass(obj) and obj.__module__ == schema.__name__}
    assert declared == set(VALID)
    assert {case.values[0] for case in CASES} == set(VALID)
    for cls in VALID:
        assert cls.__post_init__ is schema._Record.__post_init__
        named = {case.values[1] for case in CASES if case.values[0] is cls}
        assert named == {field.name for field in dataclasses.fields(cls) if field.init}


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
        (SearchSpace, {"lr_exponent_range": [-400, -350]}),
        (SearchSpace, {"wd_exponent_range": [-309, 1]}),
        (SweepManifest, {"entries": [], "directory": "."}),
    ],
    ids=["list", "null", "unknown-key", "missing-key", "too-few-widths", "zero-width",
         "entry-missing-index", "entry-unknown-key", "entry-without-error-or-path",
         "unordered-range", "lr-range-draws-an-infinite-rate", "wd-range-draws-an-infinite-rate",
         "manifest-directory-key"],
)
def test_decode_rejects_malformed_objects(cls, raw):
    with pytest.raises(ConfigError) as raised:
        decode(cls, raw, "where")
    known = {f.name for f in dataclasses.fields(cls) if f.init}
    unknown = sorted(raw.keys() - known) if isinstance(raw, dict) else []
    if unknown:  # named as unknown, never passed on to the constructor
        assert str(raised.value).startswith(f"where: unknown keys {unknown}, ")


def test_a_space_that_draws_an_infinite_rate_names_its_range():
    # 10**-exponent: 1e308 is finite, 1e309 is not
    decode(SearchSpace, {"wd_exponent_range": [-308, 1]}, "config.sweep.space")
    with pytest.raises(ConfigError, match=r"^config\.sweep\.space: wd_exponent_range "):
        decode(SearchSpace, {"wd_exponent_range": [-309, 1]}, "config.sweep.space")


def test_a_failed_entry_may_omit_its_path():
    entry = decode(SweepEntry, {"index": 3, "config": {}, "error": "DivergenceError: x"}, "e")
    assert entry.path is None and entry.val_accuracy is None


def test_a_record_walks_its_hints_only_on_first_use(monkeypatch):
    built = {cls: decode(cls, raw, "warm-up") for cls, raw in VALID.items()}

    def walked(*args, **kwargs):
        raise AssertionError("a record walked its type hints again")

    for name in ("get_origin", "get_args", "get_type_hints"):
        monkeypatch.setattr(typing, name, walked)
    for cls, record in built.items():
        assert decode(cls, VALID[cls], "again") == record
        assert cls(**{f.name: getattr(record, f.name)
                      for f in dataclasses.fields(cls) if f.init}) == record


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: HyperConfig(epochs=True), "epochs must be int, got True"),
        (lambda: HyperConfig(ema_decay="x"), "ema_decay must be float | None, got 'x'"),
        (lambda: ArchSpec([1, 2, 3]), "layer_widths must be tuple[int, ...], got [1, 2, 3]"),
        (lambda: SearchSpace(epochs_range=(1,)), "epochs_range must be tuple[int, int], got (1,)"),
        (lambda: SweepSpec(count=2, master_seed=0, space=5),
         "space must be soupkit.schema.SearchSpace | None, got 5"),
        (lambda: CheckpointHeader(tensors=(), meta=5), "meta must be dict, got 5"),
    ],
    ids=["int", "optional-float", "tuple-of-ints", "pair", "optional-record", "dict"],
)
def test_a_wrong_typed_field_names_its_type(build, message):
    with pytest.raises(ConfigError) as raised:
        build()
    assert str(raised.value) == f"{message} (floats must be finite, bools are not ints)"
