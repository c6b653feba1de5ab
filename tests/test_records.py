"""Every soupkit record is a dataclass that generates no code (:class:`soupkit.schema.Record`).

Each record class is checked against a twin that ``dataclasses.make_dataclass`` builds
with the same fields and frozenness: the two must agree on repr, ``==``, hash, frozen
assignment and deletion, and on a ``TypeError`` for a wrong call.  The record classes are
found by walking soupkit's modules, so a record added later is checked without editing
this file.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import soupkit
from soupkit.schema import (
    ArchSpec,
    CheckpointHeader,
    DatasetConfig,
    HyperConfig,
    PairEntry,
    Record,
    RunConfig,
    SearchSpace,
    SweepEntry,
    SweepManifest,
    SweepSpec,
    TensorEntry,
)

MODULES = [importlib.import_module(f"soupkit.{module.name}")
           for module in pkgutil.iter_modules(soupkit.__path__)]
RECORDS = sorted((obj for module in MODULES for obj in vars(module).values()
                  if isinstance(obj, type) and dataclasses.is_dataclass(obj)
                  and obj.__module__ == module.__name__), key=lambda cls: cls.__qualname__)

# The records that are mutable, as plain ``@dataclass`` made them; every other is frozen.
MUTABLE = {"SweepManifest", "ApproxValidationReport", "Split", "Dataset", "SoupResult",
           "EvalReport", "AdamState", "TrainResult"}

# Field values that pass each checked record's rules.  A record of the other modules checks
# nothing, so it gets one string per field, which also hashes.
_ENTRY = {"index": 0, "config": HyperConfig(), "path": "m.ckpt", "val_accuracy": 0.5}
_TENSOR = {"name": "w", "shape": (2, 3), "offset": 0, "nbytes": 24}
CHECKED = {
    DatasetConfig: {"seed": 3},
    ArchSpec: {"layer_widths": (4, 5, 3)},
    HyperConfig: {"epochs": 2, "sam_rho": 0.05},
    SearchSpace: {"batch_size": 32},
    SweepSpec: {"count": 2, "master_seed": 0},
    RunConfig: {"arch": ArchSpec((4, 5, 3))},
    SweepEntry: _ENTRY,
    SweepManifest: {"entries": (SweepEntry(**_ENTRY),), "theta0_digest": "d"},
    TensorEntry: _TENSOR,
    CheckpointHeader: {"tensors": (TensorEntry(**_TENSOR),), "meta": {"k": 1}},
    PairEntry: {"id": "a", "theta0": "a.ckpt", "theta1": "b.ckpt"},
}


def _values(cls: type) -> dict:
    """Every field of a valid ``cls`` record by name, in field order."""
    record = cls(**CHECKED.get(cls, {f.name: f"{f.name}-value" for f in dataclasses.fields(cls)}))
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(cls)}


def _twin(cls: type) -> type:
    """``cls`` as ``dataclasses`` would generate it: same fields, defaults and frozenness."""
    specs = [(f.name, f.type,
              dataclasses.field(default=f.default, default_factory=f.default_factory))
             for f in dataclasses.fields(cls)]
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=cls.__name__ not in MUTABLE)


def _outcome(call, *args):
    """What ``call(*args)`` gives: its value, or the type and text of what it raised."""
    try:
        return "returned", call(*args)
    except Exception as exc:  # noqa: BLE001 - the outcome is what is compared
        return "raised", type(exc), str(exc)


def _assign(obj, name):
    setattr(obj, name, "changed")
    return vars(obj)[name]


def _delete(obj, name):
    delattr(obj, name)
    return name in vars(obj)


def test_every_record_shares_records_methods():
    assert set(RECORDS) >= set(CHECKED)
    assert {cls.__name__ for cls in RECORDS} >= MUTABLE
    for cls in RECORDS:
        assert issubclass(cls, Record), cls
        assert (cls.__init__, cls.__repr__, cls.__eq__) == (
            Record.__init__, Record.__repr__, Record.__eq__), cls


def test_a_fresh_interpreter_importing_the_library_generates_no_dataclass_code():
    # dataclasses exec()s each generated method, and writes a docstring-less class's
    # docstring through inspect.signature: both are start-up cost that records avoid.
    code = """if True:
        import builtins, inspect, json, sys
        calls, real_exec, real_signature = [], builtins.exec, inspect.signature

        def exec_(*args, **kwargs):
            calls.append(["exec", sys._getframe(1).f_globals.get("__name__")])
            return real_exec(*args, **kwargs)

        def signature(*args, **kwargs):
            calls.append(["signature", sys._getframe(1).f_globals.get("__name__")])
            return real_signature(*args, **kwargs)

        builtins.exec, inspect.signature = exec_, signature
        import soupkit.analysis, soupkit.soups, soupkit.trainer
        print(json.dumps(calls))
    """
    src = str(Path(soupkit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60, check=True)
    calls = json.loads(proc.stdout)
    assert ["exec", "importlib._bootstrap"] in calls  # the probe sees each module's exec
    assert [call for call in calls if call[1] == "dataclasses"] == []


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_behaves_as_its_generated_dataclass_twin(cls):
    twin, values = _twin(cls), _values(cls)
    record, double = cls(**values), twin(**values)
    assert list(vars(record)) == list(values)  # vars(), and so the files, in field order
    assert cls(*values.values()) == record
    assert _outcome(repr, record) == _outcome(repr, double)
    assert _outcome(hash, record) == _outcome(hash, double)
    assert (record == cls(**values), double == twin(**values)) == (True, True)
    assert (record != cls(**values), double != twin(**values)) == (False, False)
    assert record.__eq__(double) is double.__eq__(record) is NotImplemented
    last = dataclasses.fields(cls)[-1].name
    for obj in (record, double):  # an unequal copy, made past any frozen __setattr__
        changed = copy.copy(obj)
        vars(changed)[last] = object()
        assert obj != changed
    for act in (_assign, _delete):
        assert _outcome(act, copy.copy(record), last) == _outcome(act, copy.copy(double), last)
    assert dataclasses.asdict(record) == dataclasses.asdict(double)
    assert dataclasses.replace(record, **{last: values[last]}) == record


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_wrong_call_raises_type_error_as_the_twin_does(cls):
    twin, values = _twin(cls), _values(cls)
    first, *_ = values
    required = [f.name for f in dataclasses.fields(cls)
                if f.default is f.default_factory is dataclasses.MISSING]
    calls = [  # (positional, keyword, what the record's message says)
        ((*values.values(), None), {},
         f"takes {len(values)} positional arguments, got {len(values) + 1}"),
        ((values[first],), values, f"got multiple values for argument {first!r}"),
        ((), {**values, "unexpected": 1}, "got an unexpected keyword argument 'unexpected'"),
    ]
    if required:
        calls.append(((), {k: v for k, v in values.items() if k != required[-1]},
                      f"missing required arguments {required[-1:]}"))
    for args, kwargs, message in calls:
        with pytest.raises(TypeError):
            twin(*args, **kwargs)
        with pytest.raises(TypeError) as raised:
            cls(*args, **kwargs)
        assert str(raised.value) == f"{cls.__name__}() {message}"


def test_a_default_factory_runs_once_per_record():
    assert RunConfig().dataset == DatasetConfig()
    assert RunConfig().dataset is not RunConfig().dataset


def test_a_record_without_a_docstring_names_its_fields():
    assert HyperConfig.__doc__.startswith("HyperConfig(learning_rate, weight_decay, epochs, ")
    assert SearchSpace.__doc__.startswith("Sampling ranges")  # its own is kept
