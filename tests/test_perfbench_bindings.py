"""The benchmark's tracer wraps soupkit functions by module and name.

``perfbench/tracing.py`` patches every name listed in its ``TARGETS``.
A refactor that moves or renames one of them would leave that layer
untraced (or the benchmark broken), so this guard fails first.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from soupkit import analysis, datagen, schema, soups, tensorstore, tinynet, trainer
from soupkit.tinynet import ArchSpec, init_checkpoint

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines functions and tables only
    return module


def test_every_traced_target_resolves():
    targets = _tracing().TARGETS
    assert targets
    for module_name, attr, span_name, _ in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{span_name}: {module_name}.{attr} is gone"
            owner = getattr(owner, part)
        assert callable(owner), span_name


def test_modules_bind_the_traced_functions_they_call():
    # The tracer patches every namespace holding the same object, so the
    # callers must hold the defining module's function, not a copy.
    assert soups.forward is tinynet.forward
    assert soups.combine is tensorstore.combine
    assert analysis.combine is tensorstore.combine
    assert tinynet.as_params is tensorstore.as_params


def test_flop_attributes_read_weight_shapes_from_checkpoints_and_params(tmp_path):
    # forward/grad64 FLOP counts read ``name in theta`` and
    # ``theta[name].shape`` from whatever the traced call was given.
    path = tmp_path / "m.ckpt"
    tensorstore.save(init_checkpoint(ArchSpec((4, 6, 5, 3)), seed=1), path)
    loaded = tensorstore.load(path)
    weight_sizes = _tracing()._weight_sizes
    assert weight_sizes(loaded) == weight_sizes(tinynet.as_params(loaded)) == [4 * 6, 6 * 5, 5 * 3]


@pytest.mark.parametrize(
    "module, name",
    [(trainer, name) for name in ("HyperConfig", "SearchSpace", "SweepEntry", "SweepManifest",
                                  "save_manifest", "load_manifest", "MIXUP_ALPHA_MAX")]
    + [(datagen, "DatasetConfig"), (tinynet, "ArchSpec")],
)
def test_records_moved_to_schema_stay_where_perfbench_finds_them(module, name):
    assert getattr(module, name) is getattr(schema, name)


def _loaded_modules(code: str) -> list[str]:
    """``sys.modules`` after a fresh interpreter runs ``code`` with soupkit importable."""
    src = str(Path(schema.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code += "; import json, sys; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60, check=True)
    return json.loads(proc.stdout)


def test_schema_loads_no_numpy():
    # Reading a config, manifest or header needs only the standard library.
    loaded = _loaded_modules("import soupkit.schema")
    assert [m for m in loaded if m.split(".")[0] == "numpy"] == []
    assert {m for m in loaded if m.startswith("soupkit")} == {
        "soupkit", "soupkit.schema", "soupkit.errors", "soupkit.fileio"}


# Python 3.12 renamed CPython's _sha256 to _sha2: a stand-in _sha2 holding 3.11's sha256.
_AS_ON_PYTHON_3_12 = ("import sys, types, _sha256; sha2 = types.ModuleType('_sha2'); "
                      "sha2.sha256 = _sha256.sha256; "
                      "sys.modules.update(_sha2=sha2, _sha256=None); ")


@pytest.mark.parametrize("prelude", [
    pytest.param("", id="this-python"),
    pytest.param(_AS_ON_PYTHON_3_12, id="python-3.12-module-name",
                 marks=pytest.mark.skipif(sys.version_info >= (3, 12), reason="_sha2 is real")),
])
def test_digests_load_no_openssl(prelude):
    # Checkpoint and config digests hash through CPython's own SHA-256, not hashlib's.
    ckpt_digest = tensorstore.content_digest(init_checkpoint(ArchSpec((4, 5, 3)), 0))
    loaded = _loaded_modules(
        prelude + "from soupkit.schema import HyperConfig; "
        "from soupkit.tensorstore import content_digest; "
        "from soupkit.tinynet import ArchSpec, init_checkpoint; "
        f"assert content_digest(init_checkpoint(ArchSpec((4, 5, 3)), 0)) == {ckpt_digest!r}; "
        f"assert HyperConfig().digest() == {schema.HyperConfig().digest()!r}")
    assert "soupkit.tensorstore" in loaded
    assert "_hashlib" not in loaded
