"""Shared desk-scale fixtures: one dataset, one base model, one sweep, a
perturbed pair of small models, and a call counter.

The data and models are session-scoped so the (cheap) training runs happen
once per test run. Tests that need different data or hypers build their
own locally. Each run's summary ends with the numeric platform it ran on.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from soupkit import datagen, trainer
from soupkit.rng import PortableRng
from soupkit.tensorstore import Checkpoint
from soupkit.tinynet import ArchSpec, init_checkpoint


def _numeric_platform() -> str:
    """NumPy's version, its OpenBLAS core and its enabled dispatch targets; a
    part this NumPy does not expose (NumPy 1.x, another BLAS) reads "unknown"."""

    def probe(read) -> str:
        try:
            return read()
        except (ImportError, AttributeError, OSError):
            return "unknown"

    def core() -> str:
        import ctypes

        from numpy._core import _multiarray_umath as umath

        corename = ctypes.CDLL(umath.__file__).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()

    def dispatch() -> str:
        from numpy._core import _multiarray_umath as umath

        return " ".join(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t))

    return f"NumPy {np.__version__}, OpenBLAS {probe(core)}, dispatch {probe(dispatch)}"


def pytest_terminal_summary(terminalreporter):
    # Tier-1's pinned bytes hold on one OpenBLAS kernel and one NumPy dispatch
    # level (README, "Determinism and threading"), so every run names its own.
    terminalreporter.write_line(f"numeric platform: {_numeric_platform()}")


@pytest.fixture(scope="session")
def desk_dataset():
    cfg = datagen.DatasetConfig(
        input_dim=8,
        num_classes=4,
        num_train=256,
        num_val=192,
        num_test=160,
        num_shift=160,
        class_center_scale=1.5,
        within_class_std=1.0,
        seed=7,
    )
    return datagen.generate(cfg)


@pytest.fixture(scope="session")
def desk_base(desk_dataset):
    arch = ArchSpec((8, 16, 4))
    cfg = trainer.HyperConfig(
        learning_rate=0.01, weight_decay=1e-4, epochs=3, batch_size=64, seed=11
    )
    return trainer.pretrain(arch, desk_dataset, cfg)


@pytest.fixture(scope="session")
def desk_models(desk_base, desk_dataset):
    """Five fine-tunes of the shared base, varied lr / seed / smoothing."""
    recipes = [
        (0.02, 1, 0.0),
        (0.01, 2, 0.1),
        (0.005, 3, 0.0),
        (0.02, 4, 0.05),
        (0.01, 5, 0.0),
    ]
    models = []
    for lr, seed, smooth in recipes:
        h = trainer.HyperConfig(
            learning_rate=lr,
            weight_decay=1e-4,
            epochs=3,
            batch_size=64,
            seed=seed,
            label_smoothing=smooth,
        )
        models.append(trainer.finetune(desk_base, h, desk_dataset).checkpoint)
    return models


@pytest.fixture
def perturbation_pair():
    """Factory: ``perturbation_pair(seed, scale=0.01)`` is ``init_checkpoint`` of arch
    (3, 5, 3) at ``seed``, and that checkpoint plus ``scale`` times normals from
    ``PortableRng(seed + 1000)``, tensor by tensor, rounded to float32."""

    def make(seed, scale=0.01):
        theta0 = init_checkpoint(ArchSpec((3, 5, 3)), seed=seed)
        rng = PortableRng(seed + 1000)
        arrays = {}
        for name, values in theta0.items():
            bump = scale * rng.normals(values.size).reshape(values.shape)
            arrays[name] = (values.astype(np.float64) + bump).astype(np.float32)
        return theta0, Checkpoint.from_arrays(arrays)

    return make


@pytest.fixture
def count_calls(monkeypatch):
    """Factory: ``count_calls(module, name)`` wraps ``module.name`` in every
    soupkit module that binds it (``from .tinynet import forward``), so a
    call through any module is counted, and returns the list that gets the
    ``id`` of each call's first argument (which object, without comparing
    arrays)."""

    def install(module, name):
        calls = []
        original = getattr(module, name)

        def counted(first, *args, **kwargs):
            calls.append(id(first))
            return original(first, *args, **kwargs)

        for module_name, bound in list(sys.modules.items()):
            if module_name.startswith("soupkit") and getattr(bound, name, None) is original:
                monkeypatch.setattr(bound, name, counted)
        return calls

    return install
