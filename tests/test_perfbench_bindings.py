"""The benchmark's tracer wraps soupkit functions by module and name.

``perfbench/tracing.py`` patches every name listed in its ``TARGETS``.
A refactor that moves or renames one of them would leave that layer
untraced (or the benchmark broken), so this guard fails first.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from soupkit import analysis, soups, tensorstore, tinynet

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines functions and tables only
    return module.TARGETS


def test_every_traced_target_resolves():
    targets = _tracing_targets()
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
