"""Spans around soupkit's public functions, recorded from outside.

The program is left unchanged.  ``Tracer.installed()`` replaces each
function in :data:`TARGETS` with a timing wrapper in *every* soupkit
module namespace that holds it, because modules bind these names
themselves (``from .tinynet import forward, grad64`` in trainer, soups,
analysis and ensembles; ``combine`` in soups and analysis), so patching
the defining module alone would miss their calls.  Methods of
``PortableRng`` are patched on the class.

A span is ``(id, parent, name, start, end, attrs)``.  Spans stay in
memory and are written out when the run ends.  The parent is the
innermost open span of the calling thread; a thread with no open span
(a sweep worker) takes the innermost open span of the thread that
installed the tracer.  A call that raises still records its span, with
``{"error": true}`` in place of its attributes.  A layer's self time is its duration minus the
union of its children's intervals.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Iterator

Span = tuple  # (id, parent, name, start, end, attrs)


def _weight_sizes(theta) -> list[int]:
    """fan_in * fan_out of each weight matrix, in layer order."""
    sizes = []
    i = 0
    while f"layer{i}.weight" in theta:
        rows, cols = theta[f"layer{i}.weight"].shape
        sizes.append(int(rows) * int(cols))
        i += 1
    return sizes


def _forward_attrs(args, kwargs, result) -> dict:
    rows = int(args[1].shape[0])
    return {"rows": rows, "flop": 2 * rows * sum(_weight_sizes(args[0]))}


def _grad64_attrs(args, kwargs, result) -> dict:
    # forward, weight gradients, and the upstream products of layers > 0
    rows = int(args[1].shape[0])
    sizes = _weight_sizes(args[0])
    return {"rows": rows, "flop": 2 * rows * (2 * sum(sizes) + sum(sizes[1:]))}


def _run_sweep_attrs(args, kwargs, result) -> dict:
    trainer = sys.modules["soupkit.trainer"]
    requested = kwargs.get("max_workers", args[4] if len(args) > 4 else None)
    return {
        "workers": trainer.effective_workers(requested),
        "failed": sum(1 for e in result.entries if e.error is not None),
    }


# (module, attribute, span name, attrs(args, kwargs, result) or None)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("soupkit.rng", "PortableRng.raw", "rng.raw", lambda a, k, r: {"draws": len(r)}),
    ("soupkit.rng", "PortableRng.permutation", "rng.permutation", None),
    ("soupkit.rng", "PortableRng.beta", "rng.beta", None),
    ("soupkit.datagen", "generate", "datagen.generate", None),
    ("soupkit.datagen", "save_csv", "datagen.save_csv", None),
    (
        "soupkit.datagen",
        "load_csv",
        "datagen.load_csv",
        lambda a, k, r: {"rows": sum(len(s) for s in r.splits.values())},
    ),
    ("soupkit.tensorstore", "serialize", "tensorstore.serialize", lambda a, k, r: {"bytes": len(r)}),
    ("soupkit.tensorstore", "deserialize", "tensorstore.deserialize", lambda a, k, r: {"bytes": len(a[0])}),
    ("soupkit.tensorstore", "combine", "tensorstore.combine", lambda a, k, r: {"inputs": len(a[1])}),
    ("soupkit.tensorstore", "content_digest", "tensorstore.content_digest", None),
    ("soupkit.fileio", "atomic_write_bytes", "fileio.atomic_write_bytes", lambda a, k, r: {"bytes": len(a[1])}),
    ("soupkit.tinynet", "forward", "tinynet.forward", _forward_attrs),
    ("soupkit.tinynet", "grad64", "tinynet.grad64", _grad64_attrs),
    ("soupkit.tinynet", "evaluate", "tinynet.evaluate", None),
    ("soupkit.tinynet", "as_params", "tinynet.as_params", None),
    ("soupkit.trainer", "finetune", "trainer.finetune", None),
    ("soupkit.trainer", "adamw_step", "trainer.adamw_step", None),
    ("soupkit.trainer", "mixup_batch", "trainer.mixup_batch", None),
    ("soupkit.trainer", "run_sweep", "trainer.run_sweep", _run_sweep_attrs),
    ("soupkit.soups", "uniform_soup", "soups.uniform_soup", None),
    (
        "soupkit.soups",
        "greedy_soup",
        "soups.greedy_soup",
        lambda a, k, r: {"accepted": len(r.ingredient_indices), "candidates": len(a[0])},
    ),
    ("soupkit.soups", "learned_soup", "soups.learned_soup", None),
    ("soupkit.ensembles", "logit_ensemble", "ensembles.logit_ensemble", None),
    (
        "soupkit.ensembles",
        "greedy_ensemble",
        "ensembles.greedy_ensemble",
        lambda a, k, r: {"accepted": len(r), "candidates": len(a[0])},
    ),
    ("soupkit.ensembles", "fit_temperature", "ensembles.fit_temperature", None),
    ("soupkit.analysis", "interpolation_curve", "analysis.interpolation_curve", None),
    ("soupkit.analysis", "plane_landscape", "analysis.plane_landscape", None),
    ("soupkit.analysis", "grid_endpoint_study", "analysis.grid_endpoint_study", None),
    ("soupkit.analysis", "approx_validation_report", "analysis.approx_validation_report", None),
    ("soupkit.analysis", "integral_oracle", "analysis.integral_oracle", None),
)

SPAN_LAYERS = tuple(t[2] for t in TARGETS)

# Spans whose thread CPU time is recorded too (see parallel_efficiency).
_CPU_TIMED = {"trainer.finetune"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable, attrs_of: Callable | None) -> Callable:
        cpu = name in _CPU_TIMED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._home[-1] if self._home else None
            sid = next(self._ids)
            stack.append(sid)
            c0 = time.thread_time() if cpu else 0.0
            t0 = time.perf_counter()
            attrs = {"error": True}  # kept if fn raises
            try:
                result = fn(*args, **kwargs)
                attrs = attrs_of(args, kwargs, result) if attrs_of else {}
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if cpu:
                    attrs["cpu_s"] = time.thread_time() - c0
                self.spans.append((sid, parent, name, t0, t1, attrs))

        return traced

    def record(self, name: str, start: float, end: float, attrs: dict | None = None) -> int:
        """Add a span timed by the caller (for work outside this process)."""
        sid = next(self._ids)
        stack = self._stack()
        self.spans.append((sid, stack[-1] if stack else None, name, start, end, attrs or {}))
        return sid

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every target for the duration of the block, then restore."""
        for module_name in sorted({t[0] for t in TARGETS}):
            importlib.import_module(module_name)
        namespaces = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "soupkit"]
        patches: list[tuple[object, str, object]] = []
        try:
            for module_name, attr, span_name, attrs_of in TARGETS:
                module = sys.modules[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[meth]
                    patches.append((owner, meth, original))
                    setattr(owner, meth, self._wrap(span_name, original, attrs_of))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(span_name, original, attrs_of)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            patches.append((ns, key, original))
                            setattr(ns, key, wrapper)
            self._home = self._stack()
            yield self
        finally:
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)
            self._home = []

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")


def adopt(tracer: Tracer, spans: list, parent: int, offset: int) -> None:
    """Graft spans recorded in another process under ``parent``."""
    for sid, sparent, name, t0, t1, attrs in spans:
        new_parent = parent if sparent is None else sparent + offset
        tracer.spans.append((sid + offset, new_parent, name, t0, t1, attrs))


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` within [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def layer_metrics(
    spans: list[Span], overhead_frac: float, cli_commands: list[str]
) -> dict[str, float]:
    """Every per-layer metric; 0 where nothing ran.

    ``cli.<command>.wall_s`` comes from spans the caller recorded around
    each command subprocess, with the child's ``main_s`` as an attribute.
    """
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s[2]].append(s)
        if s[1] is not None:
            children[s[1]].append(s)

    def parent_name(s: Span) -> str | None:
        p = by_id.get(s[1])
        return p[2] if p else None

    def has_ancestor(s: Span, name: str) -> bool:
        p = by_id.get(s[1])
        while p is not None:
            if p[2] == name:
                return True
            p = by_id.get(p[1])
        return False

    def total(name: str, key: str) -> float:
        return sum(s[5].get(key, 0) for s in by_name[name])

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out: dict[str, float] = {}
    busy: dict[str, float] = {}
    for layer in SPAN_LAYERS:
        group = by_name[layer]
        busy[layer] = sum(s[4] - s[3] for s in group)
        self_s = sum(
            (s[4] - s[3]) - _covered([(c[3], c[4]) for c in children[s[0]]], s[3], s[4])
            for s in group
        )
        out[f"{layer}.calls"] = len(group)
        out[f"{layer}.busy_s"] = busy[layer]
        out[f"{layer}.self_s"] = self_s

    beta_uniform_calls = sum(1 for s in by_name["rng.raw"] if parent_name(s) == "rng.beta")
    digest_in_combine = sum(
        s[4] - s[3] for s in by_name["tensorstore.content_digest"]
        if parent_name(s) == "tensorstore.combine"
    )
    greedy_scores = sum(
        1 for s in by_name["tinynet.evaluate"] if parent_name(s) == "soups.greedy_soup"
    )
    finetune_cpu = sum(
        s[5].get("cpu_s", 0.0) for s in by_name["trainer.finetune"]
        if parent_name(s) == "trainer.run_sweep"
    )
    sweep_capacity = sum(
        s[5].get("workers", 0) * (s[4] - s[3]) for s in by_name["trainer.run_sweep"]
    )
    finetune_durations = [s[4] - s[3] for s in by_name["trainer.finetune"]]

    out.update(
        {
            "rng.raw.draws": total("rng.raw", "draws"),
            "rng.beta.accept_ratio": ratio(len(by_name["rng.beta"]), beta_uniform_calls),
            "datagen.save_csv.bytes": sum(
                s[5].get("bytes", 0) for s in by_name["fileio.atomic_write_bytes"]
                if has_ancestor(s, "datagen.save_csv")
            ),
            "datagen.load_csv.rows_per_s": ratio(
                total("datagen.load_csv", "rows"), busy["datagen.load_csv"]
            ),
            "tensorstore.serialize.bytes": total("tensorstore.serialize", "bytes"),
            "tensorstore.deserialize.bytes": total("tensorstore.deserialize", "bytes"),
            "tensorstore.combine.inputs": total("tensorstore.combine", "inputs"),
            "tensorstore.combine.digest_share": ratio(
                digest_in_combine, busy["tensorstore.combine"]
            ),
            "fileio.atomic_write_bytes.bytes": total("fileio.atomic_write_bytes", "bytes"),
            "tinynet.forward.rows": total("tinynet.forward", "rows"),
            "tinynet.forward.gflop_per_s": ratio(
                total("tinynet.forward", "flop") / 1e9, busy["tinynet.forward"]
            ),
            "tinynet.grad64.rows": total("tinynet.grad64", "rows"),
            "tinynet.grad64.gflop_per_s": ratio(
                total("tinynet.grad64", "flop") / 1e9, busy["tinynet.grad64"]
            ),
            "trainer.finetune.p50_s": (
                statistics.median(finetune_durations) if finetune_durations else 0.0
            ),
            "trainer.adamw_step.mean_us": ratio(
                busy["trainer.adamw_step"] * 1e6, len(by_name["trainer.adamw_step"])
            ),
            # Thread CPU time, not wall time: a sweep worker waiting for the
            # interpreter lock is busy by the wall clock but does no work.
            "trainer.run_sweep.parallel_efficiency": ratio(finetune_cpu, sweep_capacity),
            "trainer.run_sweep.failed_entries": total("trainer.run_sweep", "failed"),
            "soups.greedy_soup.score_calls": greedy_scores,
            "soups.greedy_soup.accept_ratio": ratio(
                total("soups.greedy_soup", "accepted"), total("soups.greedy_soup", "candidates")
            ),
            "ensembles.greedy_ensemble.accept_ratio": ratio(
                total("ensembles.greedy_ensemble", "accepted"),
                total("ensembles.greedy_ensemble", "candidates"),
            ),
        }
    )

    startups = []
    for command in cli_commands:
        group = by_name[f"cli.{command}"]
        out[f"cli.{command}.wall_s"] = sum(s[4] - s[3] for s in group)
        startups += [(s[4] - s[3]) - s[5]["main_s"] for s in group]
    out["cli.startup_s"] = statistics.median(startups) if startups else 0.0
    out["trace.overhead_frac"] = overhead_frac
    return out
