"""Fast self-check of the benchmark itself (a few seconds, no timed run).

    python3 perfbench/selfcheck.py

Checks that BENCHMARK.json keeps the benchmark's format rules, that the
tracer's aggregation emits exactly the per-layer metrics it lists, that
every metric the benchmark was specified with is listed with a unit,
and that the tracer sees calls made through every module that imports
a wrapped function.  Exits 1 and names each problem on failure.
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracing import SPAN_LAYERS, Tracer, layer_metrics  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# The metrics the benchmark was specified with; each must stay listed.
SPECIFIED_END_TO_END = ("setup_s", "wall_s", "steps_per_s", "cmd_p50_s", "peak_rss_mb")
SPECIFIED_PER_LAYER = (
    [f"{layer}.{kind}" for layer in SPAN_LAYERS for kind in ("calls", "busy_s", "self_s")]
    + [
        "rng.raw.draws", "rng.beta.accept_ratio", "datagen.save_csv.bytes",
        "datagen.load_csv.rows_per_s", "tensorstore.serialize.bytes",
        "tensorstore.deserialize.bytes", "tensorstore.combine.inputs",
        "tensorstore.combine.digest_share", "fileio.atomic_write_bytes.bytes",
        "tinynet.forward.rows", "tinynet.forward.gflop_per_s", "tinynet.grad64.rows",
        "tinynet.grad64.gflop_per_s", "trainer.finetune.p50_s", "trainer.adamw_step.mean_us",
        "trainer.run_sweep.parallel_efficiency", "trainer.run_sweep.failed_entries",
        "soups.greedy_soup.score_calls", "soups.greedy_soup.accept_ratio",
        "ensembles.greedy_ensemble.accept_ratio", "cli.startup_s", "trace.overhead_frac",
    ]
    + [f"cli.{c}.wall_s" for c in ("datagen", "pretrain", "sweep", "soup", "ensemble", "eval",
                                   "interp", "plane", "grid-study", "calibrate", "report")]
)
SPECIFIED_LAYERS = {
    "rng.raw", "rng.permutation", "rng.beta", "datagen.generate", "datagen.save_csv",
    "datagen.load_csv", "tensorstore.serialize", "tensorstore.deserialize",
    "tensorstore.combine", "tensorstore.content_digest", "fileio.atomic_write_bytes",
    "tinynet.forward", "tinynet.grad64", "tinynet.evaluate", "tinynet.as_params",
    "trainer.finetune", "trainer.adamw_step", "trainer.mixup_batch", "trainer.run_sweep",
    "soups.uniform_soup", "soups.greedy_soup", "soups.learned_soup", "ensembles.logit_ensemble",
    "ensembles.greedy_ensemble", "ensembles.fit_temperature", "analysis.interpolation_curve",
    "analysis.plane_landscape", "analysis.grid_endpoint_study",
    "analysis.approx_validation_report", "analysis.integral_oracle",
}


def check_format(doc: dict, raw: bytes, problems: list[str]) -> None:
    want_keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(doc) != want_keys:
        problems.append(f"BENCHMARK.json keys {sorted(doc)}")
    if len(raw) > 64 * 1024:
        problems.append("BENCHMARK.json is over 64 KiB")
    if not 1 <= len(doc["paths"]) <= 16 or any(
        not re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", p) or p.startswith("/") or ".." in p
        for p in doc["paths"]
    ):
        problems.append(f"bad paths {doc['paths']}")
    cmd = doc["command"]
    if not 1 <= len(cmd) <= 32 or any(len(c) > 200 or c.startswith("/") or ".." in c for c in cmd):
        problems.append(f"bad command {cmd}")
    if not (isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number in 1..60")
    if not 2 <= len(doc["workloads"]) <= 8:
        problems.append("need 2 to 8 workloads")
    for w in doc["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"bad workload entry {w}")
    if not 1 <= len(doc["end_to_end"]) <= 16 or not 1 <= len(doc["per_layer"]) <= 128:
        problems.append("metric counts out of range")
    for m in doc["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            problems.append(f"bad end_to_end entry {m}")
    for m in doc["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            problems.append(f"bad per_layer entry {m}")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s must be an end_to_end metric in s, lower is better")
    elif setup[0]["bound"] < max(m["bound"] for m in doc["end_to_end"]):
        problems.append("setup_s must have the largest bound")
    names = [e["name"] for e in doc["workloads"] + doc["end_to_end"] + doc["per_layer"]]
    for name in names:
        if not NAME.fullmatch(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("names are not unique")
    for m in doc["end_to_end"] + doc["per_layer"]:
        if not UNIT.fullmatch(m["unit"]) or m["better"] not in ("higher", "lower"):
            problems.append(f"bad unit or direction in {m}")
    if [w["name"] for w in doc["workloads"]] != list(workloads.NAMES):
        problems.append("workloads differ from workloads.NAMES")


def check_emission(doc: dict, problems: list[str]) -> None:
    e2e = [m["name"] for m in doc["end_to_end"]]
    layers = [m["name"] for m in doc["per_layer"]]
    for name in SPECIFIED_END_TO_END:
        if name not in e2e:
            problems.append(f"end_to_end metric {name} missing")
    for name in SPECIFIED_PER_LAYER:
        if name not in layers:
            problems.append(f"per_layer metric {name} missing")
    if set(SPAN_LAYERS) != SPECIFIED_LAYERS:
        problems.append(f"traced layers differ: {sorted(set(SPAN_LAYERS) ^ SPECIFIED_LAYERS)}")
    cli_commands = list(dict.fromkeys(argv[0] for argv in workloads.Cli.commands()))
    emitted = layer_metrics([], 0.0, cli_commands)
    if set(emitted) != set(layers):
        problems.append(f"emitted per-layer names differ: {sorted(set(emitted) ^ set(layers))}")


def check_tracer(work: Path, problems: list[str]) -> None:
    """A tiny sweep and soup under the tracer: spans nest across modules."""
    from soupkit import analysis, datagen, soups, tensorstore, tinynet, trainer
    from soupkit.errors import SoupkitError

    ds = datagen.generate(datagen.DatasetConfig(num_train=64, num_val=32, num_test=32, num_shift=32))
    theta0 = tinynet.init_checkpoint(tinynet.ArchSpec((16, 8, 8)), 0)
    configs = [trainer.HyperConfig(epochs=1, mixup_alpha=0.2, seed=s) for s in range(2)]
    originals = (tinynet.forward, soups.forward, analysis.combine, soups.combine)
    tracer = Tracer()
    with tracer.installed():
        wrapped = (tinynet.forward, soups.forward, analysis.combine, soups.combine)
        manifest = trainer.run_sweep(theta0, configs, ds, work / "sweep", max_workers=2)
        models = manifest.load_checkpoints()
        soups.greedy_soup(models, soups.accuracy_fn(ds.val.x, ds.val.y))
        analysis.interpolation_curve(models[0], models[1], [0.0, 1.0], {"val": (ds.val.x, ds.val.y)})
        try:
            tensorstore.deserialize(b"")
        except SoupkitError:
            pass
    if any(a is b for a, b in zip(originals, wrapped)) or wrapped[0] is not wrapped[1]:
        problems.append("wrappers were not installed in every importing module")
    if (tinynet.forward, soups.forward, analysis.combine, soups.combine) != originals:
        problems.append("wrappers were not removed")
    by_id = {s[0]: s for s in tracer.spans}
    pairs = {(by_id[s[1]][2] if s[1] in by_id else None, s[2]) for s in tracer.spans}
    for parent, child in [
        ("trainer.run_sweep", "trainer.finetune"),  # across the worker threads
        ("trainer.finetune", "tinynet.evaluate"),
        ("trainer.mixup_batch", "rng.beta"),
        ("rng.beta", "rng.raw"),
        ("soups.greedy_soup", "tensorstore.combine"),
        ("analysis.interpolation_curve", "tensorstore.combine"),
        ("tinynet.evaluate", "tinynet.forward"),
    ]:
        if (parent, child) not in pairs:
            problems.append(f"no {child} span under {parent}")
    if not any(s[2] == "tensorstore.deserialize" and s[5].get("error") for s in tracer.spans):
        problems.append("a call that raised left no span")
    values = layer_metrics(tracer.spans, 0.0, [])
    for name in ("tinynet.grad64.gflop_per_s", "trainer.run_sweep.parallel_efficiency",
                 "rng.beta.accept_ratio", "soups.greedy_soup.score_calls"):
        if not values[name] > 0:
            problems.append(f"{name} is {values[name]} on the tiny run")
    for layer in SPAN_LAYERS:
        busy, own = values[f"{layer}.busy_s"], values[f"{layer}.self_s"]
        if not 0.0 <= own <= busy + 1e-9:
            problems.append(f"{layer}: self {own} outside [0, busy {busy}]")


def main() -> int:
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    doc = json.loads(raw)
    problems: list[str] = []
    check_format(doc, raw, problems)
    check_emission(doc, problems)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selfcheck-", dir=ROOT / ".bench_work") as work:
        check_tracer(Path(work), problems)
    for problem in problems:
        print(f"selfcheck: {problem}")
    print("selfcheck: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
