"""Command-line pipeline: data, training sweeps, soups, and analyses.

Usage shape: ``soupkit <command> [options]``.  Commands that need a run
configuration read a JSON file via ``--config`` and apply ``--set``
overrides (repeatable ``section.key=value``, values parsed as JSON with
a plain-string fallback).

Config schema (all sections optional unless a command requires them;
unknown sections or keys are rejected):

    {
      "dataset":  { DatasetConfig fields },
      "arch":     { "layer_widths": [input, hidden..., classes] },
      "pretrain": { HyperConfig fields },
      "sweep":    { "count": int, "master_seed": int,
                    "space": { SearchSpace fields } }
                  -- or -- { "configs": [ { HyperConfig fields }, ... ] }
    }

Exit codes:

    0  success
    1  unexpected error
    2  configuration problem (bad value, unknown key, bad flag)
    3  missing input file or directory
    4  training diverged (non-finite loss)
    5  malformed input file (checkpoint, dataset or manifest format)
    6  shape/geometry mismatch or non-finite result

Errors print one JSON object to stderr: {"error": category, "type":
exception class, "message": text}.  All outputs are written atomically
(temp file + rename), and every command is deterministic: identical
inputs produce identical output bytes.  SOUPKIT_THREADS caps sweep
parallelism.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import analysis, datagen, ensembles, soups, trainer
from .errors import (
    CheckpointFormatError,
    ConfigError,
    DataFormatError,
    DegenerateBasisError,
    DivergenceError,
    NonFiniteError,
    ShapeMismatchError,
    SoupkitError,
    UndefinedAngleError,
)
from .fileio import atomic_write_text
from .tensorstore import Checkpoint, load as load_checkpoint, save as save_checkpoint
from .tinynet import ArchSpec, forward, loss_ce, predictions

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_MISSING_INPUT = 3
EXIT_DIVERGED = 4
EXIT_FORMAT = 5
EXIT_SHAPE = 6

_KNOWN_SECTIONS = ("dataset", "arch", "pretrain", "sweep")


# ------------------------------------------------------------ config plumbing


def _parse_override(text: str) -> tuple[list[str], object]:
    if "=" not in text:
        raise ConfigError(f"--set needs section.key=value, got {text!r}")
    dotted, raw_value = text.split("=", 1)
    keys = dotted.split(".")
    if not all(keys):
        raise ConfigError(f"--set path {dotted!r} has empty segments")
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value  # unquoted strings pass through as-is
    return keys, value


def load_run_config(path: str | None, overrides: Sequence[str] = ()) -> dict:
    """Config dict from an optional JSON file plus --set overrides."""
    doc: dict = {}
    if path is not None:
        doc = _read_json(path, ConfigError)
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: top level must be an object")
    for text in overrides:
        keys, value = _parse_override(text)
        node = doc
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set path {'.'.join(keys)!r} crosses a non-object")
        node[keys[-1]] = value
    unknown = set(doc) - set(_KNOWN_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    return doc


def _build(cls, data: Mapping, where: str):
    try:
        obj = cls(**data)
    except TypeError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return obj


def dataset_config_from(doc: Mapping) -> datagen.DatasetConfig:
    cfg = _build(datagen.DatasetConfig, doc.get("dataset", {}), "dataset")
    cfg.validate()
    return cfg


def arch_from(doc: Mapping) -> ArchSpec:
    section = dict(doc.get("arch", {}))
    widths = section.pop("layer_widths", None)
    if section:
        raise ConfigError(f"arch: unknown keys {sorted(section)}")
    if widths is None:
        raise ConfigError("arch.layer_widths is required")
    try:
        return ArchSpec(tuple(int(w) for w in widths))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"arch.layer_widths: {exc}") from exc


def pretrain_config_from(doc: Mapping) -> trainer.HyperConfig:
    return trainer.HyperConfig.from_dict(dict(doc.get("pretrain", {})))


def sweep_configs_from(doc: Mapping) -> list[trainer.HyperConfig]:
    section = dict(doc.get("sweep", {}))
    if "configs" in section:
        explicit = section.pop("configs")
        if section:
            raise ConfigError(f"sweep: unknown keys next to configs: {sorted(section)}")
        if not isinstance(explicit, list) or not explicit:
            raise ConfigError("sweep.configs must be a nonempty list")
        return [trainer.HyperConfig.from_dict(dict(c)) for c in explicit]
    count = section.pop("count", None)
    master_seed = section.pop("master_seed", None)
    space_doc = section.pop("space", {})
    if section:
        raise ConfigError(f"sweep: unknown keys {sorted(section)}")
    if count is None or master_seed is None:
        raise ConfigError("sweep needs count and master_seed (or explicit configs)")
    space_doc = {
        k: tuple(v) if isinstance(v, list) else v for k, v in dict(space_doc).items()
    }
    space = _build(trainer.SearchSpace, space_doc, "sweep.space")
    try:
        return trainer.random_search_configs(int(count), int(master_seed), space)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"sweep: {exc}") from exc


# --------------------------------------------------------------- shared bits


def _load_dataset(directory: str) -> datagen.Dataset:
    path = Path(directory)
    if not path.is_dir():
        raise FileNotFoundError(f"dataset directory not found: {directory}")
    return datagen.load_csv(path)


def _split_arrays(ds: datagen.Dataset, name: str) -> tuple[np.ndarray, np.ndarray]:
    if name not in ds.splits:
        raise ConfigError(f"unknown split {name!r}; expected one of {datagen.SPLIT_NAMES}")
    split = ds.splits[name]
    return split.x, split.y


def _parse_alphas(text: str) -> list[float]:
    """Comma-separated mixing weights, each in [0, 1]."""
    try:
        alphas = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"--alphas: {exc}") from exc
    if not alphas:
        raise ConfigError("--alphas: no values given")
    for alpha in alphas:
        if not 0.0 <= alpha <= 1.0:
            raise ConfigError(f"--alphas: {alpha} outside [0, 1]")
    return alphas


def _parse_range(text: str, flag: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{flag} must be lo:hi:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc
    if count < 1:
        raise ConfigError(f"{flag}: count must be >= 1")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"{flag}: endpoints must be finite, got {text!r}")
    return [float(v) for v in np.linspace(lo, hi, count)]


def _manifest_models(path: str) -> tuple[trainer.SweepManifest, list[Checkpoint]]:
    manifest = trainer.load_manifest(path)
    models = manifest.load_checkpoints()
    if not models:
        raise ConfigError(f"manifest {path} has no successful entries")
    return manifest, models


def _read_json(path: str | Path, error: type[SoupkitError]):
    """Parsed JSON file; text that is not UTF-8 JSON raises ``error``."""
    text = Path(path).read_bytes()
    try:
        return json.loads(text.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise error(f"{path}: not valid UTF-8 JSON: {exc}") from exc


def _write_json(path: str, payload: dict) -> None:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # a NaN or infinity never reaches the artifact
        raise NonFiniteError(f"{path}: non-finite value in output: {exc}") from exc
    atomic_write_text(path, text + "\n")


DEFAULT_ALPHAS = "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1"


# ------------------------------------------------------------------ commands


def cmd_datagen(args: argparse.Namespace) -> int:
    doc = load_run_config(args.config, args.set)
    cfg = dataset_config_from(doc)
    ds = datagen.generate(cfg)
    datagen.save_csv(ds, args.out)
    return EXIT_OK


def cmd_pretrain(args: argparse.Namespace) -> int:
    doc = load_run_config(args.config, args.set)
    arch = arch_from(doc)
    hyper = pretrain_config_from(doc)
    ds = _load_dataset(args.data)
    if ds.config is not None:
        if arch.input_dim != ds.config.input_dim or arch.num_classes != ds.config.num_classes:
            raise ConfigError(
                f"arch {arch.layer_widths} does not match dataset "
                f"({ds.config.input_dim} features, {ds.config.num_classes} classes)"
            )
    ckpt = trainer.pretrain(arch, ds, hyper)
    save_checkpoint(ckpt, args.out)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    doc = load_run_config(args.config, args.set)
    configs = sweep_configs_from(doc)
    ds = _load_dataset(args.data)
    theta0 = load_checkpoint(args.base)
    trainer.run_sweep(theta0, configs, ds, args.out, max_workers=args.workers)
    return EXIT_OK


def cmd_soup(args: argparse.Namespace) -> int:
    _, models = _manifest_models(args.manifest)
    if args.kind == "uniform":
        result = soups.uniform_soup(models)
    elif args.kind == "greedy":
        ds = _load_dataset(args.data)
        X, y = _split_arrays(ds, args.split)
        result = soups.greedy_soup(models, soups.accuracy_fn(X, y))
    else:  # learned
        ds = _load_dataset(args.data)
        X, y = _split_arrays(ds, args.split)
        result = soups.learned_soup(models, X, y, by_layer=args.by_layer)
    soups.save_soup(result, args.out)
    return EXIT_OK


def cmd_ensemble(args: argparse.Namespace) -> int:
    _, models = _manifest_models(args.manifest)
    ds = _load_dataset(args.data)
    if args.kind == "greedy":
        sel_x, sel_y = _split_arrays(ds, args.split)
        members = ensembles.greedy_ensemble(
            models, ensembles.ensemble_accuracy_fn(sel_x, sel_y)
        )
    else:
        members = list(range(len(models)))
    X, y = _split_arrays(ds, args.eval_split)
    logits = ensembles.logit_ensemble([models[i] for i in members], X)
    err = float(np.mean(predictions(logits) != y))
    payload = {
        "kind": args.kind,
        "members": members,
        "split": args.eval_split,
        "count": int(len(y)),
        "loss": loss_ce(logits, y),
        "top1_error": err,
        "accuracy": 1.0 - err,
    }
    _write_json(args.out, payload)
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    if args.beta is not None and not 0.0 < args.beta < math.inf:
        raise ConfigError(f"--beta must be finite and > 0, got {args.beta}")
    if args.bins < 1:
        raise ConfigError(f"--bins must be >= 1, got {args.bins}")
    ckpt = load_checkpoint(args.ckpt)
    ds = _load_dataset(args.data)
    X, y = _split_arrays(ds, args.split)
    report = ensembles.evaluate_with_calibration(
        ckpt, X, y, beta=args.beta, num_bins=args.bins
    )
    payload = {
        "ckpt": str(args.ckpt),
        "split": args.split,
        "beta": args.beta,
        "count": report.count,
        "loss": report.loss,
        "top1_error": report.top1_error,
        "accuracy": report.accuracy,
        "calibrated_loss": report.calibrated_loss,
        "ece": report.ece,
    }
    _write_json(args.out, payload)
    return EXIT_OK


def cmd_interp(args: argparse.Namespace) -> int:
    alphas = _parse_alphas(args.alphas)
    theta0 = load_checkpoint(args.ckpt_a)
    theta1 = load_checkpoint(args.ckpt_b)
    ds = _load_dataset(args.data)
    split_names = [s for s in args.splits.split(",") if s]
    split_map = {name: _split_arrays(ds, name) for name in split_names}
    rows = analysis.interpolation_curve(theta0, theta1, alphas, split_map)
    analysis.write_curve_csv(rows, args.out)
    return EXIT_OK


def cmd_plane(args: argparse.Namespace) -> int:
    xs = _parse_range(args.x_range, "--x-range")
    ys = _parse_range(args.y_range, "--y-range")
    theta0 = load_checkpoint(args.ckpt_a)
    theta1 = load_checkpoint(args.ckpt_b)
    theta2 = load_checkpoint(args.ckpt_c)
    ds = _load_dataset(args.data)
    X, y = _split_arrays(ds, args.split)
    matrix, basis = analysis.plane_landscape(
        theta0, theta1, theta2, xs, ys, X, y, metric=args.metric
    )
    analysis.write_plane_csv(matrix, xs, ys, basis, args.metric, args.out)
    return EXIT_OK


def cmd_grid_study(args: argparse.Namespace) -> int:
    _, models = _manifest_models(args.manifest)
    ds = _load_dataset(args.data)
    X, y = _split_arrays(ds, args.split)
    cells = analysis.grid_endpoint_study(models, X, y)
    analysis.write_grid_study_csv(cells, args.out)
    return EXIT_OK


def _pairs_from_file(path: str) -> list[analysis.PairSpec]:
    raw = _read_json(path, ConfigError)
    if not isinstance(raw, list):
        raise ConfigError(f"{path}: pair file must be a JSON list")
    specs = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise ConfigError(f"{path}: pair {i} must be a JSON object")
        try:
            pair_id = str(item.pop("id"))
            theta0 = item.pop("theta0")
            theta1 = item.pop("theta1")
        except KeyError as exc:
            raise ConfigError(f"{path}: pair {i} missing key {exc}") from exc
        lr = item.pop("learning_rate", None)
        if item:
            raise ConfigError(f"{path}: pair {i} has unknown keys {sorted(item)}")
        if not isinstance(theta0, str) or not isinstance(theta1, str):
            raise ConfigError(f"{path}: pair {i} theta0 and theta1 must be path strings")
        if lr is not None and (
            isinstance(lr, bool) or not isinstance(lr, (int, float)) or not math.isfinite(lr)
        ):
            raise ConfigError(f"{path}: pair {i} learning_rate must be a finite number")
        specs.append((pair_id, theta0, theta1, None if lr is None else float(lr)))
    ids = [spec[0] for spec in specs]
    if len(ids) < 2 or len(set(ids)) != len(ids):
        raise ConfigError(f"{path}: need at least two pairs with distinct ids, got {ids}")
    base = Path(path).parent
    return [
        analysis.PairSpec(pair_id, load_checkpoint(base / t0), load_checkpoint(base / t1), lr)
        for pair_id, t0, t1, lr in specs
    ]


def cmd_approx(args: argparse.Namespace) -> int:
    alphas = _parse_alphas(args.alphas)
    pairs = _pairs_from_file(args.pairs)
    ds = _load_dataset(args.data)
    split_names = [s for s in args.splits.split(",") if s]
    split_map = {name: _split_arrays(ds, name) for name in split_names}
    report = analysis.approx_validation_report(
        pairs, alphas, split_map, beta_mode=args.beta_mode
    )
    analysis.write_approx_csv(report, args.out)
    return EXIT_OK


def cmd_calibrate(args: argparse.Namespace) -> int:
    if args.bins < 1:
        raise ConfigError(f"--bins must be >= 1, got {args.bins}")
    ds = _load_dataset(args.data)
    fit_x, fit_y = _split_arrays(ds, args.fit_split)
    eval_x, eval_y = _split_arrays(ds, args.eval_split)
    if args.manifest is not None:
        _, models = _manifest_models(args.manifest)
        fit_logits = ensembles.logit_ensemble(models, fit_x)
        eval_logits = ensembles.logit_ensemble(models, eval_x)
    else:
        ckpt = load_checkpoint(args.ckpt)
        fit_logits = forward(ckpt, fit_x)
        eval_logits = forward(ckpt, eval_x)
    report = ensembles.calibration_report(
        fit_logits, fit_y, eval_logits, eval_y, num_bins=args.bins
    )
    ensembles.write_calibration_csv(report, args.out)
    return EXIT_OK


def _read_json_object(path: str) -> dict:
    doc = _read_json(path, DataFormatError)
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: top level must be a JSON object")
    return doc


def cmd_report(args: argparse.Namespace) -> int:
    payload: dict = {}
    if args.manifest is not None:
        manifest = trainer.load_manifest(args.manifest)
        ok = manifest.successful()
        accs = [e.val_accuracy for e in ok]
        payload["sweep"] = {
            "total": len(manifest.entries),
            "successful": len(ok),
            "failed": len(manifest.entries) - len(ok),
            "best_val_accuracy": max(accs) if accs else None,
            "mean_val_accuracy": (sum(accs) / len(accs)) if accs else None,
            "theta0_digest": manifest.theta0_digest,
        }
    for key, paths in (("soups", args.soup), ("evals", args.eval_report)):
        entries = [{"path": path, **_read_json_object(path)} for path in paths or []]
        if entries:
            payload[key] = entries
    if not payload:
        raise ConfigError("report needs at least one of --manifest/--soup/--eval-report")
    _write_json(args.out, payload)
    return EXIT_OK


# ------------------------------------------------------------------- parser


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="JSON run-config file")
    p.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a config value (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soupkit",
        description="Checkpoint sweeps, weight-space soups, ensembles, and analyses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datagen", help="generate the synthetic dataset CSVs")
    _add_config_flags(p)
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=cmd_datagen)

    p = sub.add_parser("pretrain", help="train the shared initialization")
    _add_config_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("sweep", help="fine-tune a batch of configurations")
    _add_config_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--base", required=True, help="shared initialization checkpoint")
    p.add_argument("--out", required=True, help="output sweep directory")
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("soup", help="merge sweep checkpoints in weight space")
    soup_sub = p.add_subparsers(dest="kind", required=True)
    for kind in ("uniform", "greedy", "learned"):
        sp = soup_sub.add_parser(kind)
        sp.add_argument("--manifest", required=True)
        sp.add_argument("--out", required=True)
        if kind != "uniform":
            sp.add_argument("--data", required=True)
            sp.add_argument("--split", default="val")
        if kind == "learned":
            sp.add_argument("--by-layer", action="store_true")
        sp.set_defaults(func=cmd_soup, kind=kind)

    p = sub.add_parser("ensemble", help="evaluate a logit ensemble")
    ens_sub = p.add_subparsers(dest="kind", required=True)
    for kind in ("uniform", "greedy"):
        sp = ens_sub.add_parser(kind)
        sp.add_argument("--manifest", required=True)
        sp.add_argument("--data", required=True)
        sp.add_argument("--eval-split", default="test")
        if kind == "greedy":
            sp.add_argument("--split", default="val", help="member-selection split")
        sp.add_argument("--out", required=True)
        sp.set_defaults(func=cmd_ensemble, kind=kind)

    p = sub.add_parser("eval", help="evaluate one checkpoint on one split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--beta", type=float, default=None, help="logit scale")
    p.add_argument("--bins", type=int, default=15)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("interp", help="metrics along the line between two checkpoints")
    p.add_argument("--ckpt-a", required=True)
    p.add_argument("--ckpt-b", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--splits", default="val,test")
    p.add_argument("--alphas", default=DEFAULT_ALPHAS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_interp)

    p = sub.add_parser("plane", help="loss/error matrix over a 2-D weight plane")
    p.add_argument("--ckpt-a", required=True, help="plane origin")
    p.add_argument("--ckpt-b", required=True)
    p.add_argument("--ckpt-c", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="val")
    p.add_argument("--metric", choices=analysis.PLANE_METRICS, default="loss")
    p.add_argument("--x-range", required=True, metavar="LO:HI:COUNT")
    p.add_argument("--y-range", required=True, metavar="LO:HI:COUNT")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plane)

    p = sub.add_parser(
        "grid-study", help="endpoint-average advantage over manifest order"
    )
    p.add_argument("--manifest", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="val")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_grid_study)

    p = sub.add_parser("approx", help="soup-vs-ensemble loss-gap scatter report")
    p.add_argument("--pairs", required=True, help="JSON list of endpoint pairs")
    p.add_argument("--data", required=True)
    p.add_argument("--splits", default="val,test")
    p.add_argument("--alphas", default=DEFAULT_ALPHAS)
    p.add_argument("--beta-mode", choices=analysis.BETA_MODES, default="calibrate-soup")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("calibrate", help="fit a logit scale and report reliability")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--ckpt")
    source.add_argument("--manifest", help="calibrate the uniform ensemble instead")
    p.add_argument("--data", required=True)
    p.add_argument("--fit-split", default="val")
    p.add_argument("--eval-split", default="test")
    p.add_argument("--bins", type=int, default=15)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("report", help="merge artifacts into one JSON summary")
    p.add_argument("--manifest", default=None)
    p.add_argument("--soup", action="append", default=None, metavar="SOUP_SIDECAR_JSON")
    p.add_argument("--eval-report", action="append", default=None, metavar="EVAL_JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


_ERROR_EXITS: list[tuple[type[BaseException], str, int]] = [
    (ConfigError, "config", EXIT_CONFIG),
    (FileNotFoundError, "missing-input", EXIT_MISSING_INPUT),
    (DivergenceError, "divergence", EXIT_DIVERGED),
    (CheckpointFormatError, "checkpoint-format", EXIT_FORMAT),
    (DataFormatError, "data-format", EXIT_FORMAT),
    (ShapeMismatchError, "shape-mismatch", EXIT_SHAPE),
    (NonFiniteError, "non-finite", EXIT_SHAPE),
    (UndefinedAngleError, "degenerate-geometry", EXIT_SHAPE),
    (DegenerateBasisError, "degenerate-geometry", EXIT_SHAPE),
    (SoupkitError, "library", EXIT_UNEXPECTED),
    (Exception, "unexpected", EXIT_UNEXPECTED),
]


def _emit_error(category: str, exc: BaseException) -> None:
    line = json.dumps(
        {"error": category, "type": type(exc).__name__, "message": str(exc)}
    )
    print(line, file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # mapped to documented exit codes below
        for kind, category, code in _ERROR_EXITS:
            if isinstance(exc, kind):
                _emit_error(category, exc)
                return code
        raise  # unreachable: Exception is the last mapping


if __name__ == "__main__":
    sys.exit(main())
