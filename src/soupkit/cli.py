"""Command-line pipeline: data, training sweeps, soups, and analyses.

Usage shape: ``soupkit <command> [options]``.  Commands that need a run
configuration read a JSON file via ``--config`` and apply ``--set``
overrides (repeatable ``section.key=value``, values parsed as JSON with
a plain-string fallback).

The config is a :class:`soupkit.schema.RunConfig`: sections ``dataset``,
``arch``, ``pretrain`` and ``sweep``, each optional until a command needs
it.  Every command that reads one checks all four sections, and rejects
unknown sections or keys.

Exit codes:

    0  success
    1  unexpected error
    2  configuration problem (bad value, unknown key, bad flag, an empty
       --splits, a size too large to allocate, or an --out that exists as
       the wrong kind: a directory where a file is written or the reverse;
       it is checked before any work, so nothing is written)
    3  missing input file or directory, or a directory given as an input file
    4  training diverged (non-finite loss)
    5  malformed input file (checkpoint, dataset or manifest format)
    6  shape/geometry mismatch, such as a checkpoint whose widths do not fit
       the dataset, or a non-finite result (nothing is written)

Errors print one JSON object to stderr: {"error": category, "type":
exception class, "message": text}.  All outputs are written atomically
(temp file + rename), JSON and CSV ones through ``soupkit.fileio``,
which refuses NaN and infinity.  Every command is deterministic: identical
inputs produce identical output bytes.  Sweeps train their configs one
after another.

Start-up is most of a short command's time, so this module imports only
the standard library, ``errors`` and ``fileio``.  A command checks its
flags and config, then imports the library modules it runs, and NumPy
with them; so ``--help``, ``report`` and those checks load no NumPy.
``run`` is the process entry point (``python -m soupkit.cli`` and the
``soupkit`` script); ``main`` is for in-process callers.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .errors import (
    CheckpointFormatError,
    ConfigError,
    DataFormatError,
    DegenerateBasisError,
    DivergenceError,
    NonFiniteError,
    ShapeMismatchError,
    SoupkitError,
    decode,
)
from .fileio import read_json, write_json

if TYPE_CHECKING:
    import numpy as np

    from .analysis import PairSpec
    from .datagen import Dataset
    from .schema import RunConfig
    from .tensorstore import Checkpoint

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_MISSING_INPUT = 3
EXIT_DIVERGED = 4
EXIT_FORMAT = 5
EXIT_SHAPE = 6


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


def load_run_config(path: str | None, overrides: Sequence[str] = ()) -> RunConfig:
    """The run config of an optional JSON file plus --set overrides."""
    from .schema import RunConfig

    doc = {} if path is None else read_json(path, ConfigError)
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
    return decode(RunConfig, doc, "config")


# --------------------------------------------------------------- shared bits


def _load_dataset(directory: str, models: Sequence[Checkpoint] = ()) -> Dataset:
    """The dataset in ``directory``; ShapeMismatchError unless each of ``models`` fits it."""
    from .datagen import load_csv
    from .tinynet import check_fits_data

    path = Path(directory)
    if not path.is_dir():
        raise FileNotFoundError(f"dataset directory not found: {directory}")
    ds = load_csv(path)
    for model in models:
        check_fits_data(model, ds)
    return ds


def _split_arrays(ds: Dataset, name: str) -> tuple[np.ndarray, np.ndarray]:
    if name not in ds.splits:
        from .datagen import SPLIT_NAMES

        raise ConfigError(f"unknown split {name!r}; expected one of {SPLIT_NAMES}")
    split = ds.splits[name]
    return split.x, split.y


def _split_map(ds: Dataset, names: str) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The comma-separated split ``names`` mapped to their arrays; at least one is needed."""
    split_map = {name: _split_arrays(ds, name) for name in names.split(",") if name}
    if not split_map:
        raise ConfigError("--splits: no split names given")
    return split_map


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


def _parse_range(text: str, flag: str) -> tuple[float, float, int]:
    """``lo:hi:count`` with finite ends and a positive count, the arguments of ``np.linspace``."""
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
    return lo, hi, count


def _manifest_models(path: str) -> list[Checkpoint]:
    """The manifest's successful checkpoints; ShapeMismatchError unless each forms the network."""
    from .schema import load_manifest
    from .tinynet import arch_of

    models = load_manifest(path).load_checkpoints()
    if not models:
        raise ConfigError(f"manifest {path} has no successful entries")
    for model in models:
        arch_of(model)
    return models


DEFAULT_ALPHAS = "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1"


# ------------------------------------------------------------------ commands


def cmd_datagen(args: argparse.Namespace) -> None:
    cfg = load_run_config(args.config, args.set).dataset
    from . import datagen

    ds = datagen.generate(cfg)
    datagen.save_csv(ds, args.out)


def cmd_pretrain(args: argparse.Namespace) -> None:
    cfg = load_run_config(args.config, args.set)
    arch = cfg.arch
    if arch is None:
        raise ConfigError("config: pretrain needs an arch section")
    from . import trainer
    from .tensorstore import save as save_checkpoint

    ds = _load_dataset(args.data)
    if ds.config is not None:
        if arch.input_dim != ds.config.input_dim or arch.num_classes != ds.config.num_classes:
            raise ConfigError(
                f"arch {arch.layer_widths} does not match dataset "
                f"({ds.config.input_dim} features, {ds.config.num_classes} classes)"
            )
    ckpt = trainer.pretrain(arch, ds, cfg.pretrain)
    save_checkpoint(ckpt, args.out)


def cmd_sweep(args: argparse.Namespace) -> None:
    sweep = load_run_config(args.config, args.set).sweep
    if sweep is None:
        raise ConfigError("config: sweep needs a sweep section")
    from .schema import SearchSpace
    from .tensorstore import load as load_checkpoint
    from .trainer import random_search_configs, run_sweep

    configs = sweep.configs or random_search_configs(
        sweep.count, sweep.master_seed, sweep.space or SearchSpace())
    ds = _load_dataset(args.data)
    theta0 = load_checkpoint(args.base)
    run_sweep(theta0, configs, ds, args.out, max_workers=args.workers)


def cmd_soup(args: argparse.Namespace) -> None:
    from . import soups

    models = _manifest_models(args.manifest)
    if args.kind == "uniform":
        result = soups.uniform_soup(models)
    else:
        X, y = _split_arrays(_load_dataset(args.data, models), args.split)
        if args.kind == "greedy":
            result = soups.greedy_soup(models, soups.accuracy_fn(X, y))
        else:
            result = soups.learned_soup(models, X, y, by_layer=args.by_layer)
    soups.save_soup(result, args.out)


def cmd_ensemble(args: argparse.Namespace) -> None:
    from . import ensembles
    from .tinynet import evaluate_logits

    models = _manifest_models(args.manifest)
    ds = _load_dataset(args.data, models)
    if args.kind == "greedy":
        sel_x, sel_y = _split_arrays(ds, args.split)
        members = ensembles.greedy_ensemble(
            models, ensembles.ensemble_accuracy_fn(sel_x, sel_y)
        )
    else:
        members = list(range(len(models)))
    X, y = _split_arrays(ds, args.eval_split)
    report = evaluate_logits(ensembles.logit_ensemble([models[i] for i in members], X), y)
    payload = {
        "kind": args.kind,
        "members": members,
        "split": args.eval_split,
        "count": report.count,
        "loss": report.loss,
        "top1_error": report.top1_error,
        "accuracy": report.accuracy,
    }
    write_json(args.out, payload)


def cmd_eval(args: argparse.Namespace) -> None:
    if args.beta is not None and not 0.0 < args.beta < math.inf:
        raise ConfigError(f"--beta must be finite and > 0, got {args.beta}")
    if args.bins < 1:
        raise ConfigError(f"--bins must be >= 1, got {args.bins}")
    from .ensembles import evaluate_with_calibration
    from .tensorstore import load as load_checkpoint

    ckpt = load_checkpoint(args.ckpt)
    X, y = _split_arrays(_load_dataset(args.data, [ckpt]), args.split)
    report = evaluate_with_calibration(ckpt, X, y, beta=args.beta, num_bins=args.bins)
    write_json(args.out, {**vars(report), "accuracy": report.accuracy, "ckpt": str(args.ckpt),
                          "split": args.split, "beta": args.beta})


def cmd_interp(args: argparse.Namespace) -> None:
    alphas = _parse_alphas(args.alphas)
    from . import analysis
    from .tensorstore import load as load_checkpoint

    theta0 = load_checkpoint(args.ckpt_a)
    theta1 = load_checkpoint(args.ckpt_b)
    split_map = _split_map(_load_dataset(args.data, [theta0, theta1]), args.splits)
    rows = analysis.interpolation_curve(theta0, theta1, alphas, split_map)
    analysis.write_curve_csv(rows, args.out)


def cmd_plane(args: argparse.Namespace) -> None:
    ranges = _parse_range(args.x_range, "--x-range"), _parse_range(args.y_range, "--y-range")
    import numpy as np

    from . import analysis
    from .tensorstore import load as load_checkpoint

    xs, ys = ([float(v) for v in np.linspace(*r)] for r in ranges)
    theta0 = load_checkpoint(args.ckpt_a)
    theta1 = load_checkpoint(args.ckpt_b)
    theta2 = load_checkpoint(args.ckpt_c)
    X, y = _split_arrays(_load_dataset(args.data, [theta0, theta1, theta2]), args.split)
    matrix, basis = analysis.plane_landscape(
        theta0, theta1, theta2, xs, ys, X, y, metric=args.metric
    )
    analysis.write_plane_csv(matrix, xs, ys, basis, args.metric, args.out)


def cmd_grid_study(args: argparse.Namespace) -> None:
    from . import analysis

    models = _manifest_models(args.manifest)
    if len(models) < 2:
        raise ConfigError(f"grid-study needs at least two successful entries, got {len(models)}")
    X, y = _split_arrays(_load_dataset(args.data, models), args.split)
    cells = analysis.grid_endpoint_study(models, X, y)
    analysis.write_grid_study_csv(cells, args.out)


def _pairs_from_file(path: str) -> list[PairSpec]:
    from .schema import PairEntry

    raw = read_json(path, ConfigError)
    if not isinstance(raw, list):
        raise ConfigError(f"{path}: pair file must be a JSON list")
    entries = [decode(PairEntry, item, f"{path}: pair {i}") for i, item in enumerate(raw)]
    ids = [e.id for e in entries]
    if len(ids) < 2 or len(set(ids)) != len(ids):
        raise ConfigError(f"{path}: need at least two pairs with distinct ids, got {ids}")
    from .analysis import PairSpec
    from .tensorstore import load as load_checkpoint

    base = Path(path).parent
    return [  # an integer rate is written to the CSV as a float
        PairSpec(e.id, load_checkpoint(base / e.theta0), load_checkpoint(base / e.theta1),
                 None if e.learning_rate is None else float(e.learning_rate))
        for e in entries
    ]


def cmd_approx(args: argparse.Namespace) -> None:
    alphas = _parse_alphas(args.alphas)
    pairs = _pairs_from_file(args.pairs)
    from . import analysis

    ds = _load_dataset(args.data, [theta for pair in pairs for theta in (pair.theta0, pair.theta1)])
    split_map = _split_map(ds, args.splits)
    report = analysis.approx_validation_report(
        pairs, alphas, split_map, beta_mode=args.beta_mode
    )
    analysis.write_approx_csv(report, args.out)


def cmd_calibrate(args: argparse.Namespace) -> None:
    if args.bins < 1:
        raise ConfigError(f"--bins must be >= 1, got {args.bins}")
    from . import ensembles

    if args.manifest is not None:
        models = _manifest_models(args.manifest)
    else:
        from .tensorstore import load as load_checkpoint

        models = [load_checkpoint(args.ckpt)]
    ds = _load_dataset(args.data, models)
    fit_x, fit_y = _split_arrays(ds, args.fit_split)
    eval_x, eval_y = _split_arrays(ds, args.eval_split)
    # The mean of one model's logits is its logits, bit for bit (1.0 * z == z).
    report = ensembles.calibration_report(
        ensembles.logit_ensemble(models, fit_x), fit_y,
        ensembles.logit_ensemble(models, eval_x), eval_y, num_bins=args.bins,
    )
    ensembles.write_calibration_csv(report, args.out)


def _read_json_object(path: str) -> dict:
    doc = read_json(path, DataFormatError)
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: top level must be a JSON object")
    return doc


def cmd_report(args: argparse.Namespace) -> None:
    payload: dict = {}
    if args.manifest is not None:
        from .schema import load_manifest

        manifest = load_manifest(args.manifest)
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
    write_json(args.out, payload)


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


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are ConfigErrors, so ``main`` prints them
    as one JSON line; subcommand parsers inherit the class."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--workers", type=int, default=None,
                   help="accepted and ignored: configs train one after another")
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
    p.add_argument("--metric", choices=("loss", "error"), default="loss")
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
    p.add_argument("--beta-mode", choices=("fixed-1", "calibrate-soup"), default="calibrate-soup")
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
    # A requested size too large to allocate: NumPy raises this before it
    # writes any of the array.
    (MemoryError, "too-large", EXIT_CONFIG),
    (FileNotFoundError, "missing-input", EXIT_MISSING_INPUT),
    # A directory given as an input file; ``_check_out`` rejects a directory --out earlier.
    (IsADirectoryError, "missing-input", EXIT_MISSING_INPUT),
    (DivergenceError, "divergence", EXIT_DIVERGED),
    (CheckpointFormatError, "checkpoint-format", EXIT_FORMAT),
    (DataFormatError, "data-format", EXIT_FORMAT),
    (ShapeMismatchError, "shape-mismatch", EXIT_SHAPE),
    (NonFiniteError, "non-finite", EXIT_SHAPE),
    (DegenerateBasisError, "degenerate-geometry", EXIT_SHAPE),
    (SoupkitError, "library", EXIT_UNEXPECTED),
    (Exception, "unexpected", EXIT_UNEXPECTED),
]


def _emit_error(category: str, exc: BaseException) -> None:
    line = json.dumps(
        {"error": category, "type": type(exc).__name__, "message": str(exc)}
    )
    print(line, file=sys.stderr)


def _check_out(args: argparse.Namespace) -> None:
    """ConfigError, before any work, if an output or a parent of it exists as the wrong kind."""
    outs = [args.out, args.out + ".soup.json"] if args.func is cmd_soup else [args.out]
    for out in map(Path, outs):
        found = next(p for p in (out, *out.parents) if p.exists())  # '.' or '/' at the latest
        kind = "directory" if found != out or args.func in (cmd_datagen, cmd_sweep) else "file"
        if found.is_dir() != (kind == "directory"):
            raise ConfigError(f"--out {args.out}: {found} exists and is not a {kind}")


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_out(args)
        # Every non-finite result is caught and mapped to exit 4 or 6, so NumPy's
        # floating-point warnings (RuntimeWarnings, filtered here without importing
        # NumPy) would only break the one-line stderr contract.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            args.func(args)
        return EXIT_OK
    except Exception as exc:  # mapped to documented exit codes below
        for kind, category, code in _ERROR_EXITS:
            if isinstance(exc, kind):
                _emit_error(category, exc)
                return code
        raise  # unreachable: Exception is the last mapping


def run() -> int:
    """Process entry point: ``main()``, then skip the exit-time collections.

    Interpreter shutdown runs full cyclic collections over every object
    NumPy and soupkit leave tracked, even with ``gc`` disabled, and nothing
    waits on their result.  ``gc.freeze`` moves those objects into the
    permanent generation, which the collections skip; refcounted objects
    are still freed and atexit handlers and stream flushes still run.
    Every artifact is written and closed by the time ``main`` returns.
    ``main`` itself stays free of gc calls for in-process callers.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
