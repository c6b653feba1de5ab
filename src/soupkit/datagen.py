"""Synthetic desk-scale classification tasks with a shifted split.

A task is a gaussian class mixture: ``num_classes`` centers drawn from
``class_center_scale * N(0, I)`` in ``input_dim`` dimensions, examples
drawn as ``center[label] + within_class_std * N(0, I)``.  Four splits
are produced: train, val, test from the base distribution, and shift
from a perturbed copy of it.

Draw order from one PortableRng stream seeded with ``cfg.seed``:

1. class centers (num_classes * input_dim normals, row-major),
2. train, val, test splits in that order (labels cycle 0..C-1, one
   vectorized block of n * input_dim noise normals per split),
3. shift-distribution parameters (for mean-shift: input_dim normals
   naming the displacement direction),
4. the shift split.

Because shift parameters are drawn after the base splits, train, val
and test are bitwise identical across shift kinds for a given seed.

Shift kinds:

* ``mean-shift``: every class center is displaced by one shared vector
  of norm ``shift_magnitude``.
* ``noise-inflation``: within-class noise scaled by (1 + magnitude).
* ``rotation``: features pass through a product of Givens rotations by
  ``shift_magnitude`` radians in coordinate planes (0,1), (2,3), ...

Magnitude 0 reproduces the base test distribution for every kind.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .fileio import atomic_write_text, read_json, write_json
from .rng import PortableRng
from .schema import DatasetConfig, Record, decode

SPLIT_NAMES = ("train", "val", "test", "shift")


class Split(Record, frozen=False):
    x: np.ndarray  # float32, [n, input_dim]
    y: np.ndarray  # int64 labels, [n]

    def __len__(self) -> int:
        return len(self.y)


class Dataset(Record, frozen=False):
    splits: dict[str, Split]
    config: DatasetConfig | None = None

    @property
    def train(self) -> Split:
        return self.splits["train"]

    @property
    def val(self) -> Split:
        return self.splits["val"]

    @property
    def test(self) -> Split:
        return self.splits["test"]

    @property
    def shift(self) -> Split:
        return self.splits["shift"]


def _cyclic_labels(n: int, num_classes: int) -> np.ndarray:
    return np.arange(n, dtype=np.int64) % num_classes


def _draw_split(
    rng: PortableRng, n: int, centers: np.ndarray, std: float, transform: np.ndarray | None,
    offset: np.ndarray | None,
) -> Split:
    dim = centers.shape[1]
    labels = _cyclic_labels(n, centers.shape[0])
    noise = rng.normals(n * dim).reshape(n, dim)
    x = centers[labels] + std * noise
    if offset is not None:
        x = x + offset
    if transform is not None:
        x = x @ transform.T
    return Split(x=x.astype(np.float32), y=labels)


def _givens_product(dim: int, angle: float) -> np.ndarray:
    rot = np.eye(dim)
    c, s = np.cos(angle), np.sin(angle)
    for i in range(0, dim - 1, 2):
        g = np.eye(dim)
        g[i, i] = c
        g[i, i + 1] = -s
        g[i + 1, i] = s
        g[i + 1, i + 1] = c
        rot = g @ rot
    return rot


def generate(cfg: DatasetConfig) -> Dataset:
    """Materialize all four splits deterministically from cfg.seed."""
    rng = PortableRng(cfg.seed)
    centers = cfg.class_center_scale * rng.normals(
        cfg.num_classes * cfg.input_dim
    ).reshape(cfg.num_classes, cfg.input_dim)

    splits: dict[str, Split] = {}
    splits["train"] = _draw_split(rng, cfg.num_train, centers, cfg.within_class_std, None, None)
    splits["val"] = _draw_split(rng, cfg.num_val, centers, cfg.within_class_std, None, None)
    splits["test"] = _draw_split(rng, cfg.num_test, centers, cfg.within_class_std, None, None)

    offset = None
    transform = None
    std = cfg.within_class_std
    if cfg.shift_kind == "mean-shift":
        direction = rng.normals(cfg.input_dim)
        norm = float(np.linalg.norm(direction))
        if norm == 0.0:
            direction = np.eye(cfg.input_dim)[0]
            norm = 1.0
        offset = direction / norm * cfg.shift_magnitude
    elif cfg.shift_kind == "noise-inflation":
        std = cfg.within_class_std * (1.0 + cfg.shift_magnitude)
    else:  # rotation
        transform = _givens_product(cfg.input_dim, cfg.shift_magnitude)
    splits["shift"] = _draw_split(rng, cfg.num_shift, centers, std, transform, offset)

    return Dataset(splits=splits, config=cfg)


# ------------------------------------------------------------------ CSV I/O


def _format_split(split: Split) -> str:
    lines = ["label," + ",".join(f"f{i}" for i in range(split.x.shape[1]))]
    for label, row in zip(split.y, split.x):
        lines.append(str(int(label)) + "," + ",".join(format(float(v), ".9g") for v in row))
    return "\n".join(lines) + "\n"


def _parse_split(text: str, path: str, config: DatasetConfig | None) -> Split:
    lines = text.strip("\n").split("\n")
    if not lines[0].startswith("label,"):
        raise DataFormatError(f"{path}: missing 'label,f0,...' header")
    width = len(lines[0].split(",")) - 1
    if len(lines) == 1:
        raise DataFormatError(f"{path}: no rows after the header")
    if config is not None and width != config.input_dim:
        raise DataFormatError(f"{path}: {width} features, config input_dim {config.input_dim}")
    xs = np.empty((len(lines) - 1, width), dtype=np.float64)
    ys = np.empty(len(lines) - 1, dtype=np.int64)
    for i, line in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) != width + 1:
            raise DataFormatError(f"{path}: row {i + 1} has {len(parts) - 1} features, expected {width}")
        try:
            label = int(parts[0])
            values = [float(p) for p in parts[1:]]
        except ValueError as exc:
            raise DataFormatError(f"{path}: row {i + 1} is not numeric: {exc}") from exc
        if label < 0 or (config is not None and label >= config.num_classes):
            raise DataFormatError(f"{path}: row {i + 1} label {label} out of range")
        ys[i] = label
        xs[i] = values
    with np.errstate(over="ignore"):  # values beyond float32 range become inf, caught below
        x32 = xs.astype(np.float32)
    finite_rows = np.isfinite(x32).all(axis=1)
    if not finite_rows.all():
        row = int(np.argmin(finite_rows)) + 1
        raise DataFormatError(f"{path}: row {row} has a value that is not finite in float32")
    return Split(x=x32, y=ys)


def save_csv(ds: Dataset, directory: str | Path) -> None:
    """Write one CSV per split (train/val/test/shift) plus config.json."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if ds.config is not None:  # field order, not sorted keys: these bytes are pinned
        write_json(directory / "config.json", ds.config.__dict__, sort_keys=False)
    for name in SPLIT_NAMES:
        atomic_write_text(directory / f"{name}.csv", _format_split(ds.splits[name]))


def load_csv(directory: str | Path) -> Dataset:
    """The dataset in ``directory``; DataFormatError on a malformed config.json or split
    (one that is not UTF-8 included), a split without rows, or one whose width is not
    config.json's ``input_dim``."""
    directory = Path(directory)
    config = None
    config_path = directory / "config.json"
    if config_path.exists():
        config = decode(DatasetConfig, read_json(config_path, DataFormatError), str(config_path),
                        DataFormatError)
    splits = {}
    for name in SPLIT_NAMES:
        path = directory / f"{name}.csv"
        if not path.exists():
            raise DataFormatError(f"missing split file {path}")
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: not valid UTF-8: {exc}") from exc
        splits[name] = _parse_split(text, str(path), config)
    return Dataset(splits=splits, config=config)
