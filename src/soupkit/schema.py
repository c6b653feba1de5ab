"""Every record soupkit reads back from a file, declared once.

A record is a dataclass whose annotations are its file's types, and
:func:`soupkit.errors.decode` is the one way to read it: a run config
(:class:`RunConfig`), a sweep manifest (:class:`SweepManifest`), a
checkpoint header (:class:`CheckpointHeader`) and an ``approx --pairs``
entry (:class:`PairEntry`).  This module needs neither NumPy nor the
training code, so reading a record loads neither.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ConfigError, DataFormatError, check_fields, decode
from .fileio import read_json, write_json

if TYPE_CHECKING:
    from .tensorstore import Checkpoint

SHIFT_KINDS = ("mean-shift", "noise-inflation", "rotation")
OPTIMIZERS = ("sgd", "adamw")
SCHEDULES = ("constant", "cosine")

# Johnk's Beta sampler accepts a draw pair with probability
# Gamma(a+1)**2 / Gamma(2a+1): about 1.4% at this mixup alpha, 1.7e-9 at 16.
MIXUP_ALPHA_MAX = 4.0


@dataclass(frozen=True)
class DatasetConfig:
    input_dim: int = 16
    num_classes: int = 8
    num_train: int = 4096
    num_val: int = 512
    num_test: int = 2048
    num_shift: int = 2048
    class_center_scale: float = 1.0
    within_class_std: float = 1.0
    shift_kind: str = "mean-shift"
    shift_magnitude: float = 1.5
    seed: int = 0

    def validate(self) -> None:
        check_fields(self)
        for name in ("input_dim", "num_train", "num_val", "num_test", "num_shift"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        for name in ("class_center_scale", "within_class_std", "shift_magnitude"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        if self.shift_kind not in SHIFT_KINDS:
            raise ConfigError(f"shift_kind must be one of {SHIFT_KINDS}")


@dataclass(frozen=True)
class ArchSpec:
    """Full width chain, input through hidden layers to class count."""

    layer_widths: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.layer_widths) < 3:
            raise ValueError("need at least one hidden layer: (in, hidden..., classes)")
        if any(w < 1 for w in self.layer_widths):
            raise ValueError("layer widths must be positive")

    @property
    def input_dim(self) -> int:
        return self.layer_widths[0]

    @property
    def num_classes(self) -> int:
        return self.layer_widths[-1]

    @property
    def num_layers(self) -> int:
        return len(self.layer_widths) - 1


@dataclass(frozen=True)
class HyperConfig:
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    epochs: int = 8
    batch_size: int = 64
    seed: int = 0
    label_smoothing: float = 0.0
    mixup_alpha: float = 0.0
    input_noise_std: float = 0.0
    optimizer: str = "adamw"
    schedule: str = "cosine"
    ema_decay: float | None = None
    sam_rho: float | None = None

    def validate(self) -> None:
        check_fields(self)
        for name in ("learning_rate", "weight_decay", "mixup_alpha", "input_noise_std"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ConfigError("label_smoothing must lie in [0, 1)")
        if self.mixup_alpha > MIXUP_ALPHA_MAX:
            raise ConfigError(f"mixup_alpha must be at most {MIXUP_ALPHA_MAX}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}")
        if self.schedule not in SCHEDULES:
            raise ConfigError(f"schedule must be one of {SCHEDULES}")
        if self.ema_decay is not None and not 0.0 <= self.ema_decay <= 1.0:
            raise ConfigError("ema_decay must lie in [0, 1]")
        if self.sam_rho is not None and self.sam_rho < 0.0:
            raise ConfigError("sam_rho must be nonnegative; zero disables the ascent step")

    def digest(self) -> str:
        import hashlib  # see tensorstore.content_digest

        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()[:12]

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


@dataclass(frozen=True)
class SearchSpace:
    """Sampling ranges for random hyperparameter search.

    Draw order per candidate, from PortableRng(derive_seed(master, i)):
    lr exponent, wd exponent, smoothing coin + value, epochs, mixup coin
    + value, noise coin + value (only when a noise range is configured),
    then one raw draw whose top 53 bits become the training seed.
    """

    lr_exponent_range: tuple[float, float] = (1.5, 4.0)
    wd_exponent_range: tuple[float, float] = (0.2, 4.0)
    smoothing_max: float = 0.25
    smoothing_off_probability: float = 0.5
    epochs_range: tuple[int, int] = (4, 16)
    mixup_max: float = 0.9
    mixup_off_probability: float = 0.5
    noise_std_max: float = 0.0
    noise_off_probability: float = 0.5
    batch_size: int = 64
    optimizer: str = "adamw"
    schedule: str = "cosine"

    def validate(self) -> None:
        """ConfigError unless every candidate drawn from this space is a valid HyperConfig."""
        check_fields(self)
        for name in ("lr_exponent_range", "wd_exponent_range", "epochs_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ConfigError(f"{name} must be an ordered pair, got {(lo, hi)!r}")
        if self.epochs_range[0] < 1:
            raise ConfigError(f"epochs_range must hold integers >= 1, got {self.epochs_range!r}")
        for name in ("smoothing_max", "smoothing_off_probability", "mixup_off_probability",
                     "noise_off_probability"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1]")
        if self.mixup_max < 0 or self.noise_std_max < 0:
            raise ConfigError("mixup_max and noise_std_max must be nonnegative")
        if self.mixup_max > MIXUP_ALPHA_MAX:
            raise ConfigError(f"mixup_max must be at most {MIXUP_ALPHA_MAX}")
        # Fields every candidate copies as they are.
        fixed = HyperConfig(batch_size=self.batch_size, optimizer=self.optimizer, schedule=self.schedule)
        fixed.validate()


@dataclass(frozen=True)
class SweepSpec:
    """A sweep's configs: ``count`` random-search draws from ``space`` (default
    SearchSpace()) seeded by ``master_seed``, or the ``configs`` listed."""

    count: int | None = None
    master_seed: int | None = None
    space: SearchSpace | None = None
    configs: tuple[HyperConfig, ...] | None = None

    def validate(self) -> None:
        check_fields(self)
        if self.configs is not None:
            if not self.configs or (self.count, self.master_seed, self.space) != (None,) * 3:
                raise ConfigError("configs must be a nonempty list, with no count, master_seed "
                                  "or space next to it")
        elif self.count is None or self.master_seed is None or self.count < 1:
            raise ConfigError(f"needs an integer count >= 1 and a master_seed (or explicit "
                              f"configs), got {self.count!r} and {self.master_seed!r}")


@dataclass(frozen=True)
class RunConfig:
    """A run config; each section is optional until a command needs it."""

    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    arch: ArchSpec | None = None
    pretrain: HyperConfig = field(default_factory=HyperConfig)
    sweep: SweepSpec | None = None


@dataclass
class SweepEntry:
    index: int
    config: HyperConfig
    path: str | None = None
    val_accuracy: float | None = None
    ema_path: str | None = None
    ema_val_accuracy: float | None = None
    error: str | None = None

    def validate(self) -> None:
        check_fields(self)
        if self.error is None and (self.path is None or self.val_accuracy is None):
            raise ConfigError("an entry without error needs a path and a val_accuracy")


@dataclass
class SweepManifest:
    """A sweep's entries; ``directory`` is where the file lies, not a field of it."""

    entries: tuple[SweepEntry, ...]
    theta0_digest: str = ""
    directory: str = field(default="", init=False)

    def successful(self) -> list[SweepEntry]:
        return [e for e in self.entries if e.error is None]

    def checkpoint_path(self, entry: SweepEntry) -> Path:
        return Path(self.directory) / entry.path

    def load_checkpoints(self) -> list[Checkpoint]:
        from .tensorstore import load

        return [load(self.checkpoint_path(e)) for e in self.successful()]


def save_manifest(manifest: SweepManifest, path: str | Path) -> None:
    entries = [asdict(e) for e in manifest.entries]
    write_json(path, {"theta0_digest": manifest.theta0_digest, "entries": entries})


def load_manifest(path: str | Path) -> SweepManifest:
    """The manifest at ``path``; a malformed file or entry raises DataFormatError."""
    path = Path(path)
    manifest = decode(SweepManifest, read_json(path, DataFormatError), str(path), DataFormatError)
    manifest.directory = str(path.parent)
    return manifest


@dataclass(frozen=True)
class TensorEntry:
    """One tensor of a checkpoint header: ``nbytes`` of float32 at ``offset`` past the
    payload base."""

    name: str
    shape: tuple[int, ...]
    offset: int
    nbytes: int

    def validate(self) -> None:
        check_fields(self)
        if min(self.shape, default=1) < 0 or self.nbytes != math.prod(self.shape) * 4:
            raise ConfigError(f"tensor {self.name!r}: shape {self.shape} does not match "
                              f"{self.nbytes} bytes")
        if self.offset < 0:
            raise ConfigError(f"tensor {self.name!r}: negative offset {self.offset}")


@dataclass(frozen=True)
class CheckpointHeader:
    tensors: tuple[TensorEntry, ...]
    meta: dict


@dataclass(frozen=True)
class PairEntry:
    """One entry of an ``approx --pairs`` file; checkpoint paths are relative to the file."""

    id: str
    theta0: str
    theta1: str
    learning_rate: float | None = None
