"""Every record soupkit builds or reads back from a file, declared and checked once.

A record is a dataclass whose annotations are its file's types, and building
one checks it, so a record is valid from the moment it exists.  :func:`decode`
is the one way to read a record: a run config (:class:`RunConfig`), a sweep
manifest (:class:`SweepManifest`), a checkpoint header (:class:`CheckpointHeader`)
and an ``approx --pairs`` entry (:class:`PairEntry`).  This module needs neither
NumPy nor the training code, so reading a record loads neither.
"""

from __future__ import annotations

import json
import math
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import lru_cache, partial
from numbers import Integral, Real
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from .errors import ConfigError, DataFormatError, SoupkitError
from .fileio import read_json, sha256, write_json

if TYPE_CHECKING:
    from .tensorstore import Checkpoint


def _as_is(value: object, where: str, error: type[SoupkitError]) -> object:
    return value


def _compile(hint: object) -> tuple[Callable[[object], bool], Callable[..., object]]:
    """``(check, read)`` for a field annotated ``hint``.  ``check(value)``: a record may hold
    ``value`` (a bool is no int or float, 8.0 is no int, a float is finite).
    ``read(value, where, error)``: parsed JSON as a ``hint``, objects as records, lists tuples."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):  # X | None
        check, read = _compile(args[0])
        return (lambda v: v is None or check(v),
                lambda v, where, error: None if v is None else read(v, where, error))
    if is_dataclass(hint):
        return lambda v: isinstance(v, hint), partial(decode, hint)
    if origin is tuple and args[-1:] == (Ellipsis,):
        check, read = _compile(args[0])
        return (lambda v: isinstance(v, tuple) and all(map(check, v)),
                lambda v, where, error: tuple(read(item, f"{where}[{i}]", error)
                                              for i, item in enumerate(v))
                if isinstance(v, list) else v)
    if origin is tuple:
        checks = [_compile(arg)[0] for arg in args]
        return (lambda v: isinstance(v, tuple) and len(v) == len(checks)
                and all(check(item) for check, item in zip(checks, v)),
                lambda v, where, error: tuple(v) if isinstance(v, list) else v)
    if hint is int:
        return lambda v: isinstance(v, Integral) and not isinstance(v, bool), _as_is
    if hint is float:
        return (lambda v: isinstance(v, Real) and not isinstance(v, bool) and math.isfinite(v),
                _as_is)
    return lambda v: isinstance(v, hint), _as_is


@lru_cache(maxsize=None)
def _plan(cls: type) -> dict[str, types.SimpleNamespace]:
    """Each field of the record class ``cls`` by name, compiled from its hint on first use:
    the type text errors show, ``check`` and ``read`` from :func:`_compile`, and whether a
    file must give the field (it has no default)."""
    hints, plan = typing.get_type_hints(cls), {}
    for f in fields(cls):
        hint = hints[f.name]
        check, read = _compile(hint)
        plan[f.name] = types.SimpleNamespace(
            shown=hint.__name__ if isinstance(hint, type) else str(hint), check=check, read=read,
            required=f.default is MISSING and f.default_factory is MISSING)
    return plan


class _Record:
    """Base of every record: building one raises ConfigError unless each field matches
    its annotation (NaN and ``true`` pass range checks), then checks the record's rules."""

    def __post_init__(self) -> None:
        for name, f in _plan(type(self)).items():
            value = getattr(self, name)
            if not f.check(value):
                raise ConfigError(f"{name} must be {f.shown}, got {value!r} (floats must be "
                                  "finite, bools are not ints)")
        self._check()

    def _check(self) -> None:
        """The record's rules beyond its field types; a broken one raises."""


def decode(cls: type, raw: object, where: str, error: type[SoupkitError] = ConfigError):
    """The ``cls`` record from the JSON object ``raw``; lists become tuples and objects
    nested records.  A bad ``raw`` raises ``error``, the category of the file it was
    read from, with ``where`` in front of the message."""
    if not isinstance(raw, dict):
        raise error(f"{where} must be an object, got {raw!r}")
    plan = _plan(cls)
    unknown = sorted(raw.keys() - plan.keys())
    missing = [name for name, f in plan.items() if f.required and name not in raw]
    if unknown or missing:
        raise error(f"{where}: unknown keys {unknown}, missing keys {missing}")
    # Nested records are built first: their errors already say where they are.
    values = {k: plan[k].read(v, f"{where}.{k}", error) for k, v in raw.items()}
    try:
        return cls(**values)
    except (ConfigError, TypeError, ValueError) as exc:  # the record does not know its file
        raise error(f"{where}: {exc}") from exc


SHIFT_KINDS = ("mean-shift", "noise-inflation", "rotation")
OPTIMIZERS = ("sgd", "adamw")
SCHEDULES = ("constant", "cosine")

# Johnk's Beta sampler accepts a draw pair with probability
# Gamma(a+1)**2 / Gamma(2a+1): about 1.4% at this mixup alpha, 1.7e-9 at 16.
MIXUP_ALPHA_MAX = 4.0


@dataclass(frozen=True)
class DatasetConfig(_Record):
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

    def _check(self) -> None:
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
class ArchSpec(_Record):
    """Full width chain, input through hidden layers to class count."""

    layer_widths: tuple[int, ...]

    def _check(self) -> None:
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
class HyperConfig(_Record):
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

    def _check(self) -> None:
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
        return sha256(self.to_json().encode("utf-8")).hexdigest()[:12]

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)


@dataclass(frozen=True)
class SearchSpace(_Record):
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

    def _check(self) -> None:
        """ConfigError unless every candidate drawn from this space is a valid HyperConfig."""
        for name in ("lr_exponent_range", "wd_exponent_range", "epochs_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ConfigError(f"{name} must be an ordered pair, got {(lo, hi)!r}")
            if name != "epochs_range" and lo < -308:  # a rate 10**-exponent past 1e308 is inf
                raise ConfigError(f"{name} must not go below -308, got {(lo, hi)!r}")
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
        # Fields every candidate copies as they are; building the config checks them.
        HyperConfig(batch_size=self.batch_size, optimizer=self.optimizer, schedule=self.schedule)


@dataclass(frozen=True)
class SweepSpec(_Record):
    """A sweep's configs: ``count`` random-search draws from ``space`` (default
    SearchSpace()) seeded by ``master_seed``, or the ``configs`` listed."""

    count: int | None = None
    master_seed: int | None = None
    space: SearchSpace | None = None
    configs: tuple[HyperConfig, ...] | None = None

    def _check(self) -> None:
        if self.configs is not None:
            if not self.configs or (self.count, self.master_seed, self.space) != (None,) * 3:
                raise ConfigError("configs must be a nonempty list, with no count, master_seed "
                                  "or space next to it")
        elif self.count is None or self.master_seed is None or self.count < 1:
            raise ConfigError(f"needs an integer count >= 1 and a master_seed (or explicit "
                              f"configs), got {self.count!r} and {self.master_seed!r}")


@dataclass(frozen=True)
class RunConfig(_Record):
    """A run config; each section is optional until a command needs it."""

    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    arch: ArchSpec | None = None
    pretrain: HyperConfig = field(default_factory=HyperConfig)
    sweep: SweepSpec | None = None


@dataclass(frozen=True)
class SweepEntry(_Record):
    index: int
    config: HyperConfig
    path: str | None = None
    val_accuracy: float | None = None
    ema_path: str | None = None
    ema_val_accuracy: float | None = None
    error: str | None = None

    def _check(self) -> None:
        if self.error is None and (self.path is None or self.val_accuracy is None):
            raise ConfigError("an entry without error needs a path and a val_accuracy")


@dataclass
class SweepManifest(_Record):
    """A sweep's entries; ``directory`` is where the file lies, not a field of it."""

    entries: tuple[SweepEntry, ...]
    theta0_digest: str = ""
    directory = ""  # no annotation, so no dataclass field: load_manifest sets it

    def successful(self) -> list[SweepEntry]:
        return [e for e in self.entries if e.error is None]

    def checkpoint_path(self, entry: SweepEntry) -> Path:
        return Path(self.directory) / entry.path

    def load_checkpoints(self) -> list[Checkpoint]:
        from .tensorstore import load

        return [load(self.checkpoint_path(e)) for e in self.successful()]


def save_manifest(manifest: SweepManifest, path: str | Path) -> None:
    entries = [{**vars(e), "config": vars(e.config)} for e in manifest.entries]
    write_json(path, {"theta0_digest": manifest.theta0_digest, "entries": entries})


def load_manifest(path: str | Path) -> SweepManifest:
    """The manifest at ``path``; a malformed file or entry raises DataFormatError."""
    path = Path(path)
    manifest = decode(SweepManifest, read_json(path, DataFormatError), str(path), DataFormatError)
    manifest.directory = str(path.parent)
    return manifest


@dataclass(frozen=True)
class TensorEntry(_Record):
    """One tensor of a checkpoint header: ``nbytes`` of float32 at ``offset`` past the
    payload base."""

    name: str
    shape: tuple[int, ...]
    offset: int
    nbytes: int

    def _check(self) -> None:
        if min(self.shape, default=1) < 0 or self.nbytes != math.prod(self.shape) * 4:
            raise ConfigError(f"tensor {self.name!r}: shape {self.shape} does not match "
                              f"{self.nbytes} bytes")
        if self.offset < 0:
            raise ConfigError(f"tensor {self.name!r}: negative offset {self.offset}")


@dataclass(frozen=True)
class CheckpointHeader(_Record):
    tensors: tuple[TensorEntry, ...]
    meta: dict


@dataclass(frozen=True)
class PairEntry(_Record):
    """One entry of an ``approx --pairs`` file; checkpoint paths are relative to the file."""

    id: str
    theta0: str
    theta1: str
    learning_rate: float | None = None
