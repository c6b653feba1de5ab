"""Deterministic training: base-model pretraining and fine-tuning sweeps.

Given the same inputs, every function here reproduces its outputs bit
for bit.  All stochastic choices come from portable substreams:

* weight init: handled by :func:`soupkit.tinynet.init_checkpoint`,
* data order: one stream per epoch, seeded ``derive_seed(h.seed, epoch)``;
  its draws are consumed as (1) the epoch permutation, then per batch
  (2) input-noise normals when ``input_noise_std > 0``, then (3) the
  mixup lambda and batch permutation when ``mixup_alpha > 0``,
* random hyperparameter search: one stream per candidate index.

Training math runs in float64; weights round to float32 only when a
checkpoint is materialized.  The recorded validation accuracy is always
computed from the rounded checkpoint, so reloading a saved file and
re-evaluating reproduces the manifest value exactly.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .datagen import Dataset
from .errors import (
    ConfigError,
    DataFormatError,
    DivergenceError,
    SoupkitError,
    check_fields,
    decode,
)
from .fileio import read_json, write_json
from .rng import PortableRng, derive_seed
from .tensorstore import (
    Checkpoint,
    Params,
    as_params,
    content_digest,
    dot,
    load as load_checkpoint,
    save as save_checkpoint,
    to_checkpoint,
)
from .tinynet import (
    ArchSpec,
    check_fits_data,
    evaluate,
    forward,
    grad64,
    init_checkpoint,
    loss_ce,
    smoothed_targets,
)

OPTIMIZERS = ("sgd", "adamw")
SCHEDULES = ("constant", "cosine")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Johnk's Beta sampler accepts a draw pair with probability
# Gamma(a+1)**2 / Gamma(2a+1): about 1.4% at this mixup alpha, 1.7e-9 at 16.
MIXUP_ALPHA_MAX = 4.0


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


def cosine_lr(base: float, step: int, total_steps: int) -> float:
    """base * 0.5 * (1 + cos(pi * step / total_steps))."""
    return base * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


def schedule_lr(h: HyperConfig, step: int, total_steps: int) -> float:
    if h.schedule == "constant":
        return h.learning_rate
    return cosine_lr(h.learning_rate, step, total_steps)


def mixup_batch(
    X: np.ndarray, targets: np.ndarray, alpha: float, rng: PortableRng
) -> tuple[np.ndarray, np.ndarray]:
    """Convexly blend the batch with a shuffled copy of itself.

    lambda ~ Beta(alpha, alpha); alpha == 0 is the identity and consumes
    no draws.  Target rows blend with the same lambda as the inputs.
    """
    if alpha == 0.0:
        return X, targets
    lam = rng.beta(alpha, alpha)
    perm = rng.permutation(len(X))
    return lam * X + (1.0 - lam) * X[perm], lam * targets + (1.0 - lam) * targets[perm]


def sgd_step(w: np.ndarray, g: np.ndarray, lr: float, weight_decay: float) -> None:
    """In-place w -= lr * (g + wd * w) on a flat parameter vector."""
    w -= lr * (g + weight_decay * w)


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros_like(cls, w: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(w), v=np.zeros_like(w))


def adamw_step(
    w: np.ndarray, g: np.ndarray, state: AdamState, lr: float, weight_decay: float
) -> None:
    """One decoupled-weight-decay Adam update of a flat vector, in place.

    m and v use betas (0.9, 0.999) with bias correction; decay is applied
    directly to the weights, scaled by lr, never through the moments.
    """
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * g
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * g * g
    w -= lr * (state.m / bc1 / (np.sqrt(state.v / bc2) + ADAM_EPS) + weight_decay * w)


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    ema: Checkpoint | None


def _train_loop(params0: Params, h: HyperConfig, dataset: Dataset) -> tuple[Params, Params | None, float, float]:
    train = dataset.train
    num_classes = check_fits_data(params0, dataset)
    X_all = train.x.astype(np.float64)
    base_targets = smoothed_targets(train.y, num_classes, h.label_smoothing)
    # Each epoch gathers its order into these once; a batch is then a slice.
    X_epoch = np.empty_like(X_all)
    T_epoch = np.empty_like(base_targets)

    params = params0.copy()
    w = params.vector
    grads = Params(params.layout, np.empty_like(w))  # every grad64 call overwrites it
    ema = params0.copy() if h.ema_decay is not None else None
    adam = AdamState.zeros_like(w) if h.optimizer == "adamw" else None

    n = len(train.y)
    steps_per_epoch = (n + h.batch_size - 1) // h.batch_size
    total_steps = h.epochs * steps_per_epoch
    loss_initial = loss_ce(forward(params, X_all), train.y, h.label_smoothing)

    step = 0
    for epoch in range(h.epochs):
        rng = PortableRng(derive_seed(h.seed, epoch))
        order = rng.permutation(n)
        # order is a permutation, so clipping changes no index; unlike the
        # default mode="raise", it lets take write into out unbuffered.
        np.take(X_all, order, axis=0, out=X_epoch, mode="clip")
        np.take(base_targets, order, axis=0, out=T_epoch, mode="clip")
        for start in range(0, n, h.batch_size):
            xb = X_epoch[start : start + h.batch_size]
            tb = T_epoch[start : start + h.batch_size]
            if h.input_noise_std > 0.0:
                noise = rng.normals(xb.size).reshape(xb.shape)
                xb = xb + h.input_noise_std * noise
            if h.mixup_alpha > 0.0:
                xb, tb = mixup_batch(xb, tb, h.mixup_alpha, rng)

            lr = schedule_lr(h, step, total_steps)
            # Divergence is detected explicitly below, so let overflow
            # reach the isfinite check instead of warning.
            with np.errstate(over="ignore", invalid="ignore"):
                loss, _ = grad64(params, xb, tb, out=grads)
            if not math.isfinite(loss):
                raise DivergenceError(f"non-finite training loss at step {step}")
            if h.sam_rho:
                norm = math.sqrt(dot(grads, grads))
                if norm > 0.0:
                    ascended = Params(params.layout, w + h.sam_rho * grads.vector / norm)
                    loss, _ = grad64(ascended, xb, tb, out=grads)
                    if not math.isfinite(loss):
                        raise DivergenceError(f"non-finite perturbed loss at step {step}")
            if h.optimizer == "sgd":
                sgd_step(w, grads.vector, lr, h.weight_decay)
            else:
                adamw_step(w, grads.vector, adam, lr, h.weight_decay)
            if ema is not None:
                ema.vector *= h.ema_decay
                ema.vector += (1.0 - h.ema_decay) * w
            step += 1

    loss_final = loss_ce(forward(params, X_all), train.y, h.label_smoothing)
    return params, ema, loss_initial, loss_final


def _finalize(params: Params, meta: dict[str, str], dataset: Dataset) -> Checkpoint:
    ckpt = to_checkpoint(params, meta)
    ckpt.meta["val_accuracy"] = repr(evaluate(ckpt, dataset.val.x, dataset.val.y).accuracy)
    return ckpt


def pretrain(arch: ArchSpec, dataset: Dataset, cfg: HyperConfig) -> Checkpoint:
    """Train a fresh base model from a seeded init; returns theta0."""
    cfg.validate()
    init = init_checkpoint(arch, cfg.seed)
    params, _, loss_init, loss_final = _train_loop(as_params(init), cfg, dataset)
    meta = {
        "role": "pretrain",
        "arch": ",".join(str(w) for w in arch.layer_widths),
        "hyper": cfg.to_json(),
        "config_digest": cfg.digest(),
        "train_loss_initial": repr(loss_init),
        "train_loss_final": repr(loss_final),
    }
    return _finalize(params, meta, dataset)


def finetune(theta0: Checkpoint, h: HyperConfig, dataset: Dataset) -> TrainResult:
    """Fine-tune from a shared base; deterministic in (theta0, h, dataset).

    A base that does not fit the dataset raises ShapeMismatchError.
    """
    h.validate()
    base_digest = content_digest(theta0)
    params, ema, loss_init, loss_final = _train_loop(as_params(theta0), h, dataset)
    meta = {
        "role": "finetune",
        "hyper": h.to_json(),
        "config_digest": h.digest(),
        "base_digest": base_digest,
        "train_loss_initial": repr(loss_init),
        "train_loss_final": repr(loss_final),
    }
    ckpt = _finalize(params, meta, dataset)
    ema_ckpt = None if ema is None else _finalize(ema, {**meta, "role": "finetune-ema"}, dataset)
    return TrainResult(checkpoint=ckpt, ema=ema_ckpt)


# ------------------------------------------------------------- random search


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


def random_search_configs(
    count: int, master_seed: int, space: SearchSpace = SearchSpace()
) -> list[HyperConfig]:
    """Independent random-search candidates; lr/wd are log-uniform."""
    space.validate()
    configs = []
    for i in range(count):
        rng = PortableRng(derive_seed(master_seed, i))
        lo, hi = space.lr_exponent_range
        lr = 10.0 ** -(lo + (hi - lo) * rng.uniforms(1)[0])
        lo, hi = space.wd_exponent_range
        wd = 10.0 ** -(lo + (hi - lo) * rng.uniforms(1)[0])
        coin, value = rng.uniforms(2)
        smoothing = 0.0 if coin < space.smoothing_off_probability else value * space.smoothing_max
        e_lo, e_hi = space.epochs_range
        epochs = e_lo + rng.below(e_hi - e_lo + 1)
        coin, value = rng.uniforms(2)
        mixup = 0.0 if coin < space.mixup_off_probability else value * space.mixup_max
        noise = 0.0
        if space.noise_std_max > 0.0:
            coin, value = rng.uniforms(2)
            noise = 0.0 if coin < space.noise_off_probability else value * space.noise_std_max
        seed = int(rng.raw(1)[0] >> np.uint64(11))
        configs.append(
            HyperConfig(
                learning_rate=float(lr),
                weight_decay=float(wd),
                epochs=int(epochs),
                batch_size=space.batch_size,
                seed=seed,
                label_smoothing=float(smoothing),
                mixup_alpha=float(mixup),
                input_noise_std=float(noise),
                optimizer=space.optimizer,
                schedule=space.schedule,
            )
        )
    return configs


# ------------------------------------------------------------- sweeps


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
    entries: list[SweepEntry]
    theta0_digest: str = ""
    directory: str = ""

    def successful(self) -> list[SweepEntry]:
        return [e for e in self.entries if e.error is None]

    def checkpoint_path(self, entry: SweepEntry) -> Path:
        return Path(self.directory) / entry.path

    def load_checkpoints(self) -> list[Checkpoint]:
        return [load_checkpoint(self.checkpoint_path(e)) for e in self.successful()]


def effective_workers(requested: int | None) -> int:
    """Worker count requested of a sweep, capped by SOUPKIT_THREADS; a cap below 1 counts as 1.

    run_sweep trains serially whatever this returns; the count is kept for
    callers that record the requested parallelism.
    """
    cap = os.environ.get("SOUPKIT_THREADS")
    workers = requested if requested is not None else 1
    if cap is not None:
        try:
            workers = min(workers, max(1, int(cap)))
        except ValueError as exc:
            raise ConfigError(f"SOUPKIT_THREADS must be an integer, got {cap!r}") from exc
    return max(1, workers)


def run_sweep(
    theta0: Checkpoint,
    configs: Sequence[HyperConfig],
    dataset: Dataset,
    out_dir: str | Path,
    max_workers: int | None = None,
) -> SweepManifest:
    """Fine-tune every config in order, saving checkpoints and a manifest.

    Failures are recorded per entry (error string, no path); the other
    entries still complete, except that a base that does not fit the
    dataset raises ShapeMismatchError before anything is written, since it
    would fail every config the same way.  Configs train one after another
    on the calling thread; ``max_workers`` is accepted and has no effect,
    because a thread pool measured slower than this loop (README,
    "Determinism and threading").
    """
    check_fits_data(theta0, dataset)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    entries = []
    for index, h in enumerate(configs):
        entry = SweepEntry(index=index, config=h)
        entries.append(entry)
        try:
            result = finetune(theta0, h, dataset)
        except SoupkitError as exc:
            entry.error = f"{type(exc).__name__}: {exc}"
            continue
        name = f"model_{index:03d}.ckpt"
        save_checkpoint(result.checkpoint, out_dir / name)
        entry.path = name
        entry.val_accuracy = float(result.checkpoint.meta["val_accuracy"])
        if result.ema is not None:
            ema_name = f"model_{index:03d}.ema.ckpt"
            save_checkpoint(result.ema, out_dir / ema_name)
            entry.ema_path = ema_name
            entry.ema_val_accuracy = float(result.ema.meta["val_accuracy"])

    manifest = SweepManifest(
        entries=entries, theta0_digest=content_digest(theta0), directory=str(out_dir)
    )
    save_manifest(manifest, out_dir / "manifest.json")
    return manifest


def save_manifest(manifest: SweepManifest, path: str | Path) -> None:
    entries = [asdict(e) for e in manifest.entries]
    write_json(path, {"theta0_digest": manifest.theta0_digest, "entries": entries})


def load_manifest(path: str | Path) -> SweepManifest:
    """The manifest at ``path``; a malformed file or entry raises DataFormatError."""
    path = Path(path)
    raw = read_json(path, DataFormatError)
    try:
        entries = [decode(SweepEntry, e, f"entries[{i}]") for i, e in enumerate(raw["entries"])]
        theta0_digest = raw.get("theta0_digest", "")
        if not isinstance(theta0_digest, str):
            raise ConfigError(f"theta0_digest must be str, got {theta0_digest!r}")
    except (ConfigError, KeyError, TypeError, AttributeError) as exc:
        raise DataFormatError(f"{path}: not a sweep manifest: {exc!r}") from exc
    return SweepManifest(entries=entries, theta0_digest=theta0_digest, directory=str(path.parent))
