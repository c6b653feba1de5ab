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

import math
import os
import sys
from contextlib import contextmanager
from functools import cache
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .datagen import Dataset
from .errors import ConfigError, DivergenceError, SoupkitError
from .rng import PortableRng, derive_seed
from .schema import MIXUP_ALPHA_MAX, load_manifest  # noqa: F401  (re-exported)
from .schema import ArchSpec, HyperConfig, Record, SearchSpace, SweepEntry, SweepManifest, save_manifest
from .tensorstore import (
    Checkpoint,
    Params,
    as_params,
    content_digest,
    dot,
    save as save_checkpoint,
    to_checkpoint,
)
from .tinynet import (
    check_fits_data,
    evaluate,
    forward,
    grad64,
    init_checkpoint,
    loss_ce,
    smoothed_targets,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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


class AdamState(Record, frozen=False):
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


class TrainResult(Record, frozen=False):
    checkpoint: Checkpoint
    ema: Checkpoint | None


# (get, set) thread-count symbols of the OpenBLAS behind NumPy, tried in order:
# NumPy 2 wheels, NumPy 1.x wheels, then a system OpenBLAS.
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@cache
def _blas_thread_calls() -> tuple | None:
    """(get, set) of the thread count of NumPy's OpenBLAS, or None if it has none of these pairs."""
    import ctypes  # only commands that train load it

    umath = sys.modules.get("numpy._core._multiarray_umath") or sys.modules["numpy.core._multiarray_umath"]
    library = ctypes.CDLL(umath.__file__)  # symbol lookups also search the libraries it links
    for get_name, set_name in _BLAS_THREAD_SYMBOLS:
        if hasattr(library, get_name) and hasattr(library, set_name):
            get, set_ = getattr(library, get_name), getattr(library, set_name)
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Run the body's BLAS calls on one OpenBLAS thread, then restore the caller's count.

    OpenBLAS computes each output element on one thread whatever the count, so
    no byte changes.  Training's few large forwards gain too little from a second
    thread to pay for its packing buffer and its spinning after each call.
    """
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    caller = get()
    set_(1)
    try:
        yield
    finally:
        set_(caller)


def _train_loop(params0: Params, h: HyperConfig, dataset: Dataset) -> tuple[Params, Params | None, float, float]:
    train = dataset.train
    num_classes = check_fits_data(params0, dataset)
    X_all = train.x.astype(np.float64)
    params = params0.copy()
    ema = params0.copy() if h.ema_decay is not None else None
    # The epoch buffers live in _run_epochs' frame, so neither loss forward
    # over the whole training set runs with them alive.
    loss_initial = loss_ce(forward(params, X_all), train.y, h.label_smoothing)
    _run_epochs(params, ema, h, X_all, smoothed_targets(train.y, num_classes, h.label_smoothing))
    loss_final = loss_ce(forward(params, X_all), train.y, h.label_smoothing)
    return params, ema, loss_initial, loss_final


def _run_epochs(
    params: Params, ema: Params | None, h: HyperConfig, X_all: np.ndarray, base_targets: np.ndarray
) -> None:
    """Train params (and its EMA) in place for h.epochs epochs over X_all."""
    # Each epoch gathers its order into these once; a batch is then a slice.
    X_epoch = np.empty_like(X_all)
    T_epoch = np.empty_like(base_targets)
    w = params.vector
    grads = Params(params.layout, np.empty_like(w))  # every grad64 call overwrites it
    adam = AdamState.zeros_like(w) if h.optimizer == "adamw" else None

    n = len(X_all)
    steps_per_epoch = (n + h.batch_size - 1) // h.batch_size
    total_steps = h.epochs * steps_per_epoch
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
            # reach the isfinite checks instead of warning.
            with np.errstate(over="ignore", invalid="ignore"):
                loss, _, _ = grad64(params, xb, tb, out=grads)
                if not math.isfinite(loss):
                    raise DivergenceError(f"non-finite training loss at step {step}")
                if h.sam_rho:
                    norm = math.sqrt(dot(grads, grads))
                    if norm > 0.0:
                        ascended = Params(params.layout, w + h.sam_rho * grads.vector / norm)
                        loss, _, _ = grad64(ascended, xb, tb, out=grads)
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


def _finalize(params: Params, meta: dict[str, str], dataset: Dataset) -> Checkpoint:
    ckpt = to_checkpoint(params, meta)
    ckpt.meta["val_accuracy"] = repr(evaluate(ckpt, dataset.val.x, dataset.val.y).accuracy)
    return ckpt


@_one_blas_thread()
def pretrain(arch: ArchSpec, dataset: Dataset, cfg: HyperConfig) -> Checkpoint:
    """Train a fresh base model from a seeded init; returns theta0."""
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


@_one_blas_thread()
def finetune(theta0: Checkpoint, h: HyperConfig, dataset: Dataset) -> TrainResult:
    """Fine-tune from a shared base; deterministic in (theta0, h, dataset).

    A base that does not fit the dataset raises ShapeMismatchError.
    """
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


def random_search_configs(
    count: int, master_seed: int, space: SearchSpace = SearchSpace()
) -> list[HyperConfig]:
    """Independent random-search candidates; lr/wd are log-uniform."""
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
        try:
            result = finetune(theta0, h, dataset)
        except SoupkitError as exc:
            entries.append(SweepEntry(index, h, error=f"{type(exc).__name__}: {exc}"))
            continue
        name = f"model_{index:03d}.ckpt"
        save_checkpoint(result.checkpoint, out_dir / name)
        ema_name = ema_accuracy = None
        if result.ema is not None:
            ema_name = f"model_{index:03d}.ema.ckpt"
            save_checkpoint(result.ema, out_dir / ema_name)
            ema_accuracy = float(result.ema.meta["val_accuracy"])
        accuracy = float(result.checkpoint.meta["val_accuracy"])
        entries.append(SweepEntry(index, h, path=name, val_accuracy=accuracy,
                                  ema_path=ema_name, ema_val_accuracy=ema_accuracy))

    manifest = SweepManifest(entries=tuple(entries), theta0_digest=content_digest(theta0))
    manifest.directory = str(out_dir)
    save_manifest(manifest, out_dir / "manifest.json")
    return manifest
