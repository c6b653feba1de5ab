"""A small fully-connected classifier with an analytic backward pass.

Architecture: ``layer_widths = (input_dim, h1, ..., num_classes)`` with
at least one hidden layer.  Hidden layer ``i`` computes

    a = relu(gain_i * (x @ W_i + b_i))

where ``gain_i`` is an elementwise vector applied before the activation;
the final layer is affine with no gain.  Parameters are named
``layer{i}.weight``, ``layer{i}.bias`` and, for hidden layers only,
``layer{i}.gain``.

Checkpoints store float32; every computation here runs in float64 on
:class:`~soupkit.tensorstore.Params`, one flat vector plus a layout
(names in checkpoint order, with slices and shapes).
``params["layer0.weight"]`` is a view into ``params.vector``, so the
matmuls read named tensors while optimizer steps update the whole model
in one vector expression.  Operations accept a Checkpoint, a Params or
any ``{name: array}`` mapping.  The relu subgradient at exactly zero is
taken to be zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .errors import ShapeMismatchError
from .rng import PortableRng, derive_seed
from .tensorstore import Checkpoint, Params, as_params, axpy, to_checkpoint

_INIT_STREAM_TAG = 0x494E4954  # distinct substream for weight init draws


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


@lru_cache(maxsize=64)
def _layer_names(names: tuple[str, ...]) -> tuple[tuple[str, str, str | None], ...]:
    """(weight, bias, gain) names per layer, no gain for the head; cached, so validated once."""
    count = sum(name.endswith(".weight") for name in names)
    layers = tuple(
        (f"layer{i}.weight", f"layer{i}.bias", f"layer{i}.gain" if i < count - 1 else None)
        for i in range(count)
    )
    expected = {name for layer in layers for name in layer if name is not None}
    missing, unexpected = sorted(expected - set(names)), sorted(set(names) - expected)
    if missing or unexpected:
        raise ShapeMismatchError(f"parameter names: missing {missing}, unexpected {unexpected}")
    return layers


def arch_of(theta: Checkpoint | Mapping[str, np.ndarray]) -> ArchSpec:
    """Recover the width chain from parameter shapes."""
    params = as_params(theta)
    widths = [params["layer0.weight"].shape[0]]
    widths += [params[weight].shape[1] for weight, _, _ in _layer_names(params.layout.names)]
    return ArchSpec(tuple(widths))


def init_checkpoint(arch: ArchSpec, seed: int) -> Checkpoint:
    """He-style gaussian init, drawn from a dedicated portable substream.

    Hidden weights ~ N(0, 2/fan_in), head weights ~ N(0, 1/fan_in),
    biases zero, gains one.  Weights are drawn layer by layer in
    row-major order.
    """
    rng = PortableRng(derive_seed(seed, _INIT_STREAM_TAG))
    arrays: dict[str, np.ndarray] = {}
    for i in range(arch.num_layers):
        fan_in, fan_out = arch.layer_widths[i], arch.layer_widths[i + 1]
        hidden = i < arch.num_layers - 1
        std = np.sqrt((2.0 if hidden else 1.0) / fan_in)
        arrays[f"layer{i}.weight"] = std * rng.normals(fan_in * fan_out).reshape(fan_in, fan_out)
        arrays[f"layer{i}.bias"] = np.zeros(fan_out)
        if hidden:
            arrays[f"layer{i}.gain"] = np.ones(fan_out)
    meta = {
        "role": "init",
        "arch": ",".join(str(w) for w in arch.layer_widths),
        "seed": str(seed),
    }
    return Checkpoint.from_arrays(arrays, meta)


def _forward_cached(params: Params, X: np.ndarray) -> tuple[list[tuple], np.ndarray]:
    """Logits plus (input, preactivation, gained preactivation) per layer."""
    layers = _layer_names(params.layout.names)
    x = np.asarray(X, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params["layer0.weight"].shape[0]:
        raise ShapeMismatchError(
            f"input shape {x.shape} does not match layer0.weight {params['layer0.weight'].shape}"
        )
    cache: list[tuple] = []
    for weight, bias, gain in layers[:-1]:
        z = x @ params[weight] + params[bias]
        u = params[gain] * z
        cache.append((x, z, u))
        x = np.maximum(u, 0.0)
    weight, bias, _ = layers[-1]
    cache.append((x, None, None))
    return cache, x @ params[weight] + params[bias]


def forward(theta: Checkpoint | Mapping[str, np.ndarray], X: np.ndarray) -> np.ndarray:
    """Float64 logits, shape [n, num_classes]."""
    _, logits = _forward_cached(as_params(theta), X)
    return logits


def softmax(logits: np.ndarray) -> np.ndarray:
    g = np.asarray(logits, dtype=np.float64)
    g = g - np.max(g, axis=-1, keepdims=True)
    e = np.exp(g)
    return e / np.sum(e, axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    g = np.asarray(logits, dtype=np.float64)
    m = np.max(g, axis=-1, keepdims=True)
    return g - m - np.log(np.sum(np.exp(g - m), axis=-1, keepdims=True))


def smoothed_targets(labels: np.ndarray, num_classes: int, smoothing: float) -> np.ndarray:
    """(1 - s) * onehot + s / C target rows."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-D integer array")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels out of range for {num_classes} classes")
    if not 0.0 <= smoothing < 1.0:
        raise ValueError("smoothing must lie in [0, 1)")
    targets = np.full((labels.size, num_classes), smoothing / num_classes, dtype=np.float64)
    targets[np.arange(labels.size), labels] += 1.0 - smoothing
    return targets


def cross_entropy_from_targets(
    logits: np.ndarray, targets: np.ndarray, inv_temperature: float = 1.0
) -> float:
    """Mean of -sum_c targets[c] * log softmax(beta * logits)[c]."""
    if inv_temperature <= 0.0:
        raise ValueError("inv_temperature must be positive")
    ls = log_softmax(inv_temperature * np.asarray(logits, dtype=np.float64))
    return float(-np.mean(np.sum(targets * ls, axis=1)))


def loss_ce(
    logits: np.ndarray,
    labels: np.ndarray,
    smoothing: float = 0.0,
    inv_temperature: float = 1.0,
) -> float:
    """Mean label-smoothed cross-entropy of beta * logits."""
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    targets = smoothed_targets(labels, logits.shape[1], smoothing)
    return cross_entropy_from_targets(logits, targets, inv_temperature)


def grad64(
    params: Mapping[str, np.ndarray],
    X: np.ndarray,
    targets: np.ndarray,
    inv_temperature: float = 1.0,
) -> tuple[float, Params]:
    """Loss and its gradient w.r.t. every parameter, all float64.

    Loss is the batch mean of the target-distribution cross-entropy of
    ``inv_temperature * logits``; the gradient shares the params' layout.
    """
    if inv_temperature <= 0.0:
        raise ValueError("inv_temperature must be positive")
    if not isinstance(params, Params):
        params = as_params(params)
    cache, logits = _forward_cached(params, X)
    n = logits.shape[0]
    # One max-shift and exp pass serves both softmax and log-softmax.  The
    # ufunc reductions are what np.max/np.sum call, minus their Python wrapper.
    shifted = inv_temperature * logits
    shifted -= np.maximum.reduce(shifted, axis=-1, keepdims=True)
    exp = np.exp(shifted)
    total = np.add.reduce(exp, axis=-1, keepdims=True)
    loss = float(-np.mean(np.add.reduce(targets * (shifted - np.log(total)), axis=1)))
    grads = Params(params.layout, np.empty_like(params.vector))
    upstream = inv_temperature * (exp / total - targets) / n  # d loss / d logits
    layers = _layer_names(params.layout.names)
    for i in range(len(layers) - 1, -1, -1):
        weight, bias, gain = layers[i]
        layer_in, z, u = cache[i]
        d_z = upstream
        if gain is not None:
            d_u = upstream * (u > 0.0)
            np.add.reduce(d_u * z, axis=0, out=grads[gain])
            d_z = d_u * params[gain]
        np.matmul(layer_in.T, d_z, out=grads[weight])
        np.add.reduce(d_z, axis=0, out=grads[bias])
        if i > 0:
            upstream = d_z @ params[weight].T
    return loss, grads


def grad(
    theta: Checkpoint | Mapping[str, np.ndarray],
    X: np.ndarray,
    labels: np.ndarray,
    smoothing: float = 0.0,
    inv_temperature: float = 1.0,
) -> Checkpoint:
    """Mean-loss gradient packaged as a checkpoint with theta's shapes."""
    params = as_params(theta)
    num_classes = arch_of(params).num_classes
    targets = smoothed_targets(labels, num_classes, smoothing)
    _, grads = grad64(params, X, targets, inv_temperature)
    return to_checkpoint(grads, {"role": "gradient"})


def hessian_quadratic_form(logits: np.ndarray, v: np.ndarray) -> np.ndarray | float:
    """v' H v for the cross-entropy Hessian in logit space.

    Equals the variance of v[Y] under Y ~ softmax(logits); accepts a
    single row or a batch of rows.
    """
    f = np.asarray(logits, dtype=np.float64)
    w = np.asarray(v, dtype=np.float64)
    if f.shape != w.shape:
        raise ShapeMismatchError(f"logits shape {f.shape} != direction shape {w.shape}")
    p = softmax(f)
    mean = np.sum(p * w, axis=-1)
    second = np.sum(p * w * w, axis=-1)
    out = second - mean * mean
    return float(out) if out.ndim == 0 else out


def logit_second_directional(
    theta: Checkpoint | Mapping[str, np.ndarray],
    delta: Checkpoint | Mapping[str, np.ndarray],
    X: np.ndarray,
    h: float = 1e-3,
) -> np.ndarray:
    """Central second difference of logits along delta, per class.

    Returns (f(theta + h*delta) - 2 f(theta) + f(theta - h*delta)) / h**2
    with shape [n, num_classes], computed entirely in float64.
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    params, d = as_params(theta), as_params(delta)
    plus, minus = axpy(params, d, h), axpy(params, d, -h)
    return (forward(plus, X) - 2.0 * forward(params, X) + forward(minus, X)) / (h * h)


@dataclass
class EvalReport:
    """Scalar metrics of one model (or merged model) on one split."""

    count: int
    loss: float
    top1_error: float
    calibrated_loss: float | None = None
    ece: float | None = None

    @property
    def accuracy(self) -> float:
        return 1.0 - self.top1_error


def predictions(logits: np.ndarray) -> np.ndarray:
    """Argmax per row; ties resolve to the lowest class index."""
    return np.argmax(np.asarray(logits), axis=-1)


def evaluate(
    theta: Checkpoint | Mapping[str, np.ndarray],
    X: np.ndarray,
    labels: np.ndarray,
    inv_temperature: float | None = None,
) -> EvalReport:
    """Loss and top-1 error on a split; calibrated loss when beta given."""
    logits = forward(theta, X)
    labels = np.asarray(labels)
    loss = loss_ce(logits, labels)
    err = float(np.mean(predictions(logits) != labels))
    calibrated = None
    if inv_temperature is not None:
        calibrated = loss_ce(logits, labels, inv_temperature=inv_temperature)
    return EvalReport(count=len(labels), loss=loss, top1_error=err, calibrated_loss=calibrated)

