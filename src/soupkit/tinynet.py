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

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from .errors import NonFiniteError, ShapeMismatchError
from .rng import PortableRng, derive_seed
from .schema import ArchSpec, Record
from .tensorstore import Checkpoint, Params, as_params, axpy

if TYPE_CHECKING:
    from .datagen import Dataset

_INIT_STREAM_TAG = 0x494E4954  # distinct substream for weight init draws
LOGIT_FD_STEP = 1e-3  # step of logit_second_directional


@lru_cache(maxsize=64)
def _network(names: tuple[str, ...], shapes: tuple[tuple[int, ...], ...]) -> tuple[tuple, tuple]:
    """(weight, bias, gain) names per layer, no gain for the head, and the width chain.

    ShapeMismatchError unless the tensors form a network with at least one
    hidden layer: 2-D weights whose widths chain, and a bias and gain of
    each layer's width.  Cached on names and shapes (a Layout's slices are
    unhashable before Python 3.12), so each layout is checked once.
    """
    count = sum(name.endswith(".weight") for name in names)
    layers = tuple(
        (f"layer{i}.weight", f"layer{i}.bias", f"layer{i}.gain" if i < count - 1 else None)
        for i in range(count)
    )
    expected = {name for layer in layers for name in layer if name is not None}
    missing, unexpected = sorted(expected - set(names)), sorted(set(names) - expected)
    if missing or unexpected:
        raise ShapeMismatchError(f"parameter names: missing {missing}, unexpected {unexpected}")
    shape = dict(zip(names, shapes))
    weights = [shape[weight] for weight, _, _ in layers]
    two_d = weights and all(len(w) == 2 for w in weights)
    widths = (weights[0][0], *(w[1] for w in weights)) if two_d else ()
    if len(widths) < 3 or min(widths) < 1 or not all(
        w == (fan_in, width) and shape[bias] == (width,) and shape.get(gain, (width,)) == (width,)
        for (_, bias, gain), w, fan_in, width in zip(layers, weights, widths, widths[1:])
    ):
        raise ShapeMismatchError(f"tensor shapes {shape} do not form a network with a hidden layer")
    return layers, widths


def _network_of(weights: Checkpoint | Params) -> tuple[tuple, tuple]:
    """:func:`_network` of the weights' layout."""
    layout = weights.layout
    return _network(layout.names, tuple(shape for _, shape in layout.spans))


def arch_of(theta: Checkpoint | Params | Mapping[str, np.ndarray]) -> ArchSpec:
    """Recover the width chain from parameter shapes; only a plain mapping is widened."""
    weights = theta if isinstance(theta, (Checkpoint, Params)) else as_params(theta)
    return ArchSpec(_network_of(weights)[1])


def check_fits_data(theta: Checkpoint | Params, dataset: Dataset) -> int:
    """The model's class count, after checking that it fits the dataset's features and classes.

    The class count must equal the dataset config's; a dataset without a
    config only bounds it from below by its labels.  Anything else raises
    ShapeMismatchError.
    """
    widths = _network_of(theta)[1]
    input_dim, num_classes = widths[0], widths[-1]
    splits = dataset.splits.values()
    features = sorted({split.x.shape[1] for split in splits})
    if dataset.config is not None:
        classes = dataset.config.num_classes
        fits = num_classes == classes
    else:
        classes = max((int(split.y.max()) + 1 for split in splits if split.y.size), default=0)
        fits = num_classes >= classes
    if features != [input_dim] or not fits:
        raise ShapeMismatchError(
            f"model of {input_dim} inputs and {num_classes} classes does not fit the data "
            f"({'/'.join(map(str, features))} features, {classes} classes)"
        )
    return num_classes


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


def _forward(params: Params, X: np.ndarray, kept: list | None = None) -> np.ndarray:
    """Float64 logits of X, after the input-width check.  With ``kept``, a list, each layer
    appends (names, input, preactivation) to it and the gain product goes to a new array, so
    the preactivation survives; otherwise each layer updates its one matmul result in place.
    Both modes run the same ufuncs in the same order, so their logits are bitwise equal."""
    layers, widths = _network_of(params)
    x = np.asarray(X, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != widths[0]:
        raise ShapeMismatchError(
            f"input shape {x.shape} does not match layer0.weight {params['layer0.weight'].shape}"
        )
    for names in layers:
        weight, bias, gain = names
        z = x @ params[weight]
        z += params[bias]
        if kept is not None:
            kept.append((names, x, z))
        if gain is None:
            return z
        x = np.multiply(z, params[gain], out=None if kept is not None else z)
        np.maximum(x, 0.0, out=x)


def forward(theta: Checkpoint | Mapping[str, np.ndarray], X: np.ndarray) -> np.ndarray:
    """Float64 logits, shape [n, num_classes].

    Forward only: each layer updates one fresh matmul result in place
    and keeps nothing; the logits are bitwise those ``grad64`` returns.
    """
    return _forward(as_params(theta), X)


def _class_max(g: np.ndarray) -> np.ndarray:
    """Max over the class (last) axis, keepdims; bitwise ``np.max(g, axis=-1, keepdims=True)``.

    NumPy reduces the short last axis of a C-order array row by row, which
    for 8 classes is about 9x slower than reducing a column-major copy,
    copy included.  A max is the same whatever order it reads its inputs
    in, so the copy changes no bit.  Sums do change: with 8 or more
    classes NumPy's pairwise summation groups the terms by memory layout,
    and about half of the row sums of a 1000x8 array differ in the last
    bit between the two layouts.  So every class-axis sum stays on the
    C-order array.
    """
    return np.maximum.reduce(np.asfortranarray(g), axis=-1, keepdims=True)


def _normalise(g: np.ndarray, log: bool = True, probs: bool = True) -> tuple:
    """(log-probabilities, probabilities) of float64 logits ``g`` over the class axis, from
    one max-shift, one exp and one C-order row sum; a part not asked for is None."""
    shifted = g - _class_max(g)
    exp = np.exp(shifted)
    total = np.add.reduce(exp, axis=-1, keepdims=True)  # np.sum's reduction, minus its wrapper
    if log:
        shifted -= np.log(total)
    if probs:
        exp /= total
    return shifted if log else None, exp if probs else None


def softmax(logits: np.ndarray) -> np.ndarray:
    return _normalise(np.asarray(logits, dtype=np.float64), log=False)[1]


def log_softmax(logits: np.ndarray) -> np.ndarray:
    return _normalise(np.asarray(logits, dtype=np.float64), probs=False)[0]


def _cross_entropy(targets: np.ndarray, log_probs: np.ndarray) -> float:
    """The one reference cross-entropy, the bits of ``-np.mean(np.sum(targets * log_probs,
    axis=1))``: np.mean of a float64 vector is its np.add.reduce over its length."""
    return float(-(np.add.reduce(np.add.reduce(targets * log_probs, axis=1)) / log_probs.shape[0]))


def check_labels(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Labels as an array, after checking they are 1-D integers in [0, num_classes).

    A negative label would otherwise index from the end of a row.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.dtype.kind not in "iu":  # a bool array would index as a mask
        raise ValueError("labels must be a 1-D integer array")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels out of range for {num_classes} classes")
    return labels


# While beta * max|logits| stays at or below this, every max-shifted scaled
# logit lies in [-2**1021, 0], so no log-probability is -inf.
_SAFE_SCALED_BOUND = 2.0**1020


def label_nll(logits: np.ndarray, labels: np.ndarray) -> Callable[[float], float]:
    """``nll(beta)``, the mean NLL of ``beta * logits`` (widened to 2-D float64) at
    labels that pass :func:`check_labels`.

    Bitwise ``_cross_entropy(onehot, log_softmax(beta * logits))`` for every
    beta > 0, with the work that does not depend on beta done once: the
    class max, the label column and a bound on the logits. Rounding is
    monotone, so ``beta * max`` is the max of ``beta * logits``; where the
    scaled row max is a tie of +0.0 and -0.0 the row's log-sum-exp is at
    least ln 2, so the sign of that zero changes no log-probability. Within
    the bound no log-probability is -inf, so the products ``0.0 * log_probs``
    add only zeros: a probe sums the exponentials of the shifted logits and
    takes only the label column's log-probability. Outside it (no rows, or
    NaN, infinite or huge scaled logits) a probe computes that expression.
    """
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    labels = check_labels(labels, logits.shape[1])
    rows = logits.shape[0]
    if labels.size != rows:
        raise ValueError(f"{labels.size} labels for {rows} rows of logits")
    bound = math.inf
    if rows:
        row_max = _class_max(logits)
        label_logits = logits[np.arange(rows), labels]
        bound = float(np.maximum(-logits.min(), row_max.max()))  # NaN or inf unless finite
        exp = np.empty_like(logits)  # the layout beta * logits gets, for the same row sums

    def nll(beta: float) -> float:
        if not beta * bound <= _SAFE_SCALED_BOUND:
            return _cross_entropy(smoothed_targets(labels, logits.shape[1], 0.0),
                                  log_softmax(beta * logits))
        shift = beta * row_max
        np.multiply(beta, logits, out=exp)
        np.subtract(exp, shift, out=exp)
        np.exp(exp, out=exp)
        picked = beta * label_logits
        picked -= shift[:, 0]
        # np.sum and np.mean call these reductions; a vector's mean is its sum over its length.
        picked -= np.log(np.add.reduce(exp, axis=-1))
        return float(-(np.add.reduce(picked) / rows))

    return nll


def smoothed_targets(labels: np.ndarray, num_classes: int, smoothing: float) -> np.ndarray:
    """(1 - s) * onehot + s / C target rows."""
    labels = check_labels(labels, num_classes)
    if not 0.0 <= smoothing < 1.0:
        raise ValueError("smoothing must lie in [0, 1)")
    targets = np.full((labels.size, num_classes), smoothing / num_classes, dtype=np.float64)
    targets[np.arange(labels.size), labels] += 1.0 - smoothing
    return targets


def loss_ce(
    logits: np.ndarray,
    labels: np.ndarray,
    smoothing: float = 0.0,
    inv_temperature: float = 1.0,
) -> float:
    """Mean label-smoothed cross-entropy of beta * logits: the mean over rows of
    -sum_c targets[c] * log softmax(beta * logits)[c]."""
    if inv_temperature <= 0.0:
        raise ValueError("inv_temperature must be positive")
    if smoothing == 0.0:
        return label_nll(logits, labels)(inv_temperature)
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    targets = smoothed_targets(labels, logits.shape[1], smoothing)
    return _cross_entropy(targets, log_softmax(inv_temperature * logits))


def grad64(
    params: Mapping[str, np.ndarray],
    X: np.ndarray,
    targets: np.ndarray,
    inv_temperature: float = 1.0,
    out: Params | None = None,
) -> tuple[float, Params, np.ndarray]:
    """Loss, its gradient w.r.t. every parameter and the logits, all float64.

    Loss is the batch mean of the target-distribution cross-entropy of
    ``inv_temperature * logits``; the logits are unscaled, bitwise ``forward(params, X)``.
    The gradient shares the params' layout: with ``out``, a Params of that layout,
    it overwrites every element of ``out`` and ``out`` is returned; otherwise it is new.
    """
    if inv_temperature <= 0.0:
        raise ValueError("inv_temperature must be positive")
    if not isinstance(params, Params):
        params = as_params(params)
    if out is None:
        out = Params(params.layout, np.empty_like(params.vector))
    elif not isinstance(out, Params) or out.layout != params.layout:
        raise ShapeMismatchError("out must be a Params of the same layout as params")
    kept: list[tuple] = []
    logits = _forward(params, X, kept)
    log_probs, probs = _normalise(inv_temperature * logits)
    loss = _cross_entropy(targets, log_probs)
    upstream = inv_temperature * (probs - targets) / logits.shape[0]  # d loss / d logits
    for i in range(len(kept) - 1, -1, -1):
        (weight, bias, gain), layer_in, z = kept[i]
        d_z = upstream
        if gain is not None:
            d_u = upstream * (kept[i + 1][1] > 0.0)  # relu(u) > 0 exactly where u > 0
            np.add.reduce(d_u * z, axis=0, out=out[gain])
            d_z = d_u * params[gain]
        np.matmul(layer_in.T, d_z, out=out[weight])
        np.add.reduce(d_z, axis=0, out=out[bias])
        if i > 0:
            upstream = d_z @ params[weight].T
    return loss, out, logits


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
) -> np.ndarray:
    """Central second difference of logits along delta, per class.

    Returns (f(theta + h*delta) - 2 f(theta) + f(theta - h*delta)) / h**2
    for h = ``LOGIT_FD_STEP``, shape [n, num_classes], all in float64.
    """
    h = LOGIT_FD_STEP
    params, d = as_params(theta), as_params(delta)
    plus, minus = axpy(params, d, h), axpy(params, d, -h)
    return (forward(plus, X) - 2.0 * forward(params, X) + forward(minus, X)) / (h * h)


class EvalReport(Record, frozen=False):
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


def top1_error(logits: np.ndarray, labels: np.ndarray) -> float:
    """Share of rows whose prediction is not the label."""
    return float(np.mean(predictions(logits) != labels))


def evaluate_logits(logits: np.ndarray, labels: np.ndarray) -> EvalReport:
    """Loss and top-1 error of known logits; NonFiniteError when the loss is not finite,
    since argmax over NaN logits picks the first NaN, not a prediction."""
    labels = np.asarray(labels)
    loss = loss_ce(logits, labels)
    if not np.isfinite(loss):
        raise NonFiniteError(f"non-finite loss {loss!r} over {labels.size} rows")
    return EvalReport(count=len(labels), loss=loss, top1_error=top1_error(logits, labels))


def evaluate(
    theta: Checkpoint | Mapping[str, np.ndarray],
    X: np.ndarray,
    labels: np.ndarray,
) -> EvalReport:
    """Loss and top-1 error on a split."""
    return evaluate_logits(forward(theta, X), labels)
