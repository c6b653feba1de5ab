"""Weight-space merging of fine-tuned models.

All recipes assume the ingredients were fine-tuned from one shared base
so that plain parameter averaging lands in the same loss basin.

* uniform: average everything with weight 1/k, recording the weights and
  the ingredients' content digests in the meta (so does the greedy soup).
* greedy: sort candidates by held-out accuracy (descending, ties keep
  input order), then grow the pool, keeping each candidate iff the
  average of pool + candidate does not lower held-out accuracy.  The
  comparison is >= with an empty-pool score of -inf, so the single best
  model always enters and the pooled score never decreases.
* learned: gradient-optimized mixing weights and logit scale.  Raw
  scores a (one vector per mixing group) pass through softmax to give
  simplex coefficients; the logit scale is beta = exp(b); a and b start
  at zero (uniform mix, beta 1).  All of a and b form one vector,
  optimized by three full-batch steps of the trainer's AdamW step (no
  weight decay) at constant lr 0.1 on a held-out split.  The
  gradient w.r.t. a follows the chain d loss/d alpha_i = <grad_theta
  loss, theta_i> restricted to the group, then softmax backward; the
  gradient w.r.t. b reads the logits of the step's own ``grad64`` pass.  With
  ``by_layer`` every ``layer{i}.`` prefix is its own group (the head
  layer included, on its own).
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeMismatchError
from .fileio import write_json
from .schema import Record
from .tensorstore import (
    Checkpoint,
    Params,
    as_params,
    combine,
    content_digest,
    dot,
    save as save_checkpoint,
    to_checkpoint,
)
from .tinynet import (
    arch_of,
    evaluate,
    forward,
    grad64,
    loss_ce,
    smoothed_targets,
    softmax,
)

LEARNED_SOUP_LR = 0.1
LEARNED_SOUP_EPOCHS = 3


class SoupResult(Record, frozen=False):
    """A merged checkpoint plus the recipe that produced it.

    ``temperature`` is the logit scale beta to apply at prediction time
    (1.0 unless the recipe learned one).  ``coefficients`` maps each
    mixing group to its per-ingredient weights; recipes that mix all
    tensors together use the single group "all".
    """

    checkpoint: Checkpoint
    ingredient_indices: list[int]
    coefficients: dict[str, list[float]]
    temperature: float = 1.0
    loss_trace: list[float] | None = None


def accuracy_fn(X: np.ndarray, y: np.ndarray) -> Callable[[Checkpoint], float]:
    """Val-accuracy scorer over a fixed split, for greedy selection."""

    def score(ckpt: Checkpoint) -> float:
        return evaluate(ckpt, X, y).accuracy

    return score


def uniform_soup(models: Sequence[Checkpoint]) -> SoupResult:
    """Equal-weight average of all models."""
    if not models:
        raise ValueError("uniform_soup needs at least one model")
    k = len(models)
    ckpt = combine([1.0 / k] * k, models)
    ckpt.meta.update({"recipe": "combine", "recipe.coeffs": ",".join([repr(1.0 / k)] * k),
                      "recipe.inputs": ",".join(content_digest(m) for m in models),
                      "role": "soup", "soup.kind": "uniform", "soup.size": str(k)})
    return SoupResult(
        checkpoint=ckpt,
        ingredient_indices=list(range(k)),
        coefficients={"all": [1.0 / k] * k},
    )


def greedy_select(
    models: Sequence[Checkpoint], pool_score: Callable[[list[Checkpoint]], float]
) -> list[int]:
    """The greedy recipe; returns the indices it kept, in acceptance order.

    Scores each model alone as ``pool_score([m])``, visits the models best
    first (ties keep input order) and keeps each one iff the score of the
    pool plus it does not drop.  The empty pool scores -inf, so the best
    single model always enters.
    """
    if not models:
        raise ValueError("greedy selection needs at least one model")
    alone = [pool_score([m]) for m in models]
    kept: list[int] = []
    best = -math.inf
    for i in sorted(range(len(models)), key=lambda i: -alone[i]):
        score = pool_score([models[j] for j in kept] + [models[i]])
        if score >= best:
            kept.append(i)
            best = score
    return kept


def greedy_soup(
    models: Sequence[Checkpoint],
    val_accuracy_fn: Callable[[Checkpoint], float],
) -> SoupResult:
    """Greedy ingredient selection with uniform averaging of the pool."""

    def pool_score(pool: list[Checkpoint]) -> float:
        # A pool of one is its model: combine([1.0], [m]) is m bit for bit.
        k = len(pool)
        return val_accuracy_fn(pool[0] if k == 1 else combine([1.0 / k] * k, pool))

    kept = greedy_select(models, pool_score)
    result = uniform_soup([models[i] for i in kept])
    result.checkpoint.meta.update(
        {"soup.kind": "greedy", "soup.ingredients": ",".join(str(i) for i in kept)}
    )
    result.ingredient_indices = kept
    return result


def learned_soup(
    models: Sequence[Checkpoint],
    X_val: np.ndarray,
    y_val: np.ndarray,
    by_layer: bool = False,
) -> SoupResult:
    """Optimize mixing weights and a logit scale on a held-out split."""
    # Imported here, so that only this recipe loads the trainer.
    from .trainer import AdamState, adamw_step

    if not models:
        raise ValueError("learned_soup needs at least one model")
    k = len(models)
    params_list = [as_params(m) for m in models]
    layout = params_list[0].layout
    if any(p.layout != layout for p in params_list[1:]):
        raise ShapeMismatchError("learned_soup ingredients differ in tensor names or shapes")
    groups = [name.split(".", 1)[0] + "." if by_layer else "all" for name in layout.names]
    group_keys = list(dict.fromkeys(groups))
    members = [[n for n, g in zip(layout.names, groups) if g == key] for key in group_keys]
    # The group row of every vector entry: alpha.T[:, value_rows] holds one
    # coefficient row per model.
    sizes = [sl.stop - sl.start for sl, _ in layout.spans]
    value_rows = np.repeat([group_keys.index(g) for g in groups], sizes)
    num_classes = arch_of(params_list[0]).num_classes
    targets = smoothed_targets(np.asarray(y_val), num_classes, 0.0)

    # Raw optimizer variables in one vector: a row of k scores per group,
    # then the log scale.
    raw = np.zeros(len(group_keys) * k + 1)
    scores = raw[:-1].reshape(len(group_keys), k)
    adam = AdamState.zeros_like(raw)

    def mixed_params(alpha: np.ndarray) -> Params:
        coeffs = alpha.T[:, value_rows]
        acc = coeffs[0] * params_list[0].vector
        for c, p in zip(coeffs[1:], params_list[1:]):
            acc = acc + c * p.vector
        return Params(layout, acc)

    trace: list[float] = []
    for step in range(LEARNED_SOUP_EPOCHS):
        alpha = softmax(scores)  # one row per group
        beta = float(np.exp(raw[-1]))
        theta = mixed_params(alpha)
        loss, theta_grad, logits = grad64(theta, X_val, targets, inv_temperature=beta)
        trace.append(loss)

        grad = np.empty_like(raw)
        for names, a, grad_row in zip(members, alpha, grad[:-1].reshape(scores.shape)):
            # d loss / d alpha_i restricted to this group's tensors
            d_alpha = np.array([dot(theta_grad, p, names) for p in params_list])
            grad_row[:] = a * (d_alpha - float(np.dot(a, d_alpha)))  # softmax backward
        d_beta = float(np.mean(np.sum((softmax(beta * logits) - targets) * logits, axis=1)))
        grad[-1] = d_beta * beta
        adamw_step(raw, grad, adam, LEARNED_SOUP_LR, weight_decay=0.0)

    alpha = softmax(scores)
    beta = float(np.exp(raw[-1]))
    theta = mixed_params(alpha)
    trace.append(loss_ce(forward(theta, X_val), np.asarray(y_val), 0.0, beta))

    ckpt = to_checkpoint(
        theta,
        {
            "role": "soup",
            "soup.kind": "learned-by-layer" if by_layer else "learned",
            "soup.size": str(k),
            "soup.temperature": repr(beta),
        },
    )
    return SoupResult(
        checkpoint=ckpt,
        ingredient_indices=list(range(k)),
        coefficients={key: [float(v) for v in row] for key, row in zip(group_keys, alpha)},
        temperature=beta,
        loss_trace=trace,
    )


def save_soup(result: SoupResult, path: str | Path) -> None:
    """Persist the merged checkpoint plus a JSON sidecar of the recipe.

    The sidecar goes first, so a non-finite recipe value writes neither file.
    """
    sidecar = {
        "digest": content_digest(result.checkpoint),
        "ingredient_indices": result.ingredient_indices,
        "coefficients": result.coefficients,
        "temperature": result.temperature,
    }
    if result.loss_trace is not None:
        sidecar["loss_trace"] = result.loss_trace
    write_json(str(path) + ".soup.json", sidecar)
    save_checkpoint(result.checkpoint, path)
