"""Output-space combination and probability calibration.

A logit ensemble averages per-model logits before the softmax, so it
pays k forward passes at prediction time where a weight-space soup pays
one.  Greedy member selection is the greedy soup's recipe,
``soups.greedy_select``, scoring the uniform ensemble of the pool.

Calibration fits a single logit scale beta (an inverse temperature) by
minimizing mean NLL of beta * logits on a held-out split, searching
log beta over [ln 0.05, ln 20] by golden section to 1e-4.  The fit is
guarded so it never increases NLL on the fit split: if beta = 1 is at
least as good as the search result, beta = 1 is returned.  A flat
objective (e.g. degenerate one-class labels) also falls back to
beta = 1 and sets the ``degenerate`` flag.

Expected calibration error uses equal-mass bins: predictions sorted by
confidence (stable), split into contiguous bins whose sizes differ by
at most one, then sum_b (n_b / N) * |accuracy_b - mean confidence_b|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeMismatchError
from .fileio import cell, write_table
from .tensorstore import Checkpoint
from .tinynet import (
    EvalReport,
    evaluate_logits,
    forward,
    label_nll,
    loss_ce,
    predictions,
    softmax,
)

BETA_GRID_LO = 0.05
BETA_GRID_HI = 20.0
BETA_TOL = 1e-4
_FLAT_EPS = 1e-12
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _uniform_mean(
    models: Sequence[Checkpoint], logits_of: Callable[[Checkpoint], np.ndarray]
) -> np.ndarray:
    """Sum of ``(1/k) * logits_of(model)`` left to right over the k models,
    taking one model's logits at a time."""
    if not models:
        raise ValueError("a logit ensemble needs at least one model")
    w = 1.0 / len(models)
    acc = w * logits_of(models[0])
    for model in models[1:]:
        logits = logits_of(model)
        if logits.shape != acc.shape:
            raise ShapeMismatchError(f"logits of shape {logits.shape} do not match {acc.shape}")
        acc = acc + w * logits
    return acc


def logit_ensemble(models: Sequence[Checkpoint], X: np.ndarray) -> np.ndarray:
    """Uniform mean of per-model logits, shape [n, num_classes]: the sum of
    ``(1/k) * forward(model, X)`` left to right over the k models."""
    return _uniform_mean(models, lambda model: forward(model, X))


def ensemble_accuracy_fn(X: np.ndarray, y: np.ndarray) -> Callable[[Sequence[Checkpoint]], float]:
    """Scorer: the accuracy ``evaluate_logits`` reports for the uniform logit ensemble of a pool.

    Each distinct member is forwarded once over the scorer's life, so a
    greedy search forwards every candidate once. Members are told apart by
    exact content (tensor names, shapes and stored bytes), so a checkpoint
    changed in place between two scores is forwarded again, and nothing is
    hashed with SHA-256.
    """
    cache: dict[tuple, np.ndarray] = {}

    def logits_of(model: Checkpoint) -> np.ndarray:
        layout = model.layout
        key = (layout.names, tuple(shape for _, shape in layout.spans), model.vector.tobytes())
        if key not in cache:
            cache[key] = forward(model, X)
        return cache[key]

    return lambda members: evaluate_logits(_uniform_mean(members, logits_of), y).accuracy


def greedy_ensemble(
    models: Sequence[Checkpoint],
    val_accuracy_fn: Callable[[Sequence[Checkpoint]], float],
) -> list[int]:
    """Greedy member selection; returns indices in acceptance order.

    ``val_accuracy_fn`` scores a list of member checkpoints (the
    uniform ensemble of the pool).  The recipe is the greedy soup's,
    ``soups.greedy_select``.
    """
    # Imported here, so that loading ensembles loads neither soups nor trainer.
    from .soups import greedy_select

    return greedy_select(models, val_accuracy_fn)


@dataclass(frozen=True)
class TemperatureFit:
    beta: float
    nll: float
    degenerate: bool


def fit_temperature(logits: np.ndarray, labels: np.ndarray) -> TemperatureFit:
    """Logit scale minimizing mean NLL of beta * logits on this split."""
    nll_at = label_nll(logits, labels)  # loss_ce(logits, labels, 0.0, beta), set up once

    def nll(log_beta: float) -> float:
        return nll_at(math.exp(log_beta))

    lo, hi = math.log(BETA_GRID_LO), math.log(BETA_GRID_HI)
    # ln 0.05 == -ln 20 in float64, so the middle probe is at log beta 0.0 exactly.
    probes = [nll(lo), nll(0.5 * (lo + hi)), nll(hi)]
    baseline = probes[1]
    if max(probes) - min(probes) < _FLAT_EPS:
        return TemperatureFit(beta=1.0, nll=baseline, degenerate=True)

    # Golden-section search on log beta (NLL is unimodal in the scale).
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = nll(c), nll(d)
    while b - a > BETA_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = nll(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = nll(d)
    best_log = c if fc < fd else d
    best_nll = min(fc, fd)
    if baseline <= best_nll:  # never increase NLL on the fit split
        return TemperatureFit(beta=1.0, nll=baseline, degenerate=False)
    return TemperatureFit(beta=math.exp(best_log), nll=best_nll, degenerate=False)


@dataclass(frozen=True)
class BinStat:
    count: int
    mean_confidence: float
    accuracy: float


def equal_mass_bins(
    confidences: np.ndarray, correct: np.ndarray, num_bins: int = 15
) -> list[BinStat]:
    """Contiguous confidence-sorted bins with sizes differing by <= 1.

    More bins than predictions give one prediction per bin.
    """
    confidences = np.asarray(confidences, dtype=np.float64)
    correct = np.asarray(correct, dtype=np.float64)
    if confidences.ndim != 1 or confidences.shape != correct.shape:
        raise ValueError("confidences and correct must be matching 1-d arrays")
    if num_bins < 1:
        raise ValueError("num_bins must be >= 1")
    order = np.argsort(confidences, kind="stable")
    bins = []
    # array_split's cost grows with the section count, and sections past the
    # prediction count are empty chunks that are skipped anyway.
    for chunk in np.array_split(order, max(1, min(num_bins, order.size))):
        if chunk.size == 0:
            continue
        bins.append(
            BinStat(
                count=int(chunk.size),
                mean_confidence=float(np.mean(confidences[chunk])),
                accuracy=float(np.mean(correct[chunk])),
            )
        )
    return bins


def ece_equal_mass(
    confidences: np.ndarray, correct: np.ndarray, num_bins: int = 15
) -> float:
    """Equal-mass expected calibration error."""
    return _ece(equal_mass_bins(confidences, correct, num_bins))


def _ece(bins: list[BinStat]) -> float:
    """Expected calibration error of bins that hold every prediction once."""
    total = sum(b.count for b in bins)
    if total == 0:
        raise ValueError("need at least one prediction")
    return sum((b.count / total) * abs(b.accuracy - b.mean_confidence) for b in bins)


def confidences_and_correct(
    logits: np.ndarray, labels: np.ndarray, inv_temperature: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Max softmax probability and top-1 correctness per example."""
    probs = softmax(inv_temperature * np.asarray(logits, dtype=np.float64))
    pred = predictions(logits)  # top1_error's: a temperature never changes a prediction
    conf = probs[np.arange(probs.shape[0]), pred]
    return conf, (pred == np.asarray(labels)).astype(np.float64)


@dataclass(frozen=True)
class CalibrationReport:
    """Before/after metrics for one fitted logit scale.

    ``beta`` is fitted on the fit split; NLL/ECE pairs are measured on
    the evaluation split passed to :func:`calibration_report`.
    """

    beta: float
    degenerate: bool
    nll_before: float
    nll_after: float
    ece_before: float
    ece_after: float
    bins_before: list[BinStat]
    bins_after: list[BinStat]


def calibration_report(
    fit_logits: np.ndarray,
    fit_labels: np.ndarray,
    eval_logits: np.ndarray,
    eval_labels: np.ndarray,
    num_bins: int = 15,
) -> CalibrationReport:
    fit = fit_temperature(fit_logits, fit_labels)
    before = equal_mass_bins(*confidences_and_correct(eval_logits, eval_labels, 1.0), num_bins)
    after = equal_mass_bins(*confidences_and_correct(eval_logits, eval_labels, fit.beta), num_bins)
    nll = label_nll(eval_logits, eval_labels)  # loss_ce(..., 0.0, beta), set up once
    return CalibrationReport(
        beta=fit.beta,
        degenerate=fit.degenerate,
        nll_before=nll(1.0),
        nll_after=nll(fit.beta),
        ece_before=_ece(before),
        ece_after=_ece(after),
        bins_before=before,
        bins_after=after,
    )


def write_calibration_csv(report: CalibrationReport, path: str | Path) -> None:
    """Per-bin reliability table with a one-line comment summary."""
    comment = "beta={} degenerate={} nll_before={} nll_after={} ece_before={} ece_after={}".format(
        *map(cell, (report.beta, report.degenerate, report.nll_before, report.nll_after,
                    report.ece_before, report.ece_after))
    )
    rows = [
        (stage, i, b.count, b.mean_confidence, b.accuracy)
        for stage, bins in (("before", report.bins_before), ("after", report.bins_after))
        for i, b in enumerate(bins)
    ]
    write_table(path, ("stage", "bin", "count", "mean_confidence", "accuracy"), rows, comment)


def evaluate_with_calibration(
    theta: Checkpoint,
    X: np.ndarray,
    labels: np.ndarray,
    beta: float | None = None,
    num_bins: int = 15,
) -> EvalReport:
    """Full per-model report: loss, error, scaled loss, equal-mass ECE.

    ``calibrated_loss`` and the confidence used for ECE apply the given
    beta (1.0 when None, i.e. uncalibrated).
    """
    scale = 1.0 if beta is None else beta
    logits = forward(theta, X)
    conf, corr = confidences_and_correct(logits, labels, scale)
    report = evaluate_logits(logits, labels)
    report.calibrated_loss = loss_ce(logits, labels, inv_temperature=scale)
    report.ece = ece_equal_mass(conf, corr, num_bins)
    return report
