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

from .fileio import cell, write_table
from .tensorstore import Checkpoint, content_digest
from .tinynet import (
    EvalReport,
    check_labels,
    evaluate_logits,
    forward,
    log_softmax,
    loss_ce,
    onehot_nll,
    softmax,
)

BETA_GRID_LO = 0.05
BETA_GRID_HI = 20.0
BETA_TOL = 1e-4
_FLAT_EPS = 1e-12
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def logit_ensemble(
    models: Sequence[Checkpoint],
    X: np.ndarray,
    *,
    logits_cache: dict[str, np.ndarray] | None = None,
) -> np.ndarray:
    """Uniform mean of per-model logits, shape [n, num_classes].

    Sums ``(1/k) * logits`` left to right over the k models.
    ``logits_cache`` maps a checkpoint's ``content_digest`` to its
    logits on this X: a member found there is not forwarded again, and
    a missing one is added.  Use one cache per X.
    """
    if not models:
        raise ValueError("logit_ensemble needs at least one model")
    w = 1.0 / len(models)

    def logits_of(model: Checkpoint) -> np.ndarray:
        if logits_cache is None or not isinstance(model, Checkpoint):
            return forward(model, X)
        key = content_digest(model)
        if key not in logits_cache:
            logits_cache[key] = forward(model, X)
        return logits_cache[key]

    acc = w * logits_of(models[0])
    for model in models[1:]:
        acc = acc + w * logits_of(model)
    return acc


def ensemble_accuracy_fn(X: np.ndarray, y: np.ndarray) -> Callable[[Sequence[Checkpoint]], float]:
    """Scorer: top-1 accuracy of the uniform logit ensemble of a pool.

    Each distinct member (by content digest) is forwarded once over the
    scorer's life, so a greedy search forwards every candidate once.
    """
    labels = np.asarray(y)
    cache: dict[str, np.ndarray] = {}

    def score(members: Sequence[Checkpoint]) -> float:
        logits = logit_ensemble(members, X, logits_cache=cache)
        # First index wins ties, matching single-model prediction.
        pred = np.argmax(logits, axis=1)
        return float(np.mean(pred == labels))

    return score


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
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    # loss_ce(logits, labels, 0.0, beta) with the labels checked once
    labels = check_labels(labels, logits.shape[1])

    def nll(log_beta: float) -> float:
        return onehot_nll(log_softmax(math.exp(log_beta) * logits), labels)

    lo, hi = math.log(BETA_GRID_LO), math.log(BETA_GRID_HI)
    probes = [nll(lo), nll(0.5 * (lo + hi)), nll(hi)]
    if max(probes) - min(probes) < _FLAT_EPS:
        return TemperatureFit(beta=1.0, nll=nll(0.0), degenerate=True)

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
    baseline = nll(0.0)
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
    confidences = np.asarray(confidences, dtype=np.float64)
    total = confidences.shape[0]
    if total == 0:
        raise ValueError("need at least one prediction")
    return sum(
        (b.count / total) * abs(b.accuracy - b.mean_confidence)
        for b in equal_mass_bins(confidences, correct, num_bins)
    )


def confidences_and_correct(
    logits: np.ndarray, labels: np.ndarray, inv_temperature: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Max softmax probability and top-1 correctness per example."""
    probs = softmax(inv_temperature * np.asarray(logits, dtype=np.float64))
    pred = np.argmax(probs, axis=1)
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
    eval_logits = np.asarray(eval_logits, dtype=np.float64)
    eval_labels = np.asarray(eval_labels)
    conf1, corr = confidences_and_correct(eval_logits, eval_labels, 1.0)
    confb, corrb = confidences_and_correct(eval_logits, eval_labels, fit.beta)
    return CalibrationReport(
        beta=fit.beta,
        degenerate=fit.degenerate,
        nll_before=loss_ce(eval_logits, eval_labels, 0.0, 1.0),
        nll_after=loss_ce(eval_logits, eval_labels, 0.0, fit.beta),
        ece_before=ece_equal_mass(conf1, corr, num_bins),
        ece_after=ece_equal_mass(confb, corrb, num_bins),
        bins_before=equal_mass_bins(conf1, corr, num_bins),
        bins_after=equal_mass_bins(confb, corrb, num_bins),
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
