"""Quantitative comparisons of weight averaging and logit ensembling.

Contents: interpolation curves and the midpoint-advantage statistic,
weight-space angles, 2-D loss/error landscapes over an orthonormal
plane, an endpoint-pair study over a hyperparameter axis, a
second-order approximation of the soup-vs-ensemble loss gap, and an
exact integral identity used as the approximation's numerical oracle.

Numerical conventions
---------------------
* Deltas, angles, curvature probes, interpolation and plane points are
  float64 ``tensorstore.axpy`` lines on Params (no float32 round-trip),
  so finite differences are not polluted by storage quantization.
  Only models evaluated as stored averages (curves, midpoints, grid
  pairs) use the float32 ``combine``, which keeps endpoints bitwise.
* The alpha second derivative uses a central difference with step
  ``ALPHA_FD_STEP`` (0.05); alphas closer than that to 0 or 1 fall
  back to the one-sided second difference anchored at the endpoint, so
  every probe stays inside [0, 1]. Neighbouring alphas' stencils share
  points, and a report forwards each point once per (pair, split).
* In ``calibrate-soup`` mode the soup's loss is the temperature fit's
  own nll, the loss at the fitted beta bit for bit.
* The tau-integral uses composite Simpson quadrature on an odd,
  evenly spaced node grid (default 33 nodes).

The approximated quantity, for a pair (theta0, theta1), mixing weight
alpha and logit scale beta, is

    L_soup - L_ens  ~=  c_alpha * (-d2/dalpha2 L_soup
                                   + beta^2 * E_x Var_Y[delta_f_Y])

with c_alpha = alpha * (1 - alpha) / 2, Y drawn from
softmax(beta * f(x; theta_alpha)) and delta_f = f(x; theta1) -
f(x; theta0).  The exact counterpart it approximates is the logit-space
identity

    f_ens - f_soup = integral_0^1 (delta' H f(theta_tau) delta)
                     * min{(1 - alpha) tau, alpha (1 - tau)} dtau,

whose kernel integrates to alpha * (1 - alpha) / 2.
"""

from __future__ import annotations

import math
from collections import Counter
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .ensembles import fit_temperature
from .errors import DegenerateBasisError, NonFiniteError
from .fileio import cell, write_table
from .schema import Record
from .tensorstore import Checkpoint, Params, as_params, axpy, combine, dot
from .tinynet import (
    _forward,
    arch_of,
    evaluate,
    forward,
    hessian_quadratic_form,
    logit_second_directional,
    loss_ce,
    top1_error,
)

ALPHA_FD_STEP = 0.05
SIMPSON_NODES = 33
BETA_MODES = ("fixed-1", "calibrate-soup")
PLANE_METRICS = ("loss", "error")
# The pair angle compares weight matrices only: the per-channel gain and
# bias vectors would otherwise dominate the norms.
ANGLE_EXCLUDED_SUFFIXES = (".gain", ".bias")


# ----------------------------------------------------------- small helpers


def _check_alphas(alphas: Sequence[float]) -> None:
    for alpha in alphas:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha {alpha} outside [0, 1]")


def _segment(theta0: Checkpoint | Params, theta1: Checkpoint | Params) -> tuple[Params, ...]:
    """Both endpoints in float64 and the delta theta1 - theta0 between them."""
    p0, p1 = as_params(theta0), as_params(theta1)
    return p0, p1, axpy(p1, p0, -1.0)


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float | None:
    """Pearson correlation; None when either side has zero variance."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.size != y.size:
        raise ValueError("correlation needs equal-length inputs")
    if x.size < 2:
        return None
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(np.dot(xc, xc)) * float(np.dot(yc, yc)))
    if denom == 0.0:
        return None
    return float(np.dot(xc, yc)) / denom


def sign_agreement(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Fraction of positions where the two sequences share their sign.

    Zero counts as its own sign, so exact zeros only agree with zeros.
    """
    x = np.sign(np.asarray(xs, dtype=np.float64))
    y = np.sign(np.asarray(ys, dtype=np.float64))
    if x.size != y.size or x.size == 0:
        raise ValueError("sign agreement needs equal-length nonempty inputs")
    return float(np.mean(x == y))


# -------------------------------------------------------- curves and angle


def interpolation_advantage(
    theta1: Checkpoint, theta2: Checkpoint, X: np.ndarray, labels: np.ndarray
) -> float:
    """Accuracy of the midpoint average minus the mean endpoint accuracy."""
    midpoint = combine([0.5, 0.5], [theta1, theta2])
    acc_mid = evaluate(midpoint, X, labels).accuracy
    acc1 = evaluate(theta1, X, labels).accuracy
    acc2 = evaluate(theta2, X, labels).accuracy
    return acc_mid - 0.5 * (acc1 + acc2)


def pair_angle(theta0: Checkpoint, theta1: Checkpoint, theta2: Checkpoint) -> float:
    """Angle (degrees) between the float64 deltas theta1 - theta0 and theta2 - theta0."""
    p0, _, d1 = _segment(theta0, theta1)
    d2 = axpy(as_params(theta2), p0, -1.0)
    names = [n for n in p0.layout.names if not n.endswith(ANGLE_EXCLUDED_SUFFIXES)]
    n1, n2 = math.sqrt(dot(d1, d1, names)), math.sqrt(dot(d2, d2, names))
    if n1 == 0.0 or n2 == 0.0:
        raise DegenerateBasisError("angle against a zero-norm delta is undefined")
    cosine = dot(d1, d2, names) / (n1 * n2)
    return math.degrees(math.acos(min(1.0, max(-1.0, cosine))))


def interpolation_curve(
    theta0: Checkpoint,
    theta1: Checkpoint,
    alphas: Sequence[float],
    splits: Mapping[str, tuple[np.ndarray, np.ndarray]],
) -> list[dict]:
    """Loss/error along (1-a) theta0 + a theta1, one row per (alpha, split).

    Interpolates through checkpoint averaging (so alpha 0 and 1 evaluate
    the untouched endpoints bit for bit).
    """
    _check_alphas(alphas)
    rows = []
    for alpha in alphas:
        point = combine([1.0 - alpha, alpha], [theta0, theta1])
        for split_name, (X, y) in splits.items():
            report = evaluate(point, X, y)
            rows.append(
                {
                    "alpha": float(alpha),
                    "split": split_name,
                    "loss": report.loss,
                    "top1_error": report.top1_error,
                }
            )
    return rows


def write_curve_csv(rows: Sequence[Mapping], path: str | Path) -> None:
    columns = ("alpha", "split", "loss", "top1_error")
    write_table(path, columns, [[r[c] for c in columns] for r in rows])


# ------------------------------------------------------------ 2-D landscape


class PlaneBasis(Record):
    """Orthonormal 2-D frame spanned by three anchor checkpoints, in float64.

    u1 points from the origin (theta0) toward theta1; u2 is the
    Gram-Schmidt remainder of theta2 - theta0.  Coordinates locate the
    three anchors in the (u1, u2) frame, origin first.
    """

    origin: Params
    u1: Params
    u2: Params
    coords0: tuple[float, float]
    coords1: tuple[float, float]
    coords2: tuple[float, float]


def plane_basis(
    theta0: Checkpoint, theta1: Checkpoint, theta2: Checkpoint
) -> PlaneBasis:
    """The orthonormal frame alone, without evaluating any grid."""
    p0, _, d1 = _segment(theta0, theta1)
    d2 = axpy(as_params(theta2), p0, -1.0)
    n1 = math.sqrt(dot(d1, d1))
    if n1 == 0.0:
        raise DegenerateBasisError("theta1 equals theta0; no direction to span")
    u1 = Params(p0.layout, d1.vector / n1)
    proj = dot(d2, u1)
    resid = axpy(d2, u1, -proj)
    n2 = math.sqrt(dot(resid, resid))
    # Relative threshold: exact parallels cancel only up to rounding.
    if n2 <= 1e-9 * math.sqrt(dot(d2, d2)):
        raise DegenerateBasisError("theta2 - theta0 is parallel to theta1 - theta0")
    u2 = Params(p0.layout, resid.vector / n2)
    return PlaneBasis(
        origin=p0,
        u1=u1,
        u2=u2,
        coords0=(0.0, 0.0),
        coords1=(n1, 0.0),
        coords2=(proj, n2),
    )


def plane_landscape(
    theta0: Checkpoint,
    theta1: Checkpoint,
    theta2: Checkpoint,
    xs: Sequence[float],
    ys: Sequence[float],
    X: np.ndarray,
    labels: np.ndarray,
    metric: str = "loss",
) -> tuple[np.ndarray, PlaneBasis]:
    """Metric values over theta0 + x*u1 + y*u2; matrix[i, j] = (ys[i], xs[j]).

    Raises NonFiniteError when the loss at some point is not finite.
    """
    if metric not in PLANE_METRICS:
        raise ValueError(f"metric must be one of {PLANE_METRICS}")
    basis = plane_basis(theta0, theta1, theta2)
    matrix = np.empty((len(ys), len(xs)), dtype=np.float64)
    for i, y in enumerate(ys):
        for j, x in enumerate(xs):
            # Far-out points can overflow the logits; evaluate's loss check reports that.
            with np.errstate(over="ignore", invalid="ignore"):
                report = evaluate(axpy(axpy(basis.origin, basis.u1, x), basis.u2, y), X, labels)
            matrix[i, j] = report.loss if metric == "loss" else report.top1_error
    return matrix, basis


def write_plane_csv(
    matrix: np.ndarray, xs: Sequence[float], ys: Sequence[float],
    basis: PlaneBasis, metric: str, path: str | Path,
) -> None:
    """Rectangular matrix: header row of x coords, one row per y coord."""
    coords = [f"({cell(u)}, {cell(v)})" for u, v in (basis.coords0, basis.coords1, basis.coords2)]
    comment = "metric={} coords0={} coords1={} coords2={}".format(metric, *coords)
    write_table(path, ["y\\x", *xs], [[y, *row] for y, row in zip(ys, matrix)], comment)


# ------------------------------------------------------ endpoint-pair study


class GridStudyCell(Record):
    """One (a, b) index range: endpoint-average accuracy vs best inside."""

    a: int
    b: int
    pair_accuracy: float
    best_in_range: float
    advantage: float


def grid_endpoint_study(
    models: Sequence[Checkpoint], X: np.ndarray, labels: np.ndarray
) -> list[GridStudyCell]:
    """All index ranges [a, b]: Acc(avg(theta_a, theta_b)) - max Acc inside.

    Models must arrive ordered along one hyperparameter axis; the cell
    set is upper-triangular (a <= b) and diagonal cells are exactly 0.
    """
    if len(models) < 2:
        raise ValueError("need at least two models along the axis")
    accs = [evaluate(m, X, labels).accuracy for m in models]
    cells = []
    for a in range(len(models)):
        for b in range(a, len(models)):
            if a == b:  # combine([0.5, 0.5], [m, m]) is m bit for bit
                pair_acc = accs[a]
            else:
                pair = combine([0.5, 0.5], [models[a], models[b]])
                pair_acc = evaluate(pair, X, labels).accuracy
            best = max(accs[a : b + 1])
            cells.append(
                GridStudyCell(
                    a=a,
                    b=b,
                    pair_accuracy=pair_acc,
                    best_in_range=best,
                    advantage=pair_acc - best,
                )
            )
    return cells


def write_grid_study_csv(cells: Sequence[GridStudyCell], path: str | Path) -> None:
    header = ("a", "b", "pair_accuracy", "best_in_range", "advantage")
    write_table(path, header, (vars(c).values() for c in cells))


# ---------------------------------------- soup vs ensemble, second order


class ApproxRecord(Record):
    """One evaluation of the second-order loss-gap approximation.

    ``approx_value`` is composed exactly as
    c_alpha * (-second_derivative_term + beta**2 * variance_term)
    with c_alpha = alpha * (1 - alpha) / 2.  ``true_loss_diff`` is
    L_soup - L_ens at the same beta; ``true_err_diff`` the 0-1 error
    difference (independent of beta).
    """

    pair_id: str
    split: str
    alpha: float
    beta: float
    approx_value: float
    true_loss_diff: float
    true_err_diff: float
    second_derivative_term: float
    variance_term: float


def _stencil(alpha: float) -> tuple[float, float, float]:
    """Points (a, b, c) of alpha's second difference (L(a) - 2 L(b) + L(c)) / h**2.

    Central, or one-sided from alpha itself where a central probe would
    leave [0, 1].
    """
    h = ALPHA_FD_STEP
    if alpha - h < 0.0:
        return alpha, alpha + h, alpha + 2.0 * h
    if alpha + h > 1.0:
        return alpha, alpha - h, alpha - 2.0 * h
    return alpha - h, alpha, alpha + h


class _LinePoints:
    """Logits of p0 + a * delta on X at the stencil points of an alpha grid.

    Each point is forwarded once, keyed by its exact float (0.35 and
    0.35000000000000003, or 0.0 and -0.0, are different points), and its
    logits are dropped after the last stencil that uses them. Each stencil
    takes each of its points once.
    """

    def __init__(self, p0: Params, delta: Params, X: np.ndarray, alphas: Sequence[float]):
        self._p0, self._delta, self._X = p0, delta, X
        self._uses = Counter(float(a).hex() for alpha in alphas for a in _stencil(alpha))
        self._logits: dict[str, np.ndarray] = {}

    def take(self, a: float) -> np.ndarray:
        key = float(a).hex()
        logits = self._logits.get(key)
        if logits is None:
            logits = self._logits[key] = forward(axpy(self._p0, self._delta, a), self._X)
        self._uses[key] -= 1
        if not self._uses[key]:
            del self._logits[key]
        return logits


def _check_approx_args(alphas: Sequence[float], beta_mode: str) -> None:
    _check_alphas(alphas)
    if beta_mode not in BETA_MODES:
        raise ValueError(f"beta_mode must be one of {BETA_MODES}")


def _split_records(
    segment: tuple[Params, ...], pair_id: str, split: str, X: np.ndarray, y: np.ndarray,
    alphas: Sequence[float], beta_mode: str,
) -> list[ApproxRecord]:
    """One record per alpha for one (pair, split) of the pair's ``_segment``.

    The endpoint logits and delta_f = f1 - f0 do not depend on alpha, and
    each line point is forwarded once. A calibrated soup's loss is the
    fit's own nll, the loss at the fitted beta.
    """
    p0, p1, delta = segment
    f0, f1, labels = forward(p0, X), forward(p1, X), np.asarray(y)
    delta_f, line = f1 - f0, _LinePoints(p0, delta, X, alphas)
    records = []
    for alpha in alphas:
        f_soup = line.take(alpha)
        if beta_mode == "fixed-1":
            beta, loss_soup = 1.0, loss_ce(f_soup, labels)
        else:
            fit = fit_temperature(f_soup, labels)
            beta, loss_soup = fit.beta, fit.nll
        # d2 loss / d alpha2 by the second difference; its probe at alpha is the soup.
        la, lb, lc = (loss_soup if a == alpha else loss_ce(line.take(a), labels, 0.0, beta)
                      for a in _stencil(alpha))
        second_derivative = (la - 2.0 * lb + lc) / (ALPHA_FD_STEP * ALPHA_FD_STEP)
        variance = float(np.mean(hessian_quadratic_form(beta * f_soup, delta_f)))
        approx = alpha * (1.0 - alpha) / 2.0 * (-second_derivative + beta**2 * variance)

        f_ens = (1.0 - alpha) * f0 + alpha * f1
        true_loss_diff = loss_soup - loss_ce(f_ens, labels, 0.0, beta)
        true_err_diff = top1_error(f_soup, labels) - top1_error(f_ens, labels)

        values = (approx, true_loss_diff, true_err_diff, second_derivative, variance)
        if not all(math.isfinite(v) for v in values):
            raise NonFiniteError(f"non-finite analysis value for pair {pair_id!r} at alpha {alpha}")
        records.append(ApproxRecord(pair_id, split, float(alpha), beta, *values))
    return records


def soup_vs_ensemble_approx(
    theta0: Checkpoint,
    theta1: Checkpoint,
    alpha: float,
    X: np.ndarray,
    labels: np.ndarray,
    beta_mode: str = "calibrate-soup",
    pair_id: str = "pair",
    split: str = "",
) -> ApproxRecord:
    """Second-order estimate of L_soup - L_ens for one (pair, alpha)."""
    _check_approx_args([alpha], beta_mode)
    segment = _segment(theta0, theta1)
    [record] = _split_records(segment, pair_id, split, X, labels, [alpha], beta_mode)
    return record


# -------------------------------------------------- exact integral identity


def interpolation_kernel(tau: np.ndarray | float, alpha: float) -> np.ndarray | float:
    """min{(1 - alpha) * tau, alpha * (1 - tau)}; integrates to alpha(1-alpha)/2."""
    return np.minimum((1.0 - alpha) * np.asarray(tau), alpha * (1.0 - np.asarray(tau)))


def ensemble_minus_soup_logits(
    theta0: Checkpoint | Params,
    theta1: Checkpoint | Params,
    alpha: float,
    X: np.ndarray,
) -> np.ndarray:
    """f_ens - f_soup per example and class, in float64 weight space."""
    p0, p1, delta = _segment(theta0, theta1)
    f0 = forward(p0, X)
    f1 = forward(p1, X)
    f_soup = forward(axpy(p0, delta, alpha), X)
    return (1.0 - alpha) * f0 + alpha * f1 - f_soup


def integral_oracle(
    theta0: Checkpoint | Params,
    theta1: Checkpoint | Params,
    alpha: float,
    X: np.ndarray,
    num_nodes: int = SIMPSON_NODES,
) -> np.ndarray:
    """|Simpson integral - (f_ens - f_soup)| per example and class.

    The integrand is the directional logit curvature along delta at
    theta_tau, weighted by the interpolation kernel; Simpson quadrature
    runs over ``num_nodes`` (odd, >= 3) evenly spaced tau nodes.
    """
    _check_alphas([alpha])
    if num_nodes < 3 or num_nodes % 2 == 0:
        raise ValueError("num_nodes must be odd and >= 3")
    p0, p1, delta = _segment(theta0, theta1)

    taus = np.linspace(0.0, 1.0, num_nodes)
    h = 1.0 / (num_nodes - 1)
    integral = np.zeros((X.shape[0], arch_of(p0).num_classes))
    for j, tau in enumerate(taus):
        curvature = logit_second_directional(axpy(p0, delta, float(tau)), delta, X)
        simpson_w = 1.0 if j in (0, num_nodes - 1) else (4.0 if j % 2 == 1 else 2.0)
        integral += (h / 3.0) * simpson_w * float(interpolation_kernel(tau, alpha)) * curvature

    direct = ensemble_minus_soup_logits(p0, p1, alpha, X)
    return np.abs(integral - direct)


def relu_flip_count(
    theta0: Checkpoint | Params,
    theta1: Checkpoint | Params,
    X: np.ndarray,
    num_nodes: int = SIMPSON_NODES,
) -> int:
    """Hidden units whose activation state changes along the segment.

    Counts (example, layer, unit) positions whose preactivation sign at
    some tau node differs from its sign at tau = 0.  Zero means the
    integral identity's smoothness assumption holds on the path.
    """
    if num_nodes < 2:
        raise ValueError("num_nodes must be >= 2")
    p0, _, delta = _segment(theta0, theta1)
    baseline = None
    changed = None
    for tau in np.linspace(0.0, 1.0, num_nodes):
        kept: list[tuple] = []
        _forward(axpy(p0, delta, float(tau)), X, kept)
        states = [layer_in > 0.0 for _, layer_in, _ in kept[1:]]  # each hidden layer's relu
        if baseline is None:
            baseline = states
            changed = [np.zeros_like(s) for s in states]
        else:
            for c, s, b in zip(changed, states, baseline):
                c |= s != b
    return int(sum(c.sum() for c in changed))


# ------------------------------------------------------- validation report


class PairSpec(Record):
    """One (theta0, theta1) endpoint pair for the validation scatter.

    ``learning_rate`` tags the pair for the highest-lr exclusion (use
    the larger of the endpoints' rates); None means never excluded.
    """

    pair_id: str
    theta0: Checkpoint
    theta1: Checkpoint
    learning_rate: float | None = None


class ApproxSummary(Record):
    pearson: float | None
    sign_agreement: float | None
    count: int
    degenerate: bool


class ApproxValidationReport(Record, frozen=False):
    records: list[ApproxRecord]
    summary_all: ApproxSummary
    summary_excluding_highest_lr: ApproxSummary
    excluded_learning_rate: float | None
    beta_mode: str


def _summarize(records: Sequence[ApproxRecord]) -> ApproxSummary:
    if not records:
        return ApproxSummary(pearson=None, sign_agreement=None, count=0, degenerate=True)
    approx = [r.approx_value for r in records]
    true = [r.true_loss_diff for r in records]
    corr = pearson(approx, true)
    return ApproxSummary(
        pearson=corr,
        sign_agreement=sign_agreement(approx, true),
        count=len(records),
        degenerate=corr is None,
    )


def approx_validation_report(
    pairs: Sequence[PairSpec],
    alpha_grid: Sequence[float],
    splits: Mapping[str, tuple[np.ndarray, np.ndarray]],
    beta_mode: str = "calibrate-soup",
) -> ApproxValidationReport:
    """One record per (pair, split, alpha) plus scatter summaries.

    Summaries correlate approx_value with true_loss_diff, overall and
    with the highest-learning-rate pairs removed.
    """
    if len(pairs) < 2:
        raise ValueError("need at least two pairs")
    ids = [p.pair_id for p in pairs]
    if len(set(ids)) != len(ids):
        raise ValueError("pair_id values must be unique")
    alphas = [float(alpha) for alpha in alpha_grid]
    _check_approx_args(alphas, beta_mode)
    records = []
    for pair in pairs:
        segment = _segment(pair.theta0, pair.theta1)
        for split_name, (X, y) in splits.items():
            records += _split_records(segment, pair.pair_id, split_name, X, y, alphas, beta_mode)
    rates = [p.learning_rate for p in pairs if p.learning_rate is not None]
    excluded_rate = max(rates) if rates else None
    if excluded_rate is None:
        kept_ids = {p.pair_id for p in pairs}
    else:
        kept_ids = {p.pair_id for p in pairs if p.learning_rate != excluded_rate}
    kept_records = [r for r in records if r.pair_id in kept_ids]
    return ApproxValidationReport(
        records=records,
        summary_all=_summarize(records),
        summary_excluding_highest_lr=_summarize(kept_records),
        excluded_learning_rate=excluded_rate,
        beta_mode=beta_mode,
    )


def write_approx_csv(report: ApproxValidationReport, path: str | Path) -> None:
    def fmt(summary: ApproxSummary) -> str:
        return " ".join(f"{key}={cell(value)}" for key, value in vars(summary).items())

    comment = "beta_mode={} all: {} excluding_highest_lr: {} excluded_learning_rate={}".format(
        report.beta_mode,
        fmt(report.summary_all),
        fmt(report.summary_excluding_highest_lr),
        cell(report.excluded_learning_rate),
    )
    header = ("pair", "split", "alpha", "beta", "approx_value", "true_loss_diff", "true_err_diff",
              "second_derivative_term", "variance_term")
    write_table(path, header, (vars(r).values() for r in report.records), comment)
