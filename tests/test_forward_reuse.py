"""Forward-pass counts of the analysis paths that reuse known logits.

``count_forwards`` wraps ``tinynet.forward`` in every soupkit module
that binds it (``from .tinynet import forward``), so a call through any
module is counted, and checks that reuse changes no result.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from soupkit import analysis, ensembles, tinynet
from soupkit.tensorstore import Checkpoint


@pytest.fixture
def count_forwards(monkeypatch):
    calls = []
    original = tinynet.forward

    def counted(theta, X):
        calls.append(len(X))
        return original(theta, X)

    for name, module in list(sys.modules.items()):
        if name.startswith("soupkit") and getattr(module, "forward", None) is original:
            monkeypatch.setattr(module, "forward", counted)
    return calls


def _splits(ds):
    return {name: (ds.splits[name].x, ds.splits[name].y) for name in ("val", "test")}


@pytest.mark.parametrize("beta_mode", analysis.BETA_MODES)
def test_approx_report_forwards_endpoints_once_per_pair_and_split(
    desk_base, desk_models, desk_dataset, count_forwards, beta_mode
):
    pairs = [
        analysis.PairSpec(f"p{i}", desk_base, desk_models[i], 0.01 * (i + 1)) for i in range(2)
    ]
    alphas = [0.0, 0.5, 1.0]  # one-sided, central and one-sided probes
    splits = _splits(desk_dataset)
    report = analysis.approx_validation_report(pairs, alphas, splits, beta_mode=beta_mode)
    P, S, A = len(pairs), len(splits), len(alphas)
    assert len(count_forwards) == 2 * P * S + 3 * P * S * A

    # Same records as one soup_vs_ensemble_approx call per (pair, split, alpha).
    for record in report.records:
        pair = next(p for p in pairs if p.pair_id == record.pair_id)
        X, y = splits[record.split]
        alone = analysis.soup_vs_ensemble_approx(
            pair.theta0, pair.theta1, record.alpha, X, y, beta_mode=beta_mode,
            pair_id=pair.pair_id, split=record.split,
        )
        assert alone == record


def test_greedy_ensemble_forwards_each_model_once(desk_models, desk_dataset, count_forwards):
    val = desk_dataset.splits["val"]
    pool = ensembles.greedy_ensemble(desk_models, ensembles.ensemble_accuracy_fn(val.x, val.y))
    assert len(count_forwards) == len(desk_models)

    def uncached(members):
        pred = np.argmax(ensembles.logit_ensemble(members, val.x), axis=1)
        return float(np.mean(pred == val.y))

    assert ensembles.greedy_ensemble(desk_models, uncached) == pool


def test_ensemble_scorer_reforwards_a_changed_checkpoint(desk_models, desk_dataset, count_forwards):
    val = desk_dataset.splits["val"]
    score = ensembles.ensemble_accuracy_fn(val.x, val.y)
    model = Checkpoint(desk_models[0].layout, desk_models[0].vector.copy(), {})
    score([model])
    score([model, Checkpoint(model.layout, model.vector.copy(), {"role": "copy"})])
    assert len(count_forwards) == 1  # an equal copy hits the cache

    model.vector[0] += np.float32(0.5)
    changed = score([model])
    assert len(count_forwards) == 2
    pred = np.argmax(tinynet.forward(model, val.x), axis=1)
    assert changed == float(np.mean(pred == val.y))


def test_grid_study_scores_diagonal_cells_from_single_models(
    desk_models, desk_dataset, count_forwards
):
    test = desk_dataset.splits["test"]
    n = len(desk_models)
    cells = analysis.grid_endpoint_study(desk_models, test.x, test.y)
    assert len(count_forwards) == n + n * (n - 1) // 2
    assert all(c.advantage == 0.0 for c in cells if c.a == c.b)


def test_evaluate_with_calibration_forwards_once(desk_models, desk_dataset, count_forwards):
    test = desk_dataset.splits["test"]
    report = ensembles.evaluate_with_calibration(desk_models[0], test.x, test.y, beta=1.5)
    assert len(count_forwards) == 1
    base = tinynet.evaluate_logits(tinynet.forward(desk_models[0], test.x), test.y, 1.5)
    assert (report.loss, report.top1_error, report.calibrated_loss) == (
        base.loss, base.top1_error, base.calibrated_loss
    )
