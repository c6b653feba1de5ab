"""Forward-pass counts of the analysis paths that reuse known logits, the
loss count of the loss-gap report, which reuses a fit's nll, and the learned
soup's one forward: each step takes its logits from its own ``grad64`` pass,
so ``tinynet.forward`` runs once per soup, for the final trace loss.

``count_forwards`` counts ``tinynet.forward`` calls through any soupkit
module; each test also checks that reuse changes no result (the learned
soup's through ``tests/test_soups.py``'s pinned bytes and its replay).
"""

from __future__ import annotations

import numpy as np
import pytest

import oracles
from soupkit import analysis, ensembles, soups, tinynet
from soupkit.tensorstore import Checkpoint


@pytest.fixture
def count_forwards(count_calls):
    return count_calls(tinynet, "forward")


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


@pytest.mark.parametrize(
    "alphas, points",
    [
        ([i / 10 for i in range(11)], 26),  # 33 stencil points, 7 shared by neighbours
        ([-0.0, 0.0, 0.3, 0.35, 0.35000000000000003, 0.4, 1.0], 15),  # 14 by ==
    ],
    ids=["tenths", "near-ties"],
)
def test_approx_report_forwards_each_line_point_once_per_pair_and_split(
    desk_base, desk_models, desk_dataset, count_forwards, alphas, points
):
    pairs = [analysis.PairSpec(f"p{i}", desk_base, desk_models[i]) for i in range(2)]
    splits = _splits(desk_dataset)
    analysis.approx_validation_report(pairs, alphas, splits, beta_mode="fixed-1")
    P, S = len(pairs), len(splits)
    assert len(count_forwards) == 2 * P * S + points * P * S


@pytest.mark.parametrize("beta_mode, per_record", [("calibrate-soup", 3), ("fixed-1", 4)])
def test_calibrated_approx_record_takes_its_soup_loss_from_the_fit(
    desk_base, desk_models, desk_dataset, count_calls, beta_mode, per_record
):
    # loss_ce runs for the two stencil neighbours and the ensemble, and in
    # fixed-1 mode for the soup too; a fitted soup's loss is the fit's nll.
    losses = count_calls(tinynet, "loss_ce")
    pairs = [analysis.PairSpec(f"p{i}", desk_base, desk_models[i]) for i in range(2)]
    alphas = [0.0, 0.5, 1.0]
    splits = _splits(desk_dataset)
    report = analysis.approx_validation_report(pairs, alphas, splits, beta_mode=beta_mode)
    assert len(losses) == per_record * len(report.records)
    want = oracles.approx_records_afresh(pairs, alphas, splits, beta_mode)
    assert repr(report.records) == repr(want)


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
    logits = tinynet.forward(desk_models[0], test.x)
    base = tinynet.evaluate_logits(logits, test.y)
    assert (report.loss, report.top1_error, report.calibrated_loss) == (
        base.loss, base.top1_error, tinynet.loss_ce(logits, test.y, inv_temperature=1.5)
    )


@pytest.mark.parametrize("by_layer", [False, True])
def test_learned_soup_forwards_once_for_its_final_loss(
    desk_models, desk_dataset, count_calls, count_forwards, by_layer
):
    steps = count_calls(tinynet, "grad64")
    val = desk_dataset.splits["val"]
    result = soups.learned_soup(desk_models, val.x, val.y, by_layer=by_layer)
    assert len(steps) == soups.LEARNED_SOUP_EPOCHS
    assert len(count_forwards) == 1
    assert len(result.loss_trace) == soups.LEARNED_SOUP_EPOCHS + 1
