"""Desk-scale acceptance suite.

One test per promised behavior of the toolkit, in a fixed order; the
``pytest -v`` report gives a single pass/fail line for each.  The
statistical checks run real training sweeps on seeded synthetic tasks,
so every number below is deterministic and reproducible bit for bit.

The shared task (10-feature, 5-class Gaussian mixture with overlapping
classes) is sized so the full suite stays within a couple of minutes on
one CPU core while leaving real headroom between soups, ensembles, and
individual models.
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracles
from soupkit import analysis, datagen, ensembles, soups, trainer
from soupkit.rng import PortableRng
from soupkit.tensorstore import Checkpoint, content_digest, load as load_checkpoint, save as save_checkpoint
from soupkit.tinynet import (
    ArchSpec,
    as_params,
    evaluate,
    forward,
    grad64,
    hessian_quadratic_form,
    init_checkpoint,
    loss_ce,
    predictions,
    smoothed_targets,
    softmax,
)

# The example scripts define the studies that test_04 and test_10 assert on.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import approx_study  # noqa: E402
import shift_robustness  # noqa: E402
from approx_study import PRETRAIN  # noqa: E402
from shift_robustness import ARCH, TASK  # noqa: E402

# Low-learning-rate search space: every draw stays close enough to the
# shared initialization that weight averaging remains meaningful.
LOW_LR_SPACE = trainer.SearchSpace(
    lr_exponent_range=(1.9, 2.9),
    wd_exponent_range=(2.0, 4.0),
    smoothing_max=0.2,
    epochs_range=(4, 10),
    mixup_max=0.4,
)
SAFE_LR = 0.02  # largest per-model rate used for interpolation studies


@pytest.fixture(scope="module")
def task():
    ds = datagen.generate(TASK)
    theta0 = trainer.pretrain(ARCH, ds, PRETRAIN)
    return ds, theta0


def _split(ds, name):
    s = ds.splits[name]
    return s.x, s.y


def _acc(theta, X, y):
    return evaluate(theta, X, y).accuracy


def _finetune(theta0, ds, **hyper):
    return trainer.finetune(theta0, trainer.HyperConfig(**hyper), ds).checkpoint


def _verdict(ok, label, detail):
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------


def test_01_greedy_soup_never_below_best_individual_on_selection_split(task):
    ds, theta0 = task
    val_x, val_y = _split(ds, "val")
    holds = 0
    for sweep_idx in range(20):
        configs = trainer.random_search_configs(8, 500 + sweep_idx, LOW_LR_SPACE)
        models = [trainer.finetune(theta0, c, ds).checkpoint for c in configs]
        best = max(_acc(m, val_x, val_y) for m in models)
        soup = soups.greedy_soup(models, soups.accuracy_fn(val_x, val_y))
        holds += _acc(soup.checkpoint, val_x, val_y) >= best
    _verdict(holds == 20, "greedy-selection-guarantee", f"{holds}/20 sweeps")


def test_02_greedy_soup_beats_chosen_model_on_test_split(task):
    ds, theta0 = task
    val_x, val_y = _split(ds, "val")
    test_x, test_y = _split(ds, "test")
    wins, improvements = 0, []
    for sweep_idx in range(10):
        configs = trainer.random_search_configs(16, 1000 + sweep_idx, LOW_LR_SPACE)
        models = [trainer.finetune(theta0, c, ds).checkpoint for c in configs]
        val_accs = [_acc(m, val_x, val_y) for m in models]
        chosen_test = _acc(models[int(np.argmax(val_accs))], test_x, test_y)
        soup = soups.greedy_soup(models, soups.accuracy_fn(val_x, val_y))
        soup_test = _acc(soup.checkpoint, test_x, test_y)
        wins += soup_test >= chosen_test
        improvements.append(soup_test - chosen_test)
    mean_gain = float(np.mean(improvements))
    _verdict(
        wins >= 7 and mean_gain > 0,
        "greedy-soup-test-gain",
        f"{wins}/10 sweeps at or above baseline, mean gain {mean_gain:+.5f}",
    )


def test_03_midpoint_advantage_positive_and_tracks_pair_angle(task):
    ds, theta0 = task
    test_x, test_y = _split(ds, "test")
    models = [
        _finetune(
            theta0,
            ds,
            learning_rate=lr,
            weight_decay=1e-4,
            epochs=6,
            batch_size=64,
            seed=seed,
        )
        for lr in (0.005, 0.01, SAFE_LR)
        for seed in (31, 32, 33)
    ]
    advantages, angles = [], []
    for i in range(len(models)):
        for j in range(i + 1, len(models)):
            advantages.append(
                analysis.interpolation_advantage(models[i], models[j], test_x, test_y)
            )
            angles.append(analysis.pair_angle(theta0, models[i], models[j]))
    corr = analysis.pearson(advantages, angles)
    mean_adv = float(np.mean(advantages))
    _verdict(
        len(advantages) >= 30 and mean_adv > 0 and corr is not None and corr > 0,
        "midpoint-advantage",
        f"{len(advantages)} pairs, mean advantage {mean_adv:+.5f}, "
        f"corr(advantage, angle) {corr:+.4f}",
    )


def test_04_loss_gap_approximation_tracks_truth_and_calibration_helps():
    ds = datagen.generate(approx_study.TASK)
    theta0 = trainer.pretrain(approx_study.ARCH, ds, approx_study.PRETRAIN)
    pairs = approx_study.endpoint_pairs(approx_study.checkpoint_grid(ds, theta0), theta0)
    assert len(pairs) == 21
    splits = {"shift": _split(ds, "shift")}
    reports = {
        mode: analysis.approx_validation_report(pairs, approx_study.ALPHAS, splits, beta_mode=mode)
        for mode in ("calibrate-soup", "fixed-1")
    }
    excluded = {
        p.pair_id
        for p in pairs
        if p.learning_rate == reports["calibrate-soup"].excluded_learning_rate
    }
    err_corr = {}
    for mode, rep in reports.items():
        records = [r for r in rep.records if r.pair_id not in excluded]
        approx = [r.approx_value for r in records]
        err_corr[mode] = analysis.pearson(approx, [r.true_err_diff for r in records])
    summary = reports["calibrate-soup"].summary_excluding_highest_lr
    loss_ok = summary.pearson >= 0.7 and summary.sign_agreement >= 0.8
    calibration_helps = err_corr["fixed-1"] < err_corr["calibrate-soup"]
    _verdict(
        loss_ok and calibration_helps,
        "loss-gap-approximation",
        f"loss corr {summary.pearson:+.4f}, sign agreement "
        f"{summary.sign_agreement:.3f} over {summary.count} records; error corr "
        f"calibrated {err_corr['calibrate-soup']:+.4f} vs fixed-scale "
        f"{err_corr['fixed-1']:+.4f}",
    )


def test_05_quadrature_identity_matches_ensemble_soup_gap(perturbation_pair):
    checked, seed, worst = 0, 0, 0.0
    while checked < 50:
        assert seed < 400, "ran out of candidate seeds for smooth pairs"
        theta0, theta1 = perturbation_pair(seed)
        X = PortableRng(seed + 2000).normals(8 * 3).reshape(8, 3).astype(np.float32)
        seed += 1
        if analysis.relu_flip_count(theta0, theta1, X) != 0:
            continue  # identity assumes a smooth path; skip kinked pairs
        gap = analysis.ensemble_minus_soup_logits(theta0, theta1, 0.5, X)
        bound = 1e-3 * float(np.max(np.abs(gap))) + 1e-6
        residual = float(np.max(analysis.integral_oracle(theta0, theta1, 0.5, X)))
        worst = max(worst, residual / bound)
        assert residual < bound, f"seed {seed - 1}: residual {residual} vs bound {bound}"
        checked += 1
    _verdict(
        checked == 50,
        "quadrature-identity",
        f"50 smooth pairs, worst residual at {worst:.2e} of the bound",
    )


def test_06_linear_logits_make_soup_equal_ensemble(task):
    ds, theta0 = task
    val_x, _ = _split(ds, "val")
    rng = PortableRng(123)
    endpoints = []
    for sign in (1.0, -1.0):
        arrays = {name: values.copy() for name, values in theta0.items()}
        for name in ("layer1.weight", "layer1.bias"):
            bump = 0.15 * rng.normals(arrays[name].size).reshape(arrays[name].shape)
            arrays[name] = (arrays[name].astype(np.float64) + sign * bump).astype(
                np.float32
            )
        endpoints.append(Checkpoint.from_arrays(arrays))
    theta_a, theta_b = endpoints
    soup_logits = forward(soups.uniform_soup([theta_a, theta_b]).checkpoint, val_x)
    ens_logits = ensembles.logit_ensemble([theta_a, theta_b], val_x)
    logit_gap = float(np.max(np.abs(soup_logits - ens_logits)))
    record = analysis.soup_vs_ensemble_approx(
        theta_a, theta_b, 0.5, val_x, _split(ds, "val")[1], beta_mode="fixed-1"
    )
    _verdict(
        logit_gap < 1e-5 and abs(record.approx_value) < 1e-5,
        "linear-logit-identity",
        f"max soup-vs-ensemble logit gap {logit_gap:.2e}, "
        f"approximation magnitude {abs(record.approx_value):.2e}",
    )


def test_07_analytic_gradients_match_finite_differences():
    worst_rel = 0.0
    for case in range(10):
        rng = PortableRng(9000 + case)
        widths = (
            2 + case % 3,
            3 + (case * 7) % 4,
            2 + (case * 5) % 3,
        )
        arch = ArchSpec(widths)
        theta = init_checkpoint(arch, seed=case)
        params = {k: v.astype(np.float64) for k, v in as_params(theta).items()}
        X = rng.normals(6 * widths[0]).reshape(6, widths[0])
        labels = np.array([i % widths[-1] for i in range(6)])
        targets = smoothed_targets(labels, widths[-1], 0.1 * (case % 2))
        beta = 1.0 + 0.3 * (case % 3)
        _, analytic, _ = grad64(params, X, targets, beta)
        numeric = oracles.fd_gradient(params, X, targets, beta)
        for name, values in analytic.items():
            rel = np.max(
                np.abs(values - numeric[name]) / (np.abs(numeric[name]) + 1e-8)
            )
            worst_rel = max(worst_rel, float(rel))
    assert worst_rel < 1e-4

    # logit-space identities: gradient p - e_y, Hessian form = variance
    rng = PortableRng(77)
    logits = rng.normals(15).reshape(3, 5)
    direction = rng.normals(15).reshape(3, 5)
    labels = np.array([0, 3, 4])
    h = 1e-6
    worst_grad = 0.0
    for r in range(3):
        p = softmax(logits[r])
        expected = p - np.eye(5)[labels[r]]
        for c in range(5):
            probe = logits[r].copy()
            probe[c] += h
            up = loss_ce(probe[None, :], labels[r : r + 1])
            probe[c] -= 2 * h
            down = loss_ce(probe[None, :], labels[r : r + 1])
            worst_grad = max(worst_grad, abs((up - down) / (2 * h) - expected[c]))
    worst_hqf = max(
        abs(
            hessian_quadratic_form(logits[r], direction[r])
            - oracles.explicit_hessian_quadratic_form(logits[r], direction[r])
        )
        for r in range(3)
    )
    _verdict(
        worst_rel < 1e-4 and worst_grad < 1e-6 and worst_hqf < 1e-6,
        "gradient-correctness",
        f"max relative gradient error {worst_rel:.2e}, softmax gradient "
        f"deviation {worst_grad:.2e}, Hessian-form deviation {worst_hqf:.2e}",
    )


def test_08_soup_improves_accuracy_but_not_calibration(task):
    ds, theta0 = task
    val_x, val_y = _split(ds, "val")
    test_x, test_y = _split(ds, "test")
    models = [
        _finetune(
            theta0,
            ds,
            learning_rate=0.01,
            weight_decay=1e-4,
            epochs=8,
            batch_size=64,
            seed=seed,
        )
        for seed in (71, 72, 73, 74, 75)
    ]

    fit_logits = ensembles.logit_ensemble(models, val_x)
    fit = ensembles.fit_temperature(fit_logits, val_y)
    assert np.array_equal(
        predictions(fit.beta * fit_logits), predictions(fit_logits)
    ), "temperature scaling must not change top-1 predictions"
    assert fit.nll <= loss_ce(fit_logits, val_y) + 1e-12, "scaling increased fit NLL"

    mean_individual = float(np.mean([_acc(m, test_x, test_y) for m in models]))
    soup = soups.uniform_soup(models)
    soup_test = _acc(soup.checkpoint, test_x, test_y)
    soup_ece = ensembles.evaluate_with_calibration(soup.checkpoint, test_x, test_y).ece
    conf, correct = ensembles.confidences_and_correct(
        ensembles.logit_ensemble(models, test_x), test_y, fit.beta
    )
    ensemble_ece = ensembles.ece_equal_mass(conf, correct)
    _verdict(
        soup_test > mean_individual and soup_ece >= ensemble_ece,
        "soup-calibration-contrast",
        f"soup test accuracy {soup_test:.4f} vs mean individual "
        f"{mean_individual:.4f}; soup ECE {soup_ece:.4f} vs calibrated "
        f"ensemble ECE {ensemble_ece:.4f}",
    )


def test_09_formats_and_training_are_deterministic(task, tmp_path):
    ds, theta0 = task
    rng = PortableRng(31337)
    arrays = {
        "layer0.weight": rng.normals(12).reshape(3, 4).astype(np.float32),
        "layer0.bias": rng.normals(4).astype(np.float32),
    }
    ckpt = Checkpoint.from_arrays(arrays, {"note": "roundtrip"})
    first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(ckpt, first)
    loaded = load_checkpoint(first)
    save_checkpoint(loaded, second)
    bytes_ok = first.read_bytes() == second.read_bytes()
    values_ok = all(np.array_equal(loaded[n], arrays[n]) for n in arrays)

    hyper = dict(
        learning_rate=0.01, weight_decay=1e-4, epochs=4, batch_size=64, seed=99
    )
    repro_ok = content_digest(_finetune(theta0, ds, **hyper)) == content_digest(
        _finetune(theta0, ds, **hyper)
    )

    k = 7
    merged = soups.uniform_soup([theta0] * k).checkpoint
    rel = max(
        float(
            np.max(
                np.abs(merged[name].astype(np.float64) - values)
                / (np.abs(values.astype(np.float64)) + 1e-12)
            )
        )
        for name, values in theta0.items()
    )
    _verdict(
        bytes_ok and values_ok and repro_ok and rel <= 1e-6,
        "format-determinism",
        f"round-trip bytes equal: {bytes_ok}; repeated fine-tune digest equal: "
        f"{repro_ok}; {k}-copy soup max relative deviation {rel:.2e}",
    )


def test_10_interpolation_curve_has_interior_optimum_under_shift(task):
    ds, _ = task
    shift_x, shift_y = _split(ds, "shift")
    robust_base = trainer.pretrain(ARCH, ds, shift_robustness.ROBUST_PRETRAIN)
    alphas = shift_robustness.ALPHAS
    wins = 0
    for seed in range(61, 71):
        theta1 = trainer.finetune(
            robust_base, replace(shift_robustness.FINETUNE, seed=seed), ds
        ).checkpoint
        rows = analysis.interpolation_curve(
            robust_base, theta1, alphas, {"shift": (shift_x, shift_y)}
        )
        assert [r["alpha"] for r in rows] == alphas
        for row, endpoint in ((rows[0], robust_base), (rows[-1], theta1)):
            report = evaluate(endpoint, shift_x, shift_y)
            assert (row["loss"], row["top1_error"]) == (report.loss, report.top1_error)
        shift_accs = [1.0 - r["top1_error"] for r in rows]
        wins += max(shift_accs[1:-1]) >= max(shift_accs[0], shift_accs[-1])
    _verdict(
        wins >= 6,
        "interpolation-shift-optimum",
        f"interior mixing weight at or above both endpoints in {wins}/10 runs",
    )
