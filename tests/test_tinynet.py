"""Model forward/backward, curvature probes, and evaluation tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from soupkit.errors import ShapeMismatchError
from soupkit.rng import PortableRng
from soupkit.tensorstore import Checkpoint, checkpoints_equal
from soupkit.tinynet import (
    ArchSpec,
    EvalReport,
    arch_of,
    as_params,
    cross_entropy_from_targets,
    evaluate,
    forward,
    grad,
    grad64,
    hessian_quadratic_form,
    init_checkpoint,
    log_softmax,
    logit_second_directional,
    loss_ce,
    predictions,
    smoothed_targets,
    softmax,
)


def _random_params(widths, seed):
    rng = PortableRng(seed)
    params = {}
    L = len(widths) - 1
    for i in range(L):
        fi, fo = widths[i], widths[i + 1]
        params[f"layer{i}.weight"] = rng.normals(fi * fo).reshape(fi, fo) * 0.7
        params[f"layer{i}.bias"] = rng.normals(fo) * 0.2
        if i < L - 1:
            params[f"layer{i}.gain"] = 1.0 + 0.3 * rng.normals(fo)
    return params


# ------------------------------------------------------------- arch & init


def test_archspec_validation():
    with pytest.raises(ValueError):
        ArchSpec((4, 3))  # no hidden layer
    with pytest.raises(ValueError):
        ArchSpec((4, 0, 3))
    spec = ArchSpec((16, 32, 8))
    assert spec.input_dim == 16 and spec.num_classes == 8 and spec.num_layers == 2


def test_init_checkpoint_layout_and_determinism():
    arch = ArchSpec((5, 7, 3))
    a = init_checkpoint(arch, seed=11)
    b = init_checkpoint(arch, seed=11)
    assert checkpoints_equal(a, b)
    assert a["layer0.weight"].shape == (5, 7)
    assert a["layer0.gain"].tolist() == [1.0] * 7
    assert a["layer0.bias"].tolist() == [0.0] * 7
    assert a["layer1.weight"].shape == (7, 3)
    assert "layer1.gain" not in a
    assert not checkpoints_equal(a, init_checkpoint(arch, seed=12), check_meta=False)
    assert arch_of(a) == arch


def test_structure_validation():
    params = _random_params((4, 5, 3), 0)
    del params["layer0.gain"]
    with pytest.raises(ShapeMismatchError):
        forward(params, np.zeros((2, 4)))
    params = _random_params((4, 5, 3), 0)
    params["layer7.weight"] = np.zeros((1, 1))
    with pytest.raises(ShapeMismatchError):
        forward(params, np.zeros((2, 4)))
    with pytest.raises(ShapeMismatchError):
        forward(_random_params((4, 5, 3), 0), np.zeros((2, 9)))  # wrong input width


# ------------------------------------------------------------- forward


def test_identity_hidden_layer_forward():
    head_w = np.array([[0.5, -1.0], [2.0, 0.25]])
    params = {
        "layer0.weight": np.eye(2),
        "layer0.bias": np.zeros(2),
        "layer0.gain": np.ones(2),
        "layer1.weight": head_w,
        "layer1.bias": np.zeros(2),
    }
    x = np.array([[1.0, 2.0]])
    expected = np.maximum(x, 0.0) @ head_w
    assert np.allclose(forward(params, x), expected, atol=1e-12)


def test_gain_applies_before_relu():
    params = {
        "layer0.weight": np.eye(1),
        "layer0.bias": np.zeros(1),
        "layer0.gain": np.array([-1.0]),
        "layer1.weight": np.eye(1),
        "layer1.bias": np.zeros(1),
    }
    # positive input, negative gain: relu(gain * z) = 0
    assert forward(params, np.array([[3.0]]))[0, 0] == 0.0
    # negative input, negative gain: relu(+3) = 3
    assert forward(params, np.array([[-3.0]]))[0, 0] == 3.0


def test_forward_accepts_checkpoint_and_params_equally():
    params = _random_params((4, 6, 3), 5)
    ckpt = Checkpoint.from_arrays(params)
    X = PortableRng(1).normals(8).reshape(2, 4)
    # float32 storage rounds, so allow the storage quantum
    assert np.allclose(forward(ckpt, X), forward(params, X), atol=1e-5)


# ------------------------------------------------------------- losses


def test_smoothed_target_row():
    t = smoothed_targets(np.array([0]), 4, 0.1)[0]
    assert t.tolist() == pytest.approx([0.925, 0.025, 0.025, 0.025], abs=1e-12)
    assert smoothed_targets(np.array([2]), 3, 0.0)[0].tolist() == [0.0, 0.0, 1.0]


def test_loss_ce_frozen_hand_value():
    # Oracle: direct logsumexp formula over two rows (see oracles.py).
    logits = np.array([[2.0, 0.5, -1.0], [0.0, 0.0, 0.0]])
    got = loss_ce(logits, np.array([0, 2]), smoothing=0.1, inv_temperature=1.5)
    assert got == pytest.approx(0.7169092221086367, rel=1e-12)


def test_loss_ce_uniform_logits_is_log_c():
    logits = np.zeros((5, 8))
    assert loss_ce(logits, np.arange(5) % 8) == pytest.approx(np.log(8), rel=1e-12)


def test_loss_ce_validation():
    logits = np.zeros((2, 3))
    with pytest.raises(ValueError):
        loss_ce(logits, np.array([0, 3]))
    with pytest.raises(ValueError):
        loss_ce(logits, np.array([0, -1]))
    with pytest.raises(ValueError):
        loss_ce(logits, np.array([0, 1]), smoothing=1.0)
    with pytest.raises(ValueError):
        loss_ce(logits, np.array([0, 1]), inv_temperature=0.0)


def test_loss_ce_stability_with_large_logits():
    logits = np.array([[1000.0, 0.0], [-1000.0, 0.0]])
    val = loss_ce(logits, np.array([0, 1]))
    assert np.isfinite(val) and val == pytest.approx(0.0, abs=1e-9)


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=25, deadline=None)
def test_softmax_rows_normalize(seed):
    logits = PortableRng(seed).normals(12).reshape(3, 4) * 5
    p = softmax(logits)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p >= 0)
    assert np.allclose(np.exp(log_softmax(logits)), p, atol=1e-12)


# ------------------------------------------------------------- gradients


def test_softmax_gradient_identity():
    # d loss / d logits for one example equals softmax(f) - onehot(y).
    row = np.array([[1.2, -0.7, 0.3, 2.0]])
    y = np.array([1])
    h = 1e-6
    fd = np.zeros(4)
    for j in range(4):
        plus, minus = row.copy(), row.copy()
        plus[0, j] += h
        minus[0, j] -= h
        fd[j] = (loss_ce(plus, y) - loss_ce(minus, y)) / (2 * h)
    analytic = softmax(row)[0] - np.eye(4)[1]
    assert np.max(np.abs(fd - analytic)) < 1e-6


@pytest.mark.parametrize(
    "widths,seed,smoothing,beta",
    [((4, 6, 3), 0, 0.0, 1.0), ((3, 5, 4, 2), 1, 0.1, 1.7), ((2, 8, 5), 2, 0.05, 0.6)],
)
def test_grad_matches_central_differences(widths, seed, smoothing, beta):
    params = _random_params(widths, seed)
    rng = PortableRng(seed + 100)
    X = rng.normals(5 * widths[0]).reshape(5, widths[0])
    labels = np.array([rng.below(widths[-1]) for _ in range(5)])
    targets = smoothed_targets(labels, widths[-1], smoothing)
    _, analytic = grad64(params, X, targets, beta)
    numeric = oracles.fd_gradient(params, X, targets, beta)
    for name in params:
        scale = np.maximum(np.abs(numeric[name]), 1e-4)
        rel = np.abs(analytic[name] - numeric[name]) / scale
        assert rel.max() < 1e-4, f"{name}: max rel err {rel.max():.2e}"


def test_grad_checkpoint_wrapper_shapes():
    params = _random_params((4, 6, 3), 3)
    ckpt = Checkpoint.from_arrays(params)
    X = PortableRng(9).normals(12).reshape(3, 4)
    g = grad(ckpt, X, np.array([0, 1, 2]))
    assert list(g) == list(ckpt)
    for name in ckpt:
        assert g[name].shape == ckpt[name].shape


def test_grad64_loss_matches_loss_ce():
    params = _random_params((4, 6, 3), 4)
    X = PortableRng(10).normals(12).reshape(3, 4)
    labels = np.array([0, 2, 1])
    targets = smoothed_targets(labels, 3, 0.1)
    loss, _ = grad64(params, X, targets, 1.3)
    assert loss == pytest.approx(loss_ce(forward(params, X), labels, 0.1, 1.3), rel=1e-12)


# ------------------------------------------------------------- curvature


def test_hessian_quadratic_form_equals_softmax_variance():
    rng = PortableRng(17)
    for _ in range(5):
        f = rng.normals(6) * 3
        v = rng.normals(6)
        got = hessian_quadratic_form(f, v)
        assert got == pytest.approx(oracles.explicit_hessian_quadratic_form(f, v), abs=1e-6)
        p = softmax(f)
        variance = float(np.sum(p * v**2) - np.sum(p * v) ** 2)
        assert got == pytest.approx(variance, abs=1e-12)


def test_hessian_quadratic_form_batched():
    f = PortableRng(3).normals(12).reshape(4, 3)
    v = PortableRng(4).normals(12).reshape(4, 3)
    batched = hessian_quadratic_form(f, v)
    assert batched.shape == (4,)
    for i in range(4):
        assert batched[i] == pytest.approx(hessian_quadratic_form(f[i], v[i]), rel=1e-12)
    with pytest.raises(ShapeMismatchError):
        hessian_quadratic_form(f, v[:2])


def test_hessian_quadratic_form_nonnegative():
    rng = PortableRng(23)
    for _ in range(20):
        assert hessian_quadratic_form(rng.normals(5), rng.normals(5)) >= 0.0


def test_logit_second_directional_quadratic_probe():
    # One path through the net: logit(t) = (1.5 + t)(0.7 + t), an exact
    # quadratic in t with second derivative 2 while the relu stays on.
    params = {
        "layer0.weight": np.array([[0.5]]),
        "layer0.bias": np.array([1.0]),
        "layer0.gain": np.array([1.0]),
        "layer1.weight": np.array([[0.7]]),
        "layer1.bias": np.array([0.0]),
    }
    delta = {
        "layer0.weight": np.array([[1.0]]),
        "layer0.bias": np.array([0.0]),
        "layer0.gain": np.array([0.0]),
        "layer1.weight": np.array([[1.0]]),
        "layer1.bias": np.array([0.0]),
    }
    out = logit_second_directional(params, delta, np.array([[1.0]]), h=1e-3)
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(2.0, abs=1e-3)


def test_logit_second_directional_zero_for_head_direction():
    # Logits are linear in head parameters, so curvature along a
    # head-only direction vanishes.
    params = _random_params((4, 6, 3), 8)
    delta = {k: np.zeros_like(v) for k, v in params.items()}
    delta["layer1.weight"] = np.ones_like(params["layer1.weight"])
    delta["layer1.bias"] = np.ones_like(params["layer1.bias"])
    X = PortableRng(2).normals(20).reshape(5, 4)
    out = logit_second_directional(params, delta, X, h=1e-3)
    assert np.max(np.abs(out)) < 1e-7


# ------------------------------------------------------------- evaluate


def test_evaluate_matches_brute_force_loop():
    params = _random_params((6, 9, 4), 21)
    rng = PortableRng(55)
    X = rng.normals(40 * 6).reshape(40, 6)
    labels = np.array([rng.below(4) for _ in range(40)])
    report = evaluate(params, X, labels)
    loss, err = oracles.per_example_eval(forward(params, X), labels)
    assert report.loss == pytest.approx(loss, rel=1e-10)
    assert report.top1_error == pytest.approx(err, abs=1e-12)
    assert report.count == 40
    assert report.accuracy == pytest.approx(1.0 - err)
    assert report.calibrated_loss is None


def test_evaluate_calibrated_loss():
    params = _random_params((4, 5, 3), 2)
    X = PortableRng(6).normals(8).reshape(2, 4)
    labels = np.array([0, 1])
    report = evaluate(params, X, labels, inv_temperature=2.0)
    logits = forward(params, X)
    assert report.calibrated_loss == pytest.approx(
        loss_ce(logits, labels, inv_temperature=2.0), rel=1e-12
    )
    assert report.loss == pytest.approx(loss_ce(logits, labels), rel=1e-12)


def test_argmax_ties_break_to_lowest_index():
    logits = np.array([[1.0, 3.0, 3.0], [2.0, 2.0, 1.0], [5.0, 4.0, 5.0]])
    assert predictions(logits).tolist() == [1, 0, 0]


def test_eval_report_dataclass():
    r = EvalReport(count=10, loss=0.5, top1_error=0.2)
    assert r.accuracy == pytest.approx(0.8)
