"""Model forward/backward, curvature probes, and evaluation tests."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from oracles import checkpoints_equal
from soupkit import ensembles, tinynet
from soupkit.errors import NonFiniteError, ShapeMismatchError
from soupkit.rng import PortableRng
from soupkit.tensorstore import Checkpoint, Params
from soupkit.tinynet import (
    ArchSpec,
    EvalReport,
    arch_of,
    as_params,
    evaluate,
    evaluate_logits,
    _forward_cached,
    forward,
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


def test_arch_of_reads_a_layout_without_widening_it():
    # A manifest command checks every model with arch_of; only a plain
    # mapping needs as_params to get a layout.
    arrays = _random_params((4, 5, 3), 0)
    short_bias = {**arrays, "layer0.bias": arrays["layer0.bias"][:-1]}
    with mock.patch.object(tinynet, "as_params", wraps=as_params) as spy:
        ckpt = Checkpoint.from_arrays(arrays)
        assert arch_of(ckpt) == arch_of(as_params(ckpt)) == ArchSpec((4, 5, 3))
        assert spy.call_count == 0
        for weights in (Checkpoint.from_arrays(short_bias), as_params(short_bias)):
            with pytest.raises(ShapeMismatchError):
                arch_of(weights)
        assert spy.call_count == 0
        assert arch_of(arrays) == ArchSpec((4, 5, 3))
        assert spy.call_count == 1


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


@given(
    widths=st.lists(st.integers(min_value=1, max_value=12), min_size=3, max_size=5),
    rows=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32),
    float32_input=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_forward_bitwise_equals_cached_forward(widths, rows, seed, float32_input):
    rng = PortableRng(seed)
    params = {}
    for i in range(len(widths) - 1):
        fi, fo = widths[i], widths[i + 1]
        params[f"layer{i}.weight"] = rng.normals(fi * fo).reshape(fi, fo)
        params[f"layer{i}.bias"] = 0.5 * rng.normals(fo)
        if i < len(widths) - 2:
            params[f"layer{i}.gain"] = 1.5 * rng.normals(fo)  # perturbed, some negative
    X = 2.0 * rng.normals(rows * widths[0]).reshape(rows, widths[0])
    if float32_input:
        X = X.astype(np.float32)
    before = X.copy()
    p = as_params(params)
    got = forward(p, X)
    assert got.dtype == np.float64 and got.shape == (rows, widths[-1])
    assert got.tobytes() == _forward_cached(p, X)[1].tobytes()
    assert X.tobytes() == before.tobytes()  # the in-place kernel leaves its input alone
    targets = smoothed_targets(np.arange(rows) % widths[-1], widths[-1], 0.0)
    assert grad64(p, X, targets, 1.7)[2].tobytes() == got.tobytes()  # unscaled logits


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
    with pytest.raises(ValueError):
        loss_ce(logits, np.array([0, 1, 2]))  # one label per row


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


def _class_values(width):
    """Tie-prone constants and signed zeros, moderate floats, and floats whose shifts overflow."""
    return st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
        st.floats(-60.0, 60.0, width=width),
        st.floats(allow_nan=False, allow_infinity=False, width=width),
    )


@st.composite
def class_axis_cases(draw):
    """(logits, labels) with 1-40 rows, 2-20 classes, float32 or float64."""
    rows = draw(st.integers(min_value=1, max_value=40))
    classes = draw(st.integers(min_value=2, max_value=20))
    width = draw(st.sampled_from([32, 64]))
    dtype = np.float32 if width == 32 else np.float64
    logits = draw(hnp.arrays(dtype, (rows, classes), elements=_class_values(width)))
    labels = draw(st.lists(st.integers(0, classes - 1), min_size=rows, max_size=rows))
    return logits, np.array(labels)


def _same_bits(a, b) -> bool:
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


@given(class_axis_cases())
@settings(max_examples=150, deadline=None)
def test_softmax_and_log_softmax_bitwise_match_c_order_oracle(case):
    logits, _ = case
    with np.errstate(all="ignore"):
        assert _same_bits(softmax(logits), oracles.softmax_c_order(logits))
        assert _same_bits(log_softmax(logits), oracles.log_softmax_c_order(logits))


@given(
    class_axis_cases(),
    st.sampled_from([0.0, 0.1]),
    st.sampled_from([1.0, 0.05, 0.7, 20.0]),
)
@settings(max_examples=150, deadline=None)
def test_loss_ce_bitwise_matches_product_sum_oracle(case, smoothing, beta):
    logits, labels = case
    with np.errstate(all="ignore"):
        got = loss_ce(logits, labels, smoothing, beta)
        want = oracles.cross_entropy_product_sum(logits, labels, smoothing, beta)
    assert _same_bits(got, want), (got, want)


def test_loss_ce_keeps_nan_where_product_sum_meets_minus_inf():
    # The shift 1.7e308 - (-1.7e308) overflows to -inf; 0.0 * -inf is NaN in the product sum.
    logits = np.array([[1.7e308, -1.7e308], [0.5, 0.25]])
    labels = np.array([0, 1])
    with np.errstate(all="ignore"):
        got = loss_ce(logits, labels)
        want = oracles.cross_entropy_product_sum(logits, labels)
    assert np.isnan(got) and _same_bits(got, want)


NLL_SPECIALS = [np.nan, np.inf, -np.inf, 1e308, -1e308, 1.7976931348623157e308,
                0.0, -0.0, 5e-324, -5e-324]


@st.composite
def nll_cases(draw):
    """(logits, labels, beta): 0-30 rows of 1-9 classes in C order, Fortran
    order or a column-strided view, seeded normal logits with up to three cells set to huge, infinite, NaN,
    signed-zero or subnormal values, and beta in [0.05, 20]."""
    rows = draw(st.integers(min_value=0, max_value=30))
    classes = draw(st.integers(min_value=1, max_value=9))
    scale = draw(st.sampled_from([0.1, 1.0, 10.0, 300.0]))
    logits = scale * np.random.default_rng(draw(st.integers(0, 2**32))).standard_normal(
        (rows, classes)
    )
    if rows:
        cells = st.tuples(
            st.integers(0, rows - 1), st.integers(0, classes - 1), st.sampled_from(NLL_SPECIALS)
        )
        for row, col, value in draw(st.lists(cells, max_size=3)):
            logits[row, col] = value
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        logits = np.asfortranarray(logits)
    elif layout == "strided":
        logits = np.repeat(logits, 2, axis=1)[:, ::2]
    labels = draw(st.lists(st.integers(0, classes - 1), min_size=rows, max_size=rows))
    return logits, np.array(labels, dtype=np.int64), draw(st.floats(0.05, 20.0))


@given(nll_cases())
@example((np.zeros((0, 3)), np.zeros(0, dtype=np.int64), 1.0))  # no rows
@example((np.array([[np.nan, 0.0], [1.0, 2.0]]), np.array([0, 1]), 0.7))
@example((np.array([[1e308, -1e308], [0.5, 0.25]]), np.array([1, 0]), 5.0))
@example((np.array([[3.0], [-2.0]]), np.array([0, 0]), 20.0))  # one class
@settings(max_examples=200, deadline=None)
@pytest.mark.filterwarnings("ignore:Mean of empty slice:RuntimeWarning")  # the oracle's np.mean
def test_label_nll_loss_ce_and_fit_probes_bitwise_match_product_sum_oracle(case):
    # Every value must be the bits of the product-sum oracle, except that a NaN
    # may carry the other sign: a NaN loss never reaches an artifact.
    logits, labels, beta = case
    probes = []

    def recorded(*args):
        nll = tinynet.label_nll(*args)

        def probe(b):
            probes.append((b, nll(b)))
            return probes[-1][1]

        return probe

    with np.errstate(all="ignore"):
        probes += [(beta, tinynet.label_nll(logits, labels)(beta)),
                   (beta, loss_ce(logits, labels, 0.0, beta))]
        with mock.patch.object(ensembles, "label_nll", recorded):
            fit = ensembles.fit_temperature(logits, labels)
        assert any(_same_bits(fit.nll, v) for _, v in probes[2:])  # the fit reports a probe
        for b, got in probes:
            oracle = oracles.cross_entropy_product_sum(logits, labels, 0.0, b)
            assert _same_bits(got, oracle) or np.isnan(got) and np.isnan(oracle), (b, got, oracle)


@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=2, max_value=20),
    st.sampled_from([0.0, 1.0, 40.0]),  # 0.0 ties every class
    st.sampled_from([1.0, 0.3, 2.5]),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_grad64_bitwise_matches_c_order_max(seed, rows, classes, head_scale, beta, smooth, f32):
    widths = (5, 7, classes)
    params = _random_params(widths, seed)
    params["layer1.weight"] *= head_scale
    params["layer1.bias"] *= head_scale
    rng = PortableRng(seed + 1)
    X = rng.normals(rows * widths[0]).reshape(rows, widths[0])
    if f32:
        X = X.astype(np.float32)
    labels = np.array([rng.below(classes) for _ in range(rows)])
    targets = smoothed_targets(labels, classes, 0.1 if smooth else 0.0)
    loss, grads, _ = grad64(params, X, targets, beta)
    with mock.patch.object(tinynet, "_class_max", oracles.class_max_c_order):
        want_loss, want_grads, _ = grad64(params, X, targets, beta)
    assert _same_bits(loss, want_loss)
    assert grads.vector.tobytes() == want_grads.vector.tobytes()


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
    _, analytic, _ = grad64(params, X, targets, beta)
    numeric = oracles.fd_gradient(params, X, targets, beta)
    for name in params:
        scale = np.maximum(np.abs(numeric[name]), 1e-4)
        rel = np.abs(analytic[name] - numeric[name]) / scale
        assert rel.max() < 1e-4, f"{name}: max rel err {rel.max():.2e}"


def test_grad64_shares_checkpoint_layout():
    params = _random_params((4, 6, 3), 3)
    ckpt = Checkpoint.from_arrays(params)
    X = PortableRng(9).normals(12).reshape(3, 4)
    _, g, _ = grad64(as_params(ckpt), X, smoothed_targets(np.array([0, 1, 2]), 3, 0.0))
    assert g.layout == ckpt.layout
    assert list(g) == list(ckpt)
    for name in ckpt:
        assert g[name].shape == ckpt[name].shape


@pytest.mark.parametrize("smoothing", [0.0, 0.1])
@pytest.mark.parametrize("beta", [1.0, 1.3, 0.05, 20.0])
def test_grad64_loss_matches_loss_ce(smoothing, beta):
    # The training loss is the reported loss. At smoothing 0 the two sides run
    # different code: grad64's product sum and loss_ce's label_nll kernel.
    params = _random_params((4, 6, 3), 4)
    X = PortableRng(10).normals(12).reshape(3, 4)
    labels = np.array([0, 2, 1])
    loss, _, _ = grad64(params, X, smoothed_targets(labels, 3, smoothing), beta)
    assert _same_bits(loss, loss_ce(forward(params, X), labels, smoothing, beta))


@pytest.mark.parametrize("targets_kind", ["onehot", "smoothed", "mixup"])
def test_grad64_into_a_nan_buffer_equals_a_fresh_gradient(targets_kind):
    params = as_params(_random_params((4, 6, 5, 3), 5))
    rng = PortableRng(11)
    X = rng.normals(8 * 4).reshape(8, 4)
    labels = np.array([rng.below(3) for _ in range(8)])
    targets = smoothed_targets(labels, 3, 0.1 if targets_kind == "smoothed" else 0.0)
    if targets_kind == "mixup":  # rows blended as the trainer's mixup does
        lam, perm = rng.beta(0.4, 0.4), rng.permutation(8)
        X, targets = lam * X + (1 - lam) * X[perm], lam * targets + (1 - lam) * targets[perm]
    want_loss, want, _ = grad64(params, X, targets, 1.3)
    buffer = Params(params.layout, np.full_like(params.vector, np.nan))
    loss, got, _ = grad64(params, X, targets, 1.3, out=buffer)
    assert got is buffer
    assert _same_bits(loss, want_loss)
    assert buffer.vector.tobytes() == want.vector.tobytes()


@pytest.mark.parametrize("inv_temperature", [0.0, -1.0])
def test_grad64_rejects_a_non_positive_inv_temperature(inv_temperature):
    params = _random_params((4, 6, 3), 6)
    targets = smoothed_targets(np.array([0, 1, 2]), 3, 0.0)
    with pytest.raises(ValueError, match="inv_temperature"):
        grad64(params, np.zeros((3, 4)), targets, inv_temperature=inv_temperature)


def test_grad64_rejects_a_buffer_of_another_layout():
    params = as_params(_random_params((4, 6, 3), 6))
    other = as_params(_random_params((4, 7, 3), 6))
    X = PortableRng(12).normals(12).reshape(3, 4)
    targets = smoothed_targets(np.array([0, 1, 2]), 3, 0.0)
    float32 = Checkpoint(params.layout, params.vector.astype(np.float32), {})
    for out in (other.copy(), params.vector.copy(), float32):
        with pytest.raises(ShapeMismatchError):
            grad64(params, X, targets, out=out)


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
    out = logit_second_directional(params, delta, np.array([[1.0]]))
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
    out = logit_second_directional(params, delta, X)
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
    logits = forward(params, X)
    report = evaluate_logits(logits, labels)
    assert report.calibrated_loss is None
    assert report.loss == pytest.approx(loss_ce(logits, labels), rel=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evaluate_reports_no_accuracy_from_non_finite_logits(bad):
    # argmax would pick the first NaN as the prediction: an accuracy of nothing
    logits = np.array([[1.0, 2.0, 0.0], [bad, 0.0, 1.0]])
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError, match="non-finite loss"):
        evaluate_logits(logits, np.array([1, 2]))


def test_argmax_ties_break_to_lowest_index():
    logits = np.array([[1.0, 3.0, 3.0], [2.0, 2.0, 1.0], [5.0, 4.0, 5.0]])
    assert predictions(logits).tolist() == [1, 0, 0]


def test_eval_report_dataclass():
    r = EvalReport(count=10, loss=0.5, top1_error=0.2)
    assert r.accuracy == pytest.approx(0.8)
