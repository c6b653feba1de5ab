"""Interpolation analyses, plane landscapes, and the loss-gap approximation."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from soupkit import analysis
from soupkit.errors import DegenerateBasisError
from soupkit.rng import PortableRng
from soupkit.tensorstore import Checkpoint, content_digest, dot, to_checkpoint
from soupkit.tinynet import as_params, evaluate


# --------------------------------------------------- statistical helpers


def test_pearson_of_list_with_itself_is_one():
    xs = [0.3, -1.2, 2.5, 0.0, 4.1]
    assert analysis.pearson(xs, xs) == pytest.approx(1.0, abs=1e-12)
    assert analysis.pearson(xs, [-v for v in xs]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_matches_plain_python_formula():
    xs = [1.0, 2.0, 4.0, 8.0, 9.0]
    ys = [0.5, -0.25, 3.0, 2.0, 5.5]
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    denom = math.sqrt(
        sum((a - mx) ** 2 for a in xs) * sum((b - my) ** 2 for b in ys)
    )
    assert analysis.pearson(xs, ys) == pytest.approx(cov / denom, abs=1e-12)


def test_pearson_degenerate_inputs_return_none():
    assert analysis.pearson([1.0, 1.0, 1.0], [0.0, 2.0, 4.0]) is None
    assert analysis.pearson([1.0], [2.0]) is None


def test_pearson_rejects_inputs_of_unequal_length():
    with pytest.raises(ValueError, match="equal-length"):
        analysis.pearson([1.0, 2.0, 3.0], [1.0, 2.0])


def test_sign_agreement_counts_zero_as_its_own_sign():
    got = analysis.sign_agreement([1.0, -1.0, 0.0, 2.0], [2.0, -3.0, 0.0, -1.0])
    assert got == pytest.approx(0.75)
    with pytest.raises(ValueError):
        analysis.sign_agreement([], [])


# ------------------------------------------------- interpolation advantage


def test_interpolation_advantage_identical_endpoints_is_exactly_zero(
    desk_models, desk_dataset
):
    val = desk_dataset.splits["val"]
    m = desk_models[0]
    assert analysis.interpolation_advantage(m, m, val.x, val.y) == 0.0


def test_interpolation_advantage_is_symmetric(desk_models, desk_dataset):
    val = desk_dataset.splits["val"]
    a, b = desk_models[0], desk_models[1]
    fwd = analysis.interpolation_advantage(a, b, val.x, val.y)
    rev = analysis.interpolation_advantage(b, a, val.x, val.y)
    assert fwd == rev


def test_interpolation_advantage_toy_midpoint_fixes_one_error():
    # Two heads with opposite sign patterns disagree everywhere; their
    # midpoint has all-zero head logits, so first-index ties pick class
    # 0.  On four examples with labels [0, 0, 1, 0] the endpoints score
    # 1/4 and 3/4 while the midpoint scores 3/4:
    # advantage = 3/4 - (1/4 + 3/4)/2 = +1/4 = +1/N.
    hidden = {"layer0.weight": [[1.0]], "layer0.bias": [0.0], "layer0.gain": [1.0]}
    theta1 = Checkpoint.from_arrays(
        {**hidden, "layer1.weight": [[1.0, -1.0]], "layer1.bias": [-1.0, 1.0]}
    )
    theta2 = Checkpoint.from_arrays(
        {**hidden, "layer1.weight": [[-1.0, 1.0]], "layer1.bias": [1.0, -1.0]}
    )
    X = np.array([[2.0], [-2.0], [2.0], [-2.0]], dtype=np.float32)
    y = np.array([0, 0, 1, 0])
    got = analysis.interpolation_advantage(theta1, theta2, X, y)
    assert got == pytest.approx(0.25, abs=1e-15)
    # Brute-force cross-check of all three accuracies via plain loops.
    for theta, want_err in ((theta1, 0.75), (theta2, 0.25)):
        logits = [
            [relu * w[0] + b[0], relu * w[1] + b[1]]
            for relu in (2.0, 0.0, 2.0, 0.0)
            for w, b in [(theta["layer1.weight"].tolist()[0],
                          theta["layer1.bias"].tolist())]
        ]
        _, err = oracles.per_example_eval(logits, y)
        assert err == pytest.approx(want_err)


# --------------------------------------------------------------- pair angle


def test_pair_angle_right_triangle_is_ninety_degrees():
    base = {"layer0.weight": [[0.0, 0.0]], "layer0.bias": [0.0], "layer0.gain": [1.0]}
    theta0 = Checkpoint.from_arrays(base)
    theta1 = Checkpoint.from_arrays({**base, "layer0.weight": [[1.0, 0.0]]})
    theta2 = Checkpoint.from_arrays({**base, "layer0.weight": [[0.0, 1.0]]})
    got = analysis.pair_angle(theta0, theta1, theta2)
    assert got == pytest.approx(90.0, abs=1e-6)


def test_pair_angle_on_trained_models_is_in_range(desk_base, desk_models):
    phi = analysis.pair_angle(desk_base, desk_models[0], desk_models[1])
    assert 0.0 < phi < 180.0


def test_pair_angle_matches_float64_oracle(desk_base, desk_models):
    # Float64 deltas: rounding them to float32 moves these angles by ~3e-9 relative.
    for i, j in ((0, 1), (2, 3), (1, 4)):
        got = analysis.pair_angle(desk_base, desk_models[i], desk_models[j])
        want = oracles.pair_angle_reference(desk_base, desk_models[i], desk_models[j])
        assert got == pytest.approx(want, rel=1e-12)


# ----------------------------------------------------------- plane basis


def _vector_ckpt(x, y):
    return Checkpoint.from_arrays({"w": np.array([x, y], dtype=np.float32)})


def test_plane_basis_hand_geometry():
    basis = analysis.plane_basis(
        _vector_ckpt(0, 0), _vector_ckpt(2, 0), _vector_ckpt(1, 1)
    )
    np.testing.assert_array_equal(basis.u1["w"], [1.0, 0.0])
    np.testing.assert_array_equal(basis.u2["w"], [0.0, 1.0])
    assert basis.coords0 == (0.0, 0.0)
    assert basis.coords1 == (2.0, 0.0)
    assert basis.coords2 == (1.0, 1.0)


def test_plane_basis_orthonormal_on_trained_models(desk_base, desk_models):
    basis = analysis.plane_basis(desk_base, desk_models[0], desk_models[1])
    u1, u2 = as_params(basis.u1), as_params(basis.u2)
    assert dot(u1, u2) == pytest.approx(0.0, abs=1e-5)
    assert math.sqrt(dot(u1, u1)) == pytest.approx(1.0, abs=1e-6)
    assert math.sqrt(dot(u2, u2)) == pytest.approx(1.0, abs=1e-6)


def test_plane_basis_reconstructs_anchor_models(desk_base, desk_models):
    basis = analysis.plane_basis(desk_base, desk_models[0], desk_models[1])
    p0 = as_params(desk_base)
    u1 = as_params(basis.u1)
    u2 = as_params(basis.u2)
    for anchor, (cx, cy) in (
        (desk_models[0], basis.coords1),
        (desk_models[1], basis.coords2),
    ):
        want = as_params(anchor)
        for name in p0:
            rebuilt = p0[name] + cx * u1[name] + cy * u2[name]
            np.testing.assert_allclose(rebuilt, want[name], rtol=1e-4, atol=1e-6)


def test_plane_landscape_bytes_are_pinned(desk_base, desk_models, desk_dataset):
    # Recorded before the plane frame became vector expressions on Params.
    val = desk_dataset.splits["val"]
    matrix, basis = analysis.plane_landscape(
        desk_base, desk_models[0], desk_models[1],
        [-0.5, 0.0, 0.7, 1.9], [-0.4, 0.0, 1.3], val.x, val.y,
    )
    assert hashlib.sha256(matrix.tobytes()).hexdigest()[:16] == "fd03c7098744d939"
    assert repr(basis.coords1) == "(1.4340947986854777, 0.0)"
    assert repr(basis.coords2) == "(0.7122845624501305, 0.258518293885309)"
    assert content_digest(to_checkpoint(basis.u1, {})) == "4c3969718ec0cd62"
    assert content_digest(to_checkpoint(basis.u2, {})) == "9d1001c3bcfaeeb9"


def test_plane_basis_rejects_degenerate_directions():
    with pytest.raises(DegenerateBasisError):
        analysis.plane_basis(_vector_ckpt(0, 0), _vector_ckpt(0, 0), _vector_ckpt(1, 1))
    with pytest.raises(DegenerateBasisError):
        analysis.plane_basis(_vector_ckpt(0, 0), _vector_ckpt(1, 1), _vector_ckpt(2, 2))


def test_plane_landscape_origin_and_anchor_cells(desk_base, desk_models, desk_dataset):
    val = desk_dataset.splits["val"]
    basis = analysis.plane_basis(desk_base, desk_models[0], desk_models[1])
    xs = [0.0, basis.coords1[0]]
    ys = [0.0]
    matrix, _ = analysis.plane_landscape(
        desk_base, desk_models[0], desk_models[1], xs, ys, val.x, val.y, metric="loss"
    )
    assert matrix.shape == (1, 2)
    assert matrix[0, 0] == evaluate(desk_base, val.x, val.y).loss  # exact origin
    assert matrix[0, 1] == pytest.approx(
        evaluate(desk_models[0], val.x, val.y).loss, abs=1e-6
    )


def test_plane_landscape_error_metric(desk_base, desk_models, desk_dataset):
    val = desk_dataset.splits["val"]
    matrix, basis = analysis.plane_landscape(
        desk_base,
        desk_models[0],
        desk_models[1],
        [0.0, 0.5],
        [-0.2, 0.0, 0.2],
        val.x,
        val.y,
        metric="error",
    )
    assert matrix.shape == (3, 2)
    assert np.all((matrix >= 0.0) & (matrix <= 1.0))
    assert matrix[1, 0] == evaluate(desk_base, val.x, val.y).top1_error
    with pytest.raises(ValueError):
        analysis.plane_landscape(
            desk_base, desk_models[0], desk_models[1], [0.0], [0.0],
            val.x, val.y, metric="nll",
        )


def test_plane_csv_layout(tmp_path, desk_base, desk_models, desk_dataset):
    val = desk_dataset.splits["val"]
    xs, ys = [0.0, 0.3], [0.0, 0.1, 0.2]
    matrix, basis = analysis.plane_landscape(
        desk_base, desk_models[0], desk_models[1], xs, ys, val.x, val.y
    )
    path = tmp_path / "plane.csv"
    analysis.write_plane_csv(matrix, xs, ys, basis, "loss", path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# metric=loss")
    assert lines[1].split(",")[0] == "y\\x"
    assert len(lines) == 2 + len(ys)
    row1 = lines[2].split(",")
    assert float(row1[0]) == ys[0]
    assert [float(v) for v in row1[1:]] == list(matrix[0])


# ----------------------------------------------------- grid endpoint study


def test_grid_endpoint_study_shape_and_diagonal(desk_models, desk_dataset):
    val = desk_dataset.splits["val"]
    cells = analysis.grid_endpoint_study(desk_models, val.x, val.y)
    k = len(desk_models)
    assert len(cells) == k * (k + 1) // 2
    assert all(c.a <= c.b for c in cells)
    for c in cells:
        if c.a == c.b:
            assert c.advantage == 0.0  # avg(theta, theta) is theta bitwise


def test_grid_endpoint_study_matches_brute_force(desk_models, desk_dataset):
    val = desk_dataset.splits["val"]
    cells = analysis.grid_endpoint_study(desk_models, val.x, val.y)
    from soupkit.tensorstore import combine

    for cell in cells:
        pair = combine([0.5, 0.5], [desk_models[cell.a], desk_models[cell.b]])
        pair_acc = evaluate(pair, val.x, val.y).accuracy
        best = max(
            evaluate(m, val.x, val.y).accuracy
            for m in desk_models[cell.a : cell.b + 1]
        )
        assert cell.pair_accuracy == pair_acc
        assert cell.best_in_range == best
        assert cell.advantage == pair_acc - best


def test_grid_endpoint_study_requires_two_models(desk_models, desk_dataset):
    val = desk_dataset.splits["val"]
    with pytest.raises(ValueError):
        analysis.grid_endpoint_study(desk_models[:1], val.x, val.y)


def test_grid_study_csv(tmp_path, desk_models, desk_dataset):
    val = desk_dataset.splits["val"]
    cells = analysis.grid_endpoint_study(desk_models[:3], val.x, val.y)
    path = tmp_path / "grid.csv"
    analysis.write_grid_study_csv(cells, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b,pair_accuracy,best_in_range,advantage"
    assert len(lines) == 1 + len(cells)
    first = lines[1].split(",")
    assert (int(first[0]), int(first[1])) == (cells[0].a, cells[0].b)
    assert float(first[4]) == cells[0].advantage


# ------------------------------------------- second-order approximation


def test_approx_identical_endpoints_all_zero(desk_models, desk_dataset):
    val = desk_dataset.splits["val"]
    m = desk_models[0]
    rec = analysis.soup_vs_ensemble_approx(m, m, 0.5, val.x, val.y)
    assert rec.approx_value == 0.0
    assert rec.true_loss_diff == 0.0
    assert rec.true_err_diff == 0.0
    assert rec.second_derivative_term == 0.0
    assert rec.variance_term == 0.0


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_approx_endpoint_alphas_are_zero(desk_models, desk_dataset, alpha):
    val = desk_dataset.splits["val"]
    rec = analysis.soup_vs_ensemble_approx(
        desk_models[0], desk_models[1], alpha, val.x, val.y
    )
    assert rec.approx_value == 0.0  # c_alpha = 0
    assert rec.true_loss_diff == 0.0
    assert rec.true_err_diff == 0.0


def test_approx_record_composition_invariant(desk_models, desk_dataset):
    val = desk_dataset.splits["val"]
    rec = analysis.soup_vs_ensemble_approx(
        desk_models[0], desk_models[1], 0.3, val.x, val.y
    )
    c = 0.3 * 0.7 / 2.0
    assert rec.approx_value == c * (
        -rec.second_derivative_term + rec.beta**2 * rec.variance_term
    )


def test_approx_linear_head_pair_cancels(desk_base, desk_dataset):
    # Endpoints share every hidden tensor, so logits are affine in the
    # interpolation weight: the soup and ensemble coincide and the two
    # approximation terms cancel.
    val = desk_dataset.splits["val"]
    p = {name: values.copy() for name, values in desk_base.items()}
    rng = PortableRng(123)
    bump_w = 0.15 * rng.normals(p["layer1.weight"].size).reshape(
        p["layer1.weight"].shape
    )
    bump_b = 0.15 * rng.normals(p["layer1.bias"].size)
    q = {k: v.copy() for k, v in p.items()}
    q["layer1.weight"] = (q["layer1.weight"] + bump_w).astype(np.float32)
    q["layer1.bias"] = (q["layer1.bias"] + bump_b).astype(np.float32)
    theta0 = Checkpoint.from_arrays(p)
    theta1 = Checkpoint.from_arrays(q)

    gap = analysis.ensemble_minus_soup_logits(theta0, theta1, 0.5, val.x)
    assert float(np.max(np.abs(gap))) < 1e-5

    rec = analysis.soup_vs_ensemble_approx(
        theta0, theta1, 0.5, val.x, val.y, beta_mode="fixed-1"
    )
    assert abs(rec.approx_value) < 1e-5
    assert abs(rec.true_loss_diff) < 1e-5


@pytest.mark.parametrize("alpha", [0.3, 0.02])
def test_approx_symmetry_under_pair_swap(desk_models, desk_dataset, alpha):
    val = desk_dataset.splits["val"]
    fwd = analysis.soup_vs_ensemble_approx(
        desk_models[0], desk_models[1], alpha, val.x, val.y
    )
    rev = analysis.soup_vs_ensemble_approx(
        desk_models[1], desk_models[0], 1.0 - alpha, val.x, val.y
    )
    assert rev.approx_value == pytest.approx(fwd.approx_value, abs=1e-6)
    assert rev.true_loss_diff == pytest.approx(fwd.true_loss_diff, abs=1e-6)
    assert rev.true_err_diff == pytest.approx(fwd.true_err_diff, abs=1e-9)


def test_approx_calibrated_beta_never_changes_error_diff(desk_models, desk_dataset):
    val = desk_dataset.splits["val"]
    fixed = analysis.soup_vs_ensemble_approx(
        desk_models[0], desk_models[1], 0.5, val.x, val.y, beta_mode="fixed-1"
    )
    calibrated = analysis.soup_vs_ensemble_approx(
        desk_models[0], desk_models[1], 0.5, val.x, val.y, beta_mode="calibrate-soup"
    )
    assert fixed.true_err_diff == calibrated.true_err_diff
    assert fixed.beta == 1.0
    assert calibrated.beta > 0.0


def test_approx_one_sided_stencil_matches_central_nearby(desk_models, desk_dataset):
    # At alpha just inside the boundary the one-sided stencil should
    # land near the central value taken at a close interior alpha.
    val = desk_dataset.splits["val"]
    edge = analysis.soup_vs_ensemble_approx(
        desk_models[0], desk_models[1], 0.01, val.x, val.y, beta_mode="fixed-1"
    )
    interior = analysis.soup_vs_ensemble_approx(
        desk_models[0], desk_models[1], 0.06, val.x, val.y, beta_mode="fixed-1"
    )
    assert edge.second_derivative_term == pytest.approx(
        interior.second_derivative_term, rel=0.5, abs=0.05
    )


def test_approx_validates_arguments(desk_models, desk_dataset):
    val = desk_dataset.splits["val"]
    with pytest.raises(ValueError):
        analysis.soup_vs_ensemble_approx(
            desk_models[0], desk_models[1], 1.5, val.x, val.y
        )
    with pytest.raises(ValueError):
        analysis.soup_vs_ensemble_approx(
            desk_models[0], desk_models[1], 0.5, val.x, val.y, beta_mode="auto"
        )


# ------------------------------------------------- exact integral identity


def test_kernel_integrates_to_quarter_of_alpha_complement():
    taus = np.linspace(0.0, 1.0, 1025)
    for alpha in (0.2, 0.5, 0.8):
        values = analysis.interpolation_kernel(taus, alpha)
        got = oracles.simpson_integral(list(values), list(taus))
        assert got == pytest.approx(alpha * (1 - alpha) / 2.0, abs=1e-6)
    assert analysis.interpolation_kernel(0.5, 0.5) == 0.25


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_integral_oracle_matches_direct_gap(perturbation_pair, seed):
    theta0, theta1 = perturbation_pair(seed)
    rng = PortableRng(seed + 2000)
    X = rng.normals(8 * 3).reshape(8, 3).astype(np.float32)
    assert analysis.relu_flip_count(theta0, theta1, X) == 0  # smooth path
    residual = analysis.integral_oracle(theta0, theta1, 0.5, X)
    gap = analysis.ensemble_minus_soup_logits(theta0, theta1, 0.5, X)
    scale = float(np.max(np.abs(gap)))
    assert float(np.max(residual)) < 1e-3 * scale + 1e-6


def test_integral_oracle_residual_shrinks_with_more_nodes(perturbation_pair):
    theta0, theta1 = perturbation_pair(7, scale=0.02)
    rng = PortableRng(77)
    X = rng.normals(6 * 3).reshape(6, 3).astype(np.float32)
    coarse = float(np.max(analysis.integral_oracle(theta0, theta1, 0.3, X, num_nodes=17)))
    fine = float(np.max(analysis.integral_oracle(theta0, theta1, 0.3, X, num_nodes=65)))
    assert fine <= coarse


def test_approx_and_integral_oracle_bytes_are_pinned(desk_base, desk_models, desk_dataset):
    # Recorded before every line point went through tensorstore.axpy.
    val = desk_dataset.splits["val"]
    records = [
        analysis.soup_vs_ensemble_approx(
            desk_base, desk_models[0], alpha, val.x, val.y, beta_mode=mode, pair_id="p", split="val"
        )
        for alpha, mode in ((0.02, "fixed-1"), (0.5, "calibrate-soup"), (0.99, "calibrate-soup"))
    ]
    assert [repr(r) for r in records] == [
        "ApproxRecord(pair_id='p', split='val', alpha=0.02, beta=1.0, "
        "approx_value=0.0075376433813723765, true_loss_diff=0.0037272597007943498, "
        "true_err_diff=0.010416666666666685, second_derivative_term=1.3437681202472793, "
        "variance_term=2.112915404060787)",
        "ApproxRecord(pair_id='p', split='val', alpha=0.5, beta=3.140197714836401, "
        "approx_value=0.020233804746984718, true_loss_diff=0.019301485079681685, "
        "true_err_diff=0.0, second_derivative_term=2.4442051012967587, "
        "variance_term=0.2642853035937443)",
        "ApproxRecord(pair_id='p', split='val', alpha=0.99, beta=2.739921269977553, "
        "approx_value=-0.0007462959106711992, true_loss_diff=0.00025947988169947034, "
        "true_err_diff=0.0, second_derivative_term=0.44482404023322697, "
        "variance_term=0.039170186072160613)",
    ]
    X = val.x[:16]
    gap = analysis.integral_oracle(desk_base, desk_models[0], 0.3, X, num_nodes=9)
    assert hashlib.sha256(gap.tobytes()).hexdigest()[:16] == "73d6ba0424e2b4d9"
    assert analysis.relu_flip_count(desk_base, desk_models[0], X, num_nodes=9) == 25


def test_integral_oracle_validates_arguments(perturbation_pair):
    theta0, theta1 = perturbation_pair(3)
    X = np.zeros((2, 3), dtype=np.float32)
    with pytest.raises(ValueError):
        analysis.integral_oracle(theta0, theta1, 1.2, X)
    with pytest.raises(ValueError):
        analysis.integral_oracle(theta0, theta1, 0.5, X, num_nodes=16)


@given(
    widths=st.lists(st.integers(min_value=1, max_value=8), min_size=3, max_size=5),
    rows=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32),
    scale=st.sampled_from([0.01, 0.1, 1.0]),
    num_nodes=st.integers(min_value=2, max_value=9),
)
@settings(max_examples=40, deadline=None)
def test_relu_flip_count_matches_states_recomputed_afresh(widths, rows, seed, scale, num_nodes):
    rng = PortableRng(seed)
    arrays0, arrays1 = {}, {}
    for i in range(len(widths) - 1):
        fi, fo = widths[i], widths[i + 1]
        names = [(f"layer{i}.weight", (fi, fo)), (f"layer{i}.bias", (fo,))]
        if i < len(widths) - 2:
            names.append((f"layer{i}.gain", (fo,)))  # gains of mixed sign
        for name, shape in names:
            size = int(np.prod(shape))
            arrays0[name] = rng.normals(size).reshape(shape)
            arrays1[name] = arrays0[name] + scale * rng.normals(size).reshape(shape)
    X = rng.normals(rows * widths[0]).reshape(rows, widths[0])
    nodes = oracles.relu_states_afresh(arrays0, arrays1, X, num_nodes)
    expected = sum(
        int(np.any([states[k] != nodes[0][k] for states in nodes], axis=0).sum())
        for k in range(len(nodes[0]))
    )
    got = analysis.relu_flip_count(as_params(arrays0), as_params(arrays1), X, num_nodes)
    assert got == expected


@pytest.mark.parametrize("num_nodes", [0, 1])
def test_relu_flip_count_needs_both_ends_of_the_segment(perturbation_pair, num_nodes):
    theta0, theta1 = perturbation_pair(3)
    X = np.zeros((2, 3), dtype=np.float32)
    with pytest.raises(ValueError, match="num_nodes must be >= 2"):
        analysis.relu_flip_count(theta0, theta1, X, num_nodes=num_nodes)


# --------------------------------------------------------- scatter report


def _two_pair_setup(desk_models):
    return [
        analysis.PairSpec("a", desk_models[0], desk_models[1], learning_rate=0.02),
        analysis.PairSpec("b", desk_models[1], desk_models[2], learning_rate=0.01),
        analysis.PairSpec("c", desk_models[2], desk_models[4], learning_rate=0.01),
    ]


def test_report_row_count_and_order(desk_models, desk_dataset):
    val, test = desk_dataset.splits["val"], desk_dataset.splits["test"]
    pairs = _two_pair_setup(desk_models)
    report = analysis.approx_validation_report(
        pairs,
        alpha_grid=[0.0, 0.5, 1.0],
        splits={"val": (val.x, val.y), "test": (test.x, test.y)},
        beta_mode="fixed-1",
    )
    assert len(report.records) == 3 * 3 * 2
    assert [r.pair_id for r in report.records[:6]] == ["a"] * 6
    assert all(r.beta == 1.0 for r in report.records)


# The default grid, and one with probe points a rounding apart: 0.35 and
# 0.35000000000000003, -0.0 and 0.0, and 0.39999999999999997 and 0.4.
TENTHS = [i / 10 for i in range(11)]
NEAR_TIES = [-0.0, 0.0, 0.3, 0.35, 0.35000000000000003, 0.4, 1.0]


@pytest.mark.parametrize("beta_mode", analysis.BETA_MODES)
@pytest.mark.parametrize("alphas", [TENTHS, NEAR_TIES], ids=["tenths", "near-ties"])
def test_report_equals_forwarding_every_probe_afresh(desk_models, desk_dataset, alphas, beta_mode):
    val, test = desk_dataset.splits["val"], desk_dataset.splits["test"]
    pairs = _two_pair_setup(desk_models)[:2]
    splits = {"val": (val.x, val.y), "test": (test.x, test.y)}
    report = analysis.approx_validation_report(pairs, alphas, splits, beta_mode)
    want = oracles.approx_records_afresh(pairs, alphas, splits, beta_mode)
    assert repr(report.records) == repr(want)  # repr tells -0.0 from 0.0


def test_line_points_drop_each_point_after_its_last_stencil(desk_models, desk_dataset):
    val = desk_dataset.splits["val"]
    p0, _, delta = analysis._segment(desk_models[0], desk_models[1])
    line = analysis._LinePoints(p0, delta, val.x, TENTHS)
    held = []
    for alpha in TENTHS:
        for a in analysis._stencil(alpha):
            line.take(a)
        held.append(len(line._logits))
    # Seven points are shared by neighbours, e.g. 0.25 by alphas 0.2 and 0.3;
    # 0.35 (from 0.3) and 0.35000000000000003 (from 0.4) are not.
    assert held == [2, 1, 1, 0, 1, 0, 0, 1, 0, 1, 0]


def test_report_excludes_highest_learning_rate(desk_models, desk_dataset):
    val = desk_dataset.splits["val"]
    pairs = _two_pair_setup(desk_models)
    report = analysis.approx_validation_report(
        pairs, [0.5], {"val": (val.x, val.y)}, beta_mode="fixed-1"
    )
    assert report.excluded_learning_rate == 0.02
    assert report.summary_all.count == 3
    assert report.summary_excluding_highest_lr.count == 2
    kept = {r.pair_id for r in report.records if r.pair_id != "a"}
    assert kept == {"b", "c"}


def test_report_with_every_pair_at_the_top_rate_summarizes_no_record_without_it(
    desk_models, desk_dataset
):
    val = desk_dataset.splits["val"]
    pairs = [analysis.PairSpec(pair_id, desk_models[0], desk_models[i], learning_rate=0.02)
             for pair_id, i in (("a", 1), ("b", 2))]
    report = analysis.approx_validation_report(
        pairs, [0.5], {"val": (val.x, val.y)}, beta_mode="fixed-1"
    )
    assert report.excluded_learning_rate == 0.02
    assert report.summary_all.count == 2
    assert report.summary_excluding_highest_lr == analysis.ApproxSummary(
        pearson=None, sign_agreement=None, count=0, degenerate=True
    )


def test_report_identical_pairs_flagged_degenerate(desk_models, desk_dataset):
    val = desk_dataset.splits["val"]
    m = desk_models[0]
    pairs = [
        analysis.PairSpec("p", m, m),
        analysis.PairSpec("q", m, m),
    ]
    report = analysis.approx_validation_report(pairs, [0.25, 0.75], {"val": (val.x, val.y)})
    assert all(r.approx_value == 0.0 for r in report.records)
    assert report.summary_all.pearson is None
    assert report.summary_all.degenerate
    assert report.excluded_learning_rate is None


def test_report_requires_two_pairs_and_unique_ids(desk_models, desk_dataset):
    val = desk_dataset.splits["val"]
    with pytest.raises(ValueError):
        analysis.approx_validation_report(
            [analysis.PairSpec("a", desk_models[0], desk_models[1])],
            [0.5],
            {"val": (val.x, val.y)},
        )
    with pytest.raises(ValueError):
        analysis.approx_validation_report(
            [
                analysis.PairSpec("a", desk_models[0], desk_models[1]),
                analysis.PairSpec("a", desk_models[1], desk_models[2]),
            ],
            [0.5],
            {"val": (val.x, val.y)},
        )


def test_approx_csv_round_trip(tmp_path, desk_models, desk_dataset):
    val = desk_dataset.splits["val"]
    pairs = _two_pair_setup(desk_models)
    report = analysis.approx_validation_report(
        pairs, [0.25, 0.5], {"val": (val.x, val.y)}, beta_mode="fixed-1"
    )
    path = tmp_path / "approx.csv"
    analysis.write_approx_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# beta_mode=fixed-1")
    header = (
        "pair,split,alpha,beta,approx_value,true_loss_diff,true_err_diff,"
        "second_derivative_term,variance_term"
    )
    assert lines[1] == header
    assert len(lines) == 2 + len(report.records)
    row = lines[2].split(",")
    assert row[0] == report.records[0].pair_id
    assert float(row[2]) == report.records[0].alpha
    assert float(row[4]) == report.records[0].approx_value  # repr round-trip


# -------------------------------------------------------------- interp rows


def test_interpolation_curve_endpoints_match_evaluate(desk_base, desk_models, desk_dataset):
    val = desk_dataset.splits["val"]
    rows = analysis.interpolation_curve(
        desk_base, desk_models[0], [0.0, 0.5, 1.0], {"val": (val.x, val.y)}
    )
    assert len(rows) == 3
    assert rows[0]["loss"] == evaluate(desk_base, val.x, val.y).loss
    assert rows[2]["loss"] == evaluate(desk_models[0], val.x, val.y).loss


def test_interpolation_curve_rejects_bad_alpha(desk_base, desk_models, desk_dataset):
    val = desk_dataset.splits["val"]
    with pytest.raises(ValueError):
        analysis.interpolation_curve(
            desk_base, desk_models[0], [1.5], {"val": (val.x, val.y)}
        )


def test_curve_csv(tmp_path, desk_base, desk_models, desk_dataset):
    val = desk_dataset.splits["val"]
    rows = analysis.interpolation_curve(
        desk_base, desk_models[0], [0.0, 1.0], {"val": (val.x, val.y)}
    )
    path = tmp_path / "curve.csv"
    analysis.write_curve_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "alpha,split,loss,top1_error"
    assert len(lines) == 3
    assert float(lines[1].split(",")[2]) == rows[0]["loss"]
