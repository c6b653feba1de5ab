"""Logit ensembles, temperature fitting, equal-mass calibration error."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from soupkit import ensembles, soups
from soupkit.rng import PortableRng
from soupkit.tinynet import forward, loss_ce


# --------------------------------------------------------- logit ensemble


def test_logit_ensemble_uniform_is_mean_of_forwards(desk_models, desk_dataset):
    X = desk_dataset.splits["test"].x
    out = ensembles.logit_ensemble(desk_models, X)
    stacked = np.stack([forward(m, X) for m in desk_models])
    np.testing.assert_allclose(out, stacked.mean(axis=0), rtol=0, atol=1e-12)


def test_logit_ensemble_sums_scaled_logits_left_to_right(desk_models, desk_dataset):
    X = desk_dataset.splits["test"].x[:16]
    three = desk_models[:3]
    manual = (1.0 / 3) * forward(three[0], X)
    for model in three[1:]:
        manual = manual + (1.0 / 3) * forward(model, X)
    np.testing.assert_array_equal(ensembles.logit_ensemble(three, X), manual)


def test_logit_ensemble_of_identical_models_matches_single(desk_models, desk_dataset):
    X = desk_dataset.splits["test"].x[:16]
    out = ensembles.logit_ensemble([desk_models[0]] * 3, X)
    np.testing.assert_allclose(out, forward(desk_models[0], X), rtol=0, atol=1e-12)


def test_logit_ensemble_validates_inputs(desk_models, desk_dataset):
    X = desk_dataset.splits["test"].x[:4]
    with pytest.raises(ValueError):
        ensembles.logit_ensemble([], X)


# --------------------------------------------------------- greedy members


def _subset_scorer_table(table):
    """Score a member list through a frozenset-keyed table.

    The members carry a marker tensor (basis vectors) so the scripted
    scorer can recover which models were passed in.
    """

    def score(members):
        idx = frozenset(
            int(np.flatnonzero(m["w"])[0]) for m in members
        )
        return table[idx]

    return score


def _basis_models(k):
    from soupkit.tensorstore import Checkpoint

    return [
        Checkpoint.from_arrays({"w": np.eye(k, dtype=np.float32)[i]}) for i in range(k)
    ]


def test_greedy_ensemble_follows_same_recipe_as_greedy_soup():
    table = {
        frozenset({0}): 0.9,
        frozenset({1}): 0.8,
        frozenset({2}): 0.8,
        frozenset({3}): 0.1,
        frozenset({0, 1}): 0.85,
        frozenset({0, 2}): 0.9,
        frozenset({0, 2, 3}): 0.7,
    }
    members = ensembles.greedy_ensemble(_basis_models(4), _subset_scorer_table(table))
    assert members == [0, 2]
    expected = oracles.greedy_pool_oracle(
        lambda idx: table[frozenset(idx)], [0.9, 0.8, 0.8, 0.1]
    )
    assert members == expected


def test_greedy_ensemble_on_trained_models_beats_best_individual(
    desk_models, desk_dataset
):
    val = desk_dataset.splits["val"]
    scorer = ensembles.ensemble_accuracy_fn(val.x, val.y)
    members = ensembles.greedy_ensemble(desk_models, scorer)
    assert members  # never empty: the best single model always enters
    pooled = scorer([desk_models[i] for i in members])
    best_single = max(scorer([m]) for m in desk_models)
    assert pooled >= best_single


# ------------------------------------------------------ temperature fitting


def _random_logits_labels(seed, n=200, c=5, scale=3.0):
    rng = np.random.default_rng(seed)
    logits = scale * rng.standard_normal((n, c))
    # Labels correlated with the logits so scaling has signal.
    labels = np.where(rng.random(n) < 0.7, np.argmax(logits, axis=1), rng.integers(0, c, n))
    return logits, labels


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fit_temperature_matches_dense_grid_search(seed):
    logits, labels = _random_logits_labels(seed)
    fit = ensembles.fit_temperature(logits, labels)
    grid = np.exp(np.linspace(math.log(0.05), math.log(20.0), 4001))
    grid_nll = [loss_ce(logits, labels, 0.0, b) for b in grid]
    assert fit.nll <= min(grid_nll) + 1e-6
    assert fit.nll == pytest.approx(loss_ce(logits, labels, 0.0, fit.beta), abs=1e-12)
    assert not fit.degenerate


@pytest.mark.parametrize("seed", [3, 4])
def test_fit_temperature_scale_invariance(seed):
    # Scaling logits by c moves the optimal beta to beta / c.
    logits, labels = _random_logits_labels(seed, scale=2.0)
    base = ensembles.fit_temperature(logits, labels)
    halved = ensembles.fit_temperature(2.0 * logits, labels)
    if 0.06 < base.beta < 19.0 and not base.degenerate:  # interior optimum
        assert halved.beta == pytest.approx(base.beta / 2.0, rel=2e-3)


def test_fit_temperature_never_increases_nll_on_fit_split():
    rng = np.random.default_rng(9)
    for trial in range(5):
        logits = rng.standard_normal((64, 4))
        labels = rng.integers(0, 4, 64)
        fit = ensembles.fit_temperature(logits, labels)
        assert fit.nll <= loss_ce(logits, labels, 0.0, 1.0) + 1e-15


def test_fit_temperature_flat_objective_flags_degenerate():
    logits = np.zeros((32, 3))
    labels = np.zeros(32, dtype=np.int64)
    fit = ensembles.fit_temperature(logits, labels)
    assert fit.degenerate
    assert fit.beta == 1.0
    assert fit.nll == pytest.approx(math.log(3.0), abs=1e-12)


def test_fit_temperature_stays_inside_bracket():
    # Perfectly separable: NLL decreases as beta grows, so the search
    # runs into the upper edge of the bracket instead of diverging.
    labels = np.arange(4) % 2
    logits = np.where(np.eye(2)[labels] > 0, 5.0, -5.0)
    fit = ensembles.fit_temperature(logits, labels)
    assert 0.05 <= fit.beta <= 20.0
    assert fit.beta > 15.0


def _pinned_fit_inputs():
    rng = PortableRng(2203)
    logits = 2.5 * rng.normals(300 * 8).reshape(300, 8)
    noise = rng.uniforms(300)
    labels = np.where(noise < 0.6, np.argmax(logits, axis=1), np.arange(300) % 8)
    return logits, labels


@pytest.mark.parametrize(
    "case, want",
    [
        ("8-class", ("0.5373752465222571", "1.525669537778083", False)),
        ("3-class-float32", ("0.12104652585373625", "1.0695341906101439", False)),
        ("flat", ("1.0", "1.3862943611198906", True)),
    ],
)
def test_fit_temperature_pinned_values(case, want):
    # Recorded with the one-hot product-sum NLL and the C-order max shift.
    logits, labels = _pinned_fit_inputs()
    if case == "3-class-float32":
        logits, labels = logits[:, :3].astype(np.float32), labels % 3
    elif case == "flat":
        logits, labels = np.zeros((16, 4)), np.arange(16) % 4
    fit = ensembles.fit_temperature(logits, labels)
    assert (repr(fit.beta), repr(fit.nll), fit.degenerate) == want


@st.composite
def _fit_cases(draw):
    """(logits, labels): seeded normal logits, some cells set to ties, signed
    zeros or subnormals, so the max shift is both generic and degenerate."""
    rows = draw(st.integers(min_value=1, max_value=40))
    classes = draw(st.integers(min_value=2, max_value=9))
    scale = draw(st.sampled_from([0.1, 1.0, 10.0, 30.0]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    logits = scale * rng.standard_normal((rows, classes))
    specials = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-310, -1e-310])
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, classes - 1), specials)
    for row, col, value in draw(st.lists(cells, max_size=2 * rows)):
        logits[row, col] = value
    labels = draw(st.lists(st.integers(0, classes - 1), min_size=rows, max_size=rows))
    return logits, np.array(labels)


@given(_fit_cases())
@settings(max_examples=150, deadline=None)
def test_fit_temperature_nll_bitwise_matches_product_sum_oracle(case):
    # The oracle takes the C-order max of beta * logits and sums one-hot
    # products; the fit gathers the label log-probabilities.
    logits, labels = case
    fit = ensembles.fit_temperature(logits, labels)
    want = oracles.cross_entropy_product_sum(logits, labels, 0.0, fit.beta)
    assert np.float64(fit.nll).tobytes() == np.float64(want).tobytes(), (fit, want)


@pytest.mark.parametrize(
    "labels",
    [np.array([0, -1, 2]), np.array([0, 3, 1]), np.array([[0, 1, 2]]), np.array([0, 1])],
    ids=["negative", "too-large", "two-d", "count-mismatch"],
)
def test_fit_temperature_rejects_bad_labels(labels):
    logits = np.arange(9.0).reshape(3, 3)
    with pytest.raises(ValueError):
        ensembles.fit_temperature(logits, labels)


# ----------------------------------------------------------- equal-mass ECE


def test_ece_hand_example_even_bins():
    # Sorted: 0.4(hit) 0.6(miss) | 0.8(hit) 1.0(miss)
    # bin1: conf .5 acc .5 -> 0; bin2: conf .9 acc .5 -> .4; ece = .5*.4
    conf = [1.0, 0.8, 0.6, 0.4]
    correct = [0, 1, 0, 1]
    assert ensembles.ece_equal_mass(conf, correct, num_bins=2) == pytest.approx(
        0.2, abs=1e-15
    )


def test_ece_hand_example_uneven_bins():
    # n=5, 2 bins -> sizes 3 and 2.  Sorted: .3(miss) .5(hit) .7(hit) | .9(miss) 1.0(hit)
    # bin1: conf .5 acc 2/3 -> 1/6; bin2: conf .95 acc .5 -> .45
    # ece = (3/5)(1/6) + (2/5)(.45) = 0.1 + 0.18 = 0.28
    conf = [0.5, 0.9, 0.7, 0.3, 1.0]
    correct = [1, 0, 1, 0, 1]
    assert ensembles.ece_equal_mass(conf, correct, num_bins=2) == pytest.approx(
        0.28, abs=1e-15
    )


def test_ece_perfectly_calibrated_is_zero():
    conf = np.ones(10)
    correct = np.ones(10)
    assert ensembles.ece_equal_mass(conf, correct, num_bins=5) == 0.0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            st.booleans(),
        ),
        min_size=1,
        max_size=40,
    ),
    st.integers(min_value=1, max_value=10),
)
def test_ece_matches_plain_python_oracle(pairs, num_bins):
    conf = [c for c, _ in pairs]
    correct = [1.0 if ok else 0.0 for _, ok in pairs]
    got = ensembles.ece_equal_mass(np.array(conf), np.array(correct), num_bins)
    want = oracles.ece_equal_mass_oracle(conf, correct, num_bins)
    assert got == pytest.approx(want, abs=1e-12)


def test_ece_more_bins_than_points_uses_singletons():
    conf = [0.8, 0.6]
    correct = [1, 0]
    # Singleton bins: each contributes (1/2)|acc - conf|.
    want = 0.5 * abs(1 - 0.8) + 0.5 * abs(0 - 0.6)
    assert ensembles.ece_equal_mass(conf, correct, num_bins=10) == pytest.approx(want)


def test_ece_validates_inputs():
    with pytest.raises(ValueError):
        ensembles.ece_equal_mass(np.array([]), np.array([]), num_bins=3)
    with pytest.raises(ValueError):
        ensembles.ece_equal_mass(np.array([0.5]), np.array([1.0]), num_bins=0)
    with pytest.raises(ValueError):
        ensembles.ece_equal_mass(np.array([0.5, 0.6]), np.array([1.0]), num_bins=1)


def test_equal_mass_bins_sizes_differ_by_at_most_one():
    rng = np.random.default_rng(3)
    conf = rng.random(103)
    correct = rng.integers(0, 2, 103)
    bins = ensembles.equal_mass_bins(conf, correct, num_bins=15)
    sizes = [b.count for b in bins]
    assert sum(sizes) == 103
    assert max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("n", [0, 1, 103])
def test_more_bins_than_predictions_give_one_prediction_per_bin(n):
    rng = np.random.default_rng(4)
    conf, correct = rng.random(n), rng.integers(0, 2, n)
    bins = ensembles.equal_mass_bins(conf, correct, num_bins=n + 500)
    assert bins == ensembles.equal_mass_bins(conf, correct, num_bins=max(n, 1))
    assert [b.count for b in bins] == [1] * n


def test_confidences_use_first_index_on_ties():
    logits = np.array([[1.0, 1.0, 0.0]])
    conf, correct = ensembles.confidences_and_correct(logits, np.array([0]))
    assert correct[0] == 1.0  # argmax tie resolves to class 0
    conf2, correct2 = ensembles.confidences_and_correct(logits, np.array([1]))
    assert correct2[0] == 0.0


# ------------------------------------------------------------- full report


def test_calibration_report_never_hurts_nll_on_fit_split(desk_models, desk_dataset):
    val = desk_dataset.splits["val"]
    logits = ensembles.logit_ensemble(desk_models, val.x)
    report = ensembles.calibration_report(logits, val.y, logits, val.y)
    assert report.nll_after <= report.nll_before + 1e-15
    assert len(report.bins_before) <= 15
    assert len(report.bins_after) <= 15


def test_calibration_report_fits_on_one_split_reports_on_another(
    desk_models, desk_dataset
):
    val, test = desk_dataset.splits["val"], desk_dataset.splits["test"]
    fit_logits = ensembles.logit_ensemble(desk_models, val.x)
    eval_logits = ensembles.logit_ensemble(desk_models, test.x)
    report = ensembles.calibration_report(fit_logits, val.y, eval_logits, test.y)
    assert report.nll_before == pytest.approx(loss_ce(eval_logits, test.y), abs=1e-12)
    assert report.nll_after == pytest.approx(
        loss_ce(eval_logits, test.y, 0.0, report.beta), abs=1e-12
    )


def test_calibration_csv_round_trip(tmp_path, desk_models, desk_dataset):
    val = desk_dataset.splits["val"]
    logits = ensembles.logit_ensemble(desk_models, val.x)
    report = ensembles.calibration_report(logits, val.y, logits, val.y)
    path = tmp_path / "calibration.csv"
    ensembles.write_calibration_csv(report, path)

    lines = path.read_text().splitlines()
    assert lines[0].startswith("# beta=")
    assert repr(report.beta) in lines[0]
    assert lines[1] == "stage,bin,count,mean_confidence,accuracy"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == len(report.bins_before) + len(report.bins_after)
    before_rows = [r for r in rows if r[0] == "before"]
    got = [(int(r[2]), float(r[3]), float(r[4])) for r in before_rows]
    want = [(b.count, b.mean_confidence, b.accuracy) for b in report.bins_before]
    assert got == want  # repr round-trips floats exactly


def test_evaluate_with_calibration_fills_all_fields(desk_models, desk_dataset):
    test = desk_dataset.splits["test"]
    soup = soups.uniform_soup(desk_models).checkpoint
    plain = ensembles.evaluate_with_calibration(soup, test.x, test.y)
    assert plain.calibrated_loss == pytest.approx(plain.loss, abs=1e-15)
    assert plain.ece is not None and 0.0 <= plain.ece <= 1.0

    scaled = ensembles.evaluate_with_calibration(soup, test.x, test.y, beta=0.5)
    assert scaled.loss == plain.loss  # unscaled loss unchanged
    assert scaled.calibrated_loss == pytest.approx(
        loss_ce(forward(soup, test.x), test.y, 0.0, 0.5), abs=1e-12
    )
    assert scaled.top1_error == plain.top1_error  # scaling preserves argmax
