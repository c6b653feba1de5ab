"""Weight-space merging: uniform / greedy / learned recipes, two-point mixes."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import oracles
from oracles import checkpoints_equal
from soupkit import ensembles, soups
from soupkit.errors import NonFiniteError
from soupkit.tensorstore import Checkpoint, combine, content_digest, load, serialize
from soupkit.tinynet import as_params, evaluate, forward, loss_ce


# ---------------------------------------------------------------- uniform


def test_uniform_soup_matches_manual_combine(desk_models):
    result = soups.uniform_soup(desk_models)
    k = len(desk_models)
    manual = combine([1.0 / k] * k, desk_models)
    assert checkpoints_equal(result.checkpoint, manual, check_meta=False)
    assert result.ingredient_indices == list(range(k))
    assert result.coefficients == {"all": [1.0 / k] * k}
    assert result.temperature == 1.0


def test_uniform_soup_of_one_model_is_that_model(desk_models):
    result = soups.uniform_soup(desk_models[:1])
    assert checkpoints_equal(result.checkpoint, desk_models[0], check_meta=False)


@pytest.mark.parametrize("recipe", [
    soups.uniform_soup,
    lambda models: soups.greedy_soup(models, lambda ckpt: 0.0),
    lambda models: ensembles.greedy_ensemble(models, lambda pool: 0.0),
    lambda models: soups.learned_soup(models, np.zeros((1, 2)), np.zeros(1, dtype=int)),
], ids=["uniform", "greedy-soup", "greedy-ensemble", "learned"])
def test_every_recipe_rejects_an_empty_list(recipe):
    with pytest.raises(ValueError):
        recipe([])


# ----------------------------------------------------------------- greedy

# Scripted models: model i is the i-th basis vector, so the uniform
# average of any subset has exactly that subset as its nonzero support,
# as has the member list of an ensemble, and a lookup table can score
# arbitrary subsets deterministically.


def _basis_models(k):
    return [
        Checkpoint.from_arrays({"w": np.eye(k, dtype=np.float32)[i]}) for i in range(k)
    ]


def _members(pooled):
    """The basis models in a soup's checkpoint or an ensemble's member list."""
    pool = [pooled] if isinstance(pooled, Checkpoint) else pooled
    return frozenset(int(i) for m in pool for i in np.flatnonzero(m["w"]))


# The one greedy recipe (soups.greedy_select) through each of its callers;
# each returns the indices it kept.
GREEDY = [
    pytest.param(lambda models, score: soups.greedy_soup(models, score).ingredient_indices,
                 id="soup"),
    pytest.param(ensembles.greedy_ensemble, id="ensemble"),
]


@pytest.mark.parametrize("greedy", GREEDY)
def test_greedy_recipe_rejects_then_accepts_equal_score(greedy):
    # Visit order 0, 1, 2, 3 (1 before 2: equal individual scores keep
    # input order).  [0,1] drops accuracy -> rejected; [0,2] matches the
    # running best exactly -> accepted (>= keeps); [0,2,3] drops -> out.
    table = {
        frozenset({0}): 0.9,
        frozenset({1}): 0.8,
        frozenset({2}): 0.8,
        frozenset({3}): 0.1,
        frozenset({0, 1}): 0.85,
        frozenset({0, 2}): 0.9,
        frozenset({0, 2, 3}): 0.7,
    }
    kept = greedy(_basis_models(4), lambda pooled: table[_members(pooled)])
    assert kept == [0, 2]
    expected = oracles.greedy_pool_oracle(
        lambda idx: table[frozenset(idx)], [0.9, 0.8, 0.8, 0.1]
    )
    assert kept == expected


@pytest.mark.parametrize("greedy", GREEDY)
def test_greedy_recipe_keeps_first_candidate_even_at_zero_accuracy(greedy):
    table = {
        frozenset({0}): 0.0,
        frozenset({1}): 0.0,
        frozenset({2}): 0.0,
        frozenset({0, 1}): 0.0,
        frozenset({0, 1, 2}): 0.0,
    }
    kept = greedy(_basis_models(3), lambda pooled: table[_members(pooled)])
    assert kept == [0, 1, 2]  # 0 >= 0 keeps everything


@pytest.mark.parametrize("greedy", GREEDY)
@pytest.mark.parametrize("multiplier", [31, 37, 41, 43])
def test_greedy_recipe_matches_control_flow_oracle(multiplier, greedy):
    # Deterministic pseudo-random subset scores, identical on both sides.
    def subset_acc(indices):
        return ((multiplier * sum(7**i for i in indices)) % 97) / 97.0

    k = 6
    kept = greedy(_basis_models(k), lambda pooled: subset_acc(sorted(_members(pooled))))
    individual = [subset_acc([i]) for i in range(k)]
    expected = oracles.greedy_pool_oracle(subset_acc, individual)
    assert kept == expected
    # Recipe guarantee: pooled score never drops below the best single model.
    assert subset_acc(sorted(kept)) >= max(individual)


def test_greedy_soup_beats_best_individual_on_trained_models(desk_models, desk_dataset):
    val = desk_dataset.splits["val"]
    scorer = soups.accuracy_fn(val.x, val.y)
    result = soups.greedy_soup(desk_models, scorer)
    best_single = max(scorer(m) for m in desk_models)
    assert scorer(result.checkpoint) >= best_single


def test_greedy_soup_is_deterministic(desk_models, desk_dataset):
    val = desk_dataset.splits["val"]
    scorer = soups.accuracy_fn(val.x, val.y)
    a = soups.greedy_soup(desk_models, scorer)
    b = soups.greedy_soup(desk_models, scorer)
    assert a.ingredient_indices == b.ingredient_indices
    assert checkpoints_equal(a.checkpoint, b.checkpoint)


def test_greedy_soup_combines_once_per_pooled_score_and_once_for_the_soup(
    desk_models, desk_dataset, monkeypatch
):
    combines, scores = [], []
    original = soups.combine

    def counted(coeffs, ckpts):
        combines.append(len(ckpts))
        return original(coeffs, ckpts)

    val = desk_dataset.splits["val"]
    accuracy = soups.accuracy_fn(val.x, val.y)

    def score(ckpt):
        scores.append(ckpt)
        return accuracy(ckpt)

    monkeypatch.setattr(soups, "combine", counted)
    result = soups.greedy_soup(desk_models, score)
    monkeypatch.undo()
    k = len(desk_models)
    # Each model alone and the first visited pool are scored as the model
    # itself; the other k - 1 pools and the soup each take one combine.
    assert len(scores) == 2 * k
    assert len(combines) == k and combines[-1] == len(result.ingredient_indices)

    kept = result.ingredient_indices
    uniform = soups.uniform_soup([desk_models[i] for i in kept]).checkpoint
    expected_meta = {**uniform.meta, "soup.kind": "greedy",
                     "soup.ingredients": ",".join(str(i) for i in kept)}
    assert list(result.checkpoint.meta.items()) == list(expected_meta.items())
    uniform.meta = expected_meta
    assert serialize(result.checkpoint) == serialize(uniform)
    assert result.coefficients == {"all": [1.0 / len(kept)] * len(kept)}


# ---------------------------------------------------------------- learned


def _replay_learned_soup(models, X, y, by_layer):
    """Independent replay: finite-difference gradients + hand Adam steps."""
    params_list = [as_params(m) for m in models]
    names = list(params_list[0])
    if by_layer:
        groups = {}
        for name in names:
            groups.setdefault(name.split(".", 1)[0] + ".", []).append(name)
    else:
        groups = {"all": list(names)}
    keys = list(groups) + ["b"]
    k = len(models)

    def np_softmax(v):
        e = np.exp(v - v.max())
        return e / e.sum()

    def objective(raw):
        mixed = {}
        for g, members in groups.items():
            alpha = np_softmax(raw[g])
            for name in members:
                mixed[name] = sum(alpha[i] * params_list[i][name] for i in range(k))
        logits = forward({name: mixed[name] for name in names}, X)
        return loss_ce(logits, y, 0.0, math.exp(raw["b"][0]))

    def fd_grad(raw, h=1e-5):
        grads = {}
        for key in keys:
            g = np.zeros_like(raw[key])
            for j in range(raw[key].size):
                probe = {kk: vv.copy() for kk, vv in raw.items()}
                probe[key][j] = raw[key][j] + h
                up = objective(probe)
                probe[key][j] = raw[key][j] - h
                down = objective(probe)
                g[j] = (up - down) / (2.0 * h)
            grads[key] = g
        return grads

    raw = {g: np.zeros(k) for g in groups}
    raw["b"] = np.zeros(1)
    m = {key: np.zeros_like(raw[key]) for key in keys}
    v = {key: np.zeros_like(raw[key]) for key in keys}
    trace = []
    for t in range(1, 4):
        trace.append(objective(raw))
        grads = fd_grad(raw)
        for key in keys:
            g = grads[key]
            m[key] = 0.9 * m[key] + 0.1 * g
            v[key] = 0.999 * v[key] + 0.001 * g * g
            raw[key] -= 0.1 * (m[key] / (1 - 0.9**t)) / (
                np.sqrt(v[key] / (1 - 0.999**t)) + 1e-8
            )
    trace.append(objective(raw))
    coeffs = {g: np_softmax(raw[g]) for g in groups}
    return coeffs, math.exp(raw["b"][0]), trace


@pytest.mark.parametrize("by_layer", [False, True])
def test_learned_soup_matches_finite_difference_replay(desk_models, desk_dataset, by_layer):
    val = desk_dataset.splits["val"]
    result = soups.learned_soup(desk_models, val.x, val.y, by_layer=by_layer)
    coeffs, beta, trace = _replay_learned_soup(desk_models, val.x, val.y, by_layer)
    assert set(result.coefficients) == set(coeffs)
    for g, expected in coeffs.items():
        np.testing.assert_allclose(result.coefficients[g], expected, atol=5e-4)
    assert result.temperature == pytest.approx(beta, rel=5e-4)
    assert result.loss_trace == pytest.approx(trace, abs=1e-5)


def test_learned_soup_starts_from_uniform_mix_at_unit_scale(desk_models, desk_dataset):
    val = desk_dataset.splits["val"]
    result = soups.learned_soup(desk_models, val.x, val.y)
    uniform = soups.uniform_soup(desk_models)
    baseline = loss_ce(forward(uniform.checkpoint, val.x), val.y)
    # Same point up to the uniform soup's float32 rounding.
    assert result.loss_trace[0] == pytest.approx(baseline, abs=1e-5)


def test_learned_soup_does_not_end_above_its_start(desk_models, desk_dataset):
    val = desk_dataset.splits["val"]
    result = soups.learned_soup(desk_models, val.x, val.y)
    assert result.loss_trace[-1] <= result.loss_trace[0] + 1e-9
    assert len(result.loss_trace) == 4  # initial point plus three steps


def test_learned_soup_by_layer_has_per_layer_simplices(desk_models, desk_dataset):
    val = desk_dataset.splits["val"]
    result = soups.learned_soup(desk_models, val.x, val.y, by_layer=True)
    assert set(result.coefficients) == {"layer0.", "layer1."}
    for coeffs in result.coefficients.values():
        assert len(coeffs) == len(desk_models)
        assert sum(coeffs) == pytest.approx(1.0, abs=1e-12)
        assert all(c > 0.0 for c in coeffs)
    assert result.temperature > 0.0


def test_learned_soup_checkpoint_matches_coefficients(desk_models, desk_dataset):
    val = desk_dataset.splits["val"]
    result = soups.learned_soup(desk_models, val.x, val.y)
    manual = combine(result.coefficients["all"], desk_models)
    assert checkpoints_equal(result.checkpoint, manual, check_meta=False)


def test_learned_soup_is_deterministic(desk_models, desk_dataset):
    val = desk_dataset.splits["val"]
    a = soups.learned_soup(desk_models, val.x, val.y, by_layer=True)
    b = soups.learned_soup(desk_models, val.x, val.y, by_layer=True)
    assert checkpoints_equal(a.checkpoint, b.checkpoint)
    assert a.coefficients == b.coefficients
    assert a.temperature == b.temperature
    assert a.loss_trace == b.loss_trace


PINNED_LEARNED = {
    False: (
        "fca52c87efa83635",
        {"all": [0.2741039495039893, 0.15051341370864002, 0.1507023175174375,
                 0.27417299519686217, 0.15050732407307094]},
        "1.3479565079288531",
    ),
    True: (
        "23555f257e9d8b56",
        {
            "layer0.": [0.27413704248450893, 0.150494707915994, 0.15066330191154106,
                        0.27421071475306025, 0.15049423293489578],
            "layer1.": [0.274058618761402, 0.15054133482459078, 0.15075494397913378,
                        0.2741191212493626, 0.1505259811855109],
        },
        "1.3479565375249853",
    ),
}


@pytest.mark.parametrize("by_layer", [False, True])
def test_learned_soup_bytes_are_pinned(desk_models, desk_dataset, by_layer):
    # Recorded before the mix became one coefficient row per model.
    val = desk_dataset.splits["val"]
    result = soups.learned_soup(desk_models, val.x, val.y, by_layer=by_layer)
    digest, coefficients, temperature = PINNED_LEARNED[by_layer]
    assert content_digest(result.checkpoint) == digest
    assert result.coefficients == coefficients
    assert repr(result.temperature) == temperature


# ------------------------------------------------------------------ curve


def test_two_point_combine_endpoints_are_bitwise_inputs(desk_base, desk_models):
    # The WiSE-FT curve (1 - a) * theta0 + a * theta1 is combine([1 - a, a], ...).
    theta0, theta1 = desk_base, desk_models[0]
    curve = [combine([1.0 - a, a], [theta0, theta1]) for a in (0.0, 0.5, 1.0)]
    assert checkpoints_equal(curve[0], theta0, check_meta=False)
    assert checkpoints_equal(curve[2], theta1, check_meta=False)
    midpoint = combine([0.5, 0.5], [theta0, theta1])
    assert checkpoints_equal(curve[1], midpoint, check_meta=False)


# ------------------------------------------------------------ persistence


def test_save_soup_writes_checkpoint_and_sidecar(tmp_path, desk_models, desk_dataset):
    val = desk_dataset.splits["val"]
    result = soups.learned_soup(desk_models, val.x, val.y)
    path = tmp_path / "soup.ckpt"
    soups.save_soup(result, path)

    loaded = load(path)
    assert checkpoints_equal(loaded, result.checkpoint)

    sidecar = json.loads((tmp_path / "soup.ckpt.soup.json").read_text())
    assert sidecar["digest"] == content_digest(loaded)
    assert sidecar["ingredient_indices"] == result.ingredient_indices
    assert sidecar["coefficients"] == result.coefficients
    assert sidecar["temperature"] == result.temperature
    assert sidecar["loss_trace"] == result.loss_trace


def test_save_soup_sidecar_omits_missing_trace(tmp_path, desk_models):
    result = soups.uniform_soup(desk_models)
    path = tmp_path / "uniform.ckpt"
    soups.save_soup(result, path)
    sidecar = json.loads((tmp_path / "uniform.ckpt.soup.json").read_text())
    assert "loss_trace" not in sidecar
    assert sidecar["temperature"] == 1.0


def test_save_soup_with_a_non_finite_recipe_writes_nothing(tmp_path, desk_models):
    result = soups.uniform_soup(desk_models)
    result.loss_trace = [0.5, math.nan]
    with pytest.raises(NonFiniteError):
        soups.save_soup(result, tmp_path / "soup.ckpt")
    assert list(tmp_path.iterdir()) == []


def test_soup_metadata_records_recipe(desk_models, desk_dataset):
    val = desk_dataset.splits["val"]
    uniform = soups.uniform_soup(desk_models)
    greedy = soups.greedy_soup(desk_models, soups.accuracy_fn(val.x, val.y))
    learned = soups.learned_soup(desk_models, val.x, val.y)
    # combine is arithmetic only: the uniform soup writes its recipe, first.
    assert combine([0.2] * 5, desk_models).meta == {}
    assert list(uniform.checkpoint.meta.items()) == [
        ("recipe", "combine"),
        ("recipe.coeffs", "0.2,0.2,0.2,0.2,0.2"),
        ("recipe.inputs", ",".join(content_digest(m) for m in desk_models)),
        ("role", "soup"), ("soup.kind", "uniform"), ("soup.size", "5"),
    ]
    assert list(greedy.checkpoint.meta) == [*uniform.checkpoint.meta, "soup.ingredients"]
    assert greedy.checkpoint.meta["soup.kind"] == "greedy"
    assert learned.checkpoint.meta["soup.kind"] == "learned"
    assert greedy.checkpoint.meta["recipe.inputs"] == ",".join(
        content_digest(desk_models[i]) for i in greedy.ingredient_indices
    )
    assert greedy.checkpoint.meta["soup.ingredients"] == ",".join(
        str(i) for i in greedy.ingredient_indices
    )


def test_evaluate_accepts_soup_checkpoint(desk_models, desk_dataset):
    # Merged checkpoints flow through evaluation exactly like trained ones.
    test = desk_dataset.splits["test"]
    result = soups.uniform_soup(desk_models)
    report = evaluate(result.checkpoint, test.x, test.y)
    assert 0.0 <= report.top1_error <= 1.0
    assert math.isfinite(report.loss)
