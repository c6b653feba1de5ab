"""Content-digest counts: only a combination that is stored is hashed.

``count_digests`` records which checkpoint each ``tensorstore.content_digest``
call through any soupkit module hashes. ``combine`` is arithmetic only;
``uniform_soup``, whose checkpoint is the one combination a command saves,
hashes its ingredients for ``recipe.inputs``; the greedy-ensemble scorer
keys its logits by exact content and hashes nothing.
"""

from __future__ import annotations

import pytest

from soupkit import analysis, ensembles, soups, tensorstore


@pytest.fixture
def count_digests(count_calls):
    return count_calls(tensorstore, "content_digest")


def test_combine_hashes_nothing(desk_models, count_digests):
    tensorstore.combine([0.25, 0.75], desk_models[:2])
    assert count_digests == []


def test_interpolation_curve_hashes_nothing(desk_models, desk_dataset, count_digests):
    val = desk_dataset.splits["val"]
    analysis.interpolation_curve(desk_models[0], desk_models[1], [0.0, 0.5, 1.0],
                                 {"val": (val.x, val.y)})
    assert count_digests == []


def test_grid_endpoint_study_hashes_nothing(desk_models, desk_dataset, count_digests):
    test = desk_dataset.splits["test"]
    analysis.grid_endpoint_study(desk_models, test.x, test.y)
    assert count_digests == []


def test_a_soup_hashes_each_of_its_ingredients_once(desk_models, desk_dataset, count_digests):
    soups.uniform_soup(desk_models)
    assert count_digests == [id(m) for m in desk_models]
    count_digests.clear()
    val = desk_dataset.splits["val"]
    greedy = soups.greedy_soup(desk_models, soups.accuracy_fn(val.x, val.y))
    assert count_digests == [id(desk_models[i]) for i in greedy.ingredient_indices]


def test_a_greedy_ensemble_hashes_nothing(desk_models, desk_dataset, count_digests):
    val = desk_dataset.splits["val"]
    ensembles.greedy_ensemble(desk_models, ensembles.ensemble_accuracy_fn(val.x, val.y))
    assert count_digests == []
