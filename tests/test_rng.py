"""Tests for the portable counter-mode generator.

The scalar reference below is an independent transliteration of the
published splitmix64 update equations; the vectorized generator must
reproduce it draw for draw.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soupkit.rng import PortableRng, derive_seed, mix64

_M = (1 << 64) - 1


def _scalar_mix(z: int) -> int:
    z &= _M
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M
    return z ^ (z >> 31)


def _scalar_raw(seed: int, n: int) -> list[int]:
    out = []
    s = seed & _M
    for _ in range(n):
        s = (s + 0x9E3779B97F4A7C15) & _M
        out.append(_scalar_mix(s))
    return out


# Published splitmix64 reference outputs for seed 0.
_SEED0_REFERENCE = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
]


def test_matches_published_reference_vector():
    assert _scalar_raw(0, 4) == _SEED0_REFERENCE
    assert PortableRng(0).raw(4).tolist() == _SEED0_REFERENCE


def test_frozen_uniforms_seed_42():
    expected = [
        0.7415648787718233,
        0.1599103928769201,
        0.27860113025513866,
        0.34419071652363753,
        0.03803016854024621,
        0.8682280765465323,
    ]
    got = PortableRng(42).uniforms(6)
    assert got.tolist() == expected


def test_frozen_normals_seed_42():
    got = PortableRng(42).normals(2)
    assert got[0] == pytest.approx(0.8822489062222688, abs=0, rel=1e-15)
    assert got[1] == pytest.approx(1.388473285287707, abs=0, rel=1e-15)


# Counts on both sides of the small-draw path of PortableRng.raw.
_DRAW_COUNTS = st.one_of(st.integers(0, 4), st.integers(5, 64))


@given(st.integers(min_value=0, max_value=_M), _DRAW_COUNTS, _DRAW_COUNTS)
@settings(max_examples=100)
def test_vectorized_equals_scalar(seed, prefix, n):
    rng = PortableRng(seed)
    rng.raw(prefix)
    got = rng.raw(n)
    assert got.dtype == np.uint64 and got.shape == (n,)
    assert got.tolist() == _scalar_raw(seed, prefix + n)[prefix:]


@given(st.integers(min_value=0, max_value=_M))
@settings(max_examples=50)
def test_mix64_matches_scalar_reference(seed):
    assert mix64(seed) == _scalar_mix(seed)


def test_stream_continues_across_calls():
    one = PortableRng(7)
    parts = np.concatenate([one.raw(3), one.raw(5)])
    assert parts.tolist() == PortableRng(7).raw(8).tolist()


def test_uniform_range_and_determinism():
    u = PortableRng(123).uniforms(10_000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert np.array_equal(u, PortableRng(123).uniforms(10_000))


def test_normals_consume_whole_pairs():
    a = PortableRng(9)
    a.normals(3)  # consumes two pairs = 4 raw draws
    assert a.raw(1).tolist() == PortableRng(9).raw(5)[4:].tolist()


def test_normals_moments_are_sane():
    z = PortableRng(5).normals(50_000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=200))
@settings(max_examples=50)
def test_permutation_is_a_permutation(seed, n):
    p = PortableRng(seed).permutation(n)
    assert sorted(p.tolist()) == list(range(n))


@pytest.mark.parametrize("n", [8, 4096])
def test_permutation_frozen_seed_42(n):
    # Order that stably sorts the first n raw outputs of seed 42.
    keys = _scalar_raw(42, n)
    expected = sorted(range(n), key=lambda i: keys[i])
    assert PortableRng(42).permutation(n).tolist() == expected


@pytest.mark.parametrize("n", [8, 2048])
def test_permutation_breaks_tied_keys_by_index(monkeypatch, n):
    keys = np.tile(np.array([5, 3, 9, 3], dtype=np.uint64), n // 4)
    monkeypatch.setattr(PortableRng, "raw", lambda self, count: keys[:count].copy())
    expected = sorted(range(n), key=lambda i: (int(keys[i]), i))
    assert PortableRng(0).permutation(n).tolist() == expected


def test_below_bounds():
    r = PortableRng(11)
    draws = [r.below(7) for _ in range(500)]
    assert set(draws) <= set(range(7))
    assert len(set(draws)) == 7  # all values reachable at this sample size


@given(st.floats(min_value=0.05, max_value=1.0), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=30)
def test_beta_in_unit_interval(alpha, seed):
    x = PortableRng(seed).beta(alpha, alpha)
    assert 0.0 <= x <= 1.0


def _numpy_scalar_beta(rng: PortableRng, a: float, b: float) -> float:
    """Johnk's method on the NumPy float64 scalars that uniforms() yields."""
    while True:
        u, v = rng.uniforms(2)
        x = u ** (1.0 / a)
        y = v ** (1.0 / b)
        s = x + y
        if 0.0 < s <= 1.0:
            return x / s


_SHAPES = st.floats(min_value=0.05, max_value=4.0)


# Over these shapes no pair has both powers underflow to zero, so the log-space
# finish never runs and every draw keeps the plain formula's bits.
@given(st.integers(min_value=0, max_value=_M), _SHAPES, _SHAPES)
@settings(max_examples=100, deadline=None)
def test_beta_equals_numpy_scalar_formula(seed, a, b):
    got, want = PortableRng(seed), PortableRng(seed)
    for _ in range(3):
        assert got.beta(a, b).hex() == float(_numpy_scalar_beta(want, a, b)).hex()
    assert got.raw(1).tolist() == want.raw(1).tolist()  # the same draws were consumed


@pytest.mark.parametrize("shape", [1e-7, 1e-12, 1e-300])
@pytest.mark.parametrize("seed", range(8))
def test_tiny_beta_shape_returns_after_one_pair(seed, shape):
    # Johnk's powers both underflow here, which used to reject almost every
    # pair (thousands per draw at 1e-7, growing as 1/shape).
    got, want = PortableRng(seed), PortableRng(seed)
    x = got.beta(shape, shape)
    u, v = want.uniforms(2).tolist()
    assert got.raw(1).tolist() == want.raw(1).tolist()  # exactly one pair consumed
    assert 0.0 <= x <= 1.0
    # x / (x + y) with x = u**(1/a), y = v**(1/a), as a logistic in the log ratio
    assert x == pytest.approx(1.0 / (1.0 + math.exp(min(math.log(v / u) / shape, 700.0))),
                              abs=1e-12)


def test_tiny_beta_shape_splits_mass_between_the_ends():
    r = PortableRng(4)
    xs = np.array([r.beta(1e-9, 1e-9) for _ in range(2000)])
    assert ((xs < 1e-6) | (xs > 1 - 1e-6)).all()
    assert abs(float(xs.mean()) - 0.5) < 0.05


def test_beta_symmetric_mean():
    r = PortableRng(21)
    xs = [r.beta(0.5, 0.5) for _ in range(4000)]
    assert abs(float(np.mean(xs)) - 0.5) < 0.03


def test_derive_seed_distinguishes_parts():
    s = derive_seed(42, 1, 2)
    assert s != derive_seed(42, 2, 1)
    assert s != derive_seed(42, 1)
    assert s == derive_seed(42, 1, 2)
    assert 0 <= s <= _M


def test_invalid_args():
    with pytest.raises(ValueError):
        PortableRng(0).below(0)
    with pytest.raises(ValueError):
        PortableRng(0).beta(0.0, 1.0)
    with pytest.raises(ValueError):
        PortableRng(0).raw(-1)
