"""Checkpoint container, file format, and weight-space arithmetic tests."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from oracles import checkpoints_equal

from soupkit.analysis import ANGLE_EXCLUDED_SUFFIXES, pair_angle
from soupkit.errors import (
    CheckpointFormatError,
    DegenerateBasisError,
    NonFiniteError,
    ShapeMismatchError,
)
from soupkit.rng import PortableRng
from soupkit.tensorstore import (
    Checkpoint,
    Params,
    as_params,
    axpy,
    combine,
    content_digest,
    deserialize,
    dot,
    load,
    save,
    serialize,
)


def _random_checkpoint(seed: int, spec=(("layer0.weight", (4, 3)), ("layer0.bias", (3,)))):
    rng = PortableRng(seed)
    arrays = {}
    for name, shape in spec:
        n = int(np.prod(shape))
        arrays[name] = rng.normals(n).reshape(shape)
    return Checkpoint.from_arrays(arrays, {"seed": str(seed)})


_finite32 = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=32
)


@st.composite
def checkpoints(draw, max_tensors=3):
    k = draw(st.integers(min_value=1, max_value=max_tensors))
    arrays = {}
    for i in range(k):
        shape = draw(hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4))
        arrays[f"t{i}"] = draw(hnp.arrays(np.float32, shape, elements=_finite32))
    meta = draw(st.dictionaries(st.text(max_size=8), st.text(max_size=8), max_size=3))
    return Checkpoint.from_arrays(arrays, meta)


# ---------------------------------------------------------------- format


def test_simple_round_trip_is_exact():
    ckpt = Checkpoint.from_arrays({"w": np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)})
    back = deserialize(serialize(ckpt))
    assert np.max(np.abs(back["w"] - ckpt["w"])) == 0.0
    assert checkpoints_equal(ckpt, back)


@given(checkpoints())
@settings(max_examples=60, deadline=None)
def test_round_trip_bitwise(ckpt):
    blob = serialize(ckpt)
    back = deserialize(blob)
    assert checkpoints_equal(ckpt, back)
    # Re-serializing the loaded checkpoint reproduces the file bytes.
    assert serialize(back) == blob


def test_file_round_trip(tmp_path):
    ckpt = _random_checkpoint(7)
    path = tmp_path / "model.ckpt"
    save(ckpt, path)
    assert checkpoints_equal(load(path), ckpt)


def test_payload_alignment():
    # Each tensor starts 64-byte aligned past the payload base; gaps hold zeros.
    ckpt = _random_checkpoint(3, (("a", (5,)), ("b", (7,)), ("c", (2, 2))))
    entries = [{"name": n, "shape": list(ckpt[n].shape), "offset": 64 * i,
                "nbytes": 4 * ckpt[n].size} for i, n in enumerate("abc")]
    payload = b"".join(ckpt[n].astype("<f4").tobytes().ljust(64, b"\0") for n in "ab")
    header = {"tensors": entries, "meta": {"seed": "3"}}
    assert serialize(ckpt) == oracles.soupckpt_bytes(header, payload + ckpt["c"].tobytes())


W = {"name": "w", "shape": [2], "offset": 0, "nbytes": 8}
VALUES = struct.pack("<2f", 1.5, -2.0)


def _file(*entries, payload=VALUES, version=1) -> bytes:
    """A file written from the format description: the valid one, whose tensor ``w``
    holds 1.5 and -2.0, or that file with other tensor entries, payload or version."""
    header = {"tensors": [*entries] or [W], "meta": {"k": "v"}}
    return oracles.soupckpt_bytes(header, payload, version)


VALID = _file()

# (file, message): one row per raise of deserialize and per error it wraps.
MALFORMED_CHECKPOINTS = {
    "shorter-than-the-magic": (VALID[:6], "file shorter than the 8-byte magic"),
    "bad-magic": (VALID[1:], r"bad magic b'OUPCKPT\\x01'"),
    "ends-after-the-magic": (VALID[:8], "file ends inside the fixed header"),
    "ends-inside-the-fixed-header": (VALID[:12], "file ends inside the fixed header"),
    "version-2": (_file(version=2), "unsupported format version 2"),
    "ends-after-the-fixed-header": (VALID[:16], "file ends inside the JSON header"),
    "ends-inside-the-json-header": (VALID[:20], "file ends inside the JSON header"),
    "header-not-json": (oracles.soupckpt_bytes(b"not json"), "header: not valid UTF-8 JSON"),
    "name-not-a-string": (_file({**W, "name": 5}), r"tensors\[0\]: name must be str, got 5"),
    "shape-not-its-bytes": (_file({**W, "shape": [3]}, payload=bytes(12)),
                            r"tensors\[0\]: tensor 'w': shape \(3,\) does not match 8 bytes"),
    "declared-twice": (_file(W, W), "tensor 'w' declared twice"),
    "payload-past-the-end": (VALID[:-4], "tensor 'w' payload extends past end of file"),
    "shape-numpy-cannot-build": (_file({**W, "shape": [0, 10**30], "nbytes": 0}, payload=b""),
                                 rf"tensor 'w': shape \(0, {10**30}\): "),
    # A stored NaN is a malformed file, not a non-finite result.
    "nan-stored": (_file(payload=struct.pack("<2f", 1.5, math.nan)),
                   "tensor 'w' contains non-finite values"),
}


@pytest.mark.parametrize("blob, message", MALFORMED_CHECKPOINTS.values(), ids=MALFORMED_CHECKPOINTS)
def test_malformed_checkpoint(blob, message):
    with pytest.raises(CheckpointFormatError, match=message) as info:
        deserialize(blob)
    assert not isinstance(info.value, NonFiniteError)


def test_a_file_written_from_the_format_description_loads():
    ckpt = deserialize(VALID)
    assert ckpt.layout.names == ("w",) and ckpt.meta == {"k": "v"}
    assert ckpt.vector.tobytes() == VALUES
    assert serialize(ckpt) == VALID


def test_meta_preserved_and_stringified():
    ckpt = Checkpoint.from_arrays({"w": np.zeros(2, np.float32)}, {"lr": "0.001", "k": "v"})
    assert deserialize(serialize(ckpt)).meta == {"lr": "0.001", "k": "v"}


def test_non_finite_rejected_on_construction():
    ok = np.zeros(2, np.float32)
    with pytest.raises(NonFiniteError, match="'w'"):
        Checkpoint.from_arrays({"a": ok, "w": np.array([1.0, np.nan], dtype=np.float32)})
    with pytest.raises(NonFiniteError, match="'w'"):
        Checkpoint.from_arrays({"w": np.array([np.inf], dtype=np.float32), "b": ok})


def test_checkpoint_and_params_share_one_layout():
    ckpt = _random_checkpoint(4)
    params = as_params(ckpt)
    assert params.layout is ckpt.layout
    assert not isinstance(ckpt, Params)
    assert ckpt.vector.dtype == np.float32 and params.vector.dtype == np.float64
    assert list(ckpt) == ["layer0.weight", "layer0.bias"]
    assert np.shares_memory(ckpt["layer0.bias"], ckpt.vector)


# ---------------------------------------------------------------- combine


def test_combine_against_scalar_oracle():
    ckpts = [_random_checkpoint(s) for s in (11, 12, 13)]
    coeffs = (0.5, 0.25, 0.25)
    got = combine(coeffs, ckpts)
    for name in ckpts[0]:
        flat = [c[name].ravel() for c in ckpts]
        for j in range(flat[0].size):
            acc = 0.0  # python float = IEEE float64
            for c, vals in zip(coeffs, flat):
                acc += c * float(vals[j])
            expected = np.float32(acc)
            assert got[name].ravel()[j] == expected


@given(
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=40, deadline=None)
def test_combine_linearity_within_one_ulp(a, b, seed):
    ckpt = _random_checkpoint(seed)
    lhs = combine([a + b], [ckpt])
    rhs = combine([1.0, 1.0], [combine([a], [ckpt]), combine([b], [ckpt])])
    for name in ckpt:
        x, y = lhs[name], rhs[name]
        base = ckpt[name].astype(np.float64)
        # Each float32 addend carries half an ulp at its own magnitude, so
        # the budget is one ulp at the largest accumulated term plus the
        # result's own quantum.
        addend = np.maximum(np.abs(a * base), np.abs(b * base)).astype(np.float32)
        tol = np.spacing(addend) + np.spacing(np.maximum(np.abs(x), np.abs(y)))
        assert np.all(np.abs(x.astype(np.float64) - y.astype(np.float64)) <= tol)


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=30, deadline=None)
def test_uniform_combine_of_identical_checkpoints(k, seed):
    ckpt = _random_checkpoint(seed)
    out = combine([1.0 / k] * k, [ckpt] * k)
    for name in ckpt:
        ref = ckpt[name].astype(np.float64)
        scale = np.maximum(np.abs(ref), 1e-12)
        assert np.all(np.abs(out[name] - ref) / scale < 1e-6)


@st.composite
def combine_inputs(draw):
    """Coefficients and 1-5 checkpoints sharing one random layout.

    Names come in a shuffled, non-sorted order; tensors may have a zero
    side, so some hold no values at all.
    """
    count = draw(st.integers(min_value=1, max_value=4))
    names = draw(st.permutations([f"t{i}" for i in range(count)]))
    shapes = [
        draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3))
        for _ in names
    ]
    k = draw(st.integers(min_value=1, max_value=5))
    coeffs = draw(st.lists(st.floats(-8.0, 8.0, allow_nan=False), min_size=k, max_size=k))
    ckpts = [
        Checkpoint.from_arrays(
            {n: draw(hnp.arrays(np.float32, s, elements=_finite32)) for n, s in zip(names, shapes)}
        )
        for _ in range(k)
    ]
    return coeffs, ckpts


@given(combine_inputs())
@settings(max_examples=80, deadline=None)
def test_combine_is_bitwise_per_tensor_float64_reference(inputs):
    coeffs, ckpts = inputs
    got = combine(coeffs, ckpts)
    want = oracles.combine_reference(coeffs, ckpts)
    assert list(got) == list(want) == list(ckpts[0])
    for name, expected in want.items():
        assert got[name].shape == expected.shape
        assert got[name].tobytes() == expected.tobytes(), name


def test_combine_bytes_are_pinned(desk_base, desk_models):
    # Digests recorded before combine moved onto the flat float64 vector.
    two = combine([1.0 - 0.3, 0.3], [desk_base, desk_models[0]])
    assert content_digest(two) == "c79fe857a5cb71ad"
    sixteen = [desk_base] + list(desk_models) * 3
    mixed = combine([(i + 1) / 136 for i in range(16)], sixteen)
    assert content_digest(mixed) == "f9513fb81799ff01"


def test_combine_structure_errors():
    a, b = _random_checkpoint(1), _random_checkpoint(2)
    with pytest.raises(ShapeMismatchError):
        combine([], [])
    with pytest.raises(ShapeMismatchError):
        combine([1.0], [a, b])
    wrong_names = Checkpoint.from_arrays({"other": np.zeros((4, 3), np.float32)})
    with pytest.raises(ShapeMismatchError):
        combine([0.5, 0.5], [a, wrong_names])
    wrong_shape = Checkpoint.from_arrays(
        {"layer0.weight": np.zeros((2, 2), np.float32), "layer0.bias": np.zeros(3, np.float32)}
    )
    with pytest.raises(ShapeMismatchError):
        combine([0.5, 0.5], [a, wrong_shape])


def test_combine_overflow_is_caught():
    big = Checkpoint.from_arrays({"w": np.full(3, 3e38, dtype=np.float32)})
    with pytest.raises(NonFiniteError):
        combine([2.0, 2.0], [big, big])


# ---------------------------------------------------------------- geometry


def test_axpy():
    base = as_params({"layer0.weight": np.ones((2, 2))})
    step = as_params({"layer0.weight": np.full((2, 2), 2.0)})
    out = axpy(base, step, 0.25)
    assert out.layout == base.layout
    assert np.allclose(out["layer0.weight"], 1.5)
    with pytest.raises(ShapeMismatchError):
        axpy(base, as_params({"layer0.weight": np.ones((2, 3))}), 0.25)
    with pytest.raises(ShapeMismatchError):
        axpy(base, as_params({"layer0.bias": np.ones((2, 2))}), 0.25)


def test_subtract_and_norm():
    a = as_params(Checkpoint.from_arrays({"w": np.array([3.0, 4.0], np.float32)}))
    b = as_params(Checkpoint.from_arrays({"w": np.array([0.0, 0.0], np.float32)}))
    d = axpy(a, b, -1.0)
    assert d["w"].tolist() == [3.0, 4.0]
    assert math.sqrt(dot(d, d)) == pytest.approx(5.0, rel=1e-7)
    assert dot(d, d) == pytest.approx(25.0, rel=1e-7)


# The angle tests run analysis.pair_angle from a zero origin, so its
# deltas theta - 0 are exactly the checkpoints given.


def _zero_like(ckpt):
    return Checkpoint(ckpt.layout, np.zeros_like(ckpt.vector), {})


def test_angle_of_orthogonal_deltas_is_90():
    d1 = Checkpoint.from_arrays({"w": np.array([1.0, 0.0, 0.0], np.float32)})
    d2 = Checkpoint.from_arrays({"w": np.array([0.0, 2.0, 0.0], np.float32)})
    assert pair_angle(_zero_like(d1), d1, d2) == pytest.approx(90.0, abs=1e-6)


def test_angle_self_and_opposite():
    d = _random_checkpoint(5)
    zero = _zero_like(d)
    assert pair_angle(zero, d, d) == pytest.approx(0.0, abs=5e-4)
    neg = combine([-1.0], [d])
    assert pair_angle(zero, d, neg) == pytest.approx(180.0, abs=5e-4)


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=30, deadline=None)
def test_angle_symmetry(s1, s2):
    d1, d2 = _random_checkpoint(s1), _random_checkpoint(s2)
    zero = _zero_like(d1)
    a = pair_angle(zero, d1, d2)
    assert a == pair_angle(zero, d2, d1)
    assert 0.0 <= a <= 180.0


def test_zero_norm_angle_is_an_error():
    zero = Checkpoint.from_arrays({"w": np.zeros(3, np.float32)})
    d = Checkpoint.from_arrays({"w": np.ones(3, np.float32)})
    with pytest.raises(DegenerateBasisError, match="zero-norm delta"):
        pair_angle(zero, zero, d)


def test_default_angle_filter_drops_gain_and_bias():
    arrays = {
        "layer0.weight": np.array([[1.0]], np.float32),
        "layer0.gain": np.array([100.0], np.float32),
        "layer0.bias": np.array([-50.0], np.float32),
    }
    d = Checkpoint.from_arrays(arrays)
    p = as_params(d)
    kept = [name for name in d if not name.endswith(ANGLE_EXCLUDED_SUFFIXES)]
    assert kept == ["layer0.weight"]
    assert "layer3.gain".endswith(ANGLE_EXCLUDED_SUFFIXES)
    assert math.sqrt(dot(p, p, kept)) == pytest.approx(1.0)
    assert math.sqrt(dot(p, p)) == pytest.approx(math.sqrt(1 + 100**2 + 50**2), rel=1e-6)
    # Only the weights differ in direction: the angle sees none of the rest.
    flipped = Checkpoint.from_arrays({**arrays, "layer0.bias": np.array([50.0], np.float32)})
    assert pair_angle(_zero_like(d), d, flipped) == pytest.approx(0.0, abs=5e-4)


def test_dot_of_two_layouts_is_a_shape_mismatch():
    a = as_params({"w": np.ones(3)})
    for other in ({"w": np.ones(4)}, {"v": np.ones(3)}, {"w": np.ones((3, 1))}):
        with pytest.raises(ShapeMismatchError, match="different names or shapes"):
            dot(a, as_params(other))


def test_dot_with_filter_matches_manual_sum():
    d1 = as_params(_random_checkpoint(31))
    d2 = as_params(_random_checkpoint(32))
    kept = [name for name in d1 if not name.endswith(ANGLE_EXCLUDED_SUFFIXES)]
    got = dot(d1, d2, kept)
    manual = float(np.dot(d1["layer0.weight"].ravel(), d2["layer0.weight"].ravel()))
    assert got == pytest.approx(manual, rel=1e-12)


def test_digest_is_content_addressed():
    a = _random_checkpoint(1)
    b = _random_checkpoint(1)
    assert content_digest(a) == content_digest(b)
    c = combine([1.0], [a])
    assert content_digest(c) == content_digest(a)  # identity combine keeps bytes
    assert content_digest(_random_checkpoint(2)) != content_digest(a)
