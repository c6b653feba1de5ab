"""Dataset generation and CSV round-trip tests."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soupkit.datagen import Dataset, DatasetConfig, generate, load_csv, save_csv
from soupkit.errors import ConfigError, DataFormatError


def _small(**overrides) -> DatasetConfig:
    base = dict(
        input_dim=6,
        num_classes=3,
        num_train=60,
        num_val=30,
        num_test=90,
        num_shift=90,
        class_center_scale=1.0,
        within_class_std=0.5,
        shift_kind="mean-shift",
        shift_magnitude=1.0,
        seed=7,
    )
    base.update(overrides)
    return DatasetConfig(**base)


def test_default_config_is_desk_scale():
    cfg = DatasetConfig()
    assert (cfg.input_dim, cfg.num_classes) == (16, 8)
    assert (cfg.num_train, cfg.num_val, cfg.num_test, cfg.num_shift) == (4096, 512, 2048, 2048)


def test_same_seed_bitwise_identical():
    a, b = generate(_small()), generate(_small())
    for name in ("train", "val", "test", "shift"):
        assert a.splits[name].x.tobytes() == b.splits[name].x.tobytes()
        assert np.array_equal(a.splits[name].y, b.splits[name].y)


def test_different_seeds_differ():
    a, b = generate(_small(seed=1)), generate(_small(seed=2))
    assert a.train.x.tobytes() != b.train.x.tobytes()


def test_base_splits_do_not_depend_on_shift_kind():
    by_kind = {
        kind: generate(_small(shift_kind=kind, shift_magnitude=0.8))
        for kind in ("mean-shift", "noise-inflation", "rotation")
    }
    ref = by_kind["mean-shift"]
    for ds in by_kind.values():
        for name in ("train", "val", "test"):
            assert ds.splits[name].x.tobytes() == ref.splits[name].x.tobytes()


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=2, max_value=7))
@settings(max_examples=20, deadline=None)
def test_label_balance_within_one(seed, num_classes):
    ds = generate(_small(seed=seed, num_classes=num_classes, num_train=50, num_val=17,
                         num_test=23, num_shift=11))
    for split in ds.splits.values():
        counts = np.bincount(split.y, minlength=num_classes)
        assert counts.max() - counts.min() <= 1


def test_split_sizes_and_dtypes():
    ds = generate(_small())
    assert ds.train.x.shape == (60, 6) and ds.train.x.dtype == np.float32
    assert ds.val.x.shape == (30, 6)
    assert ds.test.x.shape == (90, 6)
    assert ds.shift.x.shape == (90, 6)
    assert ds.train.y.dtype == np.int64


def test_mean_shift_displacement_measured_from_data():
    # With zero within-class noise every example sits exactly on its
    # (possibly displaced) center, so the displacement is measurable.
    m = 1.25
    ds = generate(_small(within_class_std=0.0, shift_kind="mean-shift", shift_magnitude=m,
                         num_test=30, num_shift=30))
    for c in range(3):
        test_pt = ds.test.x[ds.test.y == c][0].astype(np.float64)
        shift_pt = ds.shift.x[ds.shift.y == c][0].astype(np.float64)
        displacement = np.linalg.norm(shift_pt - test_pt)
        assert displacement == pytest.approx(m, abs=1e-6)


def test_a_shift_direction_of_zero_norm_shifts_along_the_first_axis():
    # mix64(0) == 0, so this seed makes raw draw 10 exactly 0.  The class
    # centers and the one-row train, val and test splits take draws 0-9, so
    # the mean-shift direction's two normals are 0.0 and -0.0: no direction.
    seed = (-11 * 0x9E3779B97F4A7C15) % 2**64
    cfg = dict(input_dim=2, num_classes=2, num_train=1, num_val=1, num_test=1, num_shift=1,
               shift_kind="mean-shift", seed=seed)
    assert seed == 3719345503411677977
    shifted = generate(DatasetConfig(**cfg, shift_magnitude=1.5)).shift
    unshifted = generate(DatasetConfig(**cfg, shift_magnitude=0.0)).shift
    offset = shifted.x.astype(np.float64) - unshifted.x
    assert offset[0, 0] == pytest.approx(1.5, abs=1e-6)
    assert offset[0, 1] == 0.0


def test_zero_magnitude_matches_test_distribution_parameters():
    for kind in ("mean-shift", "noise-inflation", "rotation"):
        ds = generate(_small(within_class_std=0.0, shift_kind=kind, shift_magnitude=0.0,
                             num_test=30, num_shift=30))
        # Same centers exactly: identical per-class support points.
        for c in range(3):
            assert np.array_equal(
                ds.test.x[ds.test.y == c][0], ds.shift.x[ds.shift.y == c][0]
            )


def test_noise_inflation_std_ratio():
    m = 0.75
    ds = generate(
        _small(
            num_test=6000,
            num_shift=6000,
            within_class_std=1.0,
            shift_kind="noise-inflation",
            shift_magnitude=m,
            class_center_scale=0.0,  # all classes centered at 0: pure noise
        )
    )
    ratio = ds.shift.x.std() / ds.test.x.std()
    assert ratio == pytest.approx(1.0 + m, rel=0.05)


def test_rotation_preserves_norms():
    ds = generate(_small(within_class_std=0.0, shift_kind="rotation", shift_magnitude=0.9,
                         num_test=30, num_shift=30))
    for c in range(3):
        n_test = np.linalg.norm(ds.test.x[ds.test.y == c][0].astype(np.float64))
        n_shift = np.linalg.norm(ds.shift.x[ds.shift.y == c][0].astype(np.float64))
        assert n_shift == pytest.approx(n_test, rel=1e-5)
    # and genuinely moves the points
    assert not np.allclose(ds.shift.x[:3], ds.test.x[:3])


def test_config_validation():
    with pytest.raises(ConfigError):
        generate(_small(num_classes=1))
    with pytest.raises(ConfigError):
        generate(_small(shift_kind="bogus"))
    with pytest.raises(ConfigError):
        generate(_small(within_class_std=-1.0))
    with pytest.raises(ConfigError):
        generate(_small(input_dim=0))
    with pytest.raises(ConfigError):
        generate(_small(shift_magnitude=-0.5))
    with pytest.raises(ConfigError):
        generate(_small(num_val=0))


# ------------------------------------------------------------------ CSV


def test_csv_round_trip_lossless(tmp_path):
    ds = generate(_small(num_train=1000, seed=99))
    save_csv(ds, tmp_path / "data")
    back = load_csv(tmp_path / "data")
    for name in ("train", "val", "test", "shift"):
        assert np.max(np.abs(back.splits[name].x - ds.splits[name].x)) == 0.0
        assert np.array_equal(back.splits[name].y, ds.splits[name].y)
    assert back.config == ds.config


def test_csv_header_format(tmp_path):
    ds = generate(_small())
    save_csv(ds, tmp_path)
    first = (tmp_path / "train.csv").read_text().splitlines()[0]
    assert first == "label," + ",".join(f"f{i}" for i in range(6))


def test_one_example_dataset_round_trips(tmp_path):
    cfg = _small(num_train=1, num_val=1, num_test=1, num_shift=1)
    ds = generate(cfg)
    save_csv(ds, tmp_path)
    back = load_csv(tmp_path)
    assert np.array_equal(back.train.x, ds.train.x)
    assert len(back.train) == 1


def _row(row: int, text: str):
    """A split edit that replaces row ``row`` (0 is the header) with ``text``."""
    def edit(raw: bytes) -> bytes:
        lines = raw.splitlines()
        lines[row] = text.encode()
        return b"\n".join(lines) + b"\n"
    return edit


# (file, edit of its bytes or None to remove it, message): one row per raise of
# load_csv and _parse_split and for the config.json decode. The edits apply to a
# saved _small() dataset: 6 features, 3 classes.
MALFORMED_DATASETS = {
    "config-not-a-generator-config": ("config.json", lambda _: b'{"bogus_key": 1}',
                                      r"config\.json: unknown keys \['bogus_key'\]"),
    "split-file-missing": ("shift.csv", None, r"missing split file .*shift\.csv"),
    "split-not-utf8": ("val.csv", lambda raw: b"\xff" + raw, r"val\.csv: not valid UTF-8"),
    "no-header": ("train.csv", lambda raw: raw.partition(b"\n")[2],
                  r"train\.csv: missing 'label,f0,\.\.\.' header"),
    "header-without-rows": ("test.csv", lambda raw: raw.partition(b"\n")[0],
                            r"test\.csv: no rows after the header"),
    "width-not-input-dim": ("config.json",
                            lambda raw: raw.replace(b'"input_dim": 6', b'"input_dim": 5'),
                            r"train\.csv: 6 features, config input_dim 5"),
    "row-missing-a-feature": ("val.csv", _row(1, "0,1,2,3,4,5"),
                              r"val\.csv: row 1 has 5 features, expected 6"),
    "cell-not-numeric": ("val.csv", _row(1, "0,1,x,3,4,5,6"),
                         r"val\.csv: row 1 is not numeric: .*'x'"),
    **{f"label-{label}": ("val.csv", _row(1, f"{label},1,2,3,4,5,6"),
                          rf"val\.csv: row 1 label {label} out of range") for label in ("3", "-1")},
    # 1e39 is finite in float64 but overflows the float32 the splits hold.
    **{f"value-{value}": ("test.csv", _row(3, f"2,1,2,3,{value},5,6"),
                          r"test\.csv: row 3 has a value that is not finite in float32")
       for value in ("nan", "-inf", "1e39")},
}


@pytest.mark.parametrize("name, edit, message", MALFORMED_DATASETS.values(), ids=MALFORMED_DATASETS)
def test_malformed_dataset(tmp_path, name, edit, message):
    save_csv(generate(_small()), tmp_path)
    path = tmp_path / name
    if edit is None:
        path.unlink()
    else:
        path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(DataFormatError, match=message):
        load_csv(tmp_path)


def test_dataset_config_is_frozen():
    cfg = _small()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 1  # type: ignore[misc]
