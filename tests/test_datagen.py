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


def test_malformed_row_rejected(tmp_path):
    ds = generate(_small())
    save_csv(ds, tmp_path)
    path = tmp_path / "val.csv"
    lines = path.read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0]  # drop a feature
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError):
        load_csv(tmp_path)


def test_non_numeric_row_rejected(tmp_path):
    ds = generate(_small())
    save_csv(ds, tmp_path)
    path = tmp_path / "val.csv"
    lines = path.read_text().splitlines()
    parts = lines[1].split(",")
    parts[2] = "not-a-number"
    lines[1] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError):
        load_csv(tmp_path)


def test_label_out_of_range_rejected(tmp_path):
    ds = generate(_small())
    save_csv(ds, tmp_path)
    path = tmp_path / "val.csv"
    lines = path.read_text().splitlines()
    parts = lines[1].split(",")
    parts[0] = "3"  # num_classes is 3, valid labels are 0..2
    lines[1] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError):
        load_csv(tmp_path)
    parts[0] = "-1"
    lines[1] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError):
        load_csv(tmp_path)


@pytest.mark.parametrize("value", ["nan", "-inf", "1e39"])
def test_non_finite_value_rejected_with_file_and_row(tmp_path, value):
    # 1e39 is finite in float64 but overflows the float32 the splits hold.
    ds = generate(_small())
    save_csv(ds, tmp_path)
    path = tmp_path / "test.csv"
    lines = path.read_text().splitlines()
    parts = lines[3].split(",")
    parts[4] = value
    lines[3] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match=r"test\.csv: row 3 "):
        load_csv(tmp_path)


def test_missing_split_file_rejected(tmp_path):
    ds = generate(_small())
    save_csv(ds, tmp_path)
    (tmp_path / "shift.csv").unlink()
    with pytest.raises(DataFormatError):
        load_csv(tmp_path)


def test_missing_header_rejected(tmp_path):
    ds = generate(_small())
    save_csv(ds, tmp_path)
    path = tmp_path / "train.csv"
    body = path.read_text().splitlines()[1:]
    path.write_text("\n".join(body) + "\n")
    with pytest.raises(DataFormatError):
        load_csv(tmp_path)


def test_dataset_config_is_frozen():
    cfg = _small()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 1  # type: ignore[misc]
