"""Optimizer steps, training-loop determinism, and sweep manifest tests."""

from __future__ import annotations

import json
import math
import threading
import tracemalloc

import numpy as np
import pytest

from oracles import checkpoints_equal
from soupkit import trainer
from soupkit.datagen import Dataset, DatasetConfig, Split, generate
from soupkit.errors import ConfigError, DivergenceError, NonFiniteError, ShapeMismatchError
from soupkit.fileio import sha256
from soupkit.rng import PortableRng
from soupkit.schema import decode
from soupkit.tensorstore import content_digest, load, serialize
from soupkit.tinynet import ArchSpec, check_fits_data, evaluate, forward, init_checkpoint
from soupkit.trainer import (
    AdamState,
    HyperConfig,
    SearchSpace,
    adamw_step,
    cosine_lr,
    effective_workers,
    finetune,
    load_manifest,
    mixup_batch,
    pretrain,
    random_search_configs,
    run_sweep,
    sgd_step,
)


@pytest.fixture(scope="module")
def small_data():
    cfg = DatasetConfig(
        input_dim=6, num_classes=3, num_train=96, num_val=48, num_test=60, num_shift=60,
        class_center_scale=1.3, within_class_std=0.8, shift_kind="mean-shift",
        shift_magnitude=1.0, seed=5,
    )
    return generate(cfg)


ARCH = ArchSpec((6, 10, 3))


def _fast(**overrides) -> HyperConfig:
    base = dict(learning_rate=3e-3, weight_decay=1e-4, epochs=2, batch_size=16, seed=3)
    base.update(overrides)
    return HyperConfig(**base)


# ------------------------------------------------------------- optimizers


def test_sgd_step_hand_computed():
    params = np.array([1.0, -2.0])
    grads = np.array([0.5, 0.25])
    sgd_step(params, grads, lr=0.1, weight_decay=0.2)
    # w - lr*(g + wd*w): [1 - 0.1*(0.5+0.2), -2 - 0.1*(0.25-0.4)]
    assert params.tolist() == pytest.approx([0.93, -1.985], abs=1e-15)


def test_adamw_first_step_hand_computed():
    params = np.array([1.0])
    grads = np.array([0.5])
    state = AdamState.zeros_like(params)
    adamw_step(params, grads, state, lr=0.1, weight_decay=0.0)
    # bias-corrected m_hat = g, v_hat = g^2, so the step is lr*g/(|g|+eps)
    expected = 1.0 - 0.1 * (0.5 / (0.5 + 1e-8))
    assert params[0] == pytest.approx(expected, rel=1e-15)
    assert state.t == 1
    assert state.m[0] == pytest.approx(0.1 * 0.5, rel=1e-15)
    assert state.v[0] == pytest.approx(0.001 * 0.25, rel=1e-12)


def test_adamw_decoupled_decay():
    params = np.array([2.0])
    grads = np.array([0.0])
    state = AdamState.zeros_like(params)
    adamw_step(params, grads, state, lr=0.1, weight_decay=0.05)
    # zero gradient: only the decay term lr*wd*w moves the weight
    assert params[0] == pytest.approx(2.0 - 0.1 * 0.05 * 2.0, rel=1e-15)


def test_adamw_two_steps_match_manual_recurrence():
    params = np.array([1.0])
    state = AdamState.zeros_like(params)
    g1, g2, lr = 0.3, -0.2, 0.05
    adamw_step(params, np.array([g1]), state, lr, 0.0)
    adamw_step(params, np.array([g2]), state, lr, 0.0)
    m1 = 0.1 * g1
    v1 = 0.001 * g1 * g1
    w = 1.0 - lr * ((m1 / 0.1) / (math.sqrt(v1 / 0.001) + 1e-8))
    m2 = 0.9 * m1 + 0.1 * g2
    v2 = 0.999 * v1 + 0.001 * g2 * g2
    bc1 = 1 - 0.9**2
    bc2 = 1 - 0.999**2
    w -= lr * ((m2 / bc1) / (math.sqrt(v2 / bc2) + 1e-8))
    assert params[0] == pytest.approx(w, rel=1e-14)


def test_cosine_schedule_endpoints():
    assert cosine_lr(0.3, 0, 100) == 0.3
    assert cosine_lr(0.3, 100, 100) == pytest.approx(0.0, abs=1e-17)
    assert cosine_lr(0.3, 50, 100) == pytest.approx(0.15, rel=1e-12)


# ------------------------------------------------------------- mixup


def test_mixup_alpha_zero_is_identity():
    rng = PortableRng(0)
    X = np.arange(12.0).reshape(4, 3)
    T = np.eye(4)[:, :3]
    X2, T2 = mixup_batch(X, T, 0.0, rng)
    assert X2 is X and T2 is T
    assert rng.raw(1).tolist() == PortableRng(0).raw(1).tolist()  # no draw consumed


def test_mixup_blends_rows():
    rng = PortableRng(8)
    X = np.array([[0.0], [10.0], [20.0], [30.0]])
    T = np.eye(4)
    X2, T2 = mixup_batch(X, T, 0.4, rng)
    assert X2.shape == X.shape
    assert np.allclose(T2.sum(axis=1), 1.0)
    assert np.all(T2 >= 0)
    # every blended input is a convex combination of original rows
    assert X2.min() >= X.min() and X2.max() <= X.max()
    # deterministic
    X3, T3 = mixup_batch(X, T, 0.4, PortableRng(8))
    assert np.array_equal(X2, X3) and np.array_equal(T2, T3)


# ------------------------------------------------------------- training


def test_pretrain_reduces_training_loss(small_data):
    ckpt = pretrain(ARCH, small_data, _fast(epochs=4))
    assert float(ckpt.meta["train_loss_final"]) < float(ckpt.meta["train_loss_initial"])
    assert ckpt.meta["role"] == "pretrain"


def test_zero_lr_returns_init_unchanged(small_data):
    cfg = _fast(learning_rate=0.0, weight_decay=0.0, epochs=1, seed=17)
    ckpt = pretrain(ARCH, small_data, cfg)
    init = init_checkpoint(ARCH, 17)
    assert checkpoints_equal(ckpt, init, check_meta=False)


def test_finetune_bitwise_reproducible(small_data):
    theta0 = pretrain(ARCH, small_data, _fast())
    h = _fast(seed=9, mixup_alpha=0.3, input_noise_std=0.2, label_smoothing=0.05,
              ema_decay=0.99)
    a = finetune(theta0, h, small_data)
    b = finetune(theta0, h, small_data)
    assert serialize(a.checkpoint) == serialize(b.checkpoint)
    assert serialize(a.ema) == serialize(b.ema)


def test_seed_changes_result(small_data):
    theta0 = pretrain(ARCH, small_data, _fast())
    a = finetune(theta0, _fast(seed=1), small_data)
    b = finetune(theta0, _fast(seed=2), small_data)
    assert not checkpoints_equal(a.checkpoint, b.checkpoint, check_meta=False)


def test_recorded_val_accuracy_matches_reevaluation(small_data):
    theta0 = pretrain(ARCH, small_data, _fast())
    result = finetune(theta0, _fast(), small_data)
    recorded = float(result.checkpoint.meta["val_accuracy"])
    recomputed = evaluate(result.checkpoint, small_data.val.x, small_data.val.y).accuracy
    assert recorded == recomputed  # exact, not approximate


def test_ema_decay_zero_equals_final_weights(small_data):
    theta0 = pretrain(ARCH, small_data, _fast())
    result = finetune(theta0, _fast(ema_decay=0.0), small_data)
    assert checkpoints_equal(result.checkpoint, result.ema, check_meta=False)


def test_ema_decay_one_equals_theta0(small_data):
    theta0 = pretrain(ARCH, small_data, _fast())
    result = finetune(theta0, _fast(ema_decay=1.0), small_data)
    assert checkpoints_equal(result.ema, theta0, check_meta=False)
    assert not checkpoints_equal(result.checkpoint, theta0, check_meta=False)


def test_ema_interpolates(small_data):
    theta0 = pretrain(ARCH, small_data, _fast())
    result = finetune(theta0, _fast(ema_decay=0.95), small_data)
    assert not checkpoints_equal(result.ema, result.checkpoint, check_meta=False)
    assert not checkpoints_equal(result.ema, theta0, check_meta=False)


def test_sam_zero_rho_is_exactly_vanilla(small_data):
    # Identical weights bit for bit; meta differs only in the recorded config.
    theta0 = pretrain(ARCH, small_data, _fast())
    vanilla = finetune(theta0, _fast(sam_rho=None), small_data)
    zero = finetune(theta0, _fast(sam_rho=0.0), small_data)
    assert checkpoints_equal(vanilla.checkpoint, zero.checkpoint, check_meta=False)


def test_sam_skips_the_ascent_when_the_gradient_is_zero(small_data, monkeypatch):
    # A zero gradient has no direction to ascend along; dividing by its norm
    # would make every weight NaN and end the fine-tune in DivergenceError.
    real_grad64 = trainer.grad64

    def zero_grad64(params, X, targets, out):
        loss, grad, logits = real_grad64(params, X, targets, out=out)
        out.vector[:] = 0.0
        return loss, grad, logits

    monkeypatch.setattr(trainer, "grad64", zero_grad64)
    theta0 = init_checkpoint(ARCH, 0)
    sam = finetune(theta0, _fast(sam_rho=0.05), small_data)
    vanilla = finetune(theta0, _fast(sam_rho=None), small_data)
    assert checkpoints_equal(sam.checkpoint, vanilla.checkpoint, check_meta=False)


def test_sam_positive_rho_changes_and_reproduces(small_data):
    theta0 = pretrain(ARCH, small_data, _fast())
    sam = finetune(theta0, _fast(sam_rho=0.05), small_data)
    vanilla = finetune(theta0, _fast(), small_data)
    assert not checkpoints_equal(sam.checkpoint, vanilla.checkpoint, check_meta=False)
    again = finetune(theta0, _fast(sam_rho=0.05), small_data)
    assert serialize(sam.checkpoint) == serialize(again.checkpoint)


def test_sgd_training_runs(small_data):
    theta0 = pretrain(ARCH, small_data, _fast())
    result = finetune(theta0, _fast(optimizer="sgd", learning_rate=0.05), small_data)
    meta = result.checkpoint.meta
    assert float(meta["train_loss_final"]) < float(meta["train_loss_initial"])


def test_partial_final_batch(small_data):
    theta0 = pretrain(ARCH, small_data, _fast())
    h = _fast(batch_size=36)  # 96 = 2*36 + 24: final batch is partial
    a = finetune(theta0, h, small_data)
    b = finetune(theta0, h, small_data)
    assert serialize(a.checkpoint) == serialize(b.checkpoint)


@pytest.mark.parametrize("hyper, loss", [
    (dict(optimizer="sgd", learning_rate=1e8, weight_decay=0.1, epochs=12), "training"),
    # SAM's ascent step of 1e200 overflows the logits; the loss at the weights stays finite.
    (dict(sam_rho=1e200), "perturbed"),
], ids=["training-loss", "sam-perturbed-loss"])
def test_divergence_raises_with_step_number(small_data, hyper, loss):
    theta0 = pretrain(ARCH, small_data, _fast())
    with pytest.raises(DivergenceError, match=rf"^non-finite {loss} loss at step \d+$"):
        finetune(theta0, _fast(**hyper), small_data)


# Content digests recorded from an earlier, per-tensor implementation of
# the optimizers, EMA and SAM: any change to the training arithmetic that
# alters a single output bit fails here.
PINNED_BASE_DIGEST = "bf39d34d16be8ec1"
PINNED_FINETUNES = [
    (
        dict(seed=9, mixup_alpha=0.3, input_noise_std=0.2, label_smoothing=0.05, ema_decay=0.9),
        "491f201c0cd8401c",
        "e77877c70ecf5463",
    ),
    (dict(sam_rho=0.05, batch_size=36), "15a4eec604e786ac", None),
    (dict(optimizer="sgd", schedule="constant", learning_rate=0.05), "2dce496b15a015b7", None),
]


# content_digest hashes no meta, so these digests of the serialized files
# (theta0, then each fine-tune above and its EMA) pin every checkpoint's
# train_loss_initial, train_loss_final and val_accuracy as well.
PINNED_FILE_DIGESTS = [
    "2791b698644ffbb7",
    "e759841a2c3ce343",
    "06c5245885565eb3",
    "16eb0cc6e945d8f0",
    "cb285117f2b827a9",
]


@pytest.fixture
def no_blas_thread_calls(monkeypatch):
    """Training as on a NumPy whose BLAS is not an OpenBLAS: the thread-count lookup finds nothing."""
    monkeypatch.setattr(trainer, "_BLAS_THREAD_SYMBOLS", (("no_such_get", "no_such_set"),))
    trainer._blas_thread_calls.cache_clear()
    assert trainer._blas_thread_calls() is None
    yield
    trainer._blas_thread_calls.cache_clear()


@pytest.mark.parametrize("blas", ["openblas", "no-thread-calls"])
def test_training_bytes_are_pinned(small_data, blas, request):
    if blas == "no-thread-calls":
        request.getfixturevalue("no_blas_thread_calls")
    theta0 = pretrain(ARCH, small_data, _fast())
    assert content_digest(theta0) == PINNED_BASE_DIGEST
    files = [theta0]
    for overrides, want, want_ema in PINNED_FINETUNES:
        result = finetune(theta0, _fast(**overrides), small_data)
        assert content_digest(result.checkpoint) == want, overrides
        ema = None if result.ema is None else content_digest(result.ema)
        assert ema == want_ema, overrides
        files += [c for c in (result.checkpoint, result.ema) if c is not None]
    assert [sha256(serialize(c)).hexdigest()[:16] for c in files] == PINNED_FILE_DIGESTS


def test_training_runs_on_one_blas_thread_and_restores_the_callers_count(
    small_data, monkeypatch
):
    calls = trainer._blas_thread_calls()
    if calls is None:
        pytest.skip("NumPy's BLAS exposes no OpenBLAS thread count")
    get, set_ = calls
    seen = []

    def recording(fn):
        def call(*args, **kwargs):
            seen.append((fn.__name__, get()))
            return fn(*args, **kwargs)
        return call

    for name in ("forward", "grad64", "evaluate"):
        monkeypatch.setattr(trainer, name, recording(getattr(trainer, name)))
    caller = get()
    set_(2)
    try:
        theta0 = pretrain(ARCH, small_data, _fast())
        assert get() == 2
        finetune(theta0, _fast(), small_data)
        assert get() == 2
        with pytest.raises(DivergenceError):
            finetune(theta0, _fast(sam_rho=1e200), small_data)
        assert get() == 2
    finally:
        set_(caller)
    assert {name for name, _ in seen} == {"forward", "grad64", "evaluate"}
    assert {threads for _, threads in seen} == {1}


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("overrides", [
    {},
    dict(mixup_alpha=0.3, input_noise_std=0.1, label_smoothing=0.1, ema_decay=0.9, sam_rho=0.05),
], ids=["plain", "every-option"])
def test_finetune_peak_memory_is_one_forward_plus_the_training_copy(overrides):
    # The epoch buffers (gathered inputs and targets, about twice the float64
    # copy here) are freed before the final loss forward over the training
    # set and built only after the first, so neither forward runs with them.
    data = generate(DatasetConfig(num_train=4096, num_val=64, num_test=1, num_shift=1))
    theta0 = init_checkpoint(ArchSpec((16, 64, 64, 8)), 0)
    h = HyperConfig(epochs=1, **overrides)
    forward_peak = _traced_peak(lambda: forward(theta0, data.train.x))
    finetune_peak = _traced_peak(lambda: finetune(theta0, h, data))
    bound = data.train.x.astype(np.float64).nbytes + 256 * 1024
    assert finetune_peak - forward_peak <= bound


# ------------------------------------------------------------- config


def test_hyperconfig_validation():
    with pytest.raises(ConfigError):
        HyperConfig(learning_rate=-1)
    with pytest.raises(ConfigError):
        HyperConfig(epochs=0)
    with pytest.raises(ConfigError):
        HyperConfig(optimizer="lbfgs")
    with pytest.raises(ConfigError):
        HyperConfig(schedule="linear")
    with pytest.raises(ConfigError):
        HyperConfig(label_smoothing=1.0)
    with pytest.raises(ConfigError):
        HyperConfig(ema_decay=1.5)
    with pytest.raises(ConfigError):
        HyperConfig(sam_rho=-0.1)


def test_mixup_alpha_is_capped_where_the_beta_sampler_still_returns():
    HyperConfig(mixup_alpha=trainer.MIXUP_ALPHA_MAX)
    SearchSpace(mixup_max=trainer.MIXUP_ALPHA_MAX)
    with pytest.raises(ConfigError, match="mixup_alpha"):
        HyperConfig(mixup_alpha=20.0)
    with pytest.raises(ConfigError, match="mixup_max"):
        SearchSpace(mixup_max=4.5)


def test_sweep_with_a_tiny_mixup_alpha_finishes(small_data, tmp_path):
    # Each mixup batch draws one Beta(alpha, alpha); at 1e-10 Johnk's powers
    # underflow on nearly every pair, which once stalled each draw for minutes.
    theta0 = pretrain(ARCH, small_data, _fast())
    manifest = run_sweep(theta0, [_fast(seed=4, mixup_alpha=1e-10)], small_data, tmp_path)
    (entry,) = manifest.entries
    assert entry.error is None and entry.val_accuracy is not None


def test_decode_rejects_unknown_hyperparameter_keys():
    with pytest.raises(ConfigError, match="unknown"):
        decode(HyperConfig, {"learning_rate": 0.1, "momentum": 0.9}, "pretrain")


def test_hyperconfig_digest_stable():
    a = HyperConfig(seed=1)
    b = HyperConfig(seed=1)
    assert a.digest() == b.digest()
    assert a.digest() != HyperConfig(seed=2).digest()


# ------------------------------------------------------------- search


def test_random_search_ranges_and_determinism():
    configs = random_search_configs(64, master_seed=11)
    again = random_search_configs(64, master_seed=11)
    assert configs == again
    for h in configs:
        assert 10.0**-4 <= h.learning_rate <= 10.0**-1.5
        assert 10.0**-4 <= h.weight_decay <= 10.0**-0.2
        assert 4 <= h.epochs <= 16
        assert 0.0 <= h.label_smoothing <= 0.25
        assert 0.0 <= h.mixup_alpha <= 0.9
        assert h.input_noise_std == 0.0
    zero_smoothing = sum(1 for h in configs if h.label_smoothing == 0.0)
    assert 16 <= zero_smoothing <= 48  # coin lands near half
    seeds = {h.seed for h in configs}
    assert len(seeds) == 64


def test_random_search_epoch_coverage():
    epochs = {h.epochs for h in random_search_configs(300, master_seed=3)}
    assert epochs == set(range(4, 17))


def test_random_search_noise_range_opt_in():
    space = SearchSpace(noise_std_max=0.5)
    configs = random_search_configs(40, master_seed=7, space=space)
    assert any(h.input_noise_std > 0 for h in configs)
    assert all(0.0 <= h.input_noise_std <= 0.5 for h in configs)


# ------------------------------------------------------------- sweeps


def test_run_sweep_manifest_round_trip(small_data, tmp_path):
    theta0 = pretrain(ARCH, small_data, _fast())
    bomb = _fast(optimizer="sgd", learning_rate=1e8, weight_decay=0.1, epochs=12)
    configs = [_fast(seed=1), _fast(seed=2, ema_decay=0.9), bomb]
    manifest = run_sweep(theta0, configs, small_data, tmp_path / "sweep")
    assert len(manifest.successful()) == 2
    for entry in manifest.successful():
        ckpt = load(manifest.checkpoint_path(entry))
        report = evaluate(ckpt, small_data.val.x, small_data.val.y)
        assert entry.val_accuracy == report.accuracy  # exact
    assert manifest.entries[1].ema_path is not None
    assert manifest.entries[2].error is not None
    # Whole records, every field: the writer and SweepEntry stay in step.
    back = load_manifest(tmp_path / "sweep" / "manifest.json")
    assert back.theta0_digest == manifest.theta0_digest
    assert back.entries == manifest.entries
    assert [e.config for e in back.entries] == configs


def test_run_sweep_parallel_matches_sequential(small_data, tmp_path):
    theta0 = pretrain(ARCH, small_data, _fast())
    configs = [_fast(seed=s) for s in (1, 2, 3, 4)]
    seq = run_sweep(theta0, configs, small_data, tmp_path / "seq", max_workers=1)
    par = run_sweep(theta0, configs, small_data, tmp_path / "par", max_workers=4)
    assert (tmp_path / "seq" / "manifest.json").read_text() == (
        tmp_path / "par" / "manifest.json"
    ).read_text()
    for a, b in zip(seq.entries, par.entries):
        assert (tmp_path / "seq" / a.path).read_bytes() == (tmp_path / "par" / b.path).read_bytes()


def test_run_sweep_trains_one_config_at_a_time_on_the_calling_thread(
    small_data, tmp_path, monkeypatch
):
    theta0 = pretrain(ARCH, small_data, _fast())
    callers = set()
    real_grad64 = trainer.grad64

    def recording_grad64(*args, **kwargs):
        callers.add(threading.get_ident())
        return real_grad64(*args, **kwargs)

    monkeypatch.setattr(trainer, "grad64", recording_grad64)
    configs = [_fast(seed=s) for s in range(1, 5)]
    manifest = run_sweep(theta0, configs, small_data, tmp_path, max_workers=4)
    assert all(e.error is None for e in manifest.entries)
    assert callers == {threading.get_ident()}


def test_run_sweep_partial_failure(small_data, tmp_path):
    theta0 = pretrain(ARCH, small_data, _fast())
    bomb = _fast(optimizer="sgd", learning_rate=1e8, weight_decay=0.1, epochs=12)
    manifest = run_sweep(theta0, [_fast(seed=1), bomb, _fast(seed=2)], small_data, tmp_path)
    assert manifest.entries[1].error is not None
    assert "DivergenceError" in manifest.entries[1].error
    assert manifest.entries[1].path is None
    assert len(manifest.successful()) == 2
    for entry in manifest.successful():
        assert (tmp_path / entry.path).exists()
    raw = json.loads((tmp_path / "manifest.json").read_text())
    assert raw["entries"][1]["error"] is not None
    assert load_manifest(tmp_path / "manifest.json").entries[1].error == manifest.entries[1].error


def test_a_non_finite_validation_loss_fails_the_entry_and_pretrain(small_data, tmp_path):
    # Validation rows this far out overflow the logits, and an accuracy taken by
    # argmax over NaN logits would be recorded as if it were a prediction's.
    far = Split(np.full(small_data.val.x.shape, 1e308), small_data.val.y)
    data = Dataset(splits={**small_data.splits, "val": far}, config=small_data.config)
    theta0 = pretrain(ARCH, small_data, _fast())
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match="non-finite loss"):
            pretrain(ARCH, data, _fast())
        manifest = run_sweep(theta0, [_fast(seed=1), _fast(seed=2, ema_decay=0.9)], data, tmp_path)
    assert [e.error.split(":")[0] for e in manifest.entries] == ["NonFiniteError"] * 2
    assert [e.path for e in manifest.entries] == [None, None]
    assert load_manifest(tmp_path / "manifest.json").entries == manifest.entries


# another input width, fewer classes than the labels, more than the config
@pytest.mark.parametrize("widths", [(7, 10, 3), (6, 10, 2), (6, 10, 4)])
def test_base_that_does_not_fit_the_data_raises_before_writing(small_data, tmp_path, widths):
    theta0 = init_checkpoint(ArchSpec(widths), 0)
    with pytest.raises(ShapeMismatchError, match="does not fit"):
        finetune(theta0, _fast(), small_data)
    with pytest.raises(ShapeMismatchError, match="does not fit"):
        run_sweep(theta0, [_fast(seed=1), _fast(seed=2)], small_data, tmp_path / "sweep")
    assert not (tmp_path / "sweep").exists()


def test_dataset_without_config_bounds_the_class_count_by_its_labels(small_data):
    bare = Dataset(splits=small_data.splits)  # labels 0..2
    assert check_fits_data(init_checkpoint(ArchSpec((6, 10, 3)), 0), bare) == 3
    result = finetune(init_checkpoint(ArchSpec((6, 10, 4)), 0), _fast(), bare)
    assert result.checkpoint["layer1.weight"].shape == (10, 4)
    with pytest.raises(ShapeMismatchError, match="does not fit"):
        finetune(init_checkpoint(ArchSpec((6, 10, 2)), 0), _fast(), bare)


def test_load_manifest_theta0_digest_defaults_to_empty(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"entries": []}))
    assert load_manifest(path).theta0_digest == ""


def test_effective_workers_env_cap(monkeypatch):
    monkeypatch.delenv("SOUPKIT_THREADS", raising=False)
    assert effective_workers(None) == 1
    assert effective_workers(8) == 8
    monkeypatch.setenv("SOUPKIT_THREADS", "2")
    assert effective_workers(8) == 2
    assert effective_workers(None) == 1
    monkeypatch.setenv("SOUPKIT_THREADS", "junk")
    with pytest.raises(ConfigError):
        effective_workers(4)
