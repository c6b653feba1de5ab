"""End-to-end tests of the command-line interface.

A module-scoped workspace runs the real pipeline once (datagen ->
pretrain -> sweep of four configs); individual tests drive each
subcommand against those artifacts and check outputs, determinism, and
the documented exit codes with their machine-readable stderr lines.
"""

import json
import struct
from pathlib import Path

import numpy as np
import pytest

from soupkit import cli, datagen, trainer
from soupkit.tensorstore import load as load_checkpoint
from soupkit.tinynet import evaluate

RUN_CONFIG = {
    "dataset": {
        "input_dim": 6,
        "num_classes": 3,
        "num_train": 160,
        "num_val": 96,
        "num_test": 96,
        "num_shift": 96,
        "class_center_scale": 1.4,
        "seed": 5,
    },
    "arch": {"layer_widths": [6, 12, 3]},
    "pretrain": {
        "learning_rate": 0.01,
        "weight_decay": 0.0001,
        "epochs": 3,
        "batch_size": 64,
        "seed": 3,
    },
    "sweep": {
        "configs": [
            {"learning_rate": 0.02, "epochs": 2, "batch_size": 64, "seed": 21},
            {
                "learning_rate": 0.01,
                "epochs": 3,
                "batch_size": 64,
                "seed": 22,
                "label_smoothing": 0.1,
            },
            {"learning_rate": 0.005, "epochs": 2, "batch_size": 64, "seed": 23},
            {"learning_rate": 0.02, "epochs": 3, "batch_size": 64, "seed": 24},
        ]
    },
}


def run_ok(argv):
    assert cli.main(argv) == cli.EXIT_OK


def run_fail(argv, code, category, capsys):
    assert cli.main(argv) == code
    err = capsys.readouterr().err.strip().splitlines()[-1]
    payload = json.loads(err)
    assert payload["error"] == category
    assert payload["type"]
    assert payload["message"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    config = root / "run.json"
    config.write_text(json.dumps(RUN_CONFIG))
    data = root / "data"
    base = root / "base.ckpt"
    sweep = root / "sweep"
    run_ok(["datagen", "--config", str(config), "--out", str(data)])
    run_ok(
        ["pretrain", "--config", str(config), "--data", str(data), "--out", str(base)]
    )
    run_ok(
        [
            "sweep",
            "--config",
            str(config),
            "--data",
            str(data),
            "--base",
            str(base),
            "--out",
            str(sweep),
            "--workers",
            "1",
        ]
    )
    return {
        "root": root,
        "config": config,
        "data": data,
        "base": base,
        "manifest": sweep / "manifest.json",
    }


# ----------------------------------------------------------- datagen/config


def test_datagen_writes_all_splits(workspace):
    ds = datagen.load_csv(workspace["data"])
    assert set(ds.splits) == set(datagen.SPLIT_NAMES)
    assert ds.splits["train"].x.shape == (160, 6)
    assert ds.config is not None and ds.config.num_classes == 3


def test_set_override_changes_generated_data(workspace, tmp_path):
    out = tmp_path / "smaller"
    run_ok(
        [
            "datagen",
            "--config",
            str(workspace["config"]),
            "--set",
            "dataset.num_train=64",
            "--out",
            str(out),
        ]
    )
    assert datagen.load_csv(out).splits["train"].x.shape[0] == 64


def test_set_override_without_config_file(tmp_path):
    out = tmp_path / "defaults"
    run_ok(["datagen", "--set", "dataset.num_train=32", "--out", str(out)])
    ds = datagen.load_csv(out)
    assert ds.splits["train"].x.shape[0] == 32
    assert ds.config.input_dim == datagen.DatasetConfig().input_dim


def test_unknown_config_section_exits_config_code(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"datasets": {}}))
    run_fail(
        ["datagen", "--config", str(config), "--out", str(tmp_path / "d")],
        cli.EXIT_CONFIG,
        "config",
        capsys,
    )


def test_unknown_hyper_key_exits_config_code(workspace, tmp_path, capsys):
    run_fail(
        [
            "pretrain",
            "--config",
            str(workspace["config"]),
            "--set",
            "pretrain.bogus=1",
            "--data",
            str(workspace["data"]),
            "--out",
            str(tmp_path / "x.ckpt"),
        ],
        cli.EXIT_CONFIG,
        "config",
        capsys,
    )


def test_malformed_set_flag_exits_config_code(tmp_path, capsys):
    run_fail(
        ["datagen", "--set", "no-equals-sign", "--out", str(tmp_path / "d")],
        cli.EXIT_CONFIG,
        "config",
        capsys,
    )


def test_arch_dataset_mismatch_exits_config_code(workspace, tmp_path, capsys):
    run_fail(
        [
            "pretrain",
            "--config",
            str(workspace["config"]),
            "--set",
            "arch.layer_widths=[4, 8, 3]",
            "--data",
            str(workspace["data"]),
            "--out",
            str(tmp_path / "x.ckpt"),
        ],
        cli.EXIT_CONFIG,
        "config",
        capsys,
    )


# -------------------------------------------------------------- exit codes


def test_missing_dataset_exits_missing_input(workspace, tmp_path, capsys):
    run_fail(
        [
            "eval",
            "--ckpt",
            str(workspace["base"]),
            "--data",
            str(tmp_path / "nope"),
            "--out",
            str(tmp_path / "r.json"),
        ],
        cli.EXIT_MISSING_INPUT,
        "missing-input",
        capsys,
    )


def test_corrupt_checkpoint_exits_format_code(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    # A stored NaN is a malformed file (5), not a non-finite result (6);
    # the file's last four bytes are the last value of its last tensor.
    nan_payload = workspace["base"].read_bytes()[:-4] + np.array(np.nan, "<f4").tobytes()
    header = json.dumps({"tensors": [{"name": 5, "shape": [1], "offset": 0, "nbytes": 4}],
                         "meta": {}}).encode()
    name_not_string = b"SOUPCKPT" + struct.pack("<II", 1, len(header)) + header + bytes(64)
    for blob in (b"not a checkpoint at all", nan_payload, name_not_string):
        bad.write_bytes(blob)
        run_fail(
            [
                "eval",
                "--ckpt",
                str(bad),
                "--data",
                str(workspace["data"]),
                "--out",
                str(tmp_path / "r.json"),
            ],
            cli.EXIT_FORMAT,
            "checkpoint-format",
            capsys,
        )


def test_corrupt_dataset_exits_format_code(workspace, tmp_path, capsys):
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / "config.json").write_text((workspace["data"] / "config.json").read_text())
    for name in datagen.SPLIT_NAMES:
        (broken / f"{name}.csv").write_text("x0,x1\nnot,numbers\n")
    run_fail(
        [
            "eval",
            "--ckpt",
            str(workspace["base"]),
            "--data",
            str(broken),
            "--out",
            str(tmp_path / "r.json"),
        ],
        cli.EXIT_FORMAT,
        "data-format",
        capsys,
    )


def test_divergent_training_exits_divergence_code(workspace, tmp_path, capsys):
    run_fail(
        [
            "pretrain",
            "--config",
            str(workspace["config"]),
            "--set",
            "pretrain.optimizer=sgd",
            "--set",
            "pretrain.learning_rate=1e8",
            "--set",
            "pretrain.weight_decay=0.1",
            "--set",
            "pretrain.epochs=12",
            "--data",
            str(workspace["data"]),
            "--out",
            str(tmp_path / "x.ckpt"),
        ],
        cli.EXIT_DIVERGED,
        "divergence",
        capsys,
    )


def test_degenerate_plane_exits_shape_code(workspace, tmp_path, capsys):
    run_fail(
        [
            "plane",
            "--ckpt-a",
            str(workspace["base"]),
            "--ckpt-b",
            str(workspace["base"]),
            "--ckpt-c",
            str(workspace["base"]),
            "--data",
            str(workspace["data"]),
            "--x-range",
            "0:1:3",
            "--y-range",
            "0:1:3",
            "--out",
            str(tmp_path / "p.csv"),
        ],
        cli.EXIT_SHAPE,
        "degenerate-geometry",
        capsys,
    )


def test_unknown_split_exits_config_code(workspace, tmp_path, capsys):
    run_fail(
        [
            "eval",
            "--ckpt",
            str(workspace["base"]),
            "--data",
            str(workspace["data"]),
            "--split",
            "holdout",
            "--out",
            str(tmp_path / "r.json"),
        ],
        cli.EXIT_CONFIG,
        "config",
        capsys,
    )


def test_help_and_bad_subcommand_use_argparse_exits(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code == 2
    capsys.readouterr()


def _single_error_line(capsys) -> dict:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    return json.loads(lines[0])


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        json.dumps({"theta0_digest": ""}),
        json.dumps({"entries": [{"config": {}, "path": "m.ckpt", "val_accuracy": 0.5}]}),
        json.dumps({"entries": [{"index": 0, "path": "m.ckpt", "val_accuracy": 0.5}]}),
        json.dumps(["entries"]),
    ],
)
def test_malformed_manifest_exits_format_code(tmp_path, capsys, text):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(text)
    argv = ["soup", "uniform", "--manifest", str(manifest), "--out", str(tmp_path / "s.ckpt")]
    assert cli.main(argv) == cli.EXIT_FORMAT
    assert _single_error_line(capsys)["error"] == "data-format"


@pytest.mark.parametrize("alphas", ["0,1.5", "-0.1", "0.5,nan"])
@pytest.mark.parametrize("command", ["interp", "approx"])
def test_alphas_outside_unit_interval_exit_config_code(
    workspace, tmp_path, capsys, command, alphas
):
    if command == "interp":
        inputs = ["--ckpt-a", str(workspace["base"]), "--ckpt-b", str(workspace["base"])]
    else:
        pairs = tmp_path / "pairs.json"
        base = str(workspace["base"])
        pairs.write_text(json.dumps([{"id": "p", "theta0": base, "theta1": base}]))
        inputs = ["--pairs", str(pairs)]
    argv = [command, *inputs, "--data", str(workspace["data"]), "--alphas", alphas,
            "--out", str(tmp_path / "out.csv")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert _single_error_line(capsys)["error"] == "config"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "raw", [b"\xff\xfe{}", b"not json", b"[1, 2]"], ids=["not-utf8", "not-json", "not-object"]
)
def test_malformed_config_file_exits_config_code(tmp_path, capsys, raw):
    config = tmp_path / "run.json"
    config.write_bytes(raw)
    argv = ["datagen", "--config", str(config), "--out", str(tmp_path / "d")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert _single_error_line(capsys)["error"] == "config"


@pytest.mark.parametrize(
    "raw",
    [
        b"not json",
        b"\xff\xfe[]",
        b"[1, 2]",
        b'[["id", "p"]]',
        b'{"id": "p"}',
        # Checkpoint paths that do not exist: the pair is rejected before any load.
        b'[{"id": "p", "theta0": 5, "theta1": "b.ckpt"}]',
        b'[{"id": "p", "theta0": "a.ckpt", "theta1": "b.ckpt", "learning_rate": "fast"}]',
        b'[{"id": "p", "theta0": "a.ckpt", "theta1": "b.ckpt", "learning_rate": NaN}]',
        b'[{"id": "p", "theta0": "a.ckpt", "theta1": "b.ckpt"}]',
        b'[{"id": "p", "theta0": "a.ckpt", "theta1": "b.ckpt"},'
        b' {"id": "p", "theta0": "a.ckpt", "theta1": "c.ckpt"}]',
    ],
    ids=["not-json", "not-utf8", "entry-not-object", "entry-pair-list", "not-list",
         "path-not-string", "rate-not-number", "rate-not-finite", "one-pair", "duplicate-id"],
)
def test_malformed_pairs_file_exits_config_code(workspace, tmp_path, capsys, raw):
    pairs = tmp_path / "pairs.json"
    pairs.write_bytes(raw)
    argv = ["approx", "--pairs", str(pairs), "--data", str(workspace["data"]),
            "--out", str(tmp_path / "a.csv")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert _single_error_line(capsys)["error"] == "config"


@pytest.mark.parametrize(
    "command, flags",
    [
        ("eval", ["--beta", "0"]),
        ("eval", ["--beta", "-1"]),
        ("eval", ["--beta", "nan"]),
        ("eval", ["--beta", "inf"]),
        ("eval", ["--bins", "0"]),
        ("calibrate", ["--bins", "0"]),
        ("plane", ["--x-range=nan:1:3"]),
        ("plane", ["--y-range=0:inf:3"]),
    ],
    ids=["beta-zero", "beta-negative", "beta-nan", "beta-inf", "eval-bins-zero",
         "calibrate-bins-zero", "range-nan", "range-inf"],
)
def test_bad_numeric_flag_exits_config_code(tmp_path, capsys, command, flags):
    # Inputs that do not exist: a read before the check would exit 3.
    missing = str(tmp_path / "missing")
    inputs = {
        "eval": ["--ckpt", missing],
        "calibrate": ["--ckpt", missing],
        "plane": ["--ckpt-a", missing, "--ckpt-b", missing, "--ckpt-c", missing,
                  "--x-range", "0:1:3", "--y-range", "0:1:3"],
    }[command]
    out = tmp_path / "out"
    argv = [command, *inputs, "--data", missing, *flags, "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert _single_error_line(capsys)["error"] == "config"
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_non_finite_json_metric_exits_non_finite_code(workspace, tmp_path, capsys):
    # A finite but huge --beta overflows the scaled logits; NaN must not reach the JSON.
    out = tmp_path / "e.json"
    argv = ["eval", "--ckpt", str(workspace["base"]), "--data", str(workspace["data"]),
            "--beta", "1e308", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_SHAPE
    assert _single_error_line(capsys)["error"] == "non-finite"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--soup", "--eval-report"])
@pytest.mark.parametrize(
    "raw", [b"not json", b"\xff\xfe{}", b"[1, 2]"], ids=["not-json", "not-utf8", "not-object"]
)
def test_malformed_report_input_exits_format_code(tmp_path, capsys, flag, raw):
    source = tmp_path / "input.json"
    source.write_bytes(raw)
    argv = ["report", flag, str(source), "--out", str(tmp_path / "r.json")]
    assert cli.main(argv) == cli.EXIT_FORMAT
    assert _single_error_line(capsys)["error"] == "data-format"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("value", ["nan", "1e39"])
def test_non_finite_dataset_value_exits_format_code(workspace, tmp_path, capsys, value):
    data = tmp_path / "data"
    data.mkdir()
    for source in workspace["data"].iterdir():
        (data / source.name).write_bytes(source.read_bytes())
    lines = (data / "test.csv").read_text().splitlines()
    lines[2] = ",".join(lines[2].split(",")[:-1] + [value])
    (data / "test.csv").write_text("\n".join(lines) + "\n")
    argv = ["eval", "--ckpt", str(workspace["base"]), "--data", str(data),
            "--out", str(tmp_path / "r.json")]
    assert cli.main(argv) == cli.EXIT_FORMAT
    assert _single_error_line(capsys)["error"] == "data-format"
    assert not (tmp_path / "r.json").exists()


# ------------------------------------------------------------------- soups


def test_soup_uniform_single_model_matches_member(workspace, tmp_path):
    doc = json.loads(workspace["manifest"].read_text())
    doc["entries"] = doc["entries"][:1]
    single = workspace["manifest"].parent / "manifest_single.json"
    single.write_text(json.dumps(doc))
    out = tmp_path / "solo.ckpt"
    run_ok(["soup", "uniform", "--manifest", str(single), "--out", str(out)])
    member = load_checkpoint(workspace["manifest"].parent / doc["entries"][0]["path"])
    merged = load_checkpoint(out)
    assert set(merged) == set(member)
    for name in member:
        assert np.array_equal(merged[name], member[name])


def test_soup_greedy_beats_best_individual_on_selection_split(workspace, tmp_path):
    out = tmp_path / "greedy.ckpt"
    run_ok(
        [
            "soup",
            "greedy",
            "--manifest",
            str(workspace["manifest"]),
            "--data",
            str(workspace["data"]),
            "--out",
            str(out),
        ]
    )
    sidecar = json.loads(Path(str(out) + ".soup.json").read_text())
    manifest = trainer.load_manifest(workspace["manifest"])
    ds = datagen.load_csv(workspace["data"])
    val = ds.splits["val"]
    soup_acc = evaluate(load_checkpoint(out), val.x, val.y).accuracy
    best_individual = max(e.val_accuracy for e in manifest.successful())
    assert soup_acc >= best_individual
    assert sidecar["ingredient_indices"]
    assert sidecar["temperature"] == 1.0


def test_soup_learned_by_layer_records_trace_and_groups(workspace, tmp_path):
    out = tmp_path / "learned.ckpt"
    run_ok(
        [
            "soup",
            "learned",
            "--manifest",
            str(workspace["manifest"]),
            "--data",
            str(workspace["data"]),
            "--by-layer",
            "--out",
            str(out),
        ]
    )
    sidecar = json.loads(Path(str(out) + ".soup.json").read_text())
    assert len(sidecar["loss_trace"]) == 4
    assert sidecar["loss_trace"][-1] <= sidecar["loss_trace"][0] + 1e-9
    assert len(sidecar["coefficients"]) >= 2
    for weights in sidecar["coefficients"].values():
        assert abs(sum(weights) - 1.0) < 1e-6


# --------------------------------------------------------------- ensembles


def test_ensemble_uniform_reports_metrics(workspace, tmp_path):
    out = tmp_path / "ens.json"
    run_ok(
        [
            "ensemble",
            "uniform",
            "--manifest",
            str(workspace["manifest"]),
            "--data",
            str(workspace["data"]),
            "--out",
            str(out),
        ]
    )
    payload = json.loads(out.read_text())
    assert payload["members"] == [0, 1, 2, 3]
    assert payload["split"] == "test"
    assert 0.0 <= payload["accuracy"] <= 1.0
    assert payload["accuracy"] == 1.0 - payload["top1_error"]
    assert payload["count"] == 96


def test_ensemble_greedy_selects_nonempty_subset(workspace, tmp_path):
    out = tmp_path / "gens.json"
    run_ok(
        [
            "ensemble",
            "greedy",
            "--manifest",
            str(workspace["manifest"]),
            "--data",
            str(workspace["data"]),
            "--eval-split",
            "val",
            "--out",
            str(out),
        ]
    )
    payload = json.loads(out.read_text())
    assert payload["members"]
    assert set(payload["members"]) <= {0, 1, 2, 3}
    manifest = trainer.load_manifest(workspace["manifest"])
    best_individual = max(e.val_accuracy for e in manifest.successful())
    assert payload["accuracy"] >= best_individual


# -------------------------------------------------------- eval/interp/plane


def test_eval_reports_match_library_and_are_idempotent(workspace, tmp_path):
    out1, out2 = tmp_path / "e1.json", tmp_path / "e2.json"
    argv = [
        "eval",
        "--ckpt",
        str(workspace["base"]),
        "--data",
        str(workspace["data"]),
        "--split",
        "val",
    ]
    run_ok(argv + ["--out", str(out1)])
    run_ok(argv + ["--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    ds = datagen.load_csv(workspace["data"])
    val = ds.splits["val"]
    report = evaluate(load_checkpoint(workspace["base"]), val.x, val.y)
    assert payload["loss"] == report.loss
    assert payload["accuracy"] == report.accuracy
    assert 0.0 <= payload["ece"] <= 1.0
    assert payload["beta"] is None


def test_eval_with_beta_scales_calibrated_loss_only(workspace, tmp_path):
    out = tmp_path / "eb.json"
    run_ok(
        [
            "eval",
            "--ckpt",
            str(workspace["base"]),
            "--data",
            str(workspace["data"]),
            "--split",
            "val",
            "--beta",
            "0.5",
            "--out",
            str(out),
        ]
    )
    payload = json.loads(out.read_text())
    assert payload["beta"] == 0.5
    assert payload["calibrated_loss"] != payload["loss"]


def test_interp_curve_covers_grid_and_hits_endpoints(workspace, tmp_path):
    manifest = trainer.load_manifest(workspace["manifest"])
    model0 = manifest.checkpoint_path(manifest.entries[0])
    out = tmp_path / "curve.csv"
    run_ok(
        [
            "interp",
            "--ckpt-a",
            str(workspace["base"]),
            "--ckpt-b",
            str(model0),
            "--data",
            str(workspace["data"]),
            "--splits",
            "val,test",
            "--out",
            str(out),
        ]
    )
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "alpha,split,loss,top1_error"
    assert len(lines) == 1 + 11 * 2
    ds = datagen.load_csv(workspace["data"])
    val = ds.splits["val"]
    base_report = evaluate(load_checkpoint(workspace["base"]), val.x, val.y)
    alpha0_val = next(l for l in lines[1:] if l.startswith("0.0,val,"))
    assert float(alpha0_val.split(",")[2]) == base_report.loss


def test_interp_output_is_deterministic(workspace, tmp_path):
    manifest = trainer.load_manifest(workspace["manifest"])
    model0 = manifest.checkpoint_path(manifest.entries[0])
    argv = [
        "interp",
        "--ckpt-a",
        str(workspace["base"]),
        "--ckpt-b",
        str(model0),
        "--data",
        str(workspace["data"]),
        "--alphas",
        "0,0.5,1",
    ]
    out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    run_ok(argv + ["--out", str(out1)])
    run_ok(argv + ["--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_plane_csv_shape_and_metric_header(workspace, tmp_path):
    manifest = trainer.load_manifest(workspace["manifest"])
    paths = [manifest.checkpoint_path(e) for e in manifest.entries[:2]]
    out = tmp_path / "plane.csv"
    run_ok(
        [
            "plane",
            "--ckpt-a",
            str(workspace["base"]),
            "--ckpt-b",
            str(paths[0]),
            "--ckpt-c",
            str(paths[1]),
            "--data",
            str(workspace["data"]),
            "--metric",
            "error",
            "--x-range=-0.25:1.25:4",
            "--y-range=-0.25:1.25:3",
            "--out",
            str(out),
        ]
    )
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# metric=error")
    assert len(lines) == 2 + 3  # comment, x header, three y rows
    assert len(lines[2].split(",")) == 1 + 4


def test_bad_range_spec_exits_config_code(workspace, tmp_path, capsys):
    run_fail(
        [
            "plane",
            "--ckpt-a",
            str(workspace["base"]),
            "--ckpt-b",
            str(workspace["base"]),
            "--ckpt-c",
            str(workspace["base"]),
            "--data",
            str(workspace["data"]),
            "--x-range",
            "0:1",
            "--y-range",
            "0:1:3",
            "--out",
            str(tmp_path / "p.csv"),
        ],
        cli.EXIT_CONFIG,
        "config",
        capsys,
    )


# ----------------------------------------------------- grid-study / approx


def test_grid_study_emits_all_ordered_pairs(workspace, tmp_path):
    out = tmp_path / "grid.csv"
    run_ok(
        [
            "grid-study",
            "--manifest",
            str(workspace["manifest"]),
            "--data",
            str(workspace["data"]),
            "--out",
            str(out),
        ]
    )
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "a,b,pair_accuracy,best_in_range,advantage"
    assert len(lines) == 1 + 4 * 5 // 2
    diagonal = [l for l in lines[1:] if l.split(",")[0] == l.split(",")[1]]
    assert len(diagonal) == 4
    assert all(float(l.split(",")[4]) == 0.0 for l in diagonal)


def test_approx_command_writes_records_and_summary(workspace, tmp_path):
    manifest = trainer.load_manifest(workspace["manifest"])
    pairs_file = workspace["manifest"].parent / "pairs.json"
    pairs_file.write_text(
        json.dumps(
            [
                {
                    "id": "p01",
                    "theta0": manifest.entries[0].path,
                    "theta1": manifest.entries[1].path,
                    "learning_rate": 0.02,
                },
                {
                    "id": "p23",
                    "theta0": manifest.entries[2].path,
                    "theta1": manifest.entries[3].path,
                },
            ]
        )
    )
    out = tmp_path / "approx.csv"
    run_ok(
        [
            "approx",
            "--pairs",
            str(pairs_file),
            "--data",
            str(workspace["data"]),
            "--splits",
            "val",
            "--alphas",
            "0.5",
            "--beta-mode",
            "fixed-1",
            "--out",
            str(out),
        ]
    )
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("#")
    header = (
        "pair,split,alpha,beta,approx_value,true_loss_diff,true_err_diff,"
        "second_derivative_term,variance_term"
    )
    assert lines[1] == header
    assert len(lines) == 2 + 2
    assert lines[2].startswith("p01,val,0.5,1.0,")


def test_approx_pair_file_rejects_unknown_keys(workspace, tmp_path, capsys):
    pairs_file = tmp_path / "pairs.json"
    pairs_file.write_text(
        json.dumps([{"id": "x", "theta0": "a", "theta1": "b", "note": "?"}])
    )
    run_fail(
        [
            "approx",
            "--pairs",
            str(pairs_file),
            "--data",
            str(workspace["data"]),
            "--out",
            str(tmp_path / "a.csv"),
        ],
        cli.EXIT_CONFIG,
        "config",
        capsys,
    )


# ------------------------------------------------------- calibrate / report


def test_calibrate_single_checkpoint(workspace, tmp_path):
    out = tmp_path / "cal.csv"
    run_ok(
        [
            "calibrate",
            "--ckpt",
            str(workspace["base"]),
            "--data",
            str(workspace["data"]),
            "--bins",
            "10",
            "--out",
            str(out),
        ]
    )
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# beta=")
    assert lines[1] == "stage,bin,count,mean_confidence,accuracy"


def test_calibrate_manifest_ensemble(workspace, tmp_path):
    out = tmp_path / "cal_ens.csv"
    run_ok(
        [
            "calibrate",
            "--manifest",
            str(workspace["manifest"]),
            "--data",
            str(workspace["data"]),
            "--out",
            str(out),
        ]
    )
    assert out.read_text().startswith("# beta=")


def test_report_merges_manifest_soup_and_eval(workspace, tmp_path):
    soup_out = tmp_path / "s.ckpt"
    run_ok(
        ["soup", "uniform", "--manifest", str(workspace["manifest"]), "--out", str(soup_out)]
    )
    eval_out = tmp_path / "e.json"
    run_ok(
        [
            "eval",
            "--ckpt",
            str(soup_out),
            "--data",
            str(workspace["data"]),
            "--out",
            str(eval_out),
        ]
    )
    report_out = tmp_path / "report.json"
    run_ok(
        [
            "report",
            "--manifest",
            str(workspace["manifest"]),
            "--soup",
            str(soup_out) + ".soup.json",
            "--eval-report",
            str(eval_out),
            "--out",
            str(report_out),
        ]
    )
    payload = json.loads(report_out.read_text())
    assert payload["sweep"]["total"] == 4
    assert payload["sweep"]["successful"] == 4
    assert payload["sweep"]["best_val_accuracy"] >= payload["sweep"]["mean_val_accuracy"]
    assert payload["soups"][0]["ingredient_indices"] == [0, 1, 2, 3]
    assert payload["evals"][0]["split"] == "test"


def test_report_without_inputs_exits_config_code(tmp_path, capsys):
    run_fail(
        ["report", "--out", str(tmp_path / "r.json")],
        cli.EXIT_CONFIG,
        "config",
        capsys,
    )
