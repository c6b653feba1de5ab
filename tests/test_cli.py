"""End-to-end tests of the command-line interface.

A module-scoped workspace runs the real pipeline once (datagen ->
pretrain -> sweep of four configs); individual tests drive each
subcommand against those artifacts and check outputs, determinism, and
the documented exit codes with their machine-readable stderr lines.
"""

import argparse
import contextlib
import csv
import dataclasses
import gc
import io
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soupkit
from soupkit import analysis, cli, datagen, trainer
from soupkit.errors import CheckpointFormatError, ConfigError, DataFormatError
from soupkit.rng import PortableRng
from soupkit.tensorstore import (
    Checkpoint,
    content_digest,
    deserialize,
    load as load_checkpoint,
    save as save_checkpoint,
)
from soupkit.tinynet import ArchSpec, evaluate, init_checkpoint

SRC_DIR = Path(soupkit.__file__).resolve().parent.parent

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


# JSON nested past what the parser's recursion limit allows
DEEPLY_NESTED = "[" * 100_000 + "]" * 100_000


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


def _one_tensor_checkpoint(**entry) -> bytes:
    """A checkpoint file declaring one tensor ``w`` at offset 0, ``entry`` overriding."""
    header = json.dumps({"tensors": [{"name": "w", "offset": 0, **entry}], "meta": {}}).encode()
    return b"SOUPCKPT" + struct.pack("<II", 1, len(header)) + header + bytes(64)


def test_corrupt_checkpoint_exits_format_code(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    # A stored NaN is a malformed file (5), not a non-finite result (6);
    # the file's last four bytes are the last value of its last tensor.
    nan_payload = workspace["base"].read_bytes()[:-4] + np.array(np.nan, "<f4").tobytes()
    name_not_string = _one_tensor_checkpoint(name=5, shape=[1], nbytes=4)
    # Shapes NumPy cannot build, an infinite size and a negative offset: each
    # exited 1 before (the first wrapped an int64 element count to 0, the
    # infinite size overflowed int(), the others raised in NumPy).
    unbuildable = [_one_tensor_checkpoint(shape=[2**32, 2**32], nbytes=0),
                   _one_tensor_checkpoint(shape=[10**30], nbytes=4),
                   _one_tensor_checkpoint(shape=[0, 10**30], nbytes=0),
                   _one_tensor_checkpoint(shape=[1] * 65, nbytes=4),
                   _one_tensor_checkpoint(shape=[float("inf")], nbytes=4),
                   _one_tensor_checkpoint(shape=[1], nbytes=4, offset=-10**6)]
    # A shape that is not a list of integers: each loaded before, "12" as (1, 2).
    not_int_lists = [_one_tensor_checkpoint(shape=shape, nbytes=8)
                     for shape in ("12", [2.5], [True, 2], ["2"])]
    # A header that is not a JSON object, or too deeply nested to parse: each
    # exited 1 before (TypeError, RecursionError).
    not_objects = [b"SOUPCKPT" + struct.pack("<II", 1, len(h)) + h
                   for h in (b"[1]", b'"tensors"', DEEPLY_NESTED.encode())]
    for blob in (b"not a checkpoint at all", nan_payload, name_not_string, *unbuildable,
                 *not_int_lists, *not_objects):
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
    # unparsable rows, and bytes that are not UTF-8 (which exited 1 before)
    for split in (b"x0,x1\nnot,numbers\n", b"\xff\xfex0,x1\n"):
        for name in datagen.SPLIT_NAMES:
            (broken / f"{name}.csv").write_bytes(split)
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


# Tensors that do not form the network, made from a model with two or more
# layers and 3 classes. On the (6, 12, 3) base, each but no-hidden-layer
# exited 1 on eval before (ValueError or IndexError); no-hidden-layer passed
# eval, and soup learned exited 1 on it. Soup uniform, which averages tensors
# without running them, exited 0 on each.
NETWORK_DEFECTS = {
    "bias-shorter-than-layer": lambda t: {**t, "layer0.bias": t["layer0.bias"][:-1]},
    "gain-shorter-than-layer": lambda t: {**t, "layer0.gain": t["layer0.gain"][:-1]},
    "rows-do-not-chain": lambda t: {**t, "layer1.weight": np.vstack([t["layer1.weight"]] * 2)},
    "weight-1d": lambda t: {**t, "layer0.weight": t["layer0.weight"].ravel()},
    "weight-3d": lambda t: {**t, "layer0.weight": t["layer0.weight"][..., None]},
    "no-tensors": lambda t: {},
    "no-hidden-layer": lambda t: {"layer0.weight": t["layer0.weight"][:, :3],
                                  "layer0.bias": t["layer0.bias"][:3]},
}


@pytest.mark.parametrize("defect", sorted(NETWORK_DEFECTS))
@pytest.mark.parametrize("command", ["eval", "soup-uniform", "soup-learned"])
def test_checkpoint_not_forming_the_network_exits_shape_code(
    workspace, tmp_path, capsys, command, defect
):
    ckpt = tmp_path / "bad.ckpt"
    tensors = NETWORK_DEFECTS[defect](dict(load_checkpoint(workspace["base"])))
    save_checkpoint(Checkpoint.from_arrays(tensors), ckpt)
    manifest = ["--manifest", str(_write_manifest(tmp_path / "manifest.json", ckpt))]
    argv = {
        "eval": ["eval", "--ckpt", str(ckpt), "--data", str(workspace["data"])],
        "soup-uniform": ["soup", "uniform", *manifest],
        "soup-learned": ["soup", "learned", *manifest, "--data", str(workspace["data"])],
    }[command]
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_SHAPE
    assert _single_error_line(capsys)["error"] == "shape-mismatch"
    assert not list(tmp_path.glob("out*"))


def _header_only(path: Path) -> None:
    path.write_text(path.read_text().splitlines()[0] + "\n")


def _config_one_wider(data: Path) -> None:
    config = json.loads((data / "config.json").read_text())
    (data / "config.json").write_text(json.dumps({**config, "input_dim": config["input_dim"] + 1}))


# A header and no rows, or every split one feature narrower than config.json
# says: each loaded before (pretrain, sweep and eval exited 0, 1 or 2).
DATASET_DEFECTS = {"train-without-rows": lambda data: _header_only(data / "train.csv"),
                   "test-without-rows": lambda data: _header_only(data / "test.csv"),
                   "width-not-config": _config_one_wider}


@pytest.mark.parametrize("defect", sorted(DATASET_DEFECTS))
@pytest.mark.parametrize("command", ["pretrain", "sweep", "eval"])
def test_split_without_rows_or_of_another_width_exits_format_code(
    workspace, tmp_path, capsys, command, defect
):
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    DATASET_DEFECTS[defect](data)
    out = tmp_path / "out"
    argv = {
        "pretrain": ["pretrain", "--config", str(workspace["config"])],
        "sweep": ["sweep", "--config", str(workspace["config"]), "--base", str(workspace["base"])],
        "eval": ["eval", "--ckpt", str(workspace["base"])],
    }[command]
    assert cli.main([*argv, "--data", str(data), "--out", str(out)]) == cli.EXIT_FORMAT
    assert _single_error_line(capsys)["error"] == "data-format"
    assert not out.exists()


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


# argv per command with {dir} where an input file is expected
DIRECTORY_AS_INPUT = {
    "eval-ckpt": ["eval", "--ckpt", "{dir}", "--data", "{data}"],
    "soup-manifest": ["soup", "uniform", "--manifest", "{dir}"],
    "pretrain-config": ["pretrain", "--config", "{dir}", "--data", "{data}"],
    "approx-pairs": ["approx", "--pairs", "{dir}", "--data", "{data}"],
    "report-soup": ["report", "--soup", "{dir}"],
    "report-eval-report": ["report", "--eval-report", "{dir}"],
}


@pytest.mark.parametrize("case", sorted(DIRECTORY_AS_INPUT))
def test_directory_given_as_input_file_exits_missing_input(workspace, tmp_path, capsys, case):
    inputs = {"dir": str(tmp_path / "a-directory"), "data": str(workspace["data"])}
    (tmp_path / "a-directory").mkdir()
    argv = [arg.format(**inputs) for arg in DIRECTORY_AS_INPUT[case]]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == cli.EXIT_MISSING_INPUT
    assert _single_error_line(capsys)["error"] == "missing-input"
    assert not list(tmp_path.glob("out*"))


# (argv, the --out path, the path that exists beforehand and its kind; paths in tmp_path)
OUT_OF_THE_WRONG_KIND = {
    "soup-into-directory": (["soup", "uniform", "--manifest", "{manifest}"], "out", "out", "dir"),
    "soup-sidecar-directory": (["soup", "uniform", "--manifest", "{manifest}"], "out",
                               "out.soup.json", "dir"),
    "eval-into-directory": (["eval", "--ckpt", "{base}", "--data", "{data}"], "out", "out",
                            "dir"),
    "sweep-into-file": (["sweep", "--config", "{config}", "--data", "{data}",
                         "--base", "{base}"], "out", "out", "file"),
    "datagen-into-file": (["datagen", "--config", "{config}"], "out", "out", "file"),
    "eval-under-file": (["eval", "--ckpt", "{base}", "--data", "{data}"], "out/e.json", "out",
                        "file"),
    "datagen-under-file": (["datagen", "--config", "{config}"], "out/data", "out", "file"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_THE_WRONG_KIND))
def test_out_of_the_wrong_kind_exits_config_code_and_writes_nothing(
    workspace, tmp_path, capsys, case
):
    command, out, existing, kind = OUT_OF_THE_WRONG_KIND[case]
    if kind == "dir":
        (tmp_path / existing).mkdir()
    else:
        (tmp_path / existing).write_text("kept")
    argv = [arg.format(**{k: str(v) for k, v in workspace.items()}) for arg in command]
    assert cli.main([*argv, "--out", str(tmp_path / out)]) == cli.EXIT_CONFIG
    assert _single_error_line(capsys)["error"] == "config"
    assert [p.name for p in tmp_path.iterdir()] == [existing]
    if kind == "dir":
        assert not list((tmp_path / existing).iterdir())
    else:
        assert (tmp_path / existing).read_text() == "kept"


@pytest.mark.parametrize("splits", [",", "", ",,"])
@pytest.mark.parametrize("command", ["interp", "approx"])
def test_no_split_name_exits_config_code(workspace, tmp_path, capsys, command, splits):
    if command == "interp":
        inputs = ["--ckpt-a", str(workspace["base"]), "--ckpt-b", str(workspace["base"])]
    else:
        sweep = workspace["manifest"].parent
        endpoints = [(workspace["base"], sweep / f"model_00{i}.ckpt") for i in (0, 1)]
        inputs = ["--pairs", str(_pairs_file(tmp_path / "pairs.json", endpoints))]
    out = tmp_path / "out.csv"
    argv = [command, *inputs, "--data", str(workspace["data"]), "--splits", splits,
            "--alphas", "0,1", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert _single_error_line(capsys)["error"] == "config"
    assert not out.exists()


def test_help_and_bad_subcommand_use_argparse_exits(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0
    out = capsys.readouterr()
    assert out.out.startswith("usage: soupkit") and out.err == ""
    # A usage error is a config error: exit 2 and one JSON line, no usage text.
    for argv in (
        ["eval", "--ckpt", "c", "--data", "d", "--bins", "x", "--out", "o"],
        ["sweep", "--data", "d", "--base", "b", "--out", "o", "--workers", "two"],
        ["frobnicate"],
        ["soup"],
        ["eval", "--ckpt", "c", "--data", "d"],
    ):
        assert cli.main(argv) == cli.EXIT_CONFIG, argv
        out = capsys.readouterr()
        assert out.out == "", argv
        lines = out.err.splitlines()
        assert len(lines) == 1, (argv, lines)
        assert json.loads(lines[0])["error"] == "config"


def test_parser_choices_are_the_library_choices():
    # The parser spells the choices out, so that building it imports no analysis.
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))

    def choices(command, flag):
        return next(a.choices for a in sub.choices[command]._actions if flag in a.option_strings)

    assert tuple(choices("plane", "--metric")) == analysis.PLANE_METRICS
    assert tuple(choices("approx", "--beta-mode")) == analysis.BETA_MODES


def _modules(names) -> set[str]:
    """Module names: a soupkit submodule by its short name, any other module by its own."""
    return {f"soupkit.{name}" if name in soupkit.__all__ else name for name in names}


@pytest.mark.parametrize(
    "module, absent",
    [
        ("cli", ("analysis", "ensembles", "soups", "trainer", "datagen", "numpy", "dataclasses",
                 "inspect")),
        ("soups", ("trainer",)),
        ("ensembles", ("soups", "trainer")),
    ],
)
def test_import_loads_no_module_that_only_some_commands_run(module, absent):
    # Start-up is most of a short command's time: each command imports the
    # library modules it runs, so a fresh interpreter must not load these.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    code = f"import json, sys, soupkit.{module}; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    loaded = set(json.loads(proc.stdout))
    assert f"soupkit.{module}" in loaded
    assert sorted(loaded & _modules(absent)) == []


# A command's own process: (argv before --out, library modules it must not
# load, modules it must load). The manifest commands read their manifest through
# soupkit.schema, so none loads the training code; soup learned steps
# trainer.adamw_step, which shows that a load made during a command is seen.
COMMAND_IMPORTS = {
    "soup-uniform": (["soup", "uniform", "--manifest", "{manifest}"], ("trainer",),
                     ("schema", "tensorstore", "soups")),
    "soup-greedy": (["soup", "greedy", "--manifest", "{manifest}", "--data", "{data}"],
                    ("trainer",), ("soups", "datagen")),
    "soup-learned": (["soup", "learned", "--manifest", "{manifest}", "--data", "{data}"], (),
                     ("trainer",)),
    "ensemble-uniform": (["ensemble", "uniform", "--manifest", "{manifest}", "--data", "{data}"],
                         ("trainer",), ("ensembles",)),
    "ensemble-greedy": (["ensemble", "greedy", "--manifest", "{manifest}", "--data", "{data}"],
                        ("trainer",), ("ensembles",)),
    "grid-study": (["grid-study", "--manifest", "{manifest}", "--data", "{data}"], ("trainer",),
                   ("analysis",)),
    "calibrate-manifest": (["calibrate", "--manifest", "{manifest}", "--data", "{data}"],
                           ("trainer",), ("ensembles",)),
    "report-manifest": (["report", "--manifest", "{manifest}"],
                        ("trainer", "datagen", "tensorstore", "tinynet", "numpy"), ("schema",)),
}


@pytest.mark.parametrize("command", sorted(COMMAND_IMPORTS))
def test_command_loads_only_the_modules_it_runs(workspace, tmp_path, command):
    template, absent, present = COMMAND_IMPORTS[command]
    paths = {"manifest": workspace["manifest"], "data": workspace["data"]}
    argv = [arg.format(**paths) for arg in template] + ["--out", str(tmp_path / "out")]
    code = ("import json, sys; from soupkit import cli; "
            "print(json.dumps([cli.main(sys.argv[1:]), sorted(sys.modules)]))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    exit_code, loaded = json.loads(proc.stdout)
    assert exit_code == cli.EXIT_OK, proc.stderr
    assert sorted(set(loaded) & _modules(absent)) == []
    assert _modules(present) <= set(loaded)


# Runs that import no NumPy: (argv, documented exit code). A computing
# command checks its flags and config before it imports the library.
NUMPY_FREE_RUNS = {
    "help": (["--help"], cli.EXIT_OK),
    "unknown-flag": (["report", "--bogus", "--out", "{out}"], cli.EXIT_CONFIG),
    "report-manifest": (["report", "--manifest", "{manifest}", "--out", "{out}"], cli.EXIT_OK),
    "missing-config": (["datagen", "--config", "{missing}", "--out", "{out}"],
                       cli.EXIT_MISSING_INPUT),
    "bad-set": (["pretrain", "--config", "{config}", "--set", "pretrain.epochs=1.5",
                 "--data", "{data}", "--out", "{out}"], cli.EXIT_CONFIG),
    "out-of-the-wrong-kind": (["eval", "--ckpt", "{base}", "--data", "{data}", "--out", "{dir}"],
                              cli.EXIT_CONFIG),
    "bad-alphas": (["interp", "--ckpt-a", "{base}", "--ckpt-b", "{base}", "--data", "{data}",
                    "--alphas", "0,2", "--out", "{out}"], cli.EXIT_CONFIG),
    "bad-second-range": (["plane", "--ckpt-a", "{base}", "--ckpt-b", "{base}", "--ckpt-c",
                          "{base}", "--data", "{data}", "--x-range=0:1:3", "--y-range=0:1:0",
                          "--out", "{out}"], cli.EXIT_CONFIG),
}


@pytest.mark.parametrize("case", sorted(NUMPY_FREE_RUNS))
def test_front_end_runs_where_numpy_cannot_be_imported(workspace, tmp_path, case):
    template, expected = NUMPY_FREE_RUNS[case]
    out = tmp_path / "out"
    paths = {**workspace, "missing": tmp_path / "missing.json", "out": out, "dir": tmp_path}
    argv = [arg.format(**paths) for arg in template]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    runs = []
    for block in ("", "sys.modules['numpy'] = None; "):  # None makes `import numpy` fail
        code = f"import sys; {block}from soupkit import cli; sys.exit(cli.run())"
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, env=env, timeout=60)
        runs.append((proc.returncode, proc.stdout, proc.stderr,
                     out.read_bytes() if out.is_file() else None))
        out.unlink(missing_ok=True)
    assert runs[0][0] == expected, runs[0]
    assert runs[1] == runs[0]


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
        # A config the manifest's own writer could not have produced.
        json.dumps({"entries": [{"index": 0, "config": {"epochs": True}, "path": "m.ckpt",
                                 "val_accuracy": 0.5}]}),
        '{"entries": [{"index": 0, "config": {"learning_rate": NaN}, "path": "m.ckpt",'
        ' "val_accuracy": 0.5}]}',
        # entry fields of the wrong type, or not finite
        json.dumps({"entries": [{"index": 0, "config": {}, "path": 5, "val_accuracy": 0.5}]}),
        json.dumps({"entries": [{"index": 0, "config": {}, "path": "m.ckpt",
                                 "val_accuracy": "x"}]}),
        '{"entries": [{"index": 0, "config": {}, "path": "m.ckpt", "val_accuracy": NaN}]}',
        # a key save_manifest does not write
        json.dumps({"entries": [{"index": 0, "config": {}, "path": "m.ckpt", "val_accuracy": 0.5,
                                 "note": "x"}]}),
        # a theta0_digest that is not a string, even with no entries to check
        '{"theta0_digest": NaN, "entries": []}',
        json.dumps({"theta0_digest": [1], "entries": []}),
        json.dumps({"theta0_digest": 5, "entries": []}),
        # keys the writer does not write, at the top level too
        json.dumps({"theta0_digest": "", "entries": [], "note": "x"}),
        json.dumps({"theta0_digest": "", "entries": [], "directory": "."}),
        DEEPLY_NESTED,
    ],
)
def test_malformed_manifest_exits_format_code(tmp_path, capsys, text):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(text)
    argv = ["soup", "uniform", "--manifest", str(manifest), "--out", str(tmp_path / "s.ckpt")]
    assert cli.main(argv) == cli.EXIT_FORMAT
    assert _single_error_line(capsys)["error"] == "data-format"
    assert not list(tmp_path.glob("s.ckpt*"))


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
    "raw", [b"\xff\xfe{}", b"not json", b"[1, 2]", DEEPLY_NESTED.encode()],
    ids=["not-utf8", "not-json", "not-object", "nested-too-deeply"],
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
        b'[{"id": 1, "theta0": "a.ckpt", "theta1": "b.ckpt"},'
        b' {"id": 2, "theta0": "a.ckpt", "theta1": "c.ckpt"}]',
    ],
    ids=["not-json", "not-utf8", "entry-not-object", "entry-pair-list", "not-list",
         "path-not-string", "rate-not-number", "rate-not-finite", "one-pair", "duplicate-id",
         "id-not-string"],
)
def test_malformed_pairs_file_exits_config_code(workspace, tmp_path, capsys, raw):
    pairs = tmp_path / "pairs.json"
    pairs.write_bytes(raw)
    argv = ["approx", "--pairs", str(pairs), "--data", str(workspace["data"]),
            "--out", str(tmp_path / "a.csv")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    line = _single_error_line(capsys)
    assert line["error"] == "config"
    assert str(pairs) in line["message"]


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


def test_non_finite_json_metric_exits_non_finite_code(workspace, tmp_path, capsys):
    # A finite but huge --beta overflows the scaled logits; NaN must not reach the JSON.
    out = tmp_path / "e.json"
    argv = ["eval", "--ckpt", str(workspace["base"]), "--data", str(workspace["data"]),
            "--beta", "1e308", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_SHAPE
    assert _single_error_line(capsys)["error"] == "non-finite"
    assert not out.exists()


def _run_cli_process(argv, env_updates=()):
    """Run the CLI in a fresh interpreter, where NumPy warnings reach stderr unfiltered."""
    env = {k: v for k, v in os.environ.items() if k != "SOUPKIT_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    env.update(env_updates)
    return subprocess.run(
        [sys.executable, "-m", "soupkit.cli", *argv], capture_output=True, text=True, env=env,
        timeout=300,
    )


def test_overflow_in_a_subprocess_prints_one_json_line(workspace, tmp_path):
    out = tmp_path / "e.json"
    proc = _run_cli_process(["eval", "--ckpt", str(workspace["base"]), "--data",
                             str(workspace["data"]), "--beta", "1e308", "--out", str(out)])
    assert proc.returncode == cli.EXIT_SHAPE
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, lines
    assert json.loads(lines[0])["error"] == "non-finite"
    assert not out.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_overflowing_sweep_workers_print_nothing(workspace, tmp_path, workers):
    # Input noise of 1e308 overflows outside the guarded gradient step, at any
    # --workers value; both entries then diverge.
    configs = [{"input_noise_std": 1e308, "epochs": 1, "seed": s} for s in (1, 2)]
    out = tmp_path / "sweep"
    proc = _run_cli_process(["sweep", "--config", str(workspace["config"]),
                             "--set", f"sweep.configs={json.dumps(configs)}",
                             "--data", str(workspace["data"]), "--base", str(workspace["base"]),
                             "--out", str(out), "--workers", workers])
    assert proc.returncode == cli.EXIT_OK
    assert proc.stderr == ""
    entries = json.loads((out / "manifest.json").read_text())["entries"]
    assert all(e["error"].startswith("DivergenceError") for e in entries)


@pytest.mark.parametrize(
    "command, override",
    [
        ("datagen", "dataset.num_train=1.5"),
        ("datagen", "dataset.input_dim=true"),
        ("datagen", 'dataset.seed="7"'),
        ("pretrain", "pretrain.epochs=NaN"),
        ("pretrain", "pretrain.epochs=true"),
        ("pretrain", "pretrain.batch_size=2.5"),
        ("pretrain", "arch.layer_widths=[6.5,12,3]"),
        ("pretrain", "arch.layer_widths=[6,true,3]"),
        ("sweep", "sweep.space.batch_size=0"),
        ("sweep", "sweep.space.batch_size=false"),
        ("sweep", "sweep.space.epochs_range=[1.5,3]"),
        ("sweep", "sweep.space.epochs_range=[0,3]"),
        ("sweep", "sweep.space.lr_exponent_range=[4,1]"),
        ("sweep", "sweep.space.wd_exponent_range=[1,Infinity]"),
        ("sweep", "sweep.space.lr_exponent_range=[1,2,3]"),
        ("sweep", "sweep.space.mixup_off_probability=NaN"),
        ("sweep", "sweep.space.smoothing_off_probability=1.5"),
        ("sweep", "sweep.space.smoothing_max=2"),
        ("sweep", "sweep.space.mixup_max=-0.1"),
        ("sweep", "sweep.space.mixup_max=4.5"),
        ("sweep", 'sweep={"configs": [{"mixup_alpha": 20}]}'),
        ("sweep", "sweep.space.optimizer=lbfgs"),
        ("sweep", "sweep.count=1.5"),
        ("sweep", "sweep.count=0"),
        ("sweep", "sweep.master_seed=true"),
        ("sweep", "sweep.space=[1]"),
        ("sweep", "sweep=[1]"),
        ("sweep", "sweep.configs=[5]"),
        ("pretrain", "pretrain=5"),
        ("pretrain", "arch=5"),
        ("datagen", "dataset=5"),
        # every command checks every section, not only those it runs
        ("datagen", "pretrain.bogus_key=1"),
        ("datagen", 'sweep.count="x"'),
        ("datagen", "arch.layer_widths=[4,0,3]"),
        ("pretrain", "sweep.configs=[]"),
        ("sweep", "dataset.num_train=0"),
    ],
)
def test_bad_config_field_exits_config_code(
    workspace, tmp_path, capsys, command, override
):
    config = tmp_path / "run.json"
    doc = {k: v for k, v in RUN_CONFIG.items() if k != "sweep"}
    config.write_text(json.dumps({**doc, "sweep": {"count": 2, "master_seed": 0}}))
    out = tmp_path / "out"
    inputs = {
        "datagen": [],
        "pretrain": ["--data", str(workspace["data"])],
        "sweep": ["--data", str(workspace["data"]), "--base", str(workspace["base"])],
    }[command]
    argv = [command, "--config", str(config), "--set", override, *inputs, "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert _single_error_line(capsys)["error"] == "config"
    assert not out.exists()


@pytest.mark.parametrize("metric", ["loss", "error"])
def test_overflowing_plane_range_exits_non_finite_code(workspace, tmp_path, capsys, metric):
    # Finite but huge plane coordinates overflow the logits; no nan cell may be written.
    manifest = trainer.load_manifest(workspace["manifest"])
    paths = [manifest.checkpoint_path(e) for e in manifest.entries[:2]]
    out = tmp_path / "plane.csv"
    argv = ["plane", "--ckpt-a", str(workspace["base"]), "--ckpt-b", str(paths[0]),
            "--ckpt-c", str(paths[1]), "--data", str(workspace["data"]), "--metric", metric,
            "--x-range=-1e300:1e300:3", "--y-range=0:1:2", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_SHAPE
    assert _single_error_line(capsys)["error"] == "non-finite"
    assert not out.exists()


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_dataset_config_exits_config_code(workspace, tmp_path, capsys, value):
    out = tmp_path / "data"
    argv = ["datagen", "--config", str(workspace["config"]),
            "--set", f"dataset.class_center_scale={value}", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert _single_error_line(capsys)["error"] == "config"
    assert not out.exists()


@pytest.mark.parametrize("key", ["mixup_alpha", "learning_rate", "sam_rho"])
@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_non_finite_hyper_config_exits_config_code(workspace, tmp_path, capsys, key, value):
    out = tmp_path / "theta0.ckpt"
    argv = ["pretrain", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
            "--set", f"pretrain.{key}={value}", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert _single_error_line(capsys)["error"] == "config"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--soup", "--eval-report"])
@pytest.mark.parametrize(
    "raw",
    [b"not json", b"\xff\xfe{}", b"[1, 2]", b'{"x": NaN}', b'{"x": Infinity}'],
    ids=["not-json", "not-utf8", "not-object", "nan", "infinity"],
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


# ------------------------------------------------- the process entry point


@pytest.fixture
def freezes(monkeypatch):
    """Record ``gc.freeze`` calls instead of freezing the test process."""
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    return calls


@pytest.mark.parametrize(
    "argv, code",
    [
        (["eval", "--ckpt", "{base}", "--data", "{data}"], cli.EXIT_OK),
        (["frobnicate"], cli.EXIT_CONFIG),
        (["eval", "--ckpt", "{missing}", "--data", "{data}"], cli.EXIT_MISSING_INPUT),
    ],
)
def test_run_returns_the_exit_code_of_main(
    workspace, tmp_path, monkeypatch, capsys, freezes, argv, code
):
    paths = {"base": workspace["base"], "data": workspace["data"], "missing": tmp_path / "x.ckpt"}
    argv = [arg.format(**paths) for arg in argv] + ["--out", str(tmp_path / "e.json")]
    monkeypatch.setattr(sys, "argv", ["soupkit", *argv])
    assert cli.run() == code
    assert freezes == ["freeze"]
    assert (tmp_path / "e.json").exists() == (code == cli.EXIT_OK)
    assert len(capsys.readouterr().err.splitlines()) == (code != cli.EXIT_OK)


def test_run_freezes_only_after_main_returns(monkeypatch, freezes):
    monkeypatch.setattr(cli, "main", lambda: freezes.append("main") or 7)
    assert cli.run() == 7
    assert freezes == ["main", "freeze"]


def test_main_leaves_the_collector_as_it_found_it(workspace, tmp_path, capsys):
    state = gc.isenabled(), gc.get_freeze_count()
    run_ok(["eval", "--ckpt", str(workspace["base"]), "--data", str(workspace["data"]),
            "--out", str(tmp_path / "e.json")])
    assert cli.main(["frobnicate"]) == cli.EXIT_CONFIG
    assert (gc.isenabled(), gc.get_freeze_count()) == state


def test_console_script_is_the_process_entry_point():
    pyproject = (SRC_DIR.parent / "pyproject.toml").read_text()
    assert 'soupkit = "soupkit.cli:run"' in pyproject.splitlines()


def test_module_entry_point_writes_stdout_stderr_and_artifacts(workspace, tmp_path):
    proc = _run_cli_process(["--help"])
    assert proc.returncode == 0 and proc.stdout.startswith("usage: soupkit")
    assert proc.stderr == ""

    def eval_argv(ckpt, out):
        return ["eval", "--ckpt", str(ckpt), "--data", str(workspace["data"]), "--out", str(out)]

    proc = _run_cli_process(eval_argv(workspace["base"], tmp_path / "e.json"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    run_ok(eval_argv(workspace["base"], tmp_path / "in-process.json"))
    assert (tmp_path / "e.json").read_bytes() == (tmp_path / "in-process.json").read_bytes()
    proc = _run_cli_process(eval_argv(tmp_path / "x.ckpt", tmp_path / "m.json"))
    assert proc.returncode == cli.EXIT_MISSING_INPUT
    (line,) = proc.stderr.splitlines()
    assert json.loads(line)["error"] == "missing-input"
    assert not (tmp_path / "m.json").exists()


# ---------------------------------------------- hostile inputs, one property

# Every weight +-3e38 with random signs: finite in float32, but the logits of
# this arch overflow, so every loss and confidence computed from them is NaN.
HOSTILE_ARCH = ArchSpec((4, 5, 5, 5, 5, 3))

# argv before --out; {config}, {ckpt}, {data} and {manifest} name the inputs
HOSTILE_COMMANDS = {
    "datagen": ["datagen", "--config", "{config}"],
    "pretrain": ["pretrain", "--config", "{config}", "--data", "{data}"],
    "eval": ["eval", "--ckpt", "{ckpt}", "--data", "{data}"],
    "interp": ["interp", "--ckpt-a", "{ckpt}", "--ckpt-b", "{ckpt}", "--data", "{data}"],
    "plane": ["plane", "--ckpt-a", "{ckpt}", "--ckpt-b", "{ckpt}", "--ckpt-c", "{ckpt}",
              "--data", "{data}", "--x-range", "0:1:2", "--y-range", "0:1:2"],
    "calibrate-ckpt": ["calibrate", "--ckpt", "{ckpt}", "--data", "{data}"],
    "calibrate-manifest": ["calibrate", "--manifest", "{manifest}", "--data", "{data}"],
    "ensemble": ["ensemble", "uniform", "--manifest", "{manifest}", "--data", "{data}"],
    "soup-uniform": ["soup", "uniform", "--manifest", "{manifest}"],
    "soup-greedy": ["soup", "greedy", "--manifest", "{manifest}", "--data", "{data}"],
    "grid-study": ["grid-study", "--manifest", "{manifest}", "--data", "{data}"],
    "report": ["report", "--manifest", "{manifest}"],
    "sweep": ["sweep", "--config", "{config}", "--data", "{data}", "--base", "{ckpt}"],
}


def _reading(*slots: str) -> tuple[str, ...]:
    return tuple(c for c, argv in HOSTILE_COMMANDS.items()
                 if any("{%s}" % slot in argv for slot in slots))


# report reads the manifest but none of its checkpoints
CHECKPOINT_READERS = tuple(c for c in _reading("ckpt", "manifest") if c != "report")


# corrupted input kind -> (expected exit code, the commands it must stop)
HOSTILE_KINDS = {
    "overflowing-checkpoint": (
        cli.EXIT_SHAPE, ("eval", "interp", "calibrate-ckpt", "calibrate-manifest", "ensemble")
    ),
    "manifest-entry-field": (cli.EXIT_FORMAT, _reading("manifest")),
    "dataset-config-field": (cli.EXIT_FORMAT, _reading("data")),
    "config-section": (cli.EXIT_CONFIG, _reading("config")),
    "truncated-checkpoint": (cli.EXIT_FORMAT, CHECKPOINT_READERS),
    "header-field": (cli.EXIT_FORMAT, CHECKPOINT_READERS),
    # every command that runs a checkpoint on the data
    "misfit-checkpoint": (
        cli.EXIT_SHAPE, tuple(c for c in CHECKPOINT_READERS if c != "soup-uniform")
    ),
    "network-defect": (cli.EXIT_SHAPE, CHECKPOINT_READERS),
    "missing-input": (cli.EXIT_MISSING_INPUT, tuple(HOSTILE_COMMANDS)),
}
HOSTILE_PAIRS = [(command, kind) for kind, (_, commands) in HOSTILE_KINDS.items()
                 for command in commands]

# values a manifest entry field cannot hold (each entry has error null)
BAD_ENTRY_FIELDS = {
    "index": ["0", 0.0, True, None, [0]],
    "path": [5, 1.5, False, None, ["m.ckpt"], {}],
    "ema_path": [5, True, []],
    "error": [5, 0.0, True, {}],
    "val_accuracy": ["x", "0.5", True, None, [0.5], math.nan, math.inf, -math.inf],
    "ema_val_accuracy": ["x", False, {}, math.nan, -math.inf],
}
# widths that do not fit the hostile data (4 features, 3 classes): another
# input width, fewer classes than the labels, more than the config
MISFIT_ARCHES = [ArchSpec((5, 6, 3)), ArchSpec((4, 6, 2)), ArchSpec((4, 6, 4))]
# values no dataset config field can hold
BAD_CONFIG_VALUES = ["x", None, True, [], {}, math.nan, math.inf, -math.inf]
# run config sections that no command may accept, whichever sections it runs
BAD_CONFIG_SECTIONS = {
    "dataset": [5, [], {"bogus_key": 1}, {"num_train": "x"}, {"input_dim": 0}],
    "arch": [5, {}, {"layer_widths": "x"}, {"layer_widths": [4, 0, 3]},
             {"layer_widths": [4, 5, 3], "bogus_key": 1}],
    "pretrain": [5, None, {"bogus_key": 1}, {"epochs": "x"}, {"optimizer": "lbfgs"}],
    "sweep": [5, {}, {"bogus_key": 1}, {"count": 2}, {"count": "x", "master_seed": 0},
              {"count": 0, "master_seed": 0}, {"count": 2, "master_seed": 0, "space": 5},
              {"count": 2, "master_seed": 0, "space": {"bogus_key": 1}}, {"configs": []},
              {"configs": [5]}, {"configs": [{"epochs": "x"}]}, {"configs": [{}], "count": 2}],
    "datasets": [{}],
}
# values a checkpoint header's tensor entry field cannot hold; the entry is the
# first one, layer0.weight of shape (4, 5), which "45", [4.7, 5] and [true, 20]
# were once read as
BAD_HEADER_FIELDS = {
    "name": [5, None, ["layer0.weight"]],
    "shape": ["45", [4.7, 5], [True, 20], [4, "5"], [-4, -5], None, 20],
    "offset": ["0", 0.0, True, None, -64],
    "nbytes": ["80", 80.0, True, None],
    "dtype": ["<f4"],  # a key the writer does not write
}


def _manifest_doc(ckpt: Path) -> dict:
    entry = {"index": 0, "config": {}, "path": str(ckpt), "val_accuracy": 0.5,
             "ema_path": None, "ema_val_accuracy": None, "error": None}
    return {"theta0_digest": "", "entries": [entry, {**entry, "index": 1}]}


def _write_manifest(path: Path, ckpt: Path) -> Path:
    path.write_text(json.dumps(_manifest_doc(ckpt)))
    return path


def _with_header_entry(blob: bytes, **fields) -> bytes:
    """The checkpoint ``blob`` with ``fields`` set in its first tensor entry; the
    payload moves with the header, so only the entry changes."""
    (length,) = struct.unpack_from("<I", blob, 12)
    header = json.loads(blob[16 : 16 + length])
    payload = blob[(16 + length + 63) // 64 * 64 :]
    header["tensors"][0].update(fields)
    text = json.dumps(header).encode()
    return blob[:12] + struct.pack("<I", len(text)) + text + bytes(-(16 + len(text)) % 64) + payload


def _hostile_argv(command: str, inputs: dict, out: Path) -> list[str]:
    text = {k: str(v) for k, v in inputs.items()}
    return [arg.format(**text) for arg in HOSTILE_COMMANDS[command]] + ["--out", str(out)]


@pytest.fixture(scope="module")
def hostile(tmp_path_factory):
    """A small dataset for HOSTILE_ARCH, a sane and an overflowing checkpoint,
    and a two-entry manifest over each (entry paths are absolute)."""
    root = tmp_path_factory.mktemp("hostile")
    cfg = datagen.DatasetConfig(input_dim=4, num_classes=3, num_train=24, num_val=24,
                                num_test=24, num_shift=24)
    datagen.save_csv(datagen.generate(cfg), root / "data")
    run_config = {"dataset": dataclasses.asdict(cfg),
                  "arch": {"layer_widths": list(HOSTILE_ARCH.layer_widths)},
                  "pretrain": {"epochs": 1}, "sweep": {"configs": [{"epochs": 1}]}}
    (root / "config.json").write_text(json.dumps(run_config))
    sane = init_checkpoint(HOSTILE_ARCH, 0)
    signs = np.where(PortableRng(1).uniforms(sane.vector.size) < 0.5, -1.0, 1.0)
    overflow = Checkpoint(sane.layout, (3e38 * signs).astype(np.float32), {})
    save_checkpoint(sane, root / "sane.ckpt")
    save_checkpoint(overflow, root / "overflow.ckpt")
    return {
        "root": root,
        "config": root / "config.json",
        "data": root / "data",
        "sane": root / "sane.ckpt",
        "overflow": root / "overflow.ckpt",
        "sane-manifest": _write_manifest(root / "sane.json", root / "sane.ckpt"),
        "overflow-manifest": _write_manifest(root / "overflow.json", root / "overflow.ckpt"),
    }


def _corrupt(kind: str, hostile: dict, tmp: Path, draw) -> dict:
    """Inputs for one command with one input corrupted as ``kind`` says."""
    inputs = {"config": hostile["config"], "data": hostile["data"], "ckpt": hostile["sane"],
              "manifest": hostile["sane-manifest"]}
    if kind == "overflowing-checkpoint":
        inputs.update(ckpt=hostile["overflow"], manifest=hostile["overflow-manifest"])
    elif kind == "manifest-entry-field":
        field = draw(st.sampled_from(sorted(BAD_ENTRY_FIELDS)))
        doc = _manifest_doc(hostile["sane"])
        doc["entries"][draw(st.sampled_from([0, 1]))][field] = draw(
            st.sampled_from(BAD_ENTRY_FIELDS[field]))
        inputs["manifest"] = tmp / "manifest.json"
        inputs["manifest"].write_text(json.dumps(doc))
    elif kind == "dataset-config-field":
        inputs["data"] = tmp / "data"
        shutil.copytree(hostile["data"], inputs["data"])
        path = inputs["data"] / "config.json"
        config = json.loads(path.read_text())
        config[draw(st.sampled_from([*config, "unknown_field"]))] = draw(
            st.sampled_from(BAD_CONFIG_VALUES))
        path.write_text(json.dumps(config))
    elif kind == "config-section":
        section = draw(st.sampled_from(sorted(BAD_CONFIG_SECTIONS)))
        doc = json.loads(hostile["config"].read_text())
        doc[section] = draw(st.sampled_from(BAD_CONFIG_SECTIONS[section]))
        inputs["config"] = tmp / "config.json"
        inputs["config"].write_text(json.dumps(doc))
    elif kind == "header-field":
        field = draw(st.sampled_from(sorted(BAD_HEADER_FIELDS)))
        blob = _with_header_entry(hostile["sane"].read_bytes(),
                                  **{field: draw(st.sampled_from(BAD_HEADER_FIELDS[field]))})
        inputs["ckpt"] = tmp / "header.ckpt"
        inputs["ckpt"].write_bytes(blob)
        inputs["manifest"] = _write_manifest(tmp / "manifest.json", inputs["ckpt"])
    elif kind == "truncated-checkpoint":
        blob = hostile["sane"].read_bytes()
        inputs["ckpt"] = tmp / "cut.ckpt"
        inputs["ckpt"].write_bytes(blob[: draw(st.integers(0, len(blob) - 1))])
        inputs["manifest"] = _write_manifest(tmp / "manifest.json", inputs["ckpt"])
    elif kind == "misfit-checkpoint":
        inputs["ckpt"] = tmp / "misfit.ckpt"
        save_checkpoint(init_checkpoint(draw(st.sampled_from(MISFIT_ARCHES)), 0), inputs["ckpt"])
        inputs["manifest"] = _write_manifest(tmp / "manifest.json", inputs["ckpt"])
    elif kind == "network-defect":
        defect = NETWORK_DEFECTS[draw(st.sampled_from(sorted(NETWORK_DEFECTS)))]
        tensors = defect(dict(load_checkpoint(hostile["sane"])))
        inputs["ckpt"] = tmp / "defect.ckpt"
        save_checkpoint(Checkpoint.from_arrays(tensors), inputs["ckpt"])
        inputs["manifest"] = _write_manifest(tmp / "manifest.json", inputs["ckpt"])
    else:  # missing-input
        inputs = {name: tmp / f"missing-{name}" for name in inputs}
    return inputs


@settings(max_examples=100, deadline=None)
@given(pair=st.sampled_from(HOSTILE_PAIRS), data=st.data())
def test_hostile_input_exits_documented_code_and_writes_nothing(hostile, pair, data):
    command, kind = pair
    expected = HOSTILE_KINDS[kind][0]
    with tempfile.TemporaryDirectory(dir=hostile["root"]) as name:
        tmp = Path(name)
        argv = _hostile_argv(command, _corrupt(kind, hostile, tmp, data.draw), tmp / "out")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        assert code == expected and code in (2, 3, 5, 6), (argv, stderr.getvalue())
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1, lines
        assert set(json.loads(lines[0])) == {"error", "type", "message"}
        assert not list(tmp.glob("out*"))


# Requested sizes past any address space (over 700 PiB), so that NumPy fails
# at once under every overcommit policy, before it writes any of the array.
OVERSIZED = {
    "datagen": ["datagen", "--set", f"dataset.num_train={10**17}"],
    "plane": ["plane", "--ckpt-a", "{ckpt}", "--ckpt-b", "{ckpt}", "--ckpt-c", "{ckpt}",
              "--data", "{data}", f"--x-range=0:1:{10**17}", "--y-range", "0:1:2"],
}


@pytest.mark.parametrize("command", sorted(OVERSIZED))
def test_size_too_large_to_allocate_exits_config_code(hostile, tmp_path, capsys, command):
    argv = [arg.format(ckpt=hostile["sane"], data=hostile["data"]) for arg in OVERSIZED[command]]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    line = _single_error_line(capsys)
    assert (line["error"], line["type"]) == ("too-large", "MemoryError")
    assert not list(tmp_path.glob("out*"))


def test_every_bad_field_value_is_a_format_error(hostile, tmp_path):
    # The property above samples these pools; here each value is tried once.
    manifest = tmp_path / "manifest.json"
    for field, values in BAD_ENTRY_FIELDS.items():
        for value in values:
            doc = _manifest_doc(hostile["sane"])
            doc["entries"][0][field] = value
            manifest.write_text(json.dumps(doc))
            with pytest.raises(DataFormatError):
                trainer.load_manifest(manifest)
    data = tmp_path / "data"
    shutil.copytree(hostile["data"], data)
    config = json.loads((data / "config.json").read_text())
    for field in [*config, "unknown_field"]:
        for value in BAD_CONFIG_VALUES:
            (data / "config.json").write_text(json.dumps({**config, field: value}))
            with pytest.raises(DataFormatError):
                datagen.load_csv(data)


def test_every_bad_header_field_and_config_section_is_rejected(hostile):
    # The property above samples these pools too; here each value is tried once.
    blob = hostile["sane"].read_bytes()
    sane = load_checkpoint(hostile["sane"])
    assert content_digest(deserialize(_with_header_entry(blob))) == content_digest(sane)
    for field, values in BAD_HEADER_FIELDS.items():
        for value in values:
            with pytest.raises(CheckpointFormatError):
                deserialize(_with_header_entry(blob, **{field: value}))
    config = str(hostile["config"])
    assert cli.load_run_config(config).arch == HOSTILE_ARCH
    for section, values in BAD_CONFIG_SECTIONS.items():
        for value in values:
            with pytest.raises(ConfigError):
                cli.load_run_config(config, [f"{section}={json.dumps(value)}"])


# ------------------------------------ valid but degenerate inputs, one property

# argv per command; {out} is the artifact path without its suffix
DEGENERATE_COMMANDS = {
    "datagen": ["datagen", "--set", "dataset.input_dim=4", "--set", "dataset.num_classes=3",
                "--set", "dataset.num_train=24", "--set", "dataset.num_val=24",
                "--set", "dataset.num_test=24", "--set", "dataset.num_shift=24",
                "--set", "{dataset_set}", "--out", "{out}"],
    "eval": ["eval", "--ckpt", "{ckpt}", "--data", "{data}", "--out", "{out}.json"],
    "interp": ["interp", "--ckpt-a", "{ckpt}", "--ckpt-b", "{ckpt_b}", "--data", "{data}",
               "--alphas", "0,0.5,1", "--out", "{out}.csv"],
    "plane": ["plane", "--ckpt-a", "{ckpt}", "--ckpt-b", "{ckpt_b}", "--ckpt-c", "{ckpt_c}",
              "--data", "{data}", "--x-range", "0:1:2", "--y-range", "0:1:2",
              "--out", "{out}.csv"],
    "approx": ["approx", "--pairs", "{pairs}", "--data", "{data}", "--alphas", "0,0.5,1",
               "--out", "{out}.csv"],
    "calibrate-ckpt": ["calibrate", "--ckpt", "{ckpt}", "--data", "{data}",
                       "--out", "{out}.csv"],
    "calibrate-manifest": ["calibrate", "--manifest", "{manifest}", "--data", "{data}",
                           "--out", "{out}.csv"],
    "ensemble-uniform": ["ensemble", "uniform", "--manifest", "{manifest}", "--data", "{data}",
                         "--out", "{out}.json"],
    "ensemble-greedy": ["ensemble", "greedy", "--manifest", "{manifest}", "--data", "{data}",
                        "--out", "{out}.json"],
    "soup-uniform": ["soup", "uniform", "--manifest", "{manifest}", "--out", "{out}.ckpt"],
    "soup-greedy": ["soup", "greedy", "--manifest", "{manifest}", "--data", "{data}",
                    "--out", "{out}.ckpt"],
    "soup-learned": ["soup", "learned", "--manifest", "{manifest}", "--data", "{data}",
                     "--out", "{out}.ckpt"],
    "soup-learned-by-layer": ["soup", "learned", "--manifest", "{manifest}", "--data", "{data}",
                              "--by-layer", "--out", "{out}.ckpt"],
    "grid-study": ["grid-study", "--manifest", "{manifest}", "--data", "{data}",
                   "--out", "{out}.csv"],
    "report": ["report", "--manifest", "{manifest}", "--out", "{out}.json"],
}
_MANIFEST_COMMANDS = tuple(c for c, argv in DEGENERATE_COMMANDS.items() if "{manifest}" in argv)

# (command, degenerate kind) -> exit code
DEGENERATE_CASES = {
    **{(c, "all-failed-manifest"): cli.EXIT_CONFIG for c in _MANIFEST_COMMANDS if c != "report"},
    ("report", "all-failed-manifest"): cli.EXIT_OK,
    **{(c, "one-entry-manifest"): cli.EXIT_OK for c in _MANIFEST_COMMANDS if c != "grid-study"},
    ("grid-study", "one-entry-manifest"): cli.EXIT_CONFIG,
    ("plane", "equal-endpoints"): cli.EXIT_SHAPE,
    ("interp", "equal-endpoints"): cli.EXIT_OK,
    ("approx", "equal-endpoints"): cli.EXIT_OK,
    **{(c, "one-row-test-split"): cli.EXIT_OK
       for c in ("datagen", "eval", "interp", "calibrate-ckpt", "calibrate-manifest",
                 "ensemble-uniform", "approx")},
    ("datagen", "zero-row-val-split"): cli.EXIT_CONFIG,
    ("datagen", "one-class"): cli.EXIT_CONFIG,
}
# what datagen is asked for under each kind
DEGENERATE_DATASETS = {"one-row-test-split": "dataset.num_test=1",
                       "zero-row-val-split": "dataset.num_val=0", "one-class": "dataset.num_classes=1"}


@pytest.fixture(scope="module")
def degenerate(hostile):
    """The hostile fixture's sane inputs plus a second and third checkpoint, an
    all-failed and a one-entry manifest, and a dataset with one test row."""
    root = hostile["root"]
    for seed in (1, 2):
        save_checkpoint(init_checkpoint(HOSTILE_ARCH, seed), root / f"init{seed}.ckpt")
    cfg = datagen.DatasetConfig(input_dim=4, num_classes=3, num_train=24, num_val=24,
                                num_test=1, num_shift=24)
    datagen.save_csv(datagen.generate(cfg), root / "one-test-row")
    failed = {"index": 0, "config": {}, "path": None, "val_accuracy": None,
              "error": "DivergenceError: non-finite training loss at step 0"}
    doc = _manifest_doc(hostile["sane"])
    (root / "all-failed.json").write_text(json.dumps(
        {**doc, "entries": [failed, {**failed, "index": 1}]}))
    (root / "one-entry.json").write_text(json.dumps({**doc, "entries": doc["entries"][:1]}))
    return {**hostile, "init1": root / "init1.ckpt", "init2": root / "init2.ckpt",
            "one-test-row": root / "one-test-row", "all-failed": root / "all-failed.json",
            "one-entry": root / "one-entry.json"}


def _pairs_file(path: Path, endpoints: list[tuple[Path, Path]]) -> Path:
    path.write_text(json.dumps([{"id": f"p{i}", "theta0": str(a), "theta1": str(b)}
                                for i, (a, b) in enumerate(endpoints)]))
    return path


def _degenerate_argv(command: str, kind: str, fx: dict, tmp: Path) -> list[str]:
    inputs = {"ckpt": fx["sane"], "ckpt_b": fx["init1"], "ckpt_c": fx["init2"],
              "data": fx["data"], "manifest": fx["sane-manifest"],
              "dataset_set": DEGENERATE_DATASETS.get(kind, ""), "out": tmp / "out"}
    distinct = [(fx["sane"], fx["init1"]), (fx["init1"], fx["init2"])]
    if kind == "equal-endpoints":
        inputs["ckpt_b"] = fx["sane"]
        inputs["pairs"] = _pairs_file(tmp / "pairs.json", [(a, a) for a, _ in distinct])
    else:
        inputs["pairs"] = _pairs_file(tmp / "pairs.json", distinct)
    if kind in ("all-failed-manifest", "one-entry-manifest"):
        inputs["manifest"] = fx[kind.removesuffix("-manifest")]
    elif kind == "one-row-test-split":
        inputs["data"] = fx["one-test-row"]
    text = {k: str(v) for k, v in inputs.items()}
    return [arg.format(**text) for arg in DEGENERATE_COMMANDS[command]]


def _strict_json(text: str):
    def refuse(token):
        raise AssertionError(f"non-finite JSON value {token}")
    return json.loads(text, parse_constant=refuse)


def _assert_parses_finite(path: Path) -> None:
    """The artifact at ``path`` reads back, and every number in it is finite."""
    if path.is_dir():
        ds = datagen.load_csv(path)
        assert all(np.isfinite(split.x).all() for split in ds.splits.values())
    elif path.suffix == ".ckpt":
        assert np.isfinite(load_checkpoint(path).vector).all()
    elif path.suffix == ".json":
        _strict_json(path.read_text())
    else:
        rows = list(csv.reader(path.read_text().splitlines()))
        assert len(rows) >= 2, rows
        for cell in (c for row in rows[1:] for c in row):
            try:
                value = float(cell)
            except ValueError:
                continue  # a label or NA
            assert math.isfinite(value), (path, cell)


@pytest.mark.parametrize("case", sorted(DEGENERATE_CASES), ids="-".join)
def test_degenerate_input_exits_documented_code(degenerate, case):
    command, kind = case
    with tempfile.TemporaryDirectory(dir=degenerate["root"]) as name:
        tmp = Path(name)
        argv = _degenerate_argv(command, kind, degenerate, tmp)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        assert code == DEGENERATE_CASES[case] and code in (0, 2, 6), (argv, stderr.getvalue())
        artifacts = sorted(tmp.glob("out*"))
        if code == cli.EXIT_OK:
            assert stderr.getvalue() == ""
            assert artifacts
            for path in artifacts:
                _assert_parses_finite(path)
        else:
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1, lines
            assert set(json.loads(lines[0])) == {"error", "type", "message"}
            assert not artifacts


@pytest.mark.parametrize("command", ["interp", "calibrate-ckpt"])
def test_overflowing_checkpoint_writes_no_csv(hostile, tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    inputs = {"ckpt": hostile["overflow"], "data": hostile["data"]}
    assert cli.main(_hostile_argv(command, inputs, out)) == cli.EXIT_SHAPE
    assert _single_error_line(capsys)["error"] == "non-finite"
    assert not out.exists()


@pytest.mark.parametrize(
    "widths, with_config",
    [(arch.layer_widths, True) for arch in MISFIT_ARCHES]
    + [((5, 6, 3), False), ((4, 6, 2), False)],
)
def test_sweep_from_a_base_that_does_not_fit_exits_shape_code(
    hostile, tmp_path, capsys, widths, with_config
):
    data = tmp_path / "data"
    shutil.copytree(hostile["data"], data)
    if not with_config:  # the labels alone then bound the class count
        (data / "config.json").unlink()
    base = tmp_path / "base.ckpt"
    save_checkpoint(init_checkpoint(ArchSpec(widths), 0), base)
    out = tmp_path / "sweep"
    argv = ["sweep", "--set", 'sweep.configs=[{"epochs": 1}, {"epochs": 1, "seed": 1}]',
            "--data", str(data), "--base", str(base), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_SHAPE
    assert _single_error_line(capsys)["type"] == "ShapeMismatchError"
    assert not out.exists()


@pytest.mark.parametrize("kind", ["uniform", "greedy", "learned"])
def test_soup_over_checkpoints_of_different_shapes_exits_shape_code(
    hostile, tmp_path, capsys, kind
):
    entries = []
    for index, arch in enumerate([ArchSpec((4, 5, 3)), ArchSpec((4, 6, 3))]):
        save_checkpoint(init_checkpoint(arch, index), tmp_path / f"m{index}.ckpt")
        entries.append({"index": index, "config": {}, "path": f"m{index}.ckpt",
                        "val_accuracy": 0.5})
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"theta0_digest": "", "entries": entries}))
    out = tmp_path / "soup.ckpt"
    argv = ["soup", kind, "--manifest", str(manifest), "--out", str(out)]
    if kind != "uniform":
        argv += ["--data", str(hostile["data"])]
    assert cli.main(argv) == cli.EXIT_SHAPE
    assert _single_error_line(capsys)["error"] == "shape-mismatch"
    assert not list(tmp_path.glob("soup.ckpt*"))


def test_malformed_dataset_config_exits_format_code(workspace, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    config = json.loads((data / "config.json").read_text())
    (data / "config.json").write_text(json.dumps({**config, "num_classes": "x"}))
    out = tmp_path / "r.json"
    argv = ["eval", "--ckpt", str(workspace["base"]), "--data", str(data), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_FORMAT
    assert _single_error_line(capsys)["error"] == "data-format"
    assert not out.exists()


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


def test_grid_study_on_one_successful_entry_exits_config_code(workspace, tmp_path, capsys):
    sweep = workspace["manifest"].parent
    doc = json.loads(workspace["manifest"].read_text())
    entry = {**doc["entries"][0], "path": str(sweep / doc["entries"][0]["path"])}
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({**doc, "entries": [entry]}))
    out = tmp_path / "grid.csv"
    argv = ["grid-study", "--manifest", str(manifest), "--data", str(workspace["data"]),
            "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert _single_error_line(capsys)["error"] == "config"
    assert not out.exists()


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


def test_calibrate_loads_models_then_the_dataset_then_its_splits(workspace, tmp_path, capsys):
    # The order of soup, ensemble and grid-study: with an unknown --fit-split
    # too, a missing or misfit model is the error reported.
    misfit = tmp_path / "misfit.ckpt"
    save_checkpoint(init_checkpoint(ArchSpec((5, 6, 3)), 0), misfit)
    out = tmp_path / "cal.csv"
    argv = ["calibrate", "--data", str(workspace["data"]), "--fit-split", "nope", "--out", str(out)]
    run_fail([*argv, "--manifest", str(tmp_path / "missing.json")], cli.EXIT_MISSING_INPUT,
             "missing-input", capsys)
    run_fail([*argv, "--ckpt", str(misfit)], cli.EXIT_SHAPE, "shape-mismatch", capsys)
    run_fail([*argv, "--ckpt", str(workspace["base"])], cli.EXIT_CONFIG, "config", capsys)
    assert not out.exists()


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
