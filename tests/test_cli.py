"""End-to-end tests of the command-line interface.

A module-scoped workspace runs the real pipeline once (datagen ->
pretrain -> sweep of four configs); individual tests drive each
subcommand against those artifacts and check outputs and determinism.
The documented exit codes are one contract table: every input defect runs
over every command that reads that input.
"""

import argparse
import contextlib
import dataclasses
import functools
import gc
import io
import itertools
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

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


# ------------------------------------------- usage, imports, entry points


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
        ["report", "--out", "o"],
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


# ------------------------------------------ the exit-code contract, one table
#
# COMMANDS holds every command form the parser accepts, its inputs written as
# {slot} placeholders. DEFECTS gives each input defect the slot it corrupts,
# its exit code and its stderr category. test_exit_code_contract runs every
# defect over every command that reads its slot, and checks the contract each
# run shares: the exit code; on failure one JSON line on stderr naming the
# category, and nothing new under --out; on success an empty stderr and
# artifacts that hold only finite numbers.

# Every weight +-3e38 with random signs is finite in float32, but the logits of
# this arch overflow, so every loss and confidence computed from them is NaN.
ARCH = ArchSpec((4, 5, 5, 5, 5, 3))
ROWS = 24  # rows in each split of the table's dataset

# argv before a defect's flags and --out. {ckpt_b} and {ckpt_c} are two more
# checkpoints; {pairs} pairs {ckpt} with {ckpt_b} and {ckpt_b} with {ckpt_c}.
COMMANDS = {
    "datagen": ["datagen", "--config", "{config}"],
    "pretrain": ["pretrain", "--config", "{config}", "--data", "{data}"],
    "sweep": ["sweep", "--config", "{config}", "--data", "{data}", "--base", "{ckpt}"],
    "soup-uniform": ["soup", "uniform", "--manifest", "{manifest}"],
    "soup-greedy": ["soup", "greedy", "--manifest", "{manifest}", "--data", "{data}"],
    "soup-learned": ["soup", "learned", "--manifest", "{manifest}", "--data", "{data}"],
    "soup-learned-by-layer": ["soup", "learned", "--manifest", "{manifest}", "--data", "{data}",
                              "--by-layer"],
    "ensemble-uniform": ["ensemble", "uniform", "--manifest", "{manifest}", "--data", "{data}"],
    "ensemble-greedy": ["ensemble", "greedy", "--manifest", "{manifest}", "--data", "{data}"],
    "eval": ["eval", "--ckpt", "{ckpt}", "--data", "{data}"],
    "interp": ["interp", "--ckpt-a", "{ckpt}", "--ckpt-b", "{ckpt_b}", "--data", "{data}",
               "--alphas", "0,0.5,1"],
    "plane": ["plane", "--ckpt-a", "{ckpt}", "--ckpt-b", "{ckpt_b}", "--ckpt-c", "{ckpt_c}",
              "--data", "{data}", "--x-range", "0:1:2", "--y-range", "0:1:2"],
    "grid-study": ["grid-study", "--manifest", "{manifest}", "--data", "{data}"],
    "approx": ["approx", "--pairs", "{pairs}", "--data", "{data}", "--alphas", "0,0.5,1"],
    "calibrate-ckpt": ["calibrate", "--ckpt", "{ckpt}", "--data", "{data}"],
    "calibrate-manifest": ["calibrate", "--manifest", "{manifest}", "--data", "{data}"],
    "report": ["report", "--manifest", "{manifest}", "--soup", "{soup}",
               "--eval-report", "{eval_report}"],
}
INPUT_SLOTS = ("config", "data", "ckpt", "ckpt_b", "ckpt_c", "manifest", "pairs", "soup",
               "eval_report")
WRITES_DIRECTORY = ("datagen", "sweep")


def _subcommands(parser: argparse.ArgumentParser) -> dict | None:
    return next((a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)), None)


def _words(argv: list[str]) -> tuple[str, ...]:
    """The command words of ``argv``, e.g. ("soup", "learned")."""
    return tuple(itertools.takewhile(lambda arg: not arg.startswith("-"), argv))


@functools.cache
def _options(command: str) -> frozenset[str]:
    """The flags the parser accepts for ``command``'s form."""
    parser = cli.build_parser()
    for word in _words(COMMANDS[command]):
        parser = _subcommands(parser)[word]
    return frozenset(s for action in parser._actions for s in action.option_strings)


def _reads(command: str, slot: str) -> bool:
    """Whether ``command`` reads ``slot``: a {placeholder} in its argv, a flag
    its parser accepts, or one of the derived slots below."""
    argv = COMMANDS[command]
    if slot.startswith("--"):
        return slot in _options(command)
    names = {s for s in INPUT_SLOTS if "{%s}" % s in argv}
    derived = {
        "inputs": True,  # all of its inputs at once
        # the checkpoints it loads, named directly or in a manifest or pairs file
        "model": command != "report" and bool(names & {"ckpt", "manifest", "pairs"}),
        # two or more checkpoints it reads together
        "models": command != "report" and bool(names & {"ckpt_b", "manifest", "pairs"}),
        # the ends of a line or a plane in weight space
        "endpoints": bool(names & {"ckpt_b", "pairs"}),
        "out": True,
        "file-out": command not in WRITES_DIRECTORY,
        "directory-out": command in WRITES_DIRECTORY,
        "sidecar": argv[0] == "soup",
    }
    return derived[slot] if slot in derived else slot in names


class Defect(NamedTuple):
    """One input defect. ``make(inputs, value)`` corrupts the sane ``inputs``
    in place with a ``value`` from ``pool``. The pool is shared out over the
    readers of ``slot``, so each value runs on some reader on every run."""

    slot: str
    code: int
    category: str | None  # the stderr "error"; None for a success
    make: Callable[[dict, object], None]
    pool: tuple = (None,)
    # command -> (code, category), for a reader documented to differ
    exits: dict = {}
    # on success, the artifact holds the bytes of a run with these flags instead
    same_as: tuple = ()


def _manifest_doc(*ckpts: Path) -> dict:
    entry = {"index": 0, "config": {}, "path": "", "val_accuracy": 0.5,
             "ema_path": None, "ema_val_accuracy": None, "error": None}
    entries = [{**entry, "index": i, "path": str(ckpt)} for i, ckpt in enumerate(ckpts)]
    return {"theta0_digest": "", "entries": entries}


def _write_manifest(path: Path, *ckpts: Path) -> Path:
    path.write_text(json.dumps(_manifest_doc(*ckpts)))
    return path


def _pairs_file(path: Path, endpoints: list[tuple[Path, Path]]) -> Path:
    path.write_text(json.dumps([{"id": f"p{i}", "theta0": str(a), "theta1": str(b)}
                                for i, (a, b) in enumerate(endpoints)]))
    return path


def _one_tensor_checkpoint(**entry) -> bytes:
    """A checkpoint file declaring one tensor ``w`` at offset 0, ``entry`` overriding."""
    header = json.dumps({"tensors": [{"name": "w", "offset": 0, **entry}], "meta": {}}).encode()
    return b"SOUPCKPT" + struct.pack("<II", 1, len(header)) + header + bytes(64)


def _with_header_entry(blob: bytes, **fields) -> bytes:
    """The checkpoint ``blob`` with ``fields`` set in its first tensor entry; the
    payload moves with the header, so only the entry changes."""
    (length,) = struct.unpack_from("<I", blob, 12)
    header = json.loads(blob[16 : 16 + length])
    payload = blob[(16 + length + 63) // 64 * 64 :]
    header["tensors"][0].update(fields)
    text = json.dumps(header).encode()
    return blob[:12] + struct.pack("<I", len(text)) + text + bytes(-(16 + len(text)) % 64) + payload


# ---- makes: each corrupts the sane inputs in place


def _flags(inputs: dict, flags) -> None:
    inputs["flags"] += flags


def _every_input_missing(inputs: dict, _=None) -> None:
    for slot in INPUT_SLOTS:
        inputs[slot] = inputs["tmp"] / f"missing-{slot}"


def _flags_before_any_read(inputs: dict, flags) -> None:
    """The flags with every input missing: a read before the flag check exits 3."""
    _every_input_missing(inputs)
    _flags(inputs, flags)


def _file(slot: str):
    """A make that gives ``slot`` a file holding the value's bytes."""
    def make(inputs: dict, raw: bytes) -> None:
        inputs[slot] = inputs["tmp"] / f"{slot}.input"
        inputs[slot].write_bytes(raw)
    return make


def _missing(slot: str):
    return lambda inputs, _: inputs.update({slot: inputs["tmp"] / f"missing-{slot}"})


def _directory(slot: str):
    def make(inputs: dict, _) -> None:
        inputs[slot] = inputs["tmp"] / f"{slot}-directory"
        inputs[slot].mkdir()
    return make


def _config_section(inputs: dict, section_value) -> None:
    section, value = section_value
    doc = json.loads(inputs["config"].read_text())
    doc[section] = value
    _file("config")(inputs, json.dumps(doc).encode())


def _use_model(inputs: dict, path: Path) -> None:
    """Make ``path`` the checkpoint every reader loads: --ckpt, --base, --ckpt-a,
    both manifest entries and the first pair's theta0."""
    tmp = inputs["tmp"]
    inputs["ckpt"] = path
    inputs["manifest"] = _write_manifest(tmp / "manifest.json", path, path)
    inputs["pairs"] = _pairs_file(tmp / "pairs.json", [(path, inputs["ckpt_b"]),
                                                       (inputs["ckpt_b"], inputs["ckpt_c"])])


def _model_bytes(inputs: dict, blob: bytes) -> None:
    _use_model(inputs, inputs["tmp"] / "model.ckpt")
    inputs["ckpt"].write_bytes(blob)


def _sane_model_bytes(edit):
    """A make that writes the sane checkpoint's bytes after ``edit(blob, value)``."""
    return lambda inputs, value: _model_bytes(inputs, edit(inputs["ckpt"].read_bytes(), value))


def _network_defect(inputs: dict, defect) -> None:
    tensors = defect(dict(load_checkpoint(inputs["ckpt"])))
    _use_model(inputs, inputs["tmp"] / "model.ckpt")
    save_checkpoint(Checkpoint.from_arrays(tensors), inputs["ckpt"])


def _misfit(inputs: dict, widths) -> None:
    _use_model(inputs, inputs["tmp"] / "misfit.ckpt")
    save_checkpoint(init_checkpoint(ArchSpec(widths), 0), inputs["ckpt"])


def _misfit_without_data_config(inputs: dict, widths) -> None:
    _data(lambda data, _: (data / "config.json").unlink())(inputs, None)
    _misfit(inputs, widths)


def _model_directory(inputs: dict, _) -> None:
    _use_model(inputs, inputs["tmp"] / "model.ckpt")
    inputs["ckpt"].mkdir()


def _models_of_two_shapes(inputs: dict, _) -> None:
    a, b = inputs["tmp"] / "m0.ckpt", inputs["tmp"] / "m1.ckpt"
    save_checkpoint(init_checkpoint(ArchSpec((4, 5, 3)), 0), a)
    save_checkpoint(init_checkpoint(ArchSpec((4, 6, 3)), 1), b)
    inputs.update(ckpt=a, ckpt_b=b, ckpt_c=b)
    inputs["manifest"] = _write_manifest(inputs["tmp"] / "manifest.json", a, b)
    inputs["pairs"] = _pairs_file(inputs["tmp"] / "pairs.json", [(a, b), (b, a)])


def _data(edit):
    """A make that edits a copy of the dataset with ``edit(directory, value)``."""
    def make(inputs: dict, value) -> None:
        data = inputs["tmp"] / "data"
        shutil.copytree(inputs["data"], data)
        edit(data, value)
        inputs["data"] = data
    return make


def _every_split(data: Path, raw: bytes) -> None:
    for name in datagen.SPLIT_NAMES:
        (data / f"{name}.csv").write_bytes(raw)


def _header_only(data: Path, split: str) -> None:
    path = data / f"{split}.csv"
    path.write_text(path.read_text().splitlines()[0] + "\n")


def _config_field(data: Path, field_value) -> None:
    field, value = field_value
    config = json.loads((data / "config.json").read_text())
    (data / "config.json").write_text(json.dumps({**config, field: value}))


def _test_value(data: Path, value: str) -> None:
    lines = (data / "test.csv").read_text().splitlines()
    lines[2] = ",".join(lines[2].split(",")[:-1] + [value])
    (data / "test.csv").write_text("\n".join(lines) + "\n")


def _out_a_directory(inputs: dict, _) -> None:
    inputs["out"].mkdir()


def _out_a_file(inputs: dict, _) -> None:
    inputs["out"].write_text("kept")


def _out_under_a_file(inputs: dict, _) -> None:
    _out_a_file(inputs, None)
    inputs["out"] = inputs["out"] / "out"


def _sidecar_directory(inputs: dict, _) -> None:
    (inputs["tmp"] / "out.soup.json").mkdir()


def _equal_endpoints(inputs: dict, _) -> None:
    inputs["ckpt_b"] = inputs["ckpt"]
    inputs["pairs"] = _pairs_file(inputs["tmp"] / "pairs.json",
                                  [(inputs["ckpt"],) * 2, (inputs["ckpt_c"],) * 2])


def _entry_field(inputs: dict, index_field_value) -> None:
    index, field, value = index_field_value
    doc = _manifest_doc(inputs["ckpt"], inputs["ckpt"])
    doc["entries"][index][field] = value
    _file("manifest")(inputs, json.dumps(doc).encode())


def _use(**slots: str):
    """A make that points each slot at a fixture file, by fixture key."""
    return lambda inputs, _: inputs.update({s: inputs[key] for s, key in slots.items()})


# ---- defect pools


# JSON nested past what the parser's recursion limit allows
DEEPLY_NESTED = "[" * 100_000 + "]" * 100_000

# run config files that are not a JSON object
CONFIG_FILES = {"not-utf8": b"\xff\xfe{}", "not-json": b"not json", "not-object": b"[1, 2]",
                "nested-too-deeply": DEEPLY_NESTED.encode()}
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
# --set values no command may accept, each after a sweep section that draws
# its configs from a search space; every command checks every section
BAD_SET_VALUES = [
    "dataset.num_train=1.5", "dataset.input_dim=true", 'dataset.seed="7"',
    "pretrain.epochs=NaN", "pretrain.epochs=true", "pretrain.batch_size=2.5",
    "arch.layer_widths=[6.5,12,3]", "arch.layer_widths=[6,true,3]",
    "sweep.space.batch_size=0", "sweep.space.batch_size=false",
    "sweep.space.epochs_range=[1.5,3]", "sweep.space.epochs_range=[0,3]",
    "sweep.space.lr_exponent_range=[4,1]", "sweep.space.wd_exponent_range=[1,Infinity]",
    "sweep.space.lr_exponent_range=[1,2,3]", "sweep.space.mixup_off_probability=NaN",
    "sweep.space.smoothing_off_probability=1.5", "sweep.space.smoothing_max=2",
    "sweep.space.mixup_max=-0.1", "sweep.space.mixup_max=4.5",
    'sweep={"configs": [{"mixup_alpha": 20}]}', "sweep.space.optimizer=lbfgs",
    "sweep.count=1.5", "sweep.count=0", "sweep.master_seed=true", "sweep.space=[1]",
    "sweep=[1]", "sweep.configs=[5]", "pretrain=5", "arch=5", "dataset=5",
    "pretrain.bogus_key=1", 'sweep.count="x"', "arch.layer_widths=[4,0,3]",
    "sweep.configs=[]", "dataset.num_train=0", "pretrain.bogus=1", "no-equals-sign",
    "dataset.num_val=0", "dataset.num_classes=1",
    *(f"dataset.class_center_scale={v}" for v in ("NaN", "Infinity", "-Infinity")),
    *(f"pretrain.{key}={v}" for key in ("mixup_alpha", "learning_rate", "sam_rho")
      for v in ("NaN", "Infinity")),
]
SPACE_SWEEP = 'sweep={"count": 2, "master_seed": 0}'
# checkpoint files that do not load
UNREADABLE_CHECKPOINTS = {
    "not-a-checkpoint": b"not a checkpoint at all",
    "name-not-string": _one_tensor_checkpoint(name=5, shape=[1], nbytes=4),
    # Shapes NumPy cannot build, an infinite size and a negative offset: each
    # exited 1 once (the first wrapped an int64 element count to 0, the
    # infinite size overflowed int(), the others raised in NumPy).
    "shape-2**64": _one_tensor_checkpoint(shape=[2**32, 2**32], nbytes=0),
    "shape-10**30": _one_tensor_checkpoint(shape=[10**30], nbytes=4),
    "shape-0x10**30": _one_tensor_checkpoint(shape=[0, 10**30], nbytes=0),
    "shape-65-axes": _one_tensor_checkpoint(shape=[1] * 65, nbytes=4),
    "shape-infinite": _one_tensor_checkpoint(shape=[float("inf")], nbytes=4),
    "negative-offset": _one_tensor_checkpoint(shape=[1], nbytes=4, offset=-10**6),
    # A shape that is not a list of integers: each loaded once, "12" as (1, 2).
    **{f"shape-{name}": _one_tensor_checkpoint(shape=shape, nbytes=8) for name, shape in
       [("string", "12"), ("float", [2.5]), ("bool", [True, 2]), ("string-item", ["2"])]},
    # A header that is not a JSON object, or too deeply nested to parse: each
    # exited 1 once (TypeError, RecursionError).
    **{f"header-{name}": b"SOUPCKPT" + struct.pack("<II", 1, len(h)) + h for name, h in
       [("list", b"[1]"), ("string", b'"tensors"'), ("nested-too-deeply", DEEPLY_NESTED.encode())]},
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
# Tensors that do not form the network, made from a model with two or more
# layers and 3 classes. Each but no-hidden-layer exited 1 on eval once; soup
# uniform, which averages tensors without running them, exited 0 on each.
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
# widths that do not fit the table's data (4 features, 3 classes): another
# input width, fewer classes than the labels, more than the config
MISFIT_ARCHES = [(5, 6, 3), (4, 6, 2), (4, 6, 4)]
# where a byte cut ends the sane checkpoint: inside the magic, the version,
# the header length, the header, the padding and the payload
CHECKPOINT_CUTS = [0, 5, 8, 14, 16, 40, 200, -200, -1]
# values no dataset config field can hold
BAD_CONFIG_VALUES = ["x", None, True, [], {}, math.nan, math.inf, -math.inf]
DATASET_CONFIG_FIELDS = [*(f.name for f in dataclasses.fields(datagen.DatasetConfig)),
                         "unknown_field"]
# values a manifest entry field cannot hold (each entry has error null)
BAD_ENTRY_FIELDS = {
    "index": ["0", 0.0, True, None, [0]],
    "path": [5, 1.5, False, None, ["m.ckpt"], {}],
    "ema_path": [5, True, []],
    "error": [5, 0.0, True, {}],
    "val_accuracy": ["x", "0.5", True, None, [0.5], math.nan, math.inf, -math.inf],
    "ema_val_accuracy": ["x", False, {}, math.nan, -math.inf],
}
# manifests that are not one save_manifest could write
MANIFEST_TEXTS = {
    "not-json": "{not json",
    "no-entries": json.dumps({"theta0_digest": ""}),
    "entry-without-index": json.dumps(
        {"entries": [{"config": {}, "path": "m.ckpt", "val_accuracy": 0.5}]}),
    "entry-without-config": json.dumps(
        {"entries": [{"index": 0, "path": "m.ckpt", "val_accuracy": 0.5}]}),
    "not-object": json.dumps(["entries"]),
    # a config the manifest's own writer could not have produced
    "config-epochs-bool": json.dumps({"entries": [{"index": 0, "config": {"epochs": True},
                                                   "path": "m.ckpt", "val_accuracy": 0.5}]}),
    "config-rate-nan": '{"entries": [{"index": 0, "config": {"learning_rate": NaN},'
                       ' "path": "m.ckpt", "val_accuracy": 0.5}]}',
    # entry fields of the wrong type, or not finite
    "path-not-string": json.dumps(
        {"entries": [{"index": 0, "config": {}, "path": 5, "val_accuracy": 0.5}]}),
    "accuracy-not-number": json.dumps(
        {"entries": [{"index": 0, "config": {}, "path": "m.ckpt", "val_accuracy": "x"}]}),
    "accuracy-nan": '{"entries": [{"index": 0, "config": {}, "path": "m.ckpt",'
                    ' "val_accuracy": NaN}]}',
    # a key save_manifest does not write
    "entry-unknown-key": json.dumps({"entries": [{"index": 0, "config": {}, "path": "m.ckpt",
                                                  "val_accuracy": 0.5, "note": "x"}]}),
    # a theta0_digest that is not a string, even with no entries to check
    "digest-nan": '{"theta0_digest": NaN, "entries": []}',
    "digest-list": json.dumps({"theta0_digest": [1], "entries": []}),
    "digest-number": json.dumps({"theta0_digest": 5, "entries": []}),
    # keys the writer does not write, at the top level too
    "unknown-key": json.dumps({"theta0_digest": "", "entries": [], "note": "x"}),
    "directory-key": json.dumps({"theta0_digest": "", "entries": [], "directory": "."}),
    "nested-too-deeply": DEEPLY_NESTED,
}
# pairs files approx rejects before it loads a checkpoint (the paths do not exist)
PAIRS_FILES = {
    "not-json": b"not json",
    "not-utf8": b"\xff\xfe[]",
    "entry-not-object": b"[1, 2]",
    "entry-pair-list": b'[["id", "p"]]',
    "not-list": b'{"id": "p"}',
    "path-not-string": b'[{"id": "p", "theta0": 5, "theta1": "b.ckpt"}]',
    "rate-not-number":
        b'[{"id": "p", "theta0": "a.ckpt", "theta1": "b.ckpt", "learning_rate": "fast"}]',
    "rate-not-finite":
        b'[{"id": "p", "theta0": "a.ckpt", "theta1": "b.ckpt", "learning_rate": NaN}]',
    "one-pair": b'[{"id": "p", "theta0": "a.ckpt", "theta1": "b.ckpt"}]',
    "duplicate-id": b'[{"id": "p", "theta0": "a.ckpt", "theta1": "b.ckpt"},'
                    b' {"id": "p", "theta0": "a.ckpt", "theta1": "c.ckpt"}]',
    "id-not-string": b'[{"id": 1, "theta0": "a.ckpt", "theta1": "b.ckpt"},'
                     b' {"id": 2, "theta0": "a.ckpt", "theta1": "c.ckpt"}]',
    "unknown-key": b'[{"id": "x", "theta0": "a", "theta1": "b", "note": "?"}]',
}
# soup sidecars and eval reports report cannot merge
REPORT_INPUTS = {"not-json": b"not json", "not-utf8": b"\xff\xfe{}", "not-object": b"[1, 2]",
                 "nan": b'{"x": NaN}', "infinity": b'{"x": Infinity}'}

NAN_F4 = np.array(np.nan, "<f4").tobytes()
OK, CONFIG, MISSING, DIVERGED, FORMAT, SHAPE = (
    cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_MISSING_INPUT, cli.EXIT_DIVERGED, cli.EXIT_FORMAT,
    cli.EXIT_SHAPE)
SUCCESS = (OK, None)

DEFECTS = {
    # ---- the run config: datagen, pretrain, sweep
    "config-not-an-object": Defect("config", CONFIG, "config", _file("config"),
                                   tuple(CONFIG_FILES.values())),
    "config-section": Defect("config", CONFIG, "config", _config_section,
                             tuple((s, v) for s, values in BAD_CONFIG_SECTIONS.items()
                                   for v in values)),
    "set-bad-value": Defect("--set", CONFIG, "config", _flags,
                            tuple(("--set", SPACE_SWEEP, "--set", text) for text in BAD_SET_VALUES)),
    # a section is run only by its command
    "set-arch-not-the-data": Defect(
        "--set", CONFIG, "config", _flags, (("--set", "arch.layer_widths=[5, 8, 3]"),),
        exits={"datagen": SUCCESS, "sweep": SUCCESS}),
    "set-diverging-pretrain": Defect(
        "--set", DIVERGED, "divergence", _flags,
        (("--set", "pretrain.optimizer=sgd", "--set", "pretrain.learning_rate=1e8",
          "--set", "pretrain.weight_decay=0.1", "--set", "pretrain.epochs=12"),),
        exits={"datagen": SUCCESS, "sweep": SUCCESS}),
    # a request past any address space (over 700 PiB): NumPy fails at once
    # under every overcommit policy, before it writes any of the array
    "set-too-large-to-allocate": Defect(
        "--set", CONFIG, "too-large", _flags, (("--set", f"dataset.num_train={10**17}"),),
        exits={"pretrain": SUCCESS, "sweep": SUCCESS}),
    "set-one-row-test-split": Defect("--set", OK, None, _flags,
                                     (("--set", "dataset.num_test=1"),)),
    # ---- the dataset
    "data-split-not-numbers": Defect("data", FORMAT, "data-format", _data(_every_split),
                                     (b"x0,x1\nnot,numbers\n",)),
    "data-split-not-utf8": Defect("data", FORMAT, "data-format", _data(_every_split),
                                  (b"\xff\xfex0,x1\n",)),
    **{f"data-{split}-without-rows": Defect("data", FORMAT, "data-format", _data(_header_only),
                                            (split,)) for split in ("train", "test")},
    "data-width-not-config": Defect("data", FORMAT, "data-format", _data(_config_field),
                                    (("input_dim", 5),)),
    **{f"data-test-value-{v}": Defect("data", FORMAT, "data-format", _data(_test_value), (v,))
       for v in ("nan", "1e39")},
    "data-config-field": Defect("data", FORMAT, "data-format", _data(_config_field),
                                tuple(itertools.product(DATASET_CONFIG_FIELDS, BAD_CONFIG_VALUES))),
    "data-one-test-row": Defect("data", OK, None, _use(data="one-test-row")),
    "data-missing": Defect("data", MISSING, "missing-input", _missing("data")),
    "data-is-a-file": Defect("data", MISSING, "missing-input", _file("data"), (b"",)),
    # ---- the checkpoints: --ckpt, --base, --ckpt-a, a manifest's, a pair's
    "model-unreadable": Defect("model", FORMAT, "checkpoint-format", _model_bytes,
                               tuple(UNREADABLE_CHECKPOINTS.values())),
    # A stored NaN is a malformed file (5), not a non-finite result (6); the
    # file's last four bytes are the last value of its last tensor.
    "model-nan-stored": Defect("model", FORMAT, "checkpoint-format",
                               _sane_model_bytes(lambda blob, _: blob[:-4] + NAN_F4)),
    "model-truncated": Defect("model", FORMAT, "checkpoint-format",
                              _sane_model_bytes(lambda blob, cut: blob[:cut]),
                              tuple(CHECKPOINT_CUTS)),
    "model-header-field": Defect(
        "model", FORMAT, "checkpoint-format",
        _sane_model_bytes(lambda blob, fv: _with_header_entry(blob, **dict([fv]))),
        tuple((f, v) for f, values in BAD_HEADER_FIELDS.items() for v in values)),
    **{f"model-{name}": Defect("model", SHAPE, "shape-mismatch", _network_defect, (defect,))
       for name, defect in NETWORK_DEFECTS.items()},
    # soup uniform runs no model on the data
    "model-misfit": Defect("model", SHAPE, "shape-mismatch", _misfit, tuple(MISFIT_ARCHES),
                           exits={"soup-uniform": SUCCESS}),
    # without config.json, the labels alone bound the class count
    "model-misfit-without-data-config": Defect(
        "model", SHAPE, "shape-mismatch", _misfit_without_data_config, ((5, 6, 3), (4, 6, 2)),
        exits={"soup-uniform": SUCCESS}),
    # A sweep records each fine-tune that diverges and goes on; soup uniform runs
    # no model; soup greedy and grid-study score by accuracy alone, and argmax
    # takes the first NaN logit; the plane's axes overflow.
    "model-overflowing": Defect(
        "model", SHAPE, "non-finite", lambda inputs, _: _use_model(inputs, inputs["overflow"]),
        exits={**dict.fromkeys(("sweep", "soup-uniform", "soup-greedy", "grid-study"), SUCCESS),
               "plane": (SHAPE, "degenerate-geometry")}),
    "model-missing": Defect("model", MISSING, "missing-input",
                            lambda inputs, _: _use_model(inputs, inputs["tmp"] / "missing.ckpt")),
    "model-is-a-directory": Defect("model", MISSING, "missing-input", _model_directory),
    # a logit ensemble needs no shared shape
    "models-of-two-shapes": Defect(
        "models", SHAPE, "shape-mismatch", _models_of_two_shapes,
        exits=dict.fromkeys(("ensemble-uniform", "ensemble-greedy", "calibrate-manifest"),
                            SUCCESS)),
    "endpoints-equal": Defect("endpoints", OK, None, _equal_endpoints,
                              exits={"plane": (SHAPE, "degenerate-geometry")}),
    "plane-endpoints-all-equal": Defect("ckpt_c", SHAPE, "degenerate-geometry",
                                        _use(ckpt_b="ckpt", ckpt_c="ckpt")),
    # ---- the sweep manifest
    "manifest-malformed": Defect("manifest", FORMAT, "data-format", _file("manifest"),
                                 tuple(text.encode() for text in MANIFEST_TEXTS.values())),
    "manifest-entry-field": Defect(
        "manifest", FORMAT, "data-format", _entry_field,
        tuple((i % 2, f, v) for f, values in BAD_ENTRY_FIELDS.items()
              for i, v in enumerate(values))),
    # report reads no checkpoint
    "manifest-all-failed": Defect("manifest", CONFIG, "config", _use(manifest="all-failed"),
                                  exits={"report": SUCCESS}),
    "manifest-one-entry": Defect("manifest", OK, None, _use(manifest="one-entry"),
                                 exits={"grid-study": (CONFIG, "config")}),
    # ---- approx's pairs file, report's soup sidecars and eval reports
    "pairs-malformed": Defect("pairs", CONFIG, "config", _file("pairs"), tuple(PAIRS_FILES.values())),
    **{f"{slot}-malformed": Defect(slot, FORMAT, "data-format", _file(slot),
                                   tuple(REPORT_INPUTS.values())) for slot in ("soup", "eval_report")},
    # ---- every input file
    **{f"{slot}-missing": Defect(slot, MISSING, "missing-input", _missing(slot))
       for slot in ("config", "manifest", "pairs", "soup", "eval_report")},
    **{f"{slot}-is-a-directory": Defect(slot, MISSING, "missing-input", _directory(slot))
       for slot in ("config", "manifest", "pairs", "soup", "eval_report")},
    "inputs-all-missing": Defect("inputs", MISSING, "missing-input", _every_input_missing),
    # ---- flags; those checked before any read run with every input missing
    **{f"beta-{v}": Defect("--beta", CONFIG, "config", _flags_before_any_read, (("--beta", v),))
       for v in ("0", "-1", "nan", "inf")},
    # a finite but huge --beta overflows the scaled logits
    "beta-overflowing": Defect("--beta", SHAPE, "non-finite", _flags, (("--beta", "1e308"),)),
    "bins-0": Defect("--bins", CONFIG, "config", _flags_before_any_read, (("--bins", "0"),)),
    # more bins than rows: one prediction per bin, whatever the count
    "bins-past-the-row-count": Defect("--bins", OK, None, _flags, (("--bins", str(10**10)),),
                                      same_as=("--bins", str(ROWS))),
    "x-range-nan": Defect("--x-range", CONFIG, "config", _flags_before_any_read,
                          (("--x-range=nan:1:3",),)),
    "y-range-inf": Defect("--y-range", CONFIG, "config", _flags_before_any_read,
                          (("--y-range=0:inf:3",),)),
    "x-range-two-fields": Defect("--x-range", CONFIG, "config", _flags, (("--x-range", "0:1"),)),
    # finite but huge plane coordinates overflow the logits
    "x-range-overflowing": Defect(
        "--x-range", SHAPE, "non-finite", _flags,
        tuple(("--metric", m, "--x-range=-1e300:1e300:3", "--y-range=0:1:2")
              for m in ("loss", "error"))),
    "x-range-too-large-to-allocate": Defect("--x-range", CONFIG, "too-large", _flags,
                                            ((f"--x-range=0:1:{10**17}",),)),
    **{f"alphas-{v}": Defect("--alphas", CONFIG, "config", _flags, (("--alphas", v),))
       for v in ("0,1.5", "-0.1", "0.5,nan")},
    **{f"splits-{name}": Defect("--splits", CONFIG, "config", _flags, (("--splits", v),))
       for name, v in (("comma", ","), ("empty", ""), ("two-commas", ",,"))},
    **{f"unknown-{flag[2:]}": Defect(flag, CONFIG, "config", _flags, ((flag, "holdout"),))
       for flag in ("--split", "--eval-split", "--fit-split")},
    # ---- --out: an existing path of the wrong kind is left as it was
    "out-is-a-directory": Defect("file-out", CONFIG, "config", _out_a_directory),
    "out-is-a-file": Defect("directory-out", CONFIG, "config", _out_a_file),
    "out-under-a-file": Defect("out", CONFIG, "config", _out_under_a_file),
    "sidecar-is-a-directory": Defect("sidecar", CONFIG, "config", _sidecar_directory),
}


def _contract_pairs():
    """(command, defect, the values of its pool this command runs), for every
    command that reads the defect's slot."""
    for name, defect in DEFECTS.items():
        readers = [c for c in COMMANDS if _reads(c, defect.slot)]
        for k, command in enumerate(readers):
            share = defect.pool[k::len(readers)] or (defect.pool[k % len(defect.pool)],)
            yield pytest.param(command, name, share, id=f"{name}:{command}")


CONTRACT_PAIRS = list(_contract_pairs())


@pytest.fixture(scope="module")
def parser():
    return cli.build_parser()


@pytest.fixture
def one_parser(monkeypatch, parser):
    """``cli.main`` on one parser: building it is most of a failing run's time."""
    monkeypatch.setattr(cli, "build_parser", lambda: parser)


@pytest.fixture(scope="module")
def contract(tmp_path_factory):
    """Sane inputs for every slot, and the files defects draw on."""
    root = tmp_path_factory.mktemp("contract")
    cfg = datagen.DatasetConfig(input_dim=4, num_classes=3, num_train=ROWS, num_val=ROWS,
                                num_test=ROWS, num_shift=ROWS)
    datagen.save_csv(datagen.generate(cfg), root / "data")
    datagen.save_csv(datagen.generate(dataclasses.replace(cfg, num_test=1)), root / "one-test-row")
    (root / "config.json").write_text(json.dumps({
        "dataset": dataclasses.asdict(cfg), "arch": {"layer_widths": list(ARCH.layer_widths)},
        "pretrain": {"epochs": 1}, "sweep": {"configs": [{"epochs": 1}]}}))
    sane = init_checkpoint(ARCH, 0)
    signs = np.where(PortableRng(1).uniforms(sane.vector.size) < 0.5, -1.0, 1.0)
    checkpoints = {"ckpt": sane, "ckpt_b": init_checkpoint(ARCH, 1),
                   "ckpt_c": init_checkpoint(ARCH, 2),
                   "overflow": Checkpoint(sane.layout, (3e38 * signs).astype(np.float32), {})}
    fx = {"root": root, "config": root / "config.json", "data": root / "data",
          "one-test-row": root / "one-test-row"}
    for name, ckpt in checkpoints.items():
        fx[name] = root / f"{name}.ckpt"
        save_checkpoint(ckpt, fx[name])
    fx["manifest"] = _write_manifest(root / "manifest.json", fx["ckpt"], fx["ckpt"])
    fx["pairs"] = _pairs_file(root / "pairs.json",
                              [(fx["ckpt"], fx["ckpt_b"]), (fx["ckpt_b"], fx["ckpt_c"])])
    doc = _manifest_doc(fx["ckpt"], fx["ckpt"])
    failed = {"path": None, "val_accuracy": None,
              "error": "DivergenceError: non-finite training loss at step 0"}
    fx["all-failed"] = root / "all-failed.json"
    fx["all-failed"].write_text(json.dumps(
        {**doc, "entries": [{**e, **failed} for e in doc["entries"]]}))
    fx["one-entry"] = root / "one-entry.json"
    fx["one-entry"].write_text(json.dumps({**doc, "entries": doc["entries"][:1]}))
    run_ok(["soup", "uniform", "--manifest", str(fx["manifest"]), "--out", str(root / "soup.ckpt")])
    run_ok(["eval", "--ckpt", str(fx["ckpt"]), "--data", str(fx["data"]),
            "--out", str(root / "eval.json")])
    fx["soup"], fx["eval_report"] = root / "soup.ckpt.soup.json", root / "eval.json"
    return fx


def _outputs(tmp: Path) -> dict:
    """Every path under ``tmp`` named out*, with its bytes (None for a directory)."""
    return {str(p.relative_to(tmp)): None if p.is_dir() else p.read_bytes()
            for top in tmp.glob("out*") for p in (top, *top.rglob("*"))}


def _strict_json(text: str):
    def refuse(token):
        raise AssertionError(f"non-finite JSON value {token}")
    return json.loads(text, parse_constant=refuse)


def _assert_finite(path: Path) -> None:
    """Every number in the artifact (or directory of artifacts) at ``path`` is finite."""
    if path.is_dir():
        for child in path.iterdir():
            _assert_finite(child)
    elif path.read_bytes().startswith(b"SOUPCKPT"):
        assert np.isfinite(load_checkpoint(path).vector).all(), path
    elif path.read_text().startswith(("{", "[")):
        _strict_json(path.read_text())
    else:  # a table: its "#" comment, header and rows
        assert len(path.read_text().splitlines()) >= 2, path
        for token in re.split(r"[,\s=]+", path.read_text()):
            try:
                value = float(token)
            except ValueError:
                continue  # a label, a name or NA
            assert math.isfinite(value), (path, token)


def _run(command: str, inputs: dict, flags) -> tuple[int, str, list[str]]:
    text = {k: str(v) for k, v in inputs.items()}
    argv = [arg.format(**text) for arg in COMMANDS[command]]
    argv += [*flags, "--out", str(inputs["out"])]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stderr.getvalue(), argv


@pytest.mark.parametrize("command, name, values", CONTRACT_PAIRS)
def test_exit_code_contract(one_parser, contract, command, name, values):
    defect = DEFECTS[name]
    code, category = defect.exits.get(command, (defect.code, defect.category))
    for value in values:
        with tempfile.TemporaryDirectory(dir=contract["root"]) as tmp:
            inputs = {**contract, "tmp": Path(tmp), "flags": [], "out": Path(tmp) / "out"}
            defect.make(inputs, value)
            before = _outputs(Path(tmp))
            got, err, argv = _run(command, inputs, inputs["flags"])
            assert got == code, (argv, err)
            if code != cli.EXIT_OK:
                (line,) = err.splitlines()
                payload = json.loads(line)
                assert sorted(payload) == ["error", "message", "type"]
                assert payload["error"] == category and payload["message"], payload
                assert _outputs(Path(tmp)) == before
                continue
            assert err == ""
            assert inputs["out"].exists()
            for path in Path(tmp).glob("out*"):
                _assert_finite(path)
            if defect.same_as:
                reference = {**inputs, "out": Path(tmp) / "reference"}
                assert _run(command, reference, defect.same_as)[0] == cli.EXIT_OK
                assert inputs["out"].read_bytes() == reference["out"].read_bytes()


def test_every_command_form_has_a_contract_row():
    # A new command, kind, source or switch must join the table to pass.
    def forms(parser, words=()):
        sub = _subcommands(parser)
        if sub is None:
            yield words, parser
            return
        for word, child in sub.items():
            yield from forms(child, (*words, word))

    for words, parser in forms(cli.build_parser()):
        rows = [argv for argv in COMMANDS.values() if _words(argv) == words]
        assert rows, words
        for group in parser._mutually_exclusive_groups:  # calibrate --ckpt or --manifest
            for action in group._group_actions:
                assert any(action.option_strings[0] in argv for argv in rows), (words, action)
        for action in parser._actions:  # soup learned with and without --by-layer
            if isinstance(action, argparse._StoreTrueAction):
                flag = action.option_strings[0]
                assert {flag in argv for argv in rows} == {True, False}, (words, flag)


def test_malformed_pairs_file_message_names_the_file(workspace, tmp_path, capsys):
    pairs = tmp_path / "pairs.json"
    for raw in PAIRS_FILES.values():
        pairs.write_bytes(raw)
        argv = ["approx", "--pairs", str(pairs), "--data", str(workspace["data"]),
                "--out", str(tmp_path / "a.csv")]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert str(pairs) in _single_error_line(capsys)["message"]


def test_every_bad_field_value_is_a_format_error(contract, tmp_path):
    # The contract table shares these pools out; here each value is tried once.
    manifest = tmp_path / "manifest.json"
    for field, values in BAD_ENTRY_FIELDS.items():
        for value in values:
            doc = _manifest_doc(contract["ckpt"], contract["ckpt"])
            doc["entries"][0][field] = value
            manifest.write_text(json.dumps(doc))
            with pytest.raises(DataFormatError):
                trainer.load_manifest(manifest)
    data = tmp_path / "data"
    shutil.copytree(contract["data"], data)
    config = json.loads((data / "config.json").read_text())
    for field in [*config, "unknown_field"]:
        for value in BAD_CONFIG_VALUES:
            (data / "config.json").write_text(json.dumps({**config, field: value}))
            with pytest.raises(DataFormatError):
                datagen.load_csv(data)


def test_every_bad_header_field_and_config_section_is_rejected(contract):
    # The contract table shares these pools out too; here each value is tried once.
    blob = contract["ckpt"].read_bytes()
    sane = load_checkpoint(contract["ckpt"])
    assert content_digest(deserialize(_with_header_entry(blob))) == content_digest(sane)
    for field, values in BAD_HEADER_FIELDS.items():
        for value in values:
            with pytest.raises(CheckpointFormatError):
                deserialize(_with_header_entry(blob, **{field: value}))
    config = str(contract["config"])
    assert cli.load_run_config(config).arch == ARCH
    for section, values in BAD_CONFIG_SECTIONS.items():
        for value in values:
            with pytest.raises(ConfigError):
                cli.load_run_config(config, [f"{section}={json.dumps(value)}"])


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


