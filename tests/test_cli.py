"""End-to-end tests of the command-line interface, over one table.

COMMANDS holds every command form the parser accepts, its inputs written as
{slot} placeholders, and the module-scoped ``contract`` fixture gives each
slot a small sane input. Every command run here is a form of that table:
ARTIFACTS checks what each form writes from the sane inputs, DEFECTS runs
every input defect over every command that reads that input (the
documented exit codes), and the process-level tests run forms in a fresh
interpreter.
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
import runpy
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

import oracles
import soupkit
from soupkit import analysis, cli, datagen, ensembles, tinynet, trainer
from soupkit.errors import CheckpointFormatError, ConfigError, DataFormatError
from soupkit.rng import PortableRng
from soupkit.tensorstore import (
    Checkpoint,
    content_digest,
    deserialize,
    load as load_checkpoint,
    save as save_checkpoint,
    serialize,
)
from soupkit.tinynet import ArchSpec, evaluate, init_checkpoint

SRC_DIR = Path(soupkit.__file__).resolve().parent.parent

# ------------------------------------------------------ the command forms
#
# Every weight +-3e38 with random signs is finite in float32, but the logits of
# this arch overflow, so every loss and confidence computed from them is NaN.
ARCH = ArchSpec((4, 5, 5, 5, 5, 3))
ROWS = 24  # rows in each split of the table's dataset

# argv before --out. {ckpt_b} and {ckpt_c} are two more checkpoints; {pairs}
# pairs {ckpt} with {ckpt_b} and {ckpt_b} with {ckpt_c}.
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
    "interp": ["interp", "--ckpt-a", "{ckpt}", "--ckpt-b", "{ckpt_b}", "--data", "{data}"],
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


def _argv(command: str, inputs: dict, flags=()) -> list[str]:
    """``command``'s form on ``inputs``, --out ``inputs["out"]``, then ``flags``,
    which override a flag of the form given twice."""
    text = {k: str(v) for k, v in inputs.items()}
    return [arg.format(**text) for arg in COMMANDS[command]] + ["--out", text["out"], *flags]


def _run(command: str, inputs: dict, flags=()) -> tuple[int, str, list[str]]:
    """``cli.main`` of ``_argv``: its exit code, its stderr and the argv."""
    argv = _argv(command, inputs, flags)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stderr.getvalue(), argv


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
        ["sweep", "--data", "d", "--base", "b", "--out", "o", "--workers", "2"],
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
        if "--workers" in argv:  # sweep has no such flag: configs train one after another
            assert json.loads(lines[0])["message"].endswith("unrecognized arguments: --workers 2")


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


def _env() -> dict:
    """This environment with soupkit's source directory first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return env


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
    code = f"import json, sys, soupkit.{module}; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_env(), timeout=60, check=True)
    loaded = set(json.loads(proc.stdout))
    assert f"soupkit.{module}" in loaded
    assert sorted(loaded & _modules(absent)) == []


# A form's own process: (library modules it must not load, modules it must
# load). The manifest commands read their manifest through soupkit.schema, so
# none loads the training code; soup learned steps trainer.adamw_step, which
# shows that a load made during a command is seen.
COMMAND_IMPORTS = {
    "datagen": (("tensorstore", "tinynet", "trainer"), ("datagen",)),
    "pretrain": (("analysis", "soups", "ensembles"), ("trainer",)),
    "soup-uniform": (("trainer",), ("schema", "tensorstore", "soups")),
    "soup-greedy": (("trainer",), ("soups", "datagen")),
    "soup-learned": ((), ("trainer",)),
    "ensemble-uniform": (("trainer",), ("ensembles",)),
    "ensemble-greedy": (("trainer",), ("ensembles",)),
    "eval": (("analysis", "soups", "trainer"), ("ensembles",)),
    "interp": (("soups", "trainer"), ("analysis",)),
    "grid-study": (("trainer",), ("analysis",)),
    "calibrate-manifest": (("trainer",), ("ensembles",)),
    "report": (("trainer", "datagen", "tensorstore", "tinynet", "numpy"), ("schema",)),
}


@pytest.mark.parametrize("command", sorted(COMMAND_IMPORTS))
def test_command_loads_only_the_modules_it_runs(contract, tmp_path, command):
    absent, present = COMMAND_IMPORTS[command]
    argv = _argv(command, {**contract, "out": tmp_path / "out"})
    code = ("import json, sys; from soupkit import cli; "
            "print(json.dumps([cli.main(sys.argv[1:]), sorted(sys.modules)]))")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=_env(), timeout=120, check=True)
    exit_code, loaded = json.loads(proc.stdout)
    assert exit_code == cli.EXIT_OK, proc.stderr
    assert sorted(set(loaded) & _modules(absent)) == []
    assert _modules(present) <= set(loaded)


# Runs that import no NumPy: (form, flags with {slots}, documented exit code);
# "help" is no form. A computing command checks its flags and config before it
# imports the library.
NUMPY_FREE_RUNS = {
    "help": (None, ["--help"], cli.EXIT_OK),
    "unknown-flag": ("report", ["--bogus"], cli.EXIT_CONFIG),
    "report": ("report", [], cli.EXIT_OK),
    "missing-config": ("datagen", ["--config", "{missing}"], cli.EXIT_MISSING_INPUT),
    "bad-set": ("pretrain", ["--set", "pretrain.epochs=1.5"], cli.EXIT_CONFIG),
    "out-of-the-wrong-kind": ("eval", ["--out", "{dir}"], cli.EXIT_CONFIG),
    "bad-alphas": ("interp", ["--alphas", "0,2"], cli.EXIT_CONFIG),
    "bad-second-range": ("plane", ["--x-range=0:1:3", "--y-range=0:1:0"], cli.EXIT_CONFIG),
}


@pytest.mark.parametrize("case", sorted(NUMPY_FREE_RUNS))
def test_front_end_runs_where_numpy_cannot_be_imported(contract, tmp_path, case):
    command, flags, expected = NUMPY_FREE_RUNS[case]
    out = tmp_path / "out"
    flags = [flag.format(missing=tmp_path / "missing.json", dir=tmp_path) for flag in flags]
    argv = _argv(command, {**contract, "out": out}, flags) if command else flags
    runs = []
    for block in ("", "sys.modules['numpy'] = None; "):  # None makes `import numpy` fail
        code = f"import sys; {block}from soupkit import cli; sys.exit(cli.run())"
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, env=_env(), timeout=60)
        runs.append((proc.returncode, proc.stdout, proc.stderr,
                     out.read_bytes() if out.is_file() else None))
        out.unlink(missing_ok=True)
    assert runs[0][0] == expected, runs[0]
    assert runs[1] == runs[0]


def _run_cli_process(argv, env_updates=()):
    """Run the CLI in a fresh interpreter, where NumPy warnings reach stderr unfiltered."""
    env = {k: v for k, v in _env().items() if k != "SOUPKIT_THREADS"}
    env.update(env_updates)
    return subprocess.run(
        [sys.executable, "-m", "soupkit.cli", *argv], capture_output=True, text=True, env=env,
        timeout=300,
    )


def test_overflow_in_a_subprocess_prints_one_json_line(contract, tmp_path):
    out = tmp_path / "e.json"
    proc = _run_cli_process(_argv("eval", {**contract, "out": out}, ["--beta", "1e308"]))
    assert proc.returncode == cli.EXIT_SHAPE
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, lines
    assert json.loads(lines[0])["error"] == "non-finite"
    assert not out.exists()


def test_overflowing_sweep_workers_print_nothing(contract, tmp_path):
    # Input noise of 1e308 overflows outside the guarded gradient step; both
    # entries then diverge.
    configs = [{"input_noise_std": 1e308, "epochs": 1, "seed": s} for s in (1, 2)]
    out = tmp_path / "sweep"
    proc = _run_cli_process(_argv("sweep", {**contract, "out": out},
                                  ["--set", f"sweep.configs={json.dumps(configs)}"]))
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
    "command, flags, code",
    [
        ("eval", [], cli.EXIT_OK),
        (None, ["frobnicate"], cli.EXIT_CONFIG),
        ("eval", ["--ckpt", "{missing}"], cli.EXIT_MISSING_INPUT),
    ],
)
def test_run_returns_the_exit_code_of_main(
    contract, tmp_path, monkeypatch, capsys, freezes, command, flags, code
):
    flags = [flag.format(missing=tmp_path / "x.ckpt") for flag in flags]
    argv = _argv(command, {**contract, "out": tmp_path / "e.json"}, flags) if command else flags
    monkeypatch.setattr(sys, "argv", ["soupkit", *argv])
    assert cli.run() == code
    assert freezes == ["freeze"]
    assert (tmp_path / "e.json").exists() == (code == cli.EXIT_OK)
    assert len(capsys.readouterr().err.splitlines()) == (code != cli.EXIT_OK)


def test_run_freezes_only_after_main_returns(monkeypatch, freezes):
    monkeypatch.setattr(cli, "main", lambda: freezes.append("main") or 7)
    assert cli.run() == 7
    assert freezes == ["main", "freeze"]


def test_main_leaves_the_collector_as_it_found_it(contract, tmp_path):
    state = gc.isenabled(), gc.get_freeze_count()
    assert _run("eval", {**contract, "out": tmp_path / "e.json"})[0] == cli.EXIT_OK
    assert cli.main(["frobnicate"]) == cli.EXIT_CONFIG
    assert (gc.isenabled(), gc.get_freeze_count()) == state


def test_console_script_is_the_process_entry_point():
    pyproject = (SRC_DIR.parent / "pyproject.toml").read_text()
    assert 'soupkit = "soupkit.cli:run"' in pyproject.splitlines()


# runpy warns that it runs soupkit.cli again although the package imported it
@pytest.mark.filterwarnings("ignore:'soupkit.cli' found in sys.modules:RuntimeWarning")
def test_python_m_exits_with_the_code_of_run(monkeypatch, capsys, freezes):
    monkeypatch.setattr(sys, "argv", ["soupkit", "frobnicate"])
    with pytest.raises(SystemExit) as exited:
        runpy.run_module("soupkit.cli", run_name="__main__")
    assert exited.value.code == cli.EXIT_CONFIG
    assert freezes == ["freeze"]
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_module_entry_point_writes_stdout_stderr_and_artifacts(contract, tmp_path):
    proc = _run_cli_process(["--help"])
    assert proc.returncode == 0 and proc.stdout.startswith("usage: soupkit")
    assert proc.stderr == ""

    def eval_argv(ckpt, out):
        return _argv("eval", {**contract, "ckpt": ckpt, "out": out})

    proc = _run_cli_process(eval_argv(contract["ckpt"], tmp_path / "e.json"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert cli.main(eval_argv(contract["ckpt"], tmp_path / "in-process.json")) == cli.EXIT_OK
    assert (tmp_path / "e.json").read_bytes() == (tmp_path / "in-process.json").read_bytes()
    proc = _run_cli_process(eval_argv(tmp_path / "x.ckpt", tmp_path / "m.json"))
    assert proc.returncode == cli.EXIT_MISSING_INPUT
    (line,) = proc.stderr.splitlines()
    assert json.loads(line)["error"] == "missing-input"
    assert not (tmp_path / "m.json").exists()


# ------------------------------------------ the exit-code contract, one table
#
# DEFECTS gives each input defect the slot it corrupts, its exit code and its
# stderr category. test_exit_code_contract runs every defect over every
# command that reads its slot, and checks the contract each run shares: the
# exit code; on failure one JSON line on stderr naming the category, and
# nothing new under --out; on success an empty stderr and artifacts that hold
# only finite numbers.


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
    return oracles.soupckpt_bytes({"tensors": [{"name": "w", "offset": 0, **entry}], "meta": {}},
                                  bytes(64))


def _with_meta_token(token: str) -> bytes:
    """``init_checkpoint(ARCH, 0)`` whose header meta holds the bare ``token``; spaces
    keep the header's length, so the payload stays where it was."""
    ckpt = init_checkpoint(ARCH, 0)
    ckpt.meta["note"] = token
    return serialize(ckpt).replace(f'"{token}"'.encode(), token.encode() + b"  ", 1)


def _with_header_entry(blob: bytes, **fields) -> bytes:
    """The checkpoint ``blob`` with ``fields`` set in its first tensor entry; the
    payload moves with the header, so only the entry changes."""
    end = 16 + int.from_bytes(blob[12:16], "little")
    header = json.loads(blob[16:end])
    header["tensors"][0].update(fields)
    return oracles.soupckpt_bytes(header, blob[(end + 63) // 64 * 64 :])


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


def _config_without(inputs: dict, section: str) -> None:
    doc = json.loads(inputs["config"].read_text())
    del doc[section]
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


def _without_data_config(make):
    """``make`` over a copy of the dataset without config.json."""
    def without(inputs: dict, value) -> None:
        _data(lambda data, _: (data / "config.json").unlink())(inputs, None)
        make(inputs, value)
    return without


def _model_directory(inputs: dict, _) -> None:
    _use_model(inputs, inputs["tmp"] / "model.ckpt")
    inputs["ckpt"].mkdir()


def _models_of_two_shapes(inputs: dict, widths) -> None:
    """Models of arch (4, 5, 3) and ``widths`` wherever two are read together."""
    a, b = inputs["tmp"] / "m0.ckpt", inputs["tmp"] / "m1.ckpt"
    save_checkpoint(init_checkpoint(ArchSpec((4, 5, 3)), 0), a)
    save_checkpoint(init_checkpoint(ArchSpec(widths), 1), b)
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


def _directories_under_out(inputs: dict, names) -> None:
    for name in names:
        (inputs["out"] / name).mkdir(parents=True)


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
    **{f"header-{name}": oracles.soupckpt_bytes(h) for name, h in
       [("list", b"[1]"), ("string", b'"tensors"'), ("nested-too-deeply", DEEPLY_NESTED.encode())]},
    # The sane model with a token JSON does not have as a meta value: each
    # loaded once, the value read as "nan" or "inf".
    **{f"header-{name}-token": _with_meta_token(token) for name, token in
       [("nan", "NaN"), ("infinity", "Infinity")]},
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
    # 10**-exponent is an infinite rate here; every --config command decodes the
    # space, so each rejects it before any work (a sweep exited 6 once, writing
    # the manifest)
    "set-space-draws-an-infinite-rate": Defect(
        "--set", CONFIG, "config", _flags,
        (("--set", SPACE_SWEEP, "--set", "sweep.space.lr_exponent_range=[-400,-350]"),)),
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
    "set-empty-path-segment": Defect("--set", CONFIG, "config", _flags,
                                     (("--set", "dataset..x=1"),)),
    "set-path-through-a-value": Defect("--set", CONFIG, "config", _flags,
                                       (("--set", "dataset.seed=1", "--set", "dataset.seed.x=1"),)),
    # a section is needed only by the command that runs it
    "config-without-arch": Defect("config", CONFIG, "config", _config_without, ("arch",),
                                  exits={"datagen": SUCCESS, "sweep": SUCCESS}),
    "config-without-sweep": Defect("config", CONFIG, "config", _config_without, ("sweep",),
                                   exits={"datagen": SUCCESS, "pretrain": SUCCESS}),
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
        "model", SHAPE, "shape-mismatch", _without_data_config(_misfit), ((5, 6, 3), (4, 6, 2)),
        exits={"soup-uniform": SUCCESS}),
    # A sweep records each fine-tune that diverges and goes on; soup uniform runs
    # no model; the plane's axes overflow.
    "model-overflowing": Defect(
        "model", SHAPE, "non-finite", lambda inputs, _: _use_model(inputs, inputs["overflow"]),
        exits={**dict.fromkeys(("sweep", "soup-uniform"), SUCCESS),
               "plane": (SHAPE, "degenerate-geometry")}),
    "model-missing": Defect("model", MISSING, "missing-input",
                            lambda inputs, _: _use_model(inputs, inputs["tmp"] / "missing.ckpt")),
    "model-is-a-directory": Defect("model", MISSING, "missing-input", _model_directory),
    # a logit ensemble needs no shared shape
    "models-of-two-shapes": Defect(
        "models", SHAPE, "shape-mismatch", _models_of_two_shapes, ((4, 6, 3),),
        exits=dict.fromkeys(("ensemble-uniform", "ensemble-greedy", "calibrate-manifest"),
                            SUCCESS)),
    # but it needs one class count, which without config.json the labels do not fix
    "models-of-two-class-counts-without-data-config": Defect(
        "models", SHAPE, "shape-mismatch", _without_data_config(_models_of_two_shapes),
        ((4, 5, 4),)),
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
    **{f"x-range-{name}": Defect("--x-range", CONFIG, "config", _flags_before_any_read,
                                 (("--x-range", v),))
       for name, v in (("zero-count", "0:1:0"), ("not-a-number", "a:1:2"))},
    # finite but huge plane coordinates overflow the logits
    "x-range-overflowing": Defect(
        "--x-range", SHAPE, "non-finite", _flags,
        tuple(("--metric", m, "--x-range=-1e300:1e300:3", "--y-range=0:1:2")
              for m in ("loss", "error"))),
    "x-range-too-large-to-allocate": Defect("--x-range", CONFIG, "too-large", _flags,
                                            ((f"--x-range=0:1:{10**17}",),)),
    **{f"alphas-{v}": Defect("--alphas", CONFIG, "config", _flags, (("--alphas", v),))
       for v in ("0,1.5", "-0.1", "0.5,nan")},
    **{f"alphas-{name}": Defect("--alphas", CONFIG, "config", _flags_before_any_read,
                                (("--alphas", v),))
       for name, v in (("not-a-number", "x"), ("none", ","))},
    **{f"splits-{name}": Defect("--splits", CONFIG, "config", _flags, (("--splits", v),))
       for name, v in (("comma", ","), ("empty", ""), ("two-commas", ",,"))},
    **{f"unknown-{flag[2:]}": Defect(flag, CONFIG, "config", _flags, ((flag, "holdout"),))
       for flag in ("--split", "--eval-split", "--fit-split")},
    # ---- --out: an existing path of the wrong kind is left as it was
    "out-is-a-directory": Defect("file-out", CONFIG, "config", _out_a_directory),
    "out-is-a-file": Defect("directory-out", CONFIG, "config", _out_a_file),
    # a directory where the command writes its first file
    "out-holds-a-directory": Defect("directory-out", CONFIG, "config", _directories_under_out,
                                    (("config.json", "model_000.ckpt"),)),
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
    assert _run("soup-uniform", {**fx, "out": root / "soup.ckpt"})[0] == cli.EXIT_OK
    assert _run("eval", {**fx, "out": root / "eval.json"})[0] == cli.EXIT_OK
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

    assert {command for command, _, _ in ARTIFACTS.values()} == set(COMMANDS)
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


def test_malformed_pairs_file_message_names_the_file(contract, tmp_path):
    pairs = tmp_path / "pairs.json"
    for raw in PAIRS_FILES.values():
        pairs.write_bytes(raw)
        code, err, _ = _run("approx", {**contract, "pairs": pairs, "out": tmp_path / "a.csv"})
        assert code == cli.EXIT_CONFIG
        assert str(pairs) in json.loads(err)["message"]


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


# -------------------------------------- what each command writes, one table
#
# ARTIFACTS holds, for each form of COMMANDS and each flag that changes what
# it writes, the flags and a check of the artifact at --out. It checks only
# what the command itself decides: which inputs, splits, defaults and ranges
# reach the library, and the keys and values of the JSON it writes. The
# library's own results (the greedy recipes' gains, the learned soup's trace,
# the CSV layouts) are tested against the library in the library's tests.


def _json(path: Path):
    return json.loads(Path(path).read_text())


def _rows(path: Path) -> list[list[str]]:
    """The CSV at ``path`` without its "#" comment, as lists of fields."""
    return [line.split(",") for line in path.read_text().splitlines() if line[0] != "#"]


def _evaluate(fx: dict, slot: str, split: str):
    """``evaluate`` of the checkpoint in ``slot`` on ``split`` of the contract dataset."""
    data = datagen.load_csv(fx["data"]).splits[split]
    return evaluate(load_checkpoint(fx[slot]), data.x, data.y)


def _datagen_writes_the_config_dataset(out, fx):
    # The contract dataset is datagen.save_csv of its config's dataset section.
    assert {p.name: p.read_bytes() for p in out.iterdir()} == {
        p.name: p.read_bytes() for p in fx["data"].iterdir()}


def _datagen_takes_the_set_value(out, fx):
    ds = datagen.load_csv(out)
    assert {name: len(split.y) for name, split in ds.splits.items()} == {
        **dict.fromkeys(datagen.SPLIT_NAMES, ROWS), "train": 7}


def _pretrain_trains_the_config_arch(out, fx):
    ckpt = trainer.pretrain(ARCH, datagen.load_csv(fx["data"]), trainer.HyperConfig(epochs=1))
    assert out.read_bytes() == serialize(ckpt)


def _sweep_of(configs: list):
    def check(out, fx):
        entries = trainer.load_manifest(out / "manifest.json").entries
        assert [e.config for e in entries] == configs
        assert [e.path for e in entries] == [f"model_{i:03d}.ckpt" for i in range(len(configs))]
    return check


def _soup(groups: list[str], trace: int, temperature=None):
    """A soup check: the sidecar's digest is the checkpoint's, ``groups`` each
    hold one weight per manifest entry, the loss trace has ``trace`` points
    (a recipe without one writes none) and the logit scale is ``temperature``
    (None: learned, so only positive)."""
    def check(out, fx):
        sidecar = _json(f"{out}.soup.json")
        assert sidecar.pop("digest") == content_digest(load_checkpoint(out))
        assert {g: len(w) for g, w in sidecar.pop("coefficients").items()} == dict.fromkeys(
            groups, 2)
        assert len(sidecar.pop("loss_trace", ())) == trace
        assert sidecar.pop("ingredient_indices") in ([0], [0, 1])
        scale = sidecar.pop("temperature")
        assert scale > 0 and temperature in (None, scale)
        assert sidecar == {}
    return check


def _uniform_soup_of_two_copies(out, fx):
    # The contract manifest holds {ckpt} twice.
    _soup(["all"], 0, 1.0)(out, fx)
    soup, ckpt = load_checkpoint(out), load_checkpoint(fx["ckpt"])
    assert list(soup) == list(ckpt)
    assert all(np.array_equal(soup[name], ckpt[name]) for name in ckpt)


def _ensemble(kind: str, split: str):
    def check(out, fx):
        # Every member is {ckpt}, and the mean of equal logits is those logits.
        report = _evaluate(fx, "ckpt", split)
        assert _json(out) == {"kind": kind, "members": [0, 1], "split": split, "count": ROWS,
                              "loss": report.loss, "top1_error": report.top1_error,
                              "accuracy": 1.0 - report.top1_error}
    return check


def _eval(split: str, beta: float | None):
    def check(out, fx):
        payload, report = _json(out), _evaluate(fx, "ckpt", split)
        calibrated = payload.pop("calibrated_loss")
        assert 0.0 <= payload.pop("ece") <= 1.0
        assert payload == {"ckpt": str(fx["ckpt"]), "split": split, "beta": beta, "count": ROWS,
                           "loss": report.loss, "top1_error": report.top1_error,
                           "accuracy": 1.0 - report.top1_error}
        if beta is not None:
            assert calibrated != report.loss
    return check


def _interp_at_the_default_alphas(out, fx):
    _, *rows = _rows(out)
    assert [row[:2] for row in rows] == [
        [repr(i / 10), split] for i in range(11) for split in ("val", "test")]
    assert float(rows[0][2]) == _evaluate(fx, "ckpt", "val").loss
    assert float(rows[-1][2]) == _evaluate(fx, "ckpt_b", "test").loss


def _plane(metric: str, ys: int, xs: int):
    def check(out, fx):
        assert out.read_text().startswith(f"# metric={metric} ")
        assert [len(row) for row in _rows(out)] == [1 + xs] * (1 + ys)
    return check


def _grid_of_two_models(out, fx):
    assert len(_rows(out)) == 1 + 2 * 3 // 2  # a header, then each a <= b of k = 2 models


def _approx(splits: tuple[str, ...], alphas: tuple[str, ...], beta: str | None = None):
    def check(out, fx):
        _, *rows = _rows(out)
        assert sorted(row[:3] for row in rows) == sorted(
            [pair, split, alpha] for pair in ("p0", "p1") for split in splits for alpha in alphas)
        assert beta is None or {row[3] for row in rows} == {beta}
    return check


def _calibrate_at_the_default_bins(out, fx):
    assert out.read_text().startswith("# beta=")
    header, *rows = _rows(out)
    assert header == ["stage", "bin", "count", "mean_confidence", "accuracy"]
    assert len(rows) == 2 * 15  # before and after the fit


def _report_merges_its_inputs(out, fx):
    sweep = {"total": 2, "successful": 2, "failed": 0, "best_val_accuracy": 0.5,
             "mean_val_accuracy": 0.5, "theta0_digest": ""}
    assert _json(out) == {"sweep": sweep, **{key: [{**_json(fx[slot]), "path": str(fx[slot])}]
                                             for key, slot in (("soups", "soup"),
                                                               ("evals", "eval_report"))}}


# case: (form, flags, check of the artifact at --out)
ARTIFACTS = {
    "datagen": ("datagen", (), _datagen_writes_the_config_dataset),
    "datagen-set": ("datagen", ("--set", "dataset.num_train=7"), _datagen_takes_the_set_value),
    "pretrain": ("pretrain", (), _pretrain_trains_the_config_arch),
    "sweep": ("sweep", (), _sweep_of([trainer.HyperConfig(epochs=1)])),
    "sweep-drawn": ("sweep", ("--set", SPACE_SWEEP),
                    _sweep_of(trainer.random_search_configs(2, 0, trainer.SearchSpace()))),
    "soup-uniform": ("soup-uniform", (), _uniform_soup_of_two_copies),
    "soup-greedy": ("soup-greedy", (), _soup(["all"], 0, 1.0)),
    "soup-learned": ("soup-learned", (), _soup(["all"], 4)),
    "soup-learned-by-layer": ("soup-learned-by-layer", (),
                              _soup([f"layer{i}." for i in range(len(ARCH.layer_widths) - 1)], 4)),
    "ensemble-uniform": ("ensemble-uniform", (), _ensemble("uniform", "test")),
    "ensemble-greedy": ("ensemble-greedy", (), _ensemble("greedy", "test")),
    "ensemble-greedy-eval-split": ("ensemble-greedy", ("--eval-split", "val"),
                                   _ensemble("greedy", "val")),
    "eval": ("eval", (), _eval("test", None)),
    "eval-beta": ("eval", ("--split", "val", "--beta", "0.5"), _eval("val", 0.5)),
    "interp": ("interp", (), _interp_at_the_default_alphas),
    "plane": ("plane", (), _plane("loss", 2, 2)),
    "plane-error": ("plane", ("--metric", "error", "--x-range=-0.25:1.25:4",
                              "--y-range=-0.25:1.25:3"), _plane("error", 3, 4)),
    "grid-study": ("grid-study", (), _grid_of_two_models),
    "approx": ("approx", (), _approx(("val", "test"), ("0.0", "0.5", "1.0"))),
    "approx-fixed-beta": ("approx", ("--splits", "val", "--alphas", "0.5", "--beta-mode",
                                     "fixed-1"), _approx(("val",), ("0.5",), "1.0")),
    "calibrate-ckpt": ("calibrate-ckpt", (), _calibrate_at_the_default_bins),
    "calibrate-manifest": ("calibrate-manifest", (), _calibrate_at_the_default_bins),
    "report": ("report", (), _report_merges_its_inputs),
}


@pytest.mark.parametrize("case", list(ARTIFACTS))
def test_each_command_writes_its_documented_artifact(one_parser, contract, tmp_path, case):
    command, flags, check = ARTIFACTS[case]
    for run in ("first", "second"):
        (tmp_path / run).mkdir()
        code, err, argv = _run(command, {**contract, "out": tmp_path / run / "out"}, flags)
        assert (code, err) == (cli.EXIT_OK, ""), argv
    assert _outputs(tmp_path / "first") == _outputs(tmp_path / "second")  # deterministic
    check(tmp_path / "first" / "out", contract)


def test_set_override_without_config_file(tmp_path):
    out = tmp_path / "defaults"
    assert cli.main(["datagen", "--set", "dataset.num_train=32", "--out", str(out)]) == cli.EXIT_OK
    ds = datagen.load_csv(out)
    assert ds.splits["train"].x.shape[0] == 32
    assert ds.config.input_dim == datagen.DatasetConfig().input_dim


def test_calibrate_loads_models_then_the_dataset_then_its_splits(contract, tmp_path, count_calls):
    # The order of soup, ensemble and grid-study: with an unknown --fit-split
    # too, a missing or misfit model is the error reported. No command forwards
    # a model before it has found every split it names; soupkit.ensembles,
    # imported above, holds the forward that counts.
    misfit = tmp_path / "misfit.ckpt"
    save_checkpoint(init_checkpoint(ArchSpec((5, 6, 3)), 0), misfit)
    forwards = count_calls(tinynet, "forward")
    nope = ("--fit-split", "nope")
    for command, slots, flags, code, category in [
        ("calibrate-manifest", {"manifest": tmp_path / "missing.json"}, nope, cli.EXIT_MISSING_INPUT,
         "missing-input"),
        ("calibrate-ckpt", {"ckpt": misfit}, nope, cli.EXIT_SHAPE, "shape-mismatch"),
        ("calibrate-ckpt", {}, nope, cli.EXIT_CONFIG, "config"),
        ("ensemble-greedy", {}, ("--eval-split", "nope"), cli.EXIT_CONFIG, "config"),
    ]:
        got, err, argv = _run(command, {**contract, **slots, "out": tmp_path / "out"}, flags)
        assert (got, json.loads(err)["error"]) == (code, category), argv
    assert forwards == []
    assert not (tmp_path / "out").exists()


def test_report_names_each_artifact_by_the_path_it_was_read_from(contract, tmp_path):
    artifact = tmp_path / "s.soup.json"
    artifact.write_text(json.dumps({"path": "elsewhere", "recipe": "uniform"}))
    out = tmp_path / "report.json"
    inputs = {**contract, "soup": artifact, "eval_report": artifact, "out": out}
    assert _run("report", inputs)[0] == cli.EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["soups"] == payload["evals"] == [{"path": str(artifact), "recipe": "uniform"}]
