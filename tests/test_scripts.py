"""The scripts in scripts/: the example studies run end to end and write parseable
CSVs, and the pipeline script runs the commands the benchmark's cli workload runs.
README's library quickstart runs as written."""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def _rows(path: Path) -> list[list[str]]:
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return list(csv.reader(lines))


def test_example_scripts_write_parseable_csvs(tmp_path):
    outputs = {
        "shift_robustness.py": ["interpolation.csv"],
        "approx_study.py": ["approx_calibrate_soup.csv", "approx_fixed_1.csv"],
    }
    for script, names in outputs.items():
        out = tmp_path / script
        done = subprocess.run([sys.executable, str(SCRIPTS / script), str(out)],
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        for name in names:
            header, *rows = _rows(out / name)
            assert "alpha" in header and rows, name
            for row in rows:
                assert len(row) == len(header), (name, row)
            alphas = {float(row[header.index("alpha")]) for row in rows}
            assert min(alphas) == 0.0 and max(alphas) == 1.0
            assert all(math.isfinite(float(v)) for row in rows for v in row[2:] if v != "NA")


def test_pipeline_script_runs_the_benchmark_cli_commands(tmp_path, monkeypatch):
    # perfbench/workloads.py copies the script's command list by hand; a
    # stub `soupkit` on PATH records the argv of each command the script runs.
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    stub = bin_dir / "soupkit"
    stub.write_text(f"#!{sys.executable}\n"
                    "import json, os, sys\n"
                    "with open(os.environ['SOUPKIT_ARGV_LOG'], 'a') as log:\n"
                    "    log.write(json.dumps(sys.argv[1:]) + '\\n')\n")
    stub.chmod(0o755)
    log = tmp_path / "argv.jsonl"
    env = {**os.environ, "PATH": f"{bin_dir}{os.pathsep}{os.environ['PATH']}",
           "SOUPKIT_ARGV_LOG": str(log)}
    done = subprocess.run(["bash", str(SCRIPTS / "run_pipeline.sh"), "pipeline"], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    recorded = [json.loads(line) for line in log.read_text().splitlines()]

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # as perfbench/selfcheck.py imports it
    import workloads

    assert recorded == workloads.Cli.commands()


def test_readme_library_quickstart_runs(capsys):
    section = (ROOT / "README.md").read_text().split("## Quickstart (library)", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    accuracy, shape, angle = capsys.readouterr().out.splitlines()
    assert 0.0 <= float(accuracy) <= 1.0
    assert shape == "(160, 5)"
    assert 0.0 <= float(angle) <= 180.0
