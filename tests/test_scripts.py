"""Smoke test: the example studies in scripts/ run end to end and write parseable CSVs."""

from __future__ import annotations

import csv
import math
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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
