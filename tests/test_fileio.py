"""The artifact codec: finite-only JSON and CSV writers and the JSON reader."""

import math

import numpy as np
import pytest

from soupkit.errors import DataFormatError, NonFiniteError
from soupkit.fileio import cell, read_json, write_json, write_table


def test_cell_formats_each_kind_by_one_rule():
    assert cell(0.1) == "0.1"
    assert cell(np.float64(0.1)) == "0.1"  # not NumPy 2's "np.float64(0.1)"
    assert cell(np.float32(0.5)) == "0.5"
    assert cell(-0.0) == "-0.0"
    assert cell(None) == "NA"
    assert cell(True) == "True"
    assert cell(7) == "7"
    assert cell(np.int64(7)) == "7"
    assert cell("val") == "val"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_cell_refuses_non_finite_floats(value):
    with pytest.raises(NonFiniteError):
        cell(value)


def test_write_table_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ("a", "b"), [(1, 0.25), ("x", None)], comment="k=v")
    assert path.read_text() == "# k=v\na,b\n1,0.25\nx,NA\n"
    write_table(path, ("a",), [])
    assert path.read_text() == "a\n"


def test_write_table_with_a_non_finite_field_writes_nothing(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(NonFiniteError):
        write_table(path, ("a", "b"), [(1, 0.5), (2, math.nan)])
    assert list(tmp_path.iterdir()) == []


def test_write_json_layout_and_key_order(tmp_path):
    path = tmp_path / "d.json"
    write_json(path, {"b": 1, "a": [0.5, None]})
    assert path.read_text() == '{\n  "a": [\n    0.5,\n    null\n  ],\n  "b": 1\n}\n'
    write_json(path, {"b": 1, "a": 2}, sort_keys=False)
    assert path.read_text() == '{\n  "b": 1,\n  "a": 2\n}\n'


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_write_json_with_a_non_finite_value_writes_nothing(tmp_path, value):
    with pytest.raises(NonFiniteError):
        write_json(tmp_path / "d.json", {"nested": [1.0, {"x": value}]})
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "raw",
    [b"{not json", b"\xff\xfe{}", b'{"x": NaN}', b"[Infinity]", b"[-Infinity]"],
    ids=["not-json", "not-utf8", "nan", "infinity", "minus-infinity"],
)
def test_read_json_raises_the_given_error(tmp_path, raw):
    path = tmp_path / "d.json"
    path.write_bytes(raw)
    with pytest.raises(DataFormatError, match="not valid UTF-8 JSON"):
        read_json(path, DataFormatError)
