"""Atomic file writes and the one format of JSON and CSV artifacts.

All persistent outputs go through these helpers: content is written to a
temporary file in the destination directory and moved into place with
os.replace, so readers never observe a partially written file.

Artifacts are finite: :func:`write_json` and :func:`write_table` raise
NonFiniteError on a NaN or infinity before anything is written.  A JSON
artifact is indented by two spaces, keys sorted unless the caller pins
their order; a CSV field is formatted by :func:`cell`.  Both end with a
newline.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from numbers import Integral, Real
from pathlib import Path
from typing import Iterable, Sequence

from .errors import NonFiniteError, SoupkitError


def atomic_write_bytes(path: str | os.PathLike[str], data: bytes) -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | os.PathLike[str], text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _reject_constant(token: str) -> None:
    raise ValueError(f"{token} is not a JSON number")


def read_json(path: str | os.PathLike[str], error: type[SoupkitError]):
    """Parsed JSON file; text that is not UTF-8 JSON raises ``error``.

    Python's parser accepts the tokens NaN, Infinity and -Infinity, which
    JSON does not have; a file holding one is malformed too, as is one
    nested too deeply for the parser.
    """
    text = Path(path).read_bytes()
    try:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        return json.loads(text.decode("utf-8"), parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: not valid UTF-8 JSON: {exc}") from exc


def write_json(path: str | os.PathLike[str], doc: object, *, sort_keys: bool = True) -> None:
    """JSON artifact; a NaN or infinity anywhere in ``doc`` raises NonFiniteError."""
    try:
        text = json.dumps(doc, indent=2, sort_keys=sort_keys, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteError(f"{path}: non-finite value in output: {exc}") from exc
    atomic_write_text(path, text + "\n")


def cell(value: object) -> str:
    """One CSV field: a float as its repr, None as NA, anything else through str.

    The float goes through ``float`` first, because NumPy 2 reprs
    ``np.float64(0.5)`` where Python prints ``0.5``.
    """
    if value is None:
        return "NA"
    if isinstance(value, Real) and not isinstance(value, Integral):
        if not math.isfinite(value):
            raise NonFiniteError(f"non-finite value {value!r} in output")
        return repr(float(value))
    return str(value)


def write_table(
    path: str | os.PathLike[str],
    header: Sequence[object],
    rows: Iterable[Sequence[object]],
    comment: str | None = None,
) -> None:
    """CSV artifact: an optional ``# comment`` line, the header, then the rows."""
    lines = [] if comment is None else ["# " + comment]
    lines.extend(",".join(cell(v) for v in row) for row in [header, *rows])
    atomic_write_text(path, "\n".join(lines) + "\n")
