"""Named float32 tensor collections and the SOUPCKPT file format.

A :class:`Checkpoint` is an ordered map of named float32 tensors plus a
string-to-string meta block.  It is the unit that everything else in the
package consumes and produces: trained weights, merged weights,
gradients, and interpolation deltas all travel as checkpoints.

File format (version 1)
-----------------------
::

    bytes 0..7    magic b"SOUPCKPT"
    bytes 8..11   format version, little-endian uint32
    bytes 12..15  header byte length, little-endian uint32
    bytes 16..    UTF-8 JSON header:
                  {"tensors": [{"name", "shape", "offset", "nbytes"}...],
                   "meta": {...}}
    payload       raw little-endian float32 tensor data, in header order

Tensor ``offset`` is relative to the payload base, which is the first
64-byte-aligned position at or after the header end; every tensor start
is itself 64-byte aligned.  Gaps are zero-filled.  A checkpoint survives
a save/load round trip bit for bit.

All reductions over tensor values (dot products, norms, weighted
combinations) accumulate in float64 and only round to float32 at the
storage boundary.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    BadMagicError,
    DuplicateTensorError,
    FormatVersionError,
    HeaderError,
    NonFiniteError,
    ShapeMismatchError,
    TruncatedFileError,
    UndefinedAngleError,
)
from .fileio import atomic_write_bytes

MAGIC = b"SOUPCKPT"
FORMAT_VERSION = 1
_ALIGN = 64


def _aligned(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


class Tensor:
    """A named, row-major float32 array; values must be finite."""

    __slots__ = ("name", "data")

    def __init__(self, name: str, data: np.ndarray | Sequence[float]) -> None:
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.float32))
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError(f"tensor {name!r} contains non-finite values")
        self.name = name
        self.data = arr

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor({self.name!r}, shape={self.shape})"


@dataclass
class Checkpoint:
    """Ordered name -> Tensor map with free-form string metadata."""

    tensors: dict[str, Tensor] = field(default_factory=dict)
    meta: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_arrays(
        cls, arrays: Mapping[str, np.ndarray], meta: Mapping[str, str] | None = None
    ) -> "Checkpoint":
        tensors = {name: Tensor(name, arr) for name, arr in arrays.items()}
        return cls(tensors=tensors, meta=dict(meta or {}))

    @property
    def names(self) -> list[str]:
        return list(self.tensors)

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self.tensors

    def __iter__(self) -> Iterator[Tensor]:
        return iter(self.tensors.values())

    def __len__(self) -> int:
        return len(self.tensors)


@dataclass(frozen=True)
class ParamFilter:
    """Include-predicate over tensor names, by excluded name suffixes."""

    exclude_suffixes: tuple[str, ...] = ()

    def includes(self, name: str) -> bool:
        return not any(name.endswith(sfx) for sfx in self.exclude_suffixes)

    def apply(self, ckpt: Checkpoint) -> list[Tensor]:
        return [t for t in ckpt if self.includes(t.name)]


INCLUDE_ALL = ParamFilter()
# Direction analyses (angles between fine-tuning deltas) ignore the
# per-channel gain and bias vectors, which otherwise dominate norms.
DEFAULT_ANGLE_FILTER = ParamFilter(exclude_suffixes=(".gain", ".bias"))


def serialize(ckpt: Checkpoint) -> bytes:
    entries = []
    offset = 0
    for tensor in ckpt:
        nbytes = tensor.data.size * 4
        entries.append(
            {
                "name": tensor.name,
                "shape": list(tensor.shape),
                "offset": offset,
                "nbytes": nbytes,
            }
        )
        offset = _aligned(offset + nbytes)
    header = json.dumps(
        {"tensors": entries, "meta": dict(ckpt.meta)}, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")
    payload_base = _aligned(16 + len(header))
    total = payload_base
    if entries:
        total = payload_base + entries[-1]["offset"] + entries[-1]["nbytes"]
    buf = bytearray(total)
    buf[0:8] = MAGIC
    struct.pack_into("<II", buf, 8, FORMAT_VERSION, len(header))
    buf[16 : 16 + len(header)] = header
    for entry, tensor in zip(entries, ckpt):
        start = payload_base + entry["offset"]
        raw = np.ascontiguousarray(tensor.data, dtype="<f4").tobytes()
        buf[start : start + len(raw)] = raw
    return bytes(buf)


def deserialize(blob: bytes) -> Checkpoint:
    if len(blob) < 8:
        raise TruncatedFileError("file shorter than the 8-byte magic")
    if blob[0:8] != MAGIC:
        raise BadMagicError(f"bad magic {blob[0:8]!r}")
    if len(blob) < 16:
        raise TruncatedFileError("file ends inside the fixed header")
    version, header_len = struct.unpack_from("<II", blob, 8)
    if version != FORMAT_VERSION:
        raise FormatVersionError(f"unsupported format version {version}")
    if len(blob) < 16 + header_len:
        raise TruncatedFileError("file ends inside the JSON header")
    try:
        header = json.loads(blob[16 : 16 + header_len].decode("utf-8"))
        entries = header["tensors"]
        meta = header["meta"]
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        raise HeaderError(f"unreadable header: {exc}") from exc
    if not isinstance(entries, list) or not isinstance(meta, dict):
        raise HeaderError("header fields have wrong types")
    payload_base = _aligned(16 + header_len)
    tensors: dict[str, Tensor] = {}
    for entry in entries:
        try:
            name = entry["name"]
            shape = tuple(int(s) for s in entry["shape"])
            offset = int(entry["offset"])
            nbytes = int(entry["nbytes"])
        except (TypeError, KeyError, ValueError) as exc:
            raise HeaderError(f"malformed tensor entry {entry!r}") from exc
        if name in tensors:
            raise DuplicateTensorError(f"tensor {name!r} declared twice")
        if nbytes != int(np.prod(shape, dtype=np.int64)) * 4 or min(shape, default=1) < 0:
            raise HeaderError(f"tensor {name!r}: shape {shape} does not match {nbytes} bytes")
        start = payload_base + offset
        if start + nbytes > len(blob):
            raise TruncatedFileError(f"tensor {name!r} payload extends past end of file")
        data = np.frombuffer(blob, dtype="<f4", count=nbytes // 4, offset=start)
        tensors[name] = Tensor(name, data.reshape(shape).copy())
    return Checkpoint(tensors=tensors, meta={str(k): str(v) for k, v in meta.items()})


def save(ckpt: Checkpoint, path) -> None:
    atomic_write_bytes(path, serialize(ckpt))


def load(path) -> Checkpoint:
    with open(path, "rb") as handle:
        return deserialize(handle.read())


def checkpoints_equal(a: Checkpoint, b: Checkpoint, check_meta: bool = True) -> bool:
    """Bitwise equality: same names in order, shapes, payload bytes, meta."""
    if a.names != b.names:
        return False
    for ta, tb in zip(a, b):
        if ta.shape != tb.shape or ta.data.tobytes() != tb.data.tobytes():
            return False
    return a.meta == b.meta if check_meta else True


def content_digest(ckpt: Checkpoint) -> str:
    """Short hex digest over tensor names, shapes, and payload bytes."""
    h = hashlib.sha256()
    for tensor in ckpt:
        h.update(tensor.name.encode("utf-8"))
        h.update(str(tensor.shape).encode("ascii"))
        h.update(np.ascontiguousarray(tensor.data, dtype="<f4").tobytes())
    return h.hexdigest()[:16]


def _require_same_structure(ckpts: Sequence[Checkpoint]) -> None:
    ref = ckpts[0]
    for other in ckpts[1:]:
        if other.names != ref.names:
            raise ShapeMismatchError(
                f"tensor name sets differ: {ref.names} vs {other.names}"
            )
        for ta, tb in zip(ref, other):
            if ta.shape != tb.shape:
                raise ShapeMismatchError(
                    f"tensor {ta.name!r} shape {ta.shape} vs {tb.shape}"
                )


def combine(coeffs: Sequence[float], ckpts: Sequence[Checkpoint]) -> Checkpoint:
    """Per-tensor linear combination sum_i coeffs[i] * ckpts[i].

    Accumulates left to right over inputs in float64, rounds once to
    float32.  All inputs must share tensor names and shapes.
    """
    if len(ckpts) == 0:
        raise ShapeMismatchError("combine needs at least one checkpoint")
    if len(coeffs) != len(ckpts):
        raise ShapeMismatchError(
            f"{len(coeffs)} coefficients for {len(ckpts)} checkpoints"
        )
    _require_same_structure(ckpts)
    out: dict[str, np.ndarray] = {}
    for name in ckpts[0].names:
        acc = float(coeffs[0]) * ckpts[0][name].data.astype(np.float64)
        for c, ckpt in zip(coeffs[1:], ckpts[1:]):
            acc += float(c) * ckpt[name].data.astype(np.float64)
        with np.errstate(over="ignore"):  # Tensor() rejects the infs right after
            out[name] = acc.astype(np.float32)
    meta = {
        "recipe": "combine",
        "recipe.coeffs": ",".join(repr(float(c)) for c in coeffs),
        "recipe.inputs": ",".join(content_digest(c) for c in ckpts),
    }
    return Checkpoint.from_arrays(out, meta)


def subtract(a: Checkpoint, b: Checkpoint) -> Checkpoint:
    """The delta a - b, used as a direction in weight space."""
    return combine([1.0, -1.0], [a, b])


def delta_dot(a: Checkpoint, b: Checkpoint, param_filter: ParamFilter = INCLUDE_ALL) -> float:
    """Float64 inner product over the filtered shared tensors."""
    _require_same_structure([a, b])
    total = 0.0
    for tensor in a:
        if not param_filter.includes(tensor.name):
            continue
        total += float(
            np.dot(
                tensor.data.astype(np.float64).ravel(),
                b[tensor.name].data.astype(np.float64).ravel(),
            )
        )
    return total


def delta_norm(a: Checkpoint, param_filter: ParamFilter = INCLUDE_ALL) -> float:
    return math.sqrt(delta_dot(a, a, param_filter))


def angle_between(
    d1: Checkpoint, d2: Checkpoint, param_filter: ParamFilter = DEFAULT_ANGLE_FILTER
) -> float:
    """Angle in degrees between two weight-space deltas.

    By default the per-channel gain and bias tensors are excluded, so the
    angle reflects the orientation of the weight matrices only.
    """
    n1 = delta_norm(d1, param_filter)
    n2 = delta_norm(d2, param_filter)
    if n1 == 0.0 or n2 == 0.0:
        raise UndefinedAngleError("angle against a zero-norm delta is undefined")
    cosine = delta_dot(d1, d2, param_filter) / (n1 * n2)
    return math.degrees(math.acos(min(1.0, max(-1.0, cosine))))
