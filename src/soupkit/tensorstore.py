"""Named float32 tensor collections, the SOUPCKPT file format, and the
float64 weight-space type.

A :class:`Checkpoint` is an ordered map of named float32 tensors plus a
string-to-string meta block.  It is what the package stores and
exchanges: trained weights and merged weights travel as checkpoints.

:class:`Params` is the float64 working form of the same weights: one
flat vector plus a :class:`Layout` (names in checkpoint order, with each
tensor's slice and shape), read by name through reshaped views.
Training, gradients, interpolation deltas and plane directions travel
as Params.  :func:`as_params` widens a checkpoint exactly;
:func:`to_checkpoint` is the one place float64 rounds to float32.

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
storage boundary.  Inner products sum tensor by tensor in layout order
(:func:`dot`): one sum over the whole vector rounds differently.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

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


class Layout(NamedTuple):
    """Tensor names in vector order, with each tensor's slice and shape."""

    names: tuple[str, ...]
    spans: tuple[tuple[slice, tuple[int, ...]], ...]


class Params(Mapping[str, np.ndarray]):
    """Float64 parameters: one flat vector, read by name through views."""

    __slots__ = ("layout", "vector", "_views")

    def __init__(self, layout: Layout, vector: np.ndarray) -> None:
        self.layout, self.vector = layout, vector
        self._views = {
            name: vector[sl].reshape(shape) for name, (sl, shape) in zip(layout.names, layout.spans)
        }

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    def copy(self) -> Params:
        return Params(self.layout, self.vector.copy())


def as_params(theta: Checkpoint | Mapping[str, np.ndarray]) -> Params:
    """Float64 parameters from a checkpoint or array mapping (a Params as is)."""
    if isinstance(theta, Params):
        return theta
    if isinstance(theta, Checkpoint):
        names, arrays = tuple(theta.tensors), [t.data for t in theta]
    else:
        names, arrays = tuple(theta), [np.asarray(a) for a in theta.values()]
    shapes = [a.shape for a in arrays]
    ends = list(accumulate(math.prod(shape) for shape in shapes))
    layout = Layout(names, tuple(zip(map(slice, [0, *ends], ends), shapes)))
    flat = [a.reshape(-1) for a in arrays]
    return Params(layout, np.concatenate(flat, dtype=np.float64) if flat else np.empty(0))


def to_checkpoint(params: Params, meta: Mapping[str, str]) -> Checkpoint:
    """Float32 storage of float64 parameters: the package's one rounding step."""
    with np.errstate(over="ignore"):  # Tensor() rejects the infs right after
        stored = params.vector.astype(np.float32)
    tensors = {
        name: Tensor(name, stored[sl].reshape(shape))
        for name, (sl, shape) in zip(params.layout.names, params.layout.spans)
    }
    return Checkpoint(tensors=tensors, meta=dict(meta))


def dot(a: Params, b: Params, names: Iterable[str] | None = None) -> float:
    """Float64 inner product over ``names`` (default all), tensor by tensor.

    Each tensor's product is summed on its own and the sums are added in
    the order given: trained SAM weights, plane coordinates and learned
    soups depend on this rounding.
    """
    if a.layout != b.layout:
        raise ShapeMismatchError("inner product of parameters with different names or shapes")
    return sum(float(np.sum(a[k] * b[k])) for k in (a.layout.names if names is None else names))


def combine(coeffs: Sequence[float], ckpts: Sequence[Checkpoint]) -> Checkpoint:
    """Linear combination sum_i coeffs[i] * ckpts[i] on the flat vector.

    Accumulates left to right over inputs in float64, rounds once to
    float32.  All inputs must share tensor names, order and shapes.
    """
    if len(ckpts) == 0:
        raise ShapeMismatchError("combine needs at least one checkpoint")
    if len(coeffs) != len(ckpts):
        raise ShapeMismatchError(
            f"{len(coeffs)} coefficients for {len(ckpts)} checkpoints"
        )
    first = as_params(ckpts[0])
    acc = float(coeffs[0]) * first.vector
    # One input widened at a time: holding every float64 copy at once is slower.
    for c, ckpt in zip(coeffs[1:], ckpts[1:]):
        other = as_params(ckpt)
        if other.layout != first.layout:
            raise ShapeMismatchError(
                f"tensor names or shapes differ: {first.layout.names} vs {other.layout.names}"
            )
        acc += float(c) * other.vector
    meta = {
        "recipe": "combine",
        "recipe.coeffs": ",".join(repr(float(c)) for c in coeffs),
        "recipe.inputs": ",".join(content_digest(c) for c in ckpts),
    }
    return to_checkpoint(Params(first.layout, acc), meta)


def subtract(a: Checkpoint, b: Checkpoint) -> Checkpoint:
    """The delta a - b, used as a direction in weight space."""
    return combine([1.0, -1.0], [a, b])


def delta_dot(a: Checkpoint, b: Checkpoint, param_filter: ParamFilter = INCLUDE_ALL) -> float:
    """Float64 inner product over the filtered shared tensors."""
    pa, pb = as_params(a), as_params(b)
    return dot(pa, pb, [name for name in pa.layout.names if param_filter.includes(name)])


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
