"""Stored and working weights over one layout, and the SOUPCKPT file format.

A :class:`Layout` lists tensor names in vector order with each tensor's
slice and shape.  Stored and working weights share it:

- :class:`Checkpoint` is what the package stores and exchanges: one
  contiguous float32 vector over a layout, plus a string-to-string meta
  block.  Trained and merged weights travel as checkpoints.
- :class:`Params` is the float64 working form of the same weights: one
  contiguous float64 vector over a layout.  Training, gradients,
  interpolation deltas and plane directions travel as Params.

Both read by name through reshaped views (``ckpt["layer0.weight"]`` is
a float32 view into ``ckpt.vector``), but neither is the other: code
that passes a Params through unchanged must not get float32 values.
:func:`as_params` widens a checkpoint exactly onto its own layout;
:func:`to_checkpoint` is the one place float64 rounds to float32.

File format (version 1)
-----------------------
::

    bytes 0..7    magic b"SOUPCKPT"
    bytes 8..11   format version, little-endian uint32
    bytes 12..15  header byte length, little-endian uint32
    bytes 16..    UTF-8 JSON header, a schema.CheckpointHeader:
                  {"tensors": [{"name", "shape", "offset", "nbytes"}...], "meta": {...}}
    payload       raw little-endian float32 tensor data, in header order

Tensor ``offset`` is relative to the payload base, which is the first
64-byte-aligned position at or after the header end; every tensor start
is itself 64-byte aligned.  Gaps are zero-filled.  A checkpoint survives
a save/load round trip bit for bit.

Weight-space arithmetic runs in float64.  :func:`axpy` is the one
float64 line ``x + t*y`` (deltas, interpolation and plane points stay
Params); :func:`combine` is the float32 storage combination, rounding
its float64 sum once into a Checkpoint.  Inner products sum tensor by
tensor in layout order (:func:`dot`): one sum over the whole vector
rounds differently.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, astuple
from itertools import accumulate
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import CheckpointFormatError, NonFiniteError, ShapeMismatchError, decode
from .fileio import atomic_write_bytes
from .schema import CheckpointHeader, TensorEntry

MAGIC = b"SOUPCKPT"
FORMAT_VERSION = 1
_ALIGN = 64


def _aligned(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


class Layout(NamedTuple):
    """Tensor names in vector order, with each tensor's slice and shape."""

    names: tuple[str, ...]
    spans: tuple[tuple[slice, tuple[int, ...]], ...]


def _flatten(arrays: Mapping[str, np.ndarray], dtype: type) -> tuple[Layout, np.ndarray]:
    """``arrays`` laid out back to back in mapping order, as one ``dtype`` vector."""
    values = [np.asarray(a) for a in arrays.values()]
    ends = list(accumulate(a.size for a in values))
    spans = zip(map(slice, [0, *ends], ends), (a.shape for a in values))
    flat = [a.reshape(-1) for a in values]
    vector = np.concatenate(flat, dtype=dtype) if flat else np.empty(0, dtype)
    return Layout(tuple(arrays), tuple(spans)), vector


class _Weights(Mapping[str, np.ndarray]):
    """One flat vector over a layout, read by name through reshaped views."""

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


class Checkpoint(_Weights):
    """Stored weights: one finite float32 vector over a layout, plus string metadata."""

    __slots__ = ("meta",)

    def __init__(self, layout: Layout, vector: np.ndarray, meta: Mapping[str, str]) -> None:
        super().__init__(layout, vector)
        if not np.isfinite(vector).all():
            bad = next(name for name, values in self.items() if not np.isfinite(values).all())
            raise NonFiniteError(f"tensor {bad!r} contains non-finite values")
        self.meta = dict(meta)

    @classmethod
    def from_arrays(
        cls, arrays: Mapping[str, np.ndarray], meta: Mapping[str, str] | None = None
    ) -> Checkpoint:
        return cls(*_flatten(arrays, np.float32), meta or {})


class Params(_Weights):
    """Float64 working weights: one flat vector over a layout.

    Never a Checkpoint and never built from one without widening, so a
    Params handed through unchanged always computes in float64.
    """

    __slots__ = ()

    def copy(self) -> Params:
        return Params(self.layout, self.vector.copy())


def serialize(ckpt: Checkpoint) -> bytes:
    entries = []
    offset = 0
    for name, (sl, shape) in zip(ckpt.layout.names, ckpt.layout.spans):
        entries.append(TensorEntry(name, shape, offset, (sl.stop - sl.start) * 4))
        offset = _aligned(offset + entries[-1].nbytes)
    header = json.dumps(
        {"tensors": [asdict(e) for e in entries], "meta": dict(ckpt.meta)},
        separators=(",", ":"), ensure_ascii=False,
    ).encode("utf-8")
    payload_base = _aligned(16 + len(header))
    buf = bytearray(payload_base + (entries[-1].offset + entries[-1].nbytes if entries else 0))
    buf[0:8] = MAGIC
    struct.pack_into("<II", buf, 8, FORMAT_VERSION, len(header))
    buf[16 : 16 + len(header)] = header
    stored = ckpt.vector.astype("<f4", copy=False)
    for entry, (sl, _) in zip(entries, ckpt.layout.spans):
        start = payload_base + entry.offset
        buf[start : start + entry.nbytes] = stored[sl].tobytes()
    return bytes(buf)


def deserialize(blob: bytes) -> Checkpoint:
    if len(blob) < 8:
        raise CheckpointFormatError("file shorter than the 8-byte magic")
    if blob[0:8] != MAGIC:
        raise CheckpointFormatError(f"bad magic {blob[0:8]!r}")
    if len(blob) < 16:
        raise CheckpointFormatError("file ends inside the fixed header")
    version, header_len = struct.unpack_from("<II", blob, 8)
    if version != FORMAT_VERSION:
        raise CheckpointFormatError(f"unsupported format version {version}")
    if len(blob) < 16 + header_len:
        raise CheckpointFormatError("file ends inside the JSON header")
    try:  # as in fileio.read_json
        raw = json.loads(blob[16 : 16 + header_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise CheckpointFormatError(f"unreadable header: {exc}") from exc
    header = decode(CheckpointHeader, raw, "header", CheckpointFormatError)
    payload_base = _aligned(16 + header_len)
    arrays: dict[str, np.ndarray] = {}
    for name, shape, offset, nbytes in map(astuple, header.tensors):
        if name in arrays:
            raise CheckpointFormatError(f"tensor {name!r} declared twice")
        start = payload_base + offset
        if start + nbytes > len(blob):
            raise CheckpointFormatError(f"tensor {name!r} payload extends past end of file")
        data = np.frombuffer(blob, dtype="<f4", count=nbytes // 4, offset=start)
        try:  # a shape NumPy cannot build, such as [0, 10**30] or more than 64 axes
            arrays[name] = data.reshape(shape)
        except ValueError as exc:
            raise CheckpointFormatError(f"tensor {name!r}: shape {shape}: {exc}") from exc
    try:
        return Checkpoint.from_arrays(arrays, {str(k): str(v) for k, v in header.meta.items()})
    except NonFiniteError as exc:  # a stored NaN or inf is a malformed file, not a result
        raise CheckpointFormatError(str(exc)) from exc


def save(ckpt: Checkpoint, path) -> None:
    atomic_write_bytes(path, serialize(ckpt))


def load(path) -> Checkpoint:
    with open(path, "rb") as handle:
        return deserialize(handle.read())


def content_digest(ckpt: Checkpoint) -> str:
    """Short hex digest over tensor names, shapes, and payload bytes."""
    import hashlib  # on first use: loading OpenSSL costs start-up, and most commands never hash

    h = hashlib.sha256()
    stored = ckpt.vector.astype("<f4", copy=False)
    for name, (sl, shape) in zip(ckpt.layout.names, ckpt.layout.spans):
        h.update(name.encode("utf-8"))
        h.update(str(shape).encode("ascii"))
        h.update(stored[sl].tobytes())
    return h.hexdigest()[:16]


def as_params(theta: Checkpoint | Mapping[str, np.ndarray]) -> Params:
    """Float64 parameters: a checkpoint widened onto its own layout, an
    array mapping flattened in its order, a Params as is."""
    if isinstance(theta, Params):
        return theta
    if isinstance(theta, Checkpoint):
        return Params(theta.layout, theta.vector.astype(np.float64))
    return Params(*_flatten(theta, np.float64))


def to_checkpoint(params: Params, meta: Mapping[str, str]) -> Checkpoint:
    """Float32 storage of float64 parameters: the package's one rounding step."""
    with np.errstate(over="ignore"):  # Checkpoint() rejects the infs right after
        stored = params.vector.astype(np.float32)
    return Checkpoint(params.layout, stored, meta)


def dot(a: Params, b: Params, names: Iterable[str] | None = None) -> float:
    """Float64 inner product over ``names`` (default all), tensor by tensor.

    Each tensor's product is summed on its own and the sums are added in
    the order given: trained SAM weights, plane coordinates and learned
    soups depend on this rounding.
    """
    if a.layout != b.layout:
        raise ShapeMismatchError("inner product of parameters with different names or shapes")
    return sum(float(np.sum(a[k] * b[k])) for k in (a.layout.names if names is None else names))


def axpy(x: Params, y: Params, t: float) -> Params:
    """x + t * y in float64: a delta is ``axpy(p1, p0, -1.0)``, a line point ``axpy(p0, d, a)``."""
    if x.layout != y.layout:
        raise ShapeMismatchError("line through parameters with different names or shapes")
    return Params(x.layout, x.vector + t * y.vector)


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
