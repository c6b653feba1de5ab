"""Portable deterministic random number generation.

Every stochastic choice in this package (dataset sampling, weight
initialization, data order, augmentation draws, random hyperparameter
search) flows through :class:`PortableRng` so that results are bitwise
reproducible across platforms and numpy versions.  The generator is the
splitmix64 sequence, used in counter mode:

    state(n) = (seed + (n + 1) * 0x9E3779B97F4A7C15) mod 2**64
    out(n)   = mix(state(n))

where ``mix`` is the splitmix64 finalizer

    z = state
    z = (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9   (mod 2**64)
    z = (z XOR (z >> 27)) * 0x94D049BB133111EB   (mod 2**64)
    z = z XOR (z >> 31)

Counter mode (output ``n`` depends only on ``seed`` and ``n``) lets a
whole block of draws be produced in one vectorized sweep while staying
identical to one-at-a-time generation.

Derived quantities are defined on top of the raw 64-bit stream:

* ``uniforms``:  u(n) = (out(n) >> 11) * 2**-53, in [0, 1).
* ``normals``:   Box-Muller on consecutive uniform pairs (u1, u2):
  r = sqrt(-2 ln(1 - u1)), z0 = r cos(2 pi u2), z1 = r sin(2 pi u2).
  An odd request consumes a full final pair and discards its second
  output.
* ``below(k)``:  floor(u * k), a bounded integer in [0, k).
* ``permutation(n)``: the order that stably sorts n raw draws ascending
  (ties, which have probability ~n^2 / 2**64, fall back to index order).
* ``beta(a, b)``: Johnk's rejection method; repeatedly draw a uniform
  pair (u, v), set x = u**(1/a), y = v**(1/b), and accept when
  0 < x + y <= 1, returning x / (x + y).
"""

from __future__ import annotations

import math

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MIX_M1 = 0xBF58476D1CE4E5B9
_MIX_M2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1
_SCALAR_DRAWS = 4  # raw() computes up to this many outputs on Python integers


def mix64(value: int) -> int:
    """splitmix64 finalizer on a Python integer (mod 2**64)."""
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_M1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_M2) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *parts: int) -> int:
    """Fold integer tags into a seed to name an independent substream.

    Defined as s0 = mix64(seed), s_{i+1} = mix64(s_i + GOLDEN + part_i),
    all mod 2**64.  Used for per-epoch data order, weight init, and
    per-config search draws so streams never overlap by construction.
    """
    s = mix64(seed)
    for p in parts:
        s = mix64((s + _GOLDEN + (p & _MASK64)) & _MASK64)
    return s


_U64_GOLDEN, _U64_M1, _U64_M2 = np.uint64(_GOLDEN), np.uint64(_MIX_M1), np.uint64(_MIX_M2)
_U64_30, _U64_27, _U64_31 = np.uint64(30), np.uint64(27), np.uint64(31)


def _mix64_vec(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer applied to a uint64 array in place; returns it."""
    z ^= z >> _U64_30
    z *= _U64_M1
    z ^= z >> _U64_27
    z *= _U64_M2
    z ^= z >> _U64_31
    return z


class PortableRng:
    """Counter-mode splitmix64 stream; see module docstring for equations."""

    def __init__(self, seed: int) -> None:
        self._seed = seed & _MASK64
        self._count = 0  # raw 64-bit outputs consumed so far

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit outputs as a uint64 array."""
        if n < 0:
            raise ValueError("draw count must be nonnegative")
        if n <= _SCALAR_DRAWS:
            # Python integers beat a dozen NumPy calls on a tiny array;
            # the modular arithmetic, and so every output, is the same.
            first = self._seed + (self._count + 1) * _GOLDEN
            self._count += n
            return np.array([mix64(first + k * _GOLDEN) for k in range(n)], dtype=np.uint64)
        states = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        states *= _U64_GOLDEN
        states += np.uint64(self._seed)
        self._count += n
        return _mix64_vec(states)

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` float64 uniforms in [0, 1)."""
        return (self.raw(n) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)

    def normals(self, n: int) -> np.ndarray:
        """``n`` float64 standard gaussians via Box-Muller pairs."""
        pairs = (n + 1) // 2
        u = self.uniforms(2 * pairs)
        u1, u2 = u[0::2], u[1::2]
        r = np.sqrt(-2.0 * np.log1p(-u1))
        theta = 2.0 * math.pi * u2
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def below(self, k: int) -> int:
        """One integer uniform on [0, k)."""
        if k <= 0:
            raise ValueError("k must be positive")
        return min(int(self.uniforms(1)[0] * k), k - 1)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n) keyed by n raw draws."""
        keys = self.raw(n)
        # Distinct keys have one sorted order, so any sort finds it; only
        # ties need the stable sort's index order.
        order = np.argsort(keys)
        ranked = keys[order]
        if (ranked[1:] == ranked[:-1]).any():
            return np.argsort(keys, kind="stable")
        return order

    def beta(self, a: float, b: float) -> float:
        """One Beta(a, b) draw by Johnk's rejection method."""
        if a <= 0 or b <= 0:
            raise ValueError("beta shape parameters must be positive")
        while True:
            # Python floats: the same IEEE arithmetic and libm pow as
            # NumPy scalars, without their per-operation overhead.
            u, v = self.uniforms(2).tolist()
            x = u ** (1.0 / a)
            y = v ** (1.0 / b)
            s = x + y
            if 0.0 < s <= 1.0:
                return x / s
            if s == 0.0 and u > 0.0 and v > 0.0:
                # Both powers underflowed, as they nearly always do at a
                # tiny shape: finish this pair in log space instead of
                # rejecting it.  A zero uniform still rejects the pair.
                lx = math.log(u) / a
                ly = math.log(v) / b
                hi, lo = max(lx, ly), min(lx, ly)
                lse = hi + math.log1p(math.exp(lo - hi))
                if lse <= 0.0:
                    return math.exp(lx - lse)
