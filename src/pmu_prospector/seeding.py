"""Deterministic seed derivation.

All randomness in the toolkit flows from a single user seed through named
substreams, so independent pipeline stages stay reproducible and reordering
one stage cannot perturb another.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def derive_seed(*parts: int | str) -> int:
    """Derive a 64-bit substream seed from a root seed and stream labels.

    Parts may mix integers (seeds, indices) and strings (stream names).
    The derivation is stable across processes and platforms.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, bool) or not isinstance(part, (int, str)):
            raise TypeError(f"seed part must be int or str, got {type(part).__name__}")
        if isinstance(part, int):
            h.update(b"i")
            h.update(part.to_bytes(16, "little", signed=True))
        else:
            h.update(b"s")
            h.update(part.encode("utf-8"))
            h.update(b"\x00")
    return int.from_bytes(h.digest(), "little")


def mix64(value: int) -> int:
    # splitmix64 finalizer; cheap stateless mixing for per-point draws
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def point_fraction(*parts: int) -> float:
    """Map an integer coordinate tuple to a uniform float in [0, 1).

    Unlike a sequential generator, the draw for a coordinate does not depend
    on how many other coordinates were sampled before it, so repeating a run
    with more iterations replays the earlier draws unchanged.
    """
    h = 0
    for part in parts:
        h = mix64(h ^ (part & _MASK64))
    return h / float(1 << 64)


def point_fractions(*parts: int | np.ndarray, prefix: int | np.ndarray = 0) -> np.ndarray:
    """point_fraction over broadcast numpy coordinates, bit for bit.

    Integer parts are masked to 64 bits like the scalar version; array parts
    are taken as uint64.  Returns a float64 array of the broadcast shape
    (at least one-dimensional).  prefix continues a hash from point_hashes.
    """
    return point_hashes(*parts, prefix=prefix).astype(np.float64) / float(1 << 64)


def point_hashes(*parts: int | np.ndarray, prefix: int | np.ndarray = 0) -> np.ndarray:
    """The uint64 hash behind point_fractions, continued from prefix.

    point_hashes(*a, *b) == point_hashes(*b, prefix=point_hashes(*a)), so a
    hash over coordinates shared by many draws is computed once.
    """
    h = np.atleast_1d(np.asarray(prefix, np.uint64))
    for part in parts:
        if isinstance(part, int):
            part &= _MASK64
        h = _mix64_array(h ^ np.asarray(part).astype(np.uint64))
    return h


def _mix64_array(value: np.ndarray) -> np.ndarray:
    # mix64 in uint64 arithmetic, which wraps modulo 2**64 like the masks there
    value = value + np.uint64(0x9E3779B97F4A7C15)
    value = (value ^ (value >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    value = (value ^ (value >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return value ^ (value >> np.uint64(31))
