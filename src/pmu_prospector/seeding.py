"""Deterministic seed derivation.

All randomness in the toolkit flows from a single user seed through named
substreams, so independent pipeline stages stay reproducible and reordering
one stage cannot perturb another.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1
_INT_PART_BOUND = 1 << 127


def derive_seed(*parts: int | str) -> int:
    """Derive a 64-bit substream seed from a root seed and stream labels.

    Parts may mix integers (seeds, indices) and strings (stream names).
    Integers must lie in [-2**127, 2**127), the 16 signed bytes hashed per
    part.  The derivation is stable across processes and platforms.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, bool) or not isinstance(part, (int, str)):
            raise TypeError(f"seed part must be int or str, got {type(part).__name__}")
        if isinstance(part, int):
            if not -_INT_PART_BOUND <= part < _INT_PART_BOUND:
                raise ValueError(f"integer seed part outside [-2**127, 2**127): {part}")
            h.update(b"i")
            h.update(part.to_bytes(16, "little", signed=True))
        else:
            h.update(b"s")
            h.update(part.encode("utf-8"))
            h.update(b"\x00")
    return int.from_bytes(h.digest(), "little")


def point_fractions(*parts: int | np.ndarray, prefix: int | np.ndarray = 0) -> np.ndarray:
    """Uniform floats in [0, 1), point_hashes(*parts, prefix=prefix) / 2**64.

    The hash chains h = splitmix64(h ^ part) over the parts from h = prefix,
    so the draw for a coordinate does not depend on how many others were
    sampled before it: a run with more iterations replays the earlier draws.
    Integer parts are masked to 64 bits, array parts taken as uint64; the
    result has the broadcast shape (at least one-dimensional).
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
    """splitmix64's finalizer per element, wrapping modulo 2**64 as uint64 does."""
    value = value + np.uint64(0x9E3779B97F4A7C15)
    value = (value ^ (value >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    value = (value ^ (value >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return value ^ (value >> np.uint64(31))
