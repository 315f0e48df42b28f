"""Scalar reference of seeding's point hash, one Python int at a time.

seeding.point_fractions must equal point_fraction bit for bit, and the
noise tests invert mix64 to build hashes that hit the cuts of
SimulatedPmu._overcounts.
"""

_MASK64 = (1 << 64) - 1


def mix64(value: int) -> int:
    """The splitmix64 finalizer of a 64-bit value."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def point_fraction(*parts: int) -> float:
    """Map an integer coordinate tuple to a uniform float in [0, 1)."""
    h = 0
    for part in parts:
        h = mix64(h ^ (part & _MASK64))
    return h / float(1 << 64)
