"""Finite-precision arithmetic backends for unit-interval values.

Two backends are supported:

* ``FixedPointBackend(L)`` -- a value v in [0,1] is stored as the integer
  round(v * 2**L).  All arithmetic is integer arithmetic with round-to-nearest
  on division, so results are bit-identical across platforms.
* ``Binary64Backend`` -- values are plain Python floats.  Only exists to
  replicate empirical figures that depend on IEEE-754 semantics.

A "value" is therefore either an int (fixed point raw) or a float, depending
on the backend in use.  Both compare naturally with ``<=``, which is all the
tent-map code needs besides the backend methods below.
"""

from __future__ import annotations

import struct
from fractions import Fraction


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class ParameterError(ValueError):
    """Map or key parameter outside its allowed open interval."""


class FixedPointBackend:
    """Binary fixed-point arithmetic on [0, 1] with L fractional bits."""

    kind = "fixed-point"

    def __init__(self, bits: int):
        if not 1 <= bits <= 64:
            raise ParameterError(f"fixed-point precision must be in 1..64, got {bits}")
        self.bits = bits
        self.one = 1 << bits
        self.zero = 0
        self.half = 1 << (bits - 1)

    def __repr__(self):
        return f"FixedPointBackend({self.bits})"

    def __eq__(self, other):
        return isinstance(other, FixedPointBackend) and other.bits == self.bits

    def __hash__(self):
        return hash(("fp", self.bits))

    def from_ratio(self, num: int, den: int) -> int:
        """Nearest representable value of num/den (ties round up)."""
        if den <= 0 or num < 0:
            raise DomainError("ratio must be nonnegative over a positive denominator")
        raw = (2 * num * self.one + den) // (2 * den)
        return self._clamp(raw)

    def from_float(self, v: float) -> int:
        if not 0.0 <= v <= 1.0:
            raise DomainError(f"value {v!r} outside [0, 1]")
        fr = Fraction(v)
        return self.from_ratio(fr.numerator, fr.denominator)

    def to_float(self, x: int) -> float:
        return x / self.one

    def div(self, x: int, y: int) -> int:
        """Value division x/y, rounded to nearest, clamped into [0, 1]."""
        if y == 0:
            raise DomainError("division by zero value")
        raw = (2 * x * self.one + y) // (2 * y)
        return self._clamp(raw)

    def complement(self, x: int) -> int:
        return self.one - x

    def _clamp(self, raw: int) -> int:
        if raw < 0:
            return 0
        if raw > self.one:
            return self.one
        return raw

    def binary_precision(self, x: int) -> int:
        """Position of the least significant set bit after the binary point."""
        if x == 0:
            raise DomainError("binary precision of 0 is undefined")
        trailing = (x & -x).bit_length() - 1
        return self.bits - trailing

    def serialize(self, x: int) -> str:
        return f"fp{self.bits}:0x{x:x}"


class Binary64Backend:
    """IEEE-754 double precision; not bit-portable in general, but matches
    the floating environment the empirical figures were produced in."""

    kind = "binary64"

    one = 1.0
    zero = 0.0
    half = 0.5
    bits = 62  # conventional precision label for this backend

    def __repr__(self):
        return "Binary64Backend()"

    def __eq__(self, other):
        return isinstance(other, Binary64Backend)

    def __hash__(self):
        return hash("f64")

    def from_ratio(self, num: int, den: int) -> float:
        if den <= 0 or num < 0:
            raise DomainError("ratio must be nonnegative over a positive denominator")
        v = num / den
        return min(max(v, 0.0), 1.0)

    def from_float(self, v: float) -> float:
        if not 0.0 <= v <= 1.0:
            raise DomainError(f"value {v!r} outside [0, 1]")
        return float(v)

    def to_float(self, x: float) -> float:
        return x

    def div(self, x: float, y: float) -> float:
        if y == 0.0:
            raise DomainError("division by zero value")
        v = x / y
        return min(max(v, 0.0), 1.0)

    def complement(self, x: float) -> float:
        return 1.0 - x

    def binary_precision(self, x: float) -> int:
        if x == 0.0:
            raise DomainError("binary precision of 0 is undefined")
        fr = Fraction(x)  # exact dyadic rational for any finite float
        return fr.denominator.bit_length() - 1

    def serialize(self, x: float) -> str:
        return "f64:" + struct.pack(">d", x).hex()


def get_backend(name: str):
    """Backend from a short name: 'fpNN' ('fp62', 'fp30', ...) or 'f64'."""
    key = name.strip().lower()
    if key == "f64":
        return Binary64Backend()
    if key.startswith("fp") and key[2:].isdecimal():
        return FixedPointBackend(int(key[2:]))
    raise ParameterError(f"unknown backend {name!r}: use fpNN (e.g. fp62) or f64")


def parse_value(s: str):
    """Parse a serialized value; returns (value, backend)."""
    s = s.strip()
    if s.startswith("f64:"):
        payload = bytes.fromhex(s[4:])
        if len(payload) != 8:
            raise ParameterError(f"f64 value {s!r} is not 8 bytes")
        (v,) = struct.unpack(">d", payload)
        return v, Binary64Backend()
    if s.startswith("fp"):
        prefix, _, payload = s.partition(":")
        backend = FixedPointBackend(int(prefix[2:]))
        raw = int(payload, 16)
        if not 0 <= raw <= backend.one:
            raise DomainError(f"raw value {s!r} outside [0, 1]")
        return raw, backend
    raise ParameterError(f"unparseable value {s!r}")
