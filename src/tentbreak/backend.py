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

The module also holds what every other module shares: the one bad-input
error, the grammar of the key, ciphertext, state, table and pairs files,
and the one way a command writes its --out file (open_out).
"""

from __future__ import annotations

import codecs
import io
import os
import re
import stat
import struct
from contextlib import contextmanager, suppress
from fractions import Fraction

_NUMBER = {10: re.compile("0|[1-9][0-9]*"), 16: re.compile("(0x)?[0-9a-fA-F]+")}


class ParameterError(ValueError):
    """Bad input: a parameter, value, flag or file that an operation rejects."""


def open_text(path) -> io.TextIOWrapper:
    """The text of file `path`, read as open(path) reads it; bytes that are
    not UTF-8 are an error naming the file and line.  A first pass decodes
    the file a buffer at a time, so the error comes before any line is
    read, and no copy of the whole file is kept unless it cannot seek (a
    pipe), when it is read whole first."""
    fh = open(path, "rb")
    if not fh.seekable():
        with fh:
            fh = io.BytesIO(fh.read())
    try:
        decoder, line = codecs.getincrementaldecoder("utf-8")(), 1
        while True:
            data = fh.read(io.DEFAULT_BUFFER_SIZE)
            try:
                decoder.decode(data, final=not data)
            except UnicodeDecodeError as exc:   # exc.object: a held tail, no
                at = exc.start                  # newline in it, then data
                line += exc.object.count(b"\n", 0, at)
                raise ParameterError(f"{path}: line {line}: byte 0x{exc.object[at]:02x}"
                                     f" is not UTF-8 text ({exc.reason})") from None
            if not data:
                break
            line += data.count(b"\n")
        fh.seek(0)
        return io.TextIOWrapper(fh, encoding="utf-8", newline=None)
    except BaseException:
        fh.close()
        raise


@contextmanager
def open_out(path, mode: str = "w"):
    """File `path` opened to write ("w" or "wb"): a new file beside it,
    with an existing file's permission bits, that replaces it only when the
    with-block ends without error; on any error the new file is removed and
    `path` is left as it was.  A symlink's file is the one replaced, so
    --out may name the input through a link too.  A path that exists and
    is not a regular file it may write (a FIFO, /dev/null), or whose
    directory takes no new file, is opened and written in place."""
    try:
        st = os.stat(path)
        in_place = not stat.S_ISREG(st.st_mode) or not os.access(path, os.W_OK)
    except OSError:     # missing, or open() below raises as it always did
        st, in_place = None, False
    target = os.path.realpath(path)
    head, tail = os.path.split(target)
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    if not in_place:
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except OSError:
            in_place = True
    if in_place:
        with open(path, mode) as fh:
            yield fh
        return
    try:
        with open(fd, mode) as fh:
            if st is not None:
                os.fchmod(fd, stat.S_IMODE(st.st_mode))
            yield fh
        os.replace(tmp, target)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def read_lines(path, parse, fh=None, start=1) -> None:
    """Calls parse(k, text) with each line k of input file `path` (or of its
    open text fh, from line start on), stripped, that is not blank or a '#'
    comment; a ValueError from parse is an error naming the file and line."""
    with fh or open_text(path) as lines:
        for k, line in enumerate(map(str.strip, lines), start):
            if line and not line.startswith("#"):
                try:
                    parse(k, line)
                except ValueError as exc:
                    raise ParameterError(f"{path}: line {k}: {exc}") from None


def number(text: str, base: int) -> int:
    """The number `text` of an input file in base 10 or 16, spelled as the
    writers spell it (_NUMBER); any other spelling is a ValueError."""
    if not _NUMBER[base].fullmatch(text):
        raise ValueError(f"expected an unsigned base-{base} number, got {text!r}")
    return int(text, base)


class FixedPointBackend:
    """Binary fixed-point arithmetic on [0, 1] with L fractional bits."""

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
            raise ParameterError("ratio must be nonnegative over a positive denominator")
        return min((2 * num * self.one + den) // (2 * den), self.one)

    def from_float(self, v: float) -> int:
        if not 0.0 <= v <= 1.0:
            raise ParameterError(f"value {v!r} outside [0, 1]")
        fr = Fraction(v)
        return self.from_ratio(fr.numerator, fr.denominator)

    def to_float(self, x: int) -> float:
        return x / self.one

    def reciprocals(self, alpha: int) -> tuple:
        """(m1, h1, s1, m2, h2, s2), the constants of the two branches of
        the skew tent map with peak alpha in (0, 1), the map's one
        definition: left(x) = x / alpha = (m1*x + h1) >> s1 for
        0 <= x <= alpha and right(x) = (1 - x) / (1 - alpha) =
        (h2 - m2*x) >> s2 for alpha < x <= one, each rounded to nearest.
        On those ranges the quotient lies in [0, one] (x <= alpha gives
        2*x*one + alpha < 2*alpha*(one + 1), and likewise for 1 - x), so
        no clamp is needed.

        A branch is floor(N / d) with N = 2^(L+1)*y + c < 2^T, T = 2L + 2,
        for y = x or one - x, c = alpha or one - alpha and d = 2c.  With
        l = bit_length(d) and m = ceil(2^(T+l) / d), floor(N / d) =
        floor(m*N / 2^(T+l)) for every 0 <= N < 2^T (Granlund and
        Montgomery, "Division by invariant integers using multiplication",
        PLDI 1994, Thm 4.2).  m*c is h*2^(L+1) plus a remainder that cannot
        carry past the shift, so the branch is (m*y + h) >> (T + l - L - 1);
        for right, h2 folds in m2*one.
        """
        shift, one = self.bits + 1, self.one

        def reciprocal(c):      # (m, h, s): c's branch is (m*y + h) >> s
            s = 2 * shift + (2 * c).bit_length()
            m = -(-(1 << s) // (2 * c))
            return m, (m * c) >> shift, s - shift

        m1, h1, s1 = reciprocal(alpha)
        m2, h2, s2 = reciprocal(one - alpha)
        return m1, h1, s1, m2, h2 + m2 * one, s2

    def tent_branches(self, alpha: int):
        """(left, right), the branches of reciprocals(alpha) as functions."""
        m1, h1, s1, m2, h2, s2 = self.reciprocals(alpha)

        def left(x):
            return (m1 * x + h1) >> s1

        def right(x):
            return (h2 - m2 * x) >> s2

        return left, right

    def binary_precision(self, x: int) -> int:
        """Position of the least significant set bit after the binary point."""
        if x == 0:
            raise ParameterError("binary precision of 0 is undefined")
        trailing = (x & -x).bit_length() - 1
        return self.bits - trailing

    def serialize(self, x: int) -> str:
        return f"fp{self.bits}:0x{x:x}"


class Binary64Backend:
    """IEEE-754 double precision; not bit-portable in general, but matches
    the floating environment the empirical figures were produced in."""

    one = 1.0
    zero = 0.0
    half = 0.5

    def __repr__(self):
        return "Binary64Backend()"

    def __eq__(self, other):
        return isinstance(other, Binary64Backend)

    def __hash__(self):
        return hash("f64")

    def from_ratio(self, num: int, den: int) -> float:
        if den <= 0 or num < 0:
            raise ParameterError("ratio must be nonnegative over a positive denominator")
        return min(num / den, 1.0)

    def from_float(self, v: float) -> float:
        if not 0.0 <= v <= 1.0:
            raise ParameterError(f"value {v!r} outside [0, 1]")
        return float(v)

    def to_float(self, x: float) -> float:
        return x

    def tent_branches(self, alpha: float):
        """(left, right), x / alpha and (1 - x) / (1 - alpha) in IEEE
        division on the ranges of FixedPointBackend.reciprocals, where
        monotone rounding keeps the quotients in [0, 1] with no clamp."""
        alpha_c = 1.0 - alpha

        def left(x):
            return x / alpha

        def right(x):
            return (1.0 - x) / alpha_c

        return left, right

    def binary_precision(self, x: float) -> int:
        if x == 0.0:
            raise ParameterError("binary precision of 0 is undefined")
        fr = Fraction(x)  # exact dyadic rational for any finite float
        return fr.denominator.bit_length() - 1

    def serialize(self, x: float) -> str:
        return "f64:" + struct.pack(">d", x).hex()


def get_backend(name: str):
    """Backend from a short name: 'fpNN' ('fp62', 'fp30', ...) or 'f64'."""
    key = name.strip().lower()
    if key == "f64":
        return Binary64Backend()
    if key.startswith("fp") and _NUMBER[10].fullmatch(key[2:]):
        return FixedPointBackend(number(key[2:], 10))
    raise ParameterError(f"unknown backend {name!r}: use fpNN (e.g. fp62) or f64")


def parse_value(s: str):
    """Parse a serialized value; returns (value, backend)."""
    if s.startswith("f64:"):
        bits = number(s[4:], 16)
        if len(s[4:].removeprefix("0x")) != 16:
            raise ParameterError(f"f64 value {s!r} is not 8 bytes")
        return struct.unpack(">d", bits.to_bytes(8, "big"))[0], Binary64Backend()
    if s.startswith("fp"):
        prefix, _, payload = s.partition(":")
        backend = FixedPointBackend(number(prefix[2:], 10))
        raw = number(payload, 16)
        if raw > backend.one:
            raise ParameterError(f"raw value {s!r} outside [0, 1]")
        return raw, backend
    raise ParameterError(f"unparseable value {s!r}")
