"""Noise vectors, quarter permutations and secret bit-permutation functions.

A block has 4n bits, viewed as four n-bit quarters M1..M4 with M1 most
significant.  Each 4-bit nibble v of V_j = U_j xor K selects a permutation
w of the four quarters; the per-nibble round function is

    f_ji(X) = [w(M1, M2, M3, M4)] <<< 1     (1-bit circular left shift)

and f_j is the composition of the n per-nibble functions, first nibble
(most significant) applied first.  Every f_j is a pure bit permutation,
which is exactly what the differential attack exploits.

It is more than that: f_j keeps each bit's offset within its quarter, so it
is n independent permutations of the four quarters, one per offset (a
"column").  compose_fj builds it in one pass over the rounds, which sorts
the columns into 6 classes of equal quarter permutation, and every
bit moves by one of at most 4 rotations, 0, n, 2n or 3n.  BitPermutation
stores a permutation as these rotation classes, so apply and invert cost
one mask-and-shift per class.
"""

from __future__ import annotations

from functools import cache
from itertools import islice, permutations

from .backend import FixedPointBackend, ParameterError, number, read_lines
from .tentmap import TentParams, orbit_stream, restart


# ---------------------------------------------------------------------------
# bit extraction (noise vectors)

def build_noise_vectors(x0, p: TentParams, n: int, j_max: int, backend,
                        mended: bool = False) -> list[int]:
    """Noise vectors U_0 .. U_j_max from the orbit starting at x0.

    Bit u_i is 1 when orbit state x_i exceeds alpha (the initial condition
    is x_0), or 1/2 when mended, and 0 otherwise, equality included;
    u_{4jn} is the most significant bit of U_j.  Each state's bit goes
    into one buffer as a digit 0 or 1, cut into vectors, so no orbit
    list is kept and no step past the last state is taken.  x_0..x_2, G's
    start-up and its checks, come from tentmap.orbit_stream, as does the
    rest on any backend but fixed point.  A FixedPointBackend steps on from
    x_2 in one flat loop per extractor that inlines the multiply-and-shift
    steps of backend.reciprocals and never checks 0 or the domain: an
    interior state never steps to 0 or out of [0, 1], and steps to one only
    from alpha.  With the plain extractor, u_i is the branch test of x_i.
    """
    if j_max < 0:
        raise ParameterError("j_max must be >= 0")
    if n < 1:
        raise ParameterError("n must be >= 1")
    one, alpha, beta = backend.one, p.alpha, p.beta
    threshold = backend.half if mended else alpha
    width, total = 4 * n, 4 * n * (j_max + 1)
    digits = bytearray(b"0") * total    # u_i as the digits 0 and 1, MSB first
    orbit = orbit_stream(x0, p, backend)
    for i, x in enumerate(islice(orbit, 3)):    # total >= 4: G's own start-up
        digits[i] = 48 + (x > threshold)
    if not isinstance(backend, FixedPointBackend):
        digits[3:] = (48 + (x > threshold) for x in islice(orbit, total - 3))
    elif mended:
        m1, h1, s1, m2, h2, s2 = backend.reciprocals(alpha)
        for i in range(3, total):
            if x <= alpha:
                x = (m1 * x + h1) >> s1
            else:
                x = (h2 - m2 * x) >> s2 if x < one else restart(x, beta, backend)
            if x > threshold:
                digits[i] = 49
    else:
        m1, h1, s1, m2, h2, s2 = backend.reciprocals(alpha)
        for i in range(2, total - 1):           # steps x_i, writes u_i
            if x <= alpha:
                x = (m1 * x + h1) >> s1
            else:
                x = (h2 - m2 * x) >> s2 if x < one else restart(x, beta, backend)
                digits[i] = 49
        digits[-1] = 48 + (x > alpha)
    return [int(digits[k:k + width], 2) for k in range(0, total, width)]


# ---------------------------------------------------------------------------
# quarter-permutation table
#
# S4 acts on the quarter indices 0..3, 0 being the least significant quarter
# M4.  An element a is the tuple of images, a[q]; _S4_MUL[a][b] is a o b.

_S4 = tuple(permutations(range(4)))
_S4_INDEX = {a: k for k, a in enumerate(_S4)}
_S4_MUL = tuple(tuple(_S4_INDEX[tuple(a[q] for q in b)] for b in _S4)
                for a in _S4)
_S4_ID = _S4_INDEX[(0, 1, 2, 3)]
_S4_INV = tuple(_S4_INDEX[tuple(sorted(range(4), key=a.__getitem__))]
                for a in _S4)
# sigma, the quarter cycle q -> q+1 that the carry of the <<< 1 applies
_SIGMA_MUL = _S4_MUL[_S4_INDEX[(1, 2, 3, 0)]]
# per element q, the four-cycle q^-1 o sigma o q; _CYCLES lists the 6 of
# them, and _CONJUGATE ends up holding each q's index in _CYCLES
_CONJUGATE = [_S4_MUL[_S4_INV[k]][s] for k, s in enumerate(_SIGMA_MUL)]
_CYCLES = tuple(sorted(set(_CONJUGATE)))
_CONJUGATE = tuple(map(_CYCLES.index, _CONJUGATE))


@cache
def _lanes(n: int, inverse: bool) -> tuple:
    """Per element a, the multiplier that copies an n-bit column mask to
    offset a[q]*n of 4n-bit lane (a[q] - q) mod 4 for each quarter q; with
    inverse, that of a^-1 instead."""
    elements = (_S4[k] for k in _S4_INV) if inverse else _S4
    return tuple(sum(1 << ((a[q] - q) % 4 * 4 + a[q]) * n for q in range(4))
                 for a in elements)


class QuarterPermTable:
    """16 permutations of {1,2,3,4}, one per 4-bit selector value.

    The original table of the cipher's authors is not public; the default
    maps v to the v-th permutation of (1,2,3,4) in lexicographic order.  The
    attacks are independent of the table, so any fixed choice preserves all
    results; an authentic table can be loaded from file.
    """

    def __init__(self, entries):
        entries = [tuple(e) for e in entries]
        if len(entries) != 16:
            raise ParameterError("table needs exactly 16 entries")
        for e in entries:
            if sorted(e) != [1, 2, 3, 4]:
                raise ParameterError(f"entry {e} is not a permutation of 1..4")
        self.entries = tuple(entries)
        # S4 element of each entry: quarter M_w[s-1] lands in slot s
        self.quarter_maps = tuple(
            _S4_INDEX[tuple(3 - e.index(4 - q) for q in range(4))]
            for e in entries)

    @classmethod
    def load(cls, path) -> "QuarterPermTable":
        entries = [None] * 16

        def entry(lineno, line):
            head, _, tail = line.partition(":")
            try:
                v, e = number(head, 10), tuple(number(x, 10) for x in tail.split())
            except ValueError:
                v = 16
            if v > 15:
                raise ValueError("expected 'v: a b c d' with v in 0..15")
            if sorted(e) != [1, 2, 3, 4]:
                raise ValueError(f"entry {e} is not a permutation of 1..4")
            if entries[v] is not None:
                raise ValueError(f"entry {v} given twice")
            entries[v] = e

        read_lines(path, entry)
        if any(e is None for e in entries):
            raise ParameterError(f"table file {path} does not define all 16 entries")
        return cls(entries)


DEFAULT_TABLE = QuarterPermTable(islice(permutations((1, 2, 3, 4)), 16))


# ---------------------------------------------------------------------------
# bit permutations

class BitPermutation:
    """Permutation of 4n bit positions; dest[i] is where input bit i goes.

    Bit positions are counted from the least significant bit (position 0).
    The permutation is held as rotation classes, the bits that it moves by
    the same distance k = dest[i] - i mod 4n: `classes` has one (t, mask)
    pair per distinct k, with t = 4n - k and the mask holding the output
    positions of those bits, which apply reads as (x * (2^{4n} + 1) >> t)
    & mask.  An f_j has at most 4 classes (k a multiple of n, see
    compose_fj); an arbitrary permutation has up to 4n.  dest is kept when
    the caller supplies it and derived from the classes on first use
    otherwise.  Equality and hashing are on (dest, n).
    """

    __slots__ = ("n", "classes", "_dest")

    def __init__(self, dest, n: int):
        dest = tuple(dest)
        width = 4 * n
        if sorted(dest) != list(range(width)):
            raise ParameterError("dest is not a bijection on the bit positions")
        masks = {}
        for i, d in enumerate(dest):
            t = width - (d - i) % width
            masks[t] = masks.get(t, 0) | 1 << d
        self.n = n
        self.classes = tuple(masks.items())
        self._dest = dest

    @classmethod
    def _from_classes(cls, classes: tuple, n: int) -> "BitPermutation":
        p = cls.__new__(cls)
        p.n = n
        p.classes = classes
        p._dest = None
        return p

    @property
    def dest(self) -> tuple:
        if self._dest is None:
            width = 4 * self.n
            dest = [0] * width
            for t, m in self.classes:
                while m:
                    low = m & -m
                    d = low.bit_length() - 1
                    dest[(d + t) % width] = d
                    m ^= low
            self._dest = tuple(dest)
        return self._dest

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dest, self.n) == (other.dest, other.n)

    def __hash__(self):
        return hash((self.dest, self.n))

    def __repr__(self):
        return f"BitPermutation(dest={self.dest!r}, n={self.n!r})"


def apply(p: BitPermutation, x: int) -> int:
    """Move every input bit i of x to output position p.dest[i], one
    mask-and-shift of the doubled block per rotation class."""
    width = 4 * p.n
    if x >> width:
        raise ParameterError("block wider than the permutation")
    x |= x << width
    y = 0
    for t, m in p.classes:
        y |= (x >> t) & m
    return y


def invert(p: BitPermutation) -> BitPermutation:
    """p^{-1}: the class rotating by k becomes the one rotating by 4n - k,
    its mask rotated back onto the input positions.  Each call builds a new
    inverse; a caller that reads one many times keeps it (as
    attack.RecoveredState.Finv does)."""
    width = 4 * p.n
    full = (1 << width) - 1
    inverse = []
    for t, m in p.classes:
        t = width - t or width
        inverse.append((t, ((m | m << width) >> t) & full))
    return BitPermutation._from_classes(tuple(inverse), p.n)


def compose_fj(vj: int, table: QuarterPermTable, n: int,
               inverse: bool = False) -> BitPermutation:
    """f_j, or f_j^-1 when inverse, from the n 4-bit nibbles of V_j, most
    significant nibble first.

    A round moves quarters by its table entry and then rotates <<< 1, which
    adds 1 to every bit's offset within its quarter; the bit at offset
    n - 1 carries into the next quarter up (sigma).  After n rounds every
    offset is back where it started, so f_j keeps each bit's offset
    (dest[i] mod n = i mod n) and permutes the four quarters of column o by

        A_o = R_k o sigma o Q_k = P o (Q_k^-1 o sigma o Q_k),   k = n - o,

    with Q_k the product of the first k rounds' quarter maps, R_k that of
    the rest and P = R_k o Q_k that of all n.  Q_k^-1 o sigma o Q_k is one
    of the 6 four-cycles of S4 (_CYCLES), so one forward pass sorts the
    columns into 6 classes, one per cycle, each with A_o = P o (its cycle).
    A bit that A_o moves up k quarters (mod 4) rotates by kn, so its output
    position joins the mask of that rotation class; one multiply by
    _lanes(n, False)[A_o] puts a class's columns in all four masks (lanes of
    4n bits).  f_j^-1 keeps the offsets too and permutes column o's quarters
    by A_o^-1 = (P o cycle)^-1, so the same pass builds it with the
    multipliers of the inverse elements, _lanes(n, True)[A_o].
    """
    width = 4 * n
    if vj >> width:
        raise ParameterError("V_j wider than 4n bits")
    maps = table.quarter_maps
    mul = _S4_MUL
    classes = [0] * 6                   # by conjugate cycle: its columns
    q, col = _S4_ID, 1 << n
    for shift in range(width - 4, -1, -4):
        q = mul[maps[(vj >> shift) & 0xF]][q]
        col >>= 1
        classes[_CONJUGATE[q]] |= col
    lanes, row = _lanes(n, inverse), mul[q]
    packed = 0
    for c, cols in zip(_CYCLES, classes):
        packed += cols * lanes[row[c]]
    full, rotations = (1 << width) - 1, []
    for k in range(4):
        m = (packed >> k * width) & full
        if m:
            rotations.append((width - k * n, m))
    return BitPermutation._from_classes(tuple(rotations), n)
