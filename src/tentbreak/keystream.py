"""Noise vectors, quarter permutations and secret bit-permutation functions.

A block has 4n bits, viewed as four n-bit quarters M1..M4 with M1 most
significant.  Each 4-bit nibble v of V_j = U_j xor K selects a permutation
w of the four quarters; the per-nibble round function is

    f_ji(X) = [w(M1, M2, M3, M4)] <<< 1     (1-bit circular left shift)

and f_j is the composition of the n per-nibble functions, first nibble
(most significant) applied first.  Every f_j is a pure bit permutation,
which is exactly what the differential attack exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, permutations
from operator import itemgetter

from .backend import ParameterError
from .tentmap import TentParams, orbit_stream


# ---------------------------------------------------------------------------
# bit extraction (noise vectors)

def threshold_bit(x, alpha) -> int:
    """0 if x <= alpha else 1 (equality goes to the 0 branch)."""
    return 0 if x <= alpha else 1


def bits_to_block(bits) -> int:
    """Pack a bit list into an integer, first bit most significant."""
    v = 0
    for b in bits:
        v = (v << 1) | b
    return v


def build_noise_vectors(x0, p: TentParams, n: int, j_max: int, backend,
                        mended: bool = False) -> list[int]:
    """Noise vectors U_0 .. U_j_max from the orbit starting at x0.

    Bit u_i is threshold_bit(x_i, alpha) of orbit state x_i (the initial
    condition is x_0), or threshold_bit(x_i, 1/2) when mended, and
    u_{4jn} is the most significant bit of U_j.  Each U_j is packed from
    its 4n states as tentmap.orbit_stream yields them, so no orbit list is
    kept and no step past x_{4n(j_max+1)-1} is taken.
    """
    if j_max < 0:
        raise ParameterError("j_max must be >= 0")
    width = 4 * n
    threshold = backend.half if mended else p.alpha
    orbit = orbit_stream(x0, p, backend)
    return [bits_to_block(x > threshold for x in islice(orbit, width))
            for _ in range(j_max + 1)]


# ---------------------------------------------------------------------------
# quarter-permutation table

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

    @classmethod
    def default(cls) -> "QuarterPermTable":
        return cls(list(permutations((1, 2, 3, 4)))[:16])

    @classmethod
    def load(cls, path) -> "QuarterPermTable":
        entries = [None] * 16
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                head, _, tail = line.partition(":")
                try:
                    v = int(head)
                    entry = tuple(int(x) for x in tail.split())
                except ValueError:
                    v = -1
                if not 0 <= v < 16:
                    raise ParameterError(f"{path}: line {lineno}: expected "
                                         f"'v: a b c d' with v in 0..15")
                entries[v] = entry
        if any(e is None for e in entries):
            raise ParameterError(f"table file {path} does not define all 16 entries")
        return cls(entries)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            for v, e in enumerate(self.entries):
                fh.write(f"{v}: {e[0]} {e[1]} {e[2]} {e[3]}\n")


DEFAULT_TABLE = QuarterPermTable.default()


# ---------------------------------------------------------------------------
# bit permutations

@dataclass(frozen=True)
class BitPermutation:
    """Permutation of 4n bit positions; dest[i] is where input bit i goes.

    Bit positions are counted from the least significant bit (position 0).
    """

    dest: tuple
    n: int

    def __post_init__(self):
        if sorted(self.dest) != list(range(4 * self.n)):
            raise ParameterError("dest is not a bijection on the bit positions")

    @property
    def width(self) -> int:
        return 4 * self.n


def apply(p: BitPermutation, x: int) -> int:
    """Route every input bit i of x to output position p.dest[i]."""
    if x >> p.width:
        raise ParameterError("block wider than the permutation")
    y = 0
    for i, d in enumerate(p.dest):
        y |= ((x >> i) & 1) << d
    return y


def invert(p: BitPermutation) -> BitPermutation:
    inv = [0] * p.width
    for i, d in enumerate(p.dest):
        inv[d] = i
    return BitPermutation(tuple(inv), p.n)


def _round_dest(w, n: int) -> tuple:
    """dest of one round: quarter shuffle by w, then <<< 1."""
    width = 4 * n
    dest = [0] * width
    for slot in range(1, 5):          # output quarter slot, 1 = most significant
        src = w[slot - 1]             # input quarter M_src lands in this slot
        src_base = (4 - src) * n
        slot_base = (4 - slot) * n
        for k in range(n):
            pre = slot_base + k       # position before the rotation
            dest[src_base + k] = (pre + 1) % width
    return tuple(dest)


def build_fji(v: int, table: QuarterPermTable, n: int) -> BitPermutation:
    """Bit permutation of one round: quarter shuffle by table[v], then <<< 1."""
    if not 0 <= v < 16:
        raise ParameterError("selector must be a 4-bit value")
    return BitPermutation(_round_dest(table.entries[v], n), n)


@lru_cache(maxsize=32)
def _round_dests(entries: tuple, n: int) -> tuple:
    """The 16 round dests of a table at block parameter n, built on first use."""
    return tuple(_round_dest(w, n) for w in entries)


def compose_fj(vj: int, table: QuarterPermTable, n: int) -> BitPermutation:
    """f_j from the n 4-bit nibbles of V_j, most significant nibble first.

    Composes the table's 16 round maps, built once per (table, n) and
    cached, by indexing; equal to composing build_fji of each nibble.
    """
    width = 4 * n
    if vj >> width:
        raise ParameterError("V_j wider than 4n bits")
    rounds = _round_dests(table.entries, n)
    dest = range(width)
    for shift in range(width - 4, -1, -4):
        dest = itemgetter(*dest)(rounds[(vj >> shift) & 0xF])
    return BitPermutation(tuple(dest), n)
