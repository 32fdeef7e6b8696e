"""The cipher and its break, written straight from the paper's equations.

The one reference that the tests check every fast path in src/tentbreak
against; a new fast path gets a check here, not a copy of the code it
replaces.  It favours the equations over speed: each map operation is
exact (a quotient is a Fraction) and then rounded to the backend's grid,
blocks are bit lists.  It takes and returns backend values, so a test compares the two
directly.  Where a map is undefined it raises ValueError; the tests match
the fast paths' messages.
"""

import math
from fractions import Fraction
from functools import cache


class Grid:
    """The values a backend holds, named as the backend is ('fp62', 'f64').

    fpL holds the multiples of 2^-L in [0, 1] as their integer numerators
    and rounds to nearest, ties up.  f64 holds binary64 floats and rounds
    each operation to nearest as IEEE 754 does.
    """

    def __init__(self, name: str):
        self.bits = None if name == "f64" else int(name[2:])
        self.one = 1.0 if self.bits is None else 1 << self.bits

    def complement(self, x):
        """The grid value nearest 1 - x."""
        if self.bits is not None:
            return self.one - x         # exact on the grid
        n, d = x.as_integer_ratio()
        return (d - n) / d              # int / int is correctly rounded

    def ratio(self, x, y) -> Fraction:
        """x / y exactly, for grid values x and y."""
        if self.bits is not None:
            return Fraction(x, y)       # the scale 2^-L cancels
        (xn, xd), (yn, yd) = x.as_integer_ratio(), y.as_integer_ratio()
        return Fraction(xn * yd, xd * yn)

    def nearest(self, q: Fraction):
        """The grid value nearest q."""
        if self.bits is None:
            return float(q)             # int / int is correctly rounded
        return (2 * q.numerator * self.one + q.denominator) \
            // (2 * q.denominator)      # floor(q * 2^L + 1/2)


# ---------------------------------------------------------------------------
# the skew tent map F, its extended form G and the initial condition

def _inside(v, g: Grid, name: str) -> None:
    if not 0 < v < g.one:
        raise ValueError(f"{name} must lie strictly inside (0, 1)")


def tent_map(alpha, g: Grid):
    """F_alpha on grid values: x / alpha for x <= alpha, else
    (1 - x) / (1 - alpha), each operation exact, then rounded to the grid.
    Each value is computed once, which on a small grid ends in a lookup."""
    alpha_c = g.complement(alpha)

    @cache
    def F(x):
        if x <= alpha:
            return g.nearest(g.ratio(x, alpha))
        return g.nearest(g.ratio(g.complement(x), alpha_c))

    return F


def orbit(x0, alpha, beta, g: Grid):
    """x0, x1, ... with x_{i+1} = G(x_i): F_alpha inside (0, 1), and the
    boundary states 0 and 1 restart at beta.  alpha is checked at the first
    interior state, beta at the first boundary state."""
    x, F = x0, None
    yield x
    while True:
        if 0 < x < g.one:
            if F is None:
                _inside(alpha, g, "alpha")
                F = tent_map(alpha, g)
            x = F(x)
        elif x == 0 or x == g.one:
            _inside(beta, g, "beta")
            x = beta
        else:
            raise ValueError("x outside [0, 1]")
        yield x


def derive_x0s(t: int, gamma, n_max: int, g: Grid) -> list:
    """derive_x0 for n = 1 .. n_max: x0 = F_gamma^{4n}(s) with
    s = 10^floor(log10 t) / t, one orbit of F_gamma read every 4 steps."""
    if t < 1:
        raise ValueError("the timestamp must be a positive integer")
    _inside(gamma, g, "gamma")
    F = tent_map(gamma, g)
    k = 0
    while 10 ** (k + 1) <= t:
        k += 1
    x, out = g.nearest(Fraction(10 ** k, t)), []
    for _ in range(n_max):
        for _ in range(4):
            x = F(x)
        out.append(x)
    return out


# ---------------------------------------------------------------------------
# the noise vectors

def bits(x: int, width: int) -> list:
    """x as `width` bits, most significant first."""
    return [(x >> (width - 1 - k)) & 1 for k in range(width)]


def block(bit_list) -> int:
    """The inverse of bits."""
    v = 0
    for b in bit_list:
        v = v << 1 | b
    return v


def extract(states, threshold, n: int) -> list:
    """U_0, U_1, ...: u_i = 1 iff x_i > threshold (alpha, or 1/2 when
    mended), 4n bits per vector with u_{4jn} the top bit of U_j; a partial
    last vector is dropped."""
    u = [int(x > threshold) for x in states]
    w = 4 * n
    return [block(u[k:k + w]) for k in range(0, len(u) - w + 1, w)]


# ---------------------------------------------------------------------------
# the bit permutations f_j

def quarter_round(w, cells: list) -> list:
    """f_ji on 4n cells, most significant first: the quarters M1..M4 become
    M_{w[0]} .. M_{w[3]}, then the whole block rotates left by one."""
    n = len(cells) // 4
    quarters = [cells[q * n:(q + 1) * n] for q in range(4)]
    shuffled = [c for s in range(4) for c in quarters[w[s] - 1]]
    return shuffled[1:] + shuffled[:1]


def fj_cells(vj: int, entries, n: int, cells: list) -> list:
    """f_j on cells: one round per 4-bit nibble of V_j, the most significant
    nibble first, each shuffling by its table entry."""
    for k in range(n):
        cells = quarter_round(entries[(vj >> (4 * (n - 1 - k))) & 0xF], cells)
    return cells


def fj(vj: int, entries, n: int) -> tuple:
    """f_j as dest, dest[i] being where input bit i (0 = least significant)
    goes: each cell is labelled with the input bit it holds."""
    width = 4 * n
    labels = fj_cells(vj, entries, n, list(range(width - 1, -1, -1)))
    dest = [0] * width
    for k, i in enumerate(labels):
        dest[i] = width - 1 - k
    return tuple(dest)


def apply(dest, x: int) -> int:
    """Input bit i of x moves to position dest[i]."""
    return sum(((x >> i) & 1) << d for i, d in enumerate(dest))


def invert(dest) -> tuple:
    inv = [0] * len(dest)
    for i, d in enumerate(dest):
        inv[d] = i
    return tuple(inv)


# ---------------------------------------------------------------------------
# the session and the register chain

def session(alpha, beta, gamma, K: int, t: int, n: int, r: int, g: Grid,
            entries) -> tuple:
    """(U_0 .. U_{r+1}, f_0 .. f_{r-1}) of a key at timestamp t: the orbit
    of G from x0 thresholded at alpha, and f_j from V_j = U_j xor K."""
    x0 = derive_x0s(t, gamma, n, g)[-1]
    states = orbit(x0, alpha, beta, g)
    U = extract([next(states) for _ in range(4 * n * (r + 2))], alpha, n)
    return U, [fj(U[j] ^ K, entries, n) for j in range(r)]


def _add(a: int, b: int, n: int) -> int:
    return (a + b) % (1 << (4 * n))


def encrypt(F, U, plain, n: int) -> list:
    """C_j = f_{j-1}(P_j xor (C_{j-1} [+] U_{j+1})) xor (P_{j-1} [+] U_{j+1}),
    from P_0 = U_1 and C_0 = U_0."""
    p_prev, c_prev, out = U[1], U[0], []
    for j, p in enumerate(plain, start=1):
        c = apply(F[j - 1], p ^ _add(c_prev, U[j + 1], n)) \
            ^ _add(p_prev, U[j + 1], n)
        out.append(c)
        p_prev, c_prev = p, c
    return out


def _decrypt(F: dict, U: dict, p_prev, c_prev, cipher, n: int) -> list:
    """P_j = f_{j-1}^{-1}(C_j xor (P_{j-1} [+] U_{j+1})) xor (C_{j-1} [+] U_{j+1});
    a block whose f_{j-1} or U_{j+1} is missing, and every later one, is None."""
    out = []
    for j, c in enumerate(cipher, start=1):
        if p_prev is None or j - 1 not in F or j + 1 not in U:
            p_prev = None
        else:
            p_prev = apply(invert(F[j - 1]), c ^ _add(p_prev, U[j + 1], n)) \
                ^ _add(c_prev, U[j + 1], n)
        out.append(p_prev)
        c_prev = c
    return out


def decrypt(F, U, cipher, n: int) -> list:
    """The chain above solved for P_j, from P_0 = U_1 and C_0 = U_0."""
    return _decrypt(dict(enumerate(F)), dict(enumerate(U)), U[1], U[0],
                    cipher, n)


def keyless_decrypt(perms: dict, noise: dict, reg1, cipher, n: int) -> list:
    """decrypt with recovered material only.  reg1 = (y, z) stands for
    (C_0 [+] U_2, P_0 [+] U_2), so the chain starts from P_0 = z and C_0 = y
    with U_2 taken as 0."""
    if reg1 is None:
        return [None] * len(cipher)
    y, z = reg1
    return _decrypt(perms, {**noise, 2: 0}, z, y, cipher, n)


# ---------------------------------------------------------------------------
# the differential battery and the noise-vector equation

def battery(j: int, n: int) -> list:
    """The 4n+1 chosen messages of j blocks: all zero, then one per bit l
    with only bit l of block j set."""
    return [[0] * j] + [[0] * (j - 1) + [1 << l] for l in range(4 * n)]


def recover(query, j: int, n: int) -> tuple:
    """dest of the bit permutation block j applies to a difference: f_{j-1}
    when `query` encrypts, f_{j-1}^{-1} when it decrypts.  The responses to
    the battery, in order, must differ from the base in one bit each."""
    msgs = battery(j, n)
    base = query(msgs[0])[j - 1]
    dest = []
    for msg in msgs[1:]:
        delta = base ^ query(msg)[j - 1]
        if delta == 0 or delta & (delta - 1):
            raise ValueError("a response differs in other than one bit")
        dest.append(delta.bit_length() - 1)
    if sorted(dest) != list(range(4 * n)):
        raise ValueError("the responses do not form a permutation")
    return tuple(dest)


def consistent(x: int, f, pair, n: int) -> bool:
    """x = U_{j+1} satisfies C_j xor (P_{j-1} [+] x) = f_{j-1}(P_j xor
    (C_{j-1} [+] x)) for pair = (P_{j-1}, P_j, C_{j-1}, C_j); f maps a
    block to its image under f_{j-1}."""
    p_prev, p_j, c_prev, c_j = pair
    return c_j ^ _add(p_prev, x, n) == f(p_j ^ _add(c_prev, x, n))


def solve_uj(pairs, dest, n: int) -> list:
    """Every x in 0 .. 2^{4n} - 1, ascending, that satisfies every pair;
    exhaustive, so meant for n <= 3.  f_{j-1} is tabulated once: the image
    of v is that of v less its lowest set bit i, plus bit dest[i]."""
    image = [0] * (1 << (4 * n))
    for v in range(1, len(image)):
        low = v & -v
        image[v] = image[v ^ low] | 1 << dest[low.bit_length() - 1]
    sols = list(range(len(image)))
    for pair in pairs:
        sols = [x for x in sols if consistent(x, image.__getitem__, pair, n)]
    return sols


# ---------------------------------------------------------------------------
# the guess complexity of the prioritized enumeration

def guess_complexity(alpha: Fraction, n: int, order) -> Fraction:
    """Com(alpha) = sum of rank * Prob over the prioritized enumeration,
    class by class in `order` (one-bit counts): each of a class's c values
    has Prob alpha^{zeros} (1 - alpha)^{ones}, and the class holds ranks
    off + 1 .. off + c, which add up to c*off + c(c+1)/2."""
    width = 4 * n
    com, off = Fraction(0), 0
    for ones in order:
        c = math.comb(width, ones)
        prob = alpha ** (width - ones) * (1 - alpha) ** ones
        com += prob * (c * off + Fraction(c * (c + 1), 2))
        off += c
    return com
