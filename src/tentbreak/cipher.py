"""Encryption/decryption sessions for the time-variant block cipher.

A session is fully determined by the key (alpha, beta, gamma, K), the public
timestamp t, the block parameter n and the precomputation bound r.  Per
session the noise vectors U_0..U_{r+1} are derived once, the permutations
f_0..f_{r-1} on the first encryption, and their inverses, composed
straight from V_j with no f_j built or inverted, on the first decryption;
a session for one message (Session.once) composes each as it is read.
Both directions run one register chain (see chain):

    y_j = perms[j-1](x_j xor (y_{j-1} [+] U_{j+1})) xor (x_{j-1} [+] U_{j+1})

with [+] addition mod 2^{4n}.  Encryption maps x = P to y = C with
perms = f and starts from (x_0, y_0) = (P_0, C_0) = (U_1, U_0); decryption
maps x = C to y = P with perms = f^{-1} and starts from (C_0, P_0) =
(U_0, U_1): the one rule of start, which reads only U, F and Finv, so a
recovered state (attack.RecoveredState) runs the chain as a session does.

A streamed session (init_session's streamed) steps its noise vectors a
chunk at a time as stream reads them, and stream runs a message chunk by
chunk, each chunk a session read once over its own window of U, so the
memory a message takes does not grow with its length.  The ciphertext
file is read and written the same way (load_ciphertext, save_ciphertext).
"""

from __future__ import annotations

from collections import deque, namedtuple
from functools import cached_property, partial
from itertools import chain as flatten, islice

from . import keystream, tentmap
from .backend import (ParameterError, number, open_out, open_text, parse_value,
                      read_lines)
from .keystream import DEFAULT_TABLE, QuarterPermTable


class WeakKeyWarning(UserWarning):
    """Key parameters fall in a range the analyses show to be breakable.
    Nothing raises it: check_key_strength returns the notes instead."""


class KeyMaterial(namedtuple("KeyMaterial", "alpha beta gamma K")):
    """The 4-tuple key: three map parameters plus the 4n-bit sub-key K."""
    __slots__ = ()


class Message(namedtuple("Message", "blocks t")):
    """A sequence of 4n-bit blocks bound to the timestamp of its session."""
    __slots__ = ()


class Session:
    def __init__(self, key: KeyMaterial, t: int, n: int, r: int, backend,
                 table: QuarterPermTable, U: list, degenerate: bool = False):
        self.key, self.t, self.n, self.r = key, t, n, r
        self.backend, self.table = backend, table
        self.U = U  # U_0 .. U_{r+1}; streamed, an iterator of their chunks
        self.degenerate = degenerate

    # f_0 .. f_{r-1} and their inverses, each built when its direction first runs
    F = cached_property(lambda self: list(Maps(self, inverse=False)))
    Finv = cached_property(lambda self: list(Maps(self, inverse=True)))

    def once(self) -> "Session":
        """This session for one message: its F and Finv are Maps, kept by no one."""
        return _Once(self.key, self.t, self.n, self.r, self.backend,
                     self.table, self.U, self.degenerate)


class Maps:
    """A session's f_j, or f_j^-1, composed from V_j when read and kept nowhere."""

    def __init__(self, session: Session, inverse: bool):
        self._session, self._inverse = session, inverse

    def __len__(self) -> int:
        return self._session.r

    def __getitem__(self, j: int) -> keystream.BitPermutation:
        s = self._session       # range(r)[j] raises IndexError past f_{r-1}
        return keystream.compose_fj(s.U[range(s.r)[j]] ^ s.key.K, s.table,
                                    s.n, inverse=self._inverse)


class _Once(Session):
    F = property(partial(Maps, inverse=False))
    Finv = property(partial(Maps, inverse=True))


def check_key_strength(key: KeyMaterial, backend) -> list[str]:
    """Textual warnings for parameter choices the analyses break."""
    notes = []
    a = backend.to_float(key.alpha)
    if not 0.0 < abs(a - 0.5) < 0.01:
        notes.append(
            f"alpha={a:.6g} is outside the recommended range 0<|alpha-0.5|<0.01; "
            "the noise vectors will be exploitably non-uniform"
        )
    return notes


def init_session(key: KeyMaterial, t: int, n: int, r: int, backend,
                 table: QuarterPermTable | None = None,
                 streamed: bool = False) -> Session:
    """Derive all per-session secrets from (key, t, n, r).  A streamed
    session's U is an iterator of U_0..U_{r+1} in keystream.CHUNK lists,
    each stepped when read, and only stream runs it."""
    if not 1 <= n <= 16:
        raise ParameterError(f"block parameter n must be in 1..16, got {n}")
    if r < 1:
        raise ParameterError("r must be >= 1")
    if key.K >> (4 * n):
        raise ParameterError("sub-key K wider than 4n bits")
    table = table if table is not None else DEFAULT_TABLE
    x0 = tentmap.derive_x0(t, key.gamma, n, backend)
    params = tentmap.TentParams(key.alpha, key.beta)
    U = keystream.build_noise_vectors(x0, params, n, r + 1, backend,
                                      chunk=keystream.CHUNK if streamed else None)
    degenerate = x0 == backend.zero or x0 == backend.one
    return Session(key=key, t=t, n=n, r=r, backend=backend, table=table,
                   U=U, degenerate=degenerate)


def chain(perms, x_prev: int, y_prev: int, U, blocks, n: int,
          start: int = 0) -> list:
    """y_{start+1}..y_m of the register chain for blocks x_{start+1}..x_m
    (module doc).

    perms holds one BitPermutation per precomputed block and U is indexed
    by j + 1; x_prev and y_prev are the registers x_start and y_start.  A
    chain resumed after a known prefix of `start` blocks is given only the
    blocks after it, and counts and numbers them as the whole message does.
    The chain inlines keystream.apply: the rotation classes of perms[j-1]
    have disjoint masks, each xored into y_j from the doubled input.
    """
    if start + len(blocks) > len(perms):
        raise ParameterError(
            f"message has {start + len(blocks)} blocks but the session only "
            f"precomputed r={len(perms)}")
    width = 4 * n
    mask = (1 << width) - 1
    out = []
    for j, x in enumerate(blocks, start=start + 1):
        if x >> width:
            raise ParameterError(f"block {j} wider than 4n bits")
        u = U[j + 1]
        v = x ^ ((y_prev + u) & mask)
        v |= v << width
        y_prev = (x_prev + u) & mask
        for t, m in perms[j - 1].classes:
            y_prev ^= (v >> t) & m
        out.append(y_prev)
        x_prev = x
    return out


def start(s, decrypting: bool) -> tuple:
    """One direction's permutations and registers (x_0, y_0) (module doc)."""
    return (s.Finv, s.U[0], s.U[1]) if decrypting else (s.F, s.U[1], s.U[0])


def encrypt(session: Session, plain: Message) -> Message:
    return Message(chain(*start(session, False), session.U, plain.blocks,
                         session.n), session.t)


def decrypt(session: Session, cipher: Message) -> Message:
    return Message(chain(*start(session, True), session.U, cipher.blocks,
                         session.n), cipher.t)


def stream(s: Session, pieces, decrypting: bool):
    """One direction's output of a message that `pieces` yields as
    non-empty lists of blocks, one list per piece, on a streamed session s.
    The k blocks after the first a run as a session read once over their
    window U_a..U_{a+k+1}: from start's registers in the first piece, and
    from those the last piece left after it.  Every vector of s is stepped,
    U_2 too when the message is empty."""
    noise = flatten.from_iterable(s.U)
    U, registers = list(islice(noise, 2)), None
    for blocks in pieces:
        U = [*U[-2:], *islice(noise, len(blocks))]
        perms, *first = start(_Once(s.key, s.t, s.n, len(blocks), s.backend,
                                    s.table, U), decrypting)
        out = chain(perms, *(registers or first), U, blocks, s.n)
        registers = blocks[-1], out[-1]
        yield out
    deque(noise, 0)


# ---------------------------------------------------------------------------
# file formats

def save_key(key: KeyMaterial, n: int, backend, path) -> None:
    with open_out(path) as fh:
        fh.write(f"alpha={backend.serialize(key.alpha)}\n")
        fh.write(f"beta={backend.serialize(key.beta)}\n")
        fh.write(f"gamma={backend.serialize(key.gamma)}\n")
        fh.write(f"K=0x{key.K:0{n}x}\n")
        fh.write(f"n={n}\n")


def load_key(path):
    """Returns (KeyMaterial, n, backend).  The file holds one name=value line
    each for alpha, beta, gamma, K and n: alpha, beta and gamma strictly
    inside (0, 1) on one backend, n in 1..16 and K below 2^{4n}.  An error
    names the file, and the line and field where there is one."""
    parsers = {"alpha": parse_value, "beta": parse_value, "gamma": parse_value,
               "n": lambda text: number(text, 10), "K": lambda text: number(text, 16)}
    values, lines = {}, {}

    def field(lineno, line):
        name, eq, text = (part.strip() for part in line.partition("="))
        if not eq or name not in parsers:
            raise ValueError(f"expected name=value with name one of "
                             f"{', '.join(parsers)}, got {line!r}")
        if name in values:
            raise ValueError(f"{name}: repeats line {lines[name]}")
        try:
            values[name], lines[name] = parsers[name](text), lineno
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
        if name == "n" and not 1 <= values["n"] <= 16:
            raise ValueError(f"n must be in 1..16, got {values['n']}")
        if name in ("alpha", "beta", "gamma"):
            tentmap.check_open_unit(*values[name], name)

    read_lines(path, field)
    missing = [name for name in parsers if name not in values]
    if missing:
        raise ParameterError(f"key file {path} is missing field {missing[0]!r}")
    (alpha, backend), (beta, b2), (gamma, b3) = (
        values["alpha"], values["beta"], values["gamma"])
    for name, other in (("beta", b2), ("gamma", b3)):
        if other != backend:
            raise ParameterError(f"{path}: line {lines[name]}: {name}: not on the "
                                 f"arithmetic backend of alpha, line {lines['alpha']}")
    n, k = values["n"], values["K"]
    if k >> (4 * n):
        raise ParameterError(f"{path}: line {lines['K']}: K must be below "
                             f"2^{4 * n} at n={n}, got {k:#x}")
    return KeyMaterial(alpha, beta, gamma, k), n, backend


def save_ciphertext(t: int, n: int, length: int, pieces, path) -> None:
    """Writes the ciphertext file of the `length` blocks that `pieces`
    yields in lists, a list at a time."""
    with open_out(path) as fh:
        fh.write(f"YTS1 t={t} n={n} len={length}\n")
        written = 0
        for blocks in pieces:
            fh.write("".join(f"{b:0{n}x}\n" for b in blocks))
            written += len(blocks)
        if written != length:
            raise ParameterError(f"{path}: {written} blocks to write, not len={length}")


def read_header(fh, path, magic: str, kind: str, names) -> list[int]:
    """The integer fields `names`, each given once and no other, of a
    'MAGIC name=value ...' first line; `names` includes n, which must be a
    block parameter in 1..16."""
    header = fh.readline().split()
    if not header or header[0] != magic:
        raise ParameterError(f"{path} is not a {kind} file")
    meta = {}
    for name, _, text in (item.partition("=") for item in header[1:]):
        try:
            if name not in names or name in meta:
                raise ValueError("given twice" if name in meta else "unknown field")
            meta[name] = number(text, 10)
        except ValueError as exc:
            raise ParameterError(f"{path}: line 1: {name}: {exc}") from None
    missing = [name for name in names if name not in meta]
    if missing:
        raise ParameterError(f"{path}: line 1: header has no {missing[0]}= field")
    if not 1 <= meta["n"] <= 16:
        raise ParameterError(f"{path}: line 1: n must be in 1..16")
    return [meta[name] for name in names]


def load_ciphertext(path):
    """Reads ciphertext file `path`: yields its header's (t, n, len), then
    its blocks in lists of keystream.CHUNK, each parsed when it is read.
    The file holds exactly `len` blocks; only blank lines may follow them."""
    with open_text(path) as fh:
        t, n, length = read_header(fh, path, "YTS1", "ciphertext",
                                   ("t", "n", "len"))
        if t < 1:
            raise ParameterError(f"{path}: line 1: t must be a positive "
                                 f"integer, got {t}")
        yield t, n, length
        chunk, blocks, k, got = keystream.CHUNK, [], 0, "the file ends"
        for lineno, line in enumerate(map(str.strip, fh), start=2):
            if k < length:
                try:
                    block = number(line, 16)
                except ValueError:
                    block = None
                if block is None or block >> (4 * n):
                    got = f"got {line!r}"
                    break
                blocks.append(block)
                k += 1
                if len(blocks) == chunk:
                    yield blocks
                    blocks = []
            elif line:
                raise ParameterError(
                    f"{path}: line {lineno}: expected the end of the file "
                    f"after {length} blocks, got {line!r}")
        if k < length:
            raise ParameterError(f"{path}: line {k + 2}: expected {4 * n}-bit "
                                 f"block {k + 1} of {length}, {got}")
    if blocks:
        yield blocks
