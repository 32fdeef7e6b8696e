"""Encryption/decryption sessions for the time-variant block cipher.

A session is fully determined by the key (alpha, beta, gamma, K), the public
timestamp t, the block parameter n and the precomputation bound r.  Per
session the noise vectors U_0..U_{r+1} and bit permutations f_0..f_{r-1}
are derived once, and their inverses on the first decryption.  Both
directions run one register chain (see chain):

    y_j = perms[j-1](x_j xor (y_{j-1} [+] U_{j+1})) xor (x_{j-1} [+] U_{j+1})

with [+] addition mod 2^{4n}.  Encryption maps x = P to y = C with
perms = f and starts from (x_0, y_0) = (P_0, C_0) = (U_1, U_0); decryption
maps x = C to y = P with perms = f^{-1} and starts from (C_0, P_0) =
(U_0, U_1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import keystream, tentmap
from .backend import (ParameterError, hex_blocks, number, open_text, parse_value,
                      read_lines)
from .keystream import DEFAULT_TABLE, QuarterPermTable


class WeakKeyWarning(UserWarning):
    """Key parameters fall in a range the analyses show to be breakable.
    Nothing raises it: check_key_strength returns the notes instead."""


@dataclass(frozen=True)
class KeyMaterial:
    """The 4-tuple key: three map parameters plus the 4n-bit sub-key K."""

    alpha: object
    beta: object
    gamma: object
    K: int


@dataclass
class Message:
    """A sequence of 4n-bit blocks bound to the timestamp of its session."""

    blocks: list
    t: int


@dataclass
class Session:
    key: KeyMaterial
    t: int
    n: int
    r: int
    backend: object
    table: QuarterPermTable
    U: list  # U_0 .. U_{r+1}
    F: list  # f_0 .. f_{r-1}
    degenerate: bool = False

    @cached_property
    def Finv(self) -> list:
        """f_0^{-1} .. f_{r-1}^{-1}, built when first read: only decryption
        needs them."""
        return [keystream.invert(f) for f in self.F]


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
                 table: QuarterPermTable | None = None) -> Session:
    """Derive all per-session secrets from (key, t, n, r)."""
    if not 1 <= n <= 16:
        raise ParameterError(f"block parameter n must be in 1..16, got {n}")
    if r < 1:
        raise ParameterError("r must be >= 1")
    if key.K >> (4 * n):
        raise ParameterError("sub-key K wider than 4n bits")
    table = table if table is not None else DEFAULT_TABLE
    x0 = tentmap.derive_x0(t, key.gamma, n, backend)
    params = tentmap.TentParams(key.alpha, key.beta)
    U = keystream.build_noise_vectors(x0, params, n, r + 1, backend)
    F = [keystream.compose_fj(U[j] ^ key.K, table, n) for j in range(r)]
    degenerate = x0 == backend.zero or x0 == backend.one
    return Session(key=key, t=t, n=n, r=r, backend=backend, table=table,
                   U=U, F=F, degenerate=degenerate)


def chain(perms, x_prev: int, y_prev: int, U, blocks, n: int) -> list:
    """y_1..y_m of the register chain for blocks x_1..x_m (module doc).

    perms holds one map per precomputed block and U is indexed by j + 1;
    x_prev and y_prev are the starting registers x_0 and y_0.
    """
    if len(blocks) > len(perms):
        raise ParameterError(
            f"message has {len(blocks)} blocks but the session only "
            f"precomputed r={len(perms)}")
    width = 4 * n
    mask = (1 << width) - 1
    out = []
    for j, x in enumerate(blocks, start=1):
        if x >> width:
            raise ParameterError(f"block {j} wider than 4n bits")
        u = U[j + 1]
        y_prev = keystream.apply(perms[j - 1], x ^ ((y_prev + u) & mask)) \
            ^ ((x_prev + u) & mask)
        out.append(y_prev)
        x_prev = x
    return out


def encrypt(session: Session, plain: Message) -> Message:
    return Message(chain(session.F, session.U[1], session.U[0], session.U,
                         plain.blocks, session.n), session.t)


def decrypt(session: Session, cipher: Message) -> Message:
    return Message(chain(session.Finv, session.U[0], session.U[1], session.U,
                         cipher.blocks, session.n), cipher.t)


# ---------------------------------------------------------------------------
# file formats

def save_key(key: KeyMaterial, n: int, backend, path) -> None:
    with open(path, "w") as fh:
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
    if not backend == b2 == b3:
        raise ParameterError(f"key file {path} mixes arithmetic backends")
    n, k = values["n"], values["K"]
    if k >> (4 * n):
        raise ParameterError(f"{path}: line {lines['K']}: K must be below "
                             f"2^{4 * n} at n={n}, got {k:#x}")
    return KeyMaterial(alpha, beta, gamma, k), n, backend


def save_ciphertext(msg: Message, n: int, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"YTS1 t={msg.t} n={n} len={len(msg.blocks)}\n")
        for b in msg.blocks:
            fh.write(f"{b:0{n}x}\n")


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
    """Returns (Message, n).  The file holds exactly `len` blocks; only blank
    lines may follow them."""
    with open_text(path) as fh:
        t, n, length = read_header(fh, path, "YTS1", "ciphertext",
                                   ("t", "n", "len"))
        if t < 1:
            raise ParameterError(f"{path}: line 1: t must be a positive "
                                 f"integer, got {t}")
        start = fh.tell()
        blocks = hex_blocks(fh.read(), n, length)
        fh.seek(start if blocks is None else start + length * (n + 1))
        if blocks is None:  # read line by line, to name the first bad line
            blocks = []
            for lineno in range(2, length + 2):
                line = fh.readline()
                try:
                    block = number(line.strip(), 16)
                except ValueError:
                    block = None
                if block is None or block >> (4 * n):
                    got = f"got {line.strip()!r}" if line else "the file ends"
                    raise ParameterError(
                        f"{path}: line {lineno}: expected {4 * n}-bit block "
                        f"{lineno - 1} of {length}, {got}")
                blocks.append(block)
        for lineno, line in enumerate(fh, start=length + 2):
            if line.strip():
                raise ParameterError(
                    f"{path}: line {lineno}: expected the end of the file "
                    f"after {length} blocks, got {line.strip()!r}")
    return Message(blocks, t), n
