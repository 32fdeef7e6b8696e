"""Encryption/decryption sessions for the time-variant block cipher.

A session is fully determined by the key (alpha, beta, gamma, K), the public
timestamp t, the block parameter n and the precomputation bound r.  Per
session the noise vectors U_0..U_{r+1} and bit permutations f_0..f_{r-1}
are derived once; the running registers start at C_0 = U_0, P_0 = U_1.

    C_j = f_{j-1}(P_j xor (C_{j-1} [+] U_{j+1})) xor (P_{j-1} [+] U_{j+1})
    P_j = f_{j-1}^{-1}(C_j xor (P_{j-1} [+] U_{j+1})) xor (C_{j-1} [+] U_{j+1})

with [+] addition mod 2^{4n}.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from . import keystream, tentmap
from .backend import ParameterError, parse_value, serialize_value
from .keystream import DEFAULT_TABLE, QuarterPermTable


class WeakKeyWarning(UserWarning):
    """Key parameters fall in a range the analyses show to be breakable."""


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
    x0: object
    U: list  # U_0 .. U_{r+1}
    F: list  # f_0 .. f_{r-1}
    Finv: list
    degenerate: bool = False
    mended: bool = field(default=False, repr=False)


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
                 x0_override=None, mended: bool = False) -> Session:
    """Derive all per-session secrets from (key, t, n, r).

    x0_override substitutes the timestamp-derived initial condition; it is a
    test/analysis hook, not part of the cipher.
    """
    if not 1 <= n <= 16:
        raise ParameterError(f"block parameter n must be in 1..16, got {n}")
    if r < 1:
        raise ParameterError("r must be >= 1")
    if key.K >> (4 * n):
        raise ParameterError("sub-key K wider than 4n bits")
    table = table if table is not None else DEFAULT_TABLE
    for note in check_key_strength(key, backend):
        warnings.warn(note, WeakKeyWarning, stacklevel=2)
    if x0_override is not None:
        x0 = x0_override
    else:
        x0 = tentmap.derive_x0(t, key.gamma, n, backend)
    params = tentmap.TentParams(key.alpha, key.beta)
    U = keystream.build_noise_vectors(x0, params, n, r + 1, backend, mended=mended)
    F = [keystream.compose_fj(U[j] ^ key.K, table, n) for j in range(r)]
    Finv = [keystream.invert(f) for f in F]
    degenerate = x0 == backend.zero or x0 == backend.one
    return Session(key=key, t=t, n=n, r=r, backend=backend, table=table,
                   x0=x0, U=U, F=F, Finv=Finv, degenerate=degenerate,
                   mended=mended)


def encrypt(session: Session, plain: Message) -> Message:
    if len(plain.blocks) > session.r:
        raise ParameterError(
            f"message has {len(plain.blocks)} blocks but the session only "
            f"precomputed r={session.r}")
    mask = (1 << (4 * session.n)) - 1
    c_prev = session.U[0]
    p_prev = session.U[1]
    out = []
    for j, p in enumerate(plain.blocks, start=1):
        if p >> (4 * session.n):
            raise ParameterError(f"block {j} wider than 4n bits")
        u = session.U[j + 1]
        c = keystream.apply(session.F[j - 1], p ^ ((c_prev + u) & mask)) \
            ^ ((p_prev + u) & mask)
        out.append(c)
        p_prev, c_prev = p, c
    return Message(out, session.t)


def decrypt(session: Session, cipher: Message) -> Message:
    if len(cipher.blocks) > session.r:
        raise ParameterError(
            f"message has {len(cipher.blocks)} blocks but the session only "
            f"precomputed r={session.r}")
    mask = (1 << (4 * session.n)) - 1
    c_prev = session.U[0]
    p_prev = session.U[1]
    out = []
    for j, c in enumerate(cipher.blocks, start=1):
        if c >> (4 * session.n):
            raise ParameterError(f"block {j} wider than 4n bits")
        u = session.U[j + 1]
        p = keystream.apply(session.Finv[j - 1], c ^ ((p_prev + u) & mask)) \
            ^ ((c_prev + u) & mask)
        out.append(p)
        p_prev, c_prev = p, c
    return Message(out, cipher.t)


# ---------------------------------------------------------------------------
# file formats

def save_key(key: KeyMaterial, n: int, backend, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"alpha={serialize_value(key.alpha, backend)}\n")
        fh.write(f"beta={serialize_value(key.beta, backend)}\n")
        fh.write(f"gamma={serialize_value(key.gamma, backend)}\n")
        fh.write(f"K=0x{key.K:0{n}x}\n")
        fh.write(f"n={n}\n")


def load_key(path):
    """Returns (KeyMaterial, n, backend)."""
    fields = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            k, _, v = line.partition("=")
            fields[k.strip()] = v.strip()
    try:
        alpha, backend = parse_value(fields["alpha"])
        beta, b2 = parse_value(fields["beta"])
        gamma, b3 = parse_value(fields["gamma"])
        k = int(fields["K"], 16)
        n = int(fields["n"])
    except KeyError as exc:
        raise ParameterError(f"key file {path} is missing field {exc}") from None
    except ValueError as exc:
        raise ParameterError(f"key file {path}: {exc}") from None
    if not backend == b2 == b3:
        raise ParameterError(f"key file {path} mixes arithmetic backends")
    return KeyMaterial(alpha, beta, gamma, k), n, backend


def save_ciphertext(msg: Message, n: int, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"YTS1 t={msg.t} n={n} len={len(msg.blocks)}\n")
        for b in msg.blocks:
            fh.write(f"{b:0{n}x}\n")


def read_header(fh, path, magic: str, kind: str, names) -> list[int]:
    """The integer fields `names` of a 'MAGIC name=value ...' first line;
    `names` includes n, which must be a block parameter in 1..16."""
    header = fh.readline().split()
    if not header or header[0] != magic:
        raise ParameterError(f"{path} is not a {kind} file")
    meta = dict(item.partition("=")[::2] for item in header[1:])
    try:
        values = [int(meta[name]) for name in names]
    except KeyError as exc:
        raise ParameterError(
            f"{path}: line 1: header has no {exc.args[0]}= field") from None
    except ValueError as exc:
        raise ParameterError(f"{path}: line 1: {exc}") from None
    if not 1 <= values[names.index("n")] <= 16:
        raise ParameterError(f"{path}: line 1: n must be in 1..16")
    return values


def load_ciphertext(path):
    """Returns (Message, n)."""
    with open(path) as fh:
        t, n, length = read_header(fh, path, "YTS1", "ciphertext",
                                   ("t", "n", "len"))
        blocks = []
        for lineno in range(2, length + 2):
            line = fh.readline()
            try:
                block = int(line, 16)
            except ValueError:
                block = -1
            if not 0 <= block < 1 << (4 * n):
                got = f"got {line.strip()!r}" if line else "the file ends"
                raise ParameterError(
                    f"{path}: line {lineno}: expected {4 * n}-bit block "
                    f"{lineno - 1} of {length}, {got}")
            blocks.append(block)
    return Message(blocks, t), n
