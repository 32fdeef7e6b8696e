"""Differential chosen-plaintext/chosen-ciphertext attacks and the
noise-vector solver.

Because every f_j is a bit permutation, two plaintexts that differ in a
single bit of their last block produce ciphertexts that differ in a single
bit of the corresponding block; reading off where the flipped bit lands for
each of the 4n positions reconstructs f_{j-1} exactly with 4n+1 queries.
The chosen-ciphertext attack is the dual: the same battery submitted as
ciphertexts reads off f_{j-1}^{-1}, and f_{j-1} is built straight from
what it reads.  recover_all_f is that one routine, run in either
direction.  Block j's battery is j-1 zero blocks and one last block, so
every battery lies along one trunk of r-1 zero blocks: the simulated
victim, Oracle, answers them all in one walk that steps each trunk block
once and then one block per query, (4n+1)r chain calls in all.

Once the permutations are known, the noise vectors U_{j+1} (j >= 2) are
the solutions x of

    C_j xor (P_{j-1} [+] x) = f_{j-1}(P_j xor (C_{j-1} [+] x))

over known plaintext/ciphertext pairs.  Bit k of each modular sum depends
only on bits 0..k of x (the carry-propagation view of addition of Lipmaa and
Moriai, FSE 2001), so a bit-serial search from the least significant bit
checks every bit constraint as soon as it is decided and never enumerates
the 2^{4n} candidates.  The search is bit-sliced across the pairs (Biham,
FSE 1997): bit k of all m pairs' values is one m-bit integer, so a node
costs a few integer operations per constraint however many pairs there are.

For the first block the unknown registers P_0, C_0 only ever appear inside
(P_0 [+] U_2) and (C_0 [+] U_2), and the permutation is XOR-linear, so any
consistent register pair (y, z) decrypts every first block; no search is
needed there.  With U_0, U_1 = y, z and U_2 = 0, a recovered state is a
session over the blocks it covers (RecoveredState): keyless decryption is
cipher.decrypt's own chain call, and the encryption direction forges.
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import cached_property, partial
from itertools import islice
from types import MappingProxyType

from . import cipher, keystream
from .backend import ParameterError, number, open_text, read_lines
from .keystream import BitPermutation


class OracleModelViolation(Exception):
    """The oracle responses contradict the fixed-clock attack model."""


# ---------------------------------------------------------------------------
# oracles

class Oracle:
    """The victim's encryption and decryption machine.  The attacker pins its
    clock, and the timestamp field of every submitted ciphertext too, since
    the attacker controls the channel.  With drift=True (a negative test)
    _answer alone answers each query on a session of its own at a fresh
    timestamp, read once (Session.once), violating the fixed-clock model.

    It keeps nothing between calls but query_count.  encrypt_blocks and
    decrypt_blocks run one query from block 1; walk answers the queries
    trunk[:k] + [b] along one trunk, stepping each trunk block once."""

    def __init__(self, session: cipher.Session, drift: bool = False):
        self._session = session
        self._drift = drift
        self.query_count = 0

    def _answer(self, blocks, decrypting: bool) -> list:
        """One query from block 1, answered at t + query_count if drift."""
        self.query_count += 1
        s = self._session
        if self._drift:
            s = cipher.init_session(s.key, s.t + self.query_count, s.n, s.r,
                                    s.backend, table=s.table).once()
        return cipher.chain(*cipher.start(s, decrypting), s.U, blocks, s.n)

    def encrypt_blocks(self, blocks) -> list:
        return self._answer(blocks, False)

    def decrypt_blocks(self, blocks) -> list:
        return self._answer(blocks, True)

    def walk(self, trunk, lasts, decrypting: bool):
        """For k = 0..len(trunk), lazily, the last answer block of each query
        trunk[:k] + [b], b in lasts, as if sent alone; a query counts when it
        is answered, and one that raises ends the walk.  The first query at k
        also steps trunk[k-1]; under drift each is a whole query of _answer."""
        s, done = self._session, 0      # (x, y) are the registers after trunk[:done]
        perms, x, y = cipher.start(s, decrypting)
        for k in range(len(trunk) + 1):
            for b in lasts:
                if self._drift:
                    yield self._answer([*trunk[:k], b], decrypting)[-1]
                    continue
                self.query_count += 1
                if done < k:
                    *_, y, c = cipher.chain(perms, x, y, s.U, [*trunk[done:k], b],
                                            s.n, done)
                    x, done = trunk[k - 1], k
                else:
                    c = cipher.chain(perms, x, y, s.U, [b], s.n, k)[0]
                yield c


# ---------------------------------------------------------------------------
# recovered state

class RecoveredState:
    """Everything needed for keyless decryption, with per-item provenance.
    To cipher.start it is a session over the covered prefix j = 1..m, the
    longest run whose f_{j-1} and, for j >= 2, U_{j+1} are known once reg1
    is: F = f_0..f_{m-1}, U = [y, z, 0, U_3..U_{m+1}] with reg1 = (y, z).
    perms and noise are read-only copies, so F, U and Finv never go stale."""

    def __init__(self, n: int, r: int, perms, noise, reg1, provenance):
        self.n, self.r = n, r
        self._perms = MappingProxyType(dict(perms))    # j -> f_j
        self._noise = MappingProxyType(dict(noise))    # j -> U_j  (j >= 3)
        self.reg1 = reg1                # (C_0 [+] U_2, P_0 [+] U_2) or None
        self.provenance = dict(provenance)      # item name -> method tag
        m = 0               # no reg1: nothing is covered, and U_0, U_1 go unread
        while reg1 and m in self._perms and (m == 0 or m + 2 in self._noise):
            m += 1
        self.F = [self._perms[j] for j in range(m)]
        self.U = [*(reg1 or (0, 0)), 0, *(self._noise[j] for j in range(3, m + 2))]

    perms = property(lambda self: self._perms)
    noise = property(lambda self: self._noise)

    @cached_property
    def Finv(self) -> list:
        """f_0^{-1}..f_{m-1}^{-1}, inverted when first read."""
        return [keystream.invert(f) for f in self.F]


# ---------------------------------------------------------------------------
# differential recovery of the permutations

def _single_bit_index(delta: int, what: str) -> int:
    if delta == 0 or delta & (delta - 1):
        raise OracleModelViolation(
            f"{what} difference 0x{delta:x} is not a single bit; "
            "the oracle clock is not actually fixed")
    return delta.bit_length() - 1


def recover_all_f(oracle: Oracle, r: int, n: int,
                  decrypting: bool = False) -> RecoveredState:
    """f_0..f_{r-1} from chosen plaintexts, or from chosen ciphertexts when
    decrypting: one walk along r-1 zero blocks, whose last blocks 0, 1, 2,
    .., 2^{4n-1} read f_{j-1} (or its inverse) off block j's single-bit
    differences, (4n+1)r queries, each difference checked as it arrives.
    A read-off inverse moves bit l to d, so f_{j-1} moves d to l: its dest
    is written from the read-off positions, and no map is inverted."""
    what, tag = ("plaintext", "cca") if decrypting else ("ciphertext", "cpa")
    width, perms = 4 * n, {}
    answers = oracle.walk([0] * (r - 1), [0] + [1 << l for l in range(width)],
                          decrypting)
    for j in range(r):
        base = next(answers)
        dest = [_single_bit_index(base ^ c, what)
                for c in islice(answers, width)]
        if decrypting:      # an unread slot keeps width: no bijection
            read, dest = dest, [width] * width
            for l, d in enumerate(read):
                if d < width:
                    dest[d] = l
        try:
            perms[j] = BitPermutation(dest, n)
        except ParameterError:
            raise OracleModelViolation("recovered map is not a bijection") from None
    return RecoveredState(n, r, perms, {}, None, {f"f{j}": tag for j in perms})


# the names the benchmark harness builds, runs and traces these by
EncryptionOracle = DecryptionOracle = Oracle
recover_all_finv = partial(recover_all_f, decrypting=True)


# ---------------------------------------------------------------------------
# solving the noise vectors

def solve_uj(pairs, f: BitPermutation, n: int) -> list:
    """All x = U_{j+1} consistent with every (P_{j-1}, P_j, C_{j-1}, C_j).

    The block equation holds iff, for every input bit i, bit d = f.dest[i]
    of L = C_j xor (P_{j-1} [+] x) equals bit i of R = P_j xor (C_{j-1} [+] x),
    which the low max(i, d) + 1 bits of x decide.  A depth-first search fixes
    x from the least significant bit on slices: slice k packs bit k of every
    pair, so x's bit k is 0 or all ones.  A node carries the carries into bit
    k of P_{j-1} [+] x and C_{j-1} [+] x (out: p & c for a 0 bit, p | c for
    a 1), and its path the slices of L and R so far; each constraint is one
    slice comparison, which pins x's bit k or ends the branch.  The solutions
    come back ascending (rank_candidates reorders them by probability).  No
    solution means the inputs are inconsistent with the supplied permutation.
    """
    if not pairs:
        raise ParameterError("at least one plaintext/ciphertext pair is needed")
    width = 4 * n
    # the search reads only bits below `width`, so wider values must not pass
    if any(not 0 <= v < 1 << width for pair in pairs for v in pair):
        raise ParameterError(f"pair value outside the {width}-bit block range")
    levels = [[] for _ in range(width)]
    for i, d in enumerate(f.dest):
        levels[max(i, d)].append((i, d))
    ones = (1 << len(pairs)) - 1
    # slice b of each value packs bit b of every pair (pair t at bit m-1-t):
    # P_{j-1}, C_{j-1}, and L and R with x = 0, transposed in one pass
    rows = [format(((p_prev << width | c_prev) << width | c_j ^ p_prev) << width
                   | p_j ^ c_prev, f"0{4 * width}b")
            for p_prev, p_j, c_prev, c_j in pairs]
    sliced = [int("".join(col), 2) for col in zip(*rows)][::-1]
    r0s, l0s, cp, pp = (sliced[q:q + width] for q in range(0, 4 * width, width))
    L, R = [0] * width, [0] * width     # sliced bits of L and R on the path
    sols = []
    # (next bit k, x's fixed low bits, carries into bit k, L and R at k - 1)
    stack = [(0, 0, 0, 0, 0, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        k, low, ca, cb, lk, rk = pop()
        if k:
            L[k - 1], R[k - 1] = lk, rk
            if k == width:
                sols.append(low)
                continue
        L[k] = l0 = l0s[k] ^ ca          # with x's bit k = 0; 1 flips both
        R[k] = r0 = r0s[k] ^ cb
        allowed = 3                      # bit 0: x's bit k may be 0; bit 1: 1
        for i, d in levels[k]:
            v = L[d] ^ R[i]
            if i == d:                   # both sides flip together
                if v:
                    break
            elif v == 0:
                allowed &= 1
            elif v == ones:
                allowed &= 2
            else:
                break
        else:
            if allowed & 1:
                push((k + 1, low, pp[k] & ca, cp[k] & cb, l0, r0))
            if allowed & 2:
                push((k + 1, low | 1 << k, pp[k] | ca, cp[k] | cb,
                      l0 ^ ones, r0 ^ ones))
    sols.sort()
    if not sols:
        raise ValueError("no candidate satisfies the pairs; wrong permutation "
                         "or mismatched pairs")
    return sols


def solve_block1_registers(pairs, f0: BitPermutation, n: int) -> tuple:
    """A register pair (y, z) with y ~ C_0 [+] U_2 and z ~ P_0 [+] U_2.

    pairs, at least one, are (P_1, C_1) tuples from known messages.  Since
    f_0 is XOR-linear, (0, C_1 xor f_0(P_1)) reproduces every pair; the
    remaining pairs are used as a consistency check of the recovered f_0:
    each must satisfy the block equation with x = 0 and registers (z, y).
    """
    p1, c1 = pairs[0]
    y = 0
    z = c1 ^ cipher.chain((f0,), 0, 0, (0, 0, 0), (p1,), n)[0]
    for p, c in pairs:
        if not _pair_consistent(0, f0, (z, p, y, c), n):
            raise ValueError("first-block pairs are inconsistent with f_0")
    return y, z


def class_order(alpha_est: float, n: int) -> list:
    """One-bit counts of the block-value classes, most probable noise-vector
    class first: the order in which the attacker's prioritized enumeration
    of all 2^{4n} block values walks them, each class ascending.

    With Prob{bit = 0} = alpha, values fall into classes A_i by their count
    of 0-bits.  alpha < 0.5: plain descending-probability order A_0 -> A_4n.
    alpha > 0.5: the class pairs (A_i, A_{4n-i}) are walked outside-in with
    the heavier class first, the order suited to an attacker who only knows
    alpha is extreme.  alpha = 0.5: every value is equally likely and the
    classes come by ascending one-bit count.
    """
    if not 0 < alpha_est < 1:
        raise ParameterError("alpha estimate must be in (0, 1)")
    width = 4 * n
    # doubling is exact for a float, and a Fraction meets no float here
    if 2 * alpha_est < 1:
        return list(range(width, -1, -1))  # i 0-bits == width - i 1-bits
    if 2 * alpha_est == 1:
        return list(range(width + 1))
    ones = []
    for i in range(2 * n):
        ones += [i, width - i]  # A_{4n-i} (few ones, many zeros), then A_i
    return ones + [2 * n]


def rank_candidates(values, alpha_est: float, n: int) -> list:
    """`values` in the prioritized enumeration's order (class_order, each
    class ascending; at alpha = 0.5 plain numeric order), found without
    walking the 2^{4n} enumeration: by class position then value."""
    position = {ones: k for k, ones in enumerate(class_order(alpha_est, n))}
    if alpha_est == 0.5:
        return sorted(values)
    return sorted(values, key=lambda x: (position[bin(x).count("1")], x))


def keyless_decrypt(state: RecoveredState, blocks) -> list:
    """Decrypt with recovered material only: cipher.decrypt's chain call over
    the state's covered prefix, and None for every block past it."""
    finv, x, y = cipher.start(state, True)
    if len(blocks) <= len(finv):    # no slice and pad: break-n4 stage2 -7 %
        return cipher.chain(finv, x, y, state.U, blocks, state.n)
    return cipher.chain(finv, x, y, state.U, blocks[:len(finv)], state.n) \
        + [None] * (len(blocks) - len(finv))


def _settled(sols, n: int) -> bool:
    """True once the candidate set is a single equivalence family.

    Solutions x and x [+] 2^{4n-1} of one pair exist only when f fixes the
    most significant bit position: adding the top-bit power flips the top
    bit on both sides of the block equation.  They are then equivalent keys:
    the addition is carry-free, so it commutes with both the permutation and
    the modular additions and the two candidates decrypt every ciphertext
    identically.  (Wider top-fixed strides do not qualify: their internal
    carries are data-dependent.)
    """
    return len({x % (1 << (4 * n - 1)) for x in sols}) <= 1


class AttackReport(namedtuple("AttackReport", "state recovery_queries "
                               "extra_queries candidate_sets stopped")):
    """The recovered state and the query counts spent on it; stopped is
    "settled", or "budget" if EXTRA_QUERIES ran out."""
    __slots__ = ()


# the disambiguation budget of full_attack, in chosen-plaintext queries
EXTRA_QUERIES = 512


def full_attack(oracle: Oracle, known_messages, r: int, n: int,
                seed: int = 0) -> AttackReport:
    """Recover permutations, then the noise vectors, for keyless decryption.

    Every known (P, C) message must come from the fixed-clock session the
    permutations are recovered from: a block that no candidate fits is an
    OracleModelViolation.  The solve step finds every candidate
    per block consistent with those messages (see solve_uj).  A single
    equation has ~2^n structurally related solutions (the branch degeneracy
    of the modular-addition/XOR mixture), so leftover ambiguity is resolved
    with extra chosen-plaintext queries until each candidate set collapses
    to one equivalence family; members of a family decrypt identically, so
    any of them completes the key.  The report's `stopped` says whether that
    happened ("settled") or the EXTRA_QUERIES budget ran out first
    ("budget").  `recovery_queries` counts the permutation battery's own
    queries, not any the oracle answered before the call.  The known
    messages, block values included, are checked before the first query.
    """
    if not known_messages:
        raise ParameterError("at least one known message is needed")
    top = 1 << (4 * n)
    for i, (p, c) in enumerate(known_messages, start=1):
        if len(p) != len(c):
            raise ParameterError(f"a known message has {len(p)} plaintext "
                                 f"blocks and {len(c)} ciphertext blocks")
        for kind, blocks in (("plaintext", p), ("ciphertext", c)):
            for j, v in enumerate(blocks, start=1):
                if not 0 <= v < top:
                    raise ParameterError(f"known message {i}: {kind} block {j} "
                                         f"is outside the {4 * n}-bit block range")
    longest = max(len(p) for p, _ in known_messages)
    if longest > r:
        raise ParameterError(f"a known message has {longest} blocks, more than r={r}")
    if not longest:
        raise ParameterError("every known message is empty")
    before = oracle.query_count
    found = recover_all_f(oracle, r, n)
    recovery_queries = oracle.query_count - before
    perms, provenance = found.perms, {**found.provenance, "reg1": "affine"}
    first_pairs = [(p[0], c[0]) for p, c in known_messages if p]
    sets, j = {}, 1                     # j: the block being solved
    try:
        reg1 = solve_block1_registers(first_pairs, perms[0], n)
        for j in range(2, longest + 1):
            pairs = [(p[j - 2], p[j - 1], c[j - 2], c[j - 1])
                     for p, c in known_messages if len(p) >= j]
            sets[j] = solve_uj(pairs, perms[j - 1], n)
    except ParameterError:
        raise
    except ValueError as exc:   # the pairs contradict the recovered maps
        raise OracleModelViolation(f"block {j}: {exc}") from None
    rng = random.Random(f"disambiguate:{seed}")
    extra = 0
    stopped = "settled"
    while any(not _settled(sets[j], n) for j in sets):
        if extra == EXTRA_QUERIES:
            stopped = "budget"
            break
        p = [rng.randrange(top) for _ in range(r)]
        c = oracle.encrypt_blocks(p)
        extra += 1
        for j in sets:
            if not _settled(sets[j], n):
                pair = (p[j - 2], p[j - 1], c[j - 2], c[j - 1])
                sets[j] = [x for x in sets[j]
                           if _pair_consistent(x, perms[j - 1], pair, n)]
                if not sets[j]:
                    raise OracleModelViolation(f"block {j}: a chosen pair "
                                               "rules out every candidate")
    for j, sols in sets.items():
        provenance[f"U{j + 1}"] = "solved" if _settled(sols, n) else "ambiguous"
    state = RecoveredState(n, r, perms, {j + 1: sols[0] for j, sols in sets.items()},
                           reg1, provenance)
    return AttackReport(state=state, recovery_queries=recovery_queries,
                        extra_queries=extra, candidate_sets=sets, stopped=stopped)


def _pair_consistent(x, f, pair, n: int) -> bool:
    """The block equation at U_{j+1} = x: one chain step from P_{j-1}, C_{j-1}."""
    p_prev, p_j, c_prev, c_j = pair
    return cipher.chain((f,), p_prev, c_prev, (0, 0, x), (p_j,), n) == [c_j]


# ---------------------------------------------------------------------------
# recovered-state file format

def save_state(state: RecoveredState, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"YTSREC n={state.n} r={state.r}\n")
        for j in sorted(state.perms):
            dest = " ".join(str(d) for d in state.perms[j].dest)
            tag = state.provenance.get(f"f{j}", "assumed")
            fh.write(f"f{j}: {dest}  # {tag}\n")
        for j in sorted(state.noise):
            tag = state.provenance.get(f"U{j}", "assumed")
            fh.write(f"U{j}: 0x{state.noise[j]:0{state.n}x}  # {tag}\n")
        if state.reg1 is not None:
            y, z = state.reg1
            tag = state.provenance.get("reg1", "assumed")
            fh.write(f"reg1: 0x{y:0{state.n}x} 0x{z:0{state.n}x}  # {tag}\n")


def _bounded(value: int, lo: int, hi: int, what: str) -> int:
    if not lo <= value <= hi:
        raise ValueError(f"{what} {value} is outside {lo}..{hi}")
    return value


def load_state(path) -> RecoveredState:
    fh = open_text(path)        # read_lines closes it
    n, r = cipher.read_header(fh, path, "YTSREC", "recovered-state", ("n", "r"))
    perms, noise, reg1, provenance = {}, {}, [], {}
    top = (1 << (4 * n)) - 1

    def item(lineno, line):
        body, _, comment = line.partition("#")
        head, _, tail = body.partition(":")
        key = head.strip()
        try:
            j = number(key[1:], 10) if key[:1] in ("f", "U") else None
        except ValueError:
            j = None
        if j is None and key != "reg1":
            raise ValueError(f"expected f<j>, U<j> or reg1, got {head!r}")
        if key in provenance:
            raise ValueError(f"{key} given twice")
        if key == "reg1":
            values = tail.split()
            if len(values) != 2:
                raise ValueError(f"expected two hex values, got {tail.strip()!r}")
            reg1.extend(_bounded(number(x, 16), 0, top, "reg1 value")
                        for x in values)
        elif key[0] == "f":
            j = _bounded(j, 0, r - 1, "f index")
            perms[j] = BitPermutation([number(x, 10) for x in tail.split()], n)
        else:
            j = _bounded(j, 3, r + 1, "U index")
            noise[j] = _bounded(number(tail.strip(), 16), 0, top, f"{key} value")
        provenance[key] = comment.strip() or "assumed"

    read_lines(path, item, fh, start=2)
    return RecoveredState(n, r, perms, noise, tuple(reg1) or None, provenance)
