"""Differential chosen-plaintext/chosen-ciphertext attacks and the
noise-vector solver.

Because every f_j is a bit permutation, two plaintexts that differ in a
single bit of their last block produce ciphertexts that differ in a single
bit of the corresponding block; reading off where the flipped bit lands for
each of the 4n positions reconstructs f_{j-1} exactly with 4n+1 queries.
The chosen-ciphertext attack is the dual: the same battery submitted as
ciphertexts reads off f_{j-1}^{-1}.  recover_perm is that one routine for
both directions.  The simulated victim, Oracle, resumes its register chain
after all but the last block of the query before when a query starts with
those blocks, so a battery, whose queries differ only in their last block,
costs it O(r) chain steps rather than O(r^2); a drifting oracle reuses
nothing.

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
needed there.  Keyless decryption is cipher.chain in the decryption
direction with (y, z) as the block-1 registers and U_2 taken as 0, run over
the blocks the recovered material covers.
"""

from __future__ import annotations

import random
from collections import namedtuple

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
    every query re-derives the session at a fresh timestamp instead,
    violating the fixed-clock assumption.

    The chain's state after block k is (x_k, y_k).  The oracle keeps the
    direction of the last query, all its blocks but the last, k of them,
    and their answers.  A query in the same direction that starts with
    those k blocks shares their answers, and cipher.chain resumes at block
    k + 1; any other query runs from block 1.  Battery queries differ only
    in their last block.  Under drift it keeps nothing, and a query that
    raises leaves the kept one in place."""

    def __init__(self, session: cipher.Session, drift: bool = False):
        self._session = session
        self._drift = drift
        self.query_count = 0
        # (decrypting, blocks[:-1], answer[:-1]) of the last query
        self._kept = (None, [], [])

    def _answer(self, blocks, decrypting: bool) -> list:
        self.query_count += 1
        s = self._session
        if self._drift:
            s = cipher.init_session(s.key, s.t + self.query_count, s.n, s.r,
                                    s.backend, table=s.table)
        blocks = list(blocks)
        if decrypting:
            perms, x, y = s.Finv, s.U[0], s.U[1]
        else:
            perms, x, y = s.F, s.U[1], s.U[0]
        # 1.0 == 1 but answers differently (it raises): keep plain ints only
        keep = not self._drift and {*map(type, blocks)} <= {int}
        kept_dir, kept_in, head = self._kept
        k = len(kept_in)
        if not (keep and kept_dir == decrypting and blocks[:k] == kept_in):
            k, head = 0, []
        if k:
            x, y = blocks[k - 1], head[k - 1]
        out = head + cipher.chain(perms, x, y, s.U, blocks[k:], s.n, k)
        if keep:
            self._kept = (decrypting, blocks[:-1], out[:-1])
        return out

    def encrypt_blocks(self, blocks) -> list:
        return self._answer(blocks, False)

    def decrypt_blocks(self, blocks) -> list:
        return self._answer(blocks, True)


# the names the benchmark harness builds and traces oracles by
EncryptionOracle = DecryptionOracle = Oracle


# ---------------------------------------------------------------------------
# recovered state

class RecoveredState:
    """Everything needed for keyless decryption, with per-item provenance."""

    def __init__(self, n: int, r: int, perms: dict | None = None,
                 noise: dict | None = None, reg1: tuple | None = None,
                 provenance: dict | None = None):
        self.n, self.r = n, r
        self.perms = {} if perms is None else perms   # j -> f_j
        self.noise = {} if noise is None else noise   # j -> U_j  (j >= 3)
        self.reg1 = reg1                              # (C_0 [+] U_2, P_0 [+] U_2)
        # item name -> method tag
        self.provenance = {} if provenance is None else provenance


# ---------------------------------------------------------------------------
# differential recovery of the permutations

def gen_cpa_battery(j: int, n: int) -> list:
    """The 4n+1 chosen plaintexts of j blocks: a base message and one
    single-bit variant of the last block per bit position."""
    if j < 1:
        raise ParameterError("block index must be >= 1")
    return [[0] * j] + [[0] * (j - 1) + [1 << l] for l in range(4 * n)]


def _single_bit_index(delta: int, what: str) -> int:
    if delta == 0 or delta & (delta - 1):
        raise OracleModelViolation(
            f"{what} difference 0x{delta:x} is not a single bit; "
            "the oracle clock is not actually fixed")
    return delta.bit_length() - 1


def recover_perm(query, j: int, n: int, what: str) -> BitPermutation:
    """The bit permutation block j applies to a single-bit difference, read
    off the 4n+1 query battery: f_{j-1} when `query` encrypts, f_{j-1}^{-1}
    when it decrypts.  `query` maps a block list to the oracle's response
    blocks; `what` names the response in errors."""
    battery = gen_cpa_battery(j, n)
    base = query(battery[0])[j - 1]
    dest = [_single_bit_index(base ^ query(msg)[j - 1], what)
            for msg in battery[1:]]
    if sorted(dest) != list(range(4 * n)):
        raise OracleModelViolation("recovered map is not a bijection")
    return BitPermutation(tuple(dest), n)


def recover_all_f(oracle: Oracle, r: int, n: int) -> RecoveredState:
    """f_0..f_{r-1} from chosen plaintexts, (4n+1)r queries."""
    state = RecoveredState(n=n, r=r)
    for j in range(r):
        state.perms[j] = recover_perm(oracle.encrypt_blocks, j + 1, n, "ciphertext")
        state.provenance[f"f{j}"] = "cpa"
    return state


def recover_all_finv(oracle: Oracle, r: int, n: int) -> RecoveredState:
    """f_0..f_{r-1} from chosen ciphertexts, (4n+1)r queries."""
    state = RecoveredState(n=n, r=r)
    for j in range(r):
        state.perms[j] = keystream.invert(
            recover_perm(oracle.decrypt_blocks, j + 1, n, "plaintext"))
        state.provenance[f"f{j}"] = "cca"
    return state


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

    pairs are (P_1, C_1) tuples from known messages.  Since f_0 is
    XOR-linear, (0, C_1 xor f_0(P_1)) reproduces every pair; the remaining
    pairs are used as a consistency check of the recovered f_0: each must
    satisfy the block equation with x = 0 and registers (z, y).
    """
    if not pairs:
        raise ParameterError("at least one first-block pair is needed")
    p1, c1 = pairs[0]
    y = 0
    z = c1 ^ keystream.apply(f0, p1)
    mask = (1 << (4 * n)) - 1
    for p, c in pairs:
        if not _pair_consistent(0, f0, (z, p, y, c), mask):
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
    """Decrypt with recovered material only; None marks coverage gaps.

    Block j is covered when f_{j-1} is known and, for j >= 2, U_{j+1} is
    known too; the first gap leaves every later block unknown, so
    cipher.chain runs over the longest covered prefix.
    """
    perms, noise = state.perms, state.noise
    m = 0
    if state.reg1 is not None:
        while m < len(blocks) and m in perms and (m == 0 or m + 2 in noise):
            m += 1
    y, z = state.reg1 or (0, 0)
    out = cipher.chain([keystream.invert(perms[j]) for j in range(m)], y, z,
                       {**noise, 2: 0}, blocks[:m], state.n)
    return out + [None] * (len(blocks) - m)


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
    "settled", or "budget" if max_extra_queries ran out."""
    __slots__ = ()


def full_attack(oracle: Oracle, known_messages, r: int, n: int,
                seed: int = 0, max_extra_queries: int = 512) -> AttackReport:
    """Recover permutations, then the noise vectors, for keyless decryption.

    Every known (P, C) message must come from the fixed-clock session the
    permutations are recovered from.  The solve step finds every candidate
    per block consistent with those messages (see solve_uj).  A single
    equation has ~2^n structurally related solutions (the branch degeneracy
    of the modular-addition/XOR mixture), so leftover ambiguity is resolved
    with extra chosen-plaintext queries until each candidate set collapses
    to one equivalence family; members of a family decrypt identically, so
    any of them completes the key.  The report's `stopped` says whether that
    happened ("settled") or the max_extra_queries budget ran out first
    ("budget").  `recovery_queries` counts the permutation battery's own
    queries, not any the oracle answered before the call.  The known
    messages are checked before the first query.
    """
    if not known_messages:
        raise ParameterError("at least one known message is needed")
    for p, c in known_messages:
        if len(p) != len(c):
            raise ParameterError(f"a known message has {len(p)} plaintext "
                                 f"blocks and {len(c)} ciphertext blocks")
    longest = max(len(p) for p, _ in known_messages)
    if longest > r:
        raise ParameterError(f"a known message has {longest} blocks, more than r={r}")
    before = oracle.query_count
    state = recover_all_f(oracle, r, n)
    recovery_queries = oracle.query_count - before
    first_pairs = [(p[0], c[0]) for p, c in known_messages if p]
    state.reg1 = solve_block1_registers(first_pairs, state.perms[0], n)
    state.provenance["reg1"] = "affine"
    sets = {}
    for j in range(2, longest + 1):
        pairs = [(p[j - 2], p[j - 1], c[j - 2], c[j - 1])
                 for p, c in known_messages if len(p) >= j]
        sets[j] = solve_uj(pairs, state.perms[j - 1], n)
    mask = (1 << (4 * n)) - 1
    rng = random.Random(f"disambiguate:{seed}")
    extra = 0
    stopped = "settled"
    while any(not _settled(sets[j], n) for j in sets):
        if extra == max_extra_queries:
            stopped = "budget"
            break
        p = [rng.randrange(mask + 1) for _ in range(r)]
        c = oracle.encrypt_blocks(p)
        extra += 1
        for j in sets:
            if not _settled(sets[j], n):
                pair = (p[j - 2], p[j - 1], c[j - 2], c[j - 1])
                sets[j] = [x for x in sets[j]
                           if _pair_consistent(x, state.perms[j - 1], pair, mask)]
    for j, sols in sets.items():
        state.noise[j + 1] = sols[0]
        state.provenance[f"U{j + 1}"] = \
            "solved" if _settled(sols, n) else "ambiguous"
    return AttackReport(state=state, recovery_queries=recovery_queries,
                        extra_queries=extra, candidate_sets=sets, stopped=stopped)


def _pair_consistent(x, f, pair, mask) -> bool:
    p_prev, p_j, c_prev, c_j = pair
    return c_j ^ ((p_prev + x) & mask) == \
        keystream.apply(f, p_j ^ ((c_prev + x) & mask))


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
    state = RecoveredState(n=n, r=r)
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
        if key in state.provenance:
            raise ValueError(f"{key} given twice")
        if key == "reg1":
            values = tail.split()
            if len(values) != 2:
                raise ValueError(f"expected two hex values, got {tail.strip()!r}")
            state.reg1 = tuple(_bounded(number(x, 16), 0, top, "reg1 value")
                               for x in values)
        elif key[0] == "f":
            j = _bounded(j, 0, r - 1, "f index")
            state.perms[j] = BitPermutation([number(x, 10) for x in tail.split()], n)
        else:
            j = _bounded(j, 3, r + 1, "U index")
            state.noise[j] = _bounded(number(tail.strip(), 16), 0, top, f"{key} value")
        state.provenance[key] = comment.strip() or "assumed"

    read_lines(path, item, fh, start=2)
    return state
