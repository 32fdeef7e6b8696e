"""Noise-vector extraction and the bit-permutation machinery."""

import random
from functools import lru_cache
from itertools import permutations
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from tentbreak import cipher, keystream, tentmap
from tentbreak.backend import ParameterError, get_backend
from tentbreak.cipher import KeyMaterial, Message
from tentbreak.keystream import BitPermutation, DEFAULT_TABLE, QuarterPermTable
from tentbreak.tentmap import TentParams
from tent_reference import extended_step, reference_backend

FP = get_backend("fp62")
ORDERS = list(permutations((1, 2, 3, 4)))


def fp(num, den):
    return FP.from_ratio(num, den)


# ---------------------------------------------------------------------------
# slow references: the per-bit permutation routines, the per-round maps and
# the threshold extractor that the rotation-class forms replace (verbatim)

def threshold_bit(x, alpha) -> int:
    """0 if x <= alpha else 1 (equality goes to the 0 branch)."""
    return 0 if x <= alpha else 1


def _apply_reference(p: BitPermutation, x: int) -> int:
    """Route every input bit i of x to output position p.dest[i]."""
    if x >> p.width:
        raise ParameterError("block wider than the permutation")
    y = 0
    for i, d in enumerate(p.dest):
        y |= ((x >> i) & 1) << d
    return y


def _invert_reference(p: BitPermutation) -> BitPermutation:
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


def _compose_fj_indexed(vj: int, table: QuarterPermTable, n: int) -> BitPermutation:
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


def test_threshold_bit():
    half = fp(1, 2)
    assert threshold_bit(fp(1, 4), half) == 0
    assert threshold_bit(fp(3, 4), half) == 1
    assert threshold_bit(half, half) == 0       # equality -> 0
    assert threshold_bit(FP.one, fp(9, 10)) == 1


def test_bits_to_block_msb_first():
    assert bits_to_block([1, 0, 1, 0, 1, 0, 1, 0]) == 0b10101010
    assert bits_to_block([0, 0, 0, 1]) == 1


def test_noise_vectors_golden():
    p = tentmap.TentParams(fp(2, 10), fp(7, 10))
    u = keystream.build_noise_vectors(fp(3, 10), p, 2, 3, FP)
    assert u == [0xDD, 0xFF, 0xFC, 0x9D]


def test_noise_vectors_steep_map():
    # alpha = 0.9, x0 = 0.95: first step crosses the peak downward
    p = tentmap.TentParams(fp(9, 10), fp(7, 10))
    u = keystream.build_noise_vectors(fp(19, 20), p, 2, 0, FP)
    assert u == [0x81]


def test_noise_vector_bit_bias_tracks_alpha():
    # under the uniform invariant density Prob{bit = 0} = alpha
    for a_num in (1, 3):
        p = tentmap.TentParams(fp(a_num, 10), fp(7, 10))
        u = keystream.build_noise_vectors(fp(123, 1000), p, 2, 2499, FP)
        ones = sum(bin(v).count("1") for v in u)
        freq = ones / (8 * len(u))
        assert abs(freq - (1 - a_num / 10)) < 0.03


def test_mended_extraction_is_balanced():
    p = tentmap.TentParams(fp(1, 10), fp(7, 10))
    u = keystream.build_noise_vectors(fp(3, 10), p, 2, 999, FP, mended=True)
    ones = sum(bin(v).count("1") for v in u)
    assert 0.45 < ones / (8 * len(u)) < 0.55


def test_default_table_valid():
    assert len(DEFAULT_TABLE.entries) == 16
    assert DEFAULT_TABLE.entries[0] == (1, 2, 3, 4)
    for e in DEFAULT_TABLE.entries:
        assert sorted(e) == [1, 2, 3, 4]


def test_table_file_roundtrip(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("".join(f"{v}: {a} {b} {c} {d}\n" for v, (a, b, c, d)
                            in enumerate(DEFAULT_TABLE.entries)))
    loaded = QuarterPermTable.load(path)
    assert loaded.entries == DEFAULT_TABLE.entries


def test_table_rejects_bad_entries():
    with pytest.raises(ParameterError):
        QuarterPermTable([(1, 2, 3, 4)] * 15)
    bad = [(1, 2, 3, 4)] * 15 + [(1, 1, 3, 4)]
    with pytest.raises(ParameterError):
        QuarterPermTable(bad)


def test_fji_identity_shuffle_is_rotation():
    # table entry 0 keeps the quarters in place, leaving the <<< 1
    f = build_fji(0, DEFAULT_TABLE, 2)
    assert f.dest == tuple((i + 1) % 8 for i in range(8))


def test_fji_quarter_swap_matches_direct_evaluation():
    # w = (2,1,3,4): swap the two most significant quarters, then rotate
    table = QuarterPermTable([(2, 1, 3, 4)] * 16)
    f = build_fji(5, table, 2)
    for x in range(256):
        m1, m2, low = (x >> 6) & 3, (x >> 4) & 3, x & 0xF
        shuffled = (m2 << 6) | (m1 << 4) | low
        rotated = ((shuffled << 1) | (shuffled >> 7)) & 0xFF
        assert keystream.apply(f, x) == rotated


def test_fj_single_nibble_case():
    # n = 1: f_j is a single quarter shuffle plus rotation
    for v in range(16):
        a = keystream.compose_fj(v, DEFAULT_TABLE, 1)
        b = build_fji(v, DEFAULT_TABLE, 1)
        assert a.dest == b.dest


def test_fj_identity_selectors_rotate_twice():
    f = keystream.compose_fj(0x00, DEFAULT_TABLE, 2)
    assert f.dest == tuple((i + 2) % 8 for i in range(8))


def test_fj_golden():
    f = keystream.compose_fj(0x4B, DEFAULT_TABLE, 2)
    assert f.dest == (0, 1, 6, 3, 4, 7, 2, 5)
    assert keystream.apply(f, 0x01) == 0x01
    assert keystream.apply(f, 0x80) == 0x20


def test_fj_matches_stepwise_application():
    # composing then applying equals applying the nibble steps in turn
    rng = random.Random(11)
    for _ in range(25):
        vj = rng.randrange(256)
        f = keystream.compose_fj(vj, DEFAULT_TABLE, 2)
        for x in (0, 0xFF, rng.randrange(256)):
            y = keystream.apply(build_fji((vj >> 4) & 0xF, DEFAULT_TABLE, 2), x)
            y = keystream.apply(build_fji(vj & 0xF, DEFAULT_TABLE, 2), y)
            assert keystream.apply(f, x) == y


def test_apply_single_bits():
    f = keystream.compose_fj(0x3C, DEFAULT_TABLE, 2)
    for i in range(8):
        out = keystream.apply(f, 1 << i)
        assert out == 1 << f.dest[i]
        assert bin(out).count("1") == 1


def test_invert_exhaustive():
    rng = random.Random(5)
    dest = list(range(8))
    rng.shuffle(dest)
    f = BitPermutation(tuple(dest), 2)
    finv = keystream.invert(f)
    for x in range(256):
        assert keystream.apply(finv, keystream.apply(f, x)) == x


def test_invert_rotation():
    rot1 = BitPermutation(tuple((i + 1) % 8 for i in range(8)), 2)
    assert keystream.invert(rot1).dest == tuple((i - 1) % 8 for i in range(8))


def test_bad_permutation_rejected():
    with pytest.raises(ParameterError):
        BitPermutation((0, 0, 1, 2), 1)
    with pytest.raises(ParameterError):
        keystream.compose_fj(0x100, DEFAULT_TABLE, 1)


# ---------------------------------------------------------------------------
# slow references: the nibble-by-nibble composition and the step-by-step
# orbit list that the fast paths replace

def _compose_fj_reference(vj: int, table: QuarterPermTable, n: int) -> BitPermutation:
    """f_j from the n 4-bit nibbles of V_j, most significant nibble first."""
    width = 4 * n
    if vj >> width:
        raise ParameterError("V_j wider than 4n bits")
    dest = list(range(width))
    for i in range(1, n + 1):
        nib = (vj >> (width - 4 * i)) & 0xF
        step = build_fji(nib, table, n)
        dest = [step.dest[d] for d in dest]
    return BitPermutation(tuple(dest), n)


def bits_to_block(bits) -> int:
    """Pack a bit list into an integer, first bit most significant."""
    v = 0
    for b in bits:
        v = (v << 1) | b
    return v


def _noise_vectors_reference(x0, p: TentParams, n: int, j_max: int, backend,
                             mended: bool = False) -> list[int]:
    """Noise vectors U_0 .. U_j_max from the orbit starting at x0.

    Bit u_i thresholds orbit state x_i (the initial condition is x_0), and
    u_{4jn} is the most significant bit of U_j.  backend must come from
    reference_backend.
    """
    if j_max < 0:
        raise ParameterError("j_max must be >= 0")
    total = 4 * n * (j_max + 1)
    orbit = [x0]
    x = x0
    for _ in range(total - 1):
        x = extended_step(x, p, backend)
        orbit.append(x)
    if mended:
        bits = [threshold_bit(orbit[i], backend.half) for i in range(total)]
    else:
        bits = [threshold_bit(orbit[i], p.alpha) for i in range(total)]
    return [bits_to_block(bits[4 * n * j: 4 * n * (j + 1)])
            for j in range(j_max + 1)]


def _outcome(fn, *args, **kwargs):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


def test_compose_fj_matches_reference():
    rng = random.Random(17)
    tables = [DEFAULT_TABLE] + [
        QuarterPermTable([rng.choice(ORDERS) for _ in range(16)])
        for _ in range(7)]
    for table in tables:
        for n in range(1, 17):
            for vj in [0, (1 << (4 * n)) - 1] + \
                      [rng.randrange(1 << (4 * n)) for _ in range(6)]:
                assert keystream.compose_fj(vj, table, n) == \
                    _compose_fj_reference(vj, table, n)


@pytest.mark.parametrize("name", ["fp2", "fp8", "fp62", "fp64", "f64"])
def test_noise_vectors_match_reference(name):
    be = get_backend(name)
    rng = random.Random(name)
    boundary = [be.zero, be.one]
    outside = [be.zero - be.one, be.one + be.one]

    def interior():
        return be.from_float(rng.uniform(0.01, 0.99))

    cases = [(interior(), interior(), x0)
             for x0 in boundary + outside + [interior() for _ in range(6)]]
    cases += [(interior(), bad, x0) for bad in boundary for x0 in boundary]
    cases += [(bad, interior(), x0) for bad in boundary
              for x0 in [interior()] + outside]
    cases += [(be.zero, be.one, x0) for x0 in boundary]   # alpha and beta bad
    for alpha, beta, x0 in cases:
        p = TentParams(alpha, beta)
        for mended in (False, True):
            for n, j_max in ((1, 40), (2, 9), (5, 3), (16, 2), (16, 70)):
                got = _outcome(keystream.build_noise_vectors, x0, p, n, j_max,
                               be, mended=mended)
                want = _outcome(_noise_vectors_reference, x0, p, n, j_max,
                                reference_backend(be), mended=mended)
                assert got == want


def test_noise_vectors_invalid_beta_error_matches_reference():
    p = TentParams(fp(3, 10), FP.one)        # beta must lie inside (0, 1)
    with pytest.raises(ParameterError, match="beta") as fast:
        keystream.build_noise_vectors(FP.zero, p, 2, 3, FP)
    with pytest.raises(ParameterError) as slow:
        _noise_vectors_reference(FP.zero, p, 2, 3, reference_backend(FP))
    assert str(fast.value) == str(slow.value)


# ---------------------------------------------------------------------------
# rotation-class permutations against the per-bit references

TABLES = st.lists(st.sampled_from(ORDERS), min_size=16, max_size=16).map(
    QuarterPermTable)
CHECKS = settings(max_examples=300, deadline=None, derandomize=True,
                  database=None)


@st.composite
def fj_cases(draw):
    n = draw(st.integers(1, 16))
    top = (1 << (4 * n)) - 1
    return (n, draw(st.one_of(st.just(DEFAULT_TABLE), TABLES)),
            draw(st.integers(0, top)), draw(st.integers(0, top)))


@st.composite
def dest_cases(draw):
    n = draw(st.integers(1, 16))
    return (n, draw(st.permutations(range(4 * n))),
            draw(st.integers(0, (1 << (4 * n)) - 1)))


@CHECKS
@given(fj_cases())
def test_compose_fj_column_form_matches_references(case):
    n, table, vj, x = case
    f = keystream.compose_fj(vj, table, n)
    ref = _compose_fj_indexed(vj, table, n)
    assert f.dest == ref.dest == _compose_fj_reference(vj, table, n).dest
    assert all(d % n == i % n for i, d in enumerate(f.dest))
    assert len(f.classes) <= 4
    assert keystream.apply(f, x) == _apply_reference(ref, x)
    finv, ref_inv = keystream.invert(f), _invert_reference(ref)
    assert finv.dest == ref_inv.dest
    assert keystream.apply(finv, x) == _apply_reference(ref_inv, x)


@CHECKS
@given(dest_cases())
def test_arbitrary_permutation_matches_references(case):
    # recovered and loaded permutations need not be in column form
    n, dest, x = case
    p = BitPermutation(dest, n)
    assert p.dest == tuple(dest)
    assert keystream.apply(p, x) == _apply_reference(p, x)
    pinv, ref_inv = keystream.invert(p), _invert_reference(p)
    assert pinv.dest == ref_inv.dest
    assert keystream.apply(pinv, x) == _apply_reference(ref_inv, x)
    assert keystream.invert(pinv) == p


def test_apply_rejects_wide_blocks_like_reference():
    f = keystream.compose_fj(0x3C, DEFAULT_TABLE, 2)
    for x in (0x100, -1):
        with pytest.raises(ParameterError, match="wider") as fast:
            keystream.apply(f, x)
        with pytest.raises(ParameterError) as slow:
            _apply_reference(f, x)
        assert str(fast.value) == str(slow.value)


def test_permutation_equality_and_hash_are_on_dest():
    f = keystream.compose_fj(0x4B, DEFAULT_TABLE, 2)
    g = BitPermutation(f.dest, 2)
    assert f == g and hash(f) == hash(g)
    assert f != keystream.compose_fj(0x00, DEFAULT_TABLE, 2)
    assert f != BitPermutation(range(4), 1)
    assert len({f, g, keystream.invert(keystream.invert(f))}) == 1


def _session_reference(key, t, n, r, backend, table):
    """U, F, Finv of a session, F and Finv from the references."""
    x0 = tentmap.derive_x0(t, key.gamma, n, backend)
    U = keystream.build_noise_vectors(x0, TentParams(key.alpha, key.beta), n,
                                      r + 1, backend)
    F = [_compose_fj_indexed(U[j] ^ key.K, table, n) for j in range(r)]
    return U, F, [_invert_reference(f) for f in F]


def _chain_reference(perms, x_prev, y_prev, U, blocks, n):
    mask = (1 << (4 * n)) - 1
    out = []
    for j, x in enumerate(blocks, start=1):
        u = U[j + 1]
        y_prev = _apply_reference(perms[j - 1], x ^ ((y_prev + u) & mask)) \
            ^ ((x_prev + u) & mask)
        out.append(y_prev)
        x_prev = x
    return out


@pytest.mark.parametrize("name", ["fp62", "f64"])
def test_session_matches_references(name):
    be = get_backend(name)
    rng = random.Random(name)
    for n in (1, 2, 3, 5, 8, 13, 16):
        table = DEFAULT_TABLE if n % 2 else \
            QuarterPermTable([rng.choice(ORDERS) for _ in range(16)])
        key = KeyMaterial(be.from_float(0.5 + rng.uniform(0.001, 0.009)),
                          be.from_float(rng.uniform(0.05, 0.95)),
                          be.from_float(rng.uniform(0.05, 0.95)),
                          rng.randrange(1 << (4 * n)))
        t, r = rng.randrange(1, 10 ** 9), 12
        s = cipher.init_session(key, t, n, r, be, table=table)
        U, F, Finv = _session_reference(key, t, n, r, be, table)
        assert s.U == U
        assert [f.dest for f in s.F] == [f.dest for f in F]
        assert [f.dest for f in s.Finv] == [f.dest for f in Finv]
        plain = [rng.randrange(1 << (4 * n)) for _ in range(r)]
        want = _chain_reference(F, U[1], U[0], U, plain, n)
        assert cipher.encrypt(s, Message(plain, t)).blocks == want
        assert cipher.decrypt(s, Message(want, t)).blocks == \
            _chain_reference(Finv, U[0], U[1], U, want, n) == plain
