"""Noise-vector extraction and the bit-permutation machinery."""

import random
from itertools import permutations

import pytest

from tentbreak import keystream, tentmap
from tentbreak.backend import ParameterError, get_backend
from tentbreak.keystream import (BitPermutation, DEFAULT_TABLE, QuarterPermTable,
                                 build_fji, bits_to_block, threshold_bit)
from tentbreak.tentmap import TentParams, extended_step

FP = get_backend("fp62")


def fp(num, den):
    return FP.from_ratio(num, den)


def test_threshold_bit():
    half = fp(1, 2)
    assert keystream.threshold_bit(fp(1, 4), half) == 0
    assert keystream.threshold_bit(fp(3, 4), half) == 1
    assert keystream.threshold_bit(half, half) == 0       # equality -> 0
    assert keystream.threshold_bit(FP.one, fp(9, 10)) == 1


def test_bits_to_block_msb_first():
    assert keystream.bits_to_block([1, 0, 1, 0, 1, 0, 1, 0]) == 0b10101010
    assert keystream.bits_to_block([0, 0, 0, 1]) == 1


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
    DEFAULT_TABLE.save(path)
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
    f = keystream.build_fji(0, DEFAULT_TABLE, 2)
    assert f.dest == tuple((i + 1) % 8 for i in range(8))


def test_fji_quarter_swap_matches_direct_evaluation():
    # w = (2,1,3,4): swap the two most significant quarters, then rotate
    table = QuarterPermTable([(2, 1, 3, 4)] * 16)
    f = keystream.build_fji(5, table, 2)
    for x in range(256):
        m1, m2, low = (x >> 6) & 3, (x >> 4) & 3, x & 0xF
        shuffled = (m2 << 6) | (m1 << 4) | low
        rotated = ((shuffled << 1) | (shuffled >> 7)) & 0xFF
        assert keystream.apply(f, x) == rotated


def test_fj_single_nibble_case():
    # n = 1: f_j is a single quarter shuffle plus rotation
    for v in range(16):
        a = keystream.compose_fj(v, DEFAULT_TABLE, 1)
        b = keystream.build_fji(v, DEFAULT_TABLE, 1)
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
            y = keystream.apply(keystream.build_fji((vj >> 4) & 0xF, DEFAULT_TABLE, 2), x)
            y = keystream.apply(keystream.build_fji(vj & 0xF, DEFAULT_TABLE, 2), y)
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


def _noise_vectors_reference(x0, p: TentParams, n: int, j_max: int, backend,
                             mended: bool = False) -> list[int]:
    """Noise vectors U_0 .. U_j_max from the orbit starting at x0.

    Bit u_i thresholds orbit state x_i (the initial condition is x_0), and
    u_{4jn} is the most significant bit of U_j.
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
    orders = list(permutations((1, 2, 3, 4)))
    tables = [DEFAULT_TABLE] + [
        QuarterPermTable([rng.choice(orders) for _ in range(16)])
        for _ in range(7)]
    for table in tables:
        for n in range(1, 17):
            for vj in [0, (1 << (4 * n)) - 1] + \
                      [rng.randrange(1 << (4 * n)) for _ in range(6)]:
                assert keystream.compose_fj(vj, table, n) == \
                    _compose_fj_reference(vj, table, n)


@pytest.mark.parametrize("name", ["fp62", "fp8", "f64"])
def test_noise_vectors_match_reference(name):
    be = get_backend(name)
    rng = random.Random(name)
    boundary = [be.zero, be.one]

    def interior():
        return be.from_float(rng.uniform(0.01, 0.99))

    cases = [(interior(), interior(), x0)
             for x0 in boundary + [interior() for _ in range(6)]]
    cases += [(interior(), bad, x0) for bad in boundary for x0 in boundary]
    cases += [(bad, interior(), interior()) for bad in boundary]
    cases += [(be.zero, be.one, x0) for x0 in boundary]   # alpha and beta bad
    for alpha, beta, x0 in cases:
        p = TentParams(alpha, beta)
        for mended in (False, True):
            for n, j_max in ((1, 40), (2, 9), (5, 3), (16, 2)):
                got = _outcome(keystream.build_noise_vectors, x0, p, n, j_max,
                               be, mended=mended)
                want = _outcome(_noise_vectors_reference, x0, p, n, j_max,
                                be, mended=mended)
                assert got == want


def test_noise_vectors_invalid_beta_error_matches_reference():
    p = TentParams(fp(3, 10), FP.one)        # beta must lie inside (0, 1)
    with pytest.raises(ParameterError, match="beta") as fast:
        keystream.build_noise_vectors(FP.zero, p, 2, 3, FP)
    with pytest.raises(ParameterError) as slow:
        _noise_vectors_reference(FP.zero, p, 2, 3, FP)
    assert str(fast.value) == str(slow.value)
