"""Noise-vector extraction and the bit-permutation machinery."""

import random
from itertools import islice, permutations

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import spec
from tentbreak import cipher, keystream, tentmap
from tentbreak.backend import ParameterError, get_backend
from tentbreak.cipher import KeyMaterial, Message
from tentbreak.keystream import BitPermutation, DEFAULT_TABLE, QuarterPermTable
from tentbreak.tentmap import TentParams

FP = get_backend("fp62")
ORDERS = list(permutations((1, 2, 3, 4)))


def fp(num, den):
    return FP.from_ratio(num, den)


def test_threshold_bit():
    # a state equal to the threshold gives bit 0: alpha = 1/2, beta = 0.7,
    # and the orbits 1/2, 1, 0.7, 0.6 and 1/4, 1/2, 1, 0.7
    half, beta = fp(1, 2), fp(7, 10)
    p = TentParams(half, beta)
    for x0, states, u in ((half, [half, FP.one, beta, fp(3, 5)], 0b0111),
                          (fp(1, 4), [fp(1, 4), half, FP.one, beta], 0b0011)):
        assert spec.extract(states, half, 1) == [u]
        for mended in (False, True):
            assert keystream.build_noise_vectors(x0, p, 1, 0, FP,
                                                 mended=mended) == [u]


def test_bits_to_block_msb_first():
    assert spec.block([1, 0, 1, 0, 1, 0, 1, 0]) == 0b10101010
    assert spec.block([0, 0, 0, 1]) == 1
    assert spec.bits(0b0011, 4) == [0, 0, 1, 1]


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


@settings(max_examples=25, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(entries=st.lists(st.sampled_from(ORDERS), min_size=16, max_size=16),
       order=st.permutations(range(16)))
@example(entries=list(DEFAULT_TABLE.entries), order=list(range(16)))
def test_table_file_roundtrip(tmp_path, entries, order):
    # the 16 'v: a b c d' lines in any order, with comments and blank lines
    path = tmp_path / "table.txt"
    path.write_text("# quarter table\n\n" + "".join(
        f"{v}: {' '.join(map(str, entries[v]))}\n" for v in order))
    assert QuarterPermTable.load(path).entries == tuple(entries)


def test_table_rejects_bad_entries():
    with pytest.raises(ParameterError):
        QuarterPermTable([(1, 2, 3, 4)] * 15)
    bad = [(1, 2, 3, 4)] * 15 + [(1, 1, 3, 4)]
    with pytest.raises(ParameterError):
        QuarterPermTable(bad)


def test_fji_identity_shuffle_is_rotation():
    # table entry 0 keeps the quarters in place, leaving the <<< 1
    cells = list(range(8))
    assert spec.quarter_round(DEFAULT_TABLE.entries[0], cells) == cells[1:] + cells[:1]
    assert keystream.compose_fj(0, DEFAULT_TABLE, 1).dest == (1, 2, 3, 0)


def test_fji_quarter_swap_matches_direct_evaluation():
    # w = (2,1,3,4): swap the two most significant quarters, then rotate
    def direct(x):
        m1, m2, low = (x >> 6) & 3, (x >> 4) & 3, x & 0xF
        shuffled = (m2 << 6) | (m1 << 4) | low
        return ((shuffled << 1) | (shuffled >> 7)) & 0xFF

    f = keystream.compose_fj(0x5A, QuarterPermTable([(2, 1, 3, 4)] * 16), 2)
    for x in range(256):
        assert spec.block(spec.quarter_round((2, 1, 3, 4), spec.bits(x, 8))) \
            == direct(x)
        assert keystream.apply(f, x) == direct(direct(x))


def test_fj_single_nibble_case():
    # n = 1: f_j is a single quarter shuffle plus rotation
    for v in range(16):
        assert keystream.compose_fj(v, DEFAULT_TABLE, 1).dest == \
            spec.fj(v, DEFAULT_TABLE.entries, 1)


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
            steps = spec.fj_cells(vj, DEFAULT_TABLE.entries, 2, spec.bits(x, 8))
            assert keystream.apply(f, x) == spec.block(steps)


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
    for inverse in (False, True):
        with pytest.raises(ParameterError, match="^V_j wider than 4n bits$"):
            keystream.compose_fj(0x100, DEFAULT_TABLE, 1, inverse=inverse)


def test_compose_fj_matches_reference():
    rng = random.Random(17)
    tables = [DEFAULT_TABLE] + [
        QuarterPermTable([rng.choice(ORDERS) for _ in range(16)])
        for _ in range(7)]
    for table in tables:
        for n in range(1, 17):
            for vj in [0, (1 << (4 * n)) - 1] + \
                      [rng.randrange(1 << (4 * n)) for _ in range(6)]:
                assert keystream.compose_fj(vj, table, n).dest == \
                    spec.fj(vj, table.entries, n)


@pytest.mark.parametrize("name", ["fp1", "fp2", "fp8", "fp62", "fp63", "fp64", "f64"])
def test_noise_vectors_match_reference(name):
    # the spec's extractor on the spec's orbit, and where the orbit fails
    # before the last bit, the error of taking as many states of G from
    # tentmap.orbit_stream: same type, same message
    be, g = get_backend(name), spec.Grid(name)
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
    a = interior()
    cases += [(a, interior(), a)]                           # x0 = alpha
    cases += [(a, a, x0) for x0 in boundary + [a, interior()]]  # beta = alpha
    sizes = ((1, 40), (2, 9), (5, 3), (16, 2), (16, 70))
    longest = max(4 * n * (j_max + 1) for n, j_max in sizes)
    for alpha, beta, x0 in cases:
        p = TentParams(alpha, beta)
        states = []
        try:
            states.extend(islice(spec.orbit(x0, alpha, beta, g), longest))
        except ValueError:
            pass
        for mended in (False, True):
            for n, j_max in sizes:
                total = 4 * n * (j_max + 1)
                # one list, and chunks whose edges fall before, on and after
                # x_2, where the fixed-point loops take over
                runs = [lambda: keystream.build_noise_vectors(x0, p, n, j_max, be,
                                                              mended=mended)]
                runs += [lambda chunk=chunk: [u for c in keystream.build_noise_vectors(
                    x0, p, n, j_max, be, mended=mended, chunk=chunk) for u in c]
                    for chunk in (1, 2, 7)]
                if len(states) < total:
                    with pytest.raises(ValueError) as want:
                        list(islice(tentmap.orbit_stream(x0, p, be), total))
                    for run in runs:
                        with pytest.raises(ValueError) as got:
                            run()
                        assert (type(got.value), str(got.value)) == \
                            (type(want.value), str(want.value))
                    continue
                for run in runs:
                    assert run() == spec.extract(
                        states[:total], be.half if mended else alpha, n)


def test_noise_vectors_invalid_beta_error_matches_reference():
    for alpha, beta, x0, match in (
            (fp(3, 10), FP.one, FP.zero, r"beta must lie strictly inside \(0, 1\)"),
            (FP.zero, fp(7, 10), fp(1, 2), r"alpha must lie strictly inside \(0, 1\)"),
            (fp(3, 10), fp(7, 10), -1, r"x outside \[0, 1\]")):
        with pytest.raises(ParameterError, match=match):
            keystream.build_noise_vectors(x0, TentParams(alpha, beta), 2, 3, FP)


@pytest.mark.parametrize("name", ["fp62", "fp63", "f64"])
@pytest.mark.parametrize("mended", [False, True])
def test_noise_vectors_may_end_on_a_boundary_state(name, mended):
    # the orbit 1/8, 1/4, 1/2, 1 ends on 1, whose step would check the bad
    # beta: the last vector's last state is never stepped from
    be = get_backend(name)
    p = TentParams(be.from_ratio(1, 2), be.one)
    x0 = be.from_ratio(1, 8)
    assert keystream.build_noise_vectors(x0, p, 1, 0, be, mended=mended) == [0x1]
    with pytest.raises(ParameterError, match=r"beta must lie strictly inside \(0, 1\)"):
        keystream.build_noise_vectors(x0, p, 1, 1, be, mended=mended)
    # nor when the vectors come in chunks: the last chunk ends on that state
    for chunk in (1, 2):
        assert list(keystream.build_noise_vectors(x0, p, 1, 0, be, mended=mended,
                                                  chunk=chunk)) == [[0x1]]
        with pytest.raises(ParameterError, match=r"beta must lie strictly inside"):
            list(keystream.build_noise_vectors(x0, p, 1, 1, be, mended=mended,
                                               chunk=chunk))


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
    dest = spec.fj(vj, table.entries, n)
    assert f.dest == dest
    assert all(d % n == i % n for i, d in enumerate(f.dest))
    assert len(f.classes) <= 4
    assert keystream.apply(f, x) == spec.apply(dest, x)
    finv, inv = keystream.invert(f), spec.invert(dest)
    assert finv.dest == inv
    assert keystream.apply(finv, x) == spec.apply(inv, x)
    # composed as the inverse in the same pass, with no f_j built first
    direct = keystream.compose_fj(vj, table, n, inverse=True)
    assert direct.dest == inv
    assert len(direct.classes) <= 4
    assert keystream.apply(direct, x) == spec.apply(inv, x)


@CHECKS
@given(dest_cases())
def test_arbitrary_permutation_matches_references(case):
    # recovered and loaded permutations need not be in column form
    n, dest, x = case
    p = BitPermutation(dest, n)
    assert p.dest == tuple(dest)
    assert keystream.apply(p, x) == spec.apply(dest, x)
    pinv, inv = keystream.invert(p), spec.invert(dest)
    assert pinv.dest == inv
    assert keystream.apply(pinv, x) == spec.apply(inv, x)
    assert keystream.invert(pinv) == p


def test_apply_rejects_wide_blocks_like_reference():
    f = keystream.compose_fj(0x3C, DEFAULT_TABLE, 2)
    for x in (0x100, -1):
        with pytest.raises(ParameterError,
                           match="^block wider than the permutation$"):
            keystream.apply(f, x)


def test_permutation_equality_and_hash_are_on_dest():
    f = keystream.compose_fj(0x4B, DEFAULT_TABLE, 2)
    g = BitPermutation(f.dest, 2)
    assert f == g and hash(f) == hash(g)
    assert f != keystream.compose_fj(0x00, DEFAULT_TABLE, 2)
    assert f != BitPermutation(range(4), 1)
    assert len({f, g, keystream.invert(keystream.invert(f))}) == 1


@pytest.mark.parametrize("name", ["fp62", "f64"])
def test_session_matches_references(monkeypatch, name):
    # Finv is composed from V_j, with keystream.invert never called
    monkeypatch.delattr(keystream, "invert")
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
        U, F = spec.session(key.alpha, key.beta, key.gamma, key.K, t, n, r,
                            spec.Grid(name), table.entries)
        assert s.U == U
        assert [f.dest for f in s.F] == F
        assert [f.dest for f in s.Finv] == [spec.invert(f) for f in F]
        plain = [rng.randrange(1 << (4 * n)) for _ in range(r)]
        want = spec.encrypt(F, U, plain, n)
        assert cipher.encrypt(s, Message(plain, t)).blocks == want
        assert cipher.decrypt(s, Message(want, t)).blocks == \
            spec.decrypt(F, U, want, n) == plain
