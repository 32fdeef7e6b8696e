"""Differential recovery, noise solving and keyless decryption."""

import gc
import itertools
import math
import random
import re
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import spec
from tentbreak import attack, cipher, keystream
from tentbreak.attack import OracleModelViolation
from tentbreak.keystream import BitPermutation
from tentbreak.backend import ParameterError, get_backend
from tentbreak.cipher import KeyMaterial, Message
from rank_reference import prioritized_candidates
from sessions import encrypt_random, random_session

FP = get_backend("fp62")


def test_battery_shape():
    battery = spec.battery(2, 1)
    assert battery == [[0, 0], [0, 1], [0, 2], [0, 4], [0, 8]]
    battery = spec.battery(3, 2)
    assert len(battery) == 9
    assert all(len(m) == 3 for m in battery)


def test_recover_single_permutation():
    s = random_session(random.Random(1))
    oracle = attack.EncryptionOracle(s)
    state = attack.recover_all_f(oracle, 1, 2)
    assert state.perms[0].dest == s.F[0].dest
    assert oracle.query_count == 9  # 4n + 1


def test_recover_all_f_exact_with_query_budget():
    rng = random.Random(2)
    for _ in range(10):
        s = random_session(rng)
        oracle = attack.EncryptionOracle(s)
        state = attack.recover_all_f(oracle, 8, 2)
        assert oracle.query_count == 72  # (4n+1) * r
        for j in range(8):
            assert state.perms[j].dest == s.F[j].dest
            assert state.provenance[f"f{j}"] == "cpa"


@pytest.mark.parametrize("n", range(1, 17))
def test_recovery_exact_at_every_block_size(monkeypatch, n):
    # neither direction inverts a map: CCA builds f_j from what it reads
    monkeypatch.delattr(keystream, "invert")
    s = random_session(random.Random(f"recover:{n}"), n=n, r=3)
    for recover, oracle in ((attack.recover_all_f, attack.EncryptionOracle(s)),
                            (attack.recover_all_finv, attack.DecryptionOracle(s))):
        state = recover(oracle, 3, n)
        assert [state.perms[j].dest for j in range(3)] == \
            [s.F[j].dest for j in range(3)]
        assert oracle.query_count == (4 * n + 1) * 3


def test_cca_recovery_matches_cpa():
    rng = random.Random(3)
    for _ in range(5):
        s = random_session(rng)
        enc = attack.EncryptionOracle(s)
        dec = attack.DecryptionOracle(s)
        via_cpa = attack.recover_all_f(enc, 8, 2)
        via_cca = attack.recover_all_finv(dec, 8, 2)
        assert dec.query_count == enc.query_count == 72
        for j in range(8):
            assert via_cca.perms[j].dest == via_cpa.perms[j].dest


def test_drifting_clock_detected():
    s = random_session(random.Random(4))
    oracle = attack.Oracle(s, drift=True)
    with pytest.raises(OracleModelViolation):
        attack.recover_all_f(oracle, 8, 2)


def _outcome(answer, blocks):
    """answer(blocks), or the type and message of what it raised."""
    try:
        return answer(blocks)
    except Exception as exc:
        return type(exc), str(exc)


def _reference(s, blocks, decrypting):
    """The answer of a fresh cipher.encrypt/decrypt, without any oracle."""
    run = cipher.decrypt if decrypting else cipher.encrypt
    return _outcome(lambda b: run(s, Message(list(b), s.t)).blocks, blocks)


def _next_query(data, prev, n, r):
    """A query shaped like the oracle's callers send them: a battery
    message, an edit of the last query, a shorter or longer one, the empty
    message or a fresh one.  Most share a prefix with the query before,
    which a single query never reuses."""
    word = st.integers(0, (1 << (4 * n)) - 1)
    kind = data.draw(st.sampled_from(
        ("battery", "edit", "shorter", "longer", "empty", "fresh")))
    if kind == "battery":
        j = data.draw(st.integers(1, r))
        return data.draw(st.sampled_from(spec.battery(j, n)))
    if kind == "edit" and prev:
        i = data.draw(st.integers(0, len(prev) - 1))
        return prev[:i] + [data.draw(word)] + prev[i + 1:]
    if kind == "shorter":
        return prev[:data.draw(st.integers(0, len(prev)))]
    if kind == "longer":
        return prev + data.draw(st.lists(word, max_size=r - len(prev)))
    if kind == "empty":
        return []
    return data.draw(st.lists(word, max_size=r))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_reused_oracle_answers_as_fresh_encryption(data):
    # one oracle answers a run of queries in both directions, each from
    # block 1 exactly as cipher.encrypt/decrypt of a fresh Message would,
    # whatever prefix it shares with the query before; what the caller does
    # to its lists afterwards changes no later answer
    n = data.draw(st.sampled_from((1, 2, 4, 16)))
    backend = get_backend(data.draw(st.sampled_from(("fp62", "f64"))))
    r = data.draw(st.integers(1, 6))
    s = random_session(random.Random(data.draw(st.integers(0, 99))), n, r,
                       backend)
    oracle = attack.Oracle(s)
    prev = []
    for q in range(1, data.draw(st.integers(1, 12)) + 1):
        query = _next_query(data, prev, n, r)
        decrypting = data.draw(st.booleans())
        sent = list(query)
        answer = oracle.decrypt_blocks if decrypting else oracle.encrypt_blocks
        got = answer(sent)
        assert got == _reference(s, query, decrypting)
        assert oracle.query_count == q
        got[:] = [b ^ 1 for b in got] + [0]
        sent[:] = [b ^ 1 for b in sent]
        prev = query


@pytest.mark.parametrize("decrypting", [False, True])
def test_reused_oracle_fails_as_the_reference(decrypting):
    # a failing query raises what the reference raises, counts as a query,
    # and leaves the next answer exact; an equal value of another type in
    # the shared prefix is still met by the chain
    n, r = 2, 4
    s = random_session(random.Random(9), n, r)
    oracle = attack.Oracle(s)
    answer = oracle.decrypt_blocks if decrypting else oracle.encrypt_blocks
    good = [1, 0x2a, 3]
    for query in ([1, 0x2a, 3, 4, 5],          # more blocks than r
                  [1, 0x2a, 1 << 8],           # too wide after the prefix
                  [1, 5, 1 << 8],              # the same, sharing less
                  [1.0, 0x2a, 3],              # 1.0 == 1, but not an int
                  [1, 0x2a, 3.0, 7]):
        assert answer(good) == _reference(s, good, decrypting)
        want = _reference(s, query, decrypting)
        assert isinstance(want, tuple), query
        count = oracle.query_count
        assert _outcome(answer, query) == want
        assert oracle.query_count == count + 1
        for after in ([int(b) for b in query[:2]] + [7], good, good[:2] + [7]):
            assert answer(after) == _reference(s, after, decrypting)
    assert _reference(s, [1.0], decrypting) == \
        (TypeError, "unsupported operand type(s) for >>: 'float' and 'int'")


def _walks(data):
    """Three walks of one drawn oracle, each over a drawn trunk and lasts,
    maybe with a float, an over-wide block or -1 in either, and maybe
    abandoned after `take` answers.  Yields, per walk, what it answered
    (an error as its type and message), what the reference answers at each
    query's timestamp, the oracle's query count and the queries taken."""
    n = data.draw(st.sampled_from((1, 2, 4, 16)))
    backend = get_backend(data.draw(st.sampled_from(("fp62", "f64"))))
    r = data.draw(st.integers(1, 5))
    drift = data.draw(st.integers(0, 3)) == 0
    s = random_session(random.Random(data.draw(st.integers(0, 99))), n, r,
                       backend)
    oracle = attack.Oracle(s, drift)
    word = st.integers(0, (1 << (4 * n)) - 1)
    q = 0
    for _ in range(3):
        decrypting = data.draw(st.booleans())
        length = data.draw(st.integers(0, r + 1))
        trunk = [0] * length if data.draw(st.booleans()) else \
            data.draw(st.lists(word, min_size=length, max_size=length))
        if data.draw(st.booleans()):
            lasts = [0] + [1 << l for l in range(4 * n)]
        else:
            lasts = data.draw(st.lists(word, min_size=1, max_size=4))
        where = data.draw(st.sampled_from((None, None, "trunk", "lasts")))
        target = {"trunk": trunk, "lasts": lasts}.get(where)
        if target:
            i = data.draw(st.integers(0, len(target) - 1))
            v = target[i]
            target[i] = data.draw(st.sampled_from((float(v), v | 1 << (4 * n), -1)))
        queries = [trunk[:k] + [b] for k in range(length + 1) for b in lasts]
        take = len(queries) if data.draw(st.booleans()) else \
            data.draw(st.integers(0, len(queries)))
        want = []
        for query in queries[:take]:
            q += 1
            at = cipher.init_session(s.key, s.t + q, n, r, s.backend) \
                if drift else s
            out = _reference(at, query, decrypting)
            want.append(out if isinstance(out, tuple) else out[-1])
            if isinstance(out, tuple):
                break
        got, answers = [], oracle.walk(trunk, lasts, decrypting)
        try:
            for c in itertools.islice(answers, take):
                got.append(c)
        except Exception as exc:
            got.append((type(exc), str(exc)))
            assert list(answers) == []
        answers.close()
        yield got, want, oracle.query_count, q


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_battery_call_answers_as_each_query_sent_alone(data):
    # each answer of a walk is the last block of cipher.encrypt/decrypt of
    # trunk[:k] + [b] at that query's timestamp, or the walk raises what
    # that raises and ends
    for got, want, _, _ in _walks(data):
        assert got == want


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_battery_call_counts_each_query_as_it_is_answered(data):
    # a walk abandoned after `take` answers counts those, and one that
    # raised counts the query that raised too
    for _, _, count, taken in _walks(data):
        assert count == taken


def test_recovery_rejects_a_map_that_is_not_a_bijection():
    # single-bit differences that land on one bit twice, or on a bit at or
    # past 4n, are no permutation, in either direction
    class Landing:
        def __init__(self, bits):
            self.bits = bits

        def walk(self, trunk, lasts, decrypting):
            return iter([0] + [1 << b for b in self.bits])

    n = 2
    for bits in ([0] * 4 * n, range(1, 4 * n + 1), [*range(4 * n - 1), 9 * n]):
        for decrypting in (False, True):
            with pytest.raises(OracleModelViolation,
                               match="^recovered map is not a bijection$"):
                attack.recover_all_f(Landing(bits), 1, n, decrypting)


@pytest.mark.parametrize("n, r", [(1, 5), (2, 8), (16, 4)])
def test_battery_steps_linear_blocks(monkeypatch, n, r):
    # one walk per direction along r - 1 zero blocks: the first query at
    # each trunk block steps it and its last block, every other query its
    # last block alone, so (4n+1)r chain calls step (4n+2)r - 1 blocks; the
    # oracle is handed the trunk and the 4n+1 last blocks once
    stepped, chain = [], cipher.chain
    sent, walk = [], attack.Oracle.walk

    def counted(perms, x, y, U, blocks, n, start=0):
        stepped.append(len(blocks))
        return chain(perms, x, y, U, blocks, n, start)

    def handed(self, trunk, lasts, decrypting):
        sent.append(len(trunk) + len(lasts))
        return walk(self, trunk, lasts, decrypting)

    monkeypatch.setattr(cipher, "chain", counted)
    monkeypatch.setattr(attack.Oracle, "walk", handed)
    s = random_session(random.Random(f"steps:{n}"), n, r)
    queries = (4 * n + 1) * r
    for decrypting in (False, True):
        oracle = attack.Oracle(s)
        stepped.clear()
        sent.clear()
        attack.recover_all_f(oracle, r, n, decrypting)
        assert oracle.query_count == len(stepped) == queries
        assert stepped == [1] * (4 * n + 1) + ([2] + [1] * 4 * n) * (r - 1)
        assert sum(stepped) == (4 * n + 2) * r - 1
        assert sent == [r - 1 + 4 * n + 1]
    # a single query steps every one of its blocks
    prev = [b % (1 << 4 * n) for b in range(3, 3 + r)]
    edited = prev[:-2] + [prev[-2] ^ 1, prev[-1]]
    for decrypting in (False, True):
        oracle = attack.Oracle(s)
        answer = oracle.decrypt_blocks if decrypting else oracle.encrypt_blocks
        for query in (prev, edited, edited[:-1]):
            stepped.clear()
            got = answer(query)
            assert stepped == [len(query)]
            assert got == _reference(s, query, decrypting)


def test_drifting_oracle_answers_at_each_query_timestamp():
    # under drift query q is answered by the session at t + q, so a prefix
    # shared with the query before is never reused
    rng = random.Random(10)
    for n in (1, 2, 4):
        s = random_session(rng, n, 3)
        oracle = attack.Oracle(s, drift=True)
        for q, query in enumerate(([0, 0, 1], [0, 0, 2], [0, 0], [0, 0, 2],
                                   [0, 5, 2], []), start=1):
            at = cipher.init_session(s.key, s.t + q, n, 3, s.backend)
            assert oracle.encrypt_blocks(query) == _reference(at, query, False)
            assert oracle.query_count == q


def test_drifting_query_composes_only_its_own_maps(monkeypatch):
    # a drifting query's session is read once: a one-block query at r = 8
    # composes f_0, or f_0^-1, and no map past its block
    composed, compose = [], keystream.compose_fj
    monkeypatch.setattr(keystream, "compose_fj", lambda *args, **kw: (
        composed.append(kw.get("inverse", False)) or compose(*args, **kw)))
    s = random_session(random.Random(11), 2, 8)
    oracle = attack.Oracle(s, drift=True)
    for decrypting in (False, True):
        composed.clear()
        answer = oracle.decrypt_blocks if decrypting else oracle.encrypt_blocks
        got = answer([0x5a])
        assert composed == [decrypting]
        at = cipher.init_session(s.key, s.t + oracle.query_count, 2, 8, s.backend)
        assert got == _reference(at, [0x5a], decrypting)


def test_single_bit_check():
    with pytest.raises(OracleModelViolation):
        attack._single_bit_index(0, "test")
    with pytest.raises(OracleModelViolation):
        attack._single_bit_index(0b11, "test")
    assert attack._single_bit_index(0x80, "test") == 7


@pytest.mark.parametrize("n, r", [(1, 6), (2, 4), (3, 3)])
def test_solve_uj_matches_exhaustive(n, r):
    rng = random.Random(100 + n)
    unsolvable = 0
    for _ in range(100):
        s = random_session(rng, n=n, r=r)
        msgs = encrypt_random(rng, s, rng.randint(1, 3))
        for j in range(2, r + 1):
            pairs = [(p[j - 2], p[j - 1], c[j - 2], c[j - 1]) for p, c in msgs]
            sols = attack.solve_uj(pairs, s.F[j - 1], n)
            assert sols == spec.solve_uj(pairs, s.F[j - 1].dest, n)
            assert s.U[j + 1] in sols
        # pairs now hold the last block, for which f_0 is usually wrong
        want = spec.solve_uj(pairs, s.F[0].dest, n)
        if want:
            assert attack.solve_uj(pairs, s.F[0], n) == want
        else:
            unsolvable += 1
            with pytest.raises(ValueError, match="^no candidate satisfies the pairs"):
                attack.solve_uj(pairs, s.F[0], n)
    assert unsolvable > 0


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_solve_uj_matches_spec_on_any_permutation(data):
    # any bit permutation, not only an f_j; the pairs satisfy the block
    # equation for a hidden x, except that half the time one of them is
    # drawn at random (then there is usually no solution)
    n = data.draw(st.integers(1, 3))
    width, value = 4 * n, st.integers(0, (1 << (4 * n)) - 1)
    dest = data.draw(st.permutations(range(width)))
    x, mask = data.draw(value), (1 << width) - 1
    count = data.draw(st.integers(1, 8))
    noisy = data.draw(st.integers(-count, count - 1))
    pairs = []
    for k in range(count):
        p_prev, p_j, c_prev, c_j = (data.draw(value) for _ in range(4))
        if k != noisy:
            c_j = spec.apply(dest, p_j ^ ((c_prev + x) & mask)) ^ \
                ((p_prev + x) & mask)
        pairs.append((p_prev, p_j, c_prev, c_j))
    want = spec.solve_uj(pairs, dest, n)
    if want:
        assert attack.solve_uj(pairs, BitPermutation(dest, n), n) == want
    else:
        with pytest.raises(ValueError, match="^no candidate satisfies the pairs"):
            attack.solve_uj(pairs, BitPermutation(dest, n), n)


def test_solve_uj_n16_candidates_satisfy_every_pair():
    rng = random.Random(16)
    s = random_session(rng, n=16, r=16)
    msgs = encrypt_random(rng, s, 32)
    for j in range(2, 17):
        pairs = [(p[j - 2], p[j - 1], c[j - 2], c[j - 1]) for p, c in msgs]
        sols = attack.solve_uj(pairs, s.F[j - 1], 16)
        image = partial(spec.apply, s.F[j - 1].dest)
        assert s.U[j + 1] in sols
        assert all(spec.consistent(x, image, pair, 16)
                   for x in sols for pair in pairs)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_top_bit_families_need_a_fixed_top_bit(data):
    # x and x [+] 2^{4n-1} solve the same pairs exactly when f fixes the top
    # bit, so full_attack's _settled need not look at f
    n = data.draw(st.integers(1, 4))
    width, value = 4 * n, st.integers(0, (1 << (4 * n)) - 1)
    dest = data.draw(st.permutations(range(width)))
    if data.draw(st.booleans()):                   # fix the top bit
        i = dest.index(width - 1)
        dest[i], dest[-1] = dest[-1], dest[i]
    x, mask = data.draw(value), (1 << width) - 1
    pairs = []
    for _ in range(data.draw(st.integers(1, 3))):
        p_prev, p_j, c_prev = data.draw(value), data.draw(value), data.draw(value)
        c_j = spec.apply(dest, p_j ^ ((c_prev + x) & mask)) ^ ((p_prev + x) & mask)
        pairs.append((p_prev, p_j, c_prev, c_j))
    sols = attack.solve_uj(pairs, BitPermutation(dest, n), n)
    top = 1 << (width - 1)
    assert x in sols
    assert ({y ^ top for y in sols} == set(sols)) == (dest[-1] == width - 1)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_solve_uj_order_matches_exhaustive(alpha):
    # ranked solutions == the exhaustive loop walking prioritized_candidates
    rng = random.Random(11)
    for n in (1, 2):
        for _ in range(10):
            s = random_session(rng, n=n)
            [(p, c)] = encrypt_random(rng, s, 1)
            for j in range(2, 9):
                pairs = [(p[j - 2], p[j - 1], c[j - 2], c[j - 1])]
                fast = attack.rank_candidates(
                    attack.solve_uj(pairs, s.F[j - 1], n), alpha, n)
                sols = set(spec.solve_uj(pairs, s.F[j - 1].dest, n))
                assert fast == [x for x in prioritized_candidates(alpha, n)
                                if x in sols]


def test_rank_candidates_n16():
    """Ranking at n = 16, where the 2^64 enumeration cannot be walked: for
    alpha < 0.5 the all-zero noise vector is the last value it reaches."""
    width = 64
    rng = random.Random(16)
    values = [0, (1 << width) - 1, 1, 1 << 63, 3, (1 << 32) - 1,
              ((1 << 32) - 1) << 32] + [rng.randrange(1 << width) for _ in range(40)]

    def zeros(x):
        return width - bin(x).count("1")

    def outside_in(x):   # class pairs (A_i, A_{4n-i}), A_{4n-i} first
        z = zeros(x)
        return 2 * (width - z) if z > width // 2 else \
            2 * z + 1 if z < width // 2 else width

    want = {0.2: sorted(values, key=lambda x: (zeros(x), x)),
            0.5: sorted(values),
            0.9: sorted(values, key=lambda x: (outside_in(x), x))}
    for alpha, order in want.items():
        assert attack.rank_candidates(values, alpha, 16) == order
    assert want[0.2][-1] == 0 and want[0.9][0] == 0
    with pytest.raises(ParameterError):
        attack.rank_candidates(values, 1.0, 16)


def test_solve_uj_rejects_out_of_range_pairs():
    f = BitPermutation(tuple(range(8)), 2)
    for bad in (0x100, -1):
        with pytest.raises(ParameterError):
            attack.solve_uj([(0x12, 0x34, 0x56, bad)], f, 2)


def test_solve_uj_contains_truth_and_shrinks():
    rng = random.Random(5)
    for _ in range(20):
        s = random_session(rng)
        j = 4
        both = [(p[j - 2], p[j - 1], c[j - 2], c[j - 1])
                for p, c in encrypt_random(rng, s, 2)]
        one_pair = both[:1]
        sols1 = attack.solve_uj(one_pair, s.F[j - 1], 2)
        sols2 = attack.solve_uj(both, s.F[j - 1], 2)
        assert s.U[j + 1] in sols1
        assert s.U[j + 1] in sols2
        assert set(sols2) <= set(sols1)


def test_solve_uj_single_equation_is_degenerate():
    # one equation leaves several structurally related candidates
    rng = random.Random(6)
    sizes = []
    for _ in range(30):
        s = random_session(rng)
        [(p, c)] = encrypt_random(rng, s, 1)
        sols = attack.solve_uj([(p[2], p[3], c[2], c[3])], s.F[3], 2)
        sizes.append(len(sols))
    assert all(k >= 1 for k in sizes)
    assert sum(sizes) / len(sizes) > 2  # typically well above 1


def test_solve_uj_inconsistent_inputs():
    wrong = BitPermutation(tuple(range(8)), 2)
    with pytest.raises(ValueError):
        attack.solve_uj([(0x12, 0x34, 0x56, 0x78), (0x9A, 0xBC, 0xDE, 0x0F)],
                        wrong, 2)
    with pytest.raises(ParameterError):
        attack.solve_uj([], wrong, 2)


def test_block1_registers_reproduce_pairs():
    rng = random.Random(7)
    s = random_session(rng)
    pairs = [(p[0], c[0]) for p, c in encrypt_random(rng, s, 3)]
    y, z = attack.solve_block1_registers(pairs, s.F[0], 2)
    for p1, c1 in pairs:
        assert spec.keyless_decrypt({0: s.F[0].dest}, {}, (y, z), [c1], 2) == [p1]
    p1, c1 = pairs[-1]
    with pytest.raises(ValueError,
                       match="^first-block pairs are inconsistent with f_0$"):
        attack.solve_block1_registers(pairs + [(p1 ^ 1, c1)], s.F[0], 2)


def test_prioritized_candidates_complete():
    for alpha in (0.1, 0.5, 0.9):
        seen = list(prioritized_candidates(alpha, 2))
        assert sorted(seen) == list(range(256))


def test_prioritized_candidates_order():
    # alpha < 0.5: all-ones first (every bit is 1 with probability 1-alpha)
    first = next(prioritized_candidates(0.1, 2))
    assert first == 0xFF
    first = next(prioritized_candidates(0.9, 2))
    assert first == 0x00
    # the branch edges, for float and Fraction estimates alike
    below, at = list(range(8, -1, -1)), list(range(9))
    above = [0, 8, 1, 7, 2, 6, 3, 5, 4]
    tiny = Fraction(1, 10 ** 30)
    for alpha, want in ((0.5, at), (Fraction(1, 2), at),
                        (math.nextafter(0.5, 0), below),
                        (math.nextafter(0.5, 1), above),
                        (Fraction(1, 2) - tiny, below),
                        (Fraction(1, 2) + tiny, above),
                        (1e-9, below), (1 - 1e-16, above)):
        assert attack.class_order(alpha, 2) == want, alpha


def test_full_attack_end_to_end():
    rng = random.Random(8)
    for trial in range(20):
        s = random_session(rng)
        oracle = attack.EncryptionOracle(s)
        known = encrypt_random(rng, s, 2)
        report = attack.full_attack(oracle, known, 8, 2, seed=trial)
        [(fresh, fresh_c)] = encrypt_random(rng, s, 1)
        assert attack.keyless_decrypt(report.state, fresh_c) == fresh
        assert report.recovery_queries == 72


def test_full_attack_n8():
    rng = random.Random(12)
    n, r = 8, 16
    s = random_session(rng, n=n, r=r)
    oracle = attack.EncryptionOracle(s)
    known = encrypt_random(rng, s, 2)
    report = attack.full_attack(oracle, known, r, n, seed=1)
    assert report.recovery_queries == 33 * 16
    assert report.stopped == "settled"
    [(fresh, fresh_c)] = encrypt_random(rng, s, 1)
    assert attack.keyless_decrypt(report.state, fresh_c) == fresh


def test_full_attack_counts_only_its_recovery_queries():
    rng = random.Random(13)
    s = random_session(rng)
    oracle = attack.EncryptionOracle(s)
    for _ in range(5):
        oracle.encrypt_blocks([0] * 8)
    report = attack.full_attack(oracle, encrypt_random(rng, s, 2), 8, 2)
    assert report.recovery_queries == 72
    assert oracle.query_count == 5 + 72 + report.extra_queries


def test_full_attack_reports_budget_stop(monkeypatch):
    rng = random.Random(8)
    s = random_session(rng)
    monkeypatch.setattr(attack, "EXTRA_QUERIES", 0)
    report = attack.full_attack(attack.EncryptionOracle(s),
                                encrypt_random(rng, s, 1), 8, 2)
    assert report.extra_queries == 0
    assert report.stopped == "budget"
    assert "ambiguous" in report.state.provenance.values()


def test_full_attack_rejects_a_known_message_longer_than_r():
    rng = random.Random(4)
    s = random_session(rng, r=6)
    oracle = attack.EncryptionOracle(s)
    with pytest.raises(ParameterError,
                       match=r"^a known message has 6 blocks, more than r=4$"):
        attack.full_attack(oracle, encrypt_random(rng, s, 2), 4, 2)
    assert oracle.query_count == 0


def test_full_attack_checks_known_messages_before_any_query():
    rng = random.Random(5)
    s = random_session(rng, r=6)
    (p, c), = encrypt_random(rng, s, 1)
    for known, message in (
            ([], r"^at least one known message is needed$"),
            ([(p, c[:2])], r"^a known message has 6 plaintext blocks and "
                           r"2 ciphertext blocks$"),
            ([(p, c), (p[:3], c[:4])], r"^a known message has 3 plaintext "
                                       r"blocks and 4 ciphertext blocks$"),
            ([([], [])], r"^every known message is empty$"),
            ([([], []), ([], [])], r"^every known message is empty$"),
            # a value outside 0..2^8-1, first or last block, either side
            ([([p[0] | 1 << 40, *p[1:]], c)], r"^known message 1: plaintext "
                                              r"block 1 is outside the 8-bit "
                                              r"block range$"),
            ([(p, c), ([*p[:5], 1 << 8], c)], r"^known message 2: plaintext "
                                              r"block 6 is outside"),
            ([(p, c), (p, [-1, *c[1:]])], r"^known message 2: ciphertext "
                                          r"block 1 is outside"),
            ([(p, [*c[:5], 1 << 8])], r"^known message 1: ciphertext "
                                      r"block 6 is outside")):
        oracle = attack.EncryptionOracle(s)
        with pytest.raises(ParameterError, match=message):
            attack.full_attack(oracle, known, 6, 2)
        assert oracle.query_count == 0
    # an empty message beside a non-empty one is only skipped
    report = attack.full_attack(attack.EncryptionOracle(s), [([], []), (p, c)], 6, 2)
    assert report.recovery_queries == 54
    assert attack.keyless_decrypt(report.state, c) == p


def test_cipher_and_attack_leave_no_reference_cycles():
    # sessions, cached inverses and recovered states are freed by reference
    # counting alone; a cycle would keep each one until the cyclic collector
    # runs, which shows as peak memory on many-session traffic
    rng = random.Random(10)
    key = KeyMaterial(FP.from_float(0.503), FP.from_float(0.3),
                      FP.from_float(0.6), rng.randrange(1 << 16))
    gc.collect()
    gc.disable()
    try:
        s = cipher.init_session(key, 123457, 4, 8, FP)
        known = encrypt_random(rng, s, 2)
        back = cipher.decrypt(s, Message(known[0][1], s.t)).blocks
        report = attack.full_attack(attack.EncryptionOracle(s), known, 8, 4)
        plain = attack.keyless_decrypt(report.state, known[1][1])
        assert back == known[0][0] and plain == known[1][0]
        del s, known, back, report, plain
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_keyless_decrypt_gap_case():
    rng = random.Random(9)
    s = random_session(rng)
    full = attack.full_attack(attack.EncryptionOracle(s),
                              encrypt_random(rng, s, 2), 8, 2).state
    state = attack.RecoveredState(                # keep only f_0..f_3
        full.n, full.r, {j: full.perms[j] for j in range(4)}, full.noise,
        full.reg1, full.provenance)
    [(fresh, fresh_c)] = encrypt_random(rng, s, 1)
    out = attack.keyless_decrypt(state, fresh_c)
    assert out[:4] == fresh[:4]
    assert out[4:] == [None] * 4


def test_keyless_decrypt_builds_its_chain_once_per_state(monkeypatch):
    # a break-n4-shaped state: 512 messages invert each of the r maps once
    rng = random.Random(12)
    s = random_session(rng, 4, 8)
    state = attack.full_attack(attack.EncryptionOracle(s),
                               encrypt_random(rng, s, 2), 8, 4).state
    traffic = encrypt_random(rng, s, 512)
    inverted = []
    invert = keystream.invert
    monkeypatch.setattr(keystream, "invert",
                        lambda p: inverted.append(p) or invert(p))
    assert [attack.keyless_decrypt(state, c) for _, c in traffic] == \
        [p for p, _ in traffic]
    assert 0 < len(inverted) <= 8
    # so the items the chain was built from cannot change under it
    for items, j in ((state.perms, 0), (state.noise, 3)):
        with pytest.raises(TypeError):
            items[j] = items[j]
        with pytest.raises(TypeError):
            del items[j]
    for name in ("perms", "noise"):
        with pytest.raises(AttributeError):
            setattr(state, name, {})


def _broken(rng, s, r):
    """full_attack's state for session s, from 32 known messages of r
    blocks, after checking its maps and its (4n+1)r recovery queries."""
    report = attack.full_attack(attack.Oracle(s), encrypt_random(rng, s, 32),
                                r, s.n)
    assert report.recovery_queries == (4 * s.n + 1) * r
    assert [f.dest for f in report.state.perms.values()] == \
        [f.dest for f in s.F[:r]]
    return report.state


@pytest.mark.parametrize("n", [1, 4, 16])
def test_break_is_independent_of_the_tent_map(n):
    # the paper's third claim: a session whose U_j come from random.Random,
    # not from a tent-map orbit, falls to the same attack and queries
    rng = random.Random(f"no tent map:{n}")
    r, width = 6, 4 * n
    key = KeyMaterial(FP.from_float(0.5), FP.from_float(0.5),
                      FP.from_float(0.5), rng.randrange(1 << width))
    U = [rng.randrange(1 << width) for _ in range(r + 2)]
    s = cipher.Session(key, 77, n, r, FP, keystream.DEFAULT_TABLE, U)
    state = _broken(rng, s, r)
    for p, c in encrypt_random(rng, s, 20):
        assert attack.keyless_decrypt(state, c) == p


@pytest.mark.parametrize("n", [1, 4, 16])
def test_recovered_state_forges_and_decrypts_as_a_session(n):
    # the break is total: the encryption direction over a recovered state
    # forges what the victim's key decrypts, and cipher.decrypt over it is
    # keyless decryption
    rng = random.Random(f"forge:{n}")
    s = random_session(rng, n, 6)
    state = _broken(rng, s, 6)
    for length in (1, 3, 6):
        p = [rng.randrange(1 << (4 * n)) for _ in range(length)]
        c = cipher.chain(*cipher.start(state, False), state.U, p, n)
        assert cipher.decrypt(s, Message(c, s.t)).blocks == p
        [(fresh, fresh_c)] = encrypt_random(rng, s, 1, length)
        assert cipher.decrypt(state, Message(fresh_c, s.t)).blocks == \
            attack.keyless_decrypt(state, fresh_c) == fresh


def test_state_file_roundtrip(tmp_path):
    rng = random.Random(10)
    s = random_session(rng)
    state = attack.full_attack(attack.EncryptionOracle(s),
                               encrypt_random(rng, s, 2), 8, 2).state
    path = tmp_path / "state.txt"
    attack.save_state(state, path)
    loaded = attack.load_state(path)
    assert loaded.n == state.n and loaded.r == state.r
    assert {j: f.dest for j, f in loaded.perms.items()} == \
        {j: f.dest for j, f in state.perms.items()}
    assert loaded.noise == state.noise
    assert loaded.reg1 == state.reg1
    assert loaded.provenance == state.provenance
    # decrypts the same traffic
    [(fresh, fresh_c)] = encrypt_random(rng, s, 1)
    assert attack.keyless_decrypt(loaded, fresh_c) == fresh


def test_recovered_states_share_no_items():
    # each state copies the items it is given
    perms, noise, provenance = {}, {}, {}
    a, b = (attack.RecoveredState(2, 4, perms, noise, None, provenance)
            for _ in range(2))
    assert a.perms is not b.perms
    assert a.noise is not b.noise
    assert a.provenance is not b.provenance
    noise[3] = 1
    assert b.noise == {} and b.reg1 is None


@settings(max_examples=25, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_state_file_save_load_identity(tmp_path, data):
    # any subset of the items, each with its provenance tag
    n, r = data.draw(st.integers(1, 16)), data.draw(st.integers(1, 5))
    value = st.integers(0, (1 << (4 * n)) - 1)
    tags = st.sampled_from(("cpa", "cca", "affine", "solved", "ambiguous",
                            "assumed"))
    perms, noise, reg1, provenance = {}, {}, None, {}
    for j in data.draw(st.sets(st.integers(0, r - 1))):
        perms[j] = BitPermutation(data.draw(st.permutations(range(4 * n))), n)
        provenance[f"f{j}"] = data.draw(tags)
    for j in data.draw(st.sets(st.integers(3, r + 1))) if r >= 2 else ():
        noise[j] = data.draw(value)
        provenance[f"U{j}"] = data.draw(tags)
    if data.draw(st.booleans()):
        reg1 = (data.draw(value), data.draw(value))
        provenance["reg1"] = data.draw(tags)
    state = attack.RecoveredState(n, r, perms, noise, reg1, provenance)
    attack.save_state(state, tmp_path / "state.txt")
    loaded = attack.load_state(tmp_path / "state.txt")
    assert (loaded.n, loaded.r, loaded.perms, loaded.noise, loaded.reg1,
            loaded.provenance) == (state.n, state.r, state.perms, state.noise,
                                   state.reg1, state.provenance)


def test_state_file_rejects_garbage(tmp_path):
    path = tmp_path / "state.txt"
    path.write_text("nope\n")
    with pytest.raises(ParameterError):
        attack.load_state(path)
    identity = " ".join(str(i) for i in range(8))
    head = "line 3: expected f<j>, U<j> or reg1, got "
    for bad, error in (("garbage", head), ("hello there", head),
                       ("V3: 0x12", head), (f"f 1: {identity}", head),
                       ("U +3: 0x12", head), (f"f01: {identity}", head),
                       (f"f0: {identity}", "line 3: f0 given twice"),
                       ("U3: 0x12\nU3: 0x13", "line 4: U3 given twice"),
                       ("reg1: 0x1 0x2\n\nreg1: 0x1 0x2",
                        "line 5: reg1 given twice"),
                       ("reg1: 0x1", "line 3: expected two hex values, got '0x1'"),
                       ("reg1: 0x1 0x2 0x3  # solved",
                        "line 3: expected two hex values, got '0x1 0x2 0x3'")):
        path.write_text(f"YTSREC n=2 r=4\nf0: {identity}\n{bad}\n")
        with pytest.raises(ParameterError, match=re.escape(f"{path}: {error}")):
            attack.load_state(path)


def test_state_file_rejects_out_of_range_values(tmp_path):
    path = tmp_path / "state.txt"
    identity = " ".join(str(i) for i in range(8))
    good = f"YTSREC n=2 r=4\nf0: {identity}\nU3: 0xff\nreg1: 0x12 0x34\n"
    path.write_text(good)
    assert attack.load_state(path).noise == {3: 0xFF}
    for bad in ("U3: 0x1ffff", "reg1: 0x1ff 0x0", "U5: -0x1", f"f4: {identity}",
                f"f-1: {identity}", "U2: 0x00", "U6: 0x00"):
        path.write_text(good + bad + "\n")
        with pytest.raises(ParameterError, match=f"{path}: line 5: "):
            attack.load_state(path)
