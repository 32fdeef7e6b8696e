"""Differential recovery, noise solving and keyless decryption."""

import gc
import random
import warnings

import pytest

from tentbreak import attack, cipher, keystream
from tentbreak.attack import OracleModelViolation
from tentbreak.backend import ParameterError, get_backend
from tentbreak.cipher import KeyMaterial, Message, WeakKeyWarning

FP = get_backend("fp62")


def random_session(rng, n=2, r=8, t=None):
    key = KeyMaterial(FP.from_float(rng.uniform(0.02, 0.98)),
                      FP.from_float(rng.uniform(0.02, 0.98)),
                      FP.from_float(rng.uniform(0.02, 0.98)),
                      rng.randrange(1 << (4 * n)))
    if t is None:
        t = rng.randrange(1, 10 ** 9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeakKeyWarning)
        return cipher.init_session(key, t, n, r, FP)


def test_battery_shape():
    battery = attack.gen_cpa_battery(2, 1, 0xF)
    assert battery == [[15, 15], [15, 14], [15, 13], [15, 11], [15, 7]]
    battery = attack.gen_cpa_battery(3, 2)
    assert len(battery) == 9
    assert all(len(m) == 3 for m in battery)


def test_recover_single_permutation():
    s = random_session(random.Random(1))
    oracle = attack.EncryptionOracle(s)
    f = attack.recover_perm(oracle.encrypt_blocks, 1, 2, "ciphertext")
    assert f.dest == s.F[0].dest
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
    oracle = attack.DriftingClockOracle(s)
    with pytest.raises(OracleModelViolation):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakKeyWarning)
            attack.recover_all_f(oracle, 8, 2)


def test_single_bit_check():
    with pytest.raises(OracleModelViolation):
        attack._single_bit_index(0, "test")
    with pytest.raises(OracleModelViolation):
        attack._single_bit_index(0b11, "test")
    assert attack._single_bit_index(0x80, "test") == 7


def _solve_uj_exhaustive(pairs, f, n, order=None) -> list:
    """Reference solver: checks every one of the 2^{4n} candidates, in
    `order` when given."""
    if not pairs:
        raise ParameterError("at least one plaintext/ciphertext pair is needed")
    mask = (1 << (4 * n)) - 1
    candidates = order if order is not None else range(mask + 1)
    sols = []
    for x in candidates:
        ok = True
        for p_prev, p_j, c_prev, c_j in pairs:
            if c_j ^ ((p_prev + x) & mask) != \
                    keystream.apply(f, p_j ^ ((c_prev + x) & mask)):
                ok = False
                break
        if ok:
            sols.append(x)
    if not sols:
        raise ValueError("no candidate satisfies the pairs; wrong permutation "
                         "or mismatched pairs")
    return sols


def _solutions(solver, *args, **kwargs):
    """The solver's candidate list, or ValueError when it finds none."""
    try:
        return solver(*args, **kwargs)
    except ValueError:
        return ValueError


@pytest.mark.parametrize("n, r", [(1, 6), (2, 4), (3, 3)])
def test_solve_uj_matches_exhaustive(n, r):
    rng = random.Random(100 + n)
    unsolvable = 0
    for _ in range(100):
        s = random_session(rng, n=n, r=r)
        msgs = []
        for _ in range(rng.randint(1, 3)):
            p = [rng.randrange(1 << (4 * n)) for _ in range(r)]
            msgs.append((p, cipher.encrypt(s, Message(p, s.t)).blocks))
        for j in range(2, r + 1):
            pairs = [(p[j - 2], p[j - 1], c[j - 2], c[j - 1]) for p, c in msgs]
            sols = attack.solve_uj(pairs, s.F[j - 1], n)
            assert sols == _solve_uj_exhaustive(pairs, s.F[j - 1], n)
            assert s.U[j + 1] in sols
        # pairs now hold the last block, for which f_0 is usually wrong
        got = _solutions(attack.solve_uj, pairs, s.F[0], n)
        assert got == _solutions(_solve_uj_exhaustive, pairs, s.F[0], n)
        unsolvable += got is ValueError
    assert unsolvable > 0


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_solve_uj_order_matches_exhaustive(alpha):
    # ranked solutions == the exhaustive loop walking prioritized_candidates
    rng = random.Random(11)
    for n in (1, 2):
        for _ in range(10):
            s = random_session(rng, n=n)
            p = [rng.randrange(1 << (4 * n)) for _ in range(8)]
            c = cipher.encrypt(s, Message(p, s.t)).blocks
            for j in range(2, 9):
                pairs = [(p[j - 2], p[j - 1], c[j - 2], c[j - 1])]
                fast = attack.rank_candidates(
                    attack.solve_uj(pairs, s.F[j - 1], n), alpha, n)
                assert fast == _solve_uj_exhaustive(
                    pairs, s.F[j - 1], n,
                    order=attack.prioritized_candidates(alpha, n))


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
    f = keystream.BitPermutation(tuple(range(8)), 2)
    for bad in (0x100, -1):
        with pytest.raises(ParameterError):
            attack.solve_uj([(0x12, 0x34, 0x56, bad)], f, 2)


def test_solve_uj_contains_truth_and_shrinks():
    rng = random.Random(5)
    for _ in range(20):
        s = random_session(rng)
        msgs = []
        for _ in range(2):
            p = [rng.randrange(256) for _ in range(8)]
            c = cipher.encrypt(s, Message(p, s.t)).blocks
            msgs.append((p, c))
        j = 4
        one_pair = [(msgs[0][0][j - 2], msgs[0][0][j - 1],
                     msgs[0][1][j - 2], msgs[0][1][j - 1])]
        both = one_pair + [(msgs[1][0][j - 2], msgs[1][0][j - 1],
                            msgs[1][1][j - 2], msgs[1][1][j - 1])]
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
        p = [rng.randrange(256) for _ in range(8)]
        c = cipher.encrypt(s, Message(p, s.t)).blocks
        sols = attack.solve_uj([(p[2], p[3], c[2], c[3])], s.F[3], 2)
        sizes.append(len(sols))
    assert all(k >= 1 for k in sizes)
    assert sum(sizes) / len(sizes) > 2  # typically well above 1


def test_solve_uj_inconsistent_inputs():
    wrong = keystream.BitPermutation(tuple(range(8)), 2)
    with pytest.raises(ValueError):
        attack.solve_uj([(0x12, 0x34, 0x56, 0x78), (0x9A, 0xBC, 0xDE, 0x0F)],
                        wrong, 2)
    with pytest.raises(ParameterError):
        attack.solve_uj([], wrong, 2)


def test_block1_registers_reproduce_pairs():
    rng = random.Random(7)
    s = random_session(rng)
    pairs = []
    for _ in range(3):
        p = [rng.randrange(256) for _ in range(8)]
        c = cipher.encrypt(s, Message(p, s.t)).blocks
        pairs.append((p[0], c[0]))
    y, z = attack.solve_block1_registers(pairs, s.F[0], 2)
    f0inv = keystream.invert(s.F[0])
    for p1, c1 in pairs:
        assert keystream.apply(f0inv, c1 ^ z) ^ y == p1


def test_prioritized_candidates_complete():
    for alpha in (0.1, 0.5, 0.9):
        seen = list(attack.prioritized_candidates(alpha, 2))
        assert sorted(seen) == list(range(256))


def test_prioritized_candidates_order():
    # alpha < 0.5: all-ones first (every bit is 1 with probability 1-alpha)
    first = next(attack.prioritized_candidates(0.1, 2))
    assert first == 0xFF
    first = next(attack.prioritized_candidates(0.9, 2))
    assert first == 0x00


def test_full_attack_end_to_end():
    rng = random.Random(8)
    for trial in range(20):
        s = random_session(rng)
        oracle = attack.EncryptionOracle(s)
        known = []
        for _ in range(2):
            p = [rng.randrange(256) for _ in range(8)]
            c = cipher.encrypt(s, Message(p, s.t)).blocks
            known.append((p, c))
        report = attack.full_attack(oracle, known, 8, 2, seed=trial)
        fresh = [rng.randrange(256) for _ in range(8)]
        fresh_c = cipher.encrypt(s, Message(fresh, s.t)).blocks
        assert attack.keyless_decrypt(report.state, fresh_c) == fresh
        assert report.recovery_queries == 72


def test_full_attack_n8():
    rng = random.Random(12)
    n, r = 8, 16
    s = random_session(rng, n=n, r=r)
    oracle = attack.EncryptionOracle(s)
    known = []
    for _ in range(2):
        p = [rng.randrange(1 << 32) for _ in range(r)]
        known.append((p, cipher.encrypt(s, Message(p, s.t)).blocks))
    report = attack.full_attack(oracle, known, r, n, seed=1)
    assert report.recovery_queries == 33 * 16
    assert report.stopped == "settled"
    fresh = [rng.randrange(1 << 32) for _ in range(r)]
    fresh_c = cipher.encrypt(s, Message(fresh, s.t)).blocks
    assert attack.keyless_decrypt(report.state, fresh_c) == fresh


def test_full_attack_reports_budget_stop():
    rng = random.Random(8)
    s = random_session(rng)
    p = [rng.randrange(256) for _ in range(8)]
    known = [(p, cipher.encrypt(s, Message(p, s.t)).blocks)]
    report = attack.full_attack(attack.EncryptionOracle(s), known, 8, 2,
                                max_extra_queries=0)
    assert report.extra_queries == 0
    assert report.stopped == "budget"
    assert "ambiguous" in report.state.provenance.values()


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
        known = []
        for _ in range(2):
            p = [rng.randrange(1 << 16) for _ in range(8)]
            known.append((p, cipher.encrypt(s, Message(p, s.t)).blocks))
        back = cipher.decrypt(s, Message(known[0][1], s.t)).blocks
        report = attack.full_attack(attack.EncryptionOracle(s), known, 8, 4)
        plain = attack.keyless_decrypt(report.state, known[1][1])
        assert back == known[0][0] and plain == known[1][0]
        del s, known, back, report, plain, p
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_keyless_decrypt_gap_case():
    rng = random.Random(9)
    s = random_session(rng)
    oracle = attack.EncryptionOracle(s)
    known = []
    for _ in range(2):
        p = [rng.randrange(256) for _ in range(8)]
        c = cipher.encrypt(s, Message(p, s.t)).blocks
        known.append((p, c))
    report = attack.full_attack(oracle, known, 8, 2)
    state = report.state
    for j in (4, 5, 6, 7):                       # keep only f_0..f_3
        del state.perms[j]
    fresh = [rng.randrange(256) for _ in range(8)]
    fresh_c = cipher.encrypt(s, Message(fresh, s.t)).blocks
    out = attack.keyless_decrypt(state, fresh_c)
    assert out[:4] == fresh[:4]
    assert out[4:] == [None] * 4


def test_state_file_roundtrip(tmp_path):
    rng = random.Random(10)
    s = random_session(rng)
    oracle = attack.EncryptionOracle(s)
    known = []
    for _ in range(2):
        p = [rng.randrange(256) for _ in range(8)]
        c = cipher.encrypt(s, Message(p, s.t)).blocks
        known.append((p, c))
    state = attack.full_attack(oracle, known, 8, 2).state
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
    fresh = [rng.randrange(256) for _ in range(8)]
    fresh_c = cipher.encrypt(s, Message(fresh, s.t)).blocks
    assert attack.keyless_decrypt(loaded, fresh_c) == fresh


def test_state_file_rejects_garbage(tmp_path):
    path = tmp_path / "state.txt"
    path.write_text("nope\n")
    with pytest.raises(ParameterError):
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
