"""Acceptance gate: the ten headline claims, one test each.

Every test prints a single PASS/FAIL line (visible with -s or on failure)
and asserts the stated tolerance.
"""

import random
import time
from fractions import Fraction

import pytest

from tentbreak import analysis, attack, cipher, keystream, tentmap
from tentbreak.backend import get_backend
from tentbreak.cipher import KeyMaterial, Message
from rank_reference import mean_rank_monte_carlo
from sessions import encrypt_random, random_session

FP = get_backend("fp62")
F64 = get_backend("f64")


def report(name, ok, detail=""):
    print(f"{name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def sessions100():
    rng = random.Random(1001)
    return [random_session(rng) for _ in range(100)]


def test_criterion_01_cpa_exactness(sessions100):
    t0 = time.perf_counter()
    good = 0
    for s in sessions100:
        oracle = attack.EncryptionOracle(s)
        state = attack.recover_all_f(oracle, 8, 2)
        if oracle.query_count == 72 and \
                all(state.perms[j].dest == s.F[j].dest for j in range(8)):
            good += 1
    elapsed = time.perf_counter() - t0
    report("criterion 01 cpa exactness",
           good == 100 and elapsed < 5.0,
           f"{good}/100 exact at 72 queries, {elapsed:.2f}s")


def test_criterion_02_cca_duality(sessions100):
    good = 0
    for s in sessions100:
        enc = attack.EncryptionOracle(s)
        dec = attack.DecryptionOracle(s)
        via_cpa = attack.recover_all_f(enc, 8, 2)
        via_cca = attack.recover_all_finv(dec, 8, 2)
        if dec.query_count == enc.query_count and \
                all(via_cca.perms[j].dest == via_cpa.perms[j].dest
                    for j in range(8)):
            good += 1
    report("criterion 02 cca duality", good == 100, f"{good}/100")


def test_criterion_03_keyless_decryption(sessions100):
    rng = random.Random(1003)
    good = 0
    for i, s in enumerate(sessions100):
        state = attack.full_attack(attack.EncryptionOracle(s),
                                   encrypt_random(rng, s, 2), 8, 2, seed=i).state
        [(fresh, fresh_c)] = encrypt_random(rng, s, 1)
        if attack.keyless_decrypt(state, fresh_c) == fresh:
            good += 1
    report("criterion 03 keyless decryption", good == 100, f"{good}/100")


def test_criterion_04_roundtrip():
    rng = random.Random(1004)
    good = 0
    for i in range(500):
        backend = (FP, F64)[i % 2]
        n = rng.choice((1, 2))
        key = KeyMaterial(backend.from_float(rng.uniform(0.02, 0.98)),
                          backend.from_float(rng.uniform(0.02, 0.98)),
                          backend.from_float(rng.uniform(0.02, 0.98)),
                          rng.randrange(1 << (4 * n)))
        t = rng.randrange(1, 10 ** 9)
        r = rng.randrange(1, 33)
        s = cipher.init_session(key, t, n, r, backend)
        pt = [rng.randrange(1 << (4 * n)) for _ in range(r)]
        if cipher.decrypt(s, cipher.encrypt(s, Message(pt, t))).blocks == pt:
            good += 1
    report("criterion 04 round trip", good == 500, f"{good}/500")


def test_criterion_05_skewed_histogram():
    p = tentmap.TentParams(0.1, 0.7)
    hist = analysis.sample_histogram(p, 0.3, 2, 1000, F64)
    f255 = hist.counts[255] / hist.samples
    small = sum(1 for c in hist.counts if c / 1000 < 0.01)
    report("criterion 05 skewed histogram",
           0.40 <= f255 <= 0.60 and small >= 200,
           f"freq(255)={f255:.3f}, {small} bins below 0.01")


def test_criterion_06_degradation():
    rep = analysis.degradation_report(0.4, 0.123, F64)
    period_ok = rep["period"] == rep["n_beta"] + 1
    p = tentmap.TentParams(0.5, 0.7)
    hist = analysis.sample_histogram(p, 0.3, 2, 1000, F64)
    pair = (hist.counts[85] + hist.counts[170]) / hist.samples
    report("criterion 06 half-alpha degradation",
           period_ok and pair >= 0.8,
           f"period={rep['period']} (n_beta+1={rep['n_beta'] + 1}), "
           f"freq(85)+freq(170)={pair:.3f}")


def test_criterion_07_guess_complexity():
    t0 = time.perf_counter()
    exact_ok = all(
        analysis.guess_complexity(Fraction(1, 2), n)[0]
        == Fraction((1 << (4 * n)) + 1, 2)
        for n in (1, 2, 16))
    grid = [analysis.guess_complexity(Fraction(i, 100), 16)[1]
            for i in range(1, 50)]
    mono_ok = all(b >= a - 1e-9 for a, b in zip(grid, grid[1:]))
    mc_ok = True
    worst = 0.0
    for alpha in (Fraction(1, 10), Fraction(2, 10), Fraction(3, 10),
                  Fraction(4, 10)):
        com = float(analysis.guess_complexity(alpha, 1)[0])
        mc = mean_rank_monte_carlo(float(alpha), 1, 10 ** 5, seed=7)
        rel = abs(mc - com) / com
        worst = max(worst, rel)
        mc_ok = mc_ok and rel < 0.02
    elapsed = time.perf_counter() - t0
    report("criterion 07 guess complexity",
           exact_ok and mono_ok and mc_ok and elapsed < 60,
           f"exact={exact_ok}, monotone={mono_ok}, "
           f"worst MC deviation={worst:.4f}, {elapsed:.1f}s")


def test_criterion_08_beta_impact():
    p, expected, dec_bytes = analysis.beta_impact(30)
    exact_ok = (p, expected, dec_bytes) == \
        (Fraction(1, 2 ** 29), 2 ** 29, 2 ** 26)
    mean = analysis.first_hit_model_trials(16, 200, seed=1008)
    range_ok = 2 ** 14 <= mean <= 2 ** 16
    report("criterion 08 beta impact",
           exact_ok and range_ok,
           f"beta_impact(30) exact={exact_ok}, model mean={mean:.0f}")


def test_criterion_09_normalization():
    ok = True
    for n in (1, 2):
        for alpha in (Fraction(1, 10), Fraction(1, 3), Fraction(1, 2),
                      Fraction(9, 10)):
            total = sum(analysis.theoretical_prob(a, alpha, n)
                        for a in range(1 << (4 * n)))
            ok = ok and total == 1
    report("criterion 09 normalization", ok, "exact rational sums")


def test_criterion_10_mended_extractor():
    # 32000 bits = 4000 vectors at n=2
    p = tentmap.TentParams(FP.from_float(0.1), FP.from_float(0.7))
    u = keystream.build_noise_vectors(FP.from_float(0.3), p, 2, 3999, FP,
                                      mended=True)
    ones = sum(bin(v).count("1") for v in u) / 32000
    counts = [0] * 256
    for v in u:
        counts[v] += 1
    max_bin = max(counts) / len(u)
    report("criterion 10 mended extractor",
           0.45 <= ones <= 0.55 and max_bin <= 0.05,
           f"per-bit 1-frequency={ones:.3f}, max bin={max_bin:.3f} "
           f"(serial correlation of the deterministic orbit concentrates "
           f"mass on a few alternating patterns)")
