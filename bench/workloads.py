"""The benchmark's four workloads.

Each workload is a closed loop with one client.  ``setup`` builds all inputs
from the workload seed (keys, sessions, messages); ``op`` runs one operation
against those inputs, checks its outputs, and returns the wall time of its
two stages, the list of failed checks, and work counts.  ``round`` is the
number of consecutive operations that together hold the workload's input
mix.  Every workload uses the fp62 backend; nothing starts more than the
calling process.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import time
import warnings
from fractions import Fraction

BACKEND = "fp62"


def _key(mods, rng, n):
    """A victim key drawn as the attack command draws one; alpha may be weak."""
    fp = mods["backend"].get_backend(BACKEND)
    return mods["cipher"].KeyMaterial(
        fp.from_float(rng.uniform(0.02, 0.98)),
        fp.from_float(rng.uniform(0.02, 0.98)),
        fp.from_float(rng.uniform(0.02, 0.98)),
        rng.randrange(1 << (4 * n)))


def _session(mods, rng, n, r):
    cipher = mods["cipher"]
    fp = mods["backend"].get_backend(BACKEND)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", cipher.WeakKeyWarning)
        return cipher.init_session(_key(mods, rng, n), rng.randrange(1, 10 ** 9),
                                   n, r, fp)


def _encrypt(mods, session, blocks):
    cipher = mods["cipher"]
    return cipher.encrypt(session, cipher.Message(blocks, session.t)).blocks


# ---------------------------------------------------------------------------
# break-n4: the paper's full pipeline

class BreakN4:
    """Known messages -> full_attack -> keyless decryption of fresh traffic."""

    n, r = 4, 8
    round = 1

    def __init__(self, sessions=4, fresh_messages=512):
        self.pool = sessions
        self.fresh_messages = fresh_messages

    def setup(self, mods, seed, workdir):
        rng = random.Random(f"break-n4:{seed}")
        n, r, top = self.n, self.r, 1 << (4 * self.n)
        victims = []
        for _ in range(self.pool):
            s = _session(mods, rng, n, r)
            known = []
            for _ in range(2):
                p = [rng.randrange(top) for _ in range(r)]
                known.append((p, _encrypt(mods, s, p)))
            fresh = [[rng.randrange(top) for _ in range(r)]
                     for _ in range(self.fresh_messages)]
            victims.append((s, known, fresh, [_encrypt(mods, s, p) for p in fresh]))
        return {"mods": mods, "victims": victims, "seed": seed}

    def op(self, state, i):
        attack = state["mods"]["attack"]
        session, known, fresh, fresh_ct = state["victims"][i % len(state["victims"])]
        n, r = self.n, self.r
        oracle = attack.EncryptionOracle(session)
        t0 = time.perf_counter()
        report = attack.full_attack(oracle, known, r, n, seed=state["seed"] * 100003 + i)
        t1 = time.perf_counter()
        plain = [attack.keyless_decrypt(report.state, c) for c in fresh_ct]
        t2 = time.perf_counter()
        failed = []
        if plain != fresh:
            failed.append("keyless decryption differs from the fresh plaintext")
        if any(report.state.perms[j].dest != session.F[j].dest for j in range(r)):
            failed.append("recovered permutations differ from session.F")
        if report.recovery_queries != (4 * n + 1) * r:
            failed.append(f"recovery used {report.recovery_queries} queries, "
                          f"not (4n+1)r = {(4 * n + 1) * r}")
        return (t1 - t0, t2 - t1), failed, {"oracle_queries": oracle.query_count}


# ---------------------------------------------------------------------------
# recover-n16: CPA and CCA permutation recovery at the widest block

class RecoverN16:
    """recover_all_f through EncryptionOracle, recover_all_finv through
    DecryptionOracle, both checked against session.F."""

    n = 16
    round = 1

    def __init__(self, r=32, sessions=4):
        self.r = r
        self.pool = sessions

    def setup(self, mods, seed, workdir):
        rng = random.Random(f"recover-n16:{seed}")
        return {"mods": mods,
                "sessions": [_session(mods, rng, self.n, self.r)
                             for _ in range(self.pool)]}

    def op(self, state, i):
        attack = state["mods"]["attack"]
        session = state["sessions"][i % len(state["sessions"])]
        n, r = self.n, self.r
        queries = (4 * n + 1) * r
        enc = attack.EncryptionOracle(session)
        dec = attack.DecryptionOracle(session)
        t0 = time.perf_counter()
        via_cpa = attack.recover_all_f(enc, r, n)
        t1 = time.perf_counter()
        via_cca = attack.recover_all_finv(dec, r, n)
        t2 = time.perf_counter()
        failed = []
        for what, got, oracle in (("cpa", via_cpa, enc), ("cca", via_cca, dec)):
            if any(got.perms[j].dest != session.F[j].dest for j in range(r)):
                failed.append(f"{what} recovery differs from session.F")
            if oracle.query_count != queries:
                failed.append(f"{what} used {oracle.query_count} queries, "
                              f"not (4n+1)r = {queries}")
        return (t1 - t0, t2 - t1), failed, {
            "oracle_queries": enc.query_count + dec.query_count}


# ---------------------------------------------------------------------------
# traffic-n16: cipher users through the command line

class TrafficN16:
    """cli.main encrypt then decrypt, one file per message and operation.

    Message lengths run through the log-uniform grid 2^0 .. 2^max_log2
    blocks in rounds, each round in its own seeded order; the seed also
    picks the key, the contents and every timestamp.  run.py sums the
    times of each whole round, so its figures always cover the same length
    mix and do not depend on where the clock stopped.
    """

    n = 16

    def __init__(self, max_log2=13, rounds=4):
        self.lengths = [1 << k for k in range(max_log2 + 1)]
        self.rounds = rounds
        self.round = len(self.lengths)

    def setup(self, mods, seed, workdir):
        rng = random.Random(f"traffic-n16:{seed}")
        cli = mods["cli"]
        key = os.path.join(workdir, "key.txt")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["keygen", "--backend", BACKEND, "--n", str(self.n),
                             "--seed", str(rng.randrange(1 << 30)), "--out", key])
        if code != 0:
            raise RuntimeError(f"keygen exited {code}")
        messages = []
        for b in range(self.rounds):
            order = list(self.lengths)
            rng.shuffle(order)
            for k, blocks in enumerate(order):
                path = os.path.join(workdir, f"m{b}-{k}.bin")
                data = rng.randbytes(blocks * self.n // 2)
                with open(path, "wb") as fh:
                    fh.write(data)
                messages.append((path, data))
        return {"mods": mods, "key": key, "messages": messages,
                "times": random.Random(f"traffic-n16:t:{seed}"),
                "ct": os.path.join(workdir, "ct.txt"),
                "out": os.path.join(workdir, "out.bin")}

    def op(self, state, i):
        cli, key = state["mods"]["cli"], state["key"]
        path, data = state["messages"][i % len(state["messages"])]
        t = state["times"].randrange(1, 10 ** 9)  # fresh per message
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            enc = cli.main(["encrypt", "--key", key, "--t", str(t), path,
                            "--out", state["ct"]])
            t1 = time.perf_counter()
            dec = cli.main(["decrypt", "--key", key, state["ct"],
                            "--out", state["out"]])
            t2 = time.perf_counter()
        failed = []
        if enc != 0 or dec != 0:
            failed.append(f"cli exit codes encrypt={enc} decrypt={dec}")
        with open(state["out"], "rb") as fh:
            if fh.read() != data:
                failed.append(f"decrypted {len(data)} B file differs from the input")
        return (t1 - t0, t2 - t1), failed, {"bytes": len(data)}


# ---------------------------------------------------------------------------
# diagnostics: the paper's figures

class Diagnostics:
    """One figure set per operation: Monte Carlo figures (census, mended
    histogram, beta-model trials) then exact figures (complexity curve,
    degradation reports)."""

    round = 1
    workers = 2  # fixed: Monte Carlo results depend on the worker count
    hit_trials = 300  # the beta-model check's 30 % tolerance assumes this

    def __init__(self, census_L=16, census_samples=500, hist_samples=10000,
                 curve_n=16, hit_L=12, degradations=4):
        self.census_L = census_L
        self.census_samples = census_samples
        self.hist_samples = hist_samples
        self.curve_n = curve_n
        self.hit_L = hit_L
        self.degradations = degradations

    def setup(self, mods, seed, workdir):
        fp = mods["backend"].get_backend(BACKEND)
        return {"mods": mods, "fp": fp, "seed": seed,
                "hist_params": mods["tentmap"].TentParams(fp.from_float(0.1),
                                                          fp.from_float(0.7))}

    def op(self, state, i):
        analysis, fp = state["mods"]["analysis"], state["fp"]
        rng = random.Random(f"diagnostics:{state['seed']}:{i}")
        sub = rng.randrange(1 << 30)
        failed = []
        t0 = time.perf_counter()
        mean, lengths = analysis.orbit_length_census(
            self.census_L, 0.37, self.census_samples, seed=sub, workers=self.workers)
        hist = analysis.sample_histogram(
            state["hist_params"], fp.from_float(rng.uniform(0.05, 0.95)), 4,
            self.hist_samples, fp, mended=True)
        hit_mean = analysis.first_hit_model_trials(
            self.hit_L, self.hit_trials, seed=sub, workers=self.workers)
        t1 = time.perf_counter()
        curve = analysis.complexity_curve(self.curve_n)
        reports = [analysis.degradation_report(fp.from_float(rng.uniform(0.05, 0.95)),
                                               rng.randrange(1, fp.one), fp)
                   for _ in range(self.degradations)]
        t2 = time.perf_counter()
        if len(lengths) != self.census_samples or \
                not all(1 <= x <= (1 << self.census_L) + 1 for x in lengths):
            failed.append("census rho length outside 1..2^L+1")
        if sum(hist.counts) != self.hist_samples or len(hist.counts) != 1 << 16:
            failed.append("histogram counts do not sum to the sample count")
        # 300 trials of a geometric law: 30 % is about five standard errors
        expected = 1 << (self.hit_L - 1)
        if abs(hit_mean - expected) > 0.3 * expected:
            failed.append(f"beta-model mean {hit_mean:.1f} not near 2^(L-1)")
        top = 4 * self.curve_n
        exact_half = analysis.log2_fraction(Fraction((1 << top) + 1, 2))
        if len(curve) != 99 or not all(0 <= y <= top for _, y in curve) or \
                not math.isclose(dict(curve)[0.5], exact_half):
            failed.append("complexity curve outside 0 <= log2 Com <= 4n")
        if not all(rep["ok"] for rep in reports):
            failed.append("degradation report not ok")
        return (t1 - t0, t2 - t1), failed, {}


WORKLOADS = {
    "break-n4": BreakN4,
    "recover-n16": RecoverN16,
    "traffic-n16": TrafficN16,
    "diagnostics": Diagnostics,
}

# Sizes for the smoke check: every workload in about a second.
SMALL = {
    "break-n4": dict(sessions=1, fresh_messages=2),
    "recover-n16": dict(r=2, sessions=1),
    "traffic-n16": dict(max_log2=3, rounds=1),
    "diagnostics": dict(census_L=10, census_samples=20, hist_samples=200,
                        curve_n=2, hit_L=8, degradations=1),
}
