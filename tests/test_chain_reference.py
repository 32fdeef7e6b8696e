"""The register chain, permutation recovery and the full attack against the
spec (tests/spec.py), on seeded sessions.

Encryption, decryption and keyless decryption must equal the spec's chain,
and recovery must send the spec's (4n+1)-query battery and read the same
maps from it; the fast paths' errors are matched directly.
_ref_full_attack writes full_attack's disambiguation schedule out on top of
the spec, so that a faster solver keeps it.
"""

import random
from functools import partial

import pytest

import spec
from tentbreak import attack, cipher
from tentbreak.attack import OracleModelViolation, RecoveredState
from tentbreak.backend import ParameterError, get_backend
from tentbreak.cipher import Message
from tentbreak.keystream import BitPermutation
from sessions import encrypt_random, random_session

# each name is the test id and the seed string of its random data
BACKENDS = {"fixed-point": get_backend("fp62"), "binary64": get_backend("f64")}


def _ref_full_attack(oracle, known_messages, r, n, seed=0, max_extra_queries=512):
    """full_attack's schedule: f_0..f_{r-1} from the spec's battery; reg1 =
    (0, C_1 xor f_0(P_1)) from the first known message; solve_uj on the
    known pairs of each block j >= 2; then, while a candidate set is not one
    top-bit family, one random r-block chosen plaintext from the stream
    seeded "disambiguate:{seed}" filters every such set, until
    max_extra_queries are spent."""
    F = [spec.recover(oracle.encrypt_blocks, j + 1, n) for j in range(r)]
    recovery_queries = oracle.query_count
    state = RecoveredState(n=n, r=r,
                           perms={j: BitPermutation(f, n) for j, f in enumerate(F)},
                           provenance={f"f{j}": "cpa" for j in range(r)})
    p1, c1 = next((p[0], c[0]) for p, c in known_messages if p)
    state.reg1 = (0, c1 ^ spec.apply(F[0], p1))
    state.provenance["reg1"] = "affine"
    top = 4 * n - 1
    sets = {j: attack.solve_uj([(p[j - 2], p[j - 1], c[j - 2], c[j - 1])
                                for p, c in known_messages if len(p) >= j],
                               state.perms[j - 1], n)
            for j in range(2, max(len(p) for p, _ in known_messages) + 1)}

    def settled(j):
        sols = sets[j]
        return len(sols) <= 1 or F[j - 1][top] == top and \
            len({x % (1 << top) for x in sols}) == 1

    rng = random.Random(f"disambiguate:{seed}")
    extra = 0
    stopped = "settled"
    while not all(settled(j) for j in sets):
        if extra == max_extra_queries:
            stopped = "budget"
            break
        p = [rng.randrange(1 << (4 * n)) for _ in range(r)]
        c = oracle.encrypt_blocks(p)
        extra += 1
        for j in sets:
            if not settled(j):
                pair = (p[j - 2], p[j - 1], c[j - 2], c[j - 1])
                f = partial(spec.apply, F[j - 1])
                sets[j] = [x for x in sets[j] if spec.consistent(x, f, pair, n)]
    for j, sols in sets.items():
        state.noise[j + 1] = sols[0]
        state.provenance[f"U{j + 1}"] = "solved" if settled(j) else "ambiguous"
    return attack.AttackReport(state=state, recovery_queries=recovery_queries,
                               extra_queries=extra, candidate_sets=sets,
                               stopped=stopped)


# ---------------------------------------------------------------------------
# helpers

def _spec_keyless(state, blocks):
    return spec.keyless_decrypt({j: f.dest for j, f in state.perms.items()},
                                state.noise, state.reg1, blocks, state.n)


def _recording(query, sent):
    """query, appending each message it is sent to `sent`."""
    def record(blocks):
        sent.append(list(blocks))
        return query(blocks)
    return record


def _exact_state(s):
    """The recovered state that reproduces session s exactly."""
    mask = (1 << (4 * s.n)) - 1
    return RecoveredState(
        n=s.n, r=s.r, perms=dict(enumerate(s.F)),
        noise={j: s.U[j] for j in range(3, s.r + 2)},
        reg1=((s.U[0] + s.U[2]) & mask, (s.U[1] + s.U[2]) & mask))


def _report_fields(report):
    st = report.state
    return (report.recovery_queries, report.extra_queries, report.stopped,
            report.candidate_sets, st.noise, st.reg1, st.provenance,
            list(st.provenance), {j: f.dest for j, f in st.perms.items()})


# ---------------------------------------------------------------------------
# cross-checks

@pytest.mark.parametrize("kind", BACKENDS)
def test_chain_matches_reference_encrypt_decrypt(kind):
    backend = BACKENDS[kind]
    rng = random.Random(f"chain:{kind}")
    for n in range(1, 17):
        r = rng.randint(1, 6)
        s = random_session(rng, n, r, backend)
        F = [f.dest for f in s.F]
        top = 1 << (4 * n)
        for length in (0, 1, r):
            p = Message([rng.randrange(top) for _ in range(length)], s.t)
            c = cipher.encrypt(s, p)
            assert (c.blocks, c.t) == (spec.encrypt(F, s.U, p.blocks, n), s.t)
            c = Message(c.blocks, s.t + 1)    # decrypt keeps the message's t
            back = cipher.decrypt(s, c)
            assert (back.blocks, back.t) == \
                (spec.decrypt(F, s.U, c.blocks, n), s.t + 1)
            assert back.blocks == p.blocks
        # too long, and a too-wide block at every position
        for fn in (cipher.encrypt, cipher.decrypt):
            with pytest.raises(ParameterError, match=(
                    f"^message has {r + 1} blocks but the session only "
                    f"precomputed r={r}$")):
                fn(s, Message([0] * (r + 1), s.t))
            for k in range(r):
                wide = [rng.randrange(top) for _ in range(r)]
                wide[k] |= top << rng.randrange(3)
                with pytest.raises(ParameterError,
                                   match=f"^block {k + 1} wider than 4n bits$"):
                    fn(s, Message(wide, s.t))


@pytest.mark.parametrize("kind", BACKENDS)
def test_keyless_chain_matches_reference(kind):
    backend = BACKENDS[kind]
    rng = random.Random(f"keyless:{kind}")
    for n in range(1, 17):
        r = rng.randint(2, 6)
        s = random_session(rng, n, r, backend)
        top = 1 << (4 * n)
        [(p, c)] = encrypt_random(rng, s, 1)
        longer = c + [rng.randrange(top) for _ in range(2)]
        states = [_exact_state(s) for _ in range(5)]
        states[1].reg1 = None
        del states[2].perms[rng.randrange(r)]
        del states[3].noise[rng.randrange(3, r + 2)]
        del states[4].perms[0]
        for state in states:
            for blocks in ([], c[:1], c, longer):
                got = attack.keyless_decrypt(state, blocks)
                assert got == _spec_keyless(state, blocks)
                known = [b for b in got if b is not None]
                assert known == p[:len(known)]
        assert attack.keyless_decrypt(states[0], longer) == p + [None, None]
        assert attack.keyless_decrypt(states[1], c) == [None] * r
        # a too-wide block fails inside the covered prefix and reads as None
        # past it
        for k in range(r + 2):
            wide = list(longer)
            wide[k] |= top
            for state in states:
                covered = sum(b is not None for b in _spec_keyless(state, longer))
                if k < covered:
                    with pytest.raises(ParameterError,
                                       match=f"^block {k + 1} wider than 4n bits$"):
                        attack.keyless_decrypt(state, wide)
                else:
                    assert attack.keyless_decrypt(state, wide) == \
                        _spec_keyless(state, wide)


@pytest.mark.parametrize("kind", BACKENDS)
def test_recovery_matches_reference(kind):
    backend = BACKENDS[kind]
    rng = random.Random(f"recover:{kind}")
    for n in range(1, 17):
        r = rng.randint(1, 3)
        s = random_session(rng, n, r, backend)
        F = {j: f.dest for j, f in enumerate(s.F)}
        battery = [m for j in range(1, r + 1) for m in spec.battery(j, n)]
        for recover, oracle, method, tag in (
                (attack.recover_all_f, attack.EncryptionOracle(s),
                 "encrypt_blocks", "cpa"),
                (attack.recover_all_finv, attack.DecryptionOracle(s),
                 "decrypt_blocks", "cca")):
            query, sent = getattr(oracle, method), []
            setattr(oracle, method, _recording(query, sent))
            state = recover(oracle, r, n)
            assert {j: f.dest for j, f in state.perms.items()} == F
            assert list(state.provenance.items()) == \
                [(f"f{j}", tag) for j in range(r)]
            assert sent == battery
            assert oracle.query_count == (4 * n + 1) * r
            # the spec reads the same maps off the same oracle
            maps = [spec.recover(query, j, n) for j in range(1, r + 1)]
            if tag == "cca":
                maps = [spec.invert(m) for m in maps]
            assert dict(enumerate(maps)) == F


def test_recovery_drift_matches_reference():
    rng = random.Random("drift")
    violations = 0
    for n in (1, 2, 4):
        s = random_session(rng, n, 4, BACKENDS["fixed-point"])
        got, want = attack.Oracle(s, drift=True), attack.Oracle(s, drift=True)
        try:
            maps = [spec.recover(want.encrypt_blocks, j, n) for j in range(1, 5)]
        except ValueError:
            violations += 1
            with pytest.raises(OracleModelViolation, match=(
                    "^ciphertext difference 0x[0-9a-f]+ is not a single "
                    "bit; the oracle clock is not actually fixed$")):
                attack.recover_all_f(got, 4, n)
        else:
            state = attack.recover_all_f(got, 4, n)
            assert [f.dest for f in state.perms.values()] == maps
        assert got.query_count == want.query_count
    assert violations


@pytest.mark.parametrize("n, r", [(2, 8), (4, 8)])
def test_full_attack_matches_reference(n, r):
    rng = random.Random(f"full:{n}")
    top = 1 << (4 * n)
    for trial in range(6):
        s = random_session(rng, n, r, BACKENDS["fixed-point"])
        known = [m for length in (r, rng.randint(1, r))[:rng.randint(1, 2)]
                 for m in encrypt_random(rng, s, 1, length)]
        for budget in (0, 512):
            got, want = attack.EncryptionOracle(s), attack.EncryptionOracle(s)
            a = attack.full_attack(got, known, r, n, seed=trial,
                                   max_extra_queries=budget)
            b = _ref_full_attack(want, known, r, n, seed=trial,
                                 max_extra_queries=budget)
            assert _report_fields(a) == _report_fields(b)
            assert got.query_count == want.query_count
    oracle = attack.EncryptionOracle(s)
    with pytest.raises(ParameterError, match="^at least one known message is needed$"):
        attack.full_attack(oracle, [], r, n)
    assert oracle.query_count == 0
