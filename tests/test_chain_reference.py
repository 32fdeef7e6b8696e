"""The shared register chain and differential-recovery routine against the
separate loops they replaced.

The `_ref_*` functions are the earlier per-direction implementations,
kept verbatim apart from their names, the module prefixes they need here,
the first line of _ref_solve_all_noise, which creates the state's
candidate-set attribute that RecoveredState no longer has, its `order`
argument, which was always None here and which solve_uj no longer takes,
and the recovery loops' base-block arguments, which were always 0 here and
which gen_cpa_battery no longer takes.  Every test asserts equal outputs,
or equal error types and messages, on seeded sessions.
"""

import random
import warnings

import pytest

from tentbreak import attack, cipher, keystream
from tentbreak.attack import (OracleModelViolation, RecoveredState,
                              _pair_consistent, _settled, _single_bit_index,
                              gen_cpa_battery, solve_uj)
from tentbreak.backend import ParameterError, get_backend
from tentbreak.cipher import KeyMaterial, Message, WeakKeyWarning
from tentbreak.keystream import BitPermutation

# each name is the test id and the seed string of its random data
BACKENDS = {"fixed-point": get_backend("fp62"), "binary64": get_backend("f64")}


# ---------------------------------------------------------------------------
# reference loops

def _ref_encrypt(session, plain):
    if len(plain.blocks) > session.r:
        raise ParameterError(
            f"message has {len(plain.blocks)} blocks but the session only "
            f"precomputed r={session.r}")
    mask = (1 << (4 * session.n)) - 1
    c_prev = session.U[0]
    p_prev = session.U[1]
    out = []
    for j, p in enumerate(plain.blocks, start=1):
        if p >> (4 * session.n):
            raise ParameterError(f"block {j} wider than 4n bits")
        u = session.U[j + 1]
        c = keystream.apply(session.F[j - 1], p ^ ((c_prev + u) & mask)) \
            ^ ((p_prev + u) & mask)
        out.append(c)
        p_prev, c_prev = p, c
    return Message(out, session.t)


def _ref_decrypt(session, cipher):
    if len(cipher.blocks) > session.r:
        raise ParameterError(
            f"message has {len(cipher.blocks)} blocks but the session only "
            f"precomputed r={session.r}")
    mask = (1 << (4 * session.n)) - 1
    c_prev = session.U[0]
    p_prev = session.U[1]
    out = []
    for j, c in enumerate(cipher.blocks, start=1):
        if c >> (4 * session.n):
            raise ParameterError(f"block {j} wider than 4n bits")
        u = session.U[j + 1]
        p = keystream.apply(session.Finv[j - 1], c ^ ((p_prev + u) & mask)) \
            ^ ((c_prev + u) & mask)
        out.append(p)
        p_prev, c_prev = p, c
    return Message(out, cipher.t)


def _ref_keyless_decrypt(state, blocks):
    mask = (1 << (4 * state.n)) - 1
    out = []
    p_prev = None
    c_prev = None
    for j, c in enumerate(blocks, start=1):
        f = state.perms.get(j - 1)
        if j == 1:
            if f is None or state.reg1 is None:
                out.append(None)
            else:
                y, z = state.reg1
                out.append(keystream.apply(keystream.invert(f), c ^ z) ^ y)
        else:
            u = state.noise.get(j + 1)
            if f is None or u is None or p_prev is None or c_prev is None:
                out.append(None)
            else:
                out.append(keystream.apply(keystream.invert(f),
                                           c ^ ((p_prev + u) & mask))
                           ^ ((c_prev + u) & mask))
        p_prev = out[-1]
        c_prev = c
    return out


def _ref_recover_fj_cpa(oracle, j, n):
    battery = gen_cpa_battery(j, n)
    base_c = oracle.encrypt_blocks(battery[0])[j - 1]
    dest = []
    for msg in battery[1:]:
        c = oracle.encrypt_blocks(msg)[j - 1]
        dest.append(_single_bit_index(base_c ^ c, "ciphertext"))
    if sorted(dest) != list(range(4 * n)):
        raise OracleModelViolation("recovered map is not a bijection")
    return BitPermutation(tuple(dest), n)


def _ref_recover_all_f(oracle, r, n):
    state = RecoveredState(n=n, r=r)
    for j in range(1, r + 1):
        state.perms[j - 1] = _ref_recover_fj_cpa(oracle, j, n)
        state.provenance[f"f{j - 1}"] = "cpa"
    return state


def _ref_recover_finv_cca(oracle, j, n):
    battery = gen_cpa_battery(j, n)  # same shape, interpreted as ciphertexts
    base_p = oracle.decrypt_blocks(battery[0])[j - 1]
    dest = []
    for msg in battery[1:]:
        p = oracle.decrypt_blocks(msg)[j - 1]
        dest.append(_single_bit_index(base_p ^ p, "plaintext"))
    if sorted(dest) != list(range(4 * n)):
        raise OracleModelViolation("recovered map is not a bijection")
    return BitPermutation(tuple(dest), n)


def _ref_recover_all_finv(oracle, r, n):
    state = RecoveredState(n=n, r=r)
    for j in range(1, r + 1):
        finv = _ref_recover_finv_cca(oracle, j, n)
        state.perms[j - 1] = keystream.invert(finv)
        state.provenance[f"f{j - 1}"] = "cca"
    return state


def _ref_solve_all_noise(state, known_messages):
    state.candidate_sets = {}
    if not known_messages:
        raise ParameterError("at least one known message is needed")
    first_pairs = [(p[0], c[0]) for p, c in known_messages if p]
    state.reg1 = _ref_solve_block1_registers(first_pairs, state.perms[0], state.n)
    state.provenance["reg1"] = "affine"
    max_len = max(len(p) for p, _ in known_messages)
    for j in range(2, max_len + 1):
        pairs = [(p[j - 2], p[j - 1], c[j - 2], c[j - 1])
                 for p, c in known_messages if len(p) >= j]
        sols = solve_uj(pairs, state.perms[j - 1], state.n)
        state.candidate_sets[j] = sols
        state.noise[j + 1] = sols[0]
        state.provenance[f"U{j + 1}"] = "solved" if len(sols) == 1 else "ambiguous"
    return state


def _ref_solve_block1_registers(pairs, f0, n):
    if not pairs:
        raise ParameterError("at least one first-block pair is needed")
    p1, c1 = pairs[0]
    y = 0
    z = c1 ^ keystream.apply(f0, p1)
    f0inv = keystream.invert(f0)
    for p, c in pairs:
        if keystream.apply(f0inv, c ^ z) ^ y != p:
            raise ValueError("first-block pairs are inconsistent with f_0")
    return y, z


def _ref_full_attack(oracle, known_messages, r, n, seed=0, max_extra_queries=512):
    state = _ref_recover_all_f(oracle, r, n)
    recovery_queries = oracle.query_count
    state = _ref_solve_all_noise(state, known_messages)
    mask = (1 << (4 * n)) - 1
    sets = dict(state.candidate_sets)
    rng = random.Random(f"disambiguate:{seed}")
    extra = 0
    stopped = "settled"
    while any(not _settled(sets[j], state.perms[j - 1]) for j in sets):
        if extra == max_extra_queries:
            stopped = "budget"
            break
        p = [rng.randrange(mask + 1) for _ in range(r)]
        c = oracle.encrypt_blocks(p)
        extra += 1
        for j in sets:
            if not _settled(sets[j], state.perms[j - 1]):
                pair = (p[j - 2], p[j - 1], c[j - 2], c[j - 1])
                sets[j] = [x for x in sets[j]
                           if _pair_consistent(x, state.perms[j - 1], pair, mask)]
    for j, sols in sets.items():
        state.noise[j + 1] = sols[0]
        state.provenance[f"U{j + 1}"] = \
            "solved" if _settled(sols, state.perms[j - 1]) else "ambiguous"
    return attack.AttackReport(state=state, recovery_queries=recovery_queries,
                               extra_queries=extra, candidate_sets=sets,
                               stopped=stopped)


# ---------------------------------------------------------------------------
# helpers

def _session(rng, n, r, backend):
    key = KeyMaterial(backend.from_float(rng.uniform(0.02, 0.98)),
                      backend.from_float(rng.uniform(0.02, 0.98)),
                      backend.from_float(rng.uniform(0.02, 0.98)),
                      rng.randrange(1 << (4 * n)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeakKeyWarning)
        return cipher.init_session(key, rng.randrange(1, 10 ** 9), n, r, backend)


def _outcome(fn, *args):
    """fn's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (ValueError, OracleModelViolation) as exc:
        return type(exc), str(exc)


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
        s = _session(rng, n, r, backend)
        top = 1 << (4 * n)
        for length in (0, 1, r):
            p = Message([rng.randrange(top) for _ in range(length)], s.t)
            c, ref_c = cipher.encrypt(s, p), _ref_encrypt(s, p)
            assert (c.blocks, c.t) == (ref_c.blocks, ref_c.t)
            c = Message(c.blocks, s.t + 1)    # decrypt keeps the message's t
            back, ref_back = cipher.decrypt(s, c), _ref_decrypt(s, c)
            assert (back.blocks, back.t) == (ref_back.blocks, ref_back.t)
            assert back.blocks == p.blocks
        # too long, and a too-wide block at every position
        for fn, ref in ((cipher.encrypt, _ref_encrypt),
                        (cipher.decrypt, _ref_decrypt)):
            long = Message([0] * (r + 1), s.t)
            assert _outcome(fn, s, long) == _outcome(ref, s, long)
            assert _outcome(fn, s, long)[0] is ParameterError
            for k in range(r):
                wide = [rng.randrange(top) for _ in range(r)]
                wide[k] |= top << rng.randrange(3)
                msg = Message(wide, s.t)
                assert _outcome(fn, s, msg) == _outcome(ref, s, msg)
                assert _outcome(fn, s, msg)[0] is ParameterError


@pytest.mark.parametrize("kind", BACKENDS)
def test_keyless_chain_matches_reference(kind):
    backend = BACKENDS[kind]
    rng = random.Random(f"keyless:{kind}")
    for n in range(1, 17):
        r = rng.randint(2, 6)
        s = _session(rng, n, r, backend)
        top = 1 << (4 * n)
        p = [rng.randrange(top) for _ in range(r)]
        c = cipher.encrypt(s, Message(p, s.t)).blocks
        longer = c + [rng.randrange(top) for _ in range(2)]
        states = [_exact_state(s) for _ in range(5)]
        states[1].reg1 = None
        del states[2].perms[rng.randrange(r)]
        del states[3].noise[rng.randrange(3, r + 2)]
        del states[4].perms[0]
        for state in states:
            for blocks in ([], c[:1], c, longer):
                got = attack.keyless_decrypt(state, blocks)
                assert got == _ref_keyless_decrypt(state, blocks)
                known = [b for b in got if b is not None]
                assert known == p[:len(known)]
        assert attack.keyless_decrypt(states[0], longer) == p + [None, None]
        assert attack.keyless_decrypt(states[1], c) == [None] * r
        # a too-wide block fails inside the covered prefix and reads as None
        # past it; the error now names the block, so only its type is compared
        for k in range(r + 2):
            wide = list(longer)
            wide[k] |= top
            for state in states:
                got = _outcome(attack.keyless_decrypt, state, wide)
                ref = _outcome(_ref_keyless_decrypt, state, wide)
                if isinstance(ref, tuple):
                    assert ref[0] is ParameterError and got[0] is ParameterError
                else:
                    assert got == ref


@pytest.mark.parametrize("kind", BACKENDS)
def test_recovery_matches_reference(kind):
    backend = BACKENDS[kind]
    rng = random.Random(f"recover:{kind}")
    for n in range(1, 17):
        r = rng.randint(1, 3)
        s = _session(rng, n, r, backend)
        for new, ref, oracle in (
                (attack.recover_all_f, _ref_recover_all_f, attack.EncryptionOracle),
                (attack.recover_all_finv, _ref_recover_all_finv,
                 attack.DecryptionOracle)):
            got, want = oracle(s), oracle(s)
            a, b = new(got, r, n), ref(want, r, n)
            assert {j: f.dest for j, f in a.perms.items()} == \
                {j: f.dest for j, f in b.perms.items()} == \
                {j: f.dest for j, f in enumerate(s.F)}
            assert list(a.provenance.items()) == list(b.provenance.items())
            assert got.query_count == want.query_count == (4 * n + 1) * r


def test_recovery_drift_matches_reference():
    rng = random.Random("drift")
    violations = 0
    for n in (1, 2, 4):
        s = _session(rng, n, 4, BACKENDS["fixed-point"])
        got, want = attack.DriftingClockOracle(s), attack.DriftingClockOracle(s)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakKeyWarning)
            a = _outcome(attack.recover_all_f, got, 4, n)
            b = _outcome(_ref_recover_all_f, want, 4, n)
        if isinstance(b, tuple):
            violations += 1
            assert a == b
        else:
            assert [f.dest for f in a.perms.values()] == \
                [f.dest for f in b.perms.values()]
        assert got.query_count == want.query_count
    assert violations


@pytest.mark.parametrize("n, r", [(2, 8), (4, 8)])
def test_full_attack_matches_reference(n, r):
    rng = random.Random(f"full:{n}")
    top = 1 << (4 * n)
    for trial in range(6):
        s = _session(rng, n, r, BACKENDS["fixed-point"])
        known = []
        for length in (r, rng.randint(1, r))[:rng.randint(1, 2)]:
            p = [rng.randrange(top) for _ in range(length)]
            known.append((p, cipher.encrypt(s, Message(p, s.t)).blocks))
        for budget in (0, 512):
            got, want = attack.EncryptionOracle(s), attack.EncryptionOracle(s)
            a = attack.full_attack(got, known, r, n, seed=trial,
                                   max_extra_queries=budget)
            b = _ref_full_attack(want, known, r, n, seed=trial,
                                 max_extra_queries=budget)
            assert _report_fields(a) == _report_fields(b)
            assert got.query_count == want.query_count
    got, want = attack.EncryptionOracle(s), attack.EncryptionOracle(s)
    assert _outcome(attack.full_attack, got, [], r, n) == \
        _outcome(_ref_full_attack, want, [], r, n)
    assert got.query_count == want.query_count
