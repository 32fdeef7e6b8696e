"""Session setup, encryption/decryption and the key/ciphertext file formats."""

import random
import warnings

import pytest

from tentbreak import cipher, tentmap
from tentbreak.backend import ParameterError, get_backend
from tentbreak.cipher import KeyMaterial, Message, WeakKeyWarning

FP = get_backend("fp62")
F64 = get_backend("f64")

GOLDEN_PT = [0x00, 0xFF, 0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC]
GOLDEN_CT = [0xFF, 0x7B, 0xAA, 0xFC, 0xF8, 0x5C, 0x62, 0x90]


def make_session(backend=FP, alpha=0.43, t=1234, n=2, r=8):
    key = KeyMaterial(backend.from_float(alpha), backend.from_float(0.7),
                      backend.from_float(0.37), 0xA5 & ((1 << (4 * n)) - 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeakKeyWarning)
        return cipher.init_session(key, t, n, r, backend)


def test_golden_vector():
    s = make_session()
    ct = cipher.encrypt(s, Message(GOLDEN_PT, 1234)).blocks
    assert ct == GOLDEN_CT


def test_golden_vector_decrypts():
    s = make_session()
    pt = cipher.decrypt(s, Message(GOLDEN_CT, 1234)).blocks
    assert pt == GOLDEN_PT


def test_encrypt_only_session_builds_no_inverse():
    s = make_session()
    assert cipher.encrypt(s, Message(GOLDEN_PT, 1234)).blocks == GOLDEN_CT
    assert "Finv" not in vars(s)
    assert all(f._inv is None for f in s.F)
    assert cipher.decrypt(s, Message(GOLDEN_CT, 1234)).blocks == GOLDEN_PT
    assert s.Finv is vars(s)["Finv"]  # built once, on the first decryption
    assert [f._inv for f in s.F] == s.Finv


def test_registers_start_at_noise_vectors():
    s = make_session()
    assert (s.U[0], s.U[1]) == (0xF4, 0x9F)
    # first ciphertext block from the register equations directly
    from tentbreak import keystream
    u2 = s.U[2]
    c1 = keystream.apply(s.F[0], GOLDEN_PT[0] ^ ((s.U[0] + u2) & 0xFF)) \
        ^ ((s.U[1] + u2) & 0xFF)
    assert c1 == GOLDEN_CT[0]


def test_roundtrip_random_sessions():
    rng = random.Random(42)
    for backend in (FP, F64):
        for n in (1, 2):
            for _ in range(20):
                key = KeyMaterial(backend.from_float(rng.uniform(0.05, 0.95)),
                                  backend.from_float(rng.uniform(0.05, 0.95)),
                                  backend.from_float(rng.uniform(0.05, 0.95)),
                                  rng.randrange(1 << (4 * n)))
                t = rng.randrange(1, 10 ** 9)
                r = rng.randrange(1, 33)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", WeakKeyWarning)
                    s = cipher.init_session(key, t, n, r, backend)
                pt = [rng.randrange(1 << (4 * n)) for _ in range(r)]
                ct = cipher.encrypt(s, Message(pt, t))
                assert cipher.decrypt(s, ct).blocks == pt


def test_timestamp_changes_ciphertext():
    a = make_session(t=1234)
    b = make_session(t=1235)
    pt = Message(GOLDEN_PT, 0)
    assert cipher.encrypt(a, pt).blocks != cipher.encrypt(b, pt).blocks


def test_weak_key_warning():
    key = KeyMaterial(FP.from_float(0.2), FP.from_float(0.7),
                      FP.from_float(0.37), 0xA5)
    with pytest.warns(WeakKeyWarning):
        cipher.init_session(key, 1234, 2, 4, FP)
    # the recommended band is silent
    strong = KeyMaterial(FP.from_float(0.504), FP.from_float(0.7),
                         FP.from_float(0.37), 0xA5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", WeakKeyWarning)
        cipher.init_session(strong, 1234, 2, 4, FP)


def test_degenerate_timestamp_flagged():
    s = make_session(t=1000)
    assert s.degenerate
    assert not make_session(t=1234).degenerate


def test_message_longer_than_r_rejected():
    s = make_session(r=4)
    with pytest.raises(ParameterError):
        cipher.encrypt(s, Message([0] * 5, 1234))


def test_wide_block_rejected():
    s = make_session()
    with pytest.raises(ParameterError):
        cipher.encrypt(s, Message([0x100], 1234))


def test_bad_parameters_rejected():
    key = KeyMaterial(FP.from_float(0.504), FP.from_float(0.7),
                      FP.from_float(0.37), 0xA5)
    with pytest.raises(ParameterError):
        cipher.init_session(key, 1234, 0, 4, FP)
    with pytest.raises(ParameterError):
        cipher.init_session(key, 1234, 2, 0, FP)
    wide = KeyMaterial(key.alpha, key.beta, key.gamma, 0x1FF)
    with pytest.raises(ParameterError):
        cipher.init_session(wide, 1234, 2, 4, FP)


def test_key_file_roundtrip(tmp_path):
    path = tmp_path / "key.txt"
    key = KeyMaterial(FP.from_float(0.43), FP.from_float(0.7),
                      FP.from_float(0.37), 0xA5)
    cipher.save_key(key, 2, FP, path)
    loaded, n, backend = cipher.load_key(path)
    assert n == 2
    assert loaded == key
    assert backend.bits == FP.bits


def test_key_file_roundtrip_binary64(tmp_path):
    path = tmp_path / "key.txt"
    key = KeyMaterial(0.43, 0.7, 0.37, 0xA5)
    cipher.save_key(key, 2, F64, path)
    loaded, n, _ = cipher.load_key(path)
    assert loaded == key


def test_key_file_missing_field(tmp_path):
    path = tmp_path / "key.txt"
    path.write_text("alpha=f64:3fdb851eb851eb85\nn=2\n")
    with pytest.raises(ParameterError):
        cipher.load_key(path)


def test_ciphertext_file_roundtrip(tmp_path):
    path = tmp_path / "ct.txt"
    cipher.save_ciphertext(Message(GOLDEN_CT, 1234), 2, path)
    msg, n = cipher.load_ciphertext(path)
    assert (msg.blocks, msg.t, n) == (GOLDEN_CT, 1234, 2)
    header = path.read_text().splitlines()[0]
    assert header == "YTS1 t=1234 n=2 len=8"


def test_ciphertext_file_rejects_garbage(tmp_path):
    path = tmp_path / "ct.txt"
    path.write_text("not a ciphertext\n")
    with pytest.raises(ParameterError):
        cipher.load_ciphertext(path)
