"""Session setup, encryption/decryption and the key/ciphertext file formats."""

import io
import random
import re
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import spec
from tentbreak import backend, cipher, keystream
from tentbreak.backend import ParameterError, get_backend
from tentbreak.cipher import KeyMaterial, Message
from tentbreak.keystream import BitPermutation

FP = get_backend("fp62")

GOLDEN_PT = [0x00, 0xFF, 0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC]
GOLDEN_CT = [0xFF, 0x7B, 0xAA, 0xFC, 0xF8, 0x5C, 0x62, 0x90]
# hypothesis settings of the file tests, which write under tmp_path
FILES = settings(max_examples=25, deadline=None, derandomize=True,
                 database=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def make_session(backend=FP, alpha=0.43, t=1234, n=2, r=8):
    key = KeyMaterial(backend.from_float(alpha), backend.from_float(0.7),
                      backend.from_float(0.37), 0xA5 & ((1 << (4 * n)) - 1))
    return cipher.init_session(key, t, n, r, backend)


def write_ciphertext(msg, n, path):
    """cipher.save_ciphertext of a whole message, given as one piece."""
    cipher.save_ciphertext(msg.t, n, len(msg.blocks), [msg.blocks], path)


def read_ciphertext(path):
    """(Message, n) of ciphertext file `path`, read to its end."""
    (t, n, _), *pieces = cipher.load_ciphertext(path)
    return Message([b for blocks in pieces for b in blocks], t), n


def test_golden_vector():
    s = make_session()
    ct = cipher.encrypt(s, Message(GOLDEN_PT, 1234)).blocks
    assert ct == GOLDEN_CT


def test_golden_vector_decrypts():
    s = make_session()
    pt = cipher.decrypt(s, Message(GOLDEN_CT, 1234)).blocks
    assert pt == GOLDEN_PT


def test_encrypt_only_session_builds_no_inverse(monkeypatch):
    # each direction composes only its own permutations, once, and nothing
    # is composed before a direction first reads them; decryption composes
    # only inverses
    composed, compose = [], keystream.compose_fj
    monkeypatch.setattr(keystream, "compose_fj", lambda *args, **kw: (
        composed.append(kw.get("inverse", False)) or compose(*args, **kw)))
    enc, dec = make_session(), make_session()
    assert composed == []
    assert cipher.encrypt(enc, Message(GOLDEN_PT, 1234)).blocks == GOLDEN_CT
    assert "Finv" not in vars(enc)
    assert cipher.decrypt(dec, Message(GOLDEN_CT, 1234)).blocks == GOLDEN_PT
    assert "F" not in vars(dec)
    assert composed == [False] * enc.r + [True] * dec.r
    for s in (enc, dec):
        F, Finv = s.F, s.Finv
        assert s.F is F and s.Finv is Finv
        assert [f.dest for f in Finv] == [keystream.invert(f).dest for f in F]
    assert composed == [False] * enc.r + [True] * dec.r * 2 + [False] * dec.r
    # a session read once composes each map when its chain reaches the block,
    # once per chain and for no block past the message, and neither it nor
    # its source keeps a list
    composed.clear()
    source = make_session()
    once = source.once()
    assert cipher.encrypt(once, Message(GOLDEN_PT, 1234)).blocks == GOLDEN_CT
    assert cipher.decrypt(once, Message(GOLDEN_CT, 1234)).blocks == GOLDEN_PT
    assert cipher.encrypt(once, Message(GOLDEN_PT[:3], 1234)).blocks == GOLDEN_CT[:3]
    assert composed == [False] * once.r + [True] * once.r + [False] * 3
    for s in (source, once):
        assert not {"F", "Finv"} & set(vars(s))


@pytest.mark.parametrize("name", ["fp62", "f64"])
def test_session_read_once_matches_the_cached_session(name):
    # Session.once is the same session: at every block size, both directions
    # give the cached lists' blocks, and its maps are the lists' maps
    be, rng = get_backend(name), random.Random(name)
    for n in range(1, 17):
        s = make_session(be, t=rng.randrange(1, 10**9), n=n, r=12)
        for m in (12, 5):
            P = [rng.randrange(1 << (4 * n)) for _ in range(m)]
            C = cipher.encrypt(s, Message(P, s.t)).blocks
            assert cipher.encrypt(s.once(), Message(P, s.t)).blocks == C
            assert cipher.decrypt(s.once(), Message(C, s.t)).blocks == P
            assert cipher.decrypt(s, Message(C, s.t)).blocks == P
        for inverse, cached in ((False, s.F), (True, s.Finv)):
            maps = cipher.Maps(s, inverse=inverse)
            assert len(maps) == s.r
            assert [f.classes for f in maps] == [f.classes for f in cached]
            assert maps[-1].classes == cached[-1].classes
            for j in (s.r, -s.r - 1):
                with pytest.raises(IndexError):
                    maps[j]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_chain_matches_apply_per_block(data):
    # the inlined permutation equals keystream.apply on any BitPermutation,
    # with up to 4n rotation classes and dest held or not, as a loaded
    # state may hold
    n = data.draw(st.integers(1, 16))
    top = (1 << (4 * n)) - 1
    word = st.integers(0, top)
    m = data.draw(st.integers(0, 5))
    perms = [BitPermutation(data.draw(st.permutations(range(4 * n))), n)
             for _ in range(m)]
    perms = [keystream.invert(p) if data.draw(st.booleans()) else p
             for p in perms]
    U = data.draw(st.lists(word, min_size=m + 2, max_size=m + 2))
    x_prev, y_prev = data.draw(word), data.draw(word)
    blocks = data.draw(st.lists(word, max_size=m))
    want, x, y = [], x_prev, y_prev
    for j, block in enumerate(blocks, start=1):
        u = U[j + 1]
        y = keystream.apply(perms[j - 1], block ^ ((y + u) & top)) ^ ((x + u) & top)
        want.append(y)
        x = block
    assert cipher.chain(perms, x_prev, y_prev, U, blocks, n) == want
    # resumed after block k from the registers (x_k, y_k) it continues the
    # same chain, and counts and numbers blocks as the whole message does
    k = data.draw(st.integers(0, len(blocks)))
    x, y = (blocks[k - 1], want[k - 1]) if k else (x_prev, y_prev)
    assert cipher.chain(perms, x, y, U, blocks[k:], n, k) == want[k:]
    if m:
        bad = blocks[:m - 1] + [-1]
        start = data.draw(st.integers(0, len(bad) - 1))
        with pytest.raises(ParameterError,
                           match=f"^block {len(bad)} wider than 4n bits$"):
            cipher.chain(perms, x_prev, y_prev, U, bad[start:], n, start)
    with pytest.raises(ParameterError, match=(
            f"^message has {m + 1} blocks but the session only "
            f"precomputed r={m}$")):
        cipher.chain(perms, x_prev, y_prev, U, [0] * (m + 1 - k), n, k)


def test_registers_start_at_noise_vectors():
    s = make_session()
    assert (s.U[0], s.U[1]) == (0xF4, 0x9F)
    # the golden vector from the register equations directly
    assert spec.encrypt([f.dest for f in s.F], s.U, GOLDEN_PT, 2) == GOLDEN_CT


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_roundtrip_random_sessions(data):
    # decrypt inverts encrypt at every n, and both equal the spec's chain
    name = data.draw(st.sampled_from(("fp62", "f64")))
    backend, n = get_backend(name), data.draw(st.integers(1, 16))
    unit = st.floats(0.02, 0.98).map(backend.from_float)
    top = (1 << (4 * n)) - 1
    key = KeyMaterial(data.draw(unit), data.draw(unit), data.draw(unit),
                      data.draw(st.integers(0, top)))
    t, r = data.draw(st.integers(1, 10 ** 9)), data.draw(st.integers(1, 16))
    s = cipher.init_session(key, t, n, r, backend)
    pt = data.draw(st.lists(st.integers(0, top), max_size=r))
    F = [f.dest for f in s.F]
    ct = cipher.encrypt(s, Message(pt, t)).blocks
    assert ct == spec.encrypt(F, s.U, pt, n)
    assert cipher.decrypt(s, Message(ct, t)).blocks == \
        spec.decrypt(F, s.U, ct, n) == pt


def test_timestamp_changes_ciphertext():
    a = make_session(t=1234)
    b = make_session(t=1235)
    pt = Message(GOLDEN_PT, 0)
    assert cipher.encrypt(a, pt).blocks != cipher.encrypt(b, pt).blocks


@pytest.mark.filterwarnings("error")
def test_weak_key_warning():
    # check_key_strength returns the note; init_session warns of nothing
    for alpha in (0.2, 0.5):
        key = KeyMaterial(FP.from_float(alpha), FP.from_float(0.7),
                          FP.from_float(0.37), 0xA5)
        cipher.init_session(key, 1234, 2, 4, FP)
        assert cipher.check_key_strength(key, FP) == [
            f"alpha={alpha} is outside the recommended range "
            "0<|alpha-0.5|<0.01; the noise vectors will be exploitably "
            "non-uniform"]
    # the recommended band has no note
    strong = KeyMaterial(FP.from_float(0.504), FP.from_float(0.7),
                         FP.from_float(0.37), 0xA5)
    cipher.init_session(strong, 1234, 2, 4, FP)
    assert cipher.check_key_strength(strong, FP) == []


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


@st.composite
def key_files(draw):
    """(key, n, backend name) for any key in range, f64 and fp1..fp64."""
    name = draw(st.sampled_from(("fp62", "f64"))
                | st.integers(1, 64).map("fp{}".format))
    n = draw(st.integers(1, 16))
    unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True) \
        if name == "f64" else st.integers(1, get_backend(name).one - 1)
    key = KeyMaterial(draw(unit), draw(unit), draw(unit),
                      draw(st.integers(0, (1 << (4 * n)) - 1)))
    return key, n, name


@FILES
@given(key_files())
@example((KeyMaterial(FP.from_float(0.43), FP.from_float(0.7),
                      FP.from_float(0.37), 0xA5), 2, "fp62"))
@example((KeyMaterial(0.43, 0.7, 0.37, 0xA5), 2, "f64"))
def test_key_file_roundtrip(tmp_path, case):
    key, n, name = case
    backend = get_backend(name)
    cipher.save_key(key, n, backend, tmp_path / "key.txt")
    loaded = cipher.load_key(tmp_path / "key.txt")
    assert loaded == (key, n, backend)
    # a key is a read-only value: equal keys hash alike
    assert hash(loaded[0]) == hash(key)
    with pytest.raises(AttributeError):
        loaded[0].K = 0


@pytest.mark.parametrize("n", [1, 4, 16])
def test_timestamps_a_power_of_ten_apart_share_a_session(n):
    # derive_x0 reads t only through 10^floor(log10 t) / t
    rng = random.Random(n)
    blocks = [rng.randrange(1 << (4 * n)) for _ in range(8)]

    def encrypt_at(t):
        return cipher.encrypt(make_session(t=t, n=n), Message(blocks, t)).blocks

    c = encrypt_at(1234)
    assert encrypt_at(12340) == c and encrypt_at(123400) == c
    assert encrypt_at(1235) != c


def test_key_file_missing_field(tmp_path):
    path = tmp_path / "key.txt"
    path.write_text("alpha=f64:3fdb851eb851eb85\nn=2\n")
    with pytest.raises(ParameterError):
        cipher.load_key(path)


@FILES
@given(data=st.data())
def test_ciphertext_file_roundtrip(tmp_path, data):
    path = tmp_path / "ct.txt"
    t, n = data.draw(st.integers(1, 10 ** 20)), data.draw(st.integers(1, 16))
    blocks = data.draw(st.lists(st.integers(0, (1 << (4 * n)) - 1), max_size=20))
    write_ciphertext(Message(blocks, t), n, path)
    msg, n_file = read_ciphertext(path)
    assert (msg.blocks, msg.t, n_file) == (blocks, t, n)
    header = path.read_text().splitlines()[0]
    assert header == f"YTS1 t={t} n={n} len={len(blocks)}"


def test_ciphertext_file_rejects_garbage(tmp_path):
    path = tmp_path / "ct.txt"
    for text, error in (
            ("not a ciphertext\n", " is not a ciphertext file"),
            ("YTS1 t=5 n=2 len=-3\n",
             ": line 1: len: expected an unsigned base-10 number, got '-3'"),
            ("YTS1 t=0 n=2 len=1\n0a\n", ": line 1: t must be a positive integer"),
            ("YTS1 t=-5 n=2 len=1\n0a\n",
             ": line 1: t: expected an unsigned base-10 number, got '-5'"),
            ("YTS1 t=77 n=2 n=3 len=1\n0a\n", ": line 1: n: given twice"),
            ("YTS1 t=77 n=2 len=1 zz=9\n0a\n", ": line 1: zz: unknown field"),
            ("YTS1 t=77 n=2 len=1 junk\n0a\n", ": line 1: junk: unknown field"),
            ("YTS1 t=5 n=2 len=1\n0a\nzzzz\n", ": line 3: expected the end"),
            (f"YTS1 t=5 n=2 len={10 ** 30}\n0a\n",
             f": line 3: expected 8-bit block 2 of {10 ** 30}, the file ends"),
            ("YTS1 t=5 n=2 len=1\n0a\n\n0b\n", ": line 4: expected the end")):
        path.write_text(text)
        with pytest.raises(ParameterError, match=re.escape(f"{path}{error}")):
            read_ciphertext(path)
    path.write_text("YTS1 t=5 n=2 len=1\n0a\n\n  \n")   # blank lines may follow
    assert read_ciphertext(path)[0].blocks == [0x0A]


# block lines as the writer spells them, and as it does not: an 0X or
# doubled 0x prefix, a sign, '_', inner or outer spaces, upper case, more
# than n digits, non-ASCII digits
BLOCK_LINES = st.one_of(
    st.text("0123456789abcdefABCDEFxX+-_ \t\u0663\uff11", max_size=20),
    st.sampled_from(["0X1", "0x0x1", "0x1", "+1", "-0", "1_0", "1 0", "\u0663",
                     "0x", "", " 0a ", "00000000000000000a"]))


def test_block_run_is_checked_to_its_end(tmp_path):
    # the run is checked in steps of 256 lines; respell a line in each step
    path = tmp_path / "ct.txt"
    blocks = [k % 256 for k in range(600)]
    write_ciphertext(Message(blocks, 5), 2, path)
    assert read_ciphertext(path)[0].blocks == blocks
    lines = path.read_text().splitlines(keepends=True)
    for k in (1, 255, 256, 257, 511, 512, 600):
        for text, want in (("0x0a\n", blocks[:k - 1] + [10] + blocks[k:]),
                           ("zz\n", f": line {k + 1}: expected 8-bit block {k} "
                                    "of 600, got 'zz'")):
            path.write_text("".join(lines[:k] + [text] + lines[k + 1:]))
            if isinstance(want, list):
                assert read_ciphertext(path)[0].blocks == want
            else:
                with pytest.raises(ParameterError, match=re.escape(f"{path}{want}")):
                    read_ciphertext(path)


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_ciphertext_with_other_line_ends(tmp_path, newline):
    # read as open() reads text: every line end is one newline, so the
    # line numbers and the block run are those of the "\n" file
    path = tmp_path / "ct.txt"
    blocks = [k % 256 for k in range(600)]
    write_ciphertext(Message(blocks, 5), 2, path)
    lines = path.read_text().splitlines(keepends=True)

    def write(lines):
        path.write_bytes("".join(lines).replace("\n", newline).encode())

    write(lines + ["\n", "  \n"])
    assert read_ciphertext(path)[0].blocks == blocks
    write(lines + ["\n", "zz\n"])
    with pytest.raises(ParameterError,
                       match=re.escape(f"{path}: line 603: expected the end")):
        read_ciphertext(path)
    for k in (1, 300, 600):     # a respelled block reads as number() reads it
        write(lines[:k] + ["0x0a\n"] + lines[k + 1:] + ["\n"])
        assert read_ciphertext(path)[0].blocks == \
            blocks[:k - 1] + [10] + blocks[k:]
        write(lines[:k] + ["zz\n"] + lines[k + 1:])
        with pytest.raises(ParameterError, match=re.escape(
                f"{path}: line {k + 1}: expected 8-bit block {k} of 600, got 'zz'")):
            read_ciphertext(path)
        write(lines[:k] + ["0x0a\n"] + lines[k + 1:] + ["zz\n"])
        with pytest.raises(ParameterError,
                           match=re.escape(f"{path}: line 602: expected the end")):
            read_ciphertext(path)


def test_non_utf8_input_names_the_file_and_line(tmp_path):
    path = tmp_path / "ct.txt"
    path.write_bytes(b"YTS1 t=5 n=2 len=2\r\n0a\r\n\xff0b\r\n")
    with pytest.raises(ParameterError, match=re.escape(
            f"{path}: line 3: byte 0xff is not UTF-8 text (invalid start byte)")):
        read_ciphertext(path)
    path.write_bytes(b"alpha=fp62:0x1\nbeta=\xc3\n")
    with pytest.raises(ParameterError, match=re.escape(
            f"{path}: line 2: byte 0xc3 is not UTF-8 text "
            "(invalid continuation byte)")):
        cipher.load_key(path)


def test_non_utf8_byte_anywhere_comes_before_any_parse_error(tmp_path):
    # the text is checked a read buffer at a time before line 2 is parsed:
    # a byte sequence cut by a buffer edge is read as one whole decode reads
    # it, and a bad one past the first buffer is still the error reported
    path = tmp_path / "ct.txt"
    text = ("YTS1 t=5 n=2 len=5000\nzz\n" + "0a\n" * 4999).encode()
    edge = io.DEFAULT_BUFFER_SIZE
    for seq in (b"\xff", b"\xc3", b"\xe2\x82", b"\xe2\x28\xa1", b"\xf0\x9f\x98",
                b"\xed\xa0\x80", "\u00e9\u20ac\U0001f600".encode()):
        for at in [*range(edge - 4, edge + 2), len(text)]:
            data = text[:at] + seq + text[at:]
            path.write_bytes(data)
            try:
                data.decode()
                error = ": line 2: expected 8-bit block 1 of 5000, got 'zz'"
            except UnicodeDecodeError as exc:
                line = data.count(b"\n", 0, exc.start) + 1
                error = (f": line {line}: byte "
                         f"0x{data[exc.start]:02x} is not UTF-8 text ({exc.reason})")
            with pytest.raises(ParameterError, match=re.escape(f"{path}{error}")):
                read_ciphertext(path)


def test_loading_a_ciphertext_keeps_no_wide_copy(tmp_path):
    # 16,383 blocks at n = 16, a 278 KB file: the text is held once, as
    # one byte per character, next to the blocks (2.12 MB with a whole-file
    # io.StringIO, whose buffer takes 4 bytes per character)
    path = tmp_path / "ct.txt"
    rng = random.Random(3)
    blocks = [rng.randrange(1 << 64) for _ in range(16383)]
    write_ciphertext(Message(blocks, 5), 16, path)
    tracemalloc.start()
    try:
        assert read_ciphertext(path)[0].blocks == blocks
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.4e6, peak


@settings(FILES, max_examples=100)
@given(data=st.data())
def test_block_run_reads_as_the_grammar(tmp_path, data):
    n = data.draw(st.integers(1, 16))
    canonical = st.integers(0, (1 << (4 * n)) - 1).map(lambda v: f"{v:0{n}x}")
    respelled = st.builds(lambda respell, line: respell(line), st.sampled_from(
        [str.upper, "0x{}".format, "0{}".format, " {}".format, lambda s: s[1:]]),
        canonical)
    lines = data.draw(st.lists(st.one_of(canonical, BLOCK_LINES, respelled),
                               max_size=12))
    length = len(lines) + data.draw(st.integers(0, 2))  # blocks the file lacks
    path = tmp_path / "ct.txt"
    path.write_text(f"YTS1 t=5 n={n} len={length}\n"
                    + "".join(line + "\n" for line in lines))
    want = []
    for k, line in enumerate(lines, start=1):
        text = line.strip()
        if backend._NUMBER[16].fullmatch(text) and int(text, 16) >> (4 * n) == 0:
            want.append(int(text, 16))
        if re.fullmatch(f"[0-9a-f]{{{n}}}", line):  # the writer's spelling
            assert len(want) == k, line
        if len(want) < k:
            got = f"got {text!r}"
            break
    else:
        if length == len(want):
            assert read_ciphertext(path)[0].blocks == want
            return
        got = "the file ends"
    k = len(want) + 1
    error = f"{path}: line {k + 1}: expected {4 * n}-bit block {k} of {length}, {got}"
    with pytest.raises(ParameterError, match=re.escape(error)):
        read_ciphertext(path)
