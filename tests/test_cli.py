"""Command-line interface: subcommands, file flows and exit codes."""

import hashlib
import os
import random
import stat
import subprocess
import sys
import threading
import tracemalloc

import pytest

from tentbreak import analysis, attack, cipher, cli, keystream
from tentbreak.backend import ParameterError, get_backend

FP = get_backend("fp62")


def run(argv):
    return cli.main([str(a) for a in argv])


def test_blocks_codec_roundtrip():
    rng = random.Random(1)
    for n in (1, 2, 4):
        data = bytes(rng.randrange(256) for _ in range(8))
        blocks = cli.blocks_from_bytes(data, n)
        assert cli.blocks_to_bytes(blocks, n) == data
    with pytest.raises(ParameterError):
        cli.blocks_from_bytes(b"\x01", 3)   # 8 bits into 12-bit blocks
    with pytest.raises(ParameterError, match="block 2 "):
        cli.blocks_to_bytes([0x12, 0x1ff, 0x1ff], 2)   # 9-bit blocks at n = 2
    with pytest.raises(ParameterError, match="^block stream is not a whole "
                                             "number of bytes$"):
        cli.blocks_to_bytes([0x1, 0x2, 0x3], 1)        # three 4-bit blocks
    for n in range(1, 17):
        data = rng.randbytes(n * 257)        # a whole number of blocks
        blocks = cli.blocks_from_bytes(data, n)
        assert len(blocks) == len(data) * 2 // n
        assert blocks[0] == int.from_bytes(data, "big") >> (4 * n * (len(blocks) - 1))
        assert all(0 <= b < 1 << (4 * n) for b in blocks)
        assert cli.blocks_to_bytes(blocks, n) == data


def test_keygen_default_alpha_near_half(tmp_path):
    out = tmp_path / "key.txt"
    assert run(["keygen", "--seed", 5, "--out", out]) == 0
    key, n, backend = cipher.load_key(out)
    a = backend.to_float(key.alpha)
    assert 0 < abs(a - 0.5) < 0.01
    assert n == 2


def test_keygen_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run(["keygen", "--seed", 9, "--out", a])
    run(["keygen", "--seed", 9, "--out", b])
    assert a.read_text() == b.read_text()


def test_keygen_seed_env_fallback(tmp_path, monkeypatch, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for seed in ("9", "-7"):
        monkeypatch.setenv("TENTBREAK_SEED", seed)
        run(["keygen", "--out", a])
        run(["keygen", "--seed", seed, "--out", b])
        assert a.read_text() == b.read_text()
    # a value --seed would refuse names the variable
    monkeypatch.setenv("TENTBREAK_SEED", "abc")
    capsys.readouterr()
    assert run(["keygen", "--out", tmp_path / "c.txt"]) == 2
    assert "error: TENTBREAK_SEED='abc' is not an integer" in \
        capsys.readouterr().err
    assert not (tmp_path / "c.txt").exists()


def test_shared_flags_before_the_subcommand_are_usage_errors(tmp_path, capsys):
    out = tmp_path / "key.txt"
    for name, flag in (("--seed", ["--seed", 5]), ("--n", ["--n", 3]),
                       ("--backend", ["--backend", "f64"]), ("--r", ["--r", 4]),
                       ("--table", ["--table", tmp_path / "table.txt"]),
                       ("--seed", ["--seed=5"]), ("--seed", ["--se", 5]),
                       ("--table", ["--tab=t"])):
        with pytest.raises(SystemExit) as exc:
            run([*flag, "keygen", "--out", out])
        assert exc.value.code == 2
        assert f"error: {name} must follow the subcommand " \
               f"(tentbreak SUBCOMMAND {name} ...)" in capsys.readouterr().err
        assert not out.exists()
    # after the subcommand the same flags are honoured
    assert run(["keygen", "--seed", 5, "--n", 3, "--backend", "f64",
                "--out", out]) == 0
    key, n, backend = cipher.load_key(out)
    assert (n, backend) == (3, get_backend("f64"))


def test_workers_flag_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["analyze", "census", "--workers", 2, "--out", tmp_path / "c.csv"])
    assert exc.value.code == 2
    assert not (tmp_path / "c.csv").exists()


def test_keygen_low_precision_draw_is_usage_error(tmp_path, capsys):
    out = tmp_path / "key.txt"
    # at fp1 a drawn beta or gamma rounds to 0 or 1 unless it lands on 1/2
    assert run(["keygen", "--backend", "fp1", "--seed", 2, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "fp1" in err and "beta" in err
    assert not out.exists()
    assert run(["keygen", "--backend", "fp1", "--seed", 1, "--out", out]) == 0
    # alpha is exactly 1/2 at fp1: keygen, encrypt and decrypt each say so
    assert capsys.readouterr().err.count(
        "warning: alpha=0.5 is outside the recommended range") == 1
    msg, ct, back = tmp_path / "m.bin", tmp_path / "ct.txt", tmp_path / "m.out"
    msg.write_bytes(bytes(range(6)))
    assert run(["encrypt", "--key", out, "--t", 987654, msg, "--out", ct]) == 0
    assert run(["decrypt", "--key", out, ct, "--out", back]) == 0
    assert back.read_bytes() == msg.read_bytes()
    assert capsys.readouterr().err.count(
        "warning: alpha=0.5 is outside the recommended range") == 2


WEAK_ALPHA = ("warning: alpha={} is outside the recommended range "
              "0<|alpha-0.5|<0.01; the noise vectors will be exploitably "
              "non-uniform\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", ["0.3", "0.5"])
def test_weak_alpha_key_encrypts_with_a_warning_line(tmp_path, capsys, alpha):
    # a weak alpha is a stderr line and no Python warning, so encrypt and
    # decrypt work with warnings as errors
    key = tmp_path / "key.txt"
    err = WEAK_ALPHA.format(alpha)
    if alpha == "0.3":
        cipher.save_key(cipher.KeyMaterial(FP.from_float(0.3), FP.from_float(0.7),
                                           FP.from_float(0.37), 0xA5),
                        2, FP, key)
    else:   # keygen's draw at fp1, where alpha, beta and gamma are all 1/2
        assert run(["keygen", "--backend", "fp1", "--seed", 4, "--out", key]) == 0
        err += ("warning: timestamp t=987654 gives a degenerate initial "
                "condition (x0 is 0 or 1), so the keystream does not depend "
                "on t or gamma\n")
    msg, ct, back = tmp_path / "m.bin", tmp_path / "ct.txt", tmp_path / "m.out"
    msg.write_bytes(bytes(range(6)))
    capsys.readouterr()
    assert run(["encrypt", "--key", key, "--t", 987654, msg, "--out", ct]) == 0
    assert capsys.readouterr() == (f"encrypted 6 blocks -> {ct} (t=987654)\n", err)
    assert run(["decrypt", "--key", key, ct, "--out", back]) == 0
    assert capsys.readouterr() == (f"decrypted 6 blocks -> {back}\n", err)
    assert back.read_bytes() == msg.read_bytes()


def test_keygen_explicit_alpha(tmp_path, capsys):
    out = tmp_path / "key.txt"
    assert run(["keygen", "--alpha", 0.1, "--seed", 1, "--out", out]) == 0
    assert "warning" in capsys.readouterr().err
    key, _, backend = cipher.load_key(out)
    assert backend.to_float(key.alpha) == pytest.approx(0.1)


def test_encrypt_decrypt_roundtrip(tmp_path):
    key = tmp_path / "key.txt"
    msg = tmp_path / "msg.bin"
    ct = tmp_path / "ct.txt"
    out = tmp_path / "out.bin"
    run(["keygen", "--seed", 3, "--out", key])
    payload = os.urandom(12)
    msg.write_bytes(payload)
    assert run(["encrypt", "--key", key, "--t", 987654, msg, "--out", ct]) == 0
    assert ct.read_text().startswith("YTS1 t=987654 n=2 len=12")
    assert run(["decrypt", "--key", key, ct, "--out", out]) == 0
    assert out.read_bytes() == payload


def test_degenerate_timestamp_warns_on_stderr_only(tmp_path, capsys):
    key = tmp_path / "key.txt"
    msg = tmp_path / "msg.bin"
    run(["keygen", "--seed", 3, "--out", key])
    msg.write_bytes(os.urandom(12))
    capsys.readouterr()
    outputs = {}
    for t in (1000, 987654):
        ct, out = tmp_path / f"ct{t}.txt", tmp_path / f"out{t}.bin"
        assert run(["encrypt", "--key", key, "--t", t, msg, "--out", ct]) == 0
        enc = capsys.readouterr()
        assert enc.out == f"encrypted 12 blocks -> {ct} (t={t})\n"
        assert run(["decrypt", "--key", key, ct, "--out", out]) == 0
        dec = capsys.readouterr()
        assert dec.out == f"decrypted 12 blocks -> {out}\n"
        assert out.read_bytes() == msg.read_bytes()
        outputs[t] = (enc.err, dec.err)
    warning = ("warning: timestamp t=1000 gives a degenerate initial condition "
               "(x0 is 0 or 1), so the keystream does not depend on t or gamma\n")
    assert outputs[1000] == (warning, warning)
    assert outputs[987654] == ("", "")


# sha256 of the ciphertext file that `tentbreak encrypt` wrote at commit
# 16bf91b for this key file, t = 1697412345 and the 64-block (512-byte)
# message random.Random(16).randbytes(512), at n = 16 on each backend
KAT_N16 = {
    "fp62": ("alpha=fp62:0x1feab367a0f90900\nbeta=fp62:0x278dde6e521b9600\n"
             "gamma=fp62:0x141b2f768cba9300\n",
             "55122f6ed3fe0df793993d0277bfaa2be97db50cf8bab29670e0fe4cbd5d9ab0"),
    "f64": ("alpha=f64:3fdfeab367a0f909\nbeta=f64:3fe3c6ef37290dcb\n"
            "gamma=f64:3fd41b2f768cba93\n",
            "4a5aff8e477e4897ab6c69fab4fd6899e3bd2e8495f6ca45dea0ccb6349350a3"),
}


@pytest.mark.parametrize("name", KAT_N16)
def test_known_answer_n16(tmp_path, monkeypatch, name):
    # the widest block: a changed noise vector, tent step or f_j changes
    # the digest; decryption composes each f_j^-1 and inverts no map
    params, digest = KAT_N16[name]
    key, msg = tmp_path / "key.txt", tmp_path / "m.bin"
    ct, back = tmp_path / "ct.txt", tmp_path / "m.out"
    key.write_text(params + "K=0x0123456789abcdef\nn=16\n")
    msg.write_bytes(random.Random(16).randbytes(512))
    assert run(["encrypt", "--key", key, "--t", 1697412345, msg, "--out", ct]) == 0
    assert ct.read_text().startswith("YTS1 t=1697412345 n=16 len=64\n")
    assert hashlib.sha256(ct.read_bytes()).hexdigest() == digest
    monkeypatch.delattr(keystream, "invert")
    assert run(["decrypt", "--key", key, ct, "--out", back]) == 0
    assert back.read_bytes() == msg.read_bytes()


def test_encrypt_and_decrypt_keep_no_maps_of_the_message(tmp_path):
    # a message read once composes each f_j or f_j^-1 as the chain reaches
    # it and keeps none.  At 2,048 blocks of n = 16 the kept maps alone took
    # about 1 MB, the bound: in a fresh process the peaks were 1.5 MB
    # (encrypt, which also builds the parser) and 1.0 MB (decrypt) with
    # them, and are 0.6 and 0.3 MB without.  Under tracemalloc a tent step
    # costs some 50 times more, so the message is kept this short.
    key, msg = tmp_path / "key.txt", tmp_path / "m.bin"
    ct, back = tmp_path / "ct.txt", tmp_path / "m.out"
    key.write_text(KAT_N16["fp62"][0] + "K=0x0123456789abcdef\nn=16\n")
    msg.write_bytes(random.Random(2048).randbytes(8 * 2048))
    for argv in (["encrypt", "--key", key, "--t", 1697412345, msg, "--out", ct],
                 ["decrypt", "--key", key, ct, "--out", back]):
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.0e6, (argv[0], peak)
    assert back.read_bytes() == msg.read_bytes()


@pytest.mark.parametrize("chunk", [2, 4])
@pytest.mark.parametrize("name", ["fp62", "f64"])
def test_streamed_commands_match_one_chain_over_the_message(tmp_path, monkeypatch,
                                                           capsys, name, chunk):
    # encrypt and decrypt run a message keystream.CHUNK blocks at a time.  At
    # lengths around a chunk edge each writes what one chain call gives on a
    # cached session of max(m, 1) blocks, and on f64, where the noise comes
    # from tentmap.orbit_stream, steps that session's 4n(max(m, 1) + 2)
    # states, no more and no fewer
    monkeypatch.setattr(keystream, "CHUNK", chunk)
    states, orbit_stream = [0], keystream.orbit_stream

    def counted(*args):
        for x in orbit_stream(*args):
            states[0] += 1
            yield x

    rng = random.Random(f"{name}:{chunk}")
    key_file, msg, ct, back = (tmp_path / f for f in ("key", "m.bin", "ct", "m.out"))
    for n in (1, 3, 16):
        assert run(["keygen", "--backend", name, "--n", n, "--seed", 5,
                    "--out", key_file]) == 0
        key, _, be = cipher.load_key(key_file)
        for m in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
            t = rng.randrange(1, 10 ** 9)
            blocks = [rng.randrange(1 << (4 * n)) for _ in range(m)]
            want = cipher.encrypt(cipher.init_session(key, t, n, max(m, 1), be),
                                  cipher.Message(blocks, t)).blocks
            text = f"YTS1 t={t} n={n} len={m}\n" + "".join(f"{c:0{n}x}\n" for c in want)
            back.write_text("precious")
            capsys.readouterr()
            if m * n % 2:   # odd n: no plaintext file holds an odd block count
                ct.write_text(text)
                assert run(["decrypt", "--key", key_file, ct, "--out", back]) == 2
                assert capsys.readouterr().err == (
                    f"error: {ct}: {m} blocks of {4 * n} bits are not a whole "
                    "number of bytes\n")
                assert back.read_text() == "precious"
                continue
            msg.write_bytes(cli.blocks_to_bytes(blocks, n))
            monkeypatch.setattr(keystream, "orbit_stream", counted)
            for argv in (["encrypt", "--key", key_file, "--t", t, msg, "--out", ct],
                         ["decrypt", "--key", key_file, ct, "--out", back]):
                states[0] = 0
                assert run(argv) == 0
                if name == "f64":
                    assert states[0] == 4 * n * (max(m, 1) + 2), (argv[0], n, m)
            monkeypatch.setattr(keystream, "orbit_stream", orbit_stream)
            assert ct.read_text() == text
            assert back.read_bytes() == msg.read_bytes()
            assert sorted(p.name for p in tmp_path.iterdir()) == \
                ["ct", "key", "m.bin", "m.out"]


def test_malformed_block_after_the_first_chunk_keeps_the_output(tmp_path,
                                                               monkeypatch, capsys):
    # the blocks before it are decrypted and written, but only to a new file
    # beside --out, which is removed: --out keeps what it held
    monkeypatch.setattr(keystream, "CHUNK", 2)
    key, msg, ct, out = (tmp_path / f for f in ("key", "m.bin", "ct", "out"))
    assert run(["keygen", "--seed", 3, "--out", key]) == 0
    msg.write_bytes(bytes(range(7)))
    assert run(["encrypt", "--key", key, "--t", 55, msg, "--out", ct]) == 0
    lines = ct.read_text().splitlines(keepends=True)
    for k, text, error in (
            (5, "zz\n", "expected 8-bit block 5 of 7, got 'zz'"),
            (7, "1ff\n", "expected 8-bit block 7 of 7, got '1ff'"),
            (8, "0a\n", "expected the end of the file after 7 blocks, got '0a'"),
            (7, "", "expected 8-bit block 7 of 7, the file ends")):
        ct.write_text("".join(lines[:k] + [text] + lines[k + 1:]))
        out.write_text("precious")
        capsys.readouterr()
        assert run(["decrypt", "--key", key, ct, "--out", out]) == 2
        assert capsys.readouterr() == ("", f"error: {ct}: line {k + 1}: {error}\n")
        assert out.read_text() == "precious"
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["ct", "key", "m.bin", "out"]


def test_decrypt_to_a_device_writes_it_in_place(tmp_path):
    key, msg, ct = tmp_path / "key", tmp_path / "m.bin", tmp_path / "ct"
    assert run(["keygen", "--seed", 3, "--out", key]) == 0
    msg.write_bytes(bytes(range(40)))
    assert run(["encrypt", "--key", key, "--t", 55, msg, "--out", ct]) == 0
    assert run(["decrypt", "--key", key, ct, "--out", os.devnull]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_out_is_replaced_only_when_the_command_succeeds(tmp_path, monkeypatch, capsys):
    key, link, fifo = tmp_path / "key", tmp_path / "link", tmp_path / "fifo"
    key.write_text("old")
    os.chmod(key, 0o640)
    assert run(["keygen", "--seed", 3, "--out", key]) == 0
    written = key.read_text()
    assert written.startswith("alpha=") and stat.S_IMODE(key.stat().st_mode) == 0o640
    # a symlink is written through, and stays a symlink
    link.symlink_to(key)
    assert run(["keygen", "--seed", 4, "--out", link]) == 0
    assert link.is_symlink() and key.read_text() != written
    # a FIFO is written in place, not replaced by a file
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    assert run(["keygen", "--seed", 4, "--out", fifo]) == 0
    reader.join(60)
    assert got == [key.read_text()] and stat.S_ISFIFO(os.lstat(fifo).st_mode)
    # a failure halfway through a CSV leaves the old file and no other
    csv = tmp_path / "f.csv"
    csv.write_text("old")

    def fail(v):
        raise ParameterError("no format")
    monkeypatch.setattr(analysis, "_fmt", fail)
    capsys.readouterr()
    assert run(["analyze", "fig2", "--n", 1, "--out", csv]) == 2
    assert capsys.readouterr().err == "error: no format\n"
    assert csv.read_text() == "old"
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["f.csv", "fifo", "key", "link"]


def test_out_may_name_the_input(tmp_path, monkeypatch):
    # the input is read a chunk at a time while a new file takes the output,
    # and that file replaces --out only at the end: a command may overwrite
    # its own input, by its name or through a symlink, which stays a link
    monkeypatch.setattr(keystream, "CHUNK", 4)
    key, msg, link = tmp_path / "key", tmp_path / "m", tmp_path / "link"
    assert run(["keygen", "--seed", 3, "--out", key]) == 0
    data = bytes(range(40))
    msg.write_bytes(data)
    link.symlink_to(msg)
    for path in (msg, link):
        assert run(["encrypt", "--key", key, "--t", 55, path, "--out", path]) == 0
        assert msg.read_text().startswith("YTS1 t=55 n=2 len=40\n")
        assert run(["decrypt", "--key", key, path, "--out", path]) == 0
        assert msg.read_bytes() == data and link.is_symlink()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["key", "link", "m"]


def test_encrypt_and_decrypt_peaks_do_not_grow_with_the_message(tmp_path,
                                                               monkeypatch):
    # the message is read, run and written 64 blocks at a time, so twice the
    # blocks take no more memory; the first, short run builds the parser
    monkeypatch.setattr(keystream, "CHUNK", 64)
    key, msg = tmp_path / "key.txt", tmp_path / "m.bin"
    ct, back = tmp_path / "ct.txt", tmp_path / "m.out"
    key.write_text(KAT_N16["fp62"][0] + "K=0x0123456789abcdef\nn=16\n")
    peaks = []
    for m in (2, 512, 1024):
        msg.write_bytes(random.Random(m).randbytes(8 * m))
        for argv in (["encrypt", "--key", key, "--t", 1697412345, msg, "--out", ct],
                     ["decrypt", "--key", key, ct, "--out", back]):
            tracemalloc.start()
            try:
                assert run(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert back.read_bytes() == msg.read_bytes()
    half_enc, half_dec, full_enc, full_dec = peaks[2:]
    assert full_enc <= half_enc + 32 * 1024, peaks
    assert full_dec <= half_dec + 32 * 1024, peaks


def test_keygen_warns_of_a_weak_drawn_alpha(tmp_path, capsys):
    # at fp1 the drawn alpha rounds to exactly 1/2; the file is the same
    # whether or not keygen warns
    weak, allowed = tmp_path / "weak.txt", tmp_path / "allowed.txt"
    assert run(["keygen", "--backend", "fp1", "--seed", 4, "--out", weak]) == 0
    assert capsys.readouterr() == (f"wrote key file {weak}\n",
                                   WEAK_ALPHA.format("0.5"))
    assert run(["keygen", "--backend", "fp1", "--seed", 4, "--allow-weak",
                "--out", allowed]) == 0
    assert capsys.readouterr().err == ""
    assert weak.read_text() == allowed.read_text() == (
        "alpha=fp1:0x1\nbeta=fp1:0x1\ngamma=fp1:0x1\nK=0x2e\nn=2\n")
    # a default draw at fp62 is in the recommended band: no note
    assert run(["keygen", "--seed", 4, "--out", weak]) == 0
    assert capsys.readouterr() == (f"wrote key file {weak}\n", "")


def test_decrypt_mismatched_n(tmp_path, capsys):
    key1 = tmp_path / "k1.txt"
    key2 = tmp_path / "k2.txt"
    msg = tmp_path / "m.bin"
    ct = tmp_path / "ct.txt"
    run(["keygen", "--seed", 3, "--out", key1])
    run(["keygen", "--n", 1, "--seed", 3, "--out", key2])
    msg.write_bytes(os.urandom(4))
    run(["encrypt", "--key", key1, "--t", 55, msg, "--out", ct])
    assert run(["decrypt", "--key", key2, ct, "--out", tmp_path / "x"]) == 2
    # 32 bits are no whole number of 12-bit blocks: encrypt names both files
    key3 = tmp_path / "k3.txt"
    run(["keygen", "--n", 3, "--seed", 3, "--out", key3])
    capsys.readouterr()
    assert run(["encrypt", "--key", key3, "--t", 55, msg, "--out", tmp_path / "y"]) == 2
    assert capsys.readouterr().err == (
        f"error: {msg}: input of 4 bytes is not a whole number of 12-bit "
        f"blocks (n=3 in {key3})\n")
    assert not (tmp_path / "y").exists()


def test_decrypt_error_names_the_file_and_keeps_the_output(tmp_path, capsys,
                                                           monkeypatch):
    key, ct, out = tmp_path / "key.txt", tmp_path / "ct.txt", tmp_path / "m.out"
    assert run(["keygen", "--n", 1, "--seed", 3, "--out", key]) == 0
    out.write_text("precious")
    # three 4-bit blocks are a byte and a half
    ct.write_text("YTS1 t=5 n=1 len=3\na\nb\nc\n")
    capsys.readouterr()
    assert run(["decrypt", "--key", key, ct, "--out", out]) == 2
    assert capsys.readouterr().err == (
        f"error: {ct}: 3 blocks of 4 bits are not a whole number of bytes\n")
    assert out.read_text() == "precious"
    # an error while packing the plaintext leaves --out as it was too
    ct.write_text("YTS1 t=5 n=1 len=2\na\nb\n")

    def fail(blocks, n):
        raise ParameterError("cannot pack")
    monkeypatch.setattr(cli, "blocks_to_bytes", fail)
    assert run(["decrypt", "--key", key, ct, "--out", out]) == 2
    assert capsys.readouterr().err == "error: cannot pack\n"
    assert out.read_text() == "precious"


def test_missing_input_is_usage_error(tmp_path):
    assert run(["decrypt", "--key", tmp_path / "nope", tmp_path / "nope2",
                "--out", tmp_path / "x"]) == 2


def test_attack_full_and_state_file(tmp_path, capsys):
    out = tmp_path / "rec.txt"
    assert run(["attack", "--mode", "full", "--r", 6, "--seed", 4,
                "--out", out]) == 0
    assert "verified=True" in capsys.readouterr().out
    text = out.read_text()
    assert text.startswith("YTSREC n=2 r=6")
    assert "reg1:" in text


def test_attack_full_n8(tmp_path, capsys):
    out = tmp_path / "rec.txt"
    assert run(["attack", "--mode", "full", "--n", 8, "--r", 16, "--seed", 1,
                "--out", out]) == 0
    assert "528 recovery queries" in capsys.readouterr().out
    assert out.read_text().startswith("YTSREC n=8 r=16")


def test_attack_full_n16(tmp_path, capsys):
    out = tmp_path / "rec.txt"
    assert run(["attack", "--mode", "full", "--n", 16, "--r", 16, "--seed", 1,
                "--out", out]) == 0
    text = capsys.readouterr().out
    assert "1040 recovery queries + 30 chosen-pair queries" in text
    assert "verified=True" in text


def test_attack_full_names_blocks_left_ambiguous(tmp_path, capsys, monkeypatch):
    # one pair per block and no disambiguation queries leave blocks ambiguous
    full_attack = attack.full_attack
    monkeypatch.setattr(attack, "full_attack", lambda oracle, known, r, n, seed:
                        full_attack(oracle, known[:1], r, n, seed))
    monkeypatch.setattr(attack, "EXTRA_QUERIES", 0)
    out = tmp_path / "rec.txt"
    # an ambiguous block may decrypt wrongly (exit 4); the state is written
    assert run(["attack", "--mode", "full", "--r", 6, "--seed", 4,
                "--out", out]) in (0, 4)
    ambiguous = [line.partition(":")[0] for line in out.read_text().splitlines()
                 if line.endswith("# ambiguous")]
    captured = capsys.readouterr()
    assert ambiguous
    assert captured.err == ("warning: disambiguation stopped after 0 queries; "
                            "still ambiguous: " + " ".join(ambiguous) + "\n")
    assert captured.out.startswith("full: 54 recovery queries + 30 chosen-pair "
                                   "queries + 0 disambiguation queries;")


def test_attack_cpa_and_cca(tmp_path, capsys):
    for mode in ("cpa", "cca"):
        out = tmp_path / f"{mode}.txt"
        assert run(["attack", "--mode", mode, "--r", 4, "--seed", 4,
                    "--out", out]) == 0
        assert "exact=True" in capsys.readouterr().out


def test_attack_drift_exit_code(tmp_path):
    out = tmp_path / "rec.txt"
    for mode in ("cpa", "cca", "full"):
        assert run(["attack", "--mode", mode, "--r", 4, "--drift",
                    "--out", out]) == 3
        assert not out.exists()


@pytest.mark.parametrize("flags, why", [
    (("--n", 2, "--seed", 3), "block 16: no candidate satisfies the pairs"),
    (("--n", 1, "--r", 2, "--seed", 58),
     "block 2: a chosen pair rules out every candidate")])
def test_attack_full_drift_that_contradicts_the_maps_exits_3(tmp_path, capsys,
                                                             flags, why):
    # at these seeds the drifting sessions agree where the battery reads
    # them, so the maps are recovered, but the pairs from later queries come
    # from other sessions: the solver, or a disambiguating query, finds no
    # candidate for a block.  That is the oracle-model violation, not bad
    # input (exit 2) or a traceback
    out = tmp_path / "rec.txt"
    assert run(["attack", "--mode", "full", *flags, "--drift", "--out", out]) == 3
    assert capsys.readouterr().err.startswith(f"oracle-model violation: {why}")
    assert not out.exists()


def test_drift_is_a_negative_test_only_where_the_battery_reads_apart(
        tmp_path, monkeypatch, capsys):
    # --drift answers query q from the session at t + q.  Block j's battery
    # reads U_0..U_{j+1}, so drift shows only for a key whose session at
    # t + q differs there from the one at t.  The default seed's key, that
    # of the exit-3 tests, does; the key of --seed 3 (alpha = 0.977) does
    # not at n = 2, r = 8, and its drifting attack succeeds.
    monkeypatch.delenv("TENTBREAK_SEED", raising=False)

    def apart(flags):
        args = cli.build_parser().parse_args(["attack", *flags, "--out", "x"])
        s = cli._victim_session(args)
        battery, parted = 4 * s.n + 1, []
        for q in range(1, battery * s.r + 1):
            j = (q - 1) // battery + 1          # the block query q reads
            drifted = cipher.init_session(s.key, s.t + q, s.n, s.r, s.backend)
            if drifted.U[:j + 2] != s.U[:j + 2]:
                parted.append(q)
        return parted

    assert apart(["--r", "4"]) and apart(["--r", "16"])
    assert apart(["--r", "8", "--seed", "3"]) == []
    out = tmp_path / "rec.txt"
    assert run(["attack", "--mode", "cpa", "--n", 2, "--r", 8, "--drift",
                "--seed", 3, "--out", out]) == 0
    assert capsys.readouterr().out.startswith("cpa: 72 queries, recovered "
                                              "f_0..f_7 exact=True\n")


@pytest.mark.parametrize("buffered", [False, True])
def test_attack_with_stdout_closed_writes_its_state_and_exits_141(tmp_path,
                                                                  buffered):
    # stdout is a pipe whose reader is gone, so main's one write of the
    # command's stdout fails, buffered or not; the exit 4 a command
    # returned stands
    read, write = os.pipe()
    os.close(read)
    env = _closed_stdout_env(buffered)
    for mode, patch, code in (
            ("cpa", "", cli.EXIT_PIPE), ("full", "", cli.EXIT_PIPE),
            # a keyless decryption that fails verification
            ("full", "attack.keyless_decrypt = lambda state, c: []",
             cli.EXIT_VERIFY)):
        out = tmp_path / "rec.txt"
        proc = subprocess.run(
            [sys.executable, "-c", "import sys\nfrom tentbreak import attack, cli\n"
             f"{patch}\nsys.exit(cli.main(sys.argv[1:]))",
             "attack", "--mode", mode, "--r", "4", "--out", str(out)],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (code, b"")
        assert out.read_text().startswith("YTSREC n=2 r=4\n")
        out.unlink()
    os.close(write)


def _closed_stdout_env(buffered):
    """The environment of a subprocess that imports the tentbreak under
    test, with stdout buffered or not."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("buffered", [False, True])
def test_help_with_stdout_closed_exits_141_quietly(buffered):
    # argparse's help is held as a command's stdout is, so it fails only at
    # main's one write, not at interpreter exit
    read, write = os.pipe()
    os.close(read)
    for argv in (["--help"], ["attack", "--help"], ["analyze", "fig1", "-h"]):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys\nfrom tentbreak import cli\n"
             "sys.exit(cli.main(sys.argv[1:]))", *argv],
            stdout=write, stderr=subprocess.PIPE, env=_closed_stdout_env(buffered),
            timeout=60)
        assert (proc.returncode, proc.stderr) == (cli.EXIT_PIPE, b""), argv
    os.close(write)


def test_help_is_written_and_still_raises_system_exit(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["attack", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tentbreak attack")


def test_attack_broken_pipe_as_out_is_an_error_not_a_closed_stdout(tmp_path):
    # a pipe given as --out whose reader has gone, while stdout is open
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys\nfrom tentbreak import attack, cli\n"
         "def save_state(state, path):\n    raise BrokenPipeError(32, 'Broken pipe')\n"
         "attack.save_state = save_state\nsys.exit(cli.main(sys.argv[1:]))",
         "attack", "--mode", "cpa", "--r", "4", "--out", str(tmp_path / "p")],
        capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (cli.EXIT_USAGE, b"", b"error: [Errno 32] Broken pipe\n")


def test_attack_key_excludes_n_and_backend(tmp_path, capsys):
    key, out = tmp_path / "key.txt", tmp_path / "rec.txt"
    assert run(["keygen", "--seed", 3, "--out", key]) == 0
    for flags in (["--n", 2], ["--backend", "fp62"], ["--backend=f64"]):
        capsys.readouterr()
        assert run(["attack", "--mode", "cpa", "--r", 2, "--key", key,
                    *flags, "--out", out]) == 2
        flag = str(flags[0]).partition("=")[0]
        assert f"--key and {flag} exclude each other" in capsys.readouterr().err
        assert not out.exists()
    assert run(["attack", "--mode", "cpa", "--r", 2, "--key", key,
                "--out", out]) == 0


def test_analyze_fig1(tmp_path):
    out = tmp_path / "f1.csv"
    assert run(["analyze", "fig1", "--samples", 300, "--backend", "f64",
                "--out", out]) == 0
    assert len(out.read_text().splitlines()) == 257


def test_analyze_beta(tmp_path):
    out = tmp_path / "b.csv"
    assert run(["analyze", "beta", "--precision", 12, "--out", out]) == 0
    rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
    assert rows["expected_first_hit"] == str(2 ** 11)


def test_analyze_beta_defaults_to_62_bits(tmp_path):
    out = tmp_path / "b.csv"
    assert run(["analyze", "beta", "--out", out]) == 0
    rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
    assert rows["precision_bits"] == "62"
    # the model's mean first hit is 2^61 at 62 bits, not that of a capped L
    assert 2 ** 59 < float(rows["model_trial_mean"]) < 2 ** 63


@pytest.mark.parametrize("flags, flag", [
    (["census", "--alpha", 0, "--precision", 10, "--samples", 20], "--alpha"),
    (["census", "--precision", 0, "--samples", 5], "--precision"),
    (["beta", "--precision", 1], "--precision"),
    (["fig2", "--n", 0], "--n"),
    (["fig1", "--samples", 0], "--samples"),
    (["fig1", "--samples", 10**6 + 1], "--samples"),
    (["census", "--samples", 10**6 + 1], "--samples"),
])
def test_analyze_bad_flag_is_usage_error(tmp_path, capsys, flags, flag):
    out = tmp_path / "a.csv"
    with pytest.raises(SystemExit) as exc:
        run(["analyze", *flags, "--out", out])
    assert exc.value.code == 2
    assert f"error: argument {flag}: " in capsys.readouterr().err
    assert not out.exists()


def test_analyze_census(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["analyze", "census", "--precision", 12, "--samples", 30,
                "--seed", 2, "--out", out]) == 0
    rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
    assert float(rows["mean_orbit_length"]) > 1


@pytest.mark.parametrize("argv, message", [
    ("analyze census --alpha 0.99 --precision 2",
     "--alpha 0.99 rounds to 0 or 1 at --precision 2"),
    ("analyze fig1 --backend fp2", "fig1's alpha 0.1 rounds to 0 at --backend fp2"),
    ("keygen --alpha 1e-30", "--alpha 1e-30 rounds to 0 or 1 at --backend fp62"),
    ("keygen --backend fp1 --seed 2", "drawn beta must lie strictly inside "
     "(0, 1) at fp1 precision; try another --seed"),
    # seed 5 draws alpha and gamma outside, seed 7 beta
    *((f"attack --backend fp2 --mode full --r 4 --seed {seed}",
       f"drawn {name} must lie strictly inside (0, 1) at fp2 precision; "
       "try another --seed")
      for seed, name in ((3, "alpha"), (5, "alpha"), (7, "beta"))),
])
def test_value_rounded_to_0_or_1_names_its_flag(tmp_path, capsys, argv, message):
    assert run([*argv.split(), "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


# sha256 of the CSV that `tentbreak analyze FIGURE [FLAGS] --out F` wrote
# with TENTBREAK_SEED unset: the fig2 and census keys at commit 1c587b0, the
# fig1, fig3 and beta keys at commit 0a55858.  A changed float in a curve,
# histogram, orbit or census changes the digest.  The fp8 orbit of fig3
# reaches 1 and restarts at beta 24 times.
GOLDEN_DIGESTS = {
    "fig2 --n 1": "45f2634ae852a2703a6d8100b7c8b26b0c4499b108268ee61627b9edd8470224",
    "fig2 --n 2": "48c1b80117b3d63799aec1de5f819710edee531c576c4afe4fdf3706e2474be6",
    "fig2 --n 16": "ef69c728cdd4657841dbe97a5e7efe17ac75c7e0f819c9bb987222a8b04ce944",
    "census": "05714e9035cb64dd1c801ec506175304c8a79c862ccd3ec8e0c73b49a39ca87e",
    "fig1": "45a6b77df7a5e73f53f114c09ff46ff18d9ce25deebcdec1547a0542098beee6",
    "fig1 --backend f64":
        "0d8fa8e77677145b94b033d61a32dbd099cb9892ca752f47ad4c6bbe89d5ffcb",
    "fig3": "d85f8b58f6728341aa3d446887de75897308a5f2a398f517d074ec772920e530",
    "fig3 --backend f64":
        "d85f8b58f6728341aa3d446887de75897308a5f2a398f517d074ec772920e530",
    "fig3 --backend fp8":
        "b4e3c4904d07583ea15b15ab621a2d358c087f3703a38e7d579b4afc68d8f2e8",
    "beta": "f6945c93a4eddefcee7f68877d25a047d7926934caa1e53ae2c92b51e2835e78",
}


@pytest.mark.parametrize("figure", GOLDEN_DIGESTS)
def test_analyze_figures_match_golden_digests(tmp_path, monkeypatch, figure):
    monkeypatch.delenv("TENTBREAK_SEED", raising=False)
    out = tmp_path / "f.csv"
    assert run(["analyze", *figure.split(), "--out", out]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_DIGESTS[figure]


# sha256 of all that `tentbreak attack --mode MODE --n N --seed S [--drift]
# --out STATE` leaves, at commit f68da1d (r = 16 and t as defaulted): its
# exit code, its stdout with the state path written as STATE, its stderr and
# the state file it wrote ("no state" if none), joined by NULs.  A changed
# query count, recovered map, noise vector, register pair, provenance tag,
# verdict or message changes the digest.  Without --drift each run exits 0;
# with it, 3 at the first reply that a drifted session gives away, but at
# seed 3 and n <= 2 the drifted sessions answer as the fixed one (ROADMAP
# item 23): there only full at n = 2 exits 3, from its solve.
ATTACK_DIGESTS = {
    "cpa --n 1 --seed 1":
        "145f5ab79eacf0333601d9db76bd605b81fa81168fe6c93505aae7f962da98e5",
    "cpa --n 1 --seed 1 --drift":
        "5ac9a91c6de71d5aff97d533dbbdac20e6ee8ccf32af2eeed529c9e95589f9ce",
    "cpa --n 1 --seed 2":
        "c0321c4b4508980e858f63b9263d2a3dbf0112495b66f4bcfa08f27adc5d5b1a",
    "cpa --n 1 --seed 2 --drift":
        "604569d0662bc6f9ce950617cea2fdb3e8fefe6fbf358383ed3acd1ca5b1ae25",
    "cpa --n 1 --seed 3":
        "3e4c4777a7548b2de173601d4fe9b9a78578079add750b8b6ca1dc150263d8e9",
    "cpa --n 1 --seed 3 --drift":
        "3e4c4777a7548b2de173601d4fe9b9a78578079add750b8b6ca1dc150263d8e9",
    "cpa --n 2 --seed 1":
        "58d134d0e4a23d5ea84db2062f929dc10c989333777b85c01c7a21eca8bf1390",
    "cpa --n 2 --seed 1 --drift":
        "9481ba576a75cd3b1e0b9572be5fca4ef5f934df604e43acec168e09a6186db1",
    "cpa --n 2 --seed 2":
        "2312186fd6d2a56785d196174cead576444435921171ba2857195b3973fd2dbd",
    "cpa --n 2 --seed 2 --drift":
        "0caafcb8d30bd701e3e66ec8e3050f39e6365ef78ab2cfe7210434620195f66c",
    "cpa --n 2 --seed 3":
        "224bd58011be29d36a1151166e3eb738eaea4b7d6469e73aa1721dd2c7a03f5d",
    "cpa --n 2 --seed 3 --drift":
        "224bd58011be29d36a1151166e3eb738eaea4b7d6469e73aa1721dd2c7a03f5d",
    "cpa --n 4 --seed 1":
        "3a8c6b4884901783c86ef9a372bbf740f66c3790ac749f9299d6691dd8235025",
    "cpa --n 4 --seed 1 --drift":
        "67921fe2d76081768f552eee2b02fdc91c9f77a1f50b677321fba1fb28180844",
    "cpa --n 4 --seed 2":
        "5ee75350c5030e346695fd26777d2e92f4acf2c7bd4d188b842e52e23527095e",
    "cpa --n 4 --seed 2 --drift":
        "6ed31e9210e8cb3e933e3b3684c5c2a0623103155f91e488059f27905011900b",
    "cpa --n 4 --seed 3":
        "09b53e805fa17dc5ddec1e632331eb1251dccb3f96f7a4feadc87a2301303fcc",
    "cpa --n 4 --seed 3 --drift":
        "2b61fdd284a41a76961b6b8c6a35434c196cf757ba2ff673969c2f5f9993ea31",
    "cca --n 1 --seed 1":
        "2cb8f52f0bf5fa11eaaac31cad06668b6c9bd60bc07892887842238f8dd2a422",
    "cca --n 1 --seed 1 --drift":
        "731b40595406974bc1c8ca5468b9efdd35f6c7e922cfa99cb532db498baa711e",
    "cca --n 1 --seed 2":
        "40aa98379b7693e24dac369ade34b6c7230703f7735a81414d57ed3ce5924d3c",
    "cca --n 1 --seed 2 --drift":
        "cd0289735db0923c78552fa90579df2f1e08593370c51e6ad0f64983b6d68009",
    "cca --n 1 --seed 3":
        "103d00e65ffb861b4131982606857e8dd771124e2185b04c2bf256e9981e28ad",
    "cca --n 1 --seed 3 --drift":
        "103d00e65ffb861b4131982606857e8dd771124e2185b04c2bf256e9981e28ad",
    "cca --n 2 --seed 1":
        "1d376d2d4d2898cd70b3e6f0ec635ce79483c9259f441916885849088d0308bb",
    "cca --n 2 --seed 1 --drift":
        "3b5f01f293251baa8d72636dce8df2803d1b24df98744163776c05257f29155c",
    "cca --n 2 --seed 2":
        "41a8d96627fc8e817ebe2e68bf5160ca3e0248a5ae1cd88ddee6a9814f3b3b15",
    "cca --n 2 --seed 2 --drift":
        "f11a87e9a9fd5f177c3c27540bfccacee2d7bf152acd777cf1a014c82385f404",
    "cca --n 2 --seed 3":
        "20d08f36c2d3ec7b35e12b5e5fb2a21f4e8c114a7e774cb93c4158dba797e8ab",
    "cca --n 2 --seed 3 --drift":
        "20d08f36c2d3ec7b35e12b5e5fb2a21f4e8c114a7e774cb93c4158dba797e8ab",
    "cca --n 4 --seed 1":
        "aca862c2c989081114c9930e5e553152806db65acb1c85c2315cd86524d6929c",
    "cca --n 4 --seed 1 --drift":
        "4cb6be5634e7b459ffe9e159877f02cf5d5ad01e0056a1248185b906ab51aaf5",
    "cca --n 4 --seed 2":
        "7eddb59d6397485e214ab10f7b11b1616d96d506e81f10294ee18f41f55a030f",
    "cca --n 4 --seed 2 --drift":
        "a1414a090d09cea42ec92f01e6c763d46824b6c0835d05a157504f0e319909b1",
    "cca --n 4 --seed 3":
        "b180323aebf19be44278271d6232a0f65858ecc819322127920a8b4bf61334e3",
    "cca --n 4 --seed 3 --drift":
        "3936fa8c76d136cf149475ccf069edc578582efcd78f3c0d70a67f78bff79127",
    "full --n 1 --seed 1":
        "2d5980e9954feca320f680c401d624525ff919d2e8484f3287121264d51d5fac",
    "full --n 1 --seed 1 --drift":
        "2178862480c562b039ed31b3a50473101e2608b669b3da24be268dbb42986b00",
    "full --n 1 --seed 2":
        "4a0b4e4f291f85bb72b0a4c393428f6a07d2913a4a3685425f85337adb757f77",
    "full --n 1 --seed 2 --drift":
        "300ef9c8d04ea85fffde64d5bff63ec3ad3aac77362069a8e80f2bca2fd5684e",
    "full --n 1 --seed 3":
        "2b20dc13790eafd0383417eac564ba11a4cf17877254b38711bc33421ebd5508",
    "full --n 1 --seed 3 --drift":
        "2b20dc13790eafd0383417eac564ba11a4cf17877254b38711bc33421ebd5508",
    "full --n 2 --seed 1":
        "9d4044374b86945478efe5b8bcd8506c52363ea9e22ad74d488394b4e8815d00",
    "full --n 2 --seed 1 --drift":
        "223d8a991cbeb7e053dc1cb1afd48d23b8413ed0bae741f156d1a72d1ef95f30",
    "full --n 2 --seed 2":
        "8ea6b69ed9e5a18139be9e613b9bfa2f8388bd53aa6a79af6c83cb4729edfe38",
    "full --n 2 --seed 2 --drift":
        "a75c47f79b276dcfcaad8bb355ff5c752bf8673319b7d17834a3390a6bf570f0",
    "full --n 2 --seed 3":
        "90d464efd8a9e1fda87313fd17124754772aad5d4b210c1fb06274a0b169e7fc",
    "full --n 2 --seed 3 --drift":
        "26a6a2462ff23c8b5e352fb7e1aec2a42359dfebe44efb1ac553f06379a5b6b9",
    "full --n 4 --seed 1":
        "9579e50b0e72b680e34f1a0eb25e9ba7ba1aa06d267a9845b7ac45e874dcce1d",
    "full --n 4 --seed 1 --drift":
        "502e5708e9daf15f565637f00e6eba4714716947895aaa3fedf6b1df93d5879c",
    "full --n 4 --seed 2":
        "80affc92249d40f23066e3ec4d0a0f414edf11c6481a76984b6a030929293db6",
    "full --n 4 --seed 2 --drift":
        "5f9b872e10e6bf8955b799f7e44d968e613872b09813ad3536194aa13e7d04b6",
    "full --n 4 --seed 3":
        "5b7755054e05ca156fc337b0073941e9f10dc639763b93396a9fb6e51f78ba7e",
    "full --n 4 --seed 3 --drift":
        "0e2b7a671c411e5d7b1ed102f7b5651305a2d24938470566ee6c9f9c292d039f",
}


@pytest.mark.parametrize("flags", ATTACK_DIGESTS)
def test_attack_matches_golden_digests(tmp_path, capsys, flags):
    state = tmp_path / "rec.txt"
    code = run(["attack", "--mode", *flags.split(), "--out", state])
    out, err = capsys.readouterr()
    record = [str(code), out.replace(str(state), "STATE"), err,
              state.read_text() if state.exists() else "no state"]
    assert hashlib.sha256("\0".join(record).encode()).hexdigest() == \
        ATTACK_DIGESTS[flags]


def test_solve_u_subcommand(tmp_path, capsys):
    # build a session, dump its permutations and one equation's pairs
    from tentbreak import attack
    from tentbreak.backend import get_backend
    b = get_backend("fp62")
    key = cipher.KeyMaterial(b.from_float(0.2), b.from_float(0.7),
                             b.from_float(0.37), 0x5A)
    s = cipher.init_session(key, 1234, 2, 6, b)
    rng = random.Random(1)
    p = [rng.randrange(256) for _ in range(6)]
    c = cipher.encrypt(s, cipher.Message(p, 1234)).blocks
    j = 3
    pairs = tmp_path / "pairs.txt"
    pairs.write_text(f"{p[j-2]:02x} {p[j-1]:02x} {c[j-2]:02x} {c[j-1]:02x}\n")
    state = attack.RecoveredState(2, 6, dict(enumerate(s.F)), {}, None, {})
    state_file = tmp_path / "state.txt"
    attack.save_state(state, state_file)
    assert run(["solve-u", "--state", state_file, "--pairs", pairs,
                "--j", j, "--alpha-est", 0.2]) == 0
    outline = capsys.readouterr().out
    assert f"0x{s.U[j + 1]:02x}" in outline


def _identity_state(path, blocks) -> None:
    """A state file at n = 2, r = 4 whose f_j, j in blocks, are the identity."""
    path.write_text("YTSREC n=2 r=4\n" + "".join(
        f"f{j}: 0 1 2 3 4 5 6 7\n" for j in blocks))


def test_solve_u_block_index_out_of_range(tmp_path, capsys):
    state_file = tmp_path / "state.txt"
    _identity_state(state_file, (0, 1, 3))      # f2 is missing
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("12 34 56 78\n")
    for j in (0, 1, 5, 3):
        assert run(["solve-u", "--state", state_file, "--pairs", pairs,
                    "--j", j]) == 2
        err = capsys.readouterr().err
        assert "--j" in err and "r=4" in err
    # only a block in 2..r has an f_{j-1} to name
    for j, whose in ((0, ""), (5, ""), (3, "whose f2 is ")):
        run(["solve-u", "--state", state_file, "--pairs", pairs, "--j", j])
        assert capsys.readouterr().err == (
            f"error: --j {j} must name a block 2..4 {whose}in {state_file} (r=4)\n")


def test_solve_u_state_with_one_block_has_nothing_to_solve(tmp_path, capsys):
    # U_{j+1} is solved for blocks 2..r, so a state with r = 1 has none
    state, pairs = tmp_path / "state.txt", tmp_path / "pairs.txt"
    state.write_text("YTSREC n=1 r=1\nf0: 1 2 3 0\n")
    pairs.write_text("1 2 3 4\n")
    for j in (2, 1):
        assert run(["solve-u", "--state", state, "--pairs", pairs,
                    "--j", j]) == 2
        assert capsys.readouterr().err == (
            f"error: {state} (r=1) has no block with a noise vector to solve: "
            "solve-u needs r >= 2\n")


def test_state_file_without_r_names_the_file(tmp_path, capsys):
    state = tmp_path / "state.txt"
    state.write_text("YTSREC n=2\nf0: 1 2 3 4 5 6 7 0\n")
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("12 34 56 78\n")
    assert run(["solve-u", "--state", state, "--pairs", pairs, "--j", 2]) == 2
    err = capsys.readouterr().err
    assert str(state) in err and "line 1" in err and "r=" in err


def test_truncated_ciphertext_names_the_file_and_line(tmp_path, capsys):
    key, msg, ct = tmp_path / "key.txt", tmp_path / "m.bin", tmp_path / "ct.txt"
    run(["keygen", "--seed", 3, "--out", key])
    msg.write_bytes(bytes(range(6)))
    assert run(["encrypt", "--key", key, "--t", 77, msg, "--out", ct]) == 0
    lines = ct.read_text().splitlines()
    ct.write_text("\n".join(lines[:4]) + "\n")   # header and 3 of 6 blocks
    capsys.readouterr()
    assert run(["decrypt", "--key", key, ct, "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert str(ct) in err and "line 5" in err
    lines[3] = "1ff"                            # 9 bits in an 8-bit block
    ct.write_text("\n".join(lines) + "\n")
    assert run(["decrypt", "--key", key, ct, "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert str(ct) in err and "line 4" in err
    ct.write_text("YTS1 t=77 n=99 len=1\n00\n")
    assert run(["decrypt", "--key", key, ct, "--out", tmp_path / "x"]) == 2
    assert "n must be in 1..16" in capsys.readouterr().err


def test_solve_u_empty_pairs_file_is_usage_error(tmp_path, capsys):
    state_file, pairs = tmp_path / "state.txt", tmp_path / "pairs.txt"
    _identity_state(state_file, range(4))
    wide = "line 2: pair value outside the 8-bit block range"
    for text, error in (("# no pairs\n", "at least one plaintext/ciphertext"),
                        ("12 34 56\n", "line 1: expected four hex values"),
                        ("12 34 56 zz\n", "line 1: expected four hex values"),
                        ("12 34 56 78\n00 1ff 02 03\n", wide),
                        ("12 34 56 78\n00 01 -1 03\n",
                         "line 2: expected four hex values")):
        pairs.write_text(text)
        assert run(["solve-u", "--state", state_file, "--pairs", pairs,
                    "--j", 2]) == 2
        assert f"{pairs}: {error}" in capsys.readouterr().err


def test_analyze_fig2_honours_n(tmp_path):
    def curve(*flags):
        out = tmp_path / "f2.csv"
        assert run(["analyze", "fig2", *flags, "--out", out]) == 0
        return [float(line.split(",")[1])
                for line in out.read_text().splitlines()[1:]]

    assert max(curve("--n", 2)) <= 8             # 2^8 candidates at n = 2
    assert curve() == curve("--n", 16)           # --n absent: the n = 16 curve
    assert max(curve()) > 8


def test_malformed_f64_key_value_names_the_file(tmp_path, capsys):
    key = tmp_path / "key.txt"
    assert run(["keygen", "--backend", "f64", "--seed", 3, "--out", key]) == 0
    text = key.read_text().splitlines()
    key.write_text("\n".join(["alpha=f64:abcd"] + text[1:]) + "\n")
    capsys.readouterr()
    assert run(["encrypt", "--key", key, "--t", 5, key, "--out",
                tmp_path / "ct.txt"]) == 2
    assert str(key) in capsys.readouterr().err


def _encrypt_with_key_field(tmp_path, capsys, field, value, line=None):
    """encrypt's exit code and stderr under a key file whose `field` line
    is replaced by `line`, or else by `field=value`."""
    key, msg = tmp_path / "key.txt", tmp_path / "m.bin"
    assert run(["keygen", "--seed", 3, "--out", key]) == 0
    lines = [(line or f"{field}={value}") if text.startswith(f"{field}=") else text
             for text in key.read_text().splitlines()]
    key.write_text("\n".join(lines) + "\n")
    msg.write_bytes(bytes(range(6)))
    capsys.readouterr()
    code = run(["encrypt", "--key", key, "--t", 77, msg, "--out",
                tmp_path / "ct.txt"])
    return code, capsys.readouterr().err


def test_key_file_block_parameter_out_of_range(tmp_path, capsys):
    for n, error in (("0", "n must be in 1..16"), ("17", "n must be in 1..16"),
                     ("-1", "line 5: n: expected an unsigned base-10 number")):
        code, err = _encrypt_with_key_field(tmp_path, capsys, "n", n)
        assert code == 2
        assert str(tmp_path / "key.txt") in err and error in err


def test_key_file_beta_on_the_boundary(tmp_path, capsys):
    for beta in ("fp62:0x0", "fp62:0x4000000000000000"):    # 0 and 1
        code, err = _encrypt_with_key_field(tmp_path, capsys, "beta", beta)
        assert code == 2
        assert str(tmp_path / "key.txt") in err and "beta" in err
        assert not (tmp_path / "ct.txt").exists()


def test_key_file_bad_values_name_the_file_and_field(tmp_path, capsys):
    for field, value in (("alpha", "fp62:0x0"), ("alpha", "fp62:0x4000000000000000"),
                         ("gamma", "fp62:0x0"), ("K", "0x100"), ("K", "-0x1"),
                         ("K", "zz"), ("n", "two"), ("beta", "f64:3fe0000000000000")):
        code, err = _encrypt_with_key_field(tmp_path, capsys, field, value)
        assert code == 2
        assert str(tmp_path / "key.txt") in err and f": {field}" in err, err
    # the alpha line is line 1, K line 4; lines that are no field, or repeat one
    for field, line, error in (
            ("alpha", "garbage", "line 1: expected name=value"),
            ("alpha", "alpah=3", "line 1: expected name=value"),
            ("K", "K=0x5a\nK=0x00", "line 5: K: repeats line 4"),
            ("n", "n=2\n\nalpha=fp62:0x1", "line 7: alpha: repeats line 1"),
            ("gamma", "gamma=f64:3fe0000000000000",
             "line 3: gamma: not on the arithmetic backend of alpha, line 1")):
        code, err = _encrypt_with_key_field(tmp_path, capsys, field, None, line)
        assert code == 2
        assert f"{tmp_path / 'key.txt'}: {error}" in err, err
        assert not (tmp_path / "ct.txt").exists()


def test_keygen_rejects_alpha_out_of_range(tmp_path, capsys):
    for alpha in (0, 1, -0.5, 1.5, "nan"):
        out = tmp_path / "key.txt"
        with pytest.raises(SystemExit) as exc:
            run(["keygen", "--alpha", alpha, "--seed", 1, "--out", out])
        assert exc.value.code == 2
        assert "error: argument --alpha: " in capsys.readouterr().err
        assert not out.exists()


def test_malformed_table_file_names_the_line(tmp_path, capsys):
    from tentbreak import keystream
    table = tmp_path / "table.txt"
    good = "".join(f"{v}: {a} {b} {c} {d}\n" for v, (a, b, c, d)
                   in enumerate(keystream.DEFAULT_TABLE.entries))
    for bad in ("16: 1 2 3 4\n", "x: 1 2 3 4\n", "3: 1 2 3\n", "3: 1 1 2 3\n"):
        table.write_text(good + bad)
        assert run(["attack", "--mode", "cpa", "--r", 2, "--table", table,
                    "--out", tmp_path / "rec.txt"]) == 2
        err = capsys.readouterr().err
        assert str(table) in err and "line 17" in err


def test_table_file_rejects_repeated_and_signed_selectors(tmp_path, capsys):
    from tentbreak import keystream
    table = tmp_path / "table.txt"
    # entries 1..15 on lines 1..15; entry 0 is the case under test
    rest = "".join(f"{v}: {a} {b} {c} {d}\n" for v, (a, b, c, d)
                   in enumerate(keystream.DEFAULT_TABLE.entries) if v)
    bad_head = "line 16: expected 'v: a b c d' with v in 0..15"
    for bad, error in ((" +0: 1 2 3 4", bad_head), ("-0: 1 2 3 4", bad_head),
                       ("0 : 1 2 3 4", bad_head), ("00: 1 2 3 4", bad_head),
                       ("0: 1 2 3 4\n0: 4 3 2 1", "line 17: entry 0 given twice"),
                       ("0: 1 2 3 4\n 3: 1 2 3 4", "line 17: entry 3 given twice")):
        table.write_text(rest + bad + "\n")
        assert run(["attack", "--mode", "cpa", "--r", 2, "--table", table,
                    "--out", tmp_path / "rec.txt"]) == 2
        assert f"{table}: {error}" in capsys.readouterr().err
    table.write_text(rest + "0: 1 2 3 4\n")
    assert run(["attack", "--mode", "cpa", "--r", 2, "--table", table,
                "--out", tmp_path / "rec.txt"]) == 0


def test_solve_u_rejects_out_of_range_state(tmp_path, capsys):
    state = tmp_path / "state.txt"
    identity = " ".join(str(i) for i in range(8))
    state.write_text(f"YTSREC n=2 r=4\nf2: {identity}\nU3: 0x1ffff\n"
                     "reg1: 0x1ff 0x0\n")
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("0 0 0 0\n")
    assert run(["solve-u", "--state", state, "--pairs", pairs, "--j", 3]) == 2
    err = capsys.readouterr().err
    assert str(state) in err and "line 3" in err and "U3" in err


def test_census_negative_samples_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["analyze", "census", "--precision", 8, "--samples", -5,
             "--out", tmp_path / "c.csv"])
    assert exc.value.code == 2
    assert "error: argument --samples: " in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


def test_attack_r_out_of_range_is_usage_error(tmp_path, capsys):
    for r in (0, 65537):
        with pytest.raises(SystemExit) as exc:
            run(["attack", "--mode", "cpa", "--r", r, "--out", tmp_path / "s.txt"])
        assert exc.value.code == 2
        assert f"error: argument --r: expected an integer in 1..65536, got '{r}'" \
            in capsys.readouterr().err
        assert not (tmp_path / "s.txt").exists()


def test_keygen_rejects_block_parameter_out_of_range(tmp_path, capsys):
    for n in (0, 17):
        out = tmp_path / f"key{n}.txt"
        with pytest.raises(SystemExit) as exc:
            run(["keygen", "--n", n, "--seed", 1, "--out", out])
        assert exc.value.code == 2
        assert "error: argument --n: " in capsys.readouterr().err
        assert not out.exists()


def test_unknown_backend_names_the_value(tmp_path, capsys):
    for name in ("fixed-point", "fixed-point(62)", "binary64", "fp", "fpx"):
        assert run(["keygen", "--backend", name, "--out",
                    tmp_path / "key.txt"]) == 2
        assert repr(name) in capsys.readouterr().err
    assert not (tmp_path / "key.txt").exists()
