"""Command-line interface: subcommands, file flows and exit codes."""

import os
import random

import pytest

from tentbreak import cipher, cli
from tentbreak.backend import ParameterError


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


def test_keygen_seed_env_fallback(tmp_path, monkeypatch):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    monkeypatch.setenv("TENTBREAK_SEED", "9")
    run(["keygen", "--out", a])
    run(["keygen", "--seed", 9, "--out", b])
    assert a.read_text() == b.read_text()


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


def test_decrypt_mismatched_n(tmp_path):
    key1 = tmp_path / "k1.txt"
    key2 = tmp_path / "k2.txt"
    msg = tmp_path / "m.bin"
    ct = tmp_path / "ct.txt"
    run(["keygen", "--seed", 3, "--out", key1])
    run(["keygen", "--n", 1, "--seed", 3, "--out", key2])
    msg.write_bytes(os.urandom(4))
    run(["encrypt", "--key", key1, "--t", 55, msg, "--out", ct])
    assert run(["decrypt", "--key", key2, ct, "--out", tmp_path / "x"]) == 2


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


def test_attack_cpa_and_cca(tmp_path, capsys):
    for mode in ("cpa", "cca"):
        out = tmp_path / f"{mode}.txt"
        assert run(["attack", "--mode", mode, "--r", 4, "--seed", 4,
                    "--out", out]) == 0
        assert "exact=True" in capsys.readouterr().out


def test_attack_drift_exit_code(tmp_path):
    out = tmp_path / "rec.txt"
    assert run(["attack", "--mode", "cpa", "--r", 4, "--drift",
                "--out", out]) == 3


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


def test_analyze_census(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["analyze", "census", "--precision", 12, "--samples", 30,
                "--seed", 2, "--out", out]) == 0
    rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
    assert float(rows["mean_orbit_length"]) > 1


def test_solve_u_subcommand(tmp_path, capsys):
    # build a session, dump its permutations and one equation's pairs
    import warnings
    from tentbreak import attack
    from tentbreak.backend import get_backend
    b = get_backend("fp62")
    key = cipher.KeyMaterial(b.from_float(0.2), b.from_float(0.7),
                             b.from_float(0.37), 0x5A)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s = cipher.init_session(key, 1234, 2, 6, b)
    rng = random.Random(1)
    p = [rng.randrange(256) for _ in range(6)]
    c = cipher.encrypt(s, cipher.Message(p, 1234)).blocks
    j = 3
    pairs = tmp_path / "pairs.txt"
    pairs.write_text(f"{p[j-2]:02x} {p[j-1]:02x} {c[j-2]:02x} {c[j-1]:02x}\n")
    state = attack.RecoveredState(n=2, r=6)
    for i in range(6):
        state.perms[i] = s.F[i]
    state_file = tmp_path / "state.txt"
    attack.save_state(state, state_file)
    assert run(["solve-u", "--state", state_file, "--pairs", pairs,
                "--j", j, "--alpha-est", 0.2]) == 0
    outline = capsys.readouterr().out
    assert f"0x{s.U[j + 1]:02x}" in outline


def test_solve_u_block_index_out_of_range(tmp_path, capsys):
    from tentbreak import attack, keystream
    state = attack.RecoveredState(n=2, r=4)
    for i in (0, 1, 3):                       # f2 is missing
        state.perms[i] = keystream.BitPermutation(tuple(range(8)), 2)
    state_file = tmp_path / "state.txt"
    attack.save_state(state, state_file)
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("12 34 56 78\n")
    for j in (0, 1, 5, 3):
        assert run(["solve-u", "--state", state_file, "--pairs", pairs,
                    "--j", j]) == 2
        err = capsys.readouterr().err
        assert "--j" in err and "r=4" in err


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
    from tentbreak import attack, keystream
    state = attack.RecoveredState(n=2, r=4)
    for i in range(4):
        state.perms[i] = keystream.BitPermutation(tuple(range(8)), 2)
    state_file = tmp_path / "state.txt"
    attack.save_state(state, state_file)
    pairs = tmp_path / "pairs.txt"
    for text in ("# no pairs\n", "12 34 56\n", "12 34 56 zz\n"):
        pairs.write_text(text)
        assert run(["solve-u", "--state", state_file, "--pairs", pairs,
                    "--j", 2]) == 2
        assert str(pairs) in capsys.readouterr().err


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


def test_malformed_table_file_names_the_line(tmp_path, capsys):
    from tentbreak import keystream
    table = tmp_path / "table.txt"
    keystream.DEFAULT_TABLE.save(table)
    good = table.read_text()
    for bad in ("16: 1 2 3 4\n", "x: 1 2 3 4\n"):
        table.write_text(good + bad)
        assert run(["attack", "--mode", "cpa", "--r", 2, "--table", table,
                    "--out", tmp_path / "rec.txt"]) == 2
        err = capsys.readouterr().err
        assert str(table) in err and "line 17" in err


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
    assert run(["analyze", "census", "--precision", 8, "--samples", -5,
                "--out", tmp_path / "c.csv"]) == 2
    assert "--samples" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


def test_keygen_rejects_block_parameter_out_of_range(tmp_path, capsys):
    for n in (0, 17):
        out = tmp_path / f"key{n}.txt"
        assert run(["keygen", "--n", n, "--seed", 1, "--out", out]) == 2
        assert "--n" in capsys.readouterr().err
        assert not out.exists()


def test_unknown_backend_names_the_value(tmp_path, capsys):
    for name in ("fixed-point", "fixed-point(62)", "binary64", "fp", "fpx"):
        assert run(["keygen", "--backend", name, "--out",
                    tmp_path / "key.txt"]) == 2
        assert repr(name) in capsys.readouterr().err
    assert not (tmp_path / "key.txt").exists()
