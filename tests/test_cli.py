"""Command-line interface: subcommands, file flows and exit codes."""

import hashlib
import os
import random

import pytest

from tentbreak import attack, cipher, cli
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
    msg, ct, back = tmp_path / "m.bin", tmp_path / "ct.txt", tmp_path / "m.out"
    msg.write_bytes(bytes(range(6)))
    assert run(["encrypt", "--key", out, "--t", 987654, msg, "--out", ct]) == 0
    assert run(["decrypt", "--key", out, ct, "--out", back]) == 0
    assert back.read_bytes() == msg.read_bytes()
    # alpha is exactly 1/2 at fp1: encrypt and decrypt each say so
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
                        full_attack(oracle, known[:1], r, n, seed,
                                    max_extra_queries=0))
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
])
def test_analyze_bad_flag_is_usage_error(tmp_path, capsys, flags, flag):
    out = tmp_path / "a.csv"
    assert run(["analyze", *flags, "--out", out]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_analyze_census(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["analyze", "census", "--precision", 12, "--samples", 30,
                "--seed", 2, "--out", out]) == 0
    rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
    assert float(rows["mean_orbit_length"]) > 1


# sha256 of the CSV that `tentbreak analyze FIGURE [--n N] --out F` wrote at
# commit 1c587b0, with TENTBREAK_SEED unset; a changed float in the curve or
# the census changes the digest
GOLDEN_DIGESTS = {
    "fig2 --n 1": "45f2634ae852a2703a6d8100b7c8b26b0c4499b108268ee61627b9edd8470224",
    "fig2 --n 2": "48c1b80117b3d63799aec1de5f819710edee531c576c4afe4fdf3706e2474be6",
    "fig2 --n 16": "ef69c728cdd4657841dbe97a5e7efe17ac75c7e0f819c9bb987222a8b04ce944",
    "census": "05714e9035cb64dd1c801ec506175304c8a79c862ccd3ec8e0c73b49a39ca87e",
}


@pytest.mark.parametrize("figure", GOLDEN_DIGESTS)
def test_analyze_figures_match_golden_digests(tmp_path, monkeypatch, figure):
    monkeypatch.delenv("TENTBREAK_SEED", raising=False)
    out = tmp_path / "f.csv"
    assert run(["analyze", *figure.split(), "--out", out]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_DIGESTS[figure]


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
    state = attack.RecoveredState(n=2, r=6)
    for i in range(6):
        state.perms[i] = s.F[i]
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
                         ("K", "zz"), ("n", "two")):
        code, err = _encrypt_with_key_field(tmp_path, capsys, field, value)
        assert code == 2
        assert str(tmp_path / "key.txt") in err and f": {field}" in err, err
    # the alpha line is line 1, K line 4; lines that are no field, or repeat one
    for field, line, error in (
            ("alpha", "garbage", "line 1: expected name=value"),
            ("alpha", "alpah=3", "line 1: expected name=value"),
            ("K", "K=0x5a\nK=0x00", "line 5: K: repeats line 4"),
            ("n", "n=2\n\nalpha=fp62:0x1", "line 7: alpha: repeats line 1")):
        code, err = _encrypt_with_key_field(tmp_path, capsys, field, None, line)
        assert code == 2
        assert f"{tmp_path / 'key.txt'}: {error}" in err, err
        assert not (tmp_path / "ct.txt").exists()


def test_keygen_rejects_alpha_out_of_range(tmp_path, capsys):
    for alpha in (0, 1, -0.5, 1.5, "nan", 1e-30):
        out = tmp_path / "key.txt"
        assert run(["keygen", "--alpha", alpha, "--seed", 1, "--out", out]) == 2
        assert "--alpha" in capsys.readouterr().err
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
