"""Malformed input files never end in a traceback.

Each command that reads a key, ciphertext, recovered-state, table or pairs
file is fed arbitrary bytes, or a valid file with bytes replaced, deleted,
inserted or cut off.  cli.main must return 0, 2 or 4 and raise nothing,
not even a warning, and a usage error (2) must name the file.

Every number in those files is spelled as the writers spell it: a valid
file with one number respelled in a way int() would still read (a sign, an
underscore, a space or a non-ASCII digit) is a usage error naming the file
and the line.
"""

import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tentbreak import cli, keystream


def _valid_files():
    """A valid file of every kind in the working directory, named by its
    kind and written by the command that writes it, and key64, a key on
    the f64 backend."""
    with open("m.bin", "wb") as fh:
        fh.write(bytes(range(6)))
    for argv in (["keygen", "--seed", "3", "--out", "key"],
                 ["keygen", "--seed", "3", "--backend", "f64", "--out", "key64"],
                 ["encrypt", "--key", "key", "--t", "77", "m.bin",
                  "--out", "ciphertext"],
                 ["attack", "--r", "4", "--seed", "0", "--out", "state"]):
        assert cli.main(argv) == 0
    with open("table", "w") as fh:
        fh.writelines(f"{v}: {a} {b} {c} {d}\n" for v, (a, b, c, d)
                      in enumerate(keystream.DEFAULT_TABLE.entries))
    with open("pairs", "w") as fh:
        fh.write("12 34 56 78\n9a bc de f0\n")


# the command that reads each kind of file, with that file in the {} slot
COMMANDS = {
    "key": ["encrypt", "--key", "{}", "--t", "77", "m.bin", "--out", "out"],
    "ciphertext": ["decrypt", "--key", "key", "{}", "--out", "out"],
    "state": ["solve-u", "--state", "{}", "--pairs", "pairs", "--j", "3"],
    "table": ["attack", "--mode", "cpa", "--r", "2", "--table", "{}",
              "--out", "out"],
    "pairs": ["solve-u", "--state", "state", "--pairs", "{}", "--j", "3"],
}


# bytes that the file formats give meaning to
TOKENS = st.text("0123456789abcdefx:=# -\n", min_size=1, max_size=8).map(str.encode)


@st.composite
def mutated(draw, original: bytes) -> bytes:
    data = bytearray(original)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(("replace", "delete", "insert", "cut")))
        chunk = draw(st.binary(min_size=1, max_size=8) | TOKENS)
        if op == "replace":
            data[at:at + len(chunk)] = chunk
        elif op == "delete":
            del data[at:at + len(chunk)]
        elif op == "insert":
            data[at:at] = chunk
        else:
            del data[at:]
    return bytes(data)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("hostile")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(d)
        _valid_files()
    return d


@pytest.mark.parametrize("kind", COMMANDS)
@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_file_exits_cleanly(workdir, monkeypatch, capsys, kind, data):
    monkeypatch.chdir(workdir)
    content = data.draw(st.one_of(
        st.binary(max_size=200), mutated((workdir / kind).read_bytes())))
    (workdir / "hostile").write_bytes(content)
    argv = [a.replace("{}", "hostile") for a in COMMANDS[kind]]
    capsys.readouterr()
    code = cli.main(argv)
    assert code in (0, 2, 4)
    if code == 2:       # a usage error names the file at fault
        err = capsys.readouterr().err
        assert "hostile" in err, err


# each numeric field: the file it is in and a pattern whose group is one
# number, and the respellings of it that int() reads as a valid value
FIELDS = {
    "key-n": ("key", r"^n=(\w+)", "+_٢"),
    "key-K": ("key", r"^K=(\w+)", "+_٢"),
    "key-precision": ("key", r"^alpha=fp(\w+):", "+_٢"),
    "key-alpha": ("key", r"^alpha=fp62:(\w+)", "+_٢"),
    "key-f64-alpha": ("key64", r"^alpha=f64:(\w+)", " "),
    "ciphertext-t": ("ciphertext", r"t=(\w+)", "+_٢"),
    "ciphertext-n": ("ciphertext", r" n=(\w+)", "+_٢"),
    "ciphertext-len": ("ciphertext", r"len=(\w+)", "+_٢"),
    "ciphertext-block": ("ciphertext", r"^(\w+)$", "+_٢"),
    "state-f-index": ("state", r"^f(\w+):", "+٢"),
    "state-dest": ("state", r"^f0:.*? (0) ", "+-_٢"),
    "state-U": ("state", r"^U3: (\w+)", "+_٢"),
    "state-reg1": ("state", r"^reg1: (\w+)", "+_٢"),
    "table-selector": ("table", r"^(\w+):", "+٢"),
    "table-entry": ("table", r"^0: (\w+)", "+_٢"),
    "pairs": ("pairs", r"^(\w+)", "+_٢"),
}


ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def _respell(number: str, how: str) -> str:
    """`number` with a sign, an inner '_' or ' ', or (٢) in Arabic-Indic
    digits, which int() reads as the same value ('-' only on 0)."""
    prefix = "0x" if number.startswith("0x") else ""
    digits = number[len(prefix):]
    if how in "+-":
        return how + number
    if how == "٢":      # hex letters stay; no digit to change gets a ٠ put first
        arabic = digits.translate(ARABIC_INDIC)
        return prefix + (arabic if arabic != digits else "٠" + digits)
    digits = digits if len(digits) > 1 else "0" + digits
    half = len(digits) // 2     # an even offset: bytes.fromhex takes spaces there
    return prefix + digits[:half] + how + digits[half:]


@pytest.mark.parametrize("field, how", [
    (field, how) for field, (_, _, hows) in FIELDS.items() for how in hows])
def test_number_spelled_otherwise_names_file_and_line(workdir, monkeypatch,
                                                       capsys, field, how):
    monkeypatch.chdir(workdir)
    source, pattern, _ = FIELDS[field]
    text = (workdir / source).read_text()
    match = re.search(pattern, text, re.MULTILINE)
    line = text.count("\n", 0, match.start(1)) + 1
    (workdir / "hostile").write_text(
        text[:match.start(1)] + _respell(match[1], how) + text[match.end(1):])
    kind = source.removesuffix("64")
    argv = [a.replace("{}", "hostile") for a in COMMANDS[kind]]
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert f"hostile: line {line}: " in capsys.readouterr().err
