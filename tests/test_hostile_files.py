"""Malformed input files never end in a traceback.

Each command that reads a key, ciphertext, recovered-state, table or pairs
file is fed arbitrary bytes, or a valid file with bytes replaced, deleted,
inserted or cut off.  cli.main must return 0, 2 or 4 and raise nothing,
and a usage error (2) must name the file.
"""

import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tentbreak import cli, keystream


def _valid_files():
    """A valid file of every kind in the working directory, named by its
    kind and written by the command that writes it."""
    with open("m.bin", "wb") as fh:
        fh.write(bytes(range(6)))
    for argv in (["keygen", "--seed", "3", "--out", "key"],
                 ["encrypt", "--key", "key", "--t", "77", "m.bin",
                  "--out", "ciphertext"],
                 ["attack", "--mode", "cpa", "--r", "4", "--out", "state"]):
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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.main(argv)
    assert code in (0, 2, 4)
    if code == 2:       # a usage error names the file at fault
        err = capsys.readouterr().err
        assert "hostile" in err, err
