"""Each command takes exactly the flags it reads.

test_every_accepted_flag_changes_the_outcome walks build_parser() over every
subcommand and analyze figure.  For each flag a command accepts it runs the
command twice, with the two values VALUES gives, and asserts that the exit
code, stdout, stderr or the written files differ.  A flag missing from
VALUES fails the test, and so does an entry for a flag no command takes.
The flags that no command read, but every command accepted before the flag
table, are usage errors (test_flags_nothing_reads_are_usage_errors).
"""

import argparse
import random
import shutil

import pytest

from tentbreak import cipher, cli, keystream

# the command line each command is varied from: flag -> value, "infile" is
# the positional input file
BASE = {
    "keygen": {"--alpha": 0.1, "--out": "out"},
    "encrypt": {"--key": "key", "--t": 77, "infile": "m.bin", "--out": "out"},
    "decrypt": {"--key": "key", "infile": "ct", "--out": "out"},
    "attack": {"--mode": "cpa", "--r": 2, "--out": "out"},
    "analyze fig1": {"--samples": 300, "--out": "out"},
    "analyze fig2": {"--n": 2, "--out": "out"},
    "analyze fig3": {"--out": "out"},
    "analyze beta": {"--precision": 12, "--out": "out"},
    "analyze census": {"--precision": 8, "--samples": 20, "--out": "out"},
    "solve-u": {"--state": "state", "--pairs": "pairs", "--j": 3},
}

# (command, flag) -> two values; None leaves the flag out, True gives it bare
VALUES = {
    ("keygen", "--backend"): ("fp62", "f64"),
    ("keygen", "--n"): (2, 3),
    ("keygen", "--seed"): (1, 2),
    ("keygen", "--alpha"): (0.1, 0.2),
    ("keygen", "--allow-weak"): (None, True),
    ("keygen", "--out"): ("out", "out2"),
    ("encrypt", "--table"): (None, "table"),
    ("encrypt", "--key"): ("key", "key2"),
    ("encrypt", "--t"): (77, 78),
    ("encrypt", "infile"): ("m.bin", "m2.bin"),
    ("encrypt", "--out"): ("out", "out2"),
    ("decrypt", "--table"): (None, "table"),
    ("decrypt", "--key"): ("key", "key2"),
    ("decrypt", "infile"): ("ct", "ct2"),
    ("decrypt", "--out"): ("out", "out2"),
    ("attack", "--backend"): ("fp62", "fp8"),
    ("attack", "--n"): (1, 2),
    ("attack", "--r"): (2, 3),
    ("attack", "--seed"): (1, 2),
    ("attack", "--table"): (None, "table"),
    ("attack", "--mode"): ("cpa", "cca"),
    ("attack", "--key"): (None, "key"),
    ("attack", "--t"): (5, 6),
    ("attack", "--drift"): (None, True),
    ("attack", "--out"): ("out", "out2"),
    ("analyze fig1", "--backend"): ("fp62", "f64"),
    ("analyze fig1", "--samples"): (300, 301),
    ("analyze fig1", "--mended"): (None, True),
    ("analyze fig1", "--out"): ("out", "out2"),
    ("analyze fig2", "--n"): (1, 2),
    ("analyze fig2", "--out"): ("out", "out2"),
    ("analyze fig3", "--backend"): ("fp62", "fp8"),
    ("analyze fig3", "--out"): ("out", "out2"),
    ("analyze beta", "--precision"): (12, 13),
    ("analyze beta", "--seed"): (1, 2),
    ("analyze beta", "--out"): ("out", "out2"),
    ("analyze census", "--precision"): (8, 9),
    ("analyze census", "--samples"): (20, 21),
    ("analyze census", "--alpha"): (0.37, 0.4),
    ("analyze census", "--seed"): (1, 2),
    ("analyze census", "--out"): ("out", "out2"),
    ("solve-u", "--state"): ("state", "state2"),
    ("solve-u", "--pairs"): ("pairs", "pairs2"),
    ("solve-u", "--j"): (3, 2),
    ("solve-u", "--alpha-est"): (None, 0.9),
}

# the (command, flag) pairs that every command accepted before the flag
# table and that changed nothing, with a valid value for each flag
DROPPED = {
    "keygen": "--r --table",
    "encrypt": "--backend --n --r --seed",
    "decrypt": "--backend --n --r --seed",
    "analyze fig1": "--n --r --seed --table --alpha --precision",
    "analyze fig2": "--backend --r --seed --table --samples --alpha --precision "
                    "--mended",
    "analyze fig3": "--n --r --seed --table --samples --alpha --precision --mended",
    "analyze beta": "--n --r --table --samples --alpha --mended",
    "analyze census": "--backend --n --r --table --mended",
    "solve-u": "--backend --n --r --seed --table",
}
VALID = {"--backend": "fp62", "--n": 2, "--r": 4, "--seed": 1, "--table": "table",
         "--alpha": 0.3, "--precision": 10, "--samples": 5, "--mended": True}


def _commands(parser, path=()):
    """(command path, parser) of every command that runs a handler."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
    for sub in subs:
        for name, child in sub.choices.items():
            yield from _commands(child, (*path, name))


def _accepted() -> set:
    return {(command, (a.option_strings or [a.dest])[0])
            for command, parser in _commands(cli.build_parser())
            for a in parser._actions if not isinstance(a, argparse._HelpAction)}


def _argv(command, flags) -> list:
    argv = command.split()
    for flag, value in flags.items():
        if flag == "infile":
            argv.append(value)
        elif value is True:
            argv.append(flag)
        elif value is not None:
            argv += [flag, str(value)]
    return argv


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Every file the commands read, two of each kind, in one directory."""
    d = tmp_path_factory.mktemp("inputs")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(d)
        (d / "m.bin").write_bytes(bytes(range(6)))
        (d / "m2.bin").write_bytes(bytes(range(1, 7)))
        entries = list(keystream.DEFAULT_TABLE.entries)
        entries[0], entries[1] = entries[1], entries[0]
        (d / "table").write_text("".join(f"{v}: {' '.join(map(str, e))}\n"
                                         for v, e in enumerate(entries)))
        attack = ["attack", "--mode", "cpa", "--r", "4", "--seed"]
        for argv in (["keygen", "--seed", "3", "--out", "key"],
                     ["keygen", "--seed", "4", "--out", "key2"],
                     ["encrypt", "--key", "key", "--t", "77", "m.bin", "--out", "ct"],
                     ["encrypt", "--key", "key", "--t", "77", "m2.bin", "--out", "ct2"],
                     [*attack, "3", "--out", "state"],
                     [*attack, "5", "--out", "state2"]):
            assert cli.main(argv) == 0, argv
        session = cli._victim_session(cli.build_parser().parse_args(
            [*attack, "3", "--out", "state"]))
        rng = random.Random(12)     # "pairs" has 4 solutions, for --alpha-est
        for name in ("pairs", "pairs2"):
            p = [rng.randrange(256) for _ in range(3)]
            c = cipher.encrypt(session, cipher.Message(p, session.t)).blocks
            (d / name).write_text(f"{p[1]:x} {p[2]:x} {c[1]:x} {c[2]:x}\n")
    return d


def _outcome(inputs, workdir, monkeypatch, capsys, argv):
    """Exit code, stdout, stderr and the files of a fresh copy of `inputs`
    after running argv there."""
    shutil.copytree(inputs, workdir)
    monkeypatch.chdir(workdir)
    capsys.readouterr()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err, {p.name: p.read_bytes() for p in workdir.iterdir()}


def test_every_accepted_flag_changes_the_outcome(inputs, tmp_path, monkeypatch,
                                                 capsys):
    accepted = _accepted()
    assert accepted == set(VALUES)      # 94 pairs before the flag table
    assert set(BASE) == {command for command, _ in accepted}
    for k, ((command, flag), values) in enumerate(sorted(VALUES.items())):
        first, second = (
            _outcome(inputs, tmp_path / f"{k}-{i}", monkeypatch, capsys,
                     _argv(command, {**BASE[command], flag: value}))
            for i, value in enumerate(values))
        assert first[0] in (0, 3, 4), (command, flag, first)
        assert first != second, (command, flag)


def test_flags_nothing_reads_are_usage_errors(inputs, monkeypatch, capsys):
    monkeypatch.chdir(inputs)
    dropped = [(command, flag) for command, flags in DROPPED.items()
               for flag in flags.split()]
    assert len(dropped) == 48 and not set(dropped) & set(VALUES)
    # beta's --backend only chose its default precision, now --precision's 62
    for command, flag in [*dropped, ("analyze beta", "--backend")]:
        argv = _argv(command, {**BASE[command], flag: VALID[flag]})
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"error: unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (inputs / "out").exists()
