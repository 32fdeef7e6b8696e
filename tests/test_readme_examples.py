"""Every `tentbreak ...` line of README's CLI block runs as documented."""

import random
import re
import shlex
from pathlib import Path

from tentbreak import cipher, cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _cli_lines() -> list:
    """The command lines of the sh block under '## CLI', comments dropped."""
    section = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("tentbreak ")]


def _write_pairs(path, attack_argv) -> None:
    """A pair line for solve-u --j 3 from the victim session that the
    documented attack line breaks."""
    args = cli.build_parser().parse_args(attack_argv)
    session = cli._victim_session(args)
    top = 1 << (4 * session.n)
    rng = random.Random(1)
    p = [rng.randrange(top) for _ in range(3)]
    c = cipher.encrypt(session, cipher.Message(p, session.t)).blocks
    path.write_text(f"{p[1]:x} {p[2]:x} {c[1]:x} {c[2]:x}\n")


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "message.bin").write_bytes(bytes(range(12)))
    lines = _cli_lines()
    assert len(lines) >= 10 and lines[0][0] == "keygen"
    for argv in lines:
        if argv[0] == "solve-u":
            attack_argv = next(a for a in lines
                               if a[:3] == ["attack", "--mode", "full"])
            _write_pairs(tmp_path / "pairs.txt", attack_argv)
        expected = 3 if "--drift" in argv else 0
        assert cli.main(argv) == expected, argv
