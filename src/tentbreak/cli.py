"""Command-line surface: key generation, encryption, attacks and analyses.

Exit codes: 0 success, 2 usage error, 3 oracle-model violation,
4 verification failure, 141 (128 + SIGPIPE) stdout closed early (README).
"""

from __future__ import annotations

import argparse
import io
import os
import random
import sys
from contextlib import redirect_stdout, suppress
from fractions import Fraction
from functools import cache, partial
from itertools import islice

from . import analysis, attack, cipher, keystream, tentmap
from .backend import FixedPointBackend, ParameterError, get_backend, number, read_lines

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ORACLE = 3
EXIT_VERIFY = 4
EXIT_PIPE = 141

# pairs per block that attack --mode full solves: its known messages topped
# up with chosen plaintexts
FULL_PAIRS = 32


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("TENTBREAK_SEED") or "0"
    try:
        return int(env)     # as argparse reads --seed
    except ValueError:
        raise ParameterError(f"TENTBREAK_SEED={env!r} is not an integer") from None


def _int_in(lo: int, hi: int | None = None):
    """The argparse type of an integer flag in lo..hi (lo up if hi is None)."""
    expected = f"an integer in {lo}..{hi}" if hi else f"an integer >= {lo}"

    def read(text: str) -> int:
        with suppress(ValueError):      # int() reads the text as type=int does
            if lo <= (value := int(text)) <= (hi or value):
                return value
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return read


def _open_unit(text: str) -> float:
    """The argparse type of a float flag strictly inside (0, 1)."""
    with suppress(ValueError):
        if 0 < (value := float(text)) < 1:      # nan is not inside
            return value
    raise argparse.ArgumentTypeError(f"expected a number strictly inside (0, 1), "
                                     f"got {text!r}")


def _check_drawn(key, backend, args) -> None:
    """The alpha, beta and gamma drawn from the seed lie inside (0, 1)."""
    for name in ("alpha", "beta", "gamma"):
        try:
            tentmap.check_open_unit(getattr(key, name), backend, name)
        except ParameterError as exc:
            raise ParameterError(f"drawn {exc} at {args.backend} precision; "
                                 "try another --seed") from None


def _load_table(args):
    """The --table file's table, or None for init_session's default."""
    return keystream.QuarterPermTable.load(args.table) if args.table else None


# ---------------------------------------------------------------------------
# block framing: files are bit streams, packed MSB-first into 4n-bit blocks

def blocks_from_bytes(data: bytes, n: int) -> list:
    width = 4 * n
    if len(data) * 8 % width:
        raise ParameterError(
            f"input of {len(data)} bytes is not a whole number of {width}-bit blocks")
    digits = data.hex()  # a 4n-bit block is exactly n hex digits
    return [int(digits[i:i + n], 16) for i in range(0, len(digits), n)]


def blocks_to_bytes(blocks, n: int) -> bytes:
    width = 4 * n
    if len(blocks) * width % 8:
        raise ParameterError("block stream is not a whole number of bytes")
    for j, b in enumerate(blocks, start=1):
        if b >> width:
            raise ParameterError(f"block {j} wider than 4n bits")
    return bytes.fromhex("".join(f"{b:0{n}x}" for b in blocks))


# ---------------------------------------------------------------------------
# subcommands

def cmd_keygen(args) -> int:
    backend = get_backend(args.backend)
    rng = random.Random(_seed(args))
    if args.alpha is not None:
        alpha = backend.from_float(args.alpha)
        if not backend.zero < alpha < backend.one:
            raise ParameterError(f"--alpha {args.alpha} rounds to 0 or 1 at "
                                 f"--backend {args.backend}")
    else:
        # safe sampling range: 0 < |alpha - 0.5| < 0.01
        off = rng.uniform(0.0005, 0.0095) * rng.choice((-1, 1))
        alpha = backend.from_float(0.5 + off)
    key = cipher.KeyMaterial(
        alpha=alpha,
        beta=backend.from_float(rng.uniform(0.05, 0.95)),
        gamma=backend.from_float(rng.uniform(0.05, 0.95)),
        K=rng.randrange(1 << (4 * args.n)),
    )
    _check_drawn(key, backend, args)
    if not args.allow_weak:
        _warn(*cipher.check_key_strength(key, backend))
    cipher.save_key(key, args.n, backend, args.out)
    print(f"wrote key file {args.out}")
    return EXIT_OK


def _warn(*notes) -> None:
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)


def _message_session(args, key, n, backend, t: int, count: int):
    """The session read once (Session.once) of one message of `count` blocks
    at t, after the key's weak-key notes and whether t is degenerate."""
    session = cipher.init_session(key, t, n, max(count, 1), backend,
                                  table=_load_table(args))
    _warn(*cipher.check_key_strength(key, backend))
    if session.degenerate:
        _warn(f"timestamp t={t} gives a degenerate initial condition "
              "(x0 is 0 or 1), so the keystream does not depend on t or gamma")
    return session.once()


def cmd_encrypt(args) -> int:
    key, n, backend = cipher.load_key(args.key)
    with open(args.infile, "rb") as fh:
        data = fh.read()
    try:
        blocks = blocks_from_bytes(data, n)
    except ParameterError as exc:
        raise ParameterError(f"{args.infile}: {exc} (n={n} in {args.key})") from None
    session = _message_session(args, key, n, backend, args.t, len(blocks))
    out = cipher.encrypt(session, cipher.Message(blocks, args.t))
    cipher.save_ciphertext(out, n, args.out)
    print(f"encrypted {len(blocks)} blocks -> {args.out} (t={args.t})")
    return EXIT_OK


def cmd_decrypt(args) -> int:
    key, n, backend = cipher.load_key(args.key)
    msg, n_file = cipher.load_ciphertext(args.infile)
    if len(msg.blocks) * 4 * n_file % 8:
        raise ParameterError(f"{args.infile}: {len(msg.blocks)} blocks of "
                             f"{4 * n_file} bits are not a whole number of bytes")
    if n_file != n:
        raise ParameterError(f"{args.infile}: ciphertext n={n_file} does not "
                             f"match key n={n} of {args.key}")
    session = _message_session(args, key, n, backend, msg.t, len(msg.blocks))
    blocks = cipher.decrypt(session, msg).blocks
    del session, msg            # drop U and the ciphertext before packing
    data = blocks_to_bytes(blocks, n)   # before --out is opened and emptied
    with open(args.out, "wb") as fh:
        fh.write(data)
    print(f"decrypted {len(blocks)} blocks -> {args.out}")
    return EXIT_OK


def _victim_session(args):
    """The hidden session the attack commands break, hosted locally: the key
    file's, or one drawn from the seed at --n on --backend."""
    if args.key:
        given = getattr(args, "given", ())
        if given:
            raise ParameterError(f"--key and {given[0]} exclude each other: "
                                 "the key file sets n and the backend")
        key, n, backend = cipher.load_key(args.key)
    else:
        backend = get_backend(args.backend)
        rng = random.Random(f"victim:{_seed(args)}")
        n = args.n
        key = cipher.KeyMaterial(
            backend.from_float(rng.uniform(0.02, 0.98)),
            backend.from_float(rng.uniform(0.02, 0.98)),
            backend.from_float(rng.uniform(0.02, 0.98)),
            rng.randrange(1 << (4 * n)),
        )
    table = _load_table(args)
    if not args.key:
        _check_drawn(key, backend, args)
    return cipher.init_session(key, args.t, n, args.r, backend, table=table)


def cmd_attack(args) -> int:
    session = _victim_session(args)
    n, r = session.n, session.r
    oracle = attack.Oracle(session, drift=args.drift)
    if args.mode != "full":
        state = attack.recover_all_f(oracle, r, n, args.mode == "cca")
    else:
        rng = random.Random(f"known:{_seed(args)}")
        known = []
        for _ in range(2):
            p = [rng.randrange(1 << (4 * n)) for _ in range(r)]
            c = cipher.encrypt(session, cipher.Message(p, session.t)).blocks
            known.append((p, c))
        # top every block up to FULL_PAIRS pairs with chosen plaintexts
        chosen_rng = random.Random(f"chosen:{_seed(args)}")
        for _ in range(FULL_PAIRS - len(known)):
            p = [chosen_rng.randrange(1 << (4 * n)) for _ in range(r)]
            known.append((p, oracle.encrypt_blocks(p)))
        chosen = oracle.query_count
        report = attack.full_attack(oracle, known, r, n, seed=_seed(args))
        state = report.state
        if report.stopped == "budget":
            ambiguous = [k for k, tag in state.provenance.items()
                         if tag == "ambiguous"]
            _warn(f"disambiguation stopped after {report.extra_queries} "
                  "queries; still ambiguous: " + " ".join(ambiguous))
        fresh = [rng.randrange(1 << (4 * n)) for _ in range(r)]
        fresh_c = cipher.encrypt(session, cipher.Message(fresh, session.t)).blocks
        ok = attack.keyless_decrypt(state, fresh_c) == fresh
    exact = all(state.perms[j].dest == session.F[j].dest for j in range(r))
    attack.save_state(state, args.out)
    if args.mode == "full":
        print(f"full: {report.recovery_queries} recovery queries "
              f"+ {chosen} chosen-pair queries "
              f"+ {report.extra_queries} disambiguation queries; "
              f"permutations exact={exact}; keyless decryption "
              f"verified={ok}")
        if not ok:
            return EXIT_VERIFY
    else:
        print(f"{args.mode}: {oracle.query_count} queries, "
              f"recovered f_0..f_{r - 1} exact={exact}")
    print(f"wrote recovered state {args.out}")
    return EXIT_OK


def cmd_analyze(figure, args) -> int:
    """Writes the CSV that the figure's handler returns as (header, rows)."""
    analysis.emit_csv(args.out, *figure(args))
    print(f"wrote {args.out}")
    return EXIT_OK


def analyze_fig1(args):
    backend = get_backend(args.backend)
    p = tentmap.TentParams(backend.from_float(0.1), backend.from_float(0.7))
    if p.alpha == backend.zero:
        raise ParameterError(f"fig1's alpha 0.1 rounds to 0 at --backend "
                             f"{args.backend}")
    hist = analysis.sample_histogram(p, backend.from_float(0.3), 2,
                                     args.samples, backend, mended=args.mended)
    return (("value", "count", "frequency", "theoretical"),
            ((a, c, c / hist.samples,
              analysis.theoretical_prob(a, Fraction(1, 10), hist.n))
             for a, c in enumerate(hist.counts)))


def analyze_fig2(args):
    return ("alpha", "log2_com"), analysis.complexity_curve(args.n)


def analyze_fig3(args):
    backend = get_backend(args.backend)
    p = tentmap.TentParams(backend.from_float(0.5), backend.from_float(0.4))
    orbit = tentmap.orbit_stream(backend.from_float(0.123), p, backend)
    return ("i", "x"), ((i, backend.to_float(x))
                        for i, x in enumerate(islice(orbit, 1, 201), start=1))


def analyze_beta(args):
    L = args.precision
    p, expected, dec_bytes = analysis.beta_impact(L)
    return ("key", "value"), {
        "precision_bits": L,
        "hit_probability": p,
        "expected_first_hit": expected,
        "decryptable_bytes": dec_bytes,
        "model_trial_mean": analysis.first_hit_model_trials(L, 200,
                                                            seed=_seed(args)),
    }.items()


def analyze_census(args):
    L = args.precision
    if not 0 < FixedPointBackend(L).from_float(args.alpha) < 1 << L:
        raise ParameterError(f"--alpha {args.alpha} rounds to 0 or 1 at "
                             f"--precision {L}")
    mean, lengths = analysis.orbit_length_census(L, args.alpha, args.samples,
                                                 seed=_seed(args))
    return ("key", "value"), {
        "precision_bits": L,
        "samples": len(lengths),
        "mean_orbit_length": mean,
        "sqrt_scale_reference": 2 ** (L / 2),
    }.items()


def cmd_solve_u(args) -> int:
    state = attack.load_state(args.state)
    if state.r < 2:
        raise ParameterError(f"{args.state} (r={state.r}) has no block with a "
                             "noise vector to solve: solve-u needs r >= 2")
    width = 4 * state.n
    pairs = []

    def pair(lineno, line):
        try:
            values = tuple(number(x, 16) for x in line.split())
        except ValueError:
            values = ()
        if len(values) != 4:
            raise ValueError(f"expected four hex values, got {line!r}")
        if any(v >> width for v in values):
            raise ValueError(f"pair value outside the {width}-bit block range "
                             f"of {args.state}")
        pairs.append(values)

    read_lines(args.pairs, pair)
    f = state.perms.get(args.j - 1)
    if not 2 <= args.j <= state.r or f is None:
        whose = f"whose f{args.j - 1} is " if 2 <= args.j <= state.r else ""
        raise ParameterError(f"--j {args.j} must name a block 2..{state.r} "
                             f"{whose}in {args.state} (r={state.r})")
    try:
        sols = attack.solve_uj(pairs, f, state.n)
    except ParameterError as exc:  # bad input, not a failed verification
        raise ParameterError(f"{args.pairs}: {exc}") from None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    if args.alpha_est is not None:
        sols = attack.rank_candidates(sols, args.alpha_est, state.n)
    print(f"U_{args.j + 1} candidates ({len(sols)}): "
          + " ".join(f"0x{x:0{state.n}x}" for x in sols))
    return EXIT_OK


# ---------------------------------------------------------------------------

# Every flag, once, with the range of a number as its type.  A command lists
# the flags it reads, and may change their entries here for its own default,
# range or required.
FLAGS = {
    "--backend": dict(default="fp62",
                      help="arithmetic backend: fpNN or f64 (default fp62)"),
    "--n": dict(type=_int_in(1, 16), default=2,
                help="block parameter (4n-bit blocks; default %(default)s)"),
    "--r": dict(type=_int_in(1, 65536), default=16,
                help="precomputation bound r of the victim session (default 16)"),
    "--seed": dict(type=int, help="RNG seed (fallback: TENTBREAK_SEED)"),
    "--table": dict(help="quarter-permutation table file"),
    "--key": dict(required=True),
    "--t": dict(type=_int_in(1), required=True, help="timestamp"),
    "infile": dict(),
    "--out": dict(required=True),
    "--alpha": dict(type=_open_unit, help="alpha in (0, 1)"),
    "--allow-weak": dict(action="store_true"),
    "--mode": dict(choices=("cpa", "cca", "full"), default="full"),
    "--drift": dict(action="store_true",
                    help="negative test: victim clock drifts between queries"),
    "--samples": dict(type=_int_in(1, 10**6)),
    "--precision": dict(help="precision L in bits (default %(default)s)"),
    "--mended": dict(action="store_true"),
    "--state": dict(required=True, help="recovered-state file"),
    "--pairs": dict(required=True, help="file of hex lines: Pprev Pj Cprev Cj"),
    "--j": dict(type=int, required=True, help="block index (>= 2)"),
    "--alpha-est": dict(type=_open_unit,
                        help="list the solved candidates in prioritized "
                             "order (only ranks them; does not change which "
                             "are found)"),
}


class _Given(argparse.Action):
    """Stores the value as the default action does, and notes the flag in
    `given` for a command that refuses it next to another flag."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = (*getattr(namespace, "given", ()), self.option_strings[0])


# command -> (handler, the flags it reads, its changes to their entries);
# analyze takes a figure, and each figure is a command of its own whose
# handler returns the (header, rows) of its CSV
COMMANDS = {
    "keygen": (cmd_keygen, "--backend --n --seed --alpha --allow-weak --out", {}),
    "encrypt": (cmd_encrypt, "--table --key --t infile --out", {}),
    "decrypt": (cmd_decrypt, "--table --key infile --out", {}),
    "attack": (cmd_attack,
               "--backend --n --r --seed --table --mode --key --t --drift --out",
               {"--backend": dict(action=_Given), "--n": dict(action=_Given),
                "--key": dict(required=False,
                              help="victim key file (default: random from seed)"),
                "--t": dict(required=False, default=123456789)}),
    "analyze": {
        "fig1": (analyze_fig1, "--backend --samples --mended --out",
                 {"--samples": dict(default=1000)}),
        "fig2": (analyze_fig2, "--n --out", {"--n": dict(default=16)}),
        "fig3": (analyze_fig3, "--backend --out", {}),
        "beta": (analyze_beta, "--seed --precision --out",
                 {"--precision": dict(type=_int_in(2, 64), default=62)}),
        "census": (analyze_census, "--seed --samples --alpha --precision --out",
                   {"--samples": dict(default=500), "--alpha": dict(default=0.37),
                    "--precision": dict(type=_int_in(1, 24), default=16)}),
    },
    "solve-u": (cmd_solve_u, "--state --pairs --j --alpha-est", {}),
}


class _FlagBeforeSubcommand(argparse.Action):
    """A flag given before the subcommand (or figure), where the parser would
    otherwise read its value as the subcommand's name."""

    def __call__(self, parser, namespace, values, option_string=None):
        flag, where = self.option_strings[0], self.const
        parser.error(f"{flag} must follow the {where.lower()} "
                     f"({parser.prog} {where} {flag} ...)")


def _add_commands(parser, commands, dest: str, where: str) -> None:
    """A subparser per command, with the flags the command reads; a flag
    given before the command's name is a usage error that says so."""
    for flag in FLAGS:
        if flag.startswith("--"):
            parser.add_argument(flag, action=_FlagBeforeSubcommand, const=where,
                                default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, spec in commands.items():
        s = sub.add_parser(name)
        if isinstance(spec, dict):
            _add_commands(s, spec, "figure", "FIGURE")
        else:
            func, flags, changes = spec
            for flag in flags.split():
                s.add_argument(flag, **{**FLAGS[flag], **changes.get(flag, {})})
            s.set_defaults(func=partial(cmd_analyze, func) if dest == "figure"
                           else func)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing never changes it."""
    ap = argparse.ArgumentParser(prog="tentbreak")
    _add_commands(ap, COMMANDS, "cmd", "SUBCOMMAND")
    return ap


def main(argv=None) -> int:
    """Runs a command.  Its stdout, argparse's help too, is written once at
    the end: a closed stdout exits EXIT_PIPE there, quietly, unless the code
    is already nonzero.  argparse's exits still raise SystemExit."""
    held, args = io.StringIO(), None
    with redirect_stdout(held):
        try:
            args = build_parser().parse_args(argv)
            code = args.func(args)
        except SystemExit as exc:       # from argparse: help or a usage error
            code = exc.code
        except (OSError, ValueError) as exc:     # ParameterError is a ValueError
            print(f"error: {exc}", file=sys.stderr)
            code = EXIT_USAGE
        except attack.OracleModelViolation as exc:
            print(f"oracle-model violation: {exc}", file=sys.stderr)
            code = EXIT_ORACLE
    try:
        sys.stdout.write(held.getvalue())
        sys.stdout.flush()
    except BrokenPipeError:     # devnull takes the interpreter's exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = code or EXIT_PIPE
    if args is None:
        raise SystemExit(code)
    return code

if __name__ == "__main__":
    sys.exit(main())
