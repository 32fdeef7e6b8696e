"""Command-line surface: key generation, encryption, attacks and analyses.

Exit codes: 0 success, 2 usage error, 3 oracle-model violation,
4 verification failure.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import warnings
from fractions import Fraction

from . import analysis, attack, cipher, keystream, tentmap
from .backend import ParameterError, get_backend

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ORACLE = 3
EXIT_VERIFY = 4


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("TENTBREAK_SEED")
    return int(env) if env else 0


def _n(args, default: int = 2) -> int:
    """--n if it was given, else the command's own default."""
    return args.n if args.n is not None else default


def _load_table(args):
    if args.table:
        return keystream.QuarterPermTable.load(args.table)
    return keystream.DEFAULT_TABLE


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
    if len(blocks) * 4 * n % 8:
        raise ParameterError("block stream is not a whole number of bytes")
    return bytes.fromhex("".join(f"{b:0{n}x}" for b in blocks))


# ---------------------------------------------------------------------------
# subcommands

def cmd_keygen(args) -> int:
    backend = get_backend(args.backend)
    rng = random.Random(_seed(args))
    if args.alpha is not None:
        alpha = backend.from_float(args.alpha)
    else:
        # safe sampling range: 0 < |alpha - 0.5| < 0.01
        off = rng.uniform(0.0005, 0.0095) * rng.choice((-1, 1))
        alpha = backend.from_float(0.5 + off)
    n = _n(args)
    if not 1 <= n <= 16:
        raise ParameterError(f"--n must be in 1..16, got {n}")
    key = cipher.KeyMaterial(
        alpha=alpha,
        beta=backend.from_float(rng.uniform(0.05, 0.95)),
        gamma=backend.from_float(rng.uniform(0.05, 0.95)),
        K=rng.randrange(1 << (4 * n)),
    )
    notes = cipher.check_key_strength(key, backend)
    if notes and not args.allow_weak and args.alpha is not None:
        print("warning: " + "; ".join(notes), file=sys.stderr)
    cipher.save_key(key, n, backend, args.out)
    print(f"wrote key file {args.out}")
    return EXIT_OK


def _warn_degenerate(session) -> None:
    if session.degenerate:
        print(f"warning: timestamp t={session.t} gives a degenerate initial "
              "condition (x0 is 0 or 1), so the keystream does not depend "
              "on t or gamma", file=sys.stderr)


def cmd_encrypt(args) -> int:
    key, n, backend = cipher.load_key(args.key)
    with open(args.infile, "rb") as fh:
        blocks = blocks_from_bytes(fh.read(), n)
    session = cipher.init_session(key, args.t, n, max(len(blocks), 1),
                                  backend, table=_load_table(args))
    _warn_degenerate(session)
    out = cipher.encrypt(session, cipher.Message(blocks, args.t))
    cipher.save_ciphertext(out, n, args.out)
    print(f"encrypted {len(blocks)} blocks -> {args.out} (t={args.t})")
    return EXIT_OK


def cmd_decrypt(args) -> int:
    key, n, backend = cipher.load_key(args.key)
    msg, n_file = cipher.load_ciphertext(args.infile)
    if n_file != n:
        print(f"error: ciphertext n={n_file} does not match key n={n}",
              file=sys.stderr)
        return EXIT_USAGE
    session = cipher.init_session(key, msg.t, n, max(len(msg.blocks), 1),
                                  backend, table=_load_table(args))
    _warn_degenerate(session)
    out = cipher.decrypt(session, msg)
    with open(args.out, "wb") as fh:
        fh.write(blocks_to_bytes(out.blocks, n))
    print(f"decrypted {len(out.blocks)} blocks -> {args.out}")
    return EXIT_OK


def _victim_session(args):
    """The hidden session the attack commands break, hosted locally."""
    backend = get_backend(args.backend)
    if args.key:
        key, n, backend = cipher.load_key(args.key)
    else:
        rng = random.Random(f"victim:{_seed(args)}")
        n = _n(args)
        key = cipher.KeyMaterial(
            backend.from_float(rng.uniform(0.02, 0.98)),
            backend.from_float(rng.uniform(0.02, 0.98)),
            backend.from_float(rng.uniform(0.02, 0.98)),
            rng.randrange(1 << (4 * n)),
        )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", cipher.WeakKeyWarning)
        return cipher.init_session(key, args.t, n, args.r, backend,
                                   table=_load_table(args))


def cmd_attack(args) -> int:
    session = _victim_session(args)
    n, r = session.n, session.r
    try:
        if args.mode == "cpa":
            oracle = (attack.DriftingClockOracle(session) if args.drift
                      else attack.EncryptionOracle(session))
            state = attack.recover_all_f(oracle, r, n)
        elif args.mode == "cca":
            oracle = attack.DecryptionOracle(session)
            state = attack.recover_all_finv(oracle, r, n)
        else:  # full
            rng = random.Random(f"known:{_seed(args)}")
            oracle = attack.EncryptionOracle(session)
            known = []
            for _ in range(2):
                p = [rng.randrange(1 << (4 * n)) for _ in range(r)]
                c = cipher.encrypt(session, cipher.Message(p, session.t)).blocks
                known.append((p, c))
            report = attack.full_attack(oracle, known, r, n, seed=_seed(args))
            state = report.state
            fresh = [rng.randrange(1 << (4 * n)) for _ in range(r)]
            fresh_c = cipher.encrypt(session, cipher.Message(fresh, session.t)).blocks
            ok = attack.keyless_decrypt(state, fresh_c) == fresh
        exact = all(state.perms[j].dest == session.F[j].dest for j in range(r))
        if args.mode == "full":
            print(f"full: {report.recovery_queries} recovery queries "
                  f"+ {report.extra_queries} disambiguation queries; "
                  f"permutations exact={exact}; keyless decryption "
                  f"verified={ok}")
            if not ok:
                attack.save_state(state, args.out)
                return EXIT_VERIFY
        else:
            print(f"{args.mode}: {oracle.query_count} queries, "
                  f"recovered f_0..f_{r - 1} exact={exact}")
    except attack.OracleModelViolation as exc:
        print(f"oracle-model violation: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    attack.save_state(state, args.out)
    print(f"wrote recovered state {args.out}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    backend = get_backend(args.backend)
    seed = _seed(args)
    if args.samples is not None and args.samples < 1:
        raise ParameterError(f"--samples must be >= 1, got {args.samples}")
    if args.figure == "fig1":
        p = tentmap.TentParams(backend.from_float(0.1), backend.from_float(0.7))
        hist = analysis.sample_histogram(p, backend.from_float(0.3), 2,
                                         args.samples or 1000, backend,
                                         mended=args.mended)
        analysis.emit_csv(hist, args.out, alpha=Fraction(1, 10))
    elif args.figure == "fig2":
        points = analysis.complexity_curve(_n(args, 16))
        analysis.emit_csv(points, args.out)
    elif args.figure == "fig3":
        p = tentmap.TentParams(backend.from_float(0.5), backend.from_float(0.4))
        orbit = tentmap.iterate_orbit(backend.from_float(0.123), p, 200, backend)
        with open(args.out, "w") as fh:
            fh.write("i,x\n")
            for i, x in enumerate(orbit, start=1):
                fh.write(f"{i},{backend.to_float(x):.12g}\n")
    elif args.figure == "beta":
        L = args.precision or backend.bits
        p, expected, dec_bytes = analysis.beta_impact(L)
        model_mean = analysis.first_hit_model_trials(min(L, 24), 200, seed=seed,
                                                     workers=args.workers)
        analysis.emit_csv({
            "precision_bits": L,
            "hit_probability": p,
            "expected_first_hit": expected,
            "decryptable_bytes": dec_bytes,
            "model_trial_mean": model_mean,
        }, args.out)
    else:  # census
        L = args.precision or 16
        mean, lengths = analysis.orbit_length_census(
            L, args.alpha or 0.37, args.samples or 500, seed=seed,
            workers=args.workers)
        analysis.emit_csv({
            "precision_bits": L,
            "samples": len(lengths),
            "mean_orbit_length": mean,
            "sqrt_scale_reference": 2 ** (L / 2),
        }, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_solve_u(args) -> int:
    state = attack.load_state(args.state)
    pairs = []
    with open(args.pairs) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                pair = tuple(int(x, 16) for x in line.split())
            except ValueError:
                pair = ()
            if len(pair) != 4:
                raise ParameterError(f"{args.pairs}: line {lineno}: expected "
                                     f"four hex values, got {line!r}")
            pairs.append(pair)
    f = state.perms.get(args.j - 1)
    if not 2 <= args.j <= state.r or f is None:
        raise ParameterError(f"--j {args.j} must name a block 2..{state.r} "
                             f"whose f{args.j - 1} is in {args.state} (r={state.r})")
    if args.alpha_est is not None and not 0 < args.alpha_est < 1:
        raise ParameterError(f"--alpha-est must be in (0, 1), got {args.alpha_est}")
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

def build_parser() -> argparse.ArgumentParser:
    # the shared flags are accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--backend", default=argparse.SUPPRESS,
                        help="arithmetic backend: fpNN or f64 (default fp62)")
    common.add_argument("--n", type=int, default=argparse.SUPPRESS,
                        help="block parameter (4n-bit blocks; default 2, "
                             "16 for analyze fig2)")
    common.add_argument("--r", type=int, default=argparse.SUPPRESS,
                        help="precomputation bound r of the attack's "
                             "victim session (encrypt and decrypt size the "
                             "session from the message)")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="RNG seed (fallback: TENTBREAK_SEED)")
    common.add_argument("--workers", type=int, default=argparse.SUPPRESS)
    common.add_argument("--table", default=argparse.SUPPRESS,
                        help="quarter-permutation table file")

    ap = argparse.ArgumentParser(prog="tentbreak", parents=[common])
    ap.set_defaults(backend="fp62", n=None, r=16, seed=None, workers=1, table=None)
    sub = ap.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("keygen", help="write a key file", parents=[common])
    s.add_argument("--alpha", type=float, help="explicit alpha (may be weak)")
    s.add_argument("--allow-weak", action="store_true")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_keygen)

    s = sub.add_parser("encrypt", parents=[common])
    s.add_argument("--key", required=True)
    s.add_argument("--t", type=int, required=True, help="timestamp")
    s.add_argument("infile")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_encrypt)

    s = sub.add_parser("decrypt", parents=[common])
    s.add_argument("--key", required=True)
    s.add_argument("infile")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_decrypt)

    s = sub.add_parser("attack", parents=[common])
    s.add_argument("--mode", choices=("cpa", "cca", "full"), default="full")
    s.add_argument("--key", help="victim key file (default: random from seed)")
    s.add_argument("--t", type=int, default=123456789)
    s.add_argument("--drift", action="store_true",
                   help="negative test: victim clock drifts between queries")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_attack)

    s = sub.add_parser("analyze", parents=[common])
    s.add_argument("figure", choices=("fig1", "fig2", "fig3", "beta", "census"))
    s.add_argument("--samples", type=int)
    s.add_argument("--alpha", type=float)
    s.add_argument("--precision", type=int, help="L for beta/census")
    s.add_argument("--mended", action="store_true")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_analyze)

    s = sub.add_parser("solve-u", parents=[common])
    s.add_argument("--state", required=True, help="recovered-state file")
    s.add_argument("--pairs", required=True,
                   help="file of hex lines: Pprev Pj Cprev Cj")
    s.add_argument("--j", type=int, required=True, help="block index (>= 2)")
    s.add_argument("--alpha-est", type=float,
                   help="list the solved candidates in prioritized "
                        "order (only ranks them; does not change which "
                        "are found)")
    s.set_defaults(func=cmd_solve_u)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
