"""tentbreak benchmark: one workload per run, one JSON result line.

    python3 bench/run.py --workload break-n4 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run sets up the workload (five times, reporting the median),
then runs its operations in a closed loop with one client for ``--seconds``
seconds and checks every output.  Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Every time is reported in reference seconds.  On a shared host other
tenants slow this process down by up to about 1.7 times, in spells of
seconds to minutes, so a run's median moves with them however long the run
is.  The run therefore times ``reference_loop``, a fixed pure-Python loop,
right before and right after every set-up and every operation, and scales
that set-up's or operation's times by ``REF_NOMINAL_S`` over the mean of the
two: the time the work would take on a host where the loop takes
``REF_NOMINAL_S``.  The median scale is printed.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` runs every operation twice, untraced and with every function
in ``tracer.WRAPPED`` wrapped, alternating which goes first, and reports the
per-layer metrics named in ``BENCHMARK.json`` and the tracing overhead;
spans and aggregates go to ``.bench_work/trace-<workload>-seed<seed>.json``
in the checkout.

Scratch files (key, messages, ciphertexts) live under ``.bench_work/`` in
the checkout and are removed at the end.  Outside a checkout that has
``src/tentbreak`` the run exits with code 2 before printing a result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from workloads import BACKEND, SMALL, WORKLOADS  # noqa: E402

MODULES = ("backend", "tentmap", "keystream", "cipher", "attack", "analysis", "cli")
SETUP_REPEATS = 5
REF_NOMINAL_S = 0.02  # reference_loop's time on an idle 2-core x86-64 host, Python 3.11


def reference_loop() -> float:
    """Seconds for a fixed loop of the kind the package runs: 62-bit
    multiplies and masks, shifts, list indexing and additions."""
    t0 = time.perf_counter()
    x, acc, table = 0x2545F4914F6CDD1D, 0, list(range(64))
    for i in range(80000):
        x = (x * 0x5851F42D4C957F2D + i) & 0x3FFFFFFFFFFFFFFF
        acc += table[x & 63] ^ (x >> 31)
    return time.perf_counter() - t0


def referenced(fn, *args):
    """(fn(*args), measured seconds, reference seconds per measured second),
    the scale taken from reference loops right before and right after."""
    before = reference_loop()
    t0 = time.perf_counter()
    result = fn(*args)
    seconds = time.perf_counter() - t0
    return result, seconds, 2 * REF_NOMINAL_S / (before + reference_loop())


def fresh_import() -> dict:
    """Import the package from scratch, as a new process would."""
    for name in [m for m in sys.modules
                 if m == "tentbreak" or m.startswith("tentbreak.")]:
        del sys.modules[name]
    return {m: importlib.import_module(f"tentbreak.{m}") for m in MODULES}


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(values) -> tuple:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the median when that percentile lies below it,
    that is with fewer than 21 samples."""
    v = sorted(values)
    if len(v) < 21:
        return statistics.median(v), 50.0
    k = len(v) - 11
    return v[k], 100.0 * (k + 1) / len(v)


class Runner:
    def __init__(self, name: str, seed: int, small: bool = False):
        self.name = name
        self.seed = seed
        self.workload = WORKLOADS[name](**(SMALL[name] if small else {}))
        self.attempted = 0
        self.failed = 0
        self.scales = []  # reference seconds per measured second, per timing

    def setup(self, workdir: str) -> float:
        """Set up SETUP_REPEATS times; keeps the last state, returns the
        median set-up time in reference seconds."""
        times = []
        for _ in range(SETUP_REPEATS):
            (self.mods, self.state), seconds, scale = referenced(self._setup, workdir)
            times.append(seconds * scale)
            self.scales.append(scale)
        return statistics.median(times)

    def _setup(self, workdir: str):
        mods = fresh_import()
        return mods, self.workload.setup(mods, self.seed, workdir)

    def run_op(self, i: int, tracer=None):
        """Operation i, traced if a tracer is given; its record, or None
        when it failed."""
        self.attempted += 1
        try:
            if tracer is None:
                (stages, failed, counts), wall, scale = referenced(
                    self.workload.op, self.state, i)
            else:
                tracer.install()
                try:
                    (stages, failed, counts), wall, scale = referenced(
                        tracer.run_op, i, self.workload.op, self.state, i)
                finally:
                    tracer.uninstall()
        except Exception:  # a crashed operation is a failed one
            traceback.print_exc()
            failed = ["exception"]
        if failed:
            self.failed += 1
            print(f"FAILED {self.name} op {i}: {'; '.join(failed)}",
                  file=sys.stderr)
            return None
        self.scales.append(scale)
        return {"op": i, "wall": wall * scale,
                "stages": [t * scale for t in stages], **counts}

    def loop(self, seconds: float, tracer=None) -> tuple:
        """Closed loop over operations 0, 1, ... for `seconds`; returns the
        untraced and the traced records of good operations.  With a tracer
        each operation runs twice, alternating which of the two goes first,
        so that drift cancels out of the tracing overhead."""
        untraced, traced = [], []
        t_end = time.perf_counter() + seconds
        i = 0
        while time.perf_counter() < t_end:
            order = (None,) if tracer is None else \
                (None, tracer) if i % 2 == 0 else (tracer, None)
            for tr in order:
                (untraced if tr is None else traced).append(self.run_op(i, tr))
            i += 1
        return tuple([r for r in recs if r is not None]
                     for recs in (untraced, traced))

    def rounds(self, records: list) -> list:
        """(wall, stage 1, stage 2) summed over each round of the workload
        whose operations all succeeded; a round holds the workload's whole
        input mix, so its total does not depend on where the clock stopped."""
        size, groups = self.workload.round, {}
        for r in records:
            groups.setdefault(r["op"] // size, []).append((r["wall"], *r["stages"]))
        return [tuple(map(sum, zip(*g))) for g in groups.values() if len(g) == size]


def end_to_end(setup_s: float, rounds: list) -> dict:
    """name -> (value, unit) for every end-to-end metric, from the round
    totals."""
    return {
        "setup_s": (setup_s, "s"),
        "op_s": (statistics.median(r[0] for r in rounds), "s"),
        "stage1_s": (statistics.median(r[1] for r in rounds), "s"),
        "stage2_s": (statistics.median(r[2] for r in rounds), "s"),
        "peak_rss_MB": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }


def per_layer(tr: tracing.Tracer, untraced: list, traced: list,
              names: list, scale: float) -> dict:
    """name -> (value, unit) for each per-layer metric in `names`, per
    operation; traced times are multiplied by `scale`, the overhead compares
    the median untraced and traced round totals.  ``<function>.s`` is a
    wrapped function's self time and ``<function>.calls`` its call count;
    the rest are derived here."""
    po, c = tr.per_op, tr.counts

    def po_s(seconds):
        return tr.per_op(seconds) * scale, "s"

    def ratio(num, den):
        return (num / den if den else 0.0), "ratio"

    base = statistics.median(r[0] for r in untraced)
    over = statistics.median(r[0] for r in traced) - base
    derived = {
        "attack.solve_uj.apply_calls": (
            po(tr.edges["attack.solve_uj", "keystream.apply"]), "count"),
        "attack.solve_yield": ratio(c["solve_uj.survivors"],
                                    c["solve_uj.enumerated"]),
        "attack.extra_queries": (po(c["extra_queries"]), "count"),
        "attack.oracle_queries": (po(c["oracle_queries"]), "count"),
        "attack.oracle_blocks": (po(c["oracle_blocks"]), "count"),
        "attack.oracle_block_use": ratio(c["oracle_queries"], c["oracle_blocks"]),
        "cipher.blocks": (po(c["cipher_blocks"]), "count"),
        "cli.bytes": (po(c["cli_bytes"]), "B"),
        "trace.overhead_s": (over, "s"),
        "trace.overhead_ratio": ratio(over, base),
        **{f"layer.{k}.s": (v * scale, "s") for k, v in tr.layer_self_s().items()},
    }
    m = {}
    for name in names:
        fn, _, kind = name.rpartition(".")
        if name in derived:
            m[name] = derived[name]
        elif kind == "s" and fn in tracing.NAMES:
            m[name] = po_s(tr.self_s[fn])
        elif kind == "calls" and fn in tracing.NAMES:
            m[name] = (po(tr.calls[fn]), "count")
        else:
            raise KeyError(f"no per-layer metric {name}")
    return m


def dominant(tr: tracing.Tracer, predicted) -> str:
    """Where the traced time went, against the workload's prediction.

    A predicted function counts with the calls it makes, a predicted layer
    (a name without a dot) with all time under its outermost calls; the
    prediction is confirmed when one of them holds at least half of the
    traced operation time.  The function with the most self time is shown
    beside it.
    """
    ops = tr.total_s[tracing.ROOT]
    shares = {p: (tr.total_s[p] if "." in p else tr.layer_total_s[p]) / ops
              for p in predicted}
    fns = {k: v for k, v in tr.self_s.items() if k != tracing.ROOT}
    top = max(fns, key=fns.get)
    verdict = "confirmed" if max(shares.values()) >= 0.5 else "refuted"
    return ("predicted dominant " + ", ".join(
        f"{p} {100 * v:.1f}%" for p, v in shares.items())
        + f" of traced time: {verdict}; most self time: {top} "
        f"{100 * fns[top] / ops:.1f}%")


def print_named(label: str, names: dict, rounds: list, records: list,
                attempted: int, failed: int, scale: float) -> None:
    """The workload's own metric names, in reference seconds, with the
    highest percentile that has ten samples beyond it and the sample count."""
    print(f"{label}: median scale={scale:.4f} reference seconds per measured "
          f"second; times below are reference seconds")
    rows = [(names[k], [r[col] for r in rounds])
            for col, k in enumerate(("op_s", "stage1_s", "stage2_s"))]
    if records and "bytes" in records[0]:
        rows += [(f"{k}_msg_s", [r["stages"][col] for r in records])
                 for col, k in enumerate(("encrypt", "decrypt"))]
    for metric, values in rows:
        if values:
            value, pct = tail(values)
            print(f"{label}: {metric} median={statistics.median(values):.6f} s "
                  f"p{pct:.0f}={value:.6f} s n={len(values)}")
    if records and "oracle_queries" in records[0]:
        q = [r["oracle_queries"] for r in records]
        print(f"{label}: oracle_queries median={statistics.median(q)} count "
              f"min={min(q)} max={max(q)}")
    if records and "bytes" in records[0]:
        kb = sum(r["bytes"] for r in records) / 1024
        busy = sum(sum(r["stages"]) for r in records)
        print(f"{label}: traffic_KBps={kb / busy:.3f} KB/s "
              f"({kb:.0f} KB plaintext, encrypt plus decrypt)")
    print(f"{label}: failed_ratio={failed / attempted:.6f} ({failed}/{attempted})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="tiny inputs, for the smoke check")
    args = ap.parse_args(argv)
    if not (SRC / "tentbreak" / "__init__.py").is_file():
        print(f"error: no tentbreak sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    manifest = json.loads((HERE / "manifest.json").read_text())["workloads"]

    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "backend": BACKEND, "workload": args.workload, "seed": args.seed,
           "commit": git_commit()}
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    runner = Runner(args.workload, args.seed, small=args.small)
    WORK.mkdir(exist_ok=True)
    metrics = {}
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        setup_s = runner.setup(workdir)
        if not args.trace:
            records, _ = runner.loop(args.seconds)
            rounds = runner.rounds(records)
            if rounds:
                metrics = end_to_end(setup_s, rounds)
        else:
            tr = tracing.Tracer(runner.mods)
            untraced, records = runner.loop(args.seconds, tr)
            rounds = runner.rounds(records)
            if rounds and runner.rounds(untraced):
                metrics = per_layer(tr, runner.rounds(untraced), rounds,
                                    [m["name"] for m in spec["per_layer"]],
                                    statistics.median(runner.scales))
                print(f"{args.workload}: "
                      f"{dominant(tr, manifest[args.workload]['predicted_dominant'])}")
    scale = statistics.median(runner.scales)
    if args.trace:
        out = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        tr.dump(out, {"env": env, "scale": scale,
                      "metrics": {k: v for k, (v, _) in metrics.items()}})
        print(f"{args.workload}: spans (in measured seconds) written to {out}")
    print_named(args.workload + (" traced" if args.trace else ""),
                manifest[args.workload], rounds, records, runner.attempted,
                runner.failed, scale)
    print(json.dumps({
        "correct": runner.failed == 0 and bool(metrics),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
