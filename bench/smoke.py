"""Smoke check of the benchmark itself: a tiny pass of every workload.

    python3 bench/smoke.py

Runs each workload with ``--small`` for a second, untraced and
traced, and checks that every metric named in ``BENCHMARK.json`` is emitted
with its unit and that no operation failed.  Takes about fifteen seconds,
most of it the one n=4 attack per break-n4 pass.  Exits 1 on the first
problem.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check(workload: str, trace: int) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "1", "--seconds",
                         "1", "--trace", str(trace), "--small"])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    named = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in named}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if got != want:
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}, "
                        f"units {[k for k in want if k in got and got[k] != want[k]]}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"failed_ratio {result['failed']}/{result['attempted']}")
    if problems:
        sys.exit(f"smoke {workload} trace={trace}: {'; '.join(problems)}")
    print(f"smoke {workload} trace={trace}: ok, {result['attempted']} operations")


def main() -> None:
    if [w["name"] for w in SPEC["workloads"]] != list(run.WORKLOADS):
        sys.exit("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check(workload, trace)


if __name__ == "__main__":
    main()
