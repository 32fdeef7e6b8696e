"""The package surface the benchmark harness wraps and calls.

bench/tracer.py replaces the functions it lists in WRAPPED by module (or
class) attribute; a rename there would break only traced benchmark runs.
bench/workloads.py calls the package directly, so a removed parameter or
function would break every benchmark run.  These tests run the benchmark's
sources, writing nothing under bench/: one resolves every WRAPPED entry,
the other runs one round of each workload at its smoke-check size.
"""

import importlib
import runpy
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"
MODULES = ("backend", "tentmap", "keystream", "cipher", "attack", "analysis", "cli")


def test_every_wrapped_name_resolves_to_a_callable():
    wrapped = runpy.run_path(str(TRACER))["WRAPPED"]   # writes no bytecode
    assert wrapped
    for module, path, _hot in wrapped:
        owner = importlib.import_module(f"tentbreak.{module}")
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{path}"


def test_every_workload_runs_a_round_at_smoke_size(tmp_path):
    source = runpy.run_path(str(BENCH / "workloads.py"))
    mods = {m: importlib.import_module(f"tentbreak.{m}") for m in MODULES}
    for name, workload in source["WORKLOADS"].items():
        w = workload(**source["SMALL"][name])
        workdir = tmp_path / name
        workdir.mkdir()
        state = w.setup(mods, 1, str(workdir))
        for i in range(w.round):
            times, failed, _counts = w.op(state, i)
            assert failed == [], f"{name} operation {i}"
            assert len(times) == 2 and all(t >= 0 for t in times)
