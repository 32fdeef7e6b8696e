"""The package surface the benchmark harness wraps.

bench/tracer.py replaces the functions it lists in WRAPPED by module (or
class) attribute; a rename there would break only traced benchmark runs.
This test runs the tracer's source, writing nothing under bench/, and
resolves every entry in the package.
"""

import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_wrapped_name_resolves_to_a_callable():
    wrapped = runpy.run_path(str(TRACER))["WRAPPED"]   # writes no bytecode
    assert wrapped
    for module, path, _hot in wrapped:
        owner = importlib.import_module(f"tentbreak.{module}")
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{path}"
