"""Per-layer tracing from outside the package.

The tracer replaces public functions of the ``tentbreak`` modules by timing
wrappers, by module (or class) attribute.  The package's modules call each
other through module attributes (``keystream.apply``, ``cipher.encrypt``) or
through their own globals, so the wrappers see every call without any edit
to the package.  ``keystream`` imports ``extended_step`` by name, so orbit
steps are not a layer of their own: their time counts as self time of the
caller (``keystream.build_noise_vectors``, ``tentmap.analyze_orbit``).
Backend arithmetic is likewise counted inside the tentmap and keystream
callers that drive it.

Every wrapped call updates per-name aggregates (calls, self time, total
time), per-edge call counts, and each layer's inclusive time (time under
its outermost calls).  Calls of cold functions also keep a span
(name, start, end, parent span, operation) in memory; hot functions such as
``keystream.apply`` are aggregated only.  Spans are written once, by
``dump``, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter

# (module, attribute path, hot) for every wrapped function; the layer is the
# module name.  Hot functions are called per block or per candidate and keep
# no spans.
WRAPPED = (
    ("tentmap", "derive_x0", False),
    ("tentmap", "analyze_orbit", True),
    ("keystream", "build_noise_vectors", False),
    ("keystream", "compose_fj", True),
    ("keystream", "invert", True),
    ("keystream", "apply", True),
    ("cipher", "init_session", False),
    ("cipher", "encrypt", True),
    ("cipher", "decrypt", True),
    ("attack", "EncryptionOracle.encrypt_blocks", True),
    ("attack", "DecryptionOracle.decrypt_blocks", True),
    ("attack", "recover_all_f", False),
    ("attack", "recover_all_finv", False),
    ("attack", "solve_uj", False),
    ("attack", "full_attack", False),
    ("attack", "keyless_decrypt", False),
    ("analysis", "orbit_length_census", False),
    ("analysis", "sample_histogram", False),
    ("analysis", "complexity_curve", False),
    ("analysis", "first_hit_model_trials", False),
    ("analysis", "degradation_report", False),
    ("cli", "main", False),
    ("cli", "blocks_from_bytes", False),
    ("cli", "blocks_to_bytes", False),
)

NAMES = frozenset(f"{module}.{path}" for module, path, _ in WRAPPED)
LAYERS = ("tentmap", "keystream", "cipher", "attack", "analysis", "cli")
ROOT = "bench.op"  # the benchmark's own span around each operation


OBSERVED = frozenset((
    "attack.solve_uj", "attack.full_attack",
    "attack.EncryptionOracle.encrypt_blocks",
    "attack.DecryptionOracle.decrypt_blocks", "cipher.encrypt",
    "cipher.decrypt", "cli.blocks_from_bytes", "cli.blocks_to_bytes"))


def _observe(counts: Counter, name: str, args, result) -> None:
    """Work counts measured at the layer boundary."""
    if name == "attack.solve_uj":
        counts["solve_uj.survivors"] += len(result)
        counts["solve_uj.enumerated"] += 1 << (4 * args[2])
    elif name == "attack.full_attack":
        counts["extra_queries"] += result.extra_queries
    elif name in ("attack.EncryptionOracle.encrypt_blocks",
                  "attack.DecryptionOracle.decrypt_blocks"):
        counts["oracle_queries"] += 1
        counts["oracle_blocks"] += len(args[1])
    elif name in ("cipher.encrypt", "cipher.decrypt"):
        counts["cipher_blocks"] += len(result.blocks)
    elif name == "cli.blocks_from_bytes":
        counts["cli_bytes"] += len(args[0])
    elif name == "cli.blocks_to_bytes":
        counts["cli_bytes"] += len(result)


class Tracer:
    """Wraps the package's functions while installed; see the module doc."""

    def __init__(self, modules: dict):
        self._modules = modules
        self._saved = []
        self._stack = []
        self.calls = Counter()
        self.self_s = Counter()
        self.total_s = Counter()
        self.layer_total_s = Counter()
        self.edges = Counter()
        self.counts = Counter()
        self.spans = []
        self.ops = 0
        self._op = None

    def _wrap(self, name: str, fn, hot: bool):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        total_s, layer_total_s = self.total_s, self.layer_total_s
        edges, counts, spans = self.edges, self.counts, self.spans
        perf = time.perf_counter
        layer = name.split(".")[0]
        observed = name in OBSERVED

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            # frame: name, child time, span id, layer
            if hot:  # no span: children link to the nearest spanned caller
                frame = [name, 0.0, parent[2] if parent else None, layer]
            else:  # reserve the span id; the span is filled in on exit
                frame = [name, 0.0, len(spans), layer]
                spans.append(None)
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                calls[name] += 1
                self_s[name] += dur - frame[1]
                total_s[name] += dur
                if parent is None or parent[3] != layer:
                    layer_total_s[layer] += dur
                if parent is not None:
                    parent[1] += dur
                    edges[parent[0], name] += 1
                if not hot:
                    spans[frame[2]] = (name, t0, t1,
                                       parent[2] if parent else None, self._op)
            if observed:
                _observe(counts, name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        for mod_name, path, hot in WRAPPED:
            owner = self._modules[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(f"{mod_name}.{path}", fn, hot))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def run_op(self, index: int, op, *args):
        """Run one benchmark operation under the root span."""
        self._op = index
        self.ops += 1
        return self._wrap(ROOT, op, hot=False)(*args)

    def per_op(self, value: float) -> float:
        return value / self.ops if self.ops else 0.0

    def layer_self_s(self) -> dict:
        """Self time per layer (module), per operation."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in self.self_s.items():
            layer = name.split(".")[0]
            if layer in out:
                out[layer] += s
        return {k: self.per_op(v) for k, v in out.items()}

    def dump(self, path, extra: dict) -> None:
        """Write spans and aggregates once, at the end of the run."""
        record = dict(extra)
        record["aggregates"] = {
            name: {"calls": self.calls[name], "self_s": self.self_s[name],
                   "total_s": self.total_s[name]}
            for name in sorted(self.calls)}
        record["layer_total_s"] = dict(self.layer_total_s)
        record["edges"] = [[p, c, k] for (p, c), k in sorted(self.edges.items())]
        record["counts"] = dict(self.counts)
        record["span_fields"] = ["name", "start", "end", "parent", "op"]
        record["spans"] = [s for s in self.spans if s is not None]
        with open(path, "w") as fh:
            json.dump(record, fh)
