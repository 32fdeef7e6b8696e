"""Statistical and combinatorial diagnostics of the noise-vector generator.

Covers the noise-vector histograms, the independence-model probabilities
Prob{U_j = a} = alpha^{N0(a)} (1-alpha)^{4n-N0(a)}, the exact guess
complexity Com(alpha) of the probability-ordered candidate enumeration, the
boundary-restart (beta) impact bound, the alpha = 0.5 degradation law, and a
finite-precision orbit-length census.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import attack, keystream, tentmap
from .backend import FixedPointBackend, ParameterError


@dataclass
class Histogram:
    n: int
    counts: list
    samples: int

    def frequency(self, a: int) -> float:
        return self.counts[a] / self.samples


def sample_histogram(p: tentmap.TentParams, x0, n: int, samples: int, backend,
                     mended: bool = False) -> Histogram:
    """Occurrence counts of `samples` consecutive noise vectors."""
    if samples < 1:
        raise ParameterError("need at least one sample")
    if n > 4:
        raise ParameterError("full histograms are limited to n <= 4")
    vectors = keystream.build_noise_vectors(x0, p, n, samples - 1, backend,
                                            mended=mended)
    counts = [0] * (1 << (4 * n))
    for u in vectors:
        counts[u] += 1
    return Histogram(n=n, counts=counts, samples=samples)


def _as_fraction(alpha) -> Fraction:
    a = Fraction(alpha)
    if not 0 < a < 1:
        raise ParameterError("alpha must be in (0, 1)")
    return a


def theoretical_prob(a: int, alpha, n: int) -> Fraction:
    """Independence-model probability of U_j = a, exact."""
    width = 4 * n
    if not 0 <= a < 1 << width:
        raise ParameterError("block value out of range")
    al = _as_fraction(alpha)
    zeros = width - bin(a).count("1")
    return al ** zeros * (1 - al) ** (width - zeros)


def class_offset_h(i: int, n: int) -> int:
    """Candidates searched before class pair i in the outside-in order."""
    if not 0 <= i <= 2 * n:
        raise ParameterError("class pair index out of range")
    return 2 * sum(math.comb(4 * n, l) for l in range(i))


def guess_complexity(alpha, n: int):
    """Exact expected number of candidates examined before the true noise
    vector, under the prioritized enumeration; returns (Com, log2(Com)).

    Computed in exact rational arithmetic: per class of c equally likely
    values starting after `off` earlier candidates, the rank contribution is
    p * (c*off + c*(c+1)/2).
    """
    al = _as_fraction(alpha)
    width = 4 * n
    com = Fraction(0)
    off = 0
    for ones in attack.class_order(al, n):
        c = math.comb(width, ones)
        p = al ** (width - ones) * (1 - al) ** ones  # per-element probability
        com += p * (c * off + Fraction(c * (c + 1), 2))
        off += c
    return com, log2_fraction(com)


def log2_fraction(fr: Fraction) -> float:
    """log2 of a positive rational, robust to huge numerators."""
    if fr <= 0:
        raise ParameterError("log2 of a non-positive value")

    def lg(i: int) -> float:
        shift = max(0, i.bit_length() - 64)
        return shift + math.log2(i >> shift)

    return lg(fr.numerator) - lg(fr.denominator)


def complexity_curve(n: int):
    """(alpha, log2 Com) points for alpha = 0.01 .. 0.99 in steps of 0.01."""
    return [(i / 100, guess_complexity(Fraction(i, 100), n)[1])
            for i in range(1, 100)]


def mean_rank_monte_carlo(alpha: float, n: int, trials: int, seed: int = 0,
                          workers: int = 1) -> float:
    """Mean 1-based rank of an i.i.d.-bit noise vector (Prob{bit=0} = alpha)
    under the prioritized enumeration; the simulation oracle for Com."""
    width = 4 * n
    rank = {}
    for i, v in enumerate(attack.prioritized_candidates(alpha, n), start=1):
        rank[v] = i
    total = 0
    for chunk in _worker_chunks(trials, workers):
        rng = random.Random(f"{seed}:{chunk['worker']}")
        for _ in range(chunk["count"]):
            u = 0
            for _ in range(width):
                u = (u << 1) | (0 if rng.random() < alpha else 1)
            total += rank[u]
    return total / trials


def beta_impact(L: int):
    """(hit probability per step, expected first boundary hit, decryptable
    leading bytes) under the uniform-orbit model at L-bit precision."""
    if L < 2:
        raise ParameterError("precision must be >= 2")
    p = Fraction(1, 2 ** (L - 1))
    expected = 2 ** (L - 1)
    return p, expected, Fraction(expected, 8)


def first_hit_model_trials(L: int, trials: int, seed: int = 0,
                           workers: int = 1) -> float:
    """Monte Carlo of the uniform-orbit model behind beta_impact: iterates
    drawn uniformly from the 2^L-state space until one of the two boundary
    states appears.  Mean ~ 2^{L-1}."""
    total = 0
    space = 1 << L
    for chunk in _worker_chunks(trials, workers):
        rng = random.Random(f"{seed}:{chunk['worker']}")
        for _ in range(chunk["count"]):
            k = 1
            while rng.randrange(space) >= 2:
                k += 1
            total += k
    return total / trials


def degradation_report(beta, x0, backend):
    """Orbit analysis at alpha = 1/2, where one iteration strips one bit of
    binary precision, forcing transient <= n_x0 + 1 and period n_beta + 1."""
    n_x0 = backend.binary_precision(x0)
    n_beta = backend.binary_precision(beta)
    max_iter = n_x0 + 2 * (n_beta + 1) + 8
    params = tentmap.TentParams(backend.half, beta)
    report = tentmap.analyze_orbit(x0, params, max_iter, backend)
    ok = (report.conclusive
          and report.transient_len <= n_x0 + 1
          and report.period == n_beta + 1)
    return {
        "n_x0": n_x0,
        "n_beta": n_beta,
        "transient_len": report.transient_len,
        "period": report.period,
        "expected_period": n_beta + 1,
        "conclusive": report.conclusive,
        "ok": ok,
    }


def orbit_length_census(L: int, alpha, sample_count: int, seed: int = 0,
                        workers: int = 1):
    """Mean rho length (transient + period) of random orbits at L-bit fixed
    precision.  Returns (mean, lengths)."""
    if L > 24:
        raise ParameterError("census is desk-scale only: L <= 24")
    backend = FixedPointBackend(L)
    a = Fraction(alpha)
    params = tentmap.TentParams(
        backend.from_ratio(a.numerator, a.denominator),
        backend.from_ratio(7, 10))
    lengths = []
    for chunk in _worker_chunks(sample_count, workers):
        rng = random.Random(f"{seed}:{chunk['worker']}")
        for _ in range(chunk["count"]):
            x0 = rng.randrange(1, backend.one)
            report = tentmap.analyze_orbit(x0, params, (1 << L) + 2, backend)
            lengths.append(report.transient_len + report.period)
    return sum(lengths) / len(lengths), lengths


def _worker_chunks(total: int, workers: int):
    """Deterministic split of `total` samples over worker substreams."""
    if workers < 1:
        raise ParameterError("worker count must be >= 1")
    base, extra = divmod(total, workers)
    for w in range(workers):
        count = base + (1 if w < extra else 0)
        if count:
            yield {"worker": w, "count": count}


# ---------------------------------------------------------------------------
# CSV emission

def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(v.numerator)
        return f"{float(v):.12g}"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def emit_histogram_csv(hist: Histogram, path, alpha=None) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("value,count,frequency,theoretical\n")
        for a, c in enumerate(hist.counts):
            theo = theoretical_prob(a, alpha, hist.n) if alpha is not None else ""
            fh.write(f"{a},{c},{_fmt(c / hist.samples)},{_fmt(theo)}\n")


def emit_curve_csv(points, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("alpha,log2_com\n")
        for a, lc in points:
            fh.write(f"{_fmt(a)},{_fmt(lc)}\n")


def emit_report_csv(report: dict, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("key,value\n")
        for k, v in report.items():
            fh.write(f"{k},{_fmt(v)}\n")


def emit_csv(obj, path, alpha=None) -> None:
    """Dispatching writer for histograms, curves and key/value reports."""
    try:
        if isinstance(obj, Histogram):
            emit_histogram_csv(obj, path, alpha=alpha)
        elif isinstance(obj, dict):
            emit_report_csv(obj, path)
        else:
            emit_curve_csv(obj, path)
    except OSError as exc:
        raise OSError(f"writing {path}: {exc}") from exc
