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
from collections import namedtuple
from fractions import Fraction

from . import attack, keystream, tentmap
from .backend import FixedPointBackend, ParameterError


class Histogram(namedtuple("Histogram", "n counts samples")):
    __slots__ = ()


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


def guess_complexity(alpha, n: int):
    """Exact expected number of candidates examined before the true noise
    vector, under the prioritized enumeration; returns (Com, log2(Com)).

    With alpha = a/b exactly, each of the c_k = C(4n, k) values with k
    one-bits has probability a^{4n-k} (b-a)^k / b^{4n}, and its class holds
    ranks off_k + 1 .. off_k + c_k, so

        Com = sum_k a^{4n-k} (b-a)^k c_k (2 off_k + c_k + 1) / (2 b^{4n})

    over k in class_order.  The sum is taken in integers, from power tables
    built once, and reduced to one Fraction at the end.
    """
    al = _as_fraction(alpha)
    a, b = al.numerator, al.denominator
    width = 4 * n
    zeros, ones = [1], [1]  # a^i and (b - a)^i
    for _ in range(width):
        zeros.append(zeros[-1] * a)
        ones.append(ones[-1] * (b - a))
    total = off = 0
    for k in attack.class_order(al, n):
        c = math.comb(width, k)
        total += zeros[width - k] * ones[k] * c * (2 * off + c + 1)
        off += c
    com = Fraction(total, 2 * b ** width)
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
    states appears.  The index of that first hit is geometric with
    p = 2/2^L, so each trial draws it from one uniform u by inversion,
    1 + floor(log(1 - u) / log(1 - p)).  Mean ~ 2^{L-1}."""
    if not 1 <= L <= 64:
        raise ParameterError(f"precision must be in 1..64, got {L}")
    # at L = 1 both states are boundary states and every first hit is at 1
    log_miss = math.log1p(-2.0 ** (1 - L)) if L > 1 else -math.inf
    total = 0
    for rng in _substreams(trials, workers, seed):
        total += 1 + math.floor(math.log(1.0 - rng.random()) / log_miss)
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
    precision.  Returns (mean, lengths).

    Orbits of one map merge into shared tails, so one table of rho lengths
    serves every sample of every worker substream.  A walk from x0 stops at
    the first state already in the table or already on its own path; each
    new state on the path then gets its rho length, one more than its
    successor's off the cycle and the period on it.  Every state in the
    table has its whole forward orbit there, so each length equals
    tentmap.analyze_orbit's transient + period.
    """
    if L > 24:
        raise ParameterError("census is desk-scale only: L <= 24")
    backend = FixedPointBackend(L)
    a = Fraction(alpha)
    params = tentmap.TentParams(
        backend.from_ratio(a.numerator, a.denominator),
        backend.from_ratio(7, 10))
    rho = {}
    lengths = []
    for rng in _substreams(sample_count, workers, seed):
        x0 = rng.randrange(1, backend.one)
        path = {}  # new state -> its index on this walk
        for x in tentmap.orbit_stream(x0, params, backend):
            if x in rho or x in path:
                break
            path[x] = len(path)
        if x in path:  # the walk closed its own cycle at path[x]
            stop, end = path[x], len(path) - path[x]
        else:          # the walk joined a known orbit at x
            stop, end = len(path), rho[x]
        for s, i in path.items():
            rho[s] = end + max(stop - i, 0)
        lengths.append(rho[x0])
    return sum(lengths) / len(lengths), lengths


def _substreams(total: int, workers: int, seed: int):
    """The RNG of each of `total` samples: worker w draws total // workers,
    one more if w < total % workers, from Random(f"{seed}:{w}")."""
    if workers < 1:
        raise ParameterError("worker count must be >= 1")
    if total < 1:
        raise ParameterError("need at least one sample")
    base, extra = divmod(total, workers)
    for w in range(min(workers, total)):
        rng = random.Random(f"{seed}:{w}")
        for _ in range(base + (w < extra)):
            yield rng


# ---------------------------------------------------------------------------
# CSV emission

def _fmt(v) -> str:
    if isinstance(v, float) or isinstance(v, Fraction) and v.denominator != 1:
        return f"{float(v):.12g}"
    return str(v)


def emit_csv(path, header, rows) -> None:
    """Write a CSV file: the header's column names, then one line per row,
    each value formatted by _fmt."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
    except OSError as exc:
        raise OSError(f"writing {path}: {exc}") from exc
