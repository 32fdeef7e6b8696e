"""Test-side references for the prioritized noise-vector enumeration.

prioritized_candidates walks all 2^{4n} block values in attack.class_order;
attack.rank_candidates must list any subset in the same order without the
walk.  class_offset_h is the closed-form count of candidates searched before
a class pair, and mean_rank_monte_carlo is the simulation oracle that
acceptance criterion 07 checks analysis.guess_complexity against.
"""

import math
import random

from tentbreak.attack import class_order
from tentbreak.backend import ParameterError


def prioritized_candidates(alpha_est: float, n: int):
    """All 2^{4n} block values class by class in class_order, each class
    ascending; at alpha = 0.5 natural numeric order."""
    order = class_order(alpha_est, n)
    width = 4 * n
    if alpha_est == 0.5:
        yield from range(1 << width)
        return

    def klass(ones: int):
        """Values with `ones` one-bits, ascending numerically (Gosper)."""
        if ones == 0:
            yield 0
            return
        v = (1 << ones) - 1
        top = 1 << width
        while v < top:
            yield v
            c = v & -v
            rr = v + c
            v = (((rr ^ v) >> 2) // c) | rr

    for ones in order:
        yield from klass(ones)


def class_offset_h(i: int, n: int) -> int:
    """Candidates searched before class pair i in the outside-in order."""
    if not 0 <= i <= 2 * n:
        raise ParameterError("class pair index out of range")
    return 2 * sum(math.comb(4 * n, l) for l in range(i))


def mean_rank_monte_carlo(alpha: float, n: int, trials: int, seed: int = 0) -> float:
    """Mean 1-based rank of an i.i.d.-bit noise vector (Prob{bit=0} = alpha)
    under the prioritized enumeration; the simulation oracle for Com.  The
    stream is seeded "{seed}:0", as the single-worker analysis streams are."""
    width = 4 * n
    rank = {}
    for i, v in enumerate(prioritized_candidates(alpha, n), start=1):
        rank[v] = i
    total = 0
    rng = random.Random(f"{seed}:0")
    for _ in range(trials):
        u = 0
        for _ in range(width):
            u = (u << 1) | (0 if rng.random() < alpha else 1)
        total += rank[u]
    return total / trials
