"""Skew/extended tent map evaluation and orbit diagnostics.

The skew tent map with peak alpha:

    F_a(x) = x / a            for 0 <= x <= a
             (1 - x)/(1 - a)  for a < x <= 1

and its extended form G_{a,b} that redirects the boundary states {0, 1}
to b so orbits escape the fixed point at 0.  All arithmetic goes through a
backend from :mod:`tentbreak.backend`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .backend import DomainError, ParameterError


@dataclass(frozen=True)
class TentParams:
    """Peak position alpha and boundary-restart value beta (backend values)."""

    alpha: object
    beta: object


@dataclass
class OrbitReport:
    """Outcome of cycle detection on a digital orbit."""

    transient_len: int
    period: int
    conclusive: bool = True


def check_open_unit(v, backend, name):
    if not (backend.zero < v < backend.one):
        raise ParameterError(f"{name} must lie strictly inside (0, 1)")


def skew_tent_step(x, alpha, backend):
    """One step of the plain skew tent map F_alpha."""
    check_open_unit(alpha, backend, "alpha")
    if not backend.zero <= x <= backend.one:
        raise DomainError("x outside [0, 1]")
    if x <= alpha:
        return backend.div(x, alpha)
    return backend.div(backend.complement(x), backend.complement(alpha))


def extended_step(x, p: TentParams, backend):
    """One step of the extended map G: boundary states go to beta."""
    if x == backend.zero or x == backend.one:
        check_open_unit(p.beta, backend, "beta")
        return p.beta
    return skew_tent_step(x, p.alpha, backend)


def derive_x0(t: int, gamma, n: int, backend):
    """Initial condition from a public timestamp t.

    s = 10**floor(log10 t) / t is in (0.1, 1]; the plain skew tent map with
    peak gamma is then applied 4n times.  Powers of ten give s = 1, which the
    map sends to 0 on the first step; that degenerate chain is allowed.
    """
    if t < 1:
        raise DomainError(f"timestamp must be a positive integer, got {t}")
    check_open_unit(gamma, backend, "gamma")
    k = len(str(t)) - 1  # floor(log10 t), exact over integers
    x = backend.from_ratio(10 ** k, t)
    for _ in range(4 * n):
        x = skew_tent_step(x, gamma, backend)
    return x


def restart(x, beta, backend):
    """G at a state outside (0, 1): the boundary states 0 and 1 go to beta,
    which is checked at every hit; any other state is outside the domain."""
    if x == backend.zero or x == backend.one:
        check_open_unit(beta, backend, "beta")
        return beta
    raise DomainError("x outside [0, 1]")


def orbit_stream(x0, p: TentParams, backend):
    """Infinite generator x0, x1, x2, ... of G (includes the initial state).

    Each step is extended_step(x, p, backend) with the loop-invariant work
    hoisted: the interior steps are backend.tent_branches(alpha).  alpha is
    checked once, at the first step from an interior state, which is where
    skew_tent_step first checks it; the domain is checked on every step and
    beta at every boundary hit.  So the same errors fire at the same step,
    and a step runs only when its value is requested.

    keystream.build_noise_vectors steps the same branches in a loop of its
    own: the yield and resume per state cost about a third of that loop's
    time, and noise vectors are the per-message cost of the cipher.
    """
    zero, one = backend.zero, backend.one
    alpha, beta = p.alpha, p.beta
    x = x0
    yield x
    while x == zero or x == one:
        check_open_unit(beta, backend, "beta")
        x = beta
        yield x
    check_open_unit(alpha, backend, "alpha")
    left, right = backend.tent_branches(alpha)
    while True:
        if x <= alpha:
            x = left(x) if x > zero else restart(x, beta, backend)
        elif x < one:
            x = right(x)
        else:
            x = restart(x, beta, backend)
        yield x


def iterate_orbit(x0, p: TentParams, count: int, backend):
    """The first `count` iterates [x_1, ..., x_count] of G from x0."""
    return list(islice(orbit_stream(x0, p, backend), 1, count + 1))


def analyze_orbit(x0, p: TentParams, max_iter: int, backend) -> OrbitReport:
    """Detect the eventual cycle of the orbit of G from x0.

    State equality is exact (ints or floats), so a visited-state map gives
    the transient length and period directly.  If no state repeats within
    max_iter steps the report is flagged inconclusive.
    """
    seen = {}
    for i, x in enumerate(orbit_stream(x0, p, backend)):
        if i > max_iter:  # x_{max_iter+1} is computed but not examined
            break
        if x in seen:
            first = seen[x]
            return OrbitReport(transient_len=first, period=i - first)
        seen[x] = i
    return OrbitReport(transient_len=0, period=1, conclusive=False)


def first_hit_boundary(x0, p: TentParams, max_iter: int, backend) -> int | None:
    """Index of the first iterate landing exactly on 0 or 1, if any."""
    zero, one = backend.zero, backend.one
    for i, x in zip(range(1, max_iter + 1),
                    islice(orbit_stream(x0, p, backend), 1, None)):
        if x == zero or x == one:
            return i
    return None
