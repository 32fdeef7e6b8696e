"""Skew/extended tent map evaluation and orbit diagnostics.

The skew tent map with peak alpha:

    F_a(x) = x / a            for 0 <= x <= a
             (1 - x)/(1 - a)  for a < x <= 1

and its extended form G_{a,b} that redirects the boundary states {0, 1}
to b so orbits escape the fixed point at 0.  The interior steps of F are
defined once per backend, in :mod:`tentbreak.backend`; orbit_stream is the
one generic stepper of G, and restart its one boundary rule.
"""

from __future__ import annotations

from collections import namedtuple

from .backend import ParameterError


class TentParams(namedtuple("TentParams", "alpha beta")):
    """Peak position alpha and boundary-restart value beta (backend values)."""
    __slots__ = ()


class OrbitReport(namedtuple("OrbitReport", "transient_len period conclusive",
                             defaults=(True,))):
    """Outcome of cycle detection on a digital orbit."""
    __slots__ = ()


def check_open_unit(v, backend, name):
    if not (backend.zero < v < backend.one):
        raise ParameterError(f"{name} must lie strictly inside (0, 1)")


def derive_x0(t: int, gamma, n: int, backend):
    """Initial condition from a public timestamp t.

    s = 10**floor(log10 t) / t is in (0.1, 1]; the plain skew tent map with
    peak gamma is then applied 4n times.  Powers of ten give s = 1, which the
    map sends to 0 on the first step; that degenerate chain is allowed.
    t is read only through s, so t, 10t, 100t, ... give the same x0, and
    with it the same session.
    """
    if t < 1:
        raise ParameterError(f"timestamp must be a positive integer, got {t}")
    check_open_unit(gamma, backend, "gamma")
    k = len(str(t)) - 1  # floor(log10 t), exact over integers
    x = backend.from_ratio(10 ** k, t)
    # x stays in [0, 1]: each branch maps its range into [0, 1], and both
    # 0 and 1 go to 0, so F needs no domain check here
    left, right = backend.tent_branches(gamma)
    for _ in range(4 * n):
        x = left(x) if x <= gamma else right(x)
    return x


def restart(x, beta, backend):
    """G at a state outside (0, 1): the boundary states 0 and 1 go to beta,
    which is checked at every hit; any other state is outside the domain."""
    if x == backend.zero or x == backend.one:
        check_open_unit(beta, backend, "beta")
        return beta
    raise ParameterError("x outside [0, 1]")


def orbit_stream(x0, p: TentParams, backend):
    """Infinite generator x0, x1, x2, ... of G (includes the initial state).

    An interior state x steps through backend.tent_branches(alpha): left for
    0 < x <= alpha, right for alpha < x < 1.  restart sends the boundary
    states 0 and 1 to beta, checked at every hit, and raises ParameterError
    outside [0, 1].  alpha is checked once, before the first step from a
    state other than 0 and 1.  A step runs only when its value is requested.

    keystream.build_noise_vectors reads G's start-up x_0..x_2 here, and the
    rest too on any backend but fixed point.  There it steps on in loops of
    its own, with no yield and resume per state and no closure call per
    step: noise vectors are the largest per-message cost of the cipher.
    """
    zero, one, alpha, beta = backend.zero, backend.one, p.alpha, p.beta
    x = x0
    yield x
    if x == zero or x == one:   # restart's beta is inside (0, 1)
        x = restart(x, beta, backend)
        yield x
    check_open_unit(alpha, backend, "alpha")
    left, right = backend.tent_branches(alpha)
    while True:
        if x <= alpha:
            x = left(x) if x > zero else restart(x, beta, backend)
        else:
            x = right(x) if x < one else restart(x, beta, backend)
        yield x


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
