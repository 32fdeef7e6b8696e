"""Slow references for the tent map: the stepwise definition that
backend.tent_branches replaced.

The backends' clamping div and complement, and skew_tent_step,
extended_step and derive_x0 built on them, are kept verbatim; div and
complement live on subclasses of the backends, which reference_backend
returns.  A reference backend compares equal to the backend it copies.
"""

from tentbreak.backend import Binary64Backend, DomainError, FixedPointBackend
from tentbreak.tentmap import TentParams, check_open_unit


class FixedPointReference(FixedPointBackend):
    def div(self, x: int, y: int) -> int:
        """Value division x/y, rounded to nearest, clamped into [0, 1]."""
        if y == 0:
            raise DomainError("division by zero value")
        raw = (2 * x * self.one + y) // (2 * y)
        return self._clamp(raw)

    def complement(self, x: int) -> int:
        return self.one - x


class Binary64Reference(Binary64Backend):
    def div(self, x: float, y: float) -> float:
        if y == 0.0:
            raise DomainError("division by zero value")
        v = x / y
        return min(max(v, 0.0), 1.0)

    def complement(self, x: float) -> float:
        return 1.0 - x


def reference_backend(backend):
    """A copy of backend that also has div and complement."""
    if isinstance(backend, FixedPointBackend):
        return FixedPointReference(backend.bits)
    return Binary64Reference()


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
