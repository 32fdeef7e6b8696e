"""Map iteration, initial-condition derivation and orbit analysis."""

import random
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from tentbreak import tentmap
from tentbreak.backend import (DomainError, FixedPointBackend, ParameterError,
                               get_backend, parse_value)

FP = get_backend("fp62")
F64 = get_backend("f64")


def frac(x):
    return Fraction(x, FP.one)


def fp(num, den):
    return FP.from_ratio(num, den)


def test_skew_tent_left_branch():
    # F_0.25(1/8) = (1/8)/(1/4) = 1/2, exact in dyadic fixed point
    y = tentmap.skew_tent_step(fp(1, 8), fp(1, 4), FP)
    assert frac(y) == Fraction(1, 2)
    assert tentmap.skew_tent_step(0.1, 0.25, F64) == pytest.approx(0.4)


def test_skew_tent_right_branch():
    # F_0.25(0.5) = (1-0.5)/(1-0.25) = 2/3
    y = tentmap.skew_tent_step(fp(1, 2), fp(1, 4), FP)
    assert abs(frac(y) - Fraction(2, 3)) <= Fraction(1, FP.one)


def test_skew_tent_peak():
    # the peak value x = alpha maps to 1 exactly
    for a_num in (1, 3, 7):
        assert tentmap.skew_tent_step(fp(a_num, 10), fp(a_num, 10), FP) == FP.one
    assert tentmap.skew_tent_step(0.3, 0.3, F64) == 1.0


def test_skew_tent_domain():
    with pytest.raises(DomainError):
        tentmap.skew_tent_step(FP.one + 1, fp(1, 2), FP)
    with pytest.raises(ParameterError):
        tentmap.skew_tent_step(fp(1, 2), FP.zero, FP)


def test_extended_redirects_boundary():
    beta = fp(7, 10)
    p = tentmap.TentParams(fp(1, 2), beta)
    assert tentmap.extended_step(FP.zero, p, FP) == beta
    assert tentmap.extended_step(FP.one, p, FP) == beta
    # interior points follow the plain map
    assert tentmap.extended_step(fp(1, 4), p, FP) == \
        tentmap.skew_tent_step(fp(1, 4), fp(1, 2), FP)


def test_orbit_from_zero_goes_through_beta():
    p = tentmap.TentParams(fp(9, 10), fp(7, 10))
    orbit = tentmap.iterate_orbit(FP.zero, p, 3, FP)
    assert orbit[0] == p.beta


def test_halving_cycle_fixture():
    # alpha = 1/2, beta = 3/8: each step strips one bit of precision, the
    # orbit of x0 = 3/8 is the exact 4-cycle 3/4, 1/2, 1, 3/8, ...
    p = tentmap.TentParams(fp(1, 2), fp(3, 8))
    orbit = tentmap.iterate_orbit(fp(3, 8), p, 8, FP)
    expected = [Fraction(3, 4), Fraction(1, 2), Fraction(1, 1), Fraction(3, 8)] * 2
    assert [frac(x) for x in orbit] == expected


def test_derive_x0_golden_fixed_point():
    x0 = tentmap.derive_x0(1234, fp(3, 10), 2, FP)
    assert FP.serialize(x0) == "fp62:0x3fd5cf2c6e12776"


def test_derive_x0_golden_binary64():
    x0 = tentmap.derive_x0(1234, 0.3, 2, F64)
    assert F64.serialize(x0) == "f64:3fafeae7963706c5"


def test_derive_x0_backends_agree():
    a = FP.to_float(tentmap.derive_x0(1234, fp(3, 10), 2, FP))
    b = tentmap.derive_x0(1234, 0.3, 2, F64)
    assert a == pytest.approx(b, abs=1e-9)


def test_derive_x0_power_of_ten_is_degenerate():
    # t = 10^k gives s = 1, which the plain map sends to 0 and keeps there
    assert tentmap.derive_x0(1000, fp(3, 10), 2, FP) == FP.zero
    assert tentmap.derive_x0(1000, 0.3, 2, F64) == 0.0


def test_derive_x0_rejects_bad_t():
    with pytest.raises(DomainError):
        tentmap.derive_x0(0, fp(3, 10), 2, FP)
    with pytest.raises(DomainError):
        tentmap.derive_x0(-5, fp(3, 10), 2, FP)


def test_binary_precision():
    assert FP.binary_precision(fp(1, 2)) == 1
    assert FP.binary_precision(fp(3, 8)) == 3
    assert F64.binary_precision(0.5) == 1
    assert F64.binary_precision(0.375) == 3
    # golden: fixed-point image of 0.123 at 62 bits
    assert FP.binary_precision(FP.from_float(0.123)) == 52


def test_analyze_orbit_period_law_fixture():
    p = tentmap.TentParams(fp(1, 2), fp(3, 8))
    rep = tentmap.analyze_orbit(fp(1, 2), p, 50, FP)
    assert rep.conclusive
    assert (rep.transient_len, rep.period) == (0, 4)  # n_beta + 1


def test_analyze_orbit_beta_half():
    # 1/2 -> 1 -> beta = 1/2: a pure 2-cycle
    p = tentmap.TentParams(fp(1, 2), fp(1, 2))
    rep = tentmap.analyze_orbit(fp(1, 2), p, 50, FP)
    assert (rep.transient_len, rep.period) == (0, 2)


def test_analyze_orbit_period_law_all_beta_small_precision():
    # at alpha = 1/2 every orbit lands on the beta cycle of length n_beta + 1
    be = FixedPointBackend(8)
    for beta_raw in range(1, be.one):
        p = tentmap.TentParams(be.half, beta_raw)
        rep = tentmap.analyze_orbit(be.from_ratio(77, 256), p, 600, be)
        assert rep.conclusive
        assert rep.period == be.binary_precision(beta_raw) + 1


def test_analyze_orbit_inconclusive_cap():
    p = tentmap.TentParams(fp(37, 100), fp(7, 10))
    rep = tentmap.analyze_orbit(fp(123, 1000), p, 20, FP)
    assert not rep.conclusive  # 62-bit orbits do not close in 20 steps


@dataclass
class _ParentOrbitReport:
    transient_len: int
    period: int
    hit_boundary_at: int | None
    samples: list = field(default_factory=list)
    conclusive: bool = True


def _analyze_orbit_parent(x0, p, max_iter, backend, sample_limit=64):
    """analyze_orbit as it was before its unread sample and boundary-hit
    bookkeeping was removed; kept verbatim apart from its name and that of
    its report class."""
    seen = {}
    samples = []
    hit = None
    zero, one = backend.zero, backend.one
    for i, x in enumerate(tentmap.orbit_stream(x0, p, backend)):
        if i > max_iter:  # x_{max_iter+1} is computed but not examined
            break
        if x in seen:
            first = seen[x]
            return _ParentOrbitReport(transient_len=first, period=i - first,
                                      hit_boundary_at=hit, samples=samples)
        seen[x] = i
        if len(samples) < sample_limit:
            samples.append(x)
        if hit is None and i > 0 and (x == zero or x == one):
            hit = i
    return _ParentOrbitReport(transient_len=0, period=1, hit_boundary_at=hit,
                              samples=samples, conclusive=False)


@pytest.mark.parametrize("name", ["fp8", "fp12", "fp16", "fp62", "f64"])
def test_analyze_orbit_matches_parent(name):
    be = get_backend(name)
    rng = random.Random(name)

    def draw(lo, hi):          # a backend value in [lo, hi] of the unit range
        if name == "f64":
            return lo + (hi - lo) * rng.random()
        return rng.randint(round(lo * be.one), round(hi * be.one))

    full = (1 << be.bits) + 2 if be.bits <= 16 else 200
    outcomes = set()
    for k in range(60):
        alpha = be.half if k % 3 == 0 else draw(0.01, 0.99)  # 1/2: boundary orbits
        p = tentmap.TentParams(alpha, draw(0.01, 0.99))
        x0 = (be.zero, be.one)[k % 2] if k % 10 < 2 else draw(0, 1)
        for cap in (0, 1, 5, full):
            got = tentmap.analyze_orbit(x0, p, cap, be)
            ref = _analyze_orbit_parent(x0, p, cap, be)
            assert (got.transient_len, got.period, got.conclusive) == \
                (ref.transient_len, ref.period, ref.conclusive)
            outcomes.add((alpha == be.half, got.conclusive))
    # both kinds of orbit are exercised, conclusive and capped
    assert {(True, True), (True, False), (False, False)} <= outcomes


def test_first_hit_boundary_at_peak():
    # x0 = alpha maps to 1 in one step
    p = tentmap.TentParams(fp(1, 4), fp(7, 10))
    assert tentmap.first_hit_boundary(fp(1, 4), p, 10, FP) == 1


def test_first_hit_boundary_miss_returns_none():
    p = tentmap.TentParams(fp(37, 100), fp(7, 10))
    assert tentmap.first_hit_boundary(fp(123, 1000), p, 100, FP) is None


def test_value_serialization_roundtrip():
    for text in ("fp62:0x3fd5cf2c6e12776", "f64:3fafeae7963706c5"):
        v, be = parse_value(text)
        assert be.serialize(v) == text
