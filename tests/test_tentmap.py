"""Map iteration, initial-condition derivation and orbit analysis."""

import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

import spec
from tentbreak import tentmap
from tentbreak.backend import (FixedPointBackend, ParameterError, get_backend,
                               parse_value)

FP = get_backend("fp62")
F64 = get_backend("f64")


def frac(x):
    return Fraction(x, FP.one)


def fp(num, den):
    return FP.from_ratio(num, den)


def test_skew_tent_left_branch():
    # F_0.25(1/8) = (1/8)/(1/4) = 1/2, exact in dyadic fixed point
    left, _ = FP.tent_branches(fp(1, 4))
    assert frac(left(fp(1, 8))) == Fraction(1, 2)
    left, _ = F64.tent_branches(0.25)
    assert left(0.1) == pytest.approx(0.4)


def test_skew_tent_right_branch():
    # F_0.25(0.5) = (1-0.5)/(1-0.25) = 2/3
    _, right = FP.tent_branches(fp(1, 4))
    assert abs(frac(right(fp(1, 2))) - Fraction(2, 3)) <= Fraction(1, FP.one)


def test_skew_tent_peak():
    # the peak value x = alpha maps to 1 exactly
    for a_num in (1, 3, 7):
        left, _ = FP.tent_branches(fp(a_num, 10))
        assert left(fp(a_num, 10)) == FP.one
    left, _ = F64.tent_branches(0.3)
    assert left(0.3) == 1.0


def test_skew_tent_domain():
    p = tentmap.TentParams(fp(1, 2), fp(7, 10))
    inside = r" must lie strictly inside \(0, 1\)$"
    with pytest.raises(ParameterError, match=r"^x outside \[0, 1\]$"):
        list(islice(tentmap.orbit_stream(FP.one + 1, p, FP), 2))
    with pytest.raises(ParameterError, match="^alpha" + inside):
        list(islice(tentmap.orbit_stream(
            fp(1, 2), tentmap.TentParams(FP.zero, p.beta), FP), 2))
    # 1/2 -> 1 at alpha = 1/2, where the restart checks beta
    with pytest.raises(ParameterError, match="^beta" + inside):
        list(islice(tentmap.orbit_stream(
            fp(1, 2), tentmap.TentParams(fp(1, 2), FP.one), FP), 3))


def test_extended_redirects_boundary():
    beta = fp(7, 10)
    p = tentmap.TentParams(fp(1, 2), beta)
    assert list(islice(tentmap.orbit_stream(FP.zero, p, FP), 1, 2)) == [beta]
    assert list(islice(tentmap.orbit_stream(FP.one, p, FP), 1, 2)) == [beta]
    # interior points follow the plain map
    left, _ = FP.tent_branches(fp(1, 2))
    assert list(islice(tentmap.orbit_stream(fp(1, 4), p, FP), 1, 2)) == [left(fp(1, 4))]


def test_orbit_from_zero_goes_through_beta():
    p = tentmap.TentParams(fp(9, 10), fp(7, 10))
    orbit = list(islice(tentmap.orbit_stream(FP.zero, p, FP), 1, 4))
    assert orbit[0] == p.beta


def test_tent_params_are_read_only():
    p = tentmap.TentParams(fp(1, 2), fp(7, 10))
    assert p == tentmap.TentParams(fp(1, 2), fp(7, 10))
    assert hash(p) == hash(tentmap.TentParams(fp(1, 2), fp(7, 10)))
    with pytest.raises(AttributeError):
        p.alpha = fp(1, 4)


def test_halving_cycle_fixture():
    # alpha = 1/2, beta = 3/8: each step strips one bit of precision, the
    # orbit of x0 = 3/8 is the exact 4-cycle 3/4, 1/2, 1, 3/8, ...
    p = tentmap.TentParams(fp(1, 2), fp(3, 8))
    orbit = list(islice(tentmap.orbit_stream(fp(3, 8), p, FP), 1, 9))
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


@pytest.mark.parametrize("name", ["fp1", "fp2", "fp8", "fp62", "fp64", "f64"])
def test_derive_x0_matches_parent(name):
    # against the spec's F_gamma^{4n}(s): equal values, and an error where
    # the spec has one
    be, g = get_backend(name), spec.Grid(name)
    rng = random.Random(name)
    gammas = [be.zero, be.one, be.half]
    gammas += [be.from_float(rng.uniform(0.001, 0.999)) for _ in range(6)]
    ts = [0, 1, 10, 1000, 10 ** 18, 10 ** 40, 999, 1001, 10 ** 12 - 1]
    ts += [rng.randrange(1, 10 ** rng.randrange(1, 20)) for _ in range(12)]
    outcomes = set()
    for gamma in gammas:
        for t in ts:
            try:
                wants = spec.derive_x0s(t, gamma, 16, g)
            except ValueError:
                for n in range(1, 17):
                    with pytest.raises(ValueError):
                        tentmap.derive_x0(t, gamma, n, be)
                outcomes.add(ValueError)
                continue
            for n, want in enumerate(wants, start=1):
                assert tentmap.derive_x0(t, gamma, n, be) == want, (t, gamma, n)
                outcomes.add(want == be.zero)
    # the degenerate chain, interior results and errors occur; at fp1 the
    # one interior gamma, 1/2, sends every x0 to 0
    assert {True, ValueError} <= outcomes
    assert False in outcomes or name == "fp1"
    with pytest.raises(ParameterError,
                       match="^timestamp must be a positive integer, got 0$"):
        tentmap.derive_x0(0, be.half, 1, be)
    with pytest.raises(ParameterError,
                       match=r"^gamma must lie strictly inside \(0, 1\)$"):
        tentmap.derive_x0(1234, be.one, 1, be)


def test_derive_x0_rejects_bad_t():
    with pytest.raises(ParameterError,
                       match="^timestamp must be a positive integer, got 0$"):
        tentmap.derive_x0(0, fp(3, 10), 2, FP)
    with pytest.raises(ParameterError,
                       match="^timestamp must be a positive integer, got -5$"):
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


def _prefix(states, count):
    """The first `count` states, or those before the map failed, and
    whether it failed."""
    out = []
    try:
        out.extend(islice(states, count))
    except ValueError:
        return out, True
    return out, False


@pytest.mark.parametrize("name", ["fp2", "fp8", "fp62", "fp64", "f64"])
def test_orbit_stream_matches_parent(name):
    # against the spec's orbit of G: equal states, and a failure at the
    # step where the spec has one
    be, g = get_backend(name), spec.Grid(name)
    rng = random.Random(name)
    boundary = [be.zero, be.one]
    outside = [be.zero - be.one, be.one + be.one]

    def interior():
        return be.from_float(rng.uniform(0.01, 0.99))

    cases = [(be.half, interior(), x0) for x0 in boundary + [interior()]]
    # alpha = 1/2 reaches 1 from inside, so beta is checked mid-orbit
    cases += [(be.half, bad, interior()) for bad in boundary]
    cases += [(interior(), interior(), x0)
              for x0 in boundary + outside + [interior() for _ in range(6)]]
    cases += [(interior(), bad, x0) for bad in boundary for x0 in boundary]
    cases += [(bad, interior(), x0) for bad in boundary
              for x0 in boundary + outside + [interior()]]
    failures = 0
    for alpha, beta, x0 in cases:
        p = tentmap.TentParams(alpha, beta)
        want, failed = _prefix(spec.orbit(x0, alpha, beta, g), 300)
        failures += failed
        for count in (1, 2, 3, 300):
            assert _prefix(tentmap.orbit_stream(x0, p, be), count) == \
                (want[:count], failed and len(want) < count)
    assert 0 < failures < len(cases)


@pytest.mark.parametrize("name", ["fp2", "fp8", "fp16", "fp62", "fp64", "f64"])
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_tent_branches_match_div(name, data):
    be = get_backend(name)
    if name == "f64":
        alpha = data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        left_x = st.floats(0.0, alpha)
        right_x = st.floats(alpha, 1.0, exclude_min=True)
    else:
        alpha = data.draw(st.integers(1, be.one - 1))
        left_x = st.integers(0, alpha)
        right_x = st.integers(alpha + 1, be.one)
    left, right = be.tent_branches(alpha)
    F = spec.tent_map(alpha, spec.Grid(name))
    x = data.draw(left_x)
    assert left(x) == F(x)
    x = data.draw(right_x)
    assert right(x) == F(x)


@pytest.mark.parametrize("bits", range(1, 9))
def test_tent_branches_exact_on_small_grids(bits):
    # every peak and every state of each branch's range
    be = FixedPointBackend(bits)
    for alpha in range(1, be.one):
        left, right = be.tent_branches(alpha)
        F = spec.tent_map(alpha, spec.Grid(f"fp{bits}"))
        assert [left(x) for x in range(alpha + 1)] == \
            [F(x) for x in range(alpha + 1)]
        assert [right(x) for x in range(alpha + 1, be.one + 1)] == \
            [F(x) for x in range(alpha + 1, be.one + 1)]


def _check_interior_steps(be, alpha, xs):
    left, right = be.tent_branches(alpha)
    for x in xs:
        if 0 < x <= alpha:
            assert 1 <= left(x) <= be.one, (alpha, x)
            assert (left(x) == be.one) == (x == alpha), (alpha, x)
        elif alpha < x < be.one:
            assert 1 <= right(x) <= be.one - 1, (alpha, x)


@pytest.mark.parametrize("bits", range(1, 9))
def test_interior_states_step_to_zero_or_one_only_from_alpha(bits):
    # what lets the fixed-point noise loop check 0, one and the domain only
    # at x0: an interior state never steps to 0, and to one only from alpha
    be = FixedPointBackend(bits)
    for alpha in range(1, be.one):
        _check_interior_steps(be, alpha, range(1, be.one))


@pytest.mark.parametrize("bits", [62, 63, 64])
def test_tent_branches_exact_at_the_edges(bits):
    # the extreme peaks and states, which random draws rarely reach
    be = FixedPointBackend(bits)
    one = be.one
    for alpha in (1, 2, one // 2, one - 2, one - 1):
        left, right = be.tent_branches(alpha)
        F = spec.tent_map(alpha, spec.Grid(f"fp{bits}"))
        edges = (0, 1, alpha - 1, alpha, alpha + 1, one - 1, one)
        for x in edges:
            if 0 <= x <= alpha:
                assert left(x) == F(x), (alpha, x)
            elif alpha < x <= one:
                assert right(x) == F(x), (alpha, x)
        _check_interior_steps(be, alpha, edges)


def _first_repeat(states, cap):
    """(first, i) for the first state x_i, i <= cap, equal to an earlier
    x_first, or None."""
    seen = {}
    for i, x in enumerate(islice(states, cap + 1)):
        if x in seen:
            return seen[x], i
        seen[x] = i
    return None


@pytest.mark.parametrize("name", ["fp8", "fp12", "fp16", "fp62", "f64"])
def test_analyze_orbit_matches_parent(name):
    # the transient and period of the first repeat in the spec's orbit
    be, g = get_backend(name), spec.Grid(name)
    rng = random.Random(name)

    def draw(lo, hi):          # a backend value in [lo, hi] of the unit range
        if name == "f64":
            return lo + (hi - lo) * rng.random()
        return rng.randint(round(lo * be.one), round(hi * be.one))

    full = (1 << be.bits) + 2 if name != "f64" and be.bits <= 16 else 200
    outcomes = set()
    for k in range(60):
        alpha = be.half if k % 3 == 0 else draw(0.01, 0.99)  # 1/2: boundary orbits
        p = tentmap.TentParams(alpha, draw(0.01, 0.99))
        x0 = (be.zero, be.one)[k % 2] if k % 10 < 2 else draw(0, 1)
        repeat = _first_repeat(spec.orbit(x0, p.alpha, p.beta, g), full)
        for cap in (0, 1, 5, full):
            got = tentmap.analyze_orbit(x0, p, cap, be)
            if repeat is None or repeat[1] > cap:
                want = (0, 1, False)
            else:
                want = (repeat[0], repeat[1] - repeat[0], True)
            assert (got.transient_len, got.period, got.conclusive) == want
            outcomes.add((alpha == be.half, got.conclusive))
    # both kinds of orbit are exercised, conclusive and capped
    assert {(True, True), (True, False), (False, False)} <= outcomes


def test_value_serialization_roundtrip():
    for text in ("fp62:0x3fd5cf2c6e12776", "f64:3fafeae7963706c5"):
        v, be = parse_value(text)
        assert be.serialize(v) == text
