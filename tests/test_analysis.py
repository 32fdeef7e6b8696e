"""Histograms, guess complexity, boundary impact and degradation checks."""

import math
import random
import re
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import spec
from tentbreak import analysis, attack, tentmap
from tentbreak.backend import FixedPointBackend, ParameterError, get_backend
from rank_reference import (class_offset_h, mean_rank_monte_carlo,
                            prioritized_candidates)

FP = get_backend("fp62")
F64 = get_backend("f64")


def test_probability_normalization_exact():
    for n in (1, 2):
        for alpha in (Fraction(1, 10), Fraction(1, 3), Fraction(7, 9)):
            total = sum(analysis.theoretical_prob(a, alpha, n)
                        for a in range(1 << (4 * n)))
            assert total == 1


def test_theoretical_prob_extremes():
    # all-zero block: every bit stays below the threshold
    assert analysis.theoretical_prob(0, Fraction(1, 10), 1) == Fraction(1, 10) ** 4
    assert analysis.theoretical_prob(0xF, Fraction(1, 10), 1) == Fraction(9, 10) ** 4


def test_histogram_counts_sum():
    p = tentmap.TentParams(FP.from_ratio(1, 10), FP.from_ratio(7, 10))
    hist = analysis.sample_histogram(p, FP.from_ratio(3, 10), 2, 500, FP)
    assert sum(hist.counts) == 500


def test_histogram_skew_favors_all_ones():
    # alpha = 0.1: bits are 1 with probability ~0.9, so 255 dominates
    p = tentmap.TentParams(0.1, 0.7)
    hist = analysis.sample_histogram(p, 0.3, 2, 1000, F64)
    assert hist.counts[255] == max(hist.counts)


def test_class_offset():
    assert class_offset_h(0, 2) == 0
    assert class_offset_h(1, 2) == 2
    # total coverage: both tails plus the middle class give all 256 values
    assert class_offset_h(4, 2) + math.comb(8, 4) == 256


def test_com_at_half_exact():
    for n in (1, 2, 16):
        com, _ = analysis.guess_complexity(Fraction(1, 2), n)
        assert com == Fraction((1 << (4 * n)) + 1, 2)


def test_com_nondecreasing_to_half():
    prev = None
    for i in range(1, 50):
        _, lc = analysis.guess_complexity(Fraction(i, 100), 16)
        if prev is not None:
            assert lc >= prev - 1e-9
        prev = lc


# complexity_curve's alpha grid, and float alphas whose exact binary value
# has a large denominator
GRID = [Fraction(i, 100) for i in range(1, 100)]
FLOATS = [0.37, 0.5, 0.503, 1e-9]


def test_com_matches_spec():
    for n in (1, 2, 3, 4, 8, 16):
        for alpha in GRID + FLOATS:
            want = spec.guess_complexity(Fraction(alpha), n,
                                         attack.class_order(alpha, n))
            com, log2_com = analysis.guess_complexity(alpha, n)
            assert com == want, (alpha, n)
            assert log2_com == analysis.log2_fraction(want)


def test_com_is_mean_rank_over_enumeration():
    # sum of rank * Prob over every block value in the attacker's order
    for n in (1, 2):
        width = 4 * n
        for alpha in GRID + FLOATS:
            al = Fraction(alpha)
            want = sum(rank * al ** (width - bin(v).count("1"))
                       * (1 - al) ** bin(v).count("1")
                       for rank, v in enumerate(prioritized_candidates(alpha, n),
                                                start=1))
            assert analysis.guess_complexity(alpha, n)[0] == want, (alpha, n)


def test_com_matches_monte_carlo():
    for alpha in (Fraction(1, 10), Fraction(3, 10)):
        com, _ = analysis.guess_complexity(alpha, 1)
        mc = mean_rank_monte_carlo(float(alpha), 1, 20000, seed=7)
        assert abs(mc - float(com)) / float(com) < 0.02


def test_complexity_curve_grid():
    points = analysis.complexity_curve(2)
    assert len(points) == 99
    assert points[0][0] == pytest.approx(0.01)
    assert points[-1][0] == pytest.approx(0.99)


def test_log2_fraction_huge():
    assert analysis.log2_fraction(Fraction(1 << 200, 1)) == pytest.approx(200)
    assert analysis.log2_fraction(Fraction(1, 8)) == pytest.approx(-3)
    with pytest.raises(ParameterError):
        analysis.log2_fraction(Fraction(0))


def test_beta_impact_values():
    p, expected, dec_bytes = analysis.beta_impact(2)
    assert (p, expected, dec_bytes) == (Fraction(1, 2), 2, Fraction(1, 4))
    p, expected, dec_bytes = analysis.beta_impact(30)
    assert (p, expected, dec_bytes) == (Fraction(1, 2 ** 29), 2 ** 29, 2 ** 26)


def test_first_hit_model_scaling():
    mean = analysis.first_hit_model_trials(8, 400, seed=3)
    assert 2 ** 6 < mean < 2 ** 9  # expectation 2^7


def _first_hit_reference(L, trials, seed, workers):
    """The beta-model mean trial by trial: worker w draws the next
    trials // workers trials, and one more while w < trials % workers, from
    Random(f"{seed}:{w}"), each a first hit by inversion of one uniform."""
    log_miss = math.log1p(-2.0 ** (1 - L))
    total = 0
    for w in range(workers):
        rng = random.Random(f"{seed}:{w}")
        for _ in range(trials // workers + (w < trials % workers)):
            total += 1 + math.floor(math.log(1.0 - rng.random()) / log_miss)
    return total / trials


def test_worker_substreams_reproducible():
    a = analysis.first_hit_model_trials(8, 400, seed=3, workers=4)
    b = analysis.first_hit_model_trials(8, 400, seed=3, workers=4)
    assert a == b
    # the split over workers, with trial counts that 2, 3 and 4 do not
    # divide and fewer trials than workers
    for trials in (3, 13, 401):
        for workers in (1, 2, 3, 4):
            assert analysis.first_hit_model_trials(8, trials, 3, workers) == \
                _first_hit_reference(8, trials, 3, workers)
    # the one split rejects a total of no samples for both Monte Carlo runs
    for call in (partial(analysis.first_hit_model_trials, 8, 0),
                 partial(analysis.orbit_length_census, 8, 0.37, 0),
                 partial(analysis.first_hit_model_trials, 8, -3, workers=2)):
        with pytest.raises(ParameterError, match="^need at least one sample$"):
            call()


def test_degradation_report_fixture():
    rep = analysis.degradation_report(FP.from_ratio(3, 8), FP.from_ratio(3, 8), FP)
    assert rep["n_beta"] == 3
    assert rep["period"] == 4
    assert rep["ok"]


def test_degradation_report_binary64():
    rep = analysis.degradation_report(0.4, 0.123, F64)
    assert rep["period"] == rep["n_beta"] + 1
    assert rep["ok"]


def test_orbit_length_census_scales():
    mean12, lengths = analysis.orbit_length_census(12, 0.37, 100, seed=1)
    assert len(lengths) == 100
    mean16, _ = analysis.orbit_length_census(16, 0.37, 100, seed=1)
    assert mean16 > mean12
    with pytest.raises(ParameterError):
        analysis.orbit_length_census(30, 0.37, 10)


def _census_reference(L, alpha, samples, seed, workers):
    """The census lengths orbit by orbit: analyze_orbit's transient + period
    from each x0, drawn as the census draws them."""
    be = FixedPointBackend(L)
    a = Fraction(alpha)
    p = tentmap.TentParams(be.from_ratio(a.numerator, a.denominator),
                           be.from_ratio(7, 10))
    lengths = []
    for w in range(workers):
        rng = random.Random(f"{seed}:{w}")
        for _ in range(samples // workers + (w < samples % workers)):
            rep = tentmap.analyze_orbit(rng.randrange(1, be.one), p,
                                        (1 << L) + 2, be)
            assert rep.conclusive
            lengths.append(rep.transient_len + rep.period)
    return lengths


@settings(max_examples=80, deadline=None)
@given(L=st.integers(1, 16), alpha=st.floats(0.001, 0.999),
       seed=st.integers(0, 1 << 32), samples=st.integers(1, 40),
       workers=st.integers(1, 4))
def test_census_lengths_match_analyze_orbit(L, alpha, seed, samples, workers):
    try:
        want = _census_reference(L, alpha, samples, seed, workers)
    except ParameterError as exc:   # alpha rounds to 0 or 1 at L bits
        with pytest.raises(ParameterError, match=re.escape(str(exc))):
            analysis.orbit_length_census(L, alpha, samples, seed, workers)
        return
    mean, lengths = analysis.orbit_length_census(L, alpha, samples, seed, workers)
    assert lengths == want
    assert mean == sum(want) / len(want)


@pytest.mark.parametrize("L", [20, 24])
def test_census_lengths_match_analyze_orbit_wide(L):
    for seed in (0, 1, 2):
        _, lengths = analysis.orbit_length_census(L, 0.37, 12, seed, workers=2)
        assert lengths == _census_reference(L, 0.37, 12, seed, 2)


def test_csv_emitters(tmp_path):
    p = tentmap.TentParams(0.1, 0.7)
    hist = analysis.sample_histogram(p, 0.3, 2, 100, F64)
    out = tmp_path / "hist.csv"
    analysis.emit_csv(out, ("value", "count", "frequency", "theoretical"),
                      ((a, c, c / hist.samples,
                        analysis.theoretical_prob(a, Fraction(1, 10), 2))
                       for a, c in enumerate(hist.counts)))
    lines = out.read_text().splitlines()
    assert lines[0] == "value,count,frequency,theoretical"
    assert len(lines) == 257

    out = tmp_path / "curve.csv"
    analysis.emit_csv(out, ("alpha", "log2_com"), analysis.complexity_curve(1))
    assert len(out.read_text().splitlines()) == 100

    out = tmp_path / "report.csv"
    analysis.emit_csv(out, ("key", "value"), {"a": 1, "b": Fraction(1, 2)}.items())
    assert out.read_text().splitlines() == ["key,value", "a,1", "b,0.5"]
