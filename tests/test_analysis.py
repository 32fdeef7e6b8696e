"""Histograms, guess complexity, boundary impact and degradation checks."""

import math
from fractions import Fraction

import pytest

from tentbreak import analysis, tentmap
from tentbreak.backend import ParameterError, get_backend
from rank_reference import class_offset_h, mean_rank_monte_carlo

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


def test_worker_substreams_reproducible():
    a = analysis.first_hit_model_trials(8, 400, seed=3, workers=4)
    b = analysis.first_hit_model_trials(8, 400, seed=3, workers=4)
    assert a == b


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
