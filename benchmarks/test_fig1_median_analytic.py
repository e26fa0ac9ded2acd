"""Fig. 1 -- analytic justification for the median (Sec. III).

Regenerates: (a) the four CDFs for λ=1, λ'=1/2; (b) observations needed
to detect the victim at λ'=1/2; (c) the same at λ'=10/11.

Shape expectations (paper): the two median distributions nearly
coincide while the originals are far apart; detecting through the
median takes close to an order of magnitude more observations; the
λ'=10/11 case needs far more observations than λ'=1/2 overall.
"""

from repro.analysis import format_table
from repro.analysis.experiments import (
    fig1_median_cdfs,
    fig1_observation_curves,
    render_fig1,
)

CONFIDENCES = (0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 0.99)


def test_fig1a_median_cdfs(benchmark, save_result):
    rows = benchmark.pedantic(fig1_median_cdfs, rounds=1, iterations=1)
    save_result("fig1a_median_cdfs.txt", format_table(
        ["x", "baseline", "victim", "median 3 baselines",
         "median 2 baselines + victim"], rows))
    gap_direct = max(abs(b - v) for _, b, v, _, _ in rows)
    gap_median = max(abs(m3 - m2) for _, _, _, m3, m2 in rows)
    assert gap_median < 0.5 * gap_direct


def test_fig1b_observations_half(benchmark, save_result):
    rows = benchmark.pedantic(
        fig1_observation_curves,
        kwargs={"victim_rate": 0.5, "confidences": CONFIDENCES},
        rounds=1, iterations=1)
    save_result("fig1b_observations_lambda_half.txt",
                render_fig1(rows, victim_rate=0.5))
    for _, without_sw, with_sw in rows:
        assert with_sw >= 4 * without_sw


def test_fig1c_observations_ten_elevenths(benchmark, save_result):
    rows = benchmark.pedantic(
        fig1_observation_curves,
        kwargs={"victim_rate": 10.0 / 11.0, "confidences": CONFIDENCES},
        rounds=1, iterations=1)
    save_result("fig1c_observations_lambda_10_11.txt",
                render_fig1(rows, victim_rate=10.0 / 11.0))
    for _, without_sw, with_sw in rows:
        assert with_sw > without_sw
        assert without_sw > 100  # much harder than the λ'=1/2 case
