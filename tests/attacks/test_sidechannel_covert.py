"""Tests for the coresidence side channel and the covert channel.

These use reduced durations; the full-scale versions live in
``benchmarks/``.  The assertions are directional (StopWatch makes the
attack strictly and substantially harder), except for one pin of the
short Fig. 4 cells' exact counts.
"""

import statistics

import pytest

from repro.attacks import run_clock_probe, run_covert_channel


@pytest.fixture(scope="module")
def short_experiments():
    baseline = run_clock_probe(policy="none", duration=12.0, seed=7)
    stopwatch = run_clock_probe(policy="stopwatch", duration=12.0, seed=7)
    return baseline, stopwatch


class TestCoresidenceDetection:
    def test_baseline_victim_shifts_distribution(self, short_experiments):
        baseline, _ = short_experiments
        mean_present = statistics.mean(baseline.samples_present)
        mean_absent = statistics.mean(baseline.samples_absent)
        assert abs(mean_present - mean_absent) / mean_absent > 0.05

    def test_stopwatch_hides_the_shift(self, short_experiments):
        _, stopwatch = short_experiments
        mean_present = statistics.mean(stopwatch.samples_present)
        mean_absent = statistics.mean(stopwatch.samples_absent)
        assert abs(mean_present - mean_absent) / mean_absent < 0.02

    def test_stopwatch_needs_many_more_observations(self,
                                                    short_experiments):
        baseline, stopwatch = short_experiments
        base_curve = dict(baseline.detection_curve([0.9]))
        sw_curve = dict(stopwatch.detection_curve([0.9]))
        assert sw_curve[0.9] >= 4 * base_curve[0.9]

    def test_curves_monotone_in_confidence(self, short_experiments):
        baseline, _ = short_experiments
        curve = baseline.detection_curve([0.7, 0.9, 0.99])
        counts = [n for _, n in curve]
        assert counts == sorted(counts)

    def test_no_divergences_during_attack(self, short_experiments):
        _, stopwatch = short_experiments
        assert stopwatch.meta["divergences"] == 0

    def test_short_cells_pinned(self, short_experiments):
        """Exact same-seed counts: any change to the harness, the
        layout or the detection statistic shows up here."""
        baseline, stopwatch = short_experiments
        assert (len(baseline.samples_absent),
                len(baseline.samples_present)) == (636, 636)
        assert [n for _, n in baseline.detection_curve(
            [0.7, 0.9, 0.99])] == [41, 109, 225]
        assert (len(stopwatch.samples_absent),
                len(stopwatch.samples_present)) == (636, 587)
        assert [n for _, n in stopwatch.detection_curve(
            [0.7, 0.9, 0.99])] == [2179, 5858, 12151]


class TestCovertChannel:
    def test_baseline_channel_decodes(self):
        result = run_covert_channel(mediated=False, n_bits=12)
        assert result.bit_error_rate <= 0.25

    def test_stopwatch_destroys_channel(self):
        result = run_covert_channel(mediated=True, n_bits=12)
        assert result.bit_error_rate >= 0.25

    def test_result_shape(self):
        result = run_covert_channel(mediated=False, n_bits=6)
        assert len(result.bits_sent) == 6
        assert len(result.bits_decoded) == 6
        assert set(result.bits_sent) <= {0, 1}
