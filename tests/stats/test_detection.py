"""Tests for the chi-squared detection calculator."""

import random

import numpy as np
import pytest

from repro.stats import (
    Exponential,
    MedianOfThree,
    bin_probabilities,
    chi_square_divergence,
    empirical_observations_to_detect,
    equiprobable_bin_edges,
    observations_curve,
    observations_needed_from_samples,
    observations_to_detect,
)


def binned(null_dist, alt_dist, bins=10):
    edges = equiprobable_bin_edges(null_dist, bins)
    return (bin_probabilities(null_dist, edges),
            bin_probabilities(alt_dist, edges))


class TestBinning:
    def test_equiprobable_edges_split_mass_evenly(self):
        dist = Exponential(1.0)
        edges = equiprobable_bin_edges(dist, 10)
        probs = bin_probabilities(dist, edges)
        assert len(probs) == 10
        assert np.allclose(probs, 0.1, atol=1e-6)

    def test_probabilities_sum_to_one(self):
        p, q = binned(Exponential(1.0), Exponential(0.5))
        assert p.sum() == pytest.approx(1.0)
        assert q.sum() == pytest.approx(1.0)

    def test_too_few_bins_rejected(self):
        with pytest.raises(ValueError):
            equiprobable_bin_edges(Exponential(1.0), 1)

    def test_unsorted_edges_rejected(self):
        with pytest.raises(ValueError):
            bin_probabilities(Exponential(1.0), [2.0, 1.0])


class TestDivergence:
    def test_zero_for_identical(self):
        p, _ = binned(Exponential(1.0), Exponential(1.0))
        assert chi_square_divergence(p, p) == 0.0

    def test_positive_for_different(self):
        p, q = binned(Exponential(1.0), Exponential(0.5))
        assert chi_square_divergence(p, q) > 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            chi_square_divergence(np.array([0.5, 0.5]),
                                  np.array([0.3, 0.3, 0.4]))


class TestObservationsNeeded:
    def test_monotone_in_confidence(self):
        p, q = binned(Exponential(1.0), Exponential(0.5))
        curve = observations_curve(p, q, [0.70, 0.90, 0.99])
        counts = [n for _, n in curve]
        assert counts == sorted(counts)
        assert counts[0] >= 1

    def test_indistinguishable_hits_cap(self):
        p, _ = binned(Exponential(1.0), Exponential(1.0))
        assert observations_to_detect(p, p, 0.9, max_n=1000) == 1000

    def test_stopwatch_requires_order_of_magnitude_more(self):
        """The Fig. 1(b) headline: detecting a victim through the median
        of three takes many times more observations than detecting it
        directly."""
        base, victim = Exponential(1.0), Exponential(0.5)
        p_direct, q_direct = binned(base, victim)
        null_med = MedianOfThree(base, base, base)
        alt_med = MedianOfThree(victim, base, base)
        p_med, q_med = binned(null_med, alt_med)
        for confidence in (0.7, 0.9, 0.99):
            without = observations_to_detect(p_direct, q_direct, confidence)
            with_sw = observations_to_detect(p_med, q_med, confidence)
            assert with_sw >= 4 * without

    def test_closer_victim_needs_more_observations(self):
        """Fig. 1(c) vs 1(b): λ' = 10/11 is far harder than λ' = 1/2."""
        base = Exponential(1.0)
        p_near, q_near = binned(base, Exponential(10.0 / 11.0))
        p_far, q_far = binned(base, Exponential(0.5))
        near = observations_to_detect(p_near, q_near, 0.9)
        far = observations_to_detect(p_far, q_far, 0.9)
        assert near > 10 * far

    def test_bad_confidence_rejected(self):
        p, q = binned(Exponential(1.0), Exponential(0.5))
        with pytest.raises(ValueError):
            observations_to_detect(p, q, 1.5)
        with pytest.raises(ValueError):
            observations_to_detect(p, q, 0.9, power=0.0)

    def test_higher_power_needs_more_observations(self):
        p, q = binned(Exponential(1.0), Exponential(0.5))
        low_power = observations_to_detect(p, q, 0.9, power=0.3)
        high_power = observations_to_detect(p, q, 0.9, power=0.9)
        assert high_power > low_power


class TestEmpiricalDetection:
    def test_monte_carlo_agrees_with_analytic_within_factor(self):
        rng = random.Random(11)
        base, victim = Exponential(1.0), Exponential(0.5)
        analytic_p, analytic_q = binned(base, victim)
        analytic = observations_to_detect(analytic_p, analytic_q, 0.9)
        empirical = empirical_observations_to_detect(
            base, victim, 0.9, rng, trials=100)
        assert empirical <= 4 * analytic
        assert analytic <= 4 * empirical


class TestObservationsFromSamples:
    def test_identical_samples_need_max_observations(self):
        samples = [0.01 * i for i in range(1, 300)]
        curve = observations_needed_from_samples(samples, samples, [0.9])
        assert curve[0][1] >= 10**6

    def test_disjoint_samples_detected_immediately(self):
        null = [1.0 + 0.001 * i for i in range(200)]
        alt = [5.0 + 0.001 * i for i in range(200)]
        curve = observations_needed_from_samples(null, alt, [0.9])
        assert curve[0][1] <= 3
