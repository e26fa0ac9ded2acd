"""Statistics for the StopWatch analysis (paper Sec. III, Appendix).

- :mod:`repro.stats.distributions` -- the distribution objects the
  analysis is phrased over (exponential baselines/victims, uniform noise,
  empirical distributions from simulator traces, shifted variants).
- :mod:`repro.stats.orderstats` -- order-statistic CDFs ``F_{r:m}``, the
  StopWatch median CDF ``F_{2:3}``, Kolmogorov-Smirnov distance, and the
  appendix Theorems 3 and 4.
- :mod:`repro.stats.detection` -- the chi-squared "observations needed to
  detect the victim" calculator used by Fig. 1(b,c) and Fig. 4(b).
- :mod:`repro.stats.noise` -- the uniform-random-noise alternative and the
  delay comparison of Fig. 8.
- :mod:`repro.stats.mi` -- binned mutual-information and Blahut-Arimoto
  channel-capacity estimators for the mitigation-frontier leakage axis.
"""

from repro.stats.distributions import (
    Distribution,
    Exponential,
    Uniform,
    Shifted,
    Empirical,
    MedianOfThree,
    Sum,
)
from repro.stats.orderstats import (
    order_statistic_cdf,
    median_of_three_cdf,
    ks_distance,
    ks_distance_of_medians,
    theorem3_bound_factor,
)
from repro.stats.detection import (
    equiprobable_bin_edges,
    bin_probabilities,
    chi_square_divergence,
    observations_to_detect,
    observations_curve,
    observations_needed_from_samples,
    empirical_observations_to_detect,
)
from repro.stats.noise import (
    ExponentialPlusUniform,
    abs_difference_cdf_exponentials,
    delta_n_for_sync_probability,
    kl_divergence,
    min_noise_bound_matching_stopwatch,
    noise_comparison_table,
    noise_kl,
    noise_observations,
    protection_cost_curve,
    stein_observations,
    stopwatch_kl,
    stopwatch_observations,
    NoiseComparisonRow,
    ProtectionCostPoint,
)
from repro.stats.mi import (
    capacity_from_samples,
    channel_capacity_bits,
    leakage_summary,
    mi_bits,
    mutual_information_bits,
)

__all__ = [
    "Distribution",
    "Exponential",
    "Uniform",
    "Shifted",
    "Empirical",
    "MedianOfThree",
    "Sum",
    "order_statistic_cdf",
    "median_of_three_cdf",
    "ks_distance",
    "ks_distance_of_medians",
    "theorem3_bound_factor",
    "equiprobable_bin_edges",
    "bin_probabilities",
    "chi_square_divergence",
    "observations_to_detect",
    "observations_curve",
    "observations_needed_from_samples",
    "empirical_observations_to_detect",
    "ExponentialPlusUniform",
    "abs_difference_cdf_exponentials",
    "delta_n_for_sync_probability",
    "kl_divergence",
    "min_noise_bound_matching_stopwatch",
    "noise_comparison_table",
    "noise_kl",
    "noise_observations",
    "protection_cost_curve",
    "stein_observations",
    "stopwatch_kl",
    "stopwatch_observations",
    "NoiseComparisonRow",
    "ProtectionCostPoint",
    "capacity_from_samples",
    "channel_capacity_bits",
    "leakage_summary",
    "mi_bits",
    "mutual_information_bits",
]
