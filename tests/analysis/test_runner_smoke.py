"""Smoke test (satellite): every registered runner executes with
minimal durations and returns non-empty, finite rows.

These are the cheapest parameters each runner accepts; the point is
that the campaign layer can call any registry entry by name and get
aggregatable output back, not that the numbers match the paper.
"""

import math

import pytest

from repro.analysis.experiments import RUNNERS

# Minimal-cost kwargs per runner. Every registry entry must appear
# here so new runners cannot be added without a smoke entry.
MINIMAL_KWARGS = {
    "fig1_median_cdfs": {},
    "fig1_observation_curves": {"confidences": (0.9,)},
    "fig4_empirical_detection": {"duration": 2.0},
    "fig5_file_download": {"sizes": (5000,), "trials": 1,
                           "sim_until": 2.0},
    "fig6_nfs": {"rates": (50,), "duration": 1.5},
    "fig7_parsec": {"kernels": ("streamcluster",), "scale": 0.2},
    "fig8_noise_comparison": {"confidences": (0.7,)},
    "placement_utilization": {"points": ((9, 4),)},
    "delta_offset_translation": {"duration": 2.0},
    "covert_channel_ber": {"bits": 2},
    "collaborating_attackers": {"duration": 0.5},
    "aggregation_ablation": {"aggregations": ("median",),
                             "duration": 2.0},
    "delta_n_ablation": {"delta_ns": (0.01,), "duration": 1.5,
                         "pings": 20},
    "epoch_resync_ablation": {"epoch_lengths": (None,),
                              "duration": 1.0},
    "flow_stage_latency": {"duration": 0.5},
    "scale_sweep": {"tenant_counts": (1,), "duration": 1.0,
                    "request_rate": 30.0},
    "kernel_bench": {"tenants": 1, "duration": 0.5, "repeats": 1},
    "chaos_cell": {"scenario": "single", "duration": 2.2,
                   "rate": 1.0, "check_determinism": False},
    "mitigation_cell": {"policy": "none", "attack": "probe",
                        "duration": 2.0, "seed": 3},
    "mitigation_frontier": {"policies": ("none",), "attacks": ("probe",),
                            "duration": 2.0, "seeds": [3], "jobs": 1},
    "storage_repair": {"duration": 4.5, "crash_at": 1.0,
                       "check_determinism": False},
}


def _assert_finite(value, path="result"):
    if isinstance(value, dict):
        assert value, f"{path} is empty"
        for key, item in value.items():
            _assert_finite(item, f"{path}[{key!r}]")
    elif isinstance(value, (list, tuple)):
        assert len(value) > 0, f"{path} is empty"
        for i, item in enumerate(value):
            _assert_finite(item, f"{path}[{i}]")
    elif isinstance(value, float):
        assert math.isfinite(value), f"{path} is {value}"
    else:
        assert value is None or isinstance(value, (int, str, bool)), \
            f"{path} has unexpected type {type(value)}"


def test_every_runner_has_a_smoke_entry():
    assert set(MINIMAL_KWARGS) == set(RUNNERS)


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_runner_returns_nonempty_finite_rows(name):
    result = RUNNERS[name](**MINIMAL_KWARGS[name])
    if name in ("chaos_cell", "mitigation_frontier", "storage_repair"):
        # list fields are empty precisely when the cell is healthy
        result = {key: value for key, value in result.items()
                  if value != []}
    _assert_finite(result)
    if isinstance(result, list):
        # tabular runners: consistent row widths
        widths = {len(row) for row in result}
        assert len(widths) == 1
