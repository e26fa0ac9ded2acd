"""The policy-parameterised attack probes: every attack produces usable
sample sets under every policy shape, and the headline ordering --
the undefended baseline leaks, StopWatch doesn't -- holds."""

import pytest

from repro.attacks import (
    ATTACK_SUITE,
    AttackResult,
    run_coresidency_probe,
    run_scheduler_theft,
)


def test_suite_covers_the_three_attacks():
    assert sorted(ATTACK_SUITE) == ["clocks", "probe", "theft"]
    for runner in ATTACK_SUITE.values():
        assert callable(runner)


@pytest.mark.parametrize("attack", sorted(ATTACK_SUITE))
def test_attacks_produce_samples_under_baseline(attack):
    result = ATTACK_SUITE[attack](policy="none", duration=3.0, seed=3)
    assert isinstance(result, AttackResult)
    assert result.attack == attack
    assert result.policy == "none"
    assert len(result.samples_absent) > 30
    assert len(result.samples_present) > 30
    assert result.latencies, "victim overhead axis is empty"
    assert result.leakage_bits(bins=8) >= 0.0


@pytest.mark.parametrize("attack", sorted(ATTACK_SUITE))
def test_attacks_report_zero_divergences_under_stopwatch(attack):
    """Every attack cell's record carries the attacker's replica
    divergence count, and the replicated policy keeps it at zero."""
    result = ATTACK_SUITE[attack](policy="stopwatch", duration=3.0, seed=3)
    assert result.meta["divergences"] == 0


def test_attacks_run_under_the_replicated_policy():
    result = run_scheduler_theft(policy="stopwatch", duration=3.0,
                                 seed=3)
    assert result.policy == "stopwatch"
    assert len(result.samples_absent) > 30
    assert len(result.samples_present) > 30


def test_probe_baseline_leaks_more_than_stopwatch():
    """The ordering the CI gate rests on: under ``none`` the probing
    attacker distinguishes the coresident victim; under ``stopwatch``
    the median hides it."""
    baseline = run_coresidency_probe(policy="none", duration=4.0,
                                     seed=3)
    mediated = run_coresidency_probe(policy="stopwatch", duration=4.0,
                                     seed=3)
    assert baseline.leakage_bits() > 0.02
    assert baseline.leakage_bits() > mediated.leakage_bits()


def test_echo_victim_workload_supported():
    result = run_coresidency_probe(policy="none", duration=3.0, seed=3,
                                   workload="echo")
    assert result.latencies


def test_unknown_victim_workload_rejected():
    with pytest.raises(ValueError, match="workload"):
        run_coresidency_probe(policy="none", duration=1.0, seed=3,
                              workload="database")
