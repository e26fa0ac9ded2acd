"""Sec. IX -- collaborating attacker VMs and the 5-replica remedy.

Regenerates the qualitative claim: a collaborator VM loading one
attacker-replica host marginalises that replica from median decisions
and partially re-opens the side channel; five replicas close it again.
"""

from repro.analysis.experiments import (collaborating_attackers,
                                        render_collab)

DURATION = 15.0


def test_collab_attack(benchmark, save_result):
    results = benchmark.pedantic(collaborating_attackers,
                                 kwargs={"duration": DURATION},
                                 rounds=1, iterations=1)
    plain, collab, five = results
    save_result("sec9_collaborating_attackers.txt", render_collab(results))

    # the collaborator makes the attack easier...
    assert collab.observations_needed() < plain.observations_needed()
    # ...and five replicas restore the defense
    assert five.observations_needed() > 2 * collab.observations_needed()
