"""Sec. VIII -- replica placement and cloud utilisation.

Regenerates the utilisation comparison: VMs placeable under StopWatch's
edge-disjoint-triangle constraint vs. the run-in-isolation alternative,
against the Theorem 1 upper bound and the Θ(cn) reference.

Shape expectations (paper): Θ(cn) guest VMs for capacity c <= (n-1)/2 --
a quadratic improvement over isolation's n.
"""

from repro.analysis.experiments import (placement_utilization,
                                        render_placement)
from repro.placement import (
    PlacementScheduler,
    node_visit_counts,
    theorem2_placement,
    verify_edge_disjoint,
)

POINTS = ((9, 4), (15, 7), (21, 10), (33, 16), (45, 22), (99, 49))


def test_placement_utilization_table(benchmark, save_result):
    rows = benchmark.pedantic(placement_utilization,
                              kwargs={"points": POINTS},
                              rounds=1, iterations=1)
    save_result("sec8_placement_utilization.txt", render_placement(rows))
    for machines, capacity, stopwatch, isolation, bound, theta in rows:
        assert stopwatch > isolation
        assert stopwatch <= bound
        assert stopwatch >= 0.9 * theta


def test_theorem2_constructions_are_legal(benchmark):
    def verify_all():
        checked = 0
        for machines, capacity in POINTS:
            placement = theorem2_placement(machines, capacity)
            assert verify_edge_disjoint(placement)
            counts = node_visit_counts(placement)
            assert all(v <= capacity for v in counts.values())
            checked += len(placement)
        return checked

    total = benchmark.pedantic(verify_all, rounds=1, iterations=1)
    assert total > 2000


def test_scheduler_fills_large_cloud(benchmark, save_result):
    def fill():
        scheduler = PlacementScheduler(45, capacity=22)
        placed = 0
        while True:
            try:
                scheduler.place(f"vm-{placed}")
                placed += 1
            except Exception:
                break
        assert scheduler.verify()
        return placed

    placed = benchmark.pedantic(fill, rounds=1, iterations=1)
    save_result("sec8_scheduler_fill.txt",
                f"45 machines, capacity 22: placed {placed} VMs "
                f"(isolation alternative: 45)")
    assert placed > 300
