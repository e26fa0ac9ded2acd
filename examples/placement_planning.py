#!/usr/bin/env python
"""Capacity planning for a StopWatch cloud (paper Sec. VIII).

Demonstrates the placement API an operator would use: the Theorem 2
constructive placement, the incremental scheduler, constraint
verification, and the utilisation comparison against running every VM
in isolation.

Run:  python examples/placement_planning.py
"""

from repro.analysis.experiments import (placement_utilization,
                                        render_placement)
from repro.placement import (
    PlacementError,
    PlacementScheduler,
    max_triangle_packing_size,
)


def main() -> None:
    print("StopWatch replica placement")
    print("===========================")

    # -- the operator's view: place VMs one at a time -------------------
    scheduler = PlacementScheduler(machines=15, capacity=7)
    for index in range(5):
        triangle = scheduler.place(f"tenant-{index}")
        print(f"tenant-{index} -> machines {triangle}")
    print(f"constraints verified: {scheduler.verify()}")
    print(f"coresidents of tenant-0: "
          f"{sorted(scheduler.coresidents_of('tenant-0'))}")

    # pairwise non-overlap: any two VMs share at most one machine
    for a in scheduler.assignments:
        for b in scheduler.assignments:
            if a < b:
                shared = set(scheduler.assignments[a]) & \
                    set(scheduler.assignments[b])
                assert len(shared) <= 1

    # fill the cloud completely
    placed = 5
    while True:
        try:
            scheduler.place(f"tenant-{placed}")
            placed += 1
        except PlacementError:
            break
    print(f"\n15 machines at capacity 7 host {placed} VMs "
          f"(isolation: 15; Theorem 1 bound: "
          f"{max_triangle_packing_size(15)})")

    # -- the scaling table (Sec. VIII's Θ(cn) claim) -----------------------
    print()
    print(render_placement(placement_utilization()))


if __name__ == "__main__":
    main()
