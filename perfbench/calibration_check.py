"""Does the calibrated run-loop time pass a change of known size through?

``run.py`` divides each slice's CPU time by the calibration chunks timed
right around it.  If the simulator's own heap or working set slowed
those chunks, a simulator change would move the divisor with it and
damp its own effect.  This check injects a fixed extra cost into every slice of
a pass and compares the change in raw CPU seconds with the change in
normalised seconds:

- ``cpu``: a fixed arithmetic loop that touches no memory;
- ``memory``: a fixed walk through a live random cycle of 2**22
  entries (~160 MB, more than a server's last-level cache), kept for
  the whole run, as a simulator with a bigger heap and working set
  would.

Run from the repository root::

    python3 perfbench/calibration_check.py

Variants are interleaved in one process over ``ROUNDS`` rounds, in a
rotating order, and the table gives medians over rounds.  The normalised ratio of a variant is
its raw ratio divided by its ``chunk`` ratio (the mean calibration
chunk time, variant over baseline), so the change comes through at
full size exactly when the ``chunk`` ratio reads 1.00; a ``chunk``
ratio above 1 on ``memory`` would be the coupling, the divisor growing
with the simulator's working set.  On a shared host the raw and chunk
ratios carry the host's noise, so the table also gives ``expected``:
one plus the injected work timed alone, normalised the same way, over
the baseline.  A normalised ratio that matches ``expected`` passed the
change through at full size.
"""

import random
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from cells import WORKLOADS  # noqa: E402
from run import SLICES, Calibration, HostClock, run_pass  # noqa: E402

#: the workload the costs are injected into, and the rounds of passes
WORKLOAD = "nfs-400"
ROUNDS = 4
#: arithmetic steps added to every slice by ``cpu``
CPU_STEPS = 600_000
#: entries of the ``memory`` cycle, and steps walked per slice
MEMORY_ENTRIES = 1 << 22
MEMORY_STEPS = 150_000


def cpu_cost(advance):
    def injected(until):
        x = 0.5
        for _ in range(CPU_STEPS):
            x = 3.9 * x * (1.0 - x)
        return advance(until)
    return injected


class MemoryCost:
    """A live random cycle, walked on from where the last slice left."""

    def __init__(self):
        order = list(range(MEMORY_ENTRIES))
        random.Random(2).shuffle(order)
        self.successor = [0] * MEMORY_ENTRIES
        for here, there in zip(order, order[1:] + order[:1]):
            self.successor[here] = there
        self.node = 0

    def __call__(self, advance):
        def injected(until):
            successor, node = self.successor, self.node
            for _ in range(MEMORY_STEPS):
                node = successor[node]
            self.node = node
            return advance(until)
        return injected


def main() -> int:
    workload = WORKLOADS[WORKLOAD]
    calibration = Calibration()
    memory = MemoryCost()
    variants = {"baseline": None, "cpu": cpu_cost, "memory": memory}
    samples = {name: [] for name in variants}
    names = list(variants)
    for round_ in range(ROUNDS):
        for name in names[round_ % 3:] + names[:round_ % 3]:
            wrap = variants[name]
            loop = run_pass(workload, workload.default_seed, calibration,
                            wrap).loop
            slices = SLICES * len(workload.cells)
            # the injected cost alone, timed the same way
            alone = HostClock(calibration)
            if wrap is not None:
                injection = wrap(lambda until: None)
                for _ in range(slices):
                    alone.time(injection, 0.0)
            samples[name].append((loop.cpu_s, loop.normalised_s,
                                  loop.chunk_s / slices, alone.normalised_s))
            print(f"round {round_ + 1} {name:<8} raw {loop.cpu_s:.3f} s  "
                  f"normalised {loop.normalised_s:.3f} s  "
                  f"chunk {1e3 * loop.chunk_s / slices:.3f} ms  "
                  f"alone {alone.normalised_s:.3f} s", flush=True)

    def median(name, index):
        return statistics.median(row[index] for row in samples[name])

    print(f"\n{WORKLOAD}: medians over {ROUNDS} rounds, "
          f"ratio to baseline")
    print(f"  {'variant':<8} {'raw':>7} {'normalised':>11} {'expected':>9} "
          f"{'chunk':>7}")
    for name in variants:
        raw, normalised, chunk = (median(name, i) / median("baseline", i)
                                  for i in range(3))
        expected = 1.0 + median(name, 3) / median("baseline", 1)
        print(f"  {name:<8} {raw:>7.3f} {normalised:>11.3f} "
              f"{expected:>9.3f} {chunk:>7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
