"""Repository benchmark: simulator speed, StopWatch mediation latency and
paper fidelity on three workloads, with a traced per-layer split.

Run from the repository root::

    python3 perfbench/run.py --workload fleet-echo|nfs-400|parsec \\
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all      # every workload, both modes

``--trace 0`` measures the end-to-end metrics with tracing off: it runs
passes over the workload's cells (at least two, more while ``--seconds``
allows), checks that every simulated value and counter repeats
bit-for-bit across them, and reports medians.  ``--trace 1`` runs one
untraced pass and one traced pass (layer entry points wrapped with
timing spans, see ``layers.py``), checks that the traced pass reproduces
the untraced one exactly, and reports the per-layer counters, flow-stage
waits and self times.

Human-readable tables go to standard output; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  A failed
correctness check exits 1; missing simulator sources exit 2.
"""

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: every cell's run is advanced in this many slices of simulated time
SLICES = 40
#: iterations of each half of one calibration chunk, and the chunk's CPU
#: seconds on an unloaded reference host (x86-64, 2 cores, CPython 3.11)
CALIBRATION_ITERATIONS = 12_000
CALIBRATION_NOMINAL_S = 0.004
#: bytes copied, untimed, before every chunk: more than a core's L2
#: cache, so each chunk starts from the same cache state whatever the
#: simulator touched before it
SCRUB_BYTES = 4 << 20

#: passes per untraced run, at least: the bit-for-bit repeat check
#: needs two
MIN_PASSES = 2
#: set-up is measured this many times per run, at least
SETUP_SAMPLES = 21

#: (name, unit) of the end-to-end metrics the JSON line carries
END_TO_END = (("setup_s", "s"), ("sim_s_per_cpu_s", "sim_s/cpu_s"),
              ("peak_rss_mb", "MB"), ("latency_p50_ms", "ms"),
              ("latency_p99_ms", "ms"), ("overhead_ratio", "x"),
              ("paper_gap", "fraction"))


class Calibration:
    """A fixed piece of pure-Python work that runs no simulator code.

    One chunk is float arithmetic with dict reads and writes, then a
    walk along a random cycle through a 2**18-entry list, so it stalls
    on memory as well as on the interpreter, as the event loop does.
    It allocates no container objects, so no garbage collection of the
    simulator's heap lands in it.  Its time tracks how fast the host
    runs the simulator right now, which on a shared host swings by tens
    of percent within seconds.  A buffer copy before it evicts what the
    last slice left in the core's caches, so each chunk starts cold
    whatever that slice touched, and a simulator with a bigger or
    smaller working set does not drag the divisor along with it
    (``calibration_check.py`` measures this).
    """

    def __init__(self):
        self.table = dict.fromkeys(range(1024), 0.0)
        self.scrub_from = bytearray(SCRUB_BYTES)
        self.scrub_to = bytearray(SCRUB_BYTES)
        order = list(range(1 << 18))
        random.Random(1).shuffle(order)
        self.successor = [0] * len(order)
        for here, there in zip(order, order[1:] + order[:1]):
            self.successor[here] = there

    def chunk(self) -> float:
        """CPU seconds of one chunk."""
        self.scrub_to[:] = self.scrub_from
        table, successor = self.table, self.successor
        x, acc, node = 0.5, 0.0, 0
        started = time.process_time()
        for i in range(CALIBRATION_ITERATIONS):
            x = 3.9 * x * (1.0 - x)
            key = i & 1023
            acc += table[key]
            table[key] = x
        for _ in range(CALIBRATION_ITERATIONS):
            node = successor[node]
        return time.process_time() - started


class HostClock:
    """CPU time normalised to the reference host speed.

    Every timed call is bracketed by two calibration chunks, one right
    before and one right after it, and its CPU time is scaled by
    ``CALIBRATION_NOMINAL_S`` over their mean time, so contention that
    slows the call and the chunks around it cancels out.  The chunk
    after a long slice tracks a host that changed speed during it: on
    ``parsec``, whose slices take a tenth of a second, bracketing
    halved the spread of normalised pass times against the chunk
    before alone.
    """

    def __init__(self, calibration: Calibration):
        self.calibration = calibration
        self.cpu_s = 0.0
        self.normalised_s = 0.0
        self.chunk_s = 0.0

    def time(self, fn, *args):
        before_s = self.calibration.chunk()
        started = time.process_time()
        result = fn(*args)
        elapsed = time.process_time() - started
        chunk_s = (before_s + self.calibration.chunk()) / 2
        self.chunk_s += chunk_s
        self.cpu_s += elapsed
        self.normalised_s += elapsed * CALIBRATION_NOMINAL_S / chunk_s
        return result


class Pass:
    """One pass over a workload's cells: host timings plus the summary."""

    def __init__(self, setup_s: float, loop: HostClock, sim_s: float,
                 summary: dict):
        self.setup_s = setup_s
        self.loop = loop
        self.sim_s = sim_s
        self.summary = summary


def run_pass(workload, seed: int, calibration: Calibration,
             wrap=None) -> Pass:
    """Build and run every cell of ``workload`` once.  Each build is
    timed between two calibration chunks, and each run is advanced in
    ``SLICES`` slices of simulated time, each slice timed between its
    own two chunks.  ``wrap``, if given, is applied to each cell's
    ``advance`` before it runs."""
    cells = {}
    setup = HostClock(calibration)
    loop = HostClock(calibration)
    sim_s = 0.0
    for label in workload.cells:
        gc.collect()
        cell = setup.time(workload.build, label, seed)
        gc.collect()
        advance = cell.advance if wrap is None else wrap(cell.advance)
        for index in range(1, SLICES + 1):
            until = cell.horizon if index == SLICES \
                else cell.horizon * index / SLICES
            loop.time(advance, until)
        sim_s += cell.horizon
        cells[label] = cell
    summary = workload.summarise(cells, seed)
    return Pass(setup.normalised_s, loop, sim_s, summary)


def time_setup(workload, seed: int, calibration: Calibration) -> float:
    """Build every cell once more, run nothing: one more set-up sample
    (normalised CPU seconds)."""
    setup = HostClock(calibration)
    for label in workload.cells:
        gc.collect()
        setup.time(workload.build, label, seed)
    return setup.normalised_s


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_checks(checks) -> None:
    for name, ok, detail in checks:
        suffix = f" ({detail})" if detail else ""
        print(f"  [{'ok' if ok else 'FAIL'}] {name}{suffix}")


def measure(workload, seed: int, seconds: float):
    """Untraced run: end-to-end metrics."""
    calibration = Calibration()
    passes = []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or (
            (time.perf_counter() - started) * (len(passes) + 1)
            / len(passes) <= seconds):
        passes.append(run_pass(workload, seed, calibration))
    setups = [p.setup_s for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(time_setup(workload, seed, calibration))

    first = passes[0].summary
    checks = list(first["checks"])
    repeats = sum(p.summary["exact"] == first["exact"] for p in passes[1:])
    checks.append((f"every simulated value and counter repeats across "
                   f"{len(passes)} passes", repeats == len(passes) - 1,
                   f"{repeats + 1} of {len(passes)} identical"))
    speeds = [p.sim_s / p.loop.normalised_s for p in passes]
    values = {
        "setup_s": statistics.median(setups),
        "sim_s_per_cpu_s": statistics.median(speeds),
        "peak_rss_mb": peak_rss_mb(),
    }
    values.update(first["end_to_end"])

    print(f"== {workload.name}  seed {seed}  {len(passes)} passes of "
          f"{len(workload.cells)} cells ({', '.join(workload.cells)})")
    print("  run-loop CPU s per pass, raw / normalised: " + ", ".join(
        f"{p.loop.cpu_s:.3f} / {p.loop.normalised_s:.3f}" for p in passes))
    print("  set-up CPU s, normalised: "
          + ", ".join(f"{s:.5f}" for s in setups))
    width = max(len(name) for name, _ in END_TO_END)
    for name, unit in END_TO_END:
        print(f"  {name:<{width}}  {values[name]:.6g} {unit}")
    print(f"  latency samples: {first['samples']}")
    print_checks(checks)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    return checks, first["attempted"], first["failed"], metrics


def per_layer_units(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "_share", "_per_op", "_per_request")) \
            or name == "trace_overhead":
        return "x"
    return "count"


def trace(workload, seed: int):
    """Traced run: per-layer metrics."""
    from layers import LAYER_ENTRY_POINTS, LAYERS, SIM_LAYER, LayerTracer

    calibration = Calibration()
    reference = run_pass(workload, seed, calibration)
    with LayerTracer() as tracer:
        traced = run_pass(workload, seed, calibration, tracer.loop)

    summary = traced.summary
    checks = list(summary["checks"])
    checks.append(("traced pass reproduces every simulated value, counter "
                   "and egress signature of the untraced pass",
                   summary["exact"] == reference.summary["exact"], ""))
    # the sim residual makes the self times sum to the loop time by
    # construction; what can fail is a call that bypasses its span, so
    # each span's call count is held against the program's own count
    for point, count in summary["spanned_call_counts"].items():
        spanned = tracer.point_calls[point]
        checks.append((f"every {point} call ran inside its span",
                       spanned == count,
                       f"{spanned} spanned, {count} counted by the program"))

    values = dict(summary["counters"])
    values.update(tracer.counters)
    for layer in LAYER_ENTRY_POINTS:
        values[f"{layer}.calls"] = tracer.calls[layer]
    for layer in LAYERS:
        values[f"{layer}.self_s"] = tracer.self_s[layer]
    # what no span covers: kernel dispatch, the VMM engine generator,
    # and any callback the spans miss
    values["sim.self_share"] = tracer.self_s[SIM_LAYER] / tracer.loop_s
    values["trace_overhead"] = (traced.loop.normalised_s
                                / reference.loop.normalised_s)

    print(f"== {workload.name}  seed {seed}  traced  (run-loop CPU s, "
          f"normalised: untraced {reference.loop.normalised_s:.3f}, "
          f"traced {traced.loop.normalised_s:.3f}; traced loop "
          f"{tracer.loop_s:.3f} s)")
    print(f"  {'layer':<17} {'calls':>10} {'self s':>9} {'share':>7}")
    for layer in LAYERS:
        calls = tracer.calls[layer] if layer in LAYER_ENTRY_POINTS else ""
        print(f"  {layer:<17} {calls:>10} {tracer.self_s[layer]:>9.3f} "
              f"{tracer.self_s[layer] / tracer.loop_s:>7.1%}")
    width = max(len(name) for name in values)
    for name in sorted(values):
        if not name.endswith((".calls", ".self_s")):
            print(f"  {name:<{width}}  {values[name]:.6g}")
    print_checks(checks)
    metrics = {name: {"value": value, "unit": per_layer_units(name)}
               for name, value in sorted(values.items())}
    return checks, summary["attempted"], summary["failed"], metrics


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process),
    untraced and traced, one after the other."""
    from cells import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    status = 0
    for name in WORKLOADS:
        for traced in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seconds", str(args.seconds),
                       "--trace", str(traced)]
            if args.seed is not None:
                command += ["--seed", str(args.seed)]
            completed = subprocess.run(command, stdout=subprocess.PIPE,
                                       text=True, check=False)
            lines = completed.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            status = status or completed.returncode
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                combined["correct"] = False
                continue
            combined["correct"] &= result["correct"]
            if not traced:
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="fleet-echo, nfs-400, parsec or all")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure passes for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from cells import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    seed = workload.default_seed if args.seed is None else args.seed
    checks, attempted, failed, metrics = (
        trace(workload, seed) if args.trace
        else measure(workload, seed, args.seconds))
    correct = all(ok for _, ok, _ in checks)
    if not correct:
        # a run whose outputs fail a check answered nothing reliably
        failed = attempted
    print(f"  fail_ratio  {failed / attempted:.6g} "
          f"({failed} of {attempted} requests)")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
