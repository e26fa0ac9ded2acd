"""Fleet-scale evaluation: StopWatch under growing tenant counts.

The paper evaluates StopWatch on a handful of machines; this module
asks the systems question that follows -- what happens when the fabric
hosts *fleets*.  For each tenant count it builds a placed multi-tenant
:class:`~repro.cloud.scenario.ScenarioSpec`, runs it, and reports

- simulator throughput (events/sec, wall seconds),
- application throughput (egress releases per simulated second),
- per-flow mediation delay p50/p95 (ingress admission -> egress
  release, from the causal flow tracker), and
- the determinism/placement verdicts: ``PlacementScheduler.verify()``
  on the wired fabric, replica output-count agreement, and a byte
  signature of the seeded egress release trace (equal signatures
  across two same-seed runs == byte-identical observable behaviour).

``scale_sweep`` is registered in ``analysis.experiments.RUNNERS`` and
drives the ``repro scale`` CLI and the ``benchmarks/`` scale table;
rows are plain data, so campaign workers can cache them.
"""

import hashlib
import json
from typing import Dict, List, Optional, Sequence

from repro.cloud.scenario import ScenarioSpec, TenantSpec
from repro.sim.kernel import Simulator
from repro.sim.monitor import Trace, nearest_rank

#: same bounded-trace contract as the experiment runners
TRACE_CAP = 65_536

#: the categories a scale cell needs (placement audit + egress signature)
SCALE_TRACE_CATEGORIES = {
    "placement.assign",
    "placement.fallback",
    "egress.release",
    "scenario.build",
}


def build_scale_spec(tenants: int,
                     shards: int = 1,
                     workload: str = "echo",
                     clients_per_tenant: int = 1,
                     request_rate: float = 40.0,
                     machines: Optional[int] = None,
                     name: Optional[str] = None,
                     workload_params: Optional[Dict[str, object]] = None
                     ) -> ScenarioSpec:
    """A homogeneous ``tenants``-VM scenario for one sweep cell.

    ``workload`` is any name in :mod:`repro.workloads.registry`;
    ``workload_params`` overrides that workload's declared defaults
    (e.g. ``{"k": 2, "n": 3}`` for ``storage``).
    """
    return ScenarioSpec(
        name=name or f"scale-{tenants}",
        machines=machines,
        shards=shards,
        tenants=[TenantSpec(name="tenant", count=tenants,
                            workload=workload,
                            clients=clients_per_tenant,
                            request_rate=request_rate,
                            workload_params=dict(workload_params or {}))],
    )


def egress_signature(sim) -> str:
    """SHA-256 over the ordered ``egress.release`` trace -- the
    externally observable output schedule.  Two same-seed runs must
    produce equal signatures (byte-identical release behaviour)."""
    releases = [(record.time, record.payload["vm"], record.payload["seq"])
                for record in sim.trace.select("egress.release")]
    blob = json.dumps(releases, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def run_scale_cell(spec: ScenarioSpec, duration: float = 4.0,
                   seed: int = 1,
                   profile: bool = False) -> Dict[str, object]:
    """Run one scenario and report throughput + verification verdicts.

    With ``profile=True`` the row carries a ``"profile"`` key: the
    :class:`~repro.prof.profiler.SubsystemProfiler` summary for the
    whole cell (build + run + verification), with releases folded into
    the sim-time timeline.  Profiling is measurement-only -- the egress
    signature is byte-identical either way (gated in CI).
    """
    import time as _time

    cell_started = _time.perf_counter()
    sim = Simulator(seed=seed, profile=profile, trace=Trace(
        categories=SCALE_TRACE_CATEGORIES, max_per_category=TRACE_CAP))
    sim.flows.enable()
    built = spec.build(sim)
    built.run(until=duration)

    outputs_consistent = True
    per_tenant = {}
    try:
        per_tenant = built.per_tenant_outputs()
    except AssertionError:
        outputs_consistent = False

    delays = [flow.end_to_end for flow in sim.flows.flows.values()
              if flow.released is not None]
    stats = sim.stats()
    machines, _ = spec.resolved_fleet()
    released = built.cloud.packets_released
    row: Dict[str, object] = {
        "scenario": spec.name,
        "tenants": spec.total_vms,
        "machines": machines,
        "capacity": built.placer.capacity,
        "shards": spec.shards,
        "duration": duration,
        "seed": seed,
        "events_fired": stats["events_fired"],
        "events_per_second": stats["events_per_second"],
        "wall_seconds": stats["wall_seconds"],
        "heap_high_water": stats["heap_high_water"],
        "bucket_high_water": stats["bucket_high_water"],
        "far_high_water": stats["far_high_water"],
        "packets_replicated": built.cloud.packets_replicated,
        "packets_released": released,
        "releases_per_sim_second": released / duration if duration else 0.0,
        "mediation_p50": nearest_rank(delays, 50),
        "mediation_p95": nearest_rank(delays, 95),
        "mediated_flows": len(delays),
        "placement_verified": built.verify_placement(),
        "outputs_consistent": outputs_consistent,
        "per_tenant_outputs": per_tenant,
        "egress_signature": egress_signature(sim),
    }
    if profile and sim.profiler is not None:
        row["profile"] = sim.profiler.summary(
            loop_seconds=stats["wall_seconds"],
            total_seconds=_time.perf_counter() - cell_started,
            release_times=sim.trace.times("egress.release"))
    return row


def scale_sweep(tenant_counts: Sequence[int] = (1, 8, 32),
                duration: float = 4.0,
                seed: int = 1,
                shards: int = 1,
                workload: str = "echo",
                clients_per_tenant: int = 1,
                request_rate: float = 40.0,
                machines: Optional[int] = None,
                profile: bool = False,
                workload_params: Optional[Dict[str, object]] = None
                ) -> List[Dict[str, object]]:
    """How throughput and mediation delay scale with tenant count.

    One row per tenant count (see :func:`run_scale_cell`); the fleet is
    auto-sized per cell unless ``machines`` pins it.  Any registry
    workload name is accepted; ``workload_params`` is forwarded to
    every tenant in the sweep.
    """
    rows = []
    for tenants in tenant_counts:
        spec = build_scale_spec(
            tenants, shards=shards, workload=workload,
            clients_per_tenant=clients_per_tenant,
            request_rate=request_rate, machines=machines,
            workload_params=workload_params)
        rows.append(run_scale_cell(spec, duration=duration, seed=seed,
                                   profile=profile))
    return rows
