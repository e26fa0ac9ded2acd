"""Observability drivers behind the ``repro trace`` / ``repro metrics``
CLI subcommands.

Both run the same representative cloud (an echo server pinged from an
external client next to a disk-bound PARSEC kernel -- the Sec. VII-A
setup) with tracing fully on, then report on what the observability
layer captured: per-category record counts, ring-buffer drops, JSONL
exports, mediation-delay percentiles, and event-loop health counters.
"""

from typing import Iterable, Optional, Tuple

from repro.core.config import DEFAULT
from repro.sim.kernel import Simulator
from repro.sim.monitor import JsonlSink, MetricSet, Trace


def run_observed_workload(duration: float = 2.0, seed: int = 5,
                          categories: Optional[Iterable[str]] = None,
                          max_per_category: Optional[int] = None,
                          profile: bool = False,
                          jsonl_path: Optional[str] = None,
                          flows: bool = False,
                          ) -> Tuple[Simulator, Optional[JsonlSink]]:
    """Run the echo+compute cloud with tracing enabled; returns the
    simulator (trace attached) and the streaming sink, if one was
    requested.  ``flows=True`` also turns on causal span/flow tracking
    (``sim.flows``)."""
    from repro.analysis.experiments import PERF_HOST_KWARGS
    from repro.cloud.fabric import Cloud
    from repro.workloads.echo import EchoServer, PingClient
    from repro.workloads.parsec import BlackScholes

    trace = Trace(categories=categories,
                  max_per_category=max_per_category)
    sink = JsonlSink(jsonl_path, trace) if jsonl_path else None
    sim = Simulator(seed=seed, trace=trace, profile=profile)
    if flows:
        sim.flows.enable()
    cloud = Cloud(sim, machines=3, config=DEFAULT,
                  host_kwargs=PERF_HOST_KWARGS)
    cloud.create_vm("echo", EchoServer)
    cloud.create_vm("compute", lambda guest: BlackScholes(guest),
                    hosts=[0, 1, 2])
    client = cloud.add_client("client:1")
    pinger = PingClient(client, "vm:echo", mean_interval=0.015)
    sim.call_after(0.05, pinger.start)
    try:
        cloud.run(until=duration)
    finally:
        if sink is not None:
            sink.close()
    return sim, sink


def trace_category_rows(trace: Trace) -> list:
    """(category, retained, dropped) rows for every recorded category."""
    return [(category, retained,
             trace.dropped_by_category.get(category, 0))
            for category, retained in trace.counts().items()]


def mediation_delay_metrics(trace: Trace,
                            max_samples: int = 4096) -> MetricSet:
    """Derive the Sec. VII-A mediation-delay observations from a trace.

    ``delay.net`` is ingress arrival -> replica-0 delivery (Δn in real
    time); ``delay.disk`` is disk request -> delivery (Δd).  Values are
    seconds, the first ``max_samples`` of each kept in record order.
    """
    metrics = MetricSet(max_samples_per_metric=max_samples)
    arrivals = {r.payload.get("seq"): r.time
                for r in trace.iter_records("ingress.replicate")}
    for record in trace.iter_records("vmm.deliver.net", replica=0):
        arrival = arrivals.get(record.payload.get("seq"))
        if arrival is not None:
            metrics.observe("delay.net", record.time - arrival)
    requests = {(r.payload.get("vm"), r.payload.get("req")): r.time
                for r in trace.iter_records("vmm.disk.request", replica=0)}
    for record in trace.iter_records("vmm.deliver.disk", replica=0):
        key = (record.payload.get("vm"), record.payload.get("req"))
        if key in requests:
            metrics.observe("delay.disk", record.time - requests[key])
    return metrics
