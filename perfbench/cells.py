"""The benchmark's workloads, driven through the simulator's public API.

A workload is a fixed list of *cells*, one simulation each.  A cell is
built (timed as set-up: simulator, cloud, placement, VMs and drivers,
before the first event), run to its horizon (timed as the run loop) and
observed.  A workload's ``summarise`` turns one pass over its cells into

- the simulated end-to-end metrics (exact for a given seed),
- the requests attempted and failed, and the correctness checks,
- the exact per-layer counters and flow-stage waits, and
- ``exact``: every simulated value and counter above plus the egress
  signatures, which must repeat bit-for-bit across passes of one seed.

All load is open loop in simulated time: the echo clients send on a
Poisson schedule and nhfsstone at a fixed rate, whatever the replies do.
"""

import dataclasses
import statistics
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.experiments import PARSEC_PAPER_VALUES, PERF_HOST_KWARGS
from repro.analysis.scale import build_scale_spec, egress_signature
from repro.cloud.fabric import Cloud
from repro.core.config import DEFAULT, PASSTHROUGH
from repro.obs.flows import STAGES, stage_metrics
from repro.sim.kernel import Simulator
from repro.sim.monitor import MetricSet, Trace
from repro.workloads.nfs import NfsServer, NhfsstoneClient
from repro.workloads.parsec import PARSEC_KERNELS, RunCollector

#: bounded trace, as in the repository's own experiment runners
TRACE_CAP = 65_536

#: recorded in every cell: the egress signature and the divergence check
BASE_CATEGORIES = {"egress.release", "vmm.divergence"}

#: the 32-tenant cell's pinned egress signature and event count (seed 1)
FLEET_SIGNATURE = ("856f2d6a2abdc5975c087548448394e5"
                   "5210557b6e8cea27be67c528d49a6563")
FLEET_EVENTS = 517_300

#: Sec. VII-A: Δn realises as 7-12 ms of real delay; the gap is taken
#: from the middle of that range, so that it never reads 0
PAPER_DELTA_N_S = (0.007, 0.012)

#: Fig. 6: StopWatch costs NFS less than 2.7x the baseline latency
PAPER_NFS_RATIO = 2.7


class Cell:
    """One built simulation, run to ``horizon`` by calls to
    ``advance(until)``; splitting the run into several calls fires the
    same events in the same order as one call."""

    def __init__(self, sim: Simulator, cloud: Cloud, horizon: float,
                 advance: Callable[[float], None], **parts):
        self.sim = sim
        self.cloud = cloud
        self.horizon = horizon
        self.advance = advance
        self.parts = parts


def _simulator(seed: int, categories=()) -> Simulator:
    sim = Simulator(seed=seed, trace=Trace(
        categories=BASE_CATEGORIES | set(categories),
        max_per_category=TRACE_CAP))
    sim.flows.enable()
    return sim


def percentile(metrics: MetricSet, name: str, p: float) -> float:
    """The repository's nearest-rank percentile; 0.0 with no samples."""
    try:
        return metrics.percentile(name, p)
    except KeyError:
        return 0.0


#: an entry point the traced run wraps -> the observe_cloud key of the
#: program's own count of its calls; the traced run checks each span's
#: call count against it, so a call that bypasses a span shows
SPANNED_CALL_COUNTS = {
    "ReplicaVMM._vm_exit": "exits",
    "DiskModel.request": "disk_requests",
    "PgmReceiver._send_nak": "naks_sent",
    "Network._deliver": "delivered",
}


def observe_cloud(cell: Cell) -> Dict[str, object]:
    """Exact counters every cell reports, from public statistics."""
    sim, cloud = cell.sim, cell.cloud
    stats = sim.stats()
    vms = list(cloud.vms.values())
    receivers = [vmm.coordination.receiver for vm in vms for vmm in vm.vmms
                 if vmm.coordination is not None]
    return {
        "events": stats["events_fired"],
        "queue_high_water": stats["heap_high_water"],
        "exits": sum(vm.stat_sum("vm_exits") for vm in vms),
        "net_interrupts": sum(vm.stat_sum("net_interrupts") for vm in vms),
        "disk_interrupts": sum(vm.stat_sum("disk_interrupts")
                               for vm in vms),
        "delta_d_waits": sum(vm.stat_sum("delta_d_waits") for vm in vms),
        "divergences": sum(vm.stat_sum("divergences") for vm in vms),
        "divergence_records": len(sim.trace.select("vmm.divergence")),
        "replicas_disagree": sorted(
            vm.name for vm in vms
            if len({vmm.stats["outputs"] for vmm in vm.vmms}) != 1),
        "replicated": cloud.packets_replicated,
        "released": cloud.packets_released,
        "pending_at_end": cloud.pending_releases,
        "dropped": cloud.network.dropped_packets,
        "delivered": cloud.network.delivered_packets,
        "disk_requests": sum(host.disk.requests for host in cloud.hosts),
        "naks_sent": sum(receiver.naks_sent for receiver in receivers),
        "egress_signature": egress_signature(sim),
    }


class Workload:
    """Base: subclasses list their cells and summarise one pass."""

    name = ""
    default_seed = 0
    #: cell labels, in run order; ``mediated`` ones feed the flow waits
    cells: Tuple[str, ...] = ()
    mediated: Tuple[str, ...] = ()

    def build(self, label: str, seed: int) -> Cell:
        raise NotImplementedError

    def workload_summary(self, cells: Dict[str, Cell], seed: int) -> dict:
        """The workload's own results: ``end_to_end`` (the four sim-time
        metrics), ``samples``, ``attempted``, ``failed``, ``checks``
        and, optionally, extra ``counters``."""
        raise NotImplementedError

    def summarise(self, cells: Dict[str, Cell], seed: int) -> dict:
        observed = {label: observe_cloud(cell)
                    for label, cell in cells.items()}
        waits = MetricSet()
        for label in self.mediated:
            stage_metrics(cells[label].sim.flows, waits)
        result = self.workload_summary(cells, seed)
        checks = result["checks"]
        for label, row in observed.items():
            checks.append((f"{label}: replica output counts agree",
                           not row["replicas_disagree"],
                           ", ".join(row["replicas_disagree"])))
            checks.append((f"{label}: no vmm.divergence records",
                           row["divergence_records"] == 0,
                           str(row["divergence_records"])))

        def total(key: str):
            return sum(row[key] for row in observed.values())

        counters = {
            "sim.events": total("events"),
            "sim.events_per_request": total("events") / result["attempted"],
            "sim.queue_high_water": max(row["queue_high_water"]
                                        for row in observed.values()),
            "vmm.hypervisor.exits": total("exits"),
            "vmm.hypervisor.useful_exit_ratio":
                (total("net_interrupts") + total("disk_interrupts"))
                / total("exits"),
            "vmm.hypervisor.delta_d_waits": total("delta_d_waits"),
            "vmm.hypervisor.divergences": total("divergences"),
            "net.network.dropped": total("dropped"),
            "cloud.replicated": total("replicated"),
            "cloud.released": total("released"),
            "cloud.pending_at_end": total("pending_at_end"),
            # only nhfsstone speaks TCP
            "net.tcp.c2s_pkts_per_op": 0.0,
            "net.tcp.s2c_pkts_per_op": 0.0,
        }
        counters.update(result.get("counters", {}))
        for stage in STAGES:
            for p in (50, 99):
                counters[f"obs.flows.{stage}_p{p}_ms"] = 1e3 * percentile(
                    waits, f"flow.stage.{stage}", p)
        result["counters"] = counters
        result["spanned_call_counts"] = {
            point: total(key) for point, key in SPANNED_CALL_COUNTS.items()}
        result["exact"] = {
            "end_to_end": result["end_to_end"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "counters": counters,
            "cells": observed,
        }
        return result


# ---------------------------------------------------------------------------
# fleet-echo: the ROADMAP-pinned 32-tenant cell
# ---------------------------------------------------------------------------
class SendTimes:
    """Send time of every datagram a client's UDP stack emits, tapped at
    its public ``send``; the client's own bookkeeping is untouched."""

    def __init__(self, sim: Simulator, udp):
        self.sim = sim
        self.times: List[float] = []
        self._send = udp.send
        udp.send = self.send

    def send(self, *args, **kwargs):
        self.times.append(self.sim.now)
        return self._send(*args, **kwargs)


class FleetEcho(Workload):
    """32 lightly loaded echo VMs, one Poisson client each, under
    StopWatch and, as the baseline, with every tenant on the ``none``
    policy (one unmediated replica per VM)."""

    name = "fleet-echo"
    default_seed = 1
    tenants = 32
    request_rate = 30.0
    horizon = 2.0
    #: the scenario's quiesce time at the end of the horizon
    drain = 0.5
    cells = ("unmediated", "stopwatch")
    mediated = ("stopwatch",)

    def build(self, label: str, seed: int) -> Cell:
        sim = _simulator(seed)
        spec = build_scale_spec(self.tenants, request_rate=self.request_rate)
        if label == "unmediated":
            spec = dataclasses.replace(spec, tenants=[
                dataclasses.replace(tenant, policy="none")
                for tenant in spec.tenants])
        built = spec.build(sim)
        # what BuiltScenario.run(until=horizon) schedules before it runs,
        # so the run can be advanced in slices with drain=0
        for driver in built.drivers.values():
            sim.call_after(self.horizon - self.drain, driver.stop)
        sends = [SendTimes(sim, driver.udp)
                 for driver in built.drivers.values()]
        return Cell(sim, built.cloud, self.horizon,
                    lambda until: built.run(until=until, drain=0),
                    built=built, sends=sends)

    @staticmethod
    def mean_rtt(cell: Cell) -> float:
        """Mean client round trip.  Every ping is answered (checked), so
        the sum of round trips is the sum of reply times minus the sum
        of send times, whatever order the replies came back in."""
        drivers = cell.parts["built"].drivers.values()
        replies = [t for driver in drivers for t in driver.reply_times]
        sends = [t for tap in cell.parts["sends"] for t in tap.times]
        return (sum(replies) - sum(sends)) / len(sends)

    def workload_summary(self, cells: Dict[str, Cell], seed: int) -> dict:
        cell = cells["stopwatch"]
        flows = cell.sim.flows.completed_flows()
        delays = MetricSet()
        stage_sum = {stage: 0.0 for stage in STAGES}
        for flow in flows:
            delays.observe("delay", flow.end_to_end)
            for stage, seconds in flow.stage_times().items():
                stage_sum[stage] += seconds
        count = len(flows)
        # the paper's Δn realisation: arrival -> injection into the guest
        delta_n = (stage_sum["replicate"] + stage_sum["agree"]
                   + stage_sum["offset-wait"]) / count
        paper_mid = sum(PAPER_DELTA_N_S) / 2
        checks = [("every released flow decomposes into stages",
                   count == cell.cloud.packets_released, f"{count} flows")]
        sent = replies = 0
        for label in self.cells:
            built = cells[label].parts["built"]
            drivers = built.drivers.values()
            cell_sent = sum(driver.sent for driver in drivers)
            cell_replies = sum(len(driver.reply_times) for driver in drivers)
            checks.append((f"{label}: placement verifies on the wired "
                           f"fabric", built.verify_placement(), ""))
            checks.append((f"{label}: every ping answered",
                           cell_replies == cell_sent,
                           f"{cell_replies} of {cell_sent}"))
            sent += cell_sent
            replies += cell_replies
        if seed == self.default_seed:
            signature = egress_signature(cell.sim)
            checks.append(("egress signature is the pinned 856f2d6a...",
                           signature == FLEET_SIGNATURE,
                           signature[:16]))
            checks.append(("event count is the pinned 517,300",
                           cell.sim.event_count == FLEET_EVENTS,
                           str(cell.sim.event_count)))
        if replies != sent:
            ratio = 0.0
        else:
            ratio = (self.mean_rtt(cells["stopwatch"])
                     / self.mean_rtt(cells["unmediated"]))
        return {
            "end_to_end": {
                "latency_p50_ms": 1e3 * percentile(delays, "delay", 50),
                "latency_p99_ms": 1e3 * percentile(delays, "delay", 99),
                "overhead_ratio": ratio,
                "paper_gap": abs(delta_n - paper_mid) / paper_mid,
            },
            "samples": count,
            "attempted": sent,
            "failed": sent - replies,
            "checks": checks,
        }


# ---------------------------------------------------------------------------
# nfs-400: the Fig. 6 cell at its highest rate
# ---------------------------------------------------------------------------
class Nfs400(Workload):
    """One NFS VM under nhfsstone at a fixed 400 ops/s, 5 connections."""

    name = "nfs-400"
    default_seed = 2
    rate = 400
    horizon = 8.0
    #: stop issuing this long before the horizon, so every op can finish
    quiesce = 0.5
    cells = ("unmediated", "stopwatch")
    mediated = ("stopwatch",)

    def build(self, label: str, seed: int) -> Cell:
        config = PASSTHROUGH if label == "unmediated" \
            else DEFAULT.with_overrides(delta_net=0.008)
        sim = _simulator(seed)
        cloud = Cloud(sim, machines=3, config=config,
                      host_kwargs=PERF_HOST_KWARGS)
        cloud.create_vm("nfs", NfsServer)
        client = cloud.add_client("client:1")
        generator = NhfsstoneClient(client, "vm:nfs", rate=self.rate)
        sim.call_after(0.05, generator.start)
        sim.call_after(self.horizon - self.quiesce, generator.stop)
        return Cell(sim, cloud, self.horizon,
                    lambda until: cloud.run(until=until),
                    generator=generator)

    def workload_summary(self, cells: Dict[str, Cell], seed: int) -> dict:
        base = cells["unmediated"].parts["generator"]
        sw = cells["stopwatch"].parts["generator"]
        latencies = MetricSet()
        for latency in sw.latencies:
            latencies.observe("op", latency)
        ratio = sw.mean_latency() / base.mean_latency()
        c2s, s2c = sw.packets_per_op()
        issued = base.ops_issued + sw.ops_issued
        completed = base.ops_completed + sw.ops_completed
        checks = [("every op answered before the horizon",
                   completed == issued, f"{completed} of {issued}")]
        return {
            "end_to_end": {
                "latency_p50_ms": 1e3 * percentile(latencies, "op", 50),
                "latency_p99_ms": 1e3 * percentile(latencies, "op", 99),
                "overhead_ratio": ratio,
                "paper_gap": max(0.0, ratio - PAPER_NFS_RATIO)
                / PAPER_NFS_RATIO,
            },
            "samples": len(sw.latencies),
            "attempted": issued,
            "failed": issued - completed,
            "checks": checks,
            "counters": {"net.tcp.c2s_pkts_per_op": c2s,
                         "net.tcp.s2c_pkts_per_op": s2c},
        }


# ---------------------------------------------------------------------------
# parsec: the Fig. 7 canneal and dedup cells
# ---------------------------------------------------------------------------
class Parsec(Workload):
    """canneal and dedup, unmediated and under StopWatch (Δd = 8 ms)."""

    name = "parsec"
    default_seed = 3
    kernels = ("canneal", "dedup")
    scale = 1.0
    horizon = 60.0
    cells = tuple(f"{kernel}/{label}" for kernel in kernels
                  for label in ("unmediated", "stopwatch"))
    mediated = tuple(f"{kernel}/stopwatch" for kernel in kernels)

    def build(self, label: str, seed: int) -> Cell:
        kernel, mode = label.split("/")
        config = PASSTHROUGH if mode == "unmediated" \
            else DEFAULT.with_overrides(delta_disk=0.008)
        cls = PARSEC_KERNELS[kernel]
        sim = _simulator(seed, {"vmm.disk.request", "vmm.deliver.disk"})
        cloud = Cloud(sim, machines=3, config=config,
                      host_kwargs=PERF_HOST_KWARGS)
        collector = RunCollector(cloud.add_client("collector:1"))
        vm = cloud.create_vm(
            kernel, lambda guest: cls(guest, scale=self.scale,
                                      collector_addr="collector:1"))
        return Cell(sim, cloud, self.horizon,
                    lambda until: cloud.run(until=until),
                    collector=collector, vm=vm)

    @staticmethod
    def disk_latencies(sim: Simulator) -> List[float]:
        """Per replica, disk request -> interrupt delivered to the guest."""
        issued = {(r.payload["replica"], r.payload["req"]): r.time
                  for r in sim.trace.select("vmm.disk.request")}
        return [r.time - issued[(r.payload["replica"], r.payload["req"])]
                for r in sim.trace.select("vmm.deliver.disk")]

    def workload_summary(self, cells: Dict[str, Cell], seed: int) -> dict:
        checks = []
        latencies = MetricSet()
        samples = 0
        ratios, gaps = [], []
        completed = 0
        for kernel in self.kernels:
            times: Dict[str, Optional[float]] = {}
            for mode in ("unmediated", "stopwatch"):
                cell = cells[f"{kernel}/{mode}"]
                vm = cell.parts["vm"]
                finish = cell.parts["collector"].completion_time(kernel)
                times[mode] = finish
                completed += finish is not None
                results = [workload.result for workload in vm.workloads]
                checks.append((f"{kernel}/{mode}: replica results identical",
                               all(r == results[0] for r in results), ""))
                if mode == "stopwatch":
                    paper = PARSEC_PAPER_VALUES[kernel][2]
                    ints = vm.vmms[0].stats["disk_interrupts"]
                    checks.append((f"{kernel}: disk interrupts match the "
                                   f"paper's {paper}", ints == paper,
                                   str(ints)))
                    for latency in self.disk_latencies(cell.sim):
                        latencies.observe("disk", latency)
                        samples += 1
            if None in times.values():
                continue
            ratio = times["stopwatch"] / times["unmediated"]
            paper_base, paper_sw, _ = PARSEC_PAPER_VALUES[kernel]
            paper_ratio = paper_sw / paper_base
            ratios.append(ratio)
            gaps.append(abs(ratio - paper_ratio) / paper_ratio)
        attempted = 2 * len(self.kernels)
        checks.append(("every job completed", completed == attempted,
                       f"{completed} of {attempted}"))
        return {
            "end_to_end": {
                "latency_p50_ms": 1e3 * percentile(latencies, "disk", 50),
                "latency_p99_ms": 1e3 * percentile(latencies, "disk", 99),
                "overhead_ratio": statistics.fmean(ratios) if ratios
                else 0.0,
                "paper_gap": statistics.fmean(gaps) if gaps else 0.0,
            },
            "samples": samples,
            "attempted": attempted,
            "failed": attempted - completed,
            "checks": checks,
        }


WORKLOADS = {workload.name: workload
             for workload in (FleetEcho(), Nfs400(), Parsec())}
