"""An access-driven timing covert channel (Sec. I / threat model).

A Trojan-infected victim VM signals bits to a coresident attacker VM by
modulating its activity in fixed time slots: bit 1 = burst of I/O
(dom0 load and cache pressure), bit 0 = idle.  The attacker receives a
constant-rate ping stream and decodes bits from per-slot mean
inter-arrival times measured on its own (virtual) clock.

Under unmodified Xen the channel works; under StopWatch the attacker's
observations are medians over replicas, at most one of which coresides
with the Trojan, so the bit error rate collapses toward 1/2.
"""

from typing import List, NamedTuple, Optional

from repro.attacks.clocks import ClockObserver
from repro.attacks.probes import ATTACK_HOST, remember
from repro.cloud.fabric import Cloud
from repro.core.config import StopWatchConfig, DEFAULT, PASSTHROUGH
from repro.net.udp import UdpStack
from repro.sim.kernel import Simulator
from repro.sim.monitor import Trace
from repro.workloads.base import GuestWorkload
from repro.workloads.echo import PingClient

SINK_PORT = 7900


class BurstSender(GuestWorkload):
    """A guest that emits datagram bursts on command (dom0 load source).

    ``schedule`` is a list of (start_virt, stop_virt) windows during
    which the guest sends ``rate`` datagrams per virtual second to an
    external sink.  With an empty schedule plus ``always_on=True`` it
    loads the host continuously (the Sec. IX collaborator).
    """

    def __init__(self, guest, sink_addr: str,
                 schedule: Optional[List[tuple]] = None,
                 rate: float = 4000.0, always_on: bool = False):
        super().__init__(guest)
        self.sink_addr = sink_addr
        self.windows = list(schedule or [])
        self.interval = 1.0 / rate
        self.always_on = always_on
        self.udp = UdpStack(guest)
        self.sent = 0

    def start(self) -> None:
        if self.always_on:
            self._tick_forever()
            return
        for start_virt, stop_virt in self.windows:
            self.guest.schedule(max(0.0, start_virt - self.guest.now()),
                                self._burst_until, stop_virt)

    def _tick_forever(self) -> None:
        self._send_one()
        self.guest.schedule(self.interval, self._tick_forever)

    def _burst_until(self, stop_virt: float) -> None:
        if self.guest.now() >= stop_virt:
            return
        self._send_one()
        self.guest.schedule(self.interval, self._burst_until, stop_virt)

    def _send_one(self) -> None:
        self.sent += 1
        self.udp.send(self.sink_addr, SINK_PORT, SINK_PORT, 256,
                      tag=self.sent)


class CovertChannelResult(NamedTuple):
    mediated: bool
    bits_sent: List[int]
    bits_decoded: List[int]

    @property
    def bit_error_rate(self) -> float:
        errors = sum(1 for a, b in zip(self.bits_sent, self.bits_decoded)
                     if a != b)
        return errors / len(self.bits_sent) if self.bits_sent else 1.0


def _decode(samples, slot: float, n_bits: int,
            first_slot_virt: float) -> List[int]:
    """Per-slot mean inter-arrival vs. the global median -> bits."""
    arrivals = [s.virt for s in samples]
    gaps = [(b - a, 0.5 * (a + b))
            for a, b in zip(arrivals, arrivals[1:])]
    per_slot: List[List[float]] = [[] for _ in range(n_bits)]
    for gap, mid in gaps:
        index = int((mid - first_slot_virt) / slot)
        if 0 <= index < n_bits:
            per_slot[index].append(gap)
    means = [sum(g) / len(g) if g else float("nan") for g in per_slot]
    finite = sorted(m for m in means if m == m)
    if not finite:
        return [0] * n_bits
    threshold = finite[len(finite) // 2]
    # bit 1 = victim active = host contended = attacker virt runs slow
    # relative to real time = smaller measured virtual gaps
    return [1 if (m == m and m < threshold) else 0 for m in means]


def run_covert_channel(mediated: bool = True,
                       n_bits: int = 24,
                       slot: float = 0.4,
                       ping_interval: float = 0.005,
                       seed: int = 11,
                       config: Optional[StopWatchConfig] = None,
                       start_delay: float = 0.5) -> CovertChannelResult:
    """Run the covert channel once; returns sent vs. decoded bits."""
    if config is None:
        config = DEFAULT if mediated else PASSTHROUGH
    sim = Simulator(seed=seed, trace=Trace(
        categories={"vmm.divergence"}, max_per_category=65_536))
    machines = 5 if config.replicas > 1 else 1
    cloud = Cloud(sim, machines=machines, config=config,
                  host_kwargs=ATTACK_HOST)

    rng = sim.rng.stream("covert.bits")
    bits = [rng.randrange(2) for _ in range(n_bits)]
    windows = [(start_delay + i * slot, start_delay + (i + 1) * slot)
               for i, bit in enumerate(bits) if bit == 1]

    if config.replicas > 1:
        attacker_hosts, victim_hosts = [0, 1, 2], [2, 3, 4]
    else:
        attacker_hosts, victim_hosts = [0], [0]

    holder: list = []
    cloud.create_vm("attacker",
                    lambda guest: remember(holder, ClockObserver(guest)),
                    hosts=attacker_hosts)
    cloud.create_vm("trojan",
                    lambda guest: BurstSender(guest, "sink:1",
                                              schedule=windows),
                    hosts=victim_hosts)
    sink = cloud.add_client("sink:1")
    UdpStack(sink).bind(SINK_PORT, lambda d, s: None)
    pinger_node = cloud.add_client("pinger:1")
    pinger = PingClient(pinger_node, "vm:attacker",
                        spacing_fn=lambda _rng: ping_interval)
    sim.call_after(0.05, pinger.start)
    cloud.run(until=start_delay + n_bits * slot + 0.5)

    attacker = holder[0]
    decoded = _decode(attacker.samples, slot, n_bits, start_delay)
    return CovertChannelResult(mediated=mediated, bits_sent=bits,
                               bits_decoded=decoded)
