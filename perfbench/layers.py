"""Per-layer host-time attribution for the traced benchmark run.

The traced run wraps each simulator layer's entry points with timing
spans from outside the program: the class attribute is replaced by a
wrapper that times the original call, so nothing under ``src/`` is
edited.  Spans nest on one stack; a layer's *self* time is the time of
its spans minus the time of the child spans inside them, so the layers'
self times plus the loop residual (``sim``: kernel dispatch and the VMM
engine generator, which no span covers) add up to the traced loop time.

Every wrapper also counts its calls; a few entry points additionally
feed a named counter (``Host.slowdown_factor`` calls are VMM quanta,
``Network.send`` calls are packets, ...).
"""

import functools
import importlib
import time
import types
from typing import Dict, List, Optional, Tuple

#: the loop residual: every host second no wrapped entry point covers
SIM_LAYER = "sim"

#: layer -> [(module, class, method, counter or None)].  The counter
#: names the exact count the call feeds besides ``<layer>.calls``.
LAYER_ENTRY_POINTS: Dict[str, List[Tuple[str, str, str, Optional[str]]]] = {
    "vmm.hypervisor": [
        ("repro.vmm.hypervisor", "ReplicaVMM", "_vm_exit", None),
        ("repro.vmm.hypervisor", "ReplicaVMM", "observe_inbound", None),
        ("repro.vmm.hypervisor", "ReplicaVMM", "commit_network_delivery",
         None),
        ("repro.vmm.hypervisor", "ReplicaVMM", "request_disk", None),
        ("repro.vmm.hypervisor", "ReplicaVMM", "_disk_ready", None),
        ("repro.vmm.hypervisor", "ReplicaVMM", "guest_output", None),
    ],
    "vmm.coordination": [
        ("repro.vmm.coordination", "ReplicaCoordination",
         "local_proposal", None),
        ("repro.vmm.coordination", "ReplicaCoordination", "_on_message",
         None),
        ("repro.vmm.coordination", "ReplicaCoordination",
         "report_progress", "vmm.coordination.pacing_barriers"),
        ("repro.vmm.coordination", "ReplicaCoordination", "can_proceed",
         None),
        ("repro.vmm.coordination", "ReplicaCoordination",
         "broadcast_epoch_sample", None),
    ],
    "core.median": [
        ("repro.core.median", "MedianAgreement", "__init__",
         "core.median.agreements"),
        ("repro.core.median", "MedianAgreement", "propose",
         "core.median.proposals"),
        ("repro.core.median", "QuorumRelease", "arrive", None),
    ],
    "net.pgm": [
        ("repro.net.pgm", "PgmSender", "multicast", "net.pgm.multicasts"),
        ("repro.net.pgm", "PgmSender", "_on_nak", None),
        ("repro.net.pgm", "PgmReceiver", "_on_packet", None),
        ("repro.net.pgm", "PgmReceiver", "_send_nak", "net.pgm.naks"),
    ],
    "net.network": [
        ("repro.net.network", "Network", "send", "net.network.packets"),
        ("repro.net.network", "Network", "_deliver", None),
        ("repro.net.link", "Link", "transmit", None),
    ],
    "net.tcp": [
        ("repro.net.tcp", "TcpStack", "_on_packet", None),
        ("repro.net.tcp", "TcpConnection", "send_message", None),
    ],
    "machine.host": [
        ("repro.machine.host", "Host", "slowdown_factor",
         "vmm.hypervisor.quanta"),
        ("repro.machine.dom0", "Dom0Executor", "submit", None),
    ],
    "machine.disk": [
        ("repro.machine.disk", "DiskModel", "request",
         "machine.disk.requests"),
    ],
    "cloud": [
        ("repro.cloud.ingress", "IngressNode", "_on_guest_packet", None),
        ("repro.cloud.egress", "EgressNode", "_on_replica_packet", None),
    ],
    "workloads": [
        ("repro.machine.guest", "GuestOS", "deliver_packet", None),
        ("repro.machine.guest", "GuestOS", "run_due_events", None),
        # canneal's batches run inside disk completions, not inside
        # run_due_events; each kernel overrides run_batch
        ("repro.workloads.parsec.kernels", "Canneal", "run_batch", None),
        ("repro.workloads.parsec.kernels", "Dedup", "run_batch", None),
        ("repro.workloads.echo", "PingClient", "_send_next", None),
        ("repro.workloads.echo", "PingClient", "_on_reply", None),
        ("repro.workloads.nfs", "NhfsstoneClient", "_issue", None),
        ("repro.workloads.nfs", "NhfsstoneClient", "_on_reply", None),
    ],
}

#: every traced layer, the residual first
LAYERS = (SIM_LAYER,) + tuple(LAYER_ENTRY_POINTS)

#: the named counters the wrappers feed
COUNTERS = tuple(sorted({counter
                         for points in LAYER_ENTRY_POINTS.values()
                         for *_, counter in points if counter}))


class LayerTracer:
    """Installs the spans, accumulates per-layer calls and self time.

    Use as a context manager: entering wraps every entry point in
    :data:`LAYER_ENTRY_POINTS`, leaving restores the originals.  Build
    the simulation inside the ``with`` block, so bound methods captured
    at construction (the VMM engine caches ``host.slowdown_factor``)
    are the wrapped ones, and run each loop through :meth:`loop`.
    """

    def __init__(self):
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.counters: Dict[str, int] = {name: 0 for name in COUNTERS}
        #: ``Class.method`` -> calls of that one entry point
        self.point_calls: Dict[str, int] = {}
        self.loop_s = 0.0
        # one frame per open span: [time covered by its child spans]
        self._stack: List[List[float]] = [[0.0]]
        self._saved: List[Tuple[type, str, object]] = []
        self._recording = False

    # -- installation ------------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        try:
            for layer, points in LAYER_ENTRY_POINTS.items():
                for module_name, class_name, method, counter in points:
                    cls = getattr(importlib.import_module(module_name),
                                  class_name)
                    original = cls.__dict__.get(method)
                    if not isinstance(original, types.FunctionType):
                        raise TypeError(
                            f"{class_name}.{method} is not a plain method "
                            f"defined on {class_name}; cannot span it")
                    self._saved.append((cls, method, original))
                    setattr(cls, method, self._span(
                        layer, f"{class_name}.{method}", counter, original))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            cls, method, original = self._saved.pop()
            setattr(cls, method, original)

    def _span(self, layer: str, point: str, counter: Optional[str],
              original):
        clock = time.perf_counter
        stack = self._stack
        calls = self.calls
        point_calls = self.point_calls
        point_calls[point] = 0
        self_s = self.self_s
        counters = self.counters
        tracer = self

        def span(*args, **kwargs):
            if not tracer._recording:
                return original(*args, **kwargs)
            calls[layer] += 1
            point_calls[point] += 1
            if counter is not None:
                counters[counter] += 1
            frame = [0.0]
            stack.append(frame)
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                stack[-1][0] += elapsed

        return functools.update_wrapper(span, original)

    # -- run loops -----------------------------------------------------------
    def loop(self, advance):
        """``advance`` with attribution on while it runs: spans outside
        run loops (set-up, calibration) are charged to no layer."""

        def traced(*args):
            self._stack[:] = [[0.0]]
            self._recording = True
            started = time.perf_counter()
            try:
                return advance(*args)
            finally:
                elapsed = time.perf_counter() - started
                self._recording = False
                if len(self._stack) != 1:
                    raise RuntimeError(
                        f"{len(self._stack) - 1} spans still open when "
                        f"the run loop returned")
                self.loop_s += elapsed
                # what no top-level span covered is the kernel's own time
                self.self_s[SIM_LAYER] += elapsed - self._stack[0][0]

        return traced
