"""Tests for the PARSEC-style kernels."""

import math
import random

import pytest

from repro.cloud import Cloud
from repro.core import PASSTHROUGH, DEFAULT
from repro.sim import Simulator, Trace
from repro.workloads.parsec import (
    PARSEC_KERNELS,
    BlackScholes,
    Canneal,
    Dedup,
    Ferret,
    RunCollector,
    StreamCluster,
)

FAST_DISK = {"disk_kwargs": {"seek_min": 0.001, "seek_max": 0.003,
                             "per_block": 2e-5}}


def run_kernel(cls, config, scale=0.2, seed=3, until=30.0):
    sim = Simulator(seed=seed, trace=Trace(enabled=False))
    cloud = Cloud(sim, machines=3, config=config, host_kwargs=FAST_DISK)
    client = cloud.add_client("collector:1")
    collector = RunCollector(client)
    vm = cloud.create_vm(
        cls.name, lambda g: cls(g, scale=scale,
                                collector_addr="collector:1"))
    cloud.run(until=until)
    return collector, vm


class _Bench:
    """Run a kernel's computation directly (no simulator) for unit tests."""

    class FakeGuest:
        def __init__(self, seed=5):
            self.rng = random.Random(seed)

    @classmethod
    def compute_only(cls, kernel_cls):
        kernel = kernel_cls.__new__(kernel_cls)
        kernel.guest = cls.FakeGuest()
        kernel.prepare()
        total = 4
        for i in range(total):
            kernel.run_batch(i, total)
        return kernel.finish_result()


class TestKernelComputations:
    def test_blackscholes_prices_positive(self):
        result = _Bench.compute_only(BlackScholes)
        assert result > 0.0

    def test_ferret_produces_topk(self):
        kernel = Ferret.__new__(Ferret)
        kernel.guest = _Bench.FakeGuest()
        kernel.prepare()
        kernel.run_batch(0, 4)
        assert all(len(match) == Ferret.TOP_K for match in kernel.matches)

    def test_canneal_reduces_cost(self):
        kernel = Canneal.__new__(Canneal)
        kernel.guest = _Bench.FakeGuest()
        kernel.prepare()
        initial = kernel.cost
        for i in range(6):
            kernel.run_batch(i, 6)
        assert kernel.cost < initial
        # incremental cost tracking must agree with a recount
        assert kernel.cost == pytest.approx(kernel._total_cost(), rel=1e-6)

    def test_dedup_finds_duplicates(self):
        unique, duplicates, compressed = _Bench.compute_only(Dedup)
        assert unique + duplicates == Dedup.CHUNKS
        assert duplicates > 0
        assert compressed > 0

    def test_streamcluster_bounds_centers(self):
        centers, cost = _Bench.compute_only(StreamCluster)
        assert 1 <= centers <= StreamCluster.MAX_CENTERS
        assert cost > 0.0

    def test_kernels_deterministic_given_seed(self):
        for cls in PARSEC_KERNELS.values():
            assert _Bench.compute_only(cls) == _Bench.compute_only(cls)


def full_scan_run_batch(kernel):
    """Canneal's swap loop as it was before the netlist was indexed by
    element: every swap scans all nets for the ones with an end at
    either swapped element.  The exactness reference."""
    rng = kernel.rng
    for _ in range(kernel.SWAPS_PER_BATCH):
        i = rng.randrange(kernel.ELEMENTS)
        j = rng.randrange(kernel.ELEMENTS)
        if i == j:
            continue
        before = sum(kernel._wire_len(a, b) for a, b in kernel.nets
                     if a in (i, j) or b in (i, j))
        kernel.positions[i], kernel.positions[j] = \
            kernel.positions[j], kernel.positions[i]
        after = sum(kernel._wire_len(a, b) for a, b in kernel.nets
                    if a in (i, j) or b in (i, j))
        delta = after - before
        if delta <= 0 or rng.random() < math.exp(
                -delta / max(kernel.temperature, 1e-6)):
            kernel.cost += delta
        else:
            kernel.positions[i], kernel.positions[j] = \
                kernel.positions[j], kernel.positions[i]
    kernel.temperature *= 0.9


class TinyCanneal(Canneal):
    """A hand-built netlist over four elements holding every case the
    incidence union must dedupe: self-loops, nets joining the two
    swapped elements (so listed under both), and duplicate nets."""

    ELEMENTS = 4
    SWAPS_PER_BATCH = 50
    NETS_BY_HAND = [(0, 0), (0, 1), (2, 3), (1, 0), (0, 1), (3, 3),
                    (1, 2), (2, 3), (3, 0), (2, 2)]

    def prepare(self) -> None:
        rng = self.rng
        self.positions = [(rng.uniform(0, 100), rng.uniform(0, 100))
                          for _ in range(self.ELEMENTS)]
        self.nets = list(self.NETS_BY_HAND)
        self.touching = self._incidence()
        self.temperature = 50.0
        self.cost = self._total_cost()


class TestCannealExactness:
    """The element-indexed swap loop must reproduce the full scan bit
    for bit: same nets summed in the same order, same rng draws."""

    @staticmethod
    def _pair(cls, seed):
        kernels = []
        for _ in range(2):
            kernel = cls.__new__(cls)
            kernel.guest = _Bench.FakeGuest(seed)
            kernel.prepare()
            kernels.append(kernel)
        return kernels

    @staticmethod
    def _state(kernel):
        return (kernel.cost, kernel.positions, kernel.temperature,
                kernel.finish_result())

    @pytest.mark.parametrize("cls, seed", [
        (Canneal, 1), (Canneal, 2), (Canneal, 3), (Canneal, 99),
        (TinyCanneal, 1), (TinyCanneal, 7)])
    def test_indexed_swaps_match_full_scan(self, cls, seed):
        indexed, reference = self._pair(cls, seed)
        for i in range(Canneal.batches):
            indexed.run_batch(i, Canneal.batches)
            full_scan_run_batch(reference)
        assert self._state(indexed) == self._state(reference)
        assert indexed.rng.random() == reference.rng.random()

    def test_incidence_lists_each_net_once_per_element(self):
        kernel, _ = self._pair(TinyCanneal, 1)
        assert kernel.touching == [[0, 1, 3, 4, 8],
                                   [1, 3, 4, 6],
                                   [2, 6, 7, 9],
                                   [2, 5, 7, 8]]


class TestKernelRuns:
    def test_baseline_run_completes_and_reports(self):
        collector, vm = run_kernel(BlackScholes, PASSTHROUGH)
        assert collector.completion_time("blackscholes") is not None
        assert vm.workloads[0].finished

    def test_stopwatch_run_slower_than_baseline(self):
        base, _ = run_kernel(StreamCluster, PASSTHROUGH)
        stopwatch, _ = run_kernel(StreamCluster, DEFAULT)
        base_t = base.completion_time("streamcluster")
        sw_t = stopwatch.completion_time("streamcluster")
        assert sw_t > base_t

    def test_replica_results_identical(self):
        _, vm = run_kernel(Ferret, DEFAULT)
        results = {workload.result for workload in vm.workloads}
        assert len(results) == 1

    def test_disk_interrupt_counts_scale(self):
        _, vm_small = run_kernel(BlackScholes, PASSTHROUGH, scale=0.2)
        _, vm_full = run_kernel(BlackScholes, PASSTHROUGH, scale=1.0,
                                until=60.0)
        small = vm_small.vmms[0].stats["disk_interrupts"]
        full = vm_full.vmms[0].stats["disk_interrupts"]
        assert full > small

    def test_full_scale_disk_interrupts_match_paper(self):
        _, vm = run_kernel(BlackScholes, PASSTHROUGH, scale=1.0,
                           until=60.0)
        assert vm.vmms[0].stats["disk_interrupts"] == 38
