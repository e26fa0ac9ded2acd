"""Tests for RNG registry and tracing."""

import json

import pytest

from repro.sim import RngRegistry, Simulator, Trace
from repro.sim.monitor import (JsonlSink, MetricSet, category_matches,
                               nearest_rank)


def test_same_name_same_stream_object():
    rng = RngRegistry(1)
    assert rng.stream("a") is rng.stream("a")


def test_streams_are_reproducible_across_registries():
    draws1 = [RngRegistry(5).stream("x").random() for _ in range(1)]
    draws2 = [RngRegistry(5).stream("x").random() for _ in range(1)]
    assert draws1 == draws2


def test_different_names_give_independent_streams():
    rng = RngRegistry(5)
    a = [rng.stream("a").random() for _ in range(5)]
    b = [rng.stream("b").random() for _ in range(5)]
    assert a != b


def test_stream_isolation_from_creation_order():
    rng1 = RngRegistry(9)
    _ = rng1.stream("noise").random()
    value1 = rng1.stream("workload").random()

    rng2 = RngRegistry(9)
    value2 = rng2.stream("workload").random()
    assert value1 == value2


def test_fork_derives_new_universe():
    rng = RngRegistry(3)
    child_a = rng.fork("hostA")
    child_b = rng.fork("hostB")
    assert child_a.stream("jitter").random() != child_b.stream("jitter").random()
    # forks are reproducible too
    again = RngRegistry(3).fork("hostA")
    assert again.stream("jitter").random() == RngRegistry(3).fork("hostA").stream("jitter").random()


def test_trace_select_and_times():
    trace = Trace()
    trace.record(1.0, "pkt.in", vm="a", size=10)
    trace.record(2.0, "pkt.in", vm="b", size=20)
    trace.record(3.0, "pkt.out", vm="a")
    assert trace.times("pkt.in", vm="a") == [1.0]
    assert trace.count("pkt.in") == 2
    assert len(trace) == 3


def test_trace_category_whitelist():
    trace = Trace(categories={"keep"})
    trace.record(1.0, "keep")
    trace.record(2.0, "drop")
    assert len(trace) == 1


def test_trace_whitelist_is_dotted_prefix():
    """Regression: a whitelist entry must match its dotted descendants.

    The old exact-match whitelist silently dropped ``vmm.inject.net``
    records when ``vmm.inject`` was whitelisted.
    """
    trace = Trace(categories={"vmm.inject"})
    trace.record(1.0, "vmm.inject")
    trace.record(2.0, "vmm.inject.net")
    trace.record(3.0, "vmm.inject.disk")
    trace.record(4.0, "vmm.injector")      # not a dotted child
    trace.record(5.0, "vmm")               # parent, not whitelisted
    assert len(trace) == 3
    assert trace.times("vmm.inject") == [1.0, 2.0, 3.0]


def test_category_matches_semantics():
    assert category_matches("vmm.inject", "vmm.inject")
    assert category_matches("vmm.inject", "vmm.inject.net")
    assert not category_matches("vmm.inject", "vmm.injector")
    assert not category_matches("vmm.inject", "vmm")
    assert category_matches("", "anything.at.all")


def test_select_accepts_prefix_queries():
    trace = Trace()
    trace.record(1.0, "vmm.deliver.net", seq=1)
    trace.record(2.0, "vmm.deliver.disk", req=7)
    trace.record(3.0, "vmm.emit")
    assert trace.count("vmm.deliver") == 2
    assert trace.times("vmm.deliver") == [1.0, 2.0]
    assert trace.count("vmm") == 3
    assert [r.category for r in trace.select("vmm.deliver", req=7)] \
        == ["vmm.deliver.disk"]


def test_ring_buffer_evicts_oldest_and_counts_drops():
    trace = Trace(max_per_category=3)
    for i in range(5):
        trace.record(float(i), "a", i=i)
    trace.record(9.0, "b")
    assert len(trace) == 4
    assert [r.payload["i"] for r in trace.select("a")] == [2, 3, 4]
    assert trace.dropped == 2
    assert trace.dropped_by_category == {"a": 2}


def test_trace_export_jsonl(tmp_path):
    trace = Trace()
    trace.record(1.0, "a.x", vm="m")
    trace.record(2.0, "b")
    trace.record(3.0, "a.y")
    path = tmp_path / "out.jsonl"
    assert trace.export(str(path), "a") == 2
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [l["category"] for l in lines] == ["a.x", "a.y"]
    assert lines[0]["payload"] == {"vm": "m"}
    assert [l["seq"] for l in lines] == [0, 2]


def test_jsonl_sink_streams_even_evicted_records(tmp_path):
    trace = Trace(max_per_category=2)
    path = tmp_path / "stream.jsonl"
    with JsonlSink(str(path), trace) as sink:
        for i in range(5):
            trace.record(float(i), "a")
    assert sink.written == 5
    assert len(path.read_text().splitlines()) == 5
    assert len(trace) == 2
    trace.record(9.0, "a")           # sink detached after close
    assert sink.written == 5


def test_trace_disabled_records_nothing():
    trace = Trace(enabled=False)
    trace.record(1.0, "x")
    assert len(trace) == 0


def test_trace_subscribe_streams_records():
    trace = Trace()
    seen = []
    trace.subscribe(seen.append)
    trace.record(1.0, "a")
    assert len(seen) == 1


def test_simulator_owns_trace_and_rng():
    sim = Simulator(seed=11)
    sim.trace.record(sim.now, "boot")
    assert sim.rng.stream("x") is sim.rng.stream("x")
    assert sim.trace.count("boot") == 1


def test_metricset_basics():
    metrics = MetricSet()
    metrics.incr("packets")
    metrics.incr("packets", 2)
    metrics.add("bytes", 10.5)
    metrics.observe("latency", 1.0)
    metrics.observe("latency", 3.0)
    assert metrics.counters["packets"] == 3
    assert metrics.mean("latency") == 2.0
    snap = metrics.snapshot()
    assert snap["sample_counts"]["latency"] == 2


def test_metricset_unknown_metric_raises():
    """Regression: a typo'd metric name must not read as a plausible 0.0."""
    metrics = MetricSet()
    metrics.observe("latency", 1.0)
    with pytest.raises(KeyError):
        metrics.mean("latencyy")
    with pytest.raises(KeyError):
        metrics.percentile("nope", 50)


def test_metricset_snapshot_has_min_max_mean_percentiles():
    metrics = MetricSet()
    for value in (1.0, 2.0, 3.0, 10.0):
        metrics.observe("latency", value)
    stats = metrics.snapshot()["observations"]["latency"]
    assert stats["count"] == 4
    assert stats["min"] == 1.0
    assert stats["max"] == 10.0
    assert stats["mean"] == 4.0
    assert stats["p50"] == 2.0
    assert stats["p99"] == 10.0


def test_nearest_rank_rule_and_empty_sample():
    values = [10.0, 1.0, 3.0, 2.0]          # unsorted input is fine
    assert nearest_rank(values, 50) == 2.0  # rank ceil(4 * 0.5) = 2
    assert nearest_rank(values, 51) == 3.0
    assert nearest_rank(values, 0) == 1.0
    assert nearest_rank(values, 100) == 10.0
    assert nearest_rank([], 95) is None


def test_metricset_exact_percentiles_are_nearest_rank():
    metrics = MetricSet()
    samples = [0.3 * i % 7.0 for i in range(1, 200)]
    for value in samples:
        metrics.observe("v", value)
    for p in (1, 50, 95, 99, 99.9):
        assert metrics.percentile("v", p) == nearest_rank(samples, p)


def test_metricset_histogram_kicks_in_past_sample_cap():
    metrics = MetricSet(max_samples_per_metric=100)
    for i in range(10_000):
        metrics.observe("v", float(i % 1000) + 1.0)
    assert len(metrics.samples["v"]) == 100
    snap = metrics.snapshot()["observations"]["v"]
    assert snap["count"] == 10_000
    assert snap["min"] == 1.0 and snap["max"] == 1000.0
    # histogram estimate: within the bucket's relative error of exact
    assert abs(snap["p50"] - 500.0) / 500.0 < 0.05
    assert abs(snap["p99"] - 990.0) / 990.0 < 0.05


def test_derive_root_seed_is_deterministic_and_distinct():
    from repro.sim import derive_root_seed
    seeds = [derive_root_seed(42, i) for i in range(1000)]
    assert seeds == [derive_root_seed(42, i) for i in range(1000)]
    assert len(set(seeds)) == 1000


def test_derive_root_seed_is_not_base_plus_index():
    from repro.sim import derive_root_seed
    seeds = [derive_root_seed(7, i) for i in range(8)]
    assert seeds != [7 + i for i in range(8)]
    diffs = {b - a for a, b in zip(seeds, seeds[1:])}
    assert diffs != {1}


def test_spawn_creates_independent_registries():
    base = RngRegistry(11)
    child0 = base.spawn(0)
    child1 = base.spawn(1)
    draws0 = [child0.stream("workload").random() for _ in range(32)]
    draws1 = [child1.stream("workload").random() for _ in range(32)]
    assert draws0 != draws1
    # no pairwise collisions in the streams themselves
    assert not set(draws0) & set(draws1)


def test_spawn_is_reproducible_and_differs_from_parent():
    base = RngRegistry(11)
    again = RngRegistry(11).spawn(3)
    assert base.spawn(3).stream("x").random() \
        == again.stream("x").random()
    assert base.spawn(3).stream("x").random() \
        != RngRegistry(11).stream("x").random()


def test_neighbouring_spawn_indices_do_not_collide_with_base_plus_one():
    # spawn(i) must not equal a registry seeded with root + i
    base = RngRegistry(20)
    for i in (1, 2, 3):
        spawned = base.spawn(i).stream("s").random()
        naive = RngRegistry(20 + i).stream("s").random()
        assert spawned != naive
