"""Sec. VII-A -- what Δn and Δd translate to in real time.

The paper reports that under diverse workloads Δn translated to roughly
7-12 ms of real delay per inbound packet and Δd to roughly 8-15 ms per
disk interrupt.  This benchmark measures the same translation on the
simulator: ingress-arrival -> guest-delivery for network interrupts,
request -> delivery for disk interrupts.
"""

from repro.analysis import summarize
from repro.analysis.experiments import (delta_offset_translation,
                                        render_offsets)


def test_delta_offsets(benchmark, save_result):
    result = benchmark.pedantic(delta_offset_translation,
                                kwargs={"duration": 12.0},
                                rounds=1, iterations=1)
    net = summarize([d * 1000 for d in result["net_delays"]])
    disk = summarize([d * 1000 for d in result["disk_delays"]])
    save_result("sec7a_delta_offsets.txt", render_offsets(result))
    assert 6.0 < net["mean"] < 16.0
    assert 7.0 < disk["mean"] < 18.0
