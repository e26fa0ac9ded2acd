"""Extension -- the timing covert channel StopWatch is built to cut.

The threat model's original setting (Sec. I): a Trojan victim signals
bits to a coresident attacker by modulating load.  This benchmark
measures the channel's bit error rate with and without StopWatch.
"""

from repro.analysis.experiments import covert_channel_ber, render_covert


def test_covert_channel(benchmark, save_result):
    result = benchmark.pedantic(covert_channel_ber, kwargs={"bits": 24},
                                rounds=1, iterations=1)
    baseline, stopwatch = result["baseline"], result["stopwatch"]
    save_result("covert_channel_ber.txt", render_covert(result))
    assert baseline.bit_error_rate <= 0.2
    assert stopwatch.bit_error_rate >= 0.25
