"""Fig. 6 -- NFS under nhfsstone load.

Regenerates (a) average latency per operation vs. offered rate for
baseline and StopWatch, and (b) TCP packets per operation by direction.

Shape expectations (paper): StopWatch latency overhead bounded (< ~3x)
and growing only mildly with offered load; client-to-server packets per
operation *decrease* as load rises (request/ACK coalescing).
"""

from repro.analysis.experiments import fig6_nfs, render_fig6

RATES = (25, 50, 100, 200, 400)


def test_fig6_nfs(benchmark, save_result):
    rows = benchmark.pedantic(fig6_nfs, kwargs={"rates": RATES},
                              rounds=1, iterations=1)
    save_result("fig6a_nfs_latency.txt", render_fig6(rows))

    for rate, base, sw, c2s, s2c, _ in rows:
        assert sw > base
        assert sw / base < 6.0
    # latency overhead stays bounded at moderate loads (paper: < 2.7x)
    moderate = [row for row in rows if row[0] <= 200]
    assert all(row[2] / row[1] < 4.0 for row in moderate)
    # Fig 6(b): client->server packets/op decrease with load
    assert rows[-1][3] < rows[0][3]
