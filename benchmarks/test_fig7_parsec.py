"""Fig. 7 -- PARSEC application runtimes and disk interrupts.

Regenerates (a) baseline vs. StopWatch runtimes for the five kernels
and (b) their disk-interrupt counts, next to the paper's values.

Shape expectations (paper): StopWatch overhead at most ~2.3x, and the
absolute overhead correlates directly with the number of disk
interrupts.
"""

from repro.analysis.experiments import (
    PARSEC_PAPER_VALUES,
    fig7_parsec,
    render_fig7,
)


def test_fig7_parsec(benchmark, save_result):
    rows = benchmark.pedantic(fig7_parsec, rounds=1, iterations=1)
    save_result("fig7_parsec.txt", render_fig7(rows))

    overheads = {}
    for name, base, sw, ints, _, _, paper_ints in rows:
        assert sw > base
        assert sw / base < 2.6          # paper: at most ~2.3x
        assert ints == paper_ints       # calibrated I/O plans
        overheads[name] = (sw - base, ints)
        # within 35% of the paper's absolute runtimes
        paper_base, paper_sw, _ = PARSEC_PAPER_VALUES[name]
        assert abs(base * 1000 - paper_base) / paper_base < 0.35
        assert abs(sw * 1000 - paper_sw) / paper_sw < 0.35

    # Fig. 7(b) correlation: overhead ordering follows interrupt ordering
    by_ints = sorted(overheads.values(), key=lambda pair: pair[1])
    deltas = [delta for delta, _ in by_ints]
    assert deltas[0] < deltas[-1]
    assert deltas == sorted(deltas) or (
        # allow one local inversion from noise
        sum(1 for a, b in zip(deltas, deltas[1:]) if a > b) <= 1)
