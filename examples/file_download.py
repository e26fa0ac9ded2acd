#!/usr/bin/env python
"""File-download performance, HTTP vs UDP+NAK (paper Fig. 5, shortened).

Shows the paper's two Sec. VII-C findings:

1. TCP downloads pay StopWatch's Δn on every inbound packet (SYN, ACKs),
   costing up to ~2.8x for large files and more for small ones.
2. A transport that minimises inbound packets -- UDP with NAK-based
   reliability, as in PGM -- makes download over StopWatch competitive
   with unmodified Xen.

Run:  python examples/file_download.py   (~1 minute)
"""

from repro.analysis.experiments import fig5_file_download, render_fig5

SIZES = (1_000, 10_000, 100_000, 1_000_000)


def main() -> None:
    print(f"Downloading files of {len(SIZES)} sizes under four "
          f"configurations (baseline/StopWatch x HTTP/UDP)...")
    print(render_fig5(fig5_file_download(sizes=SIZES, trials=1)))
    print("\nNote how the HTTP ratio stays bounded near ~3x and falls "
          "with file size\n(the paper reports <2.8x for >= 100 KB), "
          "while UDP+NAK over StopWatch\napproaches baseline speed.")


if __name__ == "__main__":
    main()
