#!/usr/bin/env python
"""An NFS service under StopWatch (paper Fig. 6, shortened).

Runs the nhfsstone-style load generator (five client processes, the
paper's operation mix) against a replicated NFS server, at several
offered rates, under both unmodified Xen and StopWatch.

Run:  python examples/nfs_service.py   (~30 seconds)
"""

from repro.analysis.experiments import fig6_nfs, render_fig6

RATES = (25, 100, 400)


def main() -> None:
    print("nhfsstone against a StopWatch-replicated NFS server")
    print(f"(operation mix: 32% read, 24% lookup, 12% write, "
          f"12% create, 11% setattr, 8% getattr)")
    print(render_fig6(fig6_nfs(rates=RATES, duration=6.0)))
    print("\nThe overhead stays bounded as load rises because inbound "
          "packet deliveries\npipeline, and client->server packets per "
          "op fall (request/ACK coalescing) --\nthe paper's Fig. 6(b) "
          "effect.")


if __name__ == "__main__":
    main()
