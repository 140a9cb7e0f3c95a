#!/usr/bin/env python3
"""The Figure 3 micro-benchmark as a runnable script.

Compares TCP, raw RDMA Send/Receive, one-sided RDMA Read/Write and the
optimized RUBIN channel on the paper's echo workload, and prints both
panels plus the headline percentages of Section V.

Run:  python examples/echo_microbenchmark.py [--messages N]
"""

import argparse

from repro.bench import (
    FIG3_PAYLOADS,
    check_fig3_shape,
    fig3_panels,
    fig3_sweep,
    percent_lower,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--messages",
        type=int,
        default=100,
        help="echo messages per data point (paper: 1000)",
    )
    parser.add_argument(
        "--payloads",
        type=int,
        nargs="*",
        default=None,
        help="payload sizes in KB (default: the paper's 1-100 KB sweep)",
    )
    args = parser.parse_args()

    latency, throughput = fig3_panels(
        fig3_sweep(args.messages, args.payloads or FIG3_PAYLOADS)
    )

    print(latency.render())
    print()
    print(throughput.render(float_format="{:>12.2f}"))
    print()
    print("Paper claims (Section V) vs this run:")
    for fact in check_fig3_shape(latency):
        print("  ", fact)
    top = latency.payloads[-1]
    ch = latency.value("rdma_channel", top)
    sr = latency.value("rdma_send_recv", top)
    print(
        f"\nReceive-copy degradation at {top // 1024}KB: channel is "
        f"{percent_lower(sr, ch):.0f}% slower than plain Send/Receive — "
        "the paper's motivation for removing the receiver-side copy in "
        "future work."
    )


if __name__ == "__main__":
    main()
