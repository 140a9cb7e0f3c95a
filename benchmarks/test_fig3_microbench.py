"""Figure 3: the client-server echo micro-benchmark.

Regenerates both panels — latency (3a) and throughput (3b) — for TCP,
RDMA Send/Receive, RDMA Read/Write and the optimized RDMA channel, and
asserts the paper's Section-V shape claims.
"""

from repro.bench import check_fig3_shape, fig3_panels


def test_fig3a_latency(benchmark, fig3_results):
    def build():
        return fig3_panels(fig3_results)[0]

    table = benchmark.pedantic(build, rounds=1, iterations=1)
    facts = check_fig3_shape(table)
    print()
    print(table.render())
    for fact in facts:
        print("  ", fact)
    benchmark.extra_info["table"] = table.render()
    benchmark.extra_info["facts"] = facts


def test_fig3b_throughput(benchmark, fig3_results):
    def build():
        return fig3_panels(fig3_results)[1]

    table = benchmark.pedantic(build, rounds=1, iterations=1)
    print()
    print(table.render(float_format="{:>12.2f}"))
    # Throughput must order inversely to latency: RW > CH > TCP and
    # RW > SR > TCP at every payload.
    for payload in table.payloads:
        tcp = table.value("tcp", payload)
        sr = table.value("rdma_send_recv", payload)
        rw = table.value("rdma_read_write", payload)
        ch = table.value("rdma_channel", payload)
        assert rw > sr > tcp, f"3b ordering broken at {payload}"
        assert rw > ch > tcp, f"3b ordering broken at {payload}"
    benchmark.extra_info["table"] = table.render(float_format="{:>12.2f}")
