"""Figure 4: RUBIN selector vs Java NIO selector through the Reptor stack.

Window 30, batching 10 (the paper's parameters); both panels regenerated
and checked against the Section-V claims.
"""

from repro.bench import check_fig4_shape, fig4_panels


def test_fig4a_latency(benchmark, fig4_results):
    def build():
        return fig4_panels(fig4_results)[0]

    table = benchmark.pedantic(build, rounds=1, iterations=1)
    print()
    print(table.render())
    benchmark.extra_info["table"] = table.render()


def test_fig4b_throughput(benchmark, fig4_results):
    def build():
        return fig4_panels(fig4_results)

    latency, throughput = benchmark.pedantic(build, rounds=1, iterations=1)
    facts = check_fig4_shape(latency, throughput)
    print()
    print(throughput.render(float_format="{:>12.0f}"))
    for fact in facts:
        print("  ", fact)
    benchmark.extra_info["table"] = throughput.render(float_format="{:>12.0f}")
    benchmark.extra_info["facts"] = facts
