"""Figure 16 — incast completion time versus the number of senders."""

from benchmarks.conftest import print_table, run_cached
from repro.harness import figures


def test_figure16_incast_scaling(benchmark, sim_cache):
    rows = run_cached(
        benchmark,
        sim_cache,
        figures.run_family, "fig16",
        sender_counts=(4, 8, 16, 32),
        protocols=("NDP", "DCTCP", "DCQCN", "MPTCP"),
    )
    print_table("Figure 16: incast completion time (ms) vs number of senders", rows)

    largest = rows[-1]
    benchmark.extra_info["ndp_ms_at_max"] = largest["NDP"]
    benchmark.extra_info["mptcp_ms_at_max"] = largest["MPTCP"]

    for row in rows:
        # NDP tracks the optimum at every fan-in; DCTCP follows until its
        # buffers overflow at the largest incasts and timeouts creep in
        assert row["NDP"] < 1.25 * row["ideal_ms"]
        assert row["DCTCP"] < 4.0 * row["ideal_ms"]
        # MPTCP (tail-loss TCP) is crippled by synchronized losses / timeouts
        assert row["MPTCP"] > row["NDP"]
    assert largest["MPTCP"] > 3 * largest["NDP"]
    # completion time grows with the incast size for the well-behaved protocols
    assert rows[-1]["NDP"] > rows[0]["NDP"] * 4
