"""Figure 22 — permutation throughput with a degraded (1 Gb/s) core link."""

from benchmarks.conftest import print_table, run_cached
from repro.harness import figures
from repro.sim import units


def test_figure22_asymmetry(benchmark, sim_cache):
    results = run_cached(
        benchmark,
        sim_cache,
        figures.run_family, "fig22",
        k=4,
        degraded_rate_bps=units.gbps(1),
        duration_ps=units.milliseconds(3),
    )
    rows = []
    for name, result in results.items():
        goodputs = result.sorted_goodputs_gbps()
        rows.append(
            {
                "protocol": name,
                "utilization": result.utilization,
                "min_gbps": goodputs[0],
                "flows_below_5gbps": sum(1 for g in goodputs if g < 5.0),
            }
        )
    print_table("Figure 22: permutation with one core link degraded to 1 Gb/s", rows)

    util = {row["protocol"]: row["utilization"] for row in rows}
    worst = {row["protocol"]: row["min_gbps"] for row in rows}
    benchmark.extra_info.update({f"{k}_utilization": v for k, v in util.items()})

    # NDP and MPTCP route around the failure; single-path DCTCP cannot, and
    # its unlucky (ECMP-pinned) flows are badly hurt
    assert util["NDP"] > 0.8
    assert util["NDP"] >= util["MPTCP"] - 0.05
    assert worst["DCTCP"] < 3.0
    assert worst["NDP"] > worst["DCTCP"]
    # the path-penalty scoreboard is what protects NDP's unluckiest flows
    assert worst["NDP"] >= worst["NDP (no path penalty)"] - 0.3
    assert util["NDP"] >= util["NDP (no path penalty)"] - 0.02
