"""Figure 14 — per-flow throughput on a permutation matrix, all protocols."""

from benchmarks.conftest import print_table, run_cached
from repro.harness import figures
from repro.sim import units


def test_figure14_permutation_throughput(benchmark, sim_cache):
    results = run_cached(
        benchmark,
        sim_cache,
        figures.run_family, "fig14",
        k=4,
        duration_ps=units.milliseconds(2),
    )
    rows = []
    for name, result in results.items():
        goodputs = result.sorted_goodputs_gbps()
        rows.append(
            {
                "protocol": name,
                "utilization": result.utilization,
                "min_gbps": goodputs[0],
                "median_gbps": goodputs[len(goodputs) // 2],
                "max_gbps": goodputs[-1],
            }
        )
    print_table("Figure 14: permutation traffic matrix, per-flow goodput", rows)

    util = {row["protocol"]: row["utilization"] for row in rows}
    benchmark.extra_info.update({f"{k}_utilization": v for k, v in util.items()})

    # headline ordering of the paper: NDP > MPTCP >> single-path DCTCP/DCQCN
    assert util["NDP"] > 0.85
    assert util["NDP"] > util["MPTCP"]
    assert util["MPTCP"] > util["DCTCP"]
    assert util["DCTCP"] < 0.75  # ECMP collisions waste capacity
    assert util["DCQCN"] < 0.75
    # NDP is also the fairest: its slowest flow still gets most of its share
    min_gbps = {row["protocol"]: row["min_gbps"] for row in rows}
    assert min_gbps["NDP"] > 7.0
    assert min_gbps["NDP"] > min_gbps["DCTCP"]
