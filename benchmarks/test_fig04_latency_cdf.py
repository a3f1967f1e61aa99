"""Figure 4 — delivery latency under permutation / random / incast matrices."""

from benchmarks.conftest import print_table, run_cached
from repro.harness import figures, metrics
from repro.sim import units


def test_figure4_latency_cdf(benchmark, sim_cache):
    samples = run_cached(
        benchmark,
        sim_cache,
        figures.run_family, "fig4",
        k=4,
        duration_ps=units.milliseconds(6),
    )
    rows = []
    for matrix, values in samples.items():
        rows.append(
            {
                "traffic_matrix": matrix,
                "packets": len(values),
                "median_us": metrics.percentile(values, 0.5),
                "p99_us": metrics.percentile(values, 0.99),
            }
        )
    print_table("Figure 4: packet delivery latency (send to ACK), microseconds", rows)

    by_matrix = {row["traffic_matrix"]: row for row in rows}
    benchmark.extra_info["permutation_median_us"] = by_matrix["permutation"]["median_us"]
    benchmark.extra_info["incast_median_us"] = by_matrix["incast"]["median_us"]

    # full-load permutation and random matrices keep latency in the
    # hundreds-of-microseconds range; an incast to one host is an order of
    # magnitude worse because the receiver link is the bottleneck
    assert by_matrix["permutation"]["median_us"] < 1_000
    assert by_matrix["random"]["median_us"] < 1_500
    assert by_matrix["incast"]["median_us"] > 2 * by_matrix["permutation"]["median_us"]
    # nothing is ever lost: every matrix delivers packets
    assert all(row["packets"] > 0 for row in rows)
