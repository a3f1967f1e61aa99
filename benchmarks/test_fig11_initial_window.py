"""Figure 11 — throughput as a function of the initial window (host model)."""

from benchmarks.conftest import print_table, run_cached
from repro.harness import figures


def _both(windows):
    perfect = figures.run_family("fig11", windows=windows, jittered=False)
    jittered = figures.run_family("fig11", windows=windows, jittered=True)
    rows = []
    for ideal, real in zip(perfect, jittered):
        rows.append(
            {
                "initial_window": ideal["initial_window"],
                "perfect_gbps": ideal["throughput_gbps"],
                "jittered_gbps": real["throughput_gbps"],
            }
        )
    return rows


def test_figure11_initial_window(benchmark, sim_cache):
    rows = run_cached(benchmark, sim_cache, _both, windows=(1, 2, 4, 8, 16, 32, 64))
    print_table("Figure 11: back-to-back throughput vs initial window", rows)

    benchmark.extra_info["iw1_gbps"] = rows[0]["perfect_gbps"]
    benchmark.extra_info["iw64_gbps"] = rows[-1]["perfect_gbps"]

    # a one-packet window cannot fill the pipe; larger windows saturate it
    assert rows[0]["perfect_gbps"] < rows[-1]["perfect_gbps"]
    assert rows[-1]["perfect_gbps"] > 9.0
    # throughput is monotonically non-decreasing (within a small tolerance)
    for before, after in zip(rows, rows[1:]):
        assert after["perfect_gbps"] >= before["perfect_gbps"] - 0.2
    # the measured (jittered) pull spacing barely changes throughput, which is
    # the paper's point: the window covers small gaps in PULLs
    saturated = [r for r in rows if r["initial_window"] >= 16]
    for row in saturated:
        assert abs(row["jittered_gbps"] - row["perfect_gbps"]) < 0.5
