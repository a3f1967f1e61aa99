"""Figure 19 — collateral damage of an incast on a long flow to a neighbour."""

from benchmarks.conftest import print_table, run_cached
from repro.harness import figures
from repro.sim import units


INCAST_START = units.milliseconds(5)
INCAST_SETTLE = units.milliseconds(7)
INCAST_END = units.milliseconds(14)


def _mean_rate(series, start, end):
    values = [rate for time, rate in series if start <= time <= end]
    return sum(values) / len(values) if values else 0.0


def test_figure19_collateral_damage(benchmark, sim_cache):
    results = run_cached(
        benchmark,
        sim_cache,
        figures.run_family, "fig19",
        protocols=("NDP", "DCTCP", "DCQCN"),
        incast_senders=14,
        duration_ps=units.milliseconds(22),
    )
    rows = []
    for protocol, series in results.items():
        before = _mean_rate(series["long_flow"], units.milliseconds(2), INCAST_START)
        during = _mean_rate(series["long_flow"], INCAST_SETTLE, INCAST_END)
        incast_rate = _mean_rate(series["incast"], INCAST_SETTLE, INCAST_END)
        rows.append(
            {
                "protocol": protocol,
                "long_flow_before_gbps": before / 1e9,
                "long_flow_during_incast_gbps": during / 1e9,
                "incast_goodput_gbps": incast_rate / 1e9,
                "pause_events": series["pause_events"],
            }
        )
    print_table("Figure 19: long-flow goodput while a 14:1 incast hits a neighbour", rows)

    by_protocol = {row["protocol"]: row for row in rows}
    benchmark.extra_info["ndp_during_gbps"] = by_protocol["NDP"]["long_flow_during_incast_gbps"]
    benchmark.extra_info["dcqcn_during_gbps"] = by_protocol["DCQCN"]["long_flow_during_incast_gbps"]

    # before the incast everyone runs the long flow near line rate
    for row in rows:
        assert row["long_flow_before_gbps"] > 7.5
    # NDP isolates the long flow almost completely from the incast...
    assert by_protocol["NDP"]["long_flow_during_incast_gbps"] > 8.0
    # ...while DCQCN's PFC pauses punish it severely (collateral damage)
    assert by_protocol["DCQCN"]["pause_events"] > 0
    assert (
        by_protocol["DCQCN"]["long_flow_during_incast_gbps"]
        < 0.75 * by_protocol["NDP"]["long_flow_during_incast_gbps"]
    )
    # the incast itself still makes progress under every protocol
    for row in rows:
        assert row["incast_goodput_gbps"] > 0.5
